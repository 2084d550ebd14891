module {
  func.func @main(%t: tensor<8x16xf32>) {
    %a = arith.constant 1 : index
    %s = "arith.addi"(%a, %a) : (index, index) -> index
    func.return
  }
}
