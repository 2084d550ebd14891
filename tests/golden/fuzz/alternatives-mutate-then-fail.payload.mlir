module {
  func.func @main(%arg0: memref<8x16xf32>) {
    %lo = arith.constant 0 : index
    %rows = arith.constant 8 : index
    %cols = arith.constant 16 : index
    %step = arith.constant 1 : index
    scf.for %j = %lo to %rows step %step {
      scf.for %i = %lo to %cols step %step {
        %v = "memref.load"(%arg0, %j, %i) : (memref<8x16xf32>, index, index) -> f32
        %w = "arith.addf"(%v, %v) : (f32, f32) -> f32
        "memref.store"(%w, %arg0, %j, %i) : (f32, memref<8x16xf32>, index, index) -> ()
      }
    }
    func.return
  }
}
