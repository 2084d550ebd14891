module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %adds = "transform.match_op"(%root) {name = "arith.addi", select = "all"} : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%adds) {name = "fuzz.tagged"} : (!transform.any_op) -> ()
  }
}
