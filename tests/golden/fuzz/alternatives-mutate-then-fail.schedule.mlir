module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %inner = "transform.match_op"(%root) {name = "scf.for", select = "last"} : (!transform.any_op) -> !transform.any_op
    "transform.alternatives"(%inner) ({
    ^bb0(%arg0: !transform.any_op):
      %tiles, %points = "transform.loop.tile"(%arg0) {tile_sizes = [4]} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
      %doomed = "transform.match_op"(%points) {name = "fuzz.absent", select = "first"} : (!transform.any_op) -> !transform.any_op
      "transform.yield"() : () -> ()
    }, {
    ^bb1(%arg1: !transform.any_op):
      "transform.yield"() : () -> ()
    }) : (!transform.any_op) -> ()
  }
}
