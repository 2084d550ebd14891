//! Static handle-invalidation analysis (§3.4).
//!
//! Since Transform scripts are ordinary IR, use-after-consume is an
//! off-the-shelf "use after free" dataflow problem: handle definition is an
//! allocation, consumption is a free, and derivation (a handle produced
//! from another, e.g. by `match_op`) is aliasing-into. The analysis walks
//! the script once, tracking a consumed set, and reports every use of a
//! consumed (or derived-from-consumed) handle — *without touching any
//! payload*.
//!
//! The analysis is conservative: results derived from a handle are assumed
//! to point into its payload, so consuming the source also invalidates
//! them. (A `loop.hoist` result, which escapes its source loop, is the one
//! standard op where this over-approximates.)

use crate::registry::TransformOpRegistry;
use std::collections::{HashMap, HashSet};
use td_ir::{Context, OpId, ValueId};
use td_support::Diagnostic;

/// Runs the static analysis over the transform ops nested in `entry`
/// (typically a `transform.named_sequence`). Returns one diagnostic per
/// use of an invalidated handle.
pub fn analyze_invalidation(
    ctx: &Context,
    registry: &TransformOpRegistry,
    entry: OpId,
) -> Vec<Diagnostic> {
    let mut analysis = Analysis {
        ctx,
        registry,
        derived: HashMap::new(),
        consumed: HashMap::new(),
        diagnostics: Vec::new(),
    };
    analysis.run_region_ops(entry);
    analysis.diagnostics
}

struct Analysis<'c> {
    ctx: &'c Context,
    registry: &'c TransformOpRegistry,
    /// Forward derivation edges: source handle → handles derived from it.
    derived: HashMap<ValueId, Vec<ValueId>>,
    /// Consumed handles → description of the consumer.
    consumed: HashMap<ValueId, String>,
    diagnostics: Vec<Diagnostic>,
}

impl Analysis<'_> {
    fn run_region_ops(&mut self, op: OpId) {
        for &region in self.ctx.op(op).regions() {
            for &block in self.ctx.region(region).blocks() {
                for nested in self.ctx.block_ops(block) {
                    self.visit(nested);
                }
            }
        }
    }

    fn visit(&mut self, op: OpId) {
        let name = self.ctx.op(op).name;
        if name.as_str() == "transform.yield" {
            return;
        }
        // 1. Uses of consumed handles are errors.
        for (index, &operand) in self.ctx.op(op).operands().iter().enumerate() {
            if let Some(consumer) = self.consumed.get(&operand) {
                self.diagnostics.push(
                    Diagnostic::error(
                        self.ctx.op(op).location.clone(),
                        format!(
                            "'{name}' op uses operand #{index}, a handle that was \
                             invalidated earlier"
                        ),
                    )
                    .with_note(
                        td_support::Location::unknown(),
                        format!("handle was consumed by {consumer}"),
                    ),
                );
            }
        }
        // 2. Consumption: free the operand and everything derived from it.
        if let Some(def) = self.registry.def(name) {
            for &index in &def.consumed_operands {
                if let Some(&operand) = self.ctx.op(op).operands().get(index) {
                    self.consume(operand, &format!("'{name}'"));
                }
            }
        }
        // 3. Derivation: results alias into the op-handle operands.
        let operands = self.ctx.op(op).operands().to_vec();
        for &result in self.ctx.op(op).results() {
            for &operand in &operands {
                self.derived.entry(operand).or_default().push(result);
            }
        }
        // 4. Nested regions (sequence/foreach/alternatives bodies) are
        //    analyzed in sequence with the same state — conservative for
        //    alternatives, exact for sequence/foreach.
        self.run_region_ops(op);
    }

    fn consume(&mut self, handle: ValueId, consumer: &str) {
        let mut worklist = vec![handle];
        let mut seen: HashSet<ValueId> = HashSet::new();
        while let Some(value) = worklist.pop() {
            if !seen.insert(value) {
                continue;
            }
            self.consumed
                .entry(value)
                .or_insert_with(|| consumer.to_owned());
            if let Some(children) = self.derived.get(&value) {
                worklist.extend(children.iter().copied());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_ir::parse_module;

    fn analyze(script: &str) -> Vec<Diagnostic> {
        let mut ctx = Context::new();
        td_dialects::register_all_dialects(&mut ctx);
        crate::ops::register_transform_dialect(&mut ctx);
        let module = parse_module(&mut ctx, script).expect("script parses");
        let entry = ctx
            .walk_nested(module)
            .into_iter()
            .find(|&op| ctx.op(op).name.as_str() == "transform.named_sequence")
            .expect("has entry");
        let registry = TransformOpRegistry::with_standard_ops();
        analyze_invalidation(&ctx, &registry, entry)
    }

    /// Figure 1a with the deliberate error on its line 11: statically
    /// detected, no payload needed.
    #[test]
    fn fig1_double_unroll_detected_statically() {
        let diags = analyze(
            r#"module {
  transform.named_sequence @main(%func: !transform.any_op) {
    %outer = "transform.match_op"(%func) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %inner = "transform.match_op"(%outer) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %param = "transform.param.constant"() {value = 8} : () -> !transform.param
    %part0, %part1 = "transform.loop.split"(%inner, %param) : (!transform.any_op, !transform.param) -> (!transform.any_op, !transform.any_op)
    %tiled0, %tiled1 = "transform.loop.tile"(%part0, %param) : (!transform.any_op, !transform.param) -> (!transform.any_op, !transform.any_op)
    %unrolled = "transform.loop.unroll"(%part1) {full} : (!transform.any_op) -> !transform.any_op
    %unrolled2 = "transform.loop.unroll"(%part1) {full} : (!transform.any_op) -> !transform.any_op
  }
}"#,
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message().contains("invalidated earlier"));
        assert!(diags[0].notes()[0].1.contains("transform.loop.unroll"));
    }

    #[test]
    fn clean_script_has_no_findings() {
        let diags = analyze(
            r#"module {
  transform.named_sequence @main(%func: !transform.any_op) {
    %loop = "transform.match_op"(%func) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %t0, %t1 = "transform.loop.tile"(%loop) {tile_sizes = [32]} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
    %u = "transform.loop.unroll"(%t1) {full} : (!transform.any_op) -> !transform.any_op
  }
}"#,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn derived_handles_are_invalidated_transitively() {
        // %inner derives from %outer; consuming %outer invalidates %inner.
        let diags = analyze(
            r#"module {
  transform.named_sequence @main(%func: !transform.any_op) {
    %outer = "transform.match_op"(%func) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %inner = "transform.match_op"(%outer) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %u = "transform.loop.unroll"(%outer) {full} : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%inner) {name = "x"} : (!transform.any_op) -> ()
  }
}"#,
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message().contains("transform.annotate"));
    }

    #[test]
    fn use_inside_nested_region_detected() {
        let diags = analyze(
            r#"module {
  transform.named_sequence @main(%func: !transform.any_op) {
    %loop = "transform.match_op"(%func) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %u = "transform.loop.unroll"(%loop) {full} : (!transform.any_op) -> !transform.any_op
    "transform.sequence"(%func) ({
    ^bb0(%arg: !transform.any_op):
      "transform.annotate"(%loop) {name = "x"} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) : (!transform.any_op) -> ()
  }
}"#,
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
    }
}
