//! Transform scripts are IR, so the compiler can optimize *them* (§3.4):
//!
//! * [`inline_includes`] expands `transform.include` macro calls (named
//!   sequences do not recurse — checked — so inlining always terminates);
//! * [`propagate_params`] folds `transform.param.constant` values into the
//!   attribute slots of their users (constant propagation over the script);
//! * [`simplify`] removes provably no-op transforms: unrolling by 1 and
//!   tiling by 0 do nothing, so interpreting them would only waste compile
//!   time — the simplifier deletes them without ever touching a payload.

use std::collections::HashMap;
use td_ir::{Attribute, Context, OpId, ValueId};
use td_support::Diagnostic;

/// Expands every `transform.include` inside `script_module` by inlining the
/// referenced named sequence. Returns the number of expanded includes.
///
/// # Errors
/// Fails on unknown targets or recursive include cycles.
pub fn inline_includes(ctx: &mut Context, script_module: OpId) -> Result<usize, Diagnostic> {
    check_no_recursion(ctx, script_module)?;
    let mut expanded = 0;
    loop {
        let Some(include) = ctx
            .walk_nested(script_module)
            .into_iter()
            .find(|&op| ctx.op(op).name.as_str() == "transform.include")
        else {
            break;
        };
        let target = ctx
            .op(include)
            .attr("target")
            .and_then(Attribute::as_symbol)
            .ok_or_else(|| {
                Diagnostic::error(
                    ctx.op(include).location.clone(),
                    "'transform.include' requires a 'target' symbol",
                )
            })?;
        let callee = ctx
            .lookup_symbol(script_module, target.as_str())
            .ok_or_else(|| {
                Diagnostic::error(
                    ctx.op(include).location.clone(),
                    format!("unknown named sequence @{target}"),
                )
            })?;
        // Clone the callee body before the include, mapping block args to
        // the include's operands.
        let callee_block = ctx.sole_block(callee, 0);
        let params = ctx.block(callee_block).args().to_vec();
        let arguments = ctx.op(include).operands().to_vec();
        if params.len() != arguments.len() {
            return Err(Diagnostic::error(
                ctx.op(include).location.clone(),
                "include argument count differs from the named sequence",
            ));
        }
        let mut map: HashMap<ValueId, ValueId> = params.into_iter().zip(arguments).collect();
        let body_ops = ctx.block_ops(callee_block).collect::<Vec<_>>();
        for op in body_ops {
            if ctx.op(op).name.as_str() == "transform.yield" {
                continue;
            }
            let clone = ctx.clone_op(op, &mut map);
            ctx.move_op_before(clone, include);
        }
        ctx.erase_op(include);
        expanded += 1;
    }
    Ok(expanded)
}

/// Verifies the include call graph is acyclic.
fn check_no_recursion(ctx: &Context, script_module: OpId) -> Result<(), Diagnostic> {
    // Edges: named_sequence → included named_sequence names.
    let mut edges: HashMap<String, Vec<String>> = HashMap::new();
    for op in ctx.walk_nested(script_module) {
        if ctx.op(op).name.as_str() != "transform.named_sequence" {
            continue;
        }
        let Some(name) = ctx
            .op(op)
            .attr("sym_name")
            .and_then(|a| a.as_str().map(str::to_owned))
        else {
            continue;
        };
        let mut callees = Vec::new();
        for nested in ctx.walk_nested(op) {
            if ctx.op(nested).name.as_str() == "transform.include" {
                if let Some(t) = ctx.op(nested).attr("target").and_then(Attribute::as_symbol) {
                    callees.push(t.as_str().to_owned());
                }
            }
        }
        edges.insert(name, callees);
    }
    // DFS cycle detection.
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        InProgress,
        Done,
    }
    fn dfs(
        node: &str,
        edges: &HashMap<String, Vec<String>>,
        marks: &mut HashMap<String, Mark>,
    ) -> Result<(), String> {
        match marks.get(node) {
            Some(Mark::Done) => return Ok(()),
            Some(Mark::InProgress) => return Err(node.to_owned()),
            None => {}
        }
        marks.insert(node.to_owned(), Mark::InProgress);
        for callee in edges.get(node).map(Vec::as_slice).unwrap_or(&[]) {
            dfs(callee, edges, marks)?;
        }
        marks.insert(node.to_owned(), Mark::Done);
        Ok(())
    }
    let mut marks = HashMap::new();
    for node in edges.keys() {
        if let Err(cycle_node) = dfs(node, &edges, &mut marks) {
            return Err(Diagnostic::error(
                td_support::Location::unknown(),
                format!("recursive transform macro @{cycle_node}: inlining would not terminate"),
            ));
        }
    }
    Ok(())
}

/// Folds `transform.param.constant` values into the attributes of the
/// transforms that use them, then erases dead parameter ops. Returns the
/// number of propagated uses.
pub fn propagate_params(ctx: &mut Context, script_root: OpId) -> usize {
    let mut propagated = 0;
    // Map: which attribute does the parameter operand of each op feed?
    let slot_of = |name: &str| -> Option<(&'static str, usize)> {
        match name {
            "transform.loop.split" => Some(("div_by", 1)),
            "transform.loop.tile" => Some(("tile_size", 1)),
            "transform.loop.unroll" => Some(("factor", 1)),
            _ => None,
        }
    };
    for op in ctx.walk_nested(script_root) {
        if !ctx.is_live(op) {
            continue;
        }
        let name = ctx.op(op).name.as_str().to_owned();
        let Some((attr_name, operand_index)) = slot_of(&name) else {
            continue;
        };
        if ctx.op(op).attr(attr_name).is_some() {
            continue;
        }
        let Some(&param_value) = ctx.op(op).operands().get(operand_index) else {
            continue;
        };
        let Some(def) = ctx.defining_op(param_value) else {
            continue;
        };
        if ctx.op(def).name.as_str() != "transform.param.constant" {
            continue;
        }
        let Some(value) = ctx.op(def).attr("value").cloned() else {
            continue;
        };
        // Fold: set the attribute and drop the operand.
        ctx.set_attr(op, attr_name, value);
        remove_operand(ctx, op, operand_index);
        propagated += 1;
    }
    // DCE dead parameter constants.
    for op in ctx.walk_nested(script_root) {
        if ctx.is_live(op)
            && ctx.op(op).name.as_str() == "transform.param.constant"
            && ctx.op(op).results().iter().all(|&r| !ctx.has_uses(r))
        {
            ctx.erase_op(op);
        }
    }
    propagated
}

/// Removes one operand from an op, maintaining use lists.
fn remove_operand(ctx: &mut Context, op: OpId, index: usize) {
    // Rebuild the op's operand list via the public API: point the operand
    // at itself is not possible, so we recreate the op without the operand.
    let data = ctx.op(op);
    let mut operands = data.operands().to_vec();
    operands.remove(index);
    let attributes = data.attributes().to_vec();
    let result_types: Vec<td_ir::TypeId> =
        data.results().iter().map(|&r| ctx.value_type(r)).collect();
    let name = ctx.op(op).name;
    let location = ctx.op(op).location.clone();
    assert!(
        ctx.op(op).regions().is_empty(),
        "param-feeding transforms have no regions"
    );
    let new_op = ctx.create_op(location, name, operands, result_types, attributes, 0);
    ctx.insert_op_before(op, new_op);
    let old_results = ctx.op(op).results().to_vec();
    let new_results = ctx.op(new_op).results().to_vec();
    for (old, new) in old_results.into_iter().zip(new_results) {
        ctx.replace_all_uses(old, new);
    }
    ctx.erase_op(op);
}

/// Removes provably no-op transforms (`unroll` by 1, `tile` by 0) by
/// forwarding their operand handles to their results. Returns the number of
/// removed ops.
pub fn simplify(ctx: &mut Context, script_root: OpId) -> usize {
    let mut removed = 0;
    for op in ctx.walk_nested(script_root) {
        if !ctx.is_live(op) {
            continue;
        }
        let name = ctx.op(op).name.as_str();
        let is_noop = match name {
            "transform.loop.unroll" => {
                ctx.op(op).attr("factor").and_then(Attribute::as_int) == Some(1)
            }
            "transform.loop.tile" => {
                let by_attr = ctx
                    .op(op)
                    .attr("tile_sizes")
                    .and_then(Attribute::as_int_array)
                    .is_some_and(|sizes| sizes.iter().all(|&s| s == 0));
                let by_single = ctx.op(op).attr("tile_size").and_then(Attribute::as_int) == Some(0);
                by_attr || by_single
            }
            _ => false,
        };
        if !is_noop {
            continue;
        }
        let source = ctx.op(op).operands()[0];
        let results = ctx.op(op).results().to_vec();
        for result in results {
            ctx.replace_all_uses(result, source);
        }
        ctx.erase_op(op);
        removed += 1;
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_ir::parse_module;

    fn parse(script: &str) -> (Context, OpId) {
        let mut ctx = Context::new();
        td_dialects::register_all_dialects(&mut ctx);
        crate::ops::register_transform_dialect(&mut ctx);
        let module = parse_module(&mut ctx, script).expect("script parses");
        (ctx, module)
    }

    #[test]
    fn inlines_includes() {
        let (mut ctx, module) = parse(
            r#"module {
  transform.named_sequence @helper(%loop: !transform.any_op) {
    %t0, %t1 = "transform.loop.tile"(%loop) {tile_sizes = [8]} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
  }
  transform.named_sequence @main(%root: !transform.any_op) {
    %loop = "transform.match_op"(%root) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    "transform.include"(%loop) {target = @helper} : (!transform.any_op) -> ()
  }
}"#,
        );
        let expanded = inline_includes(&mut ctx, module).unwrap();
        assert_eq!(expanded, 1);
        let main = ctx.lookup_symbol(module, "main").unwrap();
        let names: Vec<&str> = ctx
            .walk_nested(main)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(names.contains(&"transform.loop.tile"), "{names:?}");
        assert!(!names.contains(&"transform.include"));
    }

    #[test]
    fn recursion_is_rejected() {
        let (mut ctx, module) = parse(
            r#"module {
  transform.named_sequence @a(%x: !transform.any_op) {
    "transform.include"(%x) {target = @b} : (!transform.any_op) -> ()
  }
  transform.named_sequence @b(%y: !transform.any_op) {
    "transform.include"(%y) {target = @a} : (!transform.any_op) -> ()
  }
}"#,
        );
        let err = inline_includes(&mut ctx, module).unwrap_err();
        assert!(err.message().contains("recursive"), "{err}");
    }

    #[test]
    fn propagates_constant_params() {
        let (mut ctx, module) = parse(
            r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %loop = "transform.match_op"(%root) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %p = "transform.param.constant"() {value = 8} : () -> !transform.param
    %m, %r = "transform.loop.split"(%loop, %p) : (!transform.any_op, !transform.param) -> (!transform.any_op, !transform.any_op)
  }
}"#,
        );
        let propagated = propagate_params(&mut ctx, module);
        assert_eq!(propagated, 1);
        let split = ctx
            .walk_nested(module)
            .into_iter()
            .find(|&o| ctx.op(o).name.as_str() == "transform.loop.split")
            .unwrap();
        assert_eq!(ctx.op(split).attr("div_by"), Some(&Attribute::Int(8)));
        assert_eq!(
            ctx.op(split).operands().len(),
            1,
            "parameter operand folded away"
        );
        let names: Vec<&str> = ctx
            .walk_nested(module)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(
            !names.contains(&"transform.param.constant"),
            "dead param removed: {names:?}"
        );
    }

    #[test]
    fn simplifies_noop_transforms() {
        let (mut ctx, module) = parse(
            r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %loop = "transform.match_op"(%root) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %u = "transform.loop.unroll"(%loop) {factor = 1} : (!transform.any_op) -> !transform.any_op
    %t0, %t1 = "transform.loop.tile"(%u) {tile_sizes = [0, 0]} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
    "transform.annotate"(%t1) {name = "x"} : (!transform.any_op) -> ()
  }
}"#,
        );
        let removed = simplify(&mut ctx, module);
        assert_eq!(removed, 2);
        // The annotate now consumes the match result directly.
        let annotate = ctx
            .walk_nested(module)
            .into_iter()
            .find(|&o| ctx.op(o).name.as_str() == "transform.annotate")
            .unwrap();
        let source = ctx.defining_op(ctx.op(annotate).operands()[0]).unwrap();
        assert_eq!(ctx.op(source).name.as_str(), "transform.match_op");
    }
}
