//! The standard transform operations: structural combinators
//! (`sequence`, `include`, `foreach`, `alternatives`), matching and
//! parameters (`match_op`, `param.constant`, `get_parent_op`,
//! `merge_handles`, `annotate`), loop transforms (`loop.tile`,
//! `loop.split`, `loop.unroll`, `loop.hoist`, `loop.interchange`,
//! `loop.peel`), and compiler-integration ops
//! (`apply_registered_pass`, `apply_patterns`, `to_library`).

use crate::error::{TransformError, TransformResult};
use crate::interp::Interpreter;
use crate::loop_transforms;
use crate::registry::{TransformOpDef, TransformOpRegistry};
use crate::state::TransformState;
use td_ir::rewrite::{apply_patterns_greedily, GreedyConfig, PatternSet};
use td_ir::{Attribute, Context, OpId, OpSpec, OpTraits, ValueId};
use td_support::{metrics, trace, Location};

/// Registers the transform dialect's op *specs* (for IR verification and
/// printing of Transform scripts themselves).
pub fn register_transform_dialect(ctx: &mut Context) {
    ctx.registry.note_dialect("transform");
    ctx.registry.register(
        OpSpec::new("transform.named_sequence", "reusable transform macro")
            .with_traits(OpTraits::ISOLATED_FROM_ABOVE | OpTraits::SYMBOL),
    );
    ctx.registry
        .register(OpSpec::new("transform.sequence", "sequential composition"));
    ctx.registry.register(
        OpSpec::new("transform.yield", "region terminator").with_traits(OpTraits::TERMINATOR),
    );
    for name in [
        "transform.include",
        "transform.foreach",
        "transform.alternatives",
        "transform.match_op",
        "transform.param.constant",
        "transform.merge_handles",
        "transform.get_parent_op",
        "transform.annotate",
        "transform.print",
        "transform.loop.tile",
        "transform.loop.split",
        "transform.loop.unroll",
        "transform.loop.hoist",
        "transform.loop.interchange",
        "transform.loop.peel",
        "transform.loop.fuse",
        "transform.apply_registered_pass",
        "transform.apply_patterns",
        "transform.to_library",
        "transform.select_op",
    ] {
        ctx.registry
            .register(OpSpec::new(name, "transform operation"));
    }
}

fn loc(ctx: &Context, op: OpId) -> Location {
    ctx.op(op).location.clone()
}

fn definite(ctx: &Context, op: OpId, message: impl Into<String>) -> TransformError {
    TransformError::definite(loc(ctx, op), message)
}

fn silenceable(ctx: &Context, op: OpId, message: impl Into<String>) -> TransformError {
    TransformError::silenceable(loc(ctx, op), message)
}

fn operand(ctx: &Context, op: OpId, index: usize) -> TransformResult<ValueId> {
    ctx.op(op)
        .operands()
        .get(index)
        .copied()
        .ok_or_else(|| definite(ctx, op, format!("expects at least {} operands", index + 1)))
}

fn result(ctx: &Context, op: OpId, index: usize) -> TransformResult<ValueId> {
    ctx.op(op)
        .results()
        .get(index)
        .copied()
        .ok_or_else(|| definite(ctx, op, format!("expects at least {} results", index + 1)))
}

/// Reads an integer parameter: either a literal attribute named
/// `attr_name`, or — when absent — the `param_index`-th operand interpreted
/// as a `!transform.param` value. This is how transforms externalize
/// heuristics (§3): callers may hard-code a value or pass a parameter.
fn int_config(
    ctx: &Context,
    state: &TransformState,
    op: OpId,
    attr_name: &str,
    param_operand: Option<usize>,
) -> TransformResult<Option<i64>> {
    if let Some(attr) = ctx.op(op).attr(attr_name) {
        if let Some(v) = attr.as_int() {
            return Ok(Some(v));
        }
    }
    if let Some(index) = param_operand {
        if let Some(&value) = ctx.op(op).operands().get(index) {
            let params = state.params(value, &loc(ctx, op))?;
            let Some(first) = params.first() else {
                return Err(definite(ctx, op, "parameter operand is empty"));
            };
            return Ok(first.as_int());
        }
    }
    Ok(None)
}

/// Registers every standard transform op into `registry`.
pub fn register_standard(registry: &mut TransformOpRegistry) {
    registry.register(TransformOpDef::new(
        "transform.sequence",
        "run nested transforms in order",
        sequence,
    ));
    registry.register(TransformOpDef::new(
        "transform.named_sequence",
        "declaration; executed only via include or as the entry point",
        |_, ctx, _, op| {
            Err(definite(
                ctx,
                op,
                "named_sequence is a declaration and cannot be executed inline",
            ))
        },
    ));
    registry.register(TransformOpDef::new(
        "transform.include",
        "expand a named sequence",
        include,
    ));
    registry.register(TransformOpDef::new(
        "transform.foreach",
        "map over payload ops",
        foreach,
    ));
    registry.register(
        TransformOpDef::new(
            "transform.alternatives",
            "try alternatives until one succeeds",
            alternatives,
        )
        // The scope op may be replaced wholesale, so the handle (and
        // everything nested in it) is consumed.
        .consuming([0]),
    );
    registry.register(TransformOpDef::new(
        "transform.select_op",
        "narrow a handle to its index-th payload op",
        select_op,
    ));
    registry.register(TransformOpDef::new(
        "transform.match_op",
        "match payload ops by name",
        match_op,
    ));
    registry.register(TransformOpDef::new(
        "transform.param.constant",
        "materialize a constant parameter",
        param_constant,
    ));
    registry.register(TransformOpDef::new(
        "transform.merge_handles",
        "concatenate handles",
        merge_handles,
    ));
    registry.register(TransformOpDef::new(
        "transform.get_parent_op",
        "navigate to ancestors",
        get_parent_op,
    ));
    registry.register(TransformOpDef::new(
        "transform.annotate",
        "attach an attribute",
        annotate,
    ));
    registry.register(TransformOpDef::new(
        "transform.print",
        "debug-print payload ops",
        print_op,
    ));
    registry.register(
        TransformOpDef::new("transform.loop.tile", "tile a perfect loop nest", loop_tile)
            .consuming([0])
            .with_conditions(
                ["scf.for"],
                ["scf.for", "arith.constant", "arith.addi", "arith.minsi"],
            ),
    );
    registry.register(
        TransformOpDef::new(
            "transform.loop.split",
            "split an iteration space",
            loop_split,
        )
        .consuming([0])
        .with_conditions(["scf.for"], ["scf.for", "arith.constant"]),
    );
    registry.register(
        TransformOpDef::new("transform.loop.unroll", "unroll a loop", loop_unroll)
            .consuming([0])
            .with_conditions(["scf.for"], ["arith.constant"]),
    );
    registry.register(TransformOpDef::new(
        "transform.loop.hoist",
        "hoist loop-invariant code",
        loop_hoist,
    ));
    registry.register(
        TransformOpDef::new(
            "transform.loop.interchange",
            "permute a loop nest",
            loop_interchange,
        )
        .consuming([0]),
    );
    registry.register(
        TransformOpDef::new("transform.loop.peel", "peel the last iteration", loop_peel)
            .consuming([0]),
    );
    registry.register(
        TransformOpDef::new("transform.loop.fuse", "fuse two adjacent loops", loop_fuse)
            .consuming([1]),
    );
    registry.register(TransformOpDef::new(
        "transform.apply_registered_pass",
        "run a pass from the pass registry on targeted ops",
        apply_registered_pass,
    ));
    registry.register(TransformOpDef::new(
        "transform.apply_patterns",
        "greedily apply a named pattern set",
        apply_patterns,
    ));
    registry.register(
        TransformOpDef::new(
            "transform.to_library",
            "replace a recognized computation with a library call",
            to_library,
        )
        .consuming([0]),
    );
}

// ----- structural ----------------------------------------------------------

fn sequence(
    interp: &mut Interpreter<'_>,
    ctx: &mut Context,
    state: &mut TransformState,
    op: OpId,
) -> TransformResult {
    let region = ctx
        .op(op)
        .regions()
        .first()
        .copied()
        .ok_or_else(|| definite(ctx, op, "expects a body region"))?;
    let block = ctx
        .region(region)
        .blocks()
        .first()
        .copied()
        .ok_or_else(|| definite(ctx, op, "expects a non-empty body"))?;
    // Forward the operand (if any) into the block argument.
    if let (Some(&outer), Some(&arg)) = (
        ctx.op(op).operands().first(),
        ctx.block(block).args().first(),
    ) {
        let ops = state.ops(outer, &loc(ctx, op))?;
        state.set_ops(arg, ops);
    }
    let suppress = matches!(
        ctx.op(op)
            .attr("failure_propagation_mode")
            .and_then(Attribute::as_str),
        Some("suppress")
    );
    match interp.run_block(ctx, state, block) {
        Err(TransformError::Silenceable(diag)) if suppress => {
            interp.suppress("transform.sequence", &diag);
            Ok(())
        }
        other => other,
    }
}

fn include(
    interp: &mut Interpreter<'_>,
    ctx: &mut Context,
    state: &mut TransformState,
    op: OpId,
) -> TransformResult {
    let target = ctx
        .op(op)
        .attr("target")
        .and_then(Attribute::as_symbol)
        .ok_or_else(|| definite(ctx, op, "requires a 'target' symbol attribute"))?;
    // Resolve within the transform IR's enclosing module.
    let module = td_dialects::builtin::enclosing_module(ctx, op)
        .ok_or_else(|| definite(ctx, op, "is not nested in a module"))?;
    let callee = ctx
        .lookup_symbol(module, target.as_str())
        .ok_or_else(|| definite(ctx, op, format!("unknown named sequence @{target}")))?;
    let region = ctx.op(callee).regions()[0];
    let block = ctx
        .region(region)
        .blocks()
        .first()
        .copied()
        .ok_or_else(|| definite(ctx, op, "included sequence has no body"))?;
    // Map arguments.
    let args = ctx.block(block).args().to_vec();
    let operands = ctx.op(op).operands().to_vec();
    if args.len() != operands.len() {
        return Err(definite(
            ctx,
            op,
            "argument count differs from the included sequence",
        ));
    }
    let location = loc(ctx, op);
    for (&arg, &value) in args.iter().zip(operands.iter()) {
        match state.ops(value, &location) {
            Ok(ops) => state.set_ops(arg, ops),
            Err(_) => {
                let params = state.params(value, &location)?;
                state.set_params(arg, params);
            }
        }
    }
    interp.run_block(ctx, state, block)
}

fn foreach(
    interp: &mut Interpreter<'_>,
    ctx: &mut Context,
    state: &mut TransformState,
    op: OpId,
) -> TransformResult {
    let handle = operand(ctx, op, 0)?;
    let targets = state.ops(handle, &loc(ctx, op))?;
    let region = ctx
        .op(op)
        .regions()
        .first()
        .copied()
        .ok_or_else(|| definite(ctx, op, "expects a body region"))?;
    let block = ctx
        .region(region)
        .blocks()
        .first()
        .copied()
        .ok_or_else(|| definite(ctx, op, "expects a non-empty body"))?;
    let arg = ctx.block(block).args().first().copied();
    for target in targets {
        if let Some(arg) = arg {
            state.set_ops(arg, vec![target]);
        }
        interp.run_block(ctx, state, block)?;
    }
    Ok(())
}

fn alternatives(
    interp: &mut Interpreter<'_>,
    ctx: &mut Context,
    state: &mut TransformState,
    op: OpId,
) -> TransformResult {
    let target = single_target(ctx, state, op)?;
    let regions = ctx.op(op).regions().to_vec();
    if regions.is_empty() {
        return Err(definite(ctx, op, "expects at least one alternative region"));
    }
    let location = loc(ctx, op);
    // Each branch runs on the target itself inside its own watermark; a
    // branch that fails silenceably is unwound — payload and handle table
    // — so the next one starts from the state this op was reached in.
    let root = ctx.ancestors(target).last().copied().unwrap_or(target);
    let handles = state.snapshot();
    for region in regions {
        // A region without a block (Fig. 8's `{ }`) trivially succeeds.
        let Some(&block) = ctx.region(region).blocks().first() else {
            return Ok(());
        };
        let watermark = ctx.begin_watermark(Some(root));
        if let Some(&arg) = ctx.block(block).args().first() {
            state.set_ops(arg, vec![target]);
        }
        match interp.run_block(ctx, state, block) {
            Err(TransformError::Silenceable(d)) => {
                interp.suppress("transform.alternatives", &d);
                interp.rollback_nested(ctx, watermark, &location)?;
                state.restore(&handles);
            }
            // Success keeps the branch; a definite error hands its changes
            // to the enclosing transaction, which unwinds them.
            done => {
                ctx.commit_watermark(watermark);
                return done;
            }
        }
    }
    Err(TransformError::silenceable(
        location,
        "all alternatives failed",
    ))
}

// ----- matching and parameters ---------------------------------------------

fn match_op(
    _interp: &mut Interpreter<'_>,
    ctx: &mut Context,
    state: &mut TransformState,
    op: OpId,
) -> TransformResult {
    let parent = operand(ctx, op, 0)?;
    let parents = state.ops(parent, &loc(ctx, op))?;
    // Match either by exact op name or by interface (trait), per §3.3's
    // "operation interfaces instead" of names.
    let wanted_name = ctx
        .op(op)
        .attr("name")
        .and_then(|a| a.as_str().map(str::to_owned));
    let wanted_interface = ctx
        .op(op)
        .attr("interface")
        .and_then(|a| a.as_str().map(str::to_owned));
    let wanted_traits = match &wanted_interface {
        Some(interface) => Some(match interface.as_str() {
            "allocates" => td_ir::OpTraits::ALLOCATES,
            "terminator" => td_ir::OpTraits::TERMINATOR,
            "pure" => td_ir::OpTraits::PURE,
            "symbol" => td_ir::OpTraits::SYMBOL,
            "constant_like" => td_ir::OpTraits::CONSTANT_LIKE,
            other => return Err(definite(ctx, op, format!("unknown interface '{other}'"))),
        }),
        None => None,
    };
    if wanted_name.is_none() && wanted_traits.is_none() {
        return Err(definite(
            ctx,
            op,
            "requires a 'name' or 'interface' attribute",
        ));
    }
    let select = ctx
        .op(op)
        .attr("select")
        .and_then(|a| a.as_str().map(str::to_owned))
        .unwrap_or_else(|| "all".to_owned());
    let mut matched = Vec::new();
    for root in parents {
        for nested in ctx.walk_nested(root) {
            let name_ok = wanted_name
                .as_deref()
                .is_none_or(|w| ctx.op(nested).name.as_str() == w);
            let interface_ok = wanted_traits.is_none_or(|t| ctx.has_trait(nested, t));
            if name_ok && interface_ok {
                matched.push(nested);
            }
        }
    }
    let selected: Vec<OpId> = match select.as_str() {
        "all" => matched,
        "first" => matched.into_iter().take(1).collect(),
        "second" => matched.into_iter().skip(1).take(1).collect(),
        "last" => matched.into_iter().last().into_iter().collect(),
        other => {
            if let Ok(index) = other.parse::<usize>() {
                matched.into_iter().skip(index).take(1).collect()
            } else {
                return Err(definite(ctx, op, format!("unknown selector '{other}'")));
            }
        }
    };
    if selected.is_empty() {
        let what = wanted_name.or(wanted_interface).unwrap_or_default();
        return Err(silenceable(
            ctx,
            op,
            format!("no '{what}' payload op matched"),
        ));
    }
    state.set_ops(result(ctx, op, 0)?, selected);
    Ok(())
}

fn select_op(
    _interp: &mut Interpreter<'_>,
    ctx: &mut Context,
    state: &mut TransformState,
    op: OpId,
) -> TransformResult {
    let handle = operand(ctx, op, 0)?;
    let targets = state.ops(handle, &loc(ctx, op))?;
    let index = ctx
        .op(op)
        .attr("index")
        .and_then(Attribute::as_int)
        .unwrap_or(0) as usize;
    let Some(&selected) = targets.get(index) else {
        return Err(silenceable(
            ctx,
            op,
            format!(
                "handle has {} payload ops, index {index} is out of range",
                targets.len()
            ),
        ));
    };
    state.set_ops(result(ctx, op, 0)?, vec![selected]);
    Ok(())
}

fn param_constant(
    _interp: &mut Interpreter<'_>,
    ctx: &mut Context,
    state: &mut TransformState,
    op: OpId,
) -> TransformResult {
    let value = ctx
        .op(op)
        .attr("value")
        .cloned()
        .ok_or_else(|| definite(ctx, op, "requires a 'value' attribute"))?;
    state.set_params(result(ctx, op, 0)?, vec![value]);
    Ok(())
}

fn merge_handles(
    _interp: &mut Interpreter<'_>,
    ctx: &mut Context,
    state: &mut TransformState,
    op: OpId,
) -> TransformResult {
    let mut merged = Vec::new();
    let location = loc(ctx, op);
    for &value in ctx.op(op).operands() {
        merged.extend(state.ops(value, &location)?);
    }
    state.set_ops(result(ctx, op, 0)?, merged);
    Ok(())
}

fn get_parent_op(
    _interp: &mut Interpreter<'_>,
    ctx: &mut Context,
    state: &mut TransformState,
    op: OpId,
) -> TransformResult {
    let handle = operand(ctx, op, 0)?;
    let targets = state.ops(handle, &loc(ctx, op))?;
    let wanted = ctx
        .op(op)
        .attr("name")
        .and_then(|a| a.as_str().map(str::to_owned));
    let mut parents = Vec::new();
    for target in targets {
        let found = match &wanted {
            None => ctx.parent_op(target),
            Some(name) => ctx
                .ancestors(target)
                .into_iter()
                .find(|&a| ctx.op(a).name.as_str() == name),
        };
        let Some(found) = found else {
            return Err(silenceable(ctx, op, "payload op has no matching ancestor"));
        };
        if !parents.contains(&found) {
            parents.push(found);
        }
    }
    state.set_ops(result(ctx, op, 0)?, parents);
    Ok(())
}

fn annotate(
    _interp: &mut Interpreter<'_>,
    ctx: &mut Context,
    state: &mut TransformState,
    op: OpId,
) -> TransformResult {
    let handle = operand(ctx, op, 0)?;
    let targets = state.ops(handle, &loc(ctx, op))?;
    let name = ctx
        .op(op)
        .attr("name")
        .and_then(|a| a.as_str().map(str::to_owned))
        .ok_or_else(|| definite(ctx, op, "requires a string 'name' attribute"))?;
    // Value: either a parameter operand or unit.
    let value = match ctx.op(op).operands().get(1) {
        Some(&param) => state
            .params(param, &loc(ctx, op))?
            .first()
            .cloned()
            .unwrap_or(Attribute::Unit),
        None => Attribute::Unit,
    };
    for target in targets {
        ctx.set_attr(target, name.as_str(), value.clone());
    }
    Ok(())
}

fn print_op(
    _interp: &mut Interpreter<'_>,
    ctx: &mut Context,
    state: &mut TransformState,
    op: OpId,
) -> TransformResult {
    let handle = operand(ctx, op, 0)?;
    let targets = state.ops(handle, &loc(ctx, op))?;
    let tag = ctx
        .op(op)
        .attr("name")
        .and_then(|a| a.as_str().map(str::to_owned))
        .unwrap_or_default();
    for target in targets {
        eprintln!("[transform.print {tag}]\n{}", td_ir::print_op(ctx, target));
    }
    Ok(())
}

// ----- loop transforms -------------------------------------------------------

fn single_target(ctx: &Context, state: &TransformState, op: OpId) -> TransformResult<OpId> {
    let handle = operand(ctx, op, 0)?;
    let targets = state.ops(handle, &loc(ctx, op))?;
    match targets[..] {
        [target] => Ok(target),
        _ => Err(definite(
            ctx,
            op,
            format!(
                "expects a handle to exactly one payload op, got {}",
                targets.len()
            ),
        )),
    }
}

fn loop_tile(
    _interp: &mut Interpreter<'_>,
    ctx: &mut Context,
    state: &mut TransformState,
    op: OpId,
) -> TransformResult {
    let target = single_target(ctx, state, op)?;
    // Sizes: attr `tile_sizes` (ints) with parameter operands substituting
    // entries equal to the sentinel 0? Keep it simple: attr ints, or a
    // single param operand broadcast when the attr is absent.
    let sizes: Vec<i64> = match ctx
        .op(op)
        .attr("tile_sizes")
        .and_then(Attribute::as_int_array)
    {
        Some(sizes) => sizes,
        None => {
            let size = int_config(ctx, state, op, "tile_size", Some(1))?
                .ok_or_else(|| definite(ctx, op, "requires 'tile_sizes' or a size parameter"))?;
            vec![size]
        }
    };
    // Tiling by 0 is a no-op by convention (the script simplifier also
    // knows this, §3.4); implemented here for robustness.
    if sizes.iter().all(|&s| s == 0) {
        state.set_ops(result(ctx, op, 0)?, vec![target]);
        state.set_ops(result(ctx, op, 1)?, vec![target]);
        return Ok(());
    }
    let tiled = loop_transforms::tile(ctx, target, &sizes).map_err(TransformError::Silenceable)?;
    state.set_ops(result(ctx, op, 0)?, tiled.tile_loops);
    state.set_ops(result(ctx, op, 1)?, tiled.point_loops);
    Ok(())
}

fn loop_split(
    _interp: &mut Interpreter<'_>,
    ctx: &mut Context,
    state: &mut TransformState,
    op: OpId,
) -> TransformResult {
    let target = single_target(ctx, state, op)?;
    let divisor = int_config(ctx, state, op, "div_by", Some(1))?
        .ok_or_else(|| definite(ctx, op, "requires a 'div_by' attribute or parameter"))?;
    let (main, rest) =
        loop_transforms::split(ctx, target, divisor).map_err(TransformError::Silenceable)?;
    state.set_ops(result(ctx, op, 0)?, vec![main]);
    state.set_ops(result(ctx, op, 1)?, vec![rest]);
    Ok(())
}

fn loop_unroll(
    _interp: &mut Interpreter<'_>,
    ctx: &mut Context,
    state: &mut TransformState,
    op: OpId,
) -> TransformResult {
    let target = single_target(ctx, state, op)?;
    let full = ctx.op(op).attr("full").is_some();
    let produced = if full {
        loop_transforms::unroll_full(ctx, target).map_err(TransformError::Silenceable)?
    } else {
        let factor = int_config(ctx, state, op, "factor", Some(1))?
            .ok_or_else(|| definite(ctx, op, "requires 'full', 'factor', or a parameter"))?;
        let new_loop =
            loop_transforms::unroll_by(ctx, target, factor).map_err(TransformError::Silenceable)?;
        vec![new_loop]
    };
    if let Ok(r) = result(ctx, op, 0) {
        state.set_ops(r, produced);
    }
    Ok(())
}

fn loop_hoist(
    _interp: &mut Interpreter<'_>,
    ctx: &mut Context,
    state: &mut TransformState,
    op: OpId,
) -> TransformResult {
    let target = single_target(ctx, state, op)?;
    let hoisted =
        loop_transforms::hoist_invariants(ctx, target).map_err(TransformError::Silenceable)?;
    if let Ok(r) = result(ctx, op, 0) {
        state.set_ops(r, hoisted);
    }
    Ok(())
}

fn loop_interchange(
    _interp: &mut Interpreter<'_>,
    ctx: &mut Context,
    state: &mut TransformState,
    op: OpId,
) -> TransformResult {
    let target = single_target(ctx, state, op)?;
    let permutation: Vec<usize> = ctx
        .op(op)
        .attr("permutation")
        .and_then(Attribute::as_int_array)
        .ok_or_else(|| definite(ctx, op, "requires a 'permutation' attribute"))?
        .into_iter()
        .map(|v| v as usize)
        .collect();
    let new_loops = loop_transforms::interchange(ctx, target, &permutation)
        .map_err(TransformError::Silenceable)?;
    if let Ok(r) = result(ctx, op, 0) {
        state.set_ops(r, new_loops);
    }
    Ok(())
}

fn loop_peel(
    _interp: &mut Interpreter<'_>,
    ctx: &mut Context,
    state: &mut TransformState,
    op: OpId,
) -> TransformResult {
    let target = single_target(ctx, state, op)?;
    let (main, peeled) =
        loop_transforms::peel_last(ctx, target).map_err(TransformError::Silenceable)?;
    state.set_ops(result(ctx, op, 0)?, vec![main]);
    if let Ok(r) = result(ctx, op, 1) {
        state.set_ops(r, peeled);
    }
    Ok(())
}

fn loop_fuse(
    _interp: &mut Interpreter<'_>,
    ctx: &mut Context,
    state: &mut TransformState,
    op: OpId,
) -> TransformResult {
    let first_handle = operand(ctx, op, 0)?;
    let second_handle = operand(ctx, op, 1)?;
    let location = loc(ctx, op);
    let firsts = state.ops(first_handle, &location)?;
    let seconds = state.ops(second_handle, &location)?;
    let ([first], [second]) = (&firsts[..], &seconds[..]) else {
        return Err(definite(ctx, op, "expects single-op handles"));
    };
    let fused = loop_transforms::fuse(ctx, *first, *second).map_err(TransformError::Silenceable)?;
    if let Ok(r) = result(ctx, op, 0) {
        state.set_ops(r, vec![fused]);
    }
    Ok(())
}

// ----- compiler integration --------------------------------------------------

fn apply_registered_pass(
    interp: &mut Interpreter<'_>,
    ctx: &mut Context,
    state: &mut TransformState,
    op: OpId,
) -> TransformResult {
    let handle = operand(ctx, op, 0)?;
    let targets = state.ops(handle, &loc(ctx, op))?;
    let pass_name = ctx
        .op(op)
        .attr("pass_name")
        .and_then(|a| a.as_str().map(str::to_owned))
        .ok_or_else(|| definite(ctx, op, "requires a string 'pass_name' attribute"))?;
    let Some(passes) = interp.env.passes else {
        return Err(definite(
            ctx,
            op,
            "no pass registry is attached to the interpreter",
        ));
    };
    let pass = passes
        .create(&pass_name)
        .ok_or_else(|| definite(ctx, op, format!("unknown pass '{pass_name}'")))?;
    for &target in &targets {
        // A pass run on an earlier target can erase this one (e.g. CSE on
        // the enclosing func erasing a duplicate constant the same handle
        // also targets); running a pass rooted at a dead op is UB-adjacent
        // (stale arena index), so skip — prune_dead below drops the
        // mapping.
        if !ctx.is_live(target) {
            continue;
        }
        let span = trace::span("pass", pass_name.clone());
        let result = pass.run(ctx, target);
        let duration = span.end();
        metrics::timer_ns(&format!("pass.{pass_name}"), duration.as_nanos());
        result.map_err(TransformError::Definite)?;
    }
    // Passes do not report fine-grained events; prune mappings of erased
    // payload ops and re-associate the result with the surviving targets.
    state.prune_dead(ctx);
    let survivors: Vec<OpId> = targets.into_iter().filter(|&t| ctx.is_live(t)).collect();
    if let Ok(r) = result(ctx, op, 0) {
        state.set_ops(r, survivors);
    }
    Ok(())
}

fn apply_patterns(
    interp: &mut Interpreter<'_>,
    ctx: &mut Context,
    state: &mut TransformState,
    op: OpId,
) -> TransformResult {
    let handle = operand(ctx, op, 0)?;
    let targets = state.ops(handle, &loc(ctx, op))?;
    let Some(pattern_registry) = interp.env.patterns else {
        return Err(definite(
            ctx,
            op,
            "no pattern registry is attached to the interpreter",
        ));
    };
    // Collect pattern names from the body region: ops named
    // `transform.pattern.<name>`.
    let mut patterns = PatternSet::new();
    if let Some(&region) = ctx.op(op).regions().first() {
        for &block in ctx.region(region).blocks() {
            for nested in ctx.block_ops(block) {
                let full = ctx.op(nested).name.as_str();
                let Some(name) = full.strip_prefix("transform.pattern.") else {
                    if full == "transform.yield" {
                        continue;
                    }
                    return Err(definite(
                        ctx,
                        op,
                        format!("unexpected op '{full}' in pattern list"),
                    ));
                };
                let pattern = pattern_registry
                    .create(name)
                    .ok_or_else(|| definite(ctx, op, format!("unknown pattern '{name}'")))?;
                patterns.add(pattern);
            }
        }
    }
    for target in targets {
        // Same liveness hazard as apply_registered_pass: a rewrite on an
        // earlier target may have erased this one.
        if !ctx.is_live(target) {
            continue;
        }
        let outcome = apply_patterns_greedily(ctx, target, &patterns, GreedyConfig::default())
            .map_err(TransformError::Definite)?;
        // §3.1: subscribe to replaced/erased events so handles follow
        // replacements instead of dangling.
        state.apply_rewrite_events(ctx, &outcome.events);
    }
    Ok(())
}

fn to_library(
    interp: &mut Interpreter<'_>,
    ctx: &mut Context,
    state: &mut TransformState,
    op: OpId,
) -> TransformResult {
    let target = single_target(ctx, state, op)?;
    let library = ctx
        .op(op)
        .attr("library")
        .and_then(|a| a.as_str().map(str::to_owned))
        .ok_or_else(|| definite(ctx, op, "requires a string 'library' attribute"))?;
    let Some(resolver) = interp.env.library else {
        return Err(definite(
            ctx,
            op,
            "no library resolver is attached to the interpreter",
        ));
    };
    let call = resolver
        .try_replace(ctx, target, &library)
        .map_err(TransformError::Silenceable)?;
    if let Ok(r) = result(ctx, op, 0) {
        state.set_ops(r, vec![call]);
    }
    Ok(())
}
