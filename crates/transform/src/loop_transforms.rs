//! Payload-level loop transformations on `scf.for` nests.
//!
//! These are the "existing, but currently hidden compiler features" the
//! Transform dialect exposes (§1): plain IR-to-IR functions with explicit
//! inputs and outputs, callable from passes *or* from transform ops.

use std::collections::HashMap;
use td_dialects::arith::constant_int_value;
use td_dialects::scf::{self, ForOp};
use td_ir::{Context, OpBuilder, OpId, OpTraits, ValueId};
use td_support::{Diagnostic, Location};

fn err(ctx: &Context, op: OpId, message: &str) -> Diagnostic {
    Diagnostic::error(
        ctx.op(op).location.clone(),
        format!("'{}' op {message}", ctx.op(op).name),
    )
}

/// Collects the perfect loop nest rooted at `root`: `root` plus each
/// directly-nested `scf.for` that is the only non-terminator op of its
/// parent's body.
pub fn perfect_nest(ctx: &Context, root: OpId) -> Vec<ForOp> {
    let mut nest = Vec::new();
    let mut cursor = root;
    loop {
        let Some(for_op) = scf::as_for(ctx, cursor) else {
            break;
        };
        nest.push(for_op);
        let body = scf::body_ops(ctx, for_op);
        match body.as_slice() {
            [only] if scf::as_for(ctx, *only).is_some() => cursor = *only,
            _ => break,
        }
    }
    nest
}

/// Result of [`tile`]: handles to the new tile (outer) and point (inner)
/// loops, outermost first.
#[derive(Clone, Debug)]
pub struct Tiled {
    /// The `d` tile loops iterating over tile origins.
    pub tile_loops: Vec<OpId>,
    /// The `d` point loops iterating within a tile.
    pub point_loops: Vec<OpId>,
}

/// Creates an empty `scf.for` (body terminated by `scf.yield`) immediately
/// before `anchor`.
fn new_for_before(
    ctx: &mut Context,
    anchor: OpId,
    lower: ValueId,
    upper: ValueId,
    step: ValueId,
) -> ForOp {
    let op = ctx.create_op(
        Location::name("scf.for"),
        "scf.for",
        [lower, upper, step],
        vec![],
        vec![],
        1,
    );
    ctx.insert_op_before(anchor, op);
    let region = ctx.op(op).regions()[0];
    let index = ctx.index_type();
    let body = ctx.append_block(region, &[index]);
    let yld = ctx.create_op(
        Location::name("scf.yield"),
        "scf.yield",
        vec![],
        vec![],
        vec![],
        0,
    );
    ctx.append_op(body, yld);
    let induction_var = ctx.block(body).args()[0];
    ForOp {
        op,
        lower,
        upper,
        step,
        body,
        induction_var,
    }
}

/// The trailing `scf.yield` of a loop body.
fn body_terminator(ctx: &Context, body: td_ir::BlockId) -> OpId {
    ctx.block(body)
        .last_op()
        .expect("loop body has a terminator")
}

/// Tiles the perfect nest rooted at `root` with the given tile sizes
/// (one per loop, outermost first). The nest is rebuilt as
/// `tile_1 … tile_d { point_1 … point_d { body } }`.
///
/// # Examples
///
/// ```
/// let mut ctx = td_ir::Context::new();
/// td_dialects::register_all_dialects(&mut ctx);
/// let module = td_ir::parse_module(&mut ctx, r#"module {
///   func.func @f() {
///     %lo = arith.constant 0 : index
///     %hi = arith.constant 64 : index
///     %st = arith.constant 1 : index
///     scf.for %i = %lo to %hi step %st {
///       "test.body"(%i) : (index) -> ()
///     }
///     func.return
///   }
/// }"#).map_err(|e| e.to_string())?;
/// let root = td_dialects::scf::collect_loops(&ctx, module)[0];
/// let tiled = td_transform::loop_transforms::tile(&mut ctx, root, &[16])
///     .map_err(|e| e.to_string())?;
/// assert_eq!(tiled.tile_loops.len(), 1);
/// assert_eq!(tiled.point_loops.len(), 1);
/// # Ok::<(), String>(())
/// ```
///
/// When a loop's trip count is statically divisible by its tile size the
/// point loop's upper bound is exact; otherwise an `arith.minsi` guards the
/// partial tile.
///
/// # Errors
/// Fails if the nest is shallower than `sizes`, or a tile size is < 1.
pub fn tile(ctx: &mut Context, root: OpId, sizes: &[i64]) -> Result<Tiled, Diagnostic> {
    let nest = perfect_nest(ctx, root);
    if nest.len() < sizes.len() {
        return Err(err(
            ctx,
            root,
            &format!(
                "expected a perfect nest of depth {} for tiling",
                sizes.len()
            ),
        ));
    }
    if sizes.iter().any(|&s| s < 1) {
        return Err(err(ctx, root, "tile sizes must be >= 1"));
    }
    let depth = sizes.len();
    let nest = &nest[..depth];
    let index = ctx.index_type();
    if ctx.op(root).parent().is_none() {
        return Err(err(ctx, root, "is detached"));
    }

    // Tile loops: each built just before `anchor` (the old root at the top
    // level, the enclosing new loop's yield below).
    let mut tile_loops = Vec::with_capacity(depth);
    let mut tile_ivs = Vec::with_capacity(depth);
    let mut anchor = root;
    for (level, for_op) in nest.iter().enumerate() {
        let size = sizes[level];
        let step_value = {
            let mut b = OpBuilder::before(ctx, anchor);
            match constant_int_value(b.ctx(), for_op.step) {
                Some(step) => b.const_int(step * size, index),
                None => {
                    let factor = b.const_int(size, index);
                    let mul = b
                        .op("arith.muli")
                        .operands([for_op.step, factor])
                        .results(vec![index])
                        .build();
                    b.ctx().op(mul).results()[0]
                }
            }
        };
        let new_loop = new_for_before(ctx, anchor, for_op.lower, for_op.upper, step_value);
        tile_loops.push(new_loop.op);
        tile_ivs.push(new_loop.induction_var);
        anchor = body_terminator(ctx, new_loop.body);
    }

    // Point-loop upper bounds: all of them only need tile ivs, so they are
    // computed together in the innermost tile loop's body. This keeps the
    // point loops a *perfect* nest — which later matchers (e.g. microkernel
    // recognition behind `transform.to_library`) rely on.
    let mut upper_values = Vec::with_capacity(depth);
    for (level, for_op) in nest.iter().enumerate() {
        let size = sizes[level];
        let divisible = scf::static_trip_count(ctx, *for_op).is_some_and(|t| t % size == 0);
        let upper_value = {
            let mut b = OpBuilder::before(ctx, anchor);
            let span = match constant_int_value(b.ctx(), for_op.step) {
                Some(step) => b.const_int(step * size, index),
                None => {
                    let factor = b.const_int(size, index);
                    let mul = b
                        .op("arith.muli")
                        .operands([for_op.step, factor])
                        .results(vec![index])
                        .build();
                    b.ctx().op(mul).results()[0]
                }
            };
            let add = b
                .op("arith.addi")
                .operands([tile_ivs[level], span])
                .results(vec![index])
                .build();
            let end = b.ctx().op(add).results()[0];
            if divisible {
                end
            } else {
                let min = b
                    .op("arith.minsi")
                    .operands([end, for_op.upper])
                    .results(vec![index])
                    .build();
                b.ctx().op(min).results()[0]
            }
        };
        upper_values.push(upper_value);
    }

    // Point loops, perfectly nested inside the innermost tile loop.
    let mut point_loops = Vec::with_capacity(depth);
    let mut point_ivs = Vec::with_capacity(depth);
    for (level, for_op) in nest.iter().enumerate() {
        let new_loop = new_for_before(
            ctx,
            anchor,
            tile_ivs[level],
            upper_values[level],
            for_op.step,
        );
        point_loops.push(new_loop.op);
        point_ivs.push(new_loop.induction_var);
        anchor = body_terminator(ctx, new_loop.body);
    }

    // Move the innermost body into the innermost point loop and rewire ivs.
    let innermost = nest[depth - 1];
    let body_ops = scf::body_ops(ctx, innermost);
    for op in body_ops {
        ctx.move_op_before(op, anchor);
    }
    for (for_op, &point_iv) in nest.iter().zip(point_ivs.iter()) {
        ctx.replace_all_uses(for_op.induction_var, point_iv);
    }
    ctx.erase_op(root);
    Ok(Tiled {
        tile_loops,
        point_loops,
    })
}

/// Splits `loop_op` into a main part whose trip count is divisible by
/// `divisor` and a remainder part. Requires static bounds.
///
/// # Errors
/// Fails on non-static bounds or `divisor < 1`.
pub fn split(ctx: &mut Context, loop_op: OpId, divisor: i64) -> Result<(OpId, OpId), Diagnostic> {
    let for_op = scf::as_for(ctx, loop_op).ok_or_else(|| err(ctx, loop_op, "is not a loop"))?;
    if divisor < 1 {
        return Err(err(ctx, loop_op, "split divisor must be >= 1"));
    }
    let (Some(lb), Some(_ub), Some(step)) = (
        constant_int_value(ctx, for_op.lower),
        constant_int_value(ctx, for_op.upper),
        constant_int_value(ctx, for_op.step),
    ) else {
        return Err(err(ctx, loop_op, "requires static bounds for splitting"));
    };
    let trip = scf::static_trip_count(ctx, for_op)
        .ok_or_else(|| err(ctx, loop_op, "requires a static trip count"))?;
    let main_trips = (trip / divisor) * divisor;
    let mid = lb + main_trips * step;
    let index = ctx.index_type();
    let mid_value = {
        let mut b = OpBuilder::before(ctx, loop_op);
        b.const_int(mid, index)
    };
    // main = clone with ub := mid; rest = clone with lb := mid.
    let mut map = HashMap::new();
    let main = ctx.clone_op(loop_op, &mut map);
    ctx.insert_op_before(loop_op, main);
    ctx.set_operand(main, 1, mid_value);
    let mut map = HashMap::new();
    let rest = ctx.clone_op(loop_op, &mut map);
    ctx.insert_op_before(loop_op, rest);
    ctx.set_operand(rest, 0, mid_value);
    ctx.erase_op(loop_op);
    Ok((main, rest))
}

/// Trip count of a loop whose bounds are either fully static or in the
/// offset form `ub = lb + constant` that tiling produces for point loops.
pub fn symbolic_trip_count(ctx: &Context, for_op: ForOp) -> Option<i64> {
    if let Some(trip) = scf::static_trip_count(ctx, for_op) {
        return Some(trip);
    }
    let step = constant_int_value(ctx, for_op.step)?;
    if step <= 0 {
        return None;
    }
    let def = ctx.defining_op(for_op.upper)?;
    if ctx.op(def).name.as_str() != "arith.addi" {
        return None;
    }
    let operands = ctx.op(def).operands();
    if operands[0] != for_op.lower {
        return None;
    }
    let extent = constant_int_value(ctx, operands[1])?;
    Some((extent + step - 1).div_euclid(step).max(0))
}

/// Fully unrolls a loop with a static trip count, returning the top-level
/// operations of the expanded body (one batch per iteration).
///
/// # Errors
/// Fails when the trip count is not static.
pub fn unroll_full(ctx: &mut Context, loop_op: OpId) -> Result<Vec<OpId>, Diagnostic> {
    let for_op = scf::as_for(ctx, loop_op).ok_or_else(|| err(ctx, loop_op, "is not a loop"))?;
    let trip = scf::static_trip_count(ctx, for_op).ok_or_else(|| {
        err(
            ctx,
            loop_op,
            "requires a static trip count for full unrolling",
        )
    })?;
    let lb = constant_int_value(ctx, for_op.lower).expect("static trip implies static lb");
    let step = constant_int_value(ctx, for_op.step).expect("static trip implies static step");
    let body_ops = scf::body_ops(ctx, for_op);
    let mut expanded = Vec::new();
    let index = ctx.index_type();
    for i in 0..trip {
        let iv_value = {
            let mut b = OpBuilder::before(ctx, loop_op);
            b.const_int(lb + i * step, index)
        };
        let mut map: HashMap<ValueId, ValueId> = HashMap::new();
        map.insert(for_op.induction_var, iv_value);
        for &op in &body_ops {
            let clone = ctx.clone_op(op, &mut map);
            ctx.insert_op_before(loop_op, clone);
            expanded.push(clone);
        }
    }
    ctx.erase_op(loop_op);
    Ok(expanded)
}

/// Unrolls a loop by `factor`, requiring the static trip count to be
/// divisible by it. Returns the new loop.
///
/// # Errors
/// Fails on non-static trip counts, `factor < 1`, or indivisibility.
pub fn unroll_by(ctx: &mut Context, loop_op: OpId, factor: i64) -> Result<OpId, Diagnostic> {
    if factor < 1 {
        return Err(err(ctx, loop_op, "unroll factor must be >= 1"));
    }
    if factor == 1 {
        return Ok(loop_op); // no-op, as the script simplifier also knows
    }
    let for_op = scf::as_for(ctx, loop_op).ok_or_else(|| err(ctx, loop_op, "is not a loop"))?;
    let trip = symbolic_trip_count(ctx, for_op).ok_or_else(|| {
        err(
            ctx,
            loop_op,
            "requires a (symbolically) static trip count for unrolling",
        )
    })?;
    if trip % factor != 0 {
        return Err(err(
            ctx,
            loop_op,
            &format!("trip count {trip} is not divisible by unroll factor {factor}"),
        ));
    }
    let step = constant_int_value(ctx, for_op.step).expect("static trip implies static step");
    let index = ctx.index_type();
    let new_step = {
        let mut b = OpBuilder::before(ctx, loop_op);
        b.const_int(step * factor, index)
    };
    let block = ctx.op(loop_op).parent().expect("attached");
    let new_for = scf::build_for(ctx, block, for_op.lower, for_op.upper, new_step);
    ctx.move_op_before(new_for.op, loop_op);
    let body_ops = scf::body_ops(ctx, for_op);
    let terminator = ctx
        .block(new_for.body)
        .last_op()
        .expect("new body has a terminator");
    for k in 0..factor {
        let iv_value = if k == 0 {
            new_for.induction_var
        } else {
            let mut b = OpBuilder::before(ctx, terminator);
            let offset = b.const_int(k * step, index);
            let add = b
                .op("arith.addi")
                .operands([new_for.induction_var, offset])
                .results(vec![index])
                .build();
            b.ctx().op(add).results()[0]
        };
        let mut map: HashMap<ValueId, ValueId> = HashMap::new();
        map.insert(for_op.induction_var, iv_value);
        for &op in &body_ops {
            let clone = ctx.clone_op(op, &mut map);
            ctx.move_op_before(clone, terminator);
        }
    }
    ctx.erase_op(loop_op);
    Ok(new_for.op)
}

/// Hoists loop-invariant pure operations out of `loop_op` (classic LICM,
/// applied on demand instead of as a blanket pass). Returns the hoisted ops.
pub fn hoist_invariants(ctx: &mut Context, loop_op: OpId) -> Result<Vec<OpId>, Diagnostic> {
    let for_op = scf::as_for(ctx, loop_op).ok_or_else(|| err(ctx, loop_op, "is not a loop"))?;
    let mut hoisted = Vec::new();
    loop {
        let mut changed = false;
        let body_ops = scf::body_ops(ctx, for_op);
        for op in body_ops {
            if !ctx.has_trait(op, OpTraits::PURE) || !ctx.op(op).regions().is_empty() {
                continue;
            }
            let invariant = ctx.op(op).operands().iter().all(|&v| {
                // Defined outside the loop: its defining site is not nested
                // in the loop op.
                match ctx.value_def(v) {
                    td_ir::ValueDef::OpResult { op: def, .. } => {
                        !ctx.is_proper_ancestor(loop_op, def)
                    }
                    td_ir::ValueDef::BlockArg { block, .. } => {
                        // The induction variable (or any arg of a block
                        // inside the loop) pins the op inside.
                        let mut inside = false;
                        if let Some(region) = ctx.block(block).parent() {
                            if let Some(parent) = ctx.region(region).parent() {
                                inside =
                                    parent == loop_op || ctx.is_proper_ancestor(loop_op, parent);
                            }
                        }
                        !inside
                    }
                }
            });
            if invariant {
                ctx.detach_op(op);
                ctx.move_op_before(op, loop_op);
                hoisted.push(op);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Ok(hoisted)
}

/// Interchanges a perfect nest according to `permutation` (a permutation of
/// `0..depth`, giving for each new level the old level that runs there).
/// Returns the new loops, outermost first.
///
/// # Errors
/// Fails if the permutation is invalid or the nest is too shallow.
pub fn interchange(
    ctx: &mut Context,
    root: OpId,
    permutation: &[usize],
) -> Result<Vec<OpId>, Diagnostic> {
    let depth = permutation.len();
    let mut seen = vec![false; depth];
    for &p in permutation {
        if p >= depth || seen[p] {
            return Err(err(ctx, root, "invalid interchange permutation"));
        }
        seen[p] = true;
    }
    let nest = perfect_nest(ctx, root);
    if nest.len() < depth {
        return Err(err(ctx, root, "nest is shallower than the permutation"));
    }
    let nest = &nest[..depth];
    if ctx.op(root).parent().is_none() {
        return Err(err(ctx, root, "is detached"));
    }
    let mut new_loops = Vec::with_capacity(depth);
    let mut new_ivs: Vec<(usize, ValueId)> = Vec::with_capacity(depth);
    let mut anchor = root;
    for &old_level in permutation {
        let old = nest[old_level];
        let new_loop = new_for_before(ctx, anchor, old.lower, old.upper, old.step);
        new_ivs.push((old_level, new_loop.induction_var));
        new_loops.push(new_loop.op);
        anchor = body_terminator(ctx, new_loop.body);
    }
    // Move body and rewire.
    let innermost = nest[depth - 1];
    let body_ops = scf::body_ops(ctx, innermost);
    for op in body_ops {
        ctx.move_op_before(op, anchor);
    }
    for (old_level, new_iv) in new_ivs {
        ctx.replace_all_uses(nest[old_level].induction_var, new_iv);
    }
    ctx.erase_op(root);
    Ok(new_loops)
}

/// Fuses two *adjacent* loops with identical bounds and step into one:
/// `for i {A}; for j {B}` → `for i {A; B[j := i]}`. The classic
/// work-combining transformation the paper's motivation contrasts with
/// tiling ("whether a loop should be first tiled or fused").
///
/// This is a *conservative* fusion: it requires the second loop to start
/// immediately after the first (no intervening ops whose motion would need
/// dependence analysis) and matching `(lower, upper, step)` values.
///
/// # Errors
/// Fails when the loops are not adjacent siblings or bounds differ.
pub fn fuse(ctx: &mut Context, first: OpId, second: OpId) -> Result<OpId, Diagnostic> {
    let first_for = scf::as_for(ctx, first).ok_or_else(|| err(ctx, first, "is not a loop"))?;
    let second_for = scf::as_for(ctx, second).ok_or_else(|| err(ctx, second, "is not a loop"))?;
    let block = ctx
        .op(first)
        .parent()
        .ok_or_else(|| err(ctx, first, "is detached"))?;
    if ctx.op(second).parent() != Some(block) {
        return Err(err(ctx, second, "is not a sibling of the fusion target"));
    }
    if ctx.next_op(first) != Some(second) {
        return Err(err(
            ctx,
            second,
            "must immediately follow the fusion target",
        ));
    }
    if (first_for.lower, first_for.upper, first_for.step)
        != (second_for.lower, second_for.upper, second_for.step)
    {
        return Err(err(ctx, second, "bounds differ from the fusion target"));
    }
    // Move the second body (minus its yield) before the first's yield and
    // rewire the induction variable.
    let terminator = body_terminator(ctx, first_for.body);
    for op in scf::body_ops(ctx, second_for) {
        ctx.move_op_before(op, terminator);
    }
    ctx.replace_all_uses(second_for.induction_var, first_for.induction_var);
    ctx.erase_op(second);
    Ok(first)
}

/// Peels the last iteration off a loop with a static trip count:
/// `(main loop, peeled ops)`.
///
/// # Errors
/// Fails when the trip count is not static or is zero.
pub fn peel_last(ctx: &mut Context, loop_op: OpId) -> Result<(OpId, Vec<OpId>), Diagnostic> {
    let for_op = scf::as_for(ctx, loop_op).ok_or_else(|| err(ctx, loop_op, "is not a loop"))?;
    let trip = scf::static_trip_count(ctx, for_op)
        .ok_or_else(|| err(ctx, loop_op, "requires a static trip count for peeling"))?;
    if trip == 0 {
        return Err(err(ctx, loop_op, "cannot peel an empty loop"));
    }
    let lb = constant_int_value(ctx, for_op.lower).expect("static");
    let step = constant_int_value(ctx, for_op.step).expect("static");
    let last = lb + (trip - 1) * step;
    let index = ctx.index_type();
    // Shrink the loop.
    let new_ub = {
        let mut b = OpBuilder::before(ctx, loop_op);
        b.const_int(last, index)
    };
    ctx.set_operand(loop_op, 1, new_ub);
    // Clone the body once after the loop with iv = last.
    let iv_value = {
        let mut b = OpBuilder::after(ctx, loop_op);
        b.const_int(last, index)
    };
    let mut map: HashMap<ValueId, ValueId> = HashMap::new();
    map.insert(for_op.induction_var, iv_value);
    let body_ops = scf::body_ops(ctx, for_op);
    let mut peeled = Vec::new();
    let mut anchor = ctx.defining_op(iv_value).expect("constant just built");
    for &op in &body_ops {
        let clone = ctx.clone_op(op, &mut map);
        ctx.move_op_after(clone, anchor);
        anchor = clone;
        peeled.push(clone);
    }
    Ok((loop_op, peeled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_ir::parse_module;
    use td_ir::verify::verify;

    fn parse(src: &str) -> (Context, OpId) {
        let mut ctx = Context::new();
        td_dialects::register_all_dialects(&mut ctx);
        let m = parse_module(&mut ctx, src).unwrap();
        (ctx, m)
    }

    const SIMPLE_LOOP: &str = r#"module {
  func.func @f(%m: memref<196xf32>) {
    %lo = arith.constant 0 : index
    %hi = arith.constant 196 : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {
      %v = "memref.load"(%m, %i) : (memref<196xf32>, index) -> f32
      "test.use"(%v) : (f32) -> ()
    }
    func.return
  }
}"#;

    const NEST_2D: &str = r#"module {
  func.func @f(%m: memref<64x64xf32>) {
    %lo = arith.constant 0 : index
    %hi = arith.constant 64 : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {
      scf.for %j = %lo to %hi step %st {
        %v = "memref.load"(%m, %i, %j) : (memref<64x64xf32>, index, index) -> f32
        "test.use"(%v) : (f32) -> ()
      }
    }
    func.return
  }
}"#;

    fn first_loop(ctx: &Context, m: OpId) -> OpId {
        scf::collect_loops(ctx, m)[0]
    }

    #[test]
    fn perfect_nest_detection() {
        let (ctx, m) = parse(NEST_2D);
        let nest = perfect_nest(&ctx, first_loop(&ctx, m));
        assert_eq!(nest.len(), 2);
        let (ctx1, m1) = parse(SIMPLE_LOOP);
        assert_eq!(perfect_nest(&ctx1, first_loop(&ctx1, m1)).len(), 1);
    }

    #[test]
    fn tile_2d_divisible() {
        let (mut ctx, m) = parse(NEST_2D);
        let root = first_loop(&ctx, m);
        let tiled = tile(&mut ctx, root, &[32, 32]).unwrap();
        assert_eq!(tiled.tile_loops.len(), 2);
        assert_eq!(tiled.point_loops.len(), 2);
        assert!(verify(&ctx, m).is_ok(), "{:?}", verify(&ctx, m));
        // 64 divisible by 32: no minsi needed.
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(!names.contains(&"arith.minsi"), "{names:?}");
        assert_eq!(scf::collect_loops(&ctx, m).len(), 4);
    }

    #[test]
    fn tile_indivisible_guards_with_min() {
        let (mut ctx, m) = parse(SIMPLE_LOOP);
        let root = first_loop(&ctx, m);
        tile(&mut ctx, root, &[32]).unwrap();
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(
            names.contains(&"arith.minsi"),
            "196 % 32 != 0 needs a bound guard"
        );
        assert!(verify(&ctx, m).is_ok(), "{:?}", verify(&ctx, m));
    }

    #[test]
    fn tile_too_deep_fails() {
        let (mut ctx, m) = parse(SIMPLE_LOOP);
        let root = first_loop(&ctx, m);
        assert!(tile(&mut ctx, root, &[8, 8]).is_err());
    }

    #[test]
    fn split_divides_iteration_space() {
        let (mut ctx, m) = parse(SIMPLE_LOOP);
        let root = first_loop(&ctx, m);
        let (main, rest) = split(&mut ctx, root, 32).unwrap();
        assert!(verify(&ctx, m).is_ok(), "{:?}", verify(&ctx, m));
        let main_for = scf::as_for(&ctx, main).unwrap();
        let rest_for = scf::as_for(&ctx, rest).unwrap();
        assert_eq!(scf::static_trip_count(&ctx, main_for), Some(192));
        assert_eq!(scf::static_trip_count(&ctx, rest_for), Some(4));
    }

    #[test]
    fn unroll_full_expands_body() {
        let (mut ctx, m) = parse(
            r#"module {
  func.func @f() {
    %lo = arith.constant 0 : index
    %hi = arith.constant 4 : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {
      "test.body"(%i) : (index) -> ()
    }
    func.return
  }
}"#,
        );
        let root = first_loop(&ctx, m);
        let expanded = unroll_full(&mut ctx, root).unwrap();
        assert_eq!(expanded.len(), 4);
        assert!(scf::collect_loops(&ctx, m).is_empty());
        assert!(verify(&ctx, m).is_ok(), "{:?}", verify(&ctx, m));
        // Each copy uses a distinct constant induction value.
        let uses: Vec<i64> = ctx
            .walk_nested(m)
            .into_iter()
            .filter(|&o| ctx.op(o).name.as_str() == "test.body")
            .map(|o| constant_int_value(&ctx, ctx.op(o).operands()[0]).unwrap())
            .collect();
        assert_eq!(uses, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unroll_by_factor() {
        let (mut ctx, m) = parse(
            r#"module {
  func.func @f() {
    %lo = arith.constant 0 : index
    %hi = arith.constant 8 : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {
      "test.body"(%i) : (index) -> ()
    }
    func.return
  }
}"#,
        );
        let root = first_loop(&ctx, m);
        let new_loop = unroll_by(&mut ctx, root, 4).unwrap();
        assert!(verify(&ctx, m).is_ok(), "{:?}", verify(&ctx, m));
        let for_op = scf::as_for(&ctx, new_loop).unwrap();
        assert_eq!(scf::static_trip_count(&ctx, for_op), Some(2));
        let bodies = ctx
            .walk_nested(m)
            .into_iter()
            .filter(|&o| ctx.op(o).name.as_str() == "test.body")
            .count();
        assert_eq!(bodies, 4);
    }

    #[test]
    fn unroll_indivisible_fails() {
        let (mut ctx, m) = parse(SIMPLE_LOOP);
        let root = first_loop(&ctx, m);
        assert!(unroll_by(&mut ctx, root, 5).is_err()); // 196 % 5 != 0
    }

    #[test]
    fn hoist_moves_invariants_out() {
        let (mut ctx, m) = parse(
            r#"module {
  func.func @f(%x: i64) {
    %lo = arith.constant 0 : index
    %hi = arith.constant 8 : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {
      %c = arith.constant 42 : i64
      %s = "arith.addi"(%x, %c) : (i64, i64) -> i64
      "test.use"(%s, %i) : (i64, index) -> ()
    }
    func.return
  }
}"#,
        );
        let root = first_loop(&ctx, m);
        let hoisted = hoist_invariants(&mut ctx, root).unwrap();
        assert_eq!(hoisted.len(), 2, "constant and add are both invariant");
        assert!(verify(&ctx, m).is_ok(), "{:?}", verify(&ctx, m));
        let for_op = scf::as_for(&ctx, root).unwrap();
        assert_eq!(
            scf::body_ops(&ctx, for_op).len(),
            1,
            "only the iv-dependent use remains"
        );
    }

    #[test]
    fn interchange_swaps_ivs() {
        let (mut ctx, m) = parse(NEST_2D);
        let root = first_loop(&ctx, m);
        let new_loops = interchange(&mut ctx, root, &[1, 0]).unwrap();
        assert_eq!(new_loops.len(), 2);
        assert!(verify(&ctx, m).is_ok(), "{:?}", verify(&ctx, m));
        // The load's indices are now (inner iv, outer iv).
        let load = ctx
            .walk_nested(m)
            .into_iter()
            .find(|&o| ctx.op(o).name.as_str() == "memref.load")
            .unwrap();
        let outer = scf::as_for(&ctx, new_loops[0]).unwrap();
        let inner = scf::as_for(&ctx, new_loops[1]).unwrap();
        let operands = ctx.op(load).operands();
        assert_eq!(
            operands[1], inner.induction_var,
            "i index now comes from the inner loop"
        );
        assert_eq!(operands[2], outer.induction_var);
    }

    #[test]
    fn peel_last_iteration() {
        let (mut ctx, m) = parse(SIMPLE_LOOP);
        let root = first_loop(&ctx, m);
        let (main, peeled) = peel_last(&mut ctx, root).unwrap();
        assert!(verify(&ctx, m).is_ok(), "{:?}", verify(&ctx, m));
        let main_for = scf::as_for(&ctx, main).unwrap();
        assert_eq!(scf::static_trip_count(&ctx, main_for), Some(195));
        assert_eq!(peeled.len(), 2, "load + use cloned once");
    }
}
