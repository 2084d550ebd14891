//! `convert-linalg-to-loops`: expands bufferized linalg named ops into
//! explicit `scf.for` nests with `memref.load`/`memref.store` bodies.

use crate::memref::memref_info;
use crate::scf;
use td_ir::{Attribute, BlockId, Context, OpBuilder, OpId, OperandList, Pass, TypeId, ValueId};
use td_support::Diagnostic;

/// The `convert-linalg-to-loops` pass.
#[derive(Debug, Default)]
pub struct LinalgToLoopsPass;

impl Pass for LinalgToLoopsPass {
    fn name(&self) -> &str {
        "convert-linalg-to-loops"
    }

    fn run(&self, ctx: &mut Context, target: OpId) -> Result<(), Diagnostic> {
        let ops: Vec<OpId> = ctx
            .walk_nested(target)
            .into_iter()
            .filter(|&op| {
                ctx.op(op).name.as_str().starts_with("linalg.")
                    && crate::linalg::is_bufferized(ctx, op)
            })
            .collect();
        for op in ops {
            lower(ctx, op)?;
        }
        Ok(())
    }
}

fn err(ctx: &Context, op: OpId, message: &str) -> Diagnostic {
    Diagnostic::error(
        ctx.op(op).location.clone(),
        format!("'{}' op {message}", ctx.op(op).name),
    )
}

fn static_dims(ctx: &Context, op: OpId, value: ValueId) -> Result<Vec<i64>, Diagnostic> {
    let (shape, ..) = memref_info(ctx, ctx.value_type(value))
        .ok_or_else(|| err(ctx, op, "expects memref operands"))?;
    shape
        .iter()
        .map(|e| e.as_static())
        .collect::<Option<Vec<i64>>>()
        .ok_or_else(|| {
            err(
                ctx,
                op,
                "with dynamic shapes is not supported by this lowering",
            )
        })
}

/// Builds a loop nest over `bounds` immediately before `anchor`. Returns the
/// induction variables (outermost first) and the innermost body block with
/// its insertion handled by the returned block (insert before its trailing
/// `scf.yield`).
fn build_loop_nest(ctx: &mut Context, anchor: OpId, bounds: &[i64]) -> (Vec<ValueId>, BlockId) {
    let block = ctx.op(anchor).parent().expect("attached");
    // Constants in the outer block.
    let index = ctx.index_type();
    let mut constants = Vec::new();
    {
        let mut builder = OpBuilder::before(ctx, anchor);
        let zero = builder.const_int(0, index);
        let one = builder.const_int(1, index);
        for &bound in bounds {
            constants.push(builder.const_int(bound, index));
        }
        constants.push(zero);
        constants.push(one);
    }
    let one = constants.pop().expect("one");
    let zero = constants.pop().expect("zero");
    let mut ivs = Vec::new();
    let mut current_block = block;
    let mut insert_before: Option<OpId> = Some(anchor);
    for &upper in &constants {
        let for_op = {
            // Create detached and insert at the right place.
            let f = scf::build_for(ctx, current_block, zero, upper, one);
            // build_for appends at the end; move before the anchor op when
            // inserting into the original block.
            if let Some(anchor_op) = insert_before {
                ctx.move_op_before(f.op, anchor_op);
            }
            f
        };
        ivs.push(for_op.induction_var);
        current_block = for_op.body;
        // Within loop bodies, insert before the scf.yield terminator.
        insert_before = ctx.block(current_block).last_op();
    }
    (ivs, current_block)
}

/// Builder positioned just before the `scf.yield` of `body`.
fn body_builder<'c>(ctx: &'c mut Context, body: BlockId) -> OpBuilder<'c> {
    let last = ctx
        .block(body)
        .last_op()
        .expect("loop body has a terminator");
    OpBuilder::before(ctx, last)
}

fn load(b: &mut OpBuilder, source: ValueId, indices: &[ValueId], elem: TypeId) -> ValueId {
    let mut operands = vec![source];
    operands.extend_from_slice(indices);
    let op = b
        .op("memref.load")
        .operands(operands)
        .results(vec![elem])
        .build();
    b.ctx().op(op).results()[0]
}

fn store(b: &mut OpBuilder, value: ValueId, dest: ValueId, indices: &[ValueId]) {
    let mut operands = vec![value, dest];
    operands.extend_from_slice(indices);
    b.op("memref.store").operands(operands).build();
}

fn binf(b: &mut OpBuilder, name: &str, lhs: ValueId, rhs: ValueId, elem: TypeId) -> ValueId {
    let op = b.op(name).operands([lhs, rhs]).results(vec![elem]).build();
    b.ctx().op(op).results()[0]
}

fn element_type(ctx: &Context, value: ValueId) -> TypeId {
    let (_, elem, ..) = memref_info(ctx, ctx.value_type(value)).expect("memref operand");
    elem
}

fn lower(ctx: &mut Context, op: OpId) -> Result<(), Diagnostic> {
    let name = ctx.op(op).name.as_str();
    match name {
        "linalg.matmul" => lower_matmul(ctx, op, false)?,
        "linalg.batch_matmul" => lower_matmul(ctx, op, true)?,
        "linalg.conv2d" => lower_conv2d(ctx, op)?,
        "linalg.add" | "linalg.sub" | "linalg.mul" => lower_elementwise_binary(ctx, op, &name)?,
        "linalg.map" => lower_map(ctx, op)?,
        "linalg.reduce" => lower_reduce(ctx, op)?,
        "linalg.transpose" => lower_transpose(ctx, op)?,
        "linalg.copy" => lower_copy(ctx, op)?,
        "linalg.fill" => lower_fill(ctx, op)?,
        "linalg.pooling_max" | "linalg.pooling_avg" => lower_pooling(ctx, op)?,
        _ => return Err(err(ctx, op, "has no loop lowering")),
    }
    Ok(())
}

fn lower_matmul(ctx: &mut Context, op: OpId, batched: bool) -> Result<(), Diagnostic> {
    let operands = OperandList::from_slice(ctx.op(op).operands());
    let [a, b_mat, c] = operands[..] else {
        return Err(err(ctx, op, "expects (A, B, C)"));
    };
    let a_dims = static_dims(ctx, op, a)?;
    let b_dims = static_dims(ctx, op, b_mat)?;
    let elem = element_type(ctx, c);
    let (batch, m, k, n) = if batched {
        (a_dims[0], a_dims[1], a_dims[2], b_dims[2])
    } else {
        (1, a_dims[0], a_dims[1], b_dims[1])
    };
    let bounds: Vec<i64> = if batched {
        vec![batch, m, n, k]
    } else {
        vec![m, n, k]
    };
    let (ivs, body) = build_loop_nest(ctx, op, &bounds);
    {
        let mut builder = body_builder(ctx, body);
        let (idx_a, idx_b, idx_c): (Vec<ValueId>, Vec<ValueId>, Vec<ValueId>) = if batched {
            (
                vec![ivs[0], ivs[1], ivs[3]],
                vec![ivs[0], ivs[3], ivs[2]],
                vec![ivs[0], ivs[1], ivs[2]],
            )
        } else {
            (
                vec![ivs[0], ivs[2]],
                vec![ivs[2], ivs[1]],
                vec![ivs[0], ivs[1]],
            )
        };
        let av = load(&mut builder, a, &idx_a, elem);
        let bv = load(&mut builder, b_mat, &idx_b, elem);
        let cv = load(&mut builder, c, &idx_c, elem);
        let prod = binf(&mut builder, "arith.mulf", av, bv, elem);
        let sum = binf(&mut builder, "arith.addf", cv, prod, elem);
        store(&mut builder, sum, c, &idx_c);
    }
    ctx.erase_op(op);
    Ok(())
}

fn lower_conv2d(ctx: &mut Context, op: OpId) -> Result<(), Diagnostic> {
    let operands = OperandList::from_slice(ctx.op(op).operands());
    let [x, w, o] = operands[..] else {
        return Err(err(ctx, op, "expects (input, weights, out)"));
    };
    let x_dims = static_dims(ctx, op, x)?;
    let w_dims = static_dims(ctx, op, w)?;
    let o_dims = static_dims(ctx, op, o)?;
    if x_dims.len() != 4 || w_dims.len() != 4 || o_dims.len() != 4 {
        // Fall back to an elementwise copy for unusual ranks.
        return lower_copy(ctx, op);
    }
    let elem = element_type(ctx, o);
    // Loops: n, oh, ow, f, kh, kw, c — with input indices clamped to stay
    // in bounds (simplified "same" padding).
    let bounds = vec![
        o_dims[0], o_dims[1], o_dims[2], o_dims[3], w_dims[0], w_dims[1], w_dims[2],
    ];
    let (ivs, body) = build_loop_nest(ctx, op, &bounds);
    {
        let mut builder = body_builder(ctx, body);
        let index = builder.ctx().index_type();
        let add = |b: &mut OpBuilder, l: ValueId, r: ValueId| {
            let o = b
                .op("arith.addi")
                .operands([l, r])
                .results(vec![index])
                .build();
            b.ctx().op(o).results()[0]
        };
        let clamp = |b: &mut OpBuilder, v: ValueId, hi: i64| {
            let c = b.const_int(hi - 1, index);
            let o = b
                .op("arith.minsi")
                .operands([v, c])
                .results(vec![index])
                .build();
            b.ctx().op(o).results()[0]
        };
        let ih_raw = add(&mut builder, ivs[1], ivs[4]);
        let ih = clamp(&mut builder, ih_raw, x_dims[1]);
        let iw_raw = add(&mut builder, ivs[2], ivs[5]);
        let iw = clamp(&mut builder, iw_raw, x_dims[2]);
        let xv = load(&mut builder, x, &[ivs[0], ih, iw, ivs[6]], elem);
        let wv = load(&mut builder, w, &[ivs[4], ivs[5], ivs[6], ivs[3]], elem);
        let ov = load(&mut builder, o, &[ivs[0], ivs[1], ivs[2], ivs[3]], elem);
        let prod = binf(&mut builder, "arith.mulf", xv, wv, elem);
        let sum = binf(&mut builder, "arith.addf", ov, prod, elem);
        store(&mut builder, sum, o, &[ivs[0], ivs[1], ivs[2], ivs[3]]);
    }
    ctx.erase_op(op);
    Ok(())
}

fn lower_elementwise_binary(ctx: &mut Context, op: OpId, name: &str) -> Result<(), Diagnostic> {
    let operands = OperandList::from_slice(ctx.op(op).operands());
    let [a, b_val, dst] = operands[..] else {
        return Err(err(ctx, op, "expects (a, b, dst)"));
    };
    let dims = static_dims(ctx, op, dst)?;
    let elem = element_type(ctx, dst);
    let scalar = match name {
        "linalg.add" => "arith.addf",
        "linalg.sub" => "arith.subf",
        _ => "arith.mulf",
    };
    let (ivs, body) = build_loop_nest(ctx, op, &dims);
    {
        let mut builder = body_builder(ctx, body);
        let av = load(&mut builder, a, &ivs, elem);
        let bv = load(&mut builder, b_val, &ivs, elem);
        let r = binf(&mut builder, scalar, av, bv, elem);
        store(&mut builder, r, dst, &ivs);
    }
    ctx.erase_op(op);
    Ok(())
}

fn lower_map(ctx: &mut Context, op: OpId) -> Result<(), Diagnostic> {
    let operands = OperandList::from_slice(ctx.op(op).operands());
    let [src, dst] = operands[..] else {
        return Err(err(ctx, op, "expects (src, dst)"));
    };
    let kind = ctx
        .op(op)
        .attr("kind")
        .and_then(|a| a.as_str().map(str::to_owned))
        .unwrap_or_else(|| "cast".to_owned());
    let dims = static_dims(ctx, op, dst)?;
    let elem = element_type(ctx, dst);
    let (ivs, body) = build_loop_nest(ctx, op, &dims);
    {
        let mut builder = body_builder(ctx, body);
        let x = load(&mut builder, src, &ivs, elem);
        let y = match kind.as_str() {
            "exp" | "tanh" | "sigmoid" | "rsqrt" => {
                let math_name = format!("math.{kind}");
                let o = builder
                    .op(&math_name)
                    .operand(x)
                    .results(vec![elem])
                    .build();
                builder.ctx().op(o).results()[0]
            }
            "reciprocal" => {
                let one = builder.const_float(1.0, elem);
                binf(&mut builder, "arith.divf", one, x, elem)
            }
            "clamp" => {
                let zero = builder.const_float(0.0, elem);
                binf(&mut builder, "arith.maximumf", x, zero, elem)
            }
            // cast / rescale: identity data movement.
            _ => x,
        };
        store(&mut builder, y, dst, &ivs);
    }
    ctx.erase_op(op);
    Ok(())
}

fn lower_reduce(ctx: &mut Context, op: OpId) -> Result<(), Diagnostic> {
    let operands = OperandList::from_slice(ctx.op(op).operands());
    let [src, dst] = operands[..] else {
        return Err(err(ctx, op, "expects (src, dst)"));
    };
    let src_dims = static_dims(ctx, op, src)?;
    let dst_dims = static_dims(ctx, op, dst)?;
    let elem = element_type(ctx, dst);
    let kind = ctx
        .op(op)
        .attr("kind")
        .and_then(|a| a.as_str().map(str::to_owned))
        .unwrap_or_else(|| "sum".to_owned());
    // Reduce over the last dimension of the source.
    let outer: Vec<i64> = src_dims[..src_dims.len() - 1].to_vec();
    let inner = *src_dims
        .last()
        .ok_or_else(|| err(ctx, op, "requires rank >= 1"))?;
    let mut bounds = outer.clone();
    bounds.push(inner);
    let (ivs, body) = build_loop_nest(ctx, op, &bounds);
    {
        let mut builder = body_builder(ctx, body);
        // Destination index: outer ivs, padded/truncated to dst rank.
        let mut dst_idx: Vec<ValueId> = ivs[..ivs.len() - 1].to_vec();
        while dst_idx.len() > dst_dims.len() {
            dst_idx.pop();
        }
        while dst_idx.len() < dst_dims.len() {
            let zero = builder.const_index(0);
            dst_idx.push(zero);
        }
        let x = load(&mut builder, src, &ivs, elem);
        let acc = load(&mut builder, dst, &dst_idx, elem);
        let next = match kind.as_str() {
            "max" => binf(&mut builder, "arith.maximumf", acc, x, elem),
            _ => binf(&mut builder, "arith.addf", acc, x, elem),
        };
        store(&mut builder, next, dst, &dst_idx);
    }
    ctx.erase_op(op);
    Ok(())
}

fn lower_transpose(ctx: &mut Context, op: OpId) -> Result<(), Diagnostic> {
    let operands = OperandList::from_slice(ctx.op(op).operands());
    let [src, dst] = operands[..] else {
        return Err(err(ctx, op, "expects (src, dst)"));
    };
    let dims = static_dims(ctx, op, dst)?;
    let elem = element_type(ctx, dst);
    let rank = dims.len();
    // Permutation: explicit `perms` attribute or rank reversal by default.
    let perms: Vec<usize> = ctx
        .op(op)
        .attr("perms")
        .and_then(Attribute::as_int_array)
        .map(|v| v.into_iter().map(|i| i as usize).collect())
        .unwrap_or_else(|| (0..rank).rev().collect());
    if perms.len() != rank {
        return Err(err(ctx, op, "perms rank mismatch"));
    }
    let (ivs, body) = build_loop_nest(ctx, op, &dims);
    {
        let mut builder = body_builder(ctx, body);
        // dst[i0..] = src[perm(i)..]: src index j gets dst iv at position
        // where perms maps.
        let mut src_idx = vec![ivs[0]; rank];
        for (dst_pos, &src_pos) in perms.iter().enumerate() {
            src_idx[src_pos] = ivs[dst_pos];
        }
        let x = load(&mut builder, src, &src_idx, elem);
        store(&mut builder, x, dst, &ivs);
    }
    ctx.erase_op(op);
    Ok(())
}

fn lower_fill(ctx: &mut Context, op: OpId) -> Result<(), Diagnostic> {
    let operands = OperandList::from_slice(ctx.op(op).operands());
    let Some(&dst) = operands.last() else {
        return Err(err(ctx, op, "expects a destination"));
    };
    let dims = static_dims(ctx, op, dst)?;
    let elem = element_type(ctx, dst);
    let value = ctx
        .op(op)
        .attr("value")
        .and_then(Attribute::as_float)
        .unwrap_or(0.0);
    let (ivs, body) = build_loop_nest(ctx, op, &dims);
    {
        let mut builder = body_builder(ctx, body);
        let v = builder.const_float(value, elem);
        store(&mut builder, v, dst, &ivs);
    }
    ctx.erase_op(op);
    Ok(())
}

/// Flat element-by-element copy through 1-D reinterpreted views; used for
/// `linalg.copy` (reshape/pad/slice/concat plumbing after bufferization).
fn lower_copy(ctx: &mut Context, op: OpId) -> Result<(), Diagnostic> {
    let operands = OperandList::from_slice(ctx.op(op).operands());
    if operands.len() < 2 {
        return Err(err(ctx, op, "expects at least (src, dst)"));
    }
    let src = operands[0];
    let dst = *operands.last().expect("checked length");
    let src_total: i64 = static_dims(ctx, op, src)?.iter().product();
    let dst_total: i64 = static_dims(ctx, op, dst)?.iter().product();
    let total = src_total.min(dst_total);
    let elem = element_type(ctx, dst);
    // Flat views.
    let flat_src_ty = ctx.intern_type(td_ir::TypeKind::MemRef {
        shape: vec![td_ir::Extent::Static(src_total)],
        element: elem,
        offset: td_ir::Extent::Static(0),
        strides: vec![],
    });
    let flat_dst_ty = ctx.intern_type(td_ir::TypeKind::MemRef {
        shape: vec![td_ir::Extent::Static(dst_total)],
        element: elem,
        offset: td_ir::Extent::Static(0),
        strides: vec![],
    });
    let (flat_src, flat_dst) = {
        let mk = |ctx: &mut Context, value: ValueId, ty: TypeId, total: i64| {
            let cast = ctx.create_op(
                ctx.op(op).location.clone(),
                "memref.reinterpret_cast",
                [value],
                [ty],
                vec![
                    (
                        td_support::Symbol::new("static_offsets"),
                        Attribute::int_array([0]),
                    ),
                    (
                        td_support::Symbol::new("static_sizes"),
                        Attribute::int_array([total]),
                    ),
                    (
                        td_support::Symbol::new("static_strides"),
                        Attribute::int_array([1]),
                    ),
                ],
                0,
            );
            ctx.insert_op_before(op, cast);
            ctx.op(cast).results()[0]
        };
        let s = mk(ctx, src, flat_src_ty, src_total);
        let d = mk(ctx, dst, flat_dst_ty, dst_total);
        (s, d)
    };
    let (ivs, body) = build_loop_nest(ctx, op, &[total]);
    {
        let mut builder = body_builder(ctx, body);
        let x = load(&mut builder, flat_src, &ivs, elem);
        store(&mut builder, x, flat_dst, &ivs);
    }
    ctx.erase_op(op);
    Ok(())
}

fn lower_pooling(ctx: &mut Context, op: OpId) -> Result<(), Diagnostic> {
    let operands = OperandList::from_slice(ctx.op(op).operands());
    let [src, dst] = operands[..] else {
        return Err(err(ctx, op, "expects (src, dst)"));
    };
    let src_dims = static_dims(ctx, op, src)?;
    let dst_dims = static_dims(ctx, op, dst)?;
    if src_dims.len() != 4 || dst_dims.len() != 4 {
        return lower_copy(ctx, op);
    }
    let elem = element_type(ctx, dst);
    let is_max = ctx.op(op).name.as_str() == "linalg.pooling_max";
    // Loops over output + 2x2 window with clamped input coordinates.
    let mut bounds = dst_dims.clone();
    bounds.push(2);
    bounds.push(2);
    let (ivs, body) = build_loop_nest(ctx, op, &bounds);
    {
        let mut builder = body_builder(ctx, body);
        let index = builder.ctx().index_type();
        let add_clamped = |b: &mut OpBuilder, base: ValueId, off: ValueId, hi: i64| {
            let s = b
                .op("arith.addi")
                .operands([base, off])
                .results(vec![index])
                .build();
            let s = b.ctx().op(s).results()[0];
            let c = b.const_int(hi - 1, index);
            let m = b
                .op("arith.minsi")
                .operands([s, c])
                .results(vec![index])
                .build();
            b.ctx().op(m).results()[0]
        };
        let ih = add_clamped(&mut builder, ivs[1], ivs[4], src_dims[1]);
        let iw = add_clamped(&mut builder, ivs[2], ivs[5], src_dims[2]);
        let x = load(&mut builder, src, &[ivs[0], ih, iw, ivs[3]], elem);
        let acc = load(&mut builder, dst, &[ivs[0], ivs[1], ivs[2], ivs[3]], elem);
        let next = if is_max {
            binf(&mut builder, "arith.maximumf", acc, x, elem)
        } else {
            let sum = binf(&mut builder, "arith.addf", acc, x, elem);
            let quarter = builder.const_float(0.25, elem);
            // Incremental averaging approximation: acc + x*0.25.
            let scaled = binf(&mut builder, "arith.mulf", x, quarter, elem);
            let _ = sum;
            binf(&mut builder, "arith.addf", acc, scaled, elem)
        };
        store(&mut builder, next, dst, &[ivs[0], ivs[1], ivs[2], ivs[3]]);
    }
    ctx.erase_op(op);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_ir::verify::verify;
    use td_support::Location;

    fn bufferized_op(
        name: &str,
        shapes: &[&[i64]],
        attrs: Vec<(&str, Attribute)>,
    ) -> (Context, OpId) {
        let mut ctx = Context::new();
        crate::register_all_dialects(&mut ctx);
        crate::math::register(&mut ctx);
        let module = ctx.create_module(Location::unknown());
        let f32t = ctx.f32_type();
        let arg_types: Vec<td_ir::TypeId> = shapes
            .iter()
            .map(|s| crate::memref::memref_type(&mut ctx, s, f32t))
            .collect();
        let (_f, entry) = crate::func::build_func(&mut ctx, module, "f", &arg_types, &[]);
        let args = ctx.block(entry).args().to_vec();
        let attrs: Vec<_> = attrs
            .into_iter()
            .map(|(k, v)| (td_support::Symbol::new(k), v))
            .collect();
        let op = ctx.create_op(Location::unknown(), name, args, vec![], attrs, 0);
        ctx.append_op(entry, op);
        let ret = ctx.create_op(
            Location::unknown(),
            "func.return",
            vec![],
            vec![],
            vec![],
            0,
        );
        ctx.append_op(entry, ret);
        (ctx, module)
    }

    /// A function whose body is `n` bufferized `linalg.add`s, each over
    /// its own three 1-D memref arguments (so no use list grows with `n`),
    /// followed by its return.
    fn add_block(n: usize) -> (Context, OpId) {
        let mut ctx = Context::new();
        crate::register_all_dialects(&mut ctx);
        let module = ctx.create_module(Location::unknown());
        let f32t = ctx.f32_type();
        let ty = crate::memref::memref_type(&mut ctx, &[4], f32t);
        let (_f, entry) = crate::func::build_func(&mut ctx, module, "f", &vec![ty; 3 * n], &[]);
        let args = ctx.block(entry).args().to_vec();
        for operands in args.chunks(3) {
            let op = ctx.create_op(
                Location::unknown(),
                "linalg.add",
                operands.to_vec(),
                vec![],
                vec![],
                0,
            );
            ctx.append_op(entry, op);
        }
        let ret = ctx.create_op(
            Location::unknown(),
            "func.return",
            vec![],
            vec![],
            vec![],
            0,
        );
        ctx.append_op(entry, ret);
        (ctx, module)
    }

    #[test]
    fn lowering_and_verifying_scale_linearly_with_block_size() {
        // Every lowered op inserts before its anchor and erases it, and
        // the verifier orders every operand against its def. If either
        // costs time proportional to the block, the 16x block reads far
        // above the 4x per-op bound; constant-time positions read ~1x.
        const N: usize = 128;
        let per_op_ns = |n: usize| {
            (0..3)
                .map(|_| {
                    let (mut ctx, m) = add_block(n);
                    let start = std::time::Instant::now();
                    LinalgToLoopsPass.run(&mut ctx, m).unwrap();
                    assert!(verify(&ctx, m).is_ok(), "{:?}", verify(&ctx, m));
                    start.elapsed().as_nanos() as f64 / n as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        let small = per_op_ns(N);
        let large = per_op_ns(16 * N);
        assert!(
            large <= 4.0 * small,
            "{:.0} ns/op at {} ops vs {:.0} ns/op at {N}",
            large,
            16 * N,
            small
        );
    }

    #[test]
    fn matmul_becomes_three_loops() {
        let (mut ctx, m) = bufferized_op("linalg.matmul", &[&[4, 8], &[8, 6], &[4, 6]], vec![]);
        LinalgToLoopsPass.run(&mut ctx, m).unwrap();
        let loops = crate::scf::collect_loops(&ctx, m);
        assert_eq!(loops.len(), 3);
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(names.contains(&"arith.mulf"));
        assert!(names.contains(&"arith.addf"));
        assert!(names.contains(&"memref.store"));
        assert!(verify(&ctx, m).is_ok(), "{:?}", verify(&ctx, m));
    }

    #[test]
    fn conv2d_becomes_seven_loops() {
        let (mut ctx, m) = bufferized_op(
            "linalg.conv2d",
            &[&[1, 8, 8, 3], &[3, 3, 3, 4], &[1, 8, 8, 4]],
            vec![],
        );
        LinalgToLoopsPass.run(&mut ctx, m).unwrap();
        assert_eq!(crate::scf::collect_loops(&ctx, m).len(), 7);
        assert!(verify(&ctx, m).is_ok(), "{:?}", verify(&ctx, m));
    }

    #[test]
    fn elementwise_and_map_lower() {
        let (mut ctx, m) = bufferized_op("linalg.add", &[&[4, 4], &[4, 4], &[4, 4]], vec![]);
        LinalgToLoopsPass.run(&mut ctx, m).unwrap();
        assert_eq!(crate::scf::collect_loops(&ctx, m).len(), 2);

        let (mut ctx2, m2) = bufferized_op(
            "linalg.map",
            &[&[4, 4], &[4, 4]],
            vec![("kind", Attribute::String("exp".into()))],
        );
        LinalgToLoopsPass.run(&mut ctx2, m2).unwrap();
        let names: Vec<&str> = ctx2
            .walk_nested(m2)
            .iter()
            .map(|&o| ctx2.op(o).name.as_str())
            .collect();
        assert!(names.contains(&"math.exp"), "{names:?}");
        assert!(verify(&ctx2, m2).is_ok(), "{:?}", verify(&ctx2, m2));
    }

    #[test]
    fn reduce_and_transpose_lower() {
        let (mut ctx, m) = bufferized_op(
            "linalg.reduce",
            &[&[4, 8], &[4, 1]],
            vec![("kind", Attribute::String("sum".into()))],
        );
        LinalgToLoopsPass.run(&mut ctx, m).unwrap();
        assert_eq!(crate::scf::collect_loops(&ctx, m).len(), 2);
        assert!(verify(&ctx, m).is_ok(), "{:?}", verify(&ctx, m));

        let (mut ctx2, m2) = bufferized_op("linalg.transpose", &[&[4, 8], &[8, 4]], vec![]);
        LinalgToLoopsPass.run(&mut ctx2, m2).unwrap();
        assert_eq!(crate::scf::collect_loops(&ctx2, m2).len(), 2);
        assert!(verify(&ctx2, m2).is_ok(), "{:?}", verify(&ctx2, m2));
    }

    #[test]
    fn lowered_matmul_loads_each_operand_once_per_iteration() {
        // Numeric execution of lowered code is covered downstream, where
        // the machine crate is available (tests/end_to_end.rs).
        let (mut ctx, m) = bufferized_op("linalg.matmul", &[&[2, 3], &[3, 2], &[2, 2]], vec![]);
        LinalgToLoopsPass.run(&mut ctx, m).unwrap();
        let loads = ctx
            .walk_nested(m)
            .iter()
            .filter(|&&o| ctx.op(o).name.as_str() == "memref.load")
            .count();
        assert_eq!(loads, 3, "A, B and C are each loaded once per iteration");
    }

    #[test]
    fn copy_lowers_to_flat_loop() {
        let (mut ctx, m) = bufferized_op(
            "linalg.copy",
            &[&[2, 8], &[4, 4]],
            vec![("kind", Attribute::String("reshape".into()))],
        );
        LinalgToLoopsPass.run(&mut ctx, m).unwrap();
        assert_eq!(crate::scf::collect_loops(&ctx, m).len(), 1);
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(names.contains(&"memref.reinterpret_cast"));
        assert!(verify(&ctx, m).is_ok(), "{:?}", verify(&ctx, m));
    }
}
