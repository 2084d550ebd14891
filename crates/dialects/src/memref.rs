//! The `memref` dialect: memory references with strided layouts.
//!
//! `memref.subview` is central to Case Study 2 of the paper: its lowering
//! through `expand-strided-metadata` introduces `affine.apply` operations
//! exactly when offsets are dynamic, which is what breaks naive lowering
//! pipelines.

use td_ir::{
    Attribute, BlockId, Context, Extent, OpId, OpSpec, OpTraits, TypeId, TypeKind, ValueId,
};
use td_support::{Diagnostic, Location, Symbol};

/// Sentinel attribute value marking a dynamic offset/size/stride in the
/// `static_*` attribute arrays (mirrors MLIR's `ShapedType::kDynamic`).
pub const DYNAMIC: i64 = i64::MIN;

/// Registers the memref dialect.
pub fn register(ctx: &mut Context) {
    ctx.registry.note_dialect("memref");
    ctx.registry.register(
        OpSpec::new("memref.alloc", "heap allocation")
            .with_traits(OpTraits::ALLOCATES)
            .with_verify(verify_alloc),
    );
    ctx.registry
        .register(OpSpec::new("memref.dealloc", "heap deallocation"));
    ctx.registry
        .register(OpSpec::new("memref.load", "memory read").with_verify(verify_load));
    ctx.registry
        .register(OpSpec::new("memref.store", "memory write").with_verify(verify_store));
    ctx.registry.register(
        OpSpec::new("memref.subview", "strided view into a memref")
            .with_traits(OpTraits::PURE)
            .with_verify(verify_subview),
    );
    ctx.registry
        .register(OpSpec::new("memref.dim", "dimension extent").with_traits(OpTraits::PURE));
    ctx.registry
        .register(OpSpec::new("memref.copy", "bulk copy"));
    ctx.registry.register(
        OpSpec::new(
            "memref.extract_strided_metadata",
            "decompose a memref into base/offset/sizes/strides",
        )
        .with_traits(OpTraits::PURE),
    );
    ctx.registry.register(
        OpSpec::new(
            "memref.reinterpret_cast",
            "reassemble a memref from base/offset/sizes/strides",
        )
        .with_traits(OpTraits::PURE),
    );
    ctx.registry.register(
        OpSpec::new(
            "memref.extract_aligned_pointer_as_index",
            "raw pointer of a memref",
        )
        .with_traits(OpTraits::PURE),
    );
    ctx.registry
        .register(OpSpec::new("memref.cast", "layout-compatible cast").with_traits(OpTraits::PURE));
}

fn err(ctx: &Context, op: OpId, message: &str) -> Diagnostic {
    Diagnostic::error(
        ctx.op(op).location.clone(),
        format!("'{}' op {message}", ctx.op(op).name),
    )
}

/// Convenience constructor for an identity-layout memref type.
pub fn memref_type(ctx: &mut Context, shape: &[i64], element: TypeId) -> TypeId {
    ctx.intern_type(TypeKind::MemRef {
        shape: shape.iter().map(|&d| Extent::Static(d)).collect(),
        element,
        offset: Extent::Static(0),
        strides: vec![],
    })
}

/// Structural info of a memref type: `(shape, element, offset, strides)`.
/// Identity layouts get their canonical row-major strides materialized.
pub fn memref_info(
    ctx: &Context,
    ty: TypeId,
) -> Option<(Vec<Extent>, TypeId, Extent, Vec<Extent>)> {
    let TypeKind::MemRef {
        shape,
        element,
        offset,
        strides,
    } = ctx.type_kind(ty)
    else {
        return None;
    };
    let strides = if strides.is_empty() {
        // Identity layout: row-major strides (dynamic when any inner extent
        // is dynamic).
        let mut out = vec![Extent::Static(1); shape.len()];
        let mut acc = Extent::Static(1);
        for i in (0..shape.len()).rev() {
            out[i] = acc;
            acc = match (acc, shape[i]) {
                (Extent::Static(a), Extent::Static(d)) => Extent::Static(a * d),
                _ => Extent::Dynamic,
            };
        }
        out
    } else {
        strides.clone()
    };
    Some((shape.clone(), *element, *offset, strides))
}

fn verify_alloc(ctx: &Context, op: OpId) -> Result<(), Diagnostic> {
    let data = ctx.op(op);
    if data.results().len() != 1 {
        return Err(err(ctx, op, "expects one memref result"));
    }
    let ty = ctx.value_type(data.results()[0]);
    let Some((shape, ..)) = memref_info(ctx, ty) else {
        return Err(err(ctx, op, "result must be a memref"));
    };
    let dynamic = shape.iter().filter(|e| e.is_dynamic()).count();
    if data.operands().len() != dynamic {
        return Err(err(
            ctx,
            op,
            "expects one index operand per dynamic dimension",
        ));
    }
    Ok(())
}

fn verify_load(ctx: &Context, op: OpId) -> Result<(), Diagnostic> {
    let data = ctx.op(op);
    if data.operands().is_empty() || data.results().len() != 1 {
        return Err(err(ctx, op, "expects a memref operand and one result"));
    }
    let Some((shape, element, ..)) = memref_info(ctx, ctx.value_type(data.operands()[0])) else {
        return Err(err(ctx, op, "first operand must be a memref"));
    };
    if data.operands().len() != 1 + shape.len() {
        return Err(err(ctx, op, "expects one index per memref dimension"));
    }
    if ctx.value_type(data.results()[0]) != element {
        return Err(err(ctx, op, "result type must be the memref element type"));
    }
    Ok(())
}

fn verify_store(ctx: &Context, op: OpId) -> Result<(), Diagnostic> {
    let data = ctx.op(op);
    if data.operands().len() < 2 {
        return Err(err(ctx, op, "expects (value, memref, indices...) operands"));
    }
    let Some((shape, element, ..)) = memref_info(ctx, ctx.value_type(data.operands()[1])) else {
        return Err(err(ctx, op, "second operand must be a memref"));
    };
    if data.operands().len() != 2 + shape.len() {
        return Err(err(ctx, op, "expects one index per memref dimension"));
    }
    if ctx.value_type(data.operands()[0]) != element {
        return Err(err(
            ctx,
            op,
            "stored value type must be the memref element type",
        ));
    }
    Ok(())
}

/// Reads the `static_offsets`/`static_sizes`/`static_strides` attributes of
/// a subview-like op.
pub fn static_triple(ctx: &Context, op: OpId) -> Option<(Vec<i64>, Vec<i64>, Vec<i64>)> {
    let offsets = ctx.op(op).attr("static_offsets")?.as_int_array()?;
    let sizes = ctx.op(op).attr("static_sizes")?.as_int_array()?;
    let strides = ctx.op(op).attr("static_strides")?.as_int_array()?;
    Some((offsets, sizes, strides))
}

fn verify_subview(ctx: &Context, op: OpId) -> Result<(), Diagnostic> {
    let data = ctx.op(op);
    if data.operands().is_empty() || data.results().len() != 1 {
        return Err(err(ctx, op, "expects a source memref and one result"));
    }
    let Some((shape, ..)) = memref_info(ctx, ctx.value_type(data.operands()[0])) else {
        return Err(err(ctx, op, "source must be a memref"));
    };
    let Some((offsets, sizes, strides)) = static_triple(ctx, op) else {
        return Err(err(
            ctx,
            op,
            "requires static_offsets/static_sizes/static_strides attributes",
        ));
    };
    let rank = shape.len();
    if offsets.len() != rank || sizes.len() != rank || strides.len() != rank {
        return Err(err(
            ctx,
            op,
            "offset/size/stride ranks must match the source rank",
        ));
    }
    let dynamic_count = offsets
        .iter()
        .chain(&sizes)
        .chain(&strides)
        .filter(|&&v| v == DYNAMIC)
        .count();
    if data.operands().len() != 1 + dynamic_count {
        return Err(err(
            ctx,
            op,
            "expects one index operand per dynamic offset/size/stride",
        ));
    }
    Ok(())
}

/// Computes the result type of a subview with the given static triple over
/// `source_ty`. Dynamic entries produce dynamic extents.
pub fn subview_result_type(
    ctx: &mut Context,
    source_ty: TypeId,
    offsets: &[i64],
    sizes: &[i64],
    strides: &[i64],
) -> Option<TypeId> {
    let (_, element, src_offset, src_strides) = memref_info(ctx, source_ty)?;
    let mut result_offset = src_offset;
    for (i, &o) in offsets.iter().enumerate() {
        let term = if o == DYNAMIC {
            Extent::Dynamic
        } else {
            match src_strides[i] {
                Extent::Static(s) => Extent::Static(o * s),
                Extent::Dynamic => {
                    if o == 0 {
                        Extent::Static(0)
                    } else {
                        Extent::Dynamic
                    }
                }
            }
        };
        result_offset = match (result_offset, term) {
            (Extent::Static(a), Extent::Static(b)) => Extent::Static(a + b),
            _ => Extent::Dynamic,
        };
    }
    let result_shape: Vec<Extent> = sizes
        .iter()
        .map(|&s| {
            if s == DYNAMIC {
                Extent::Dynamic
            } else {
                Extent::Static(s)
            }
        })
        .collect();
    let result_strides: Vec<Extent> = strides
        .iter()
        .zip(src_strides.iter())
        .map(|(&s, &src)| match (s, src) {
            (DYNAMIC, _) | (_, Extent::Dynamic) => Extent::Dynamic,
            (s, Extent::Static(base)) => Extent::Static(s * base),
        })
        .collect();
    Some(ctx.intern_type(TypeKind::MemRef {
        shape: result_shape,
        element,
        offset: result_offset,
        strides: result_strides,
    }))
}

/// Builds a `memref.subview` at the end of `block`. `dynamic_operands` must
/// contain one index value per [`DYNAMIC`] entry, in offset→size→stride
/// order.
#[allow(clippy::too_many_arguments)]
pub fn build_subview(
    ctx: &mut Context,
    block: BlockId,
    source: ValueId,
    offsets: &[i64],
    sizes: &[i64],
    strides: &[i64],
    dynamic_operands: Vec<ValueId>,
    location: Location,
) -> Option<OpId> {
    let source_ty = ctx.value_type(source);
    let result_ty = subview_result_type(ctx, source_ty, offsets, sizes, strides)?;
    let mut operands = vec![source];
    operands.extend(dynamic_operands);
    let op = ctx.create_op(
        location,
        "memref.subview",
        operands,
        [result_ty],
        vec![
            (
                Symbol::new("static_offsets"),
                Attribute::int_array(offsets.iter().copied()),
            ),
            (
                Symbol::new("static_sizes"),
                Attribute::int_array(sizes.iter().copied()),
            ),
            (
                Symbol::new("static_strides"),
                Attribute::int_array(strides.iter().copied()),
            ),
        ],
        0,
    );
    ctx.append_op(block, op);
    Some(op)
}

/// Whether a subview is *trivial* in the sense of the paper's
/// `memref.subview.constr` IRDL constraint: all offsets are zero, all
/// strides are one (so the view is a plain prefix window needing no address
/// arithmetic beyond the base pointer).
pub fn is_trivial_subview(ctx: &Context, op: OpId) -> bool {
    let Some((offsets, _sizes, strides)) = static_triple(ctx, op) else {
        return false;
    };
    offsets.iter().all(|&o| o == 0) && strides.iter().all(|&s| s == 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_ir::print_type;
    use td_ir::verify::verify;

    fn ctx() -> Context {
        let mut ctx = Context::new();
        crate::builtin::register(&mut ctx);
        crate::arith::register(&mut ctx);
        register(&mut ctx);
        ctx
    }

    #[test]
    fn identity_strides_materialize() {
        let mut ctx = ctx();
        let f32t = ctx.f32_type();
        let ty = memref_type(&mut ctx, &[4, 6], f32t);
        let (shape, element, offset, strides) = memref_info(&ctx, ty).unwrap();
        assert_eq!(shape, vec![Extent::Static(4), Extent::Static(6)]);
        assert_eq!(element, f32t);
        assert_eq!(offset, Extent::Static(0));
        assert_eq!(strides, vec![Extent::Static(6), Extent::Static(1)]);
    }

    #[test]
    fn subview_type_static_offsets() {
        let mut ctx = ctx();
        let f32t = ctx.f32_type();
        let src = memref_type(&mut ctx, &[16, 16], f32t);
        let result = subview_result_type(&mut ctx, src, &[2, 3], &[4, 4], &[1, 1]).unwrap();
        assert_eq!(
            print_type(&ctx, result),
            "memref<4x4xf32, strided<[16, 1], offset: 35>>"
        );
    }

    #[test]
    fn subview_type_dynamic_offset() {
        let mut ctx = ctx();
        let f32t = ctx.f32_type();
        let src = memref_type(&mut ctx, &[16, 16], f32t);
        let result = subview_result_type(&mut ctx, src, &[DYNAMIC, 0], &[4, 4], &[1, 1]).unwrap();
        assert_eq!(
            print_type(&ctx, result),
            "memref<4x4xf32, strided<[16, 1], offset: ?>>"
        );
    }

    #[test]
    fn build_subview_verifies() {
        let mut ctx = ctx();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let f32t = ctx.f32_type();
        let src_ty = memref_type(&mut ctx, &[16, 16], f32t);
        let alloc = ctx.create_op(
            Location::unknown(),
            "memref.alloc",
            vec![],
            [src_ty],
            vec![],
            0,
        );
        ctx.append_op(body, alloc);
        let src = ctx.op(alloc).results()[0];
        let sv = build_subview(
            &mut ctx,
            body,
            src,
            &[0, 0],
            &[4, 4],
            &[1, 1],
            vec![],
            Location::unknown(),
        )
        .unwrap();
        assert!(verify(&ctx, module).is_ok(), "{:?}", verify(&ctx, module));
        assert!(is_trivial_subview(&ctx, sv));
    }

    #[test]
    fn dynamic_subview_requires_operand() {
        let mut ctx = ctx();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let f32t = ctx.f32_type();
        let src_ty = memref_type(&mut ctx, &[16, 16], f32t);
        let alloc = ctx.create_op(
            Location::unknown(),
            "memref.alloc",
            vec![],
            [src_ty],
            vec![],
            0,
        );
        ctx.append_op(body, alloc);
        let src = ctx.op(alloc).results()[0];
        // DYNAMIC offset but no operand: must fail verification.
        let result_ty =
            subview_result_type(&mut ctx, src_ty, &[DYNAMIC, 0], &[4, 4], &[1, 1]).unwrap();
        let bad = ctx.create_op(
            Location::unknown(),
            "memref.subview",
            [src],
            [result_ty],
            vec![
                (
                    Symbol::new("static_offsets"),
                    Attribute::int_array([DYNAMIC, 0]),
                ),
                (Symbol::new("static_sizes"), Attribute::int_array([4, 4])),
                (Symbol::new("static_strides"), Attribute::int_array([1, 1])),
            ],
            0,
        );
        ctx.append_op(body, bad);
        let errs = verify(&ctx, module).unwrap_err();
        assert!(errs.iter().any(|e| e.message().contains("per dynamic")));
    }

    #[test]
    fn load_store_shape_checks() {
        let mut ctx = ctx();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let f32t = ctx.f32_type();
        let mt = memref_type(&mut ctx, &[8], f32t);
        let alloc = ctx.create_op(Location::unknown(), "memref.alloc", vec![], [mt], vec![], 0);
        ctx.append_op(body, alloc);
        let m = ctx.op(alloc).results()[0];
        // Missing index.
        let bad = ctx.create_op(Location::unknown(), "memref.load", [m], [f32t], vec![], 0);
        ctx.append_op(body, bad);
        let errs = verify(&ctx, module).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message().contains("one index per memref dimension")));
    }
}
