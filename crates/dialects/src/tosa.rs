//! The `tosa` dialect (subset): tensor-level operations used to represent
//! whole machine-learning models (Case Study 1 / Table 1).
//!
//! All tosa ops here operate on `tensor` types and are pure. Shapes are
//! carried in the result types; `tosa.const` carries data (or a `splat`
//! marker) in attributes.

use td_ir::{Attribute, Context, Extent, OpId, OpSpec, OpTraits, TypeId, TypeKind};
use td_support::Diagnostic;

/// The tosa op names registered by this module (useful for modelgen and for
/// pre/post-condition sets).
pub const TOSA_OPS: &[&str] = &[
    "tosa.const",
    "tosa.add",
    "tosa.sub",
    "tosa.mul",
    "tosa.matmul",
    "tosa.conv2d",
    "tosa.depthwise_conv2d",
    "tosa.fully_connected",
    "tosa.reshape",
    "tosa.transpose",
    "tosa.pad",
    "tosa.reduce_sum",
    "tosa.reduce_max",
    "tosa.clamp",
    "tosa.rescale",
    "tosa.sigmoid",
    "tosa.tanh",
    "tosa.exp",
    "tosa.reciprocal",
    "tosa.rsqrt",
    "tosa.gather",
    "tosa.concat",
    "tosa.slice",
    "tosa.cast",
    "tosa.avg_pool2d",
    "tosa.max_pool2d",
];

/// Registers the tosa dialect.
pub fn register(ctx: &mut Context) {
    ctx.registry.note_dialect("tosa");
    for &name in TOSA_OPS {
        let spec = OpSpec::new(name, "tosa tensor operation")
            .with_traits(OpTraits::PURE)
            .with_verify(verify_tensor_op);
        ctx.registry.register(spec);
    }
}

fn verify_tensor_op(ctx: &Context, op: OpId) -> Result<(), Diagnostic> {
    let data = ctx.op(op);
    for &v in data.operands().iter().chain(data.results()) {
        if !matches!(ctx.type_kind(ctx.value_type(v)), TypeKind::Tensor { .. }) {
            return Err(Diagnostic::error(
                data.location.clone(),
                format!("'{}' op operates on tensor types only", data.name),
            ));
        }
    }
    if data.results().len() != 1 {
        return Err(Diagnostic::error(
            data.location.clone(),
            format!("'{}' op expects exactly one result", data.name),
        ));
    }
    Ok(())
}

/// Convenience constructor for a static-shaped tensor type.
pub fn tensor_type(ctx: &mut Context, shape: &[i64], element: TypeId) -> TypeId {
    ctx.intern_type(TypeKind::Tensor {
        shape: shape.iter().map(|&d| Extent::Static(d)).collect(),
        element,
    })
}

/// The static shape of a tensor-typed value, if fully static.
pub fn static_shape(ctx: &Context, ty: TypeId) -> Option<Vec<i64>> {
    let TypeKind::Tensor { shape, .. } = ctx.type_kind(ty) else {
        return None;
    };
    shape.iter().map(|e| e.as_static()).collect()
}

/// Whether a `tosa.const` is a zero splat (used by the work-reduction
/// pattern "add of zero-pad folds away", Case Study 3).
pub fn is_zero_const(ctx: &Context, op: OpId) -> bool {
    if ctx.op(op).name.as_str() != "tosa.const" {
        return false;
    }
    match ctx.op(op).attr("splat") {
        Some(Attribute::Float(f)) => f.value() == 0.0,
        Some(Attribute::Int(v)) => *v == 0,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_ir::verify::verify;
    use td_support::{Location, Symbol};

    fn ctx() -> Context {
        let mut ctx = Context::new();
        crate::builtin::register(&mut ctx);
        register(&mut ctx);
        ctx
    }

    #[test]
    fn tensor_ops_verify() {
        let mut ctx = ctx();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let f32t = ctx.f32_type();
        let t = tensor_type(&mut ctx, &[2, 3], f32t);
        let c = ctx.create_op(
            Location::unknown(),
            "tosa.const",
            vec![],
            [t],
            vec![(Symbol::new("splat"), Attribute::float(0.0))],
            0,
        );
        ctx.append_op(body, c);
        let v = ctx.op(c).results()[0];
        let add = ctx.create_op(Location::unknown(), "tosa.add", [v, v], [t], vec![], 0);
        ctx.append_op(body, add);
        assert!(verify(&ctx, module).is_ok());
        assert!(is_zero_const(&ctx, c));
    }

    #[test]
    fn non_tensor_operand_rejected() {
        let mut ctx = ctx();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let f32t = ctx.f32_type();
        let t = tensor_type(&mut ctx, &[2], f32t);
        let scalar = ctx.create_op(
            Location::unknown(),
            "test.scalar",
            vec![],
            [f32t],
            vec![],
            0,
        );
        ctx.append_op(body, scalar);
        let v = ctx.op(scalar).results()[0];
        let bad = ctx.create_op(Location::unknown(), "tosa.add", [v, v], [t], vec![], 0);
        ctx.append_op(body, bad);
        assert!(verify(&ctx, module).is_err());
    }

    #[test]
    fn static_shape_extraction() {
        let mut ctx = ctx();
        let f32t = ctx.f32_type();
        let t = tensor_type(&mut ctx, &[4, 8], f32t);
        assert_eq!(static_shape(&ctx, t), Some(vec![4, 8]));
        let dynamic = ctx.intern_type(TypeKind::Tensor {
            shape: vec![Extent::Dynamic, Extent::Static(8)],
            element: f32t,
        });
        assert_eq!(static_shape(&ctx, dynamic), None);
    }
}
