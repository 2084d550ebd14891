//! The `linalg` dialect (subset): named structured operations.
//!
//! Ops exist in two forms, as in MLIR: on tensors (pure, one result) before
//! bufferization, and on memrefs (destination-passing, no results) after.

use td_ir::{Context, OpId, OpSpec, TypeKind};
use td_support::Diagnostic;

/// Named linalg ops registered by this module.
pub const LINALG_OPS: &[&str] = &[
    "linalg.matmul",
    "linalg.batch_matmul",
    "linalg.conv2d",
    "linalg.depthwise_conv2d",
    "linalg.add",
    "linalg.sub",
    "linalg.mul",
    "linalg.map",
    "linalg.fill",
    "linalg.copy",
    "linalg.transpose",
    "linalg.reduce",
    "linalg.pooling_max",
    "linalg.pooling_avg",
];

/// Registers the linalg dialect.
pub fn register(ctx: &mut Context) {
    ctx.registry.note_dialect("linalg");
    for &name in LINALG_OPS {
        ctx.registry
            .register(OpSpec::new(name, "structured operation").with_verify(verify_structured));
    }
}

fn verify_structured(ctx: &Context, op: OpId) -> Result<(), Diagnostic> {
    let data = ctx.op(op);
    let on_tensors = data
        .operands()
        .iter()
        .all(|&v| matches!(ctx.type_kind(ctx.value_type(v)), TypeKind::Tensor { .. }));
    let on_memrefs = data
        .operands()
        .iter()
        .all(|&v| matches!(ctx.type_kind(ctx.value_type(v)), TypeKind::MemRef { .. }));
    if !on_tensors && !on_memrefs {
        return Err(Diagnostic::error(
            data.location.clone(),
            format!("'{}' op must be all-tensor or all-memref", data.name),
        ));
    }
    if on_tensors && data.results().len() != 1 {
        return Err(Diagnostic::error(
            data.location.clone(),
            format!("'{}' op on tensors expects exactly one result", data.name),
        ));
    }
    if on_memrefs && !data.results().is_empty() {
        return Err(Diagnostic::error(
            data.location.clone(),
            format!("'{}' op on memrefs must have no results", data.name),
        ));
    }
    Ok(())
}

/// Whether `op` is a linalg structured op in memref (bufferized) form.
pub fn is_bufferized(ctx: &Context, op: OpId) -> bool {
    ctx.op(op).name.as_str().starts_with("linalg.")
        && ctx
            .op(op)
            .operands()
            .iter()
            .all(|&v| matches!(ctx.type_kind(ctx.value_type(v)), TypeKind::MemRef { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memref::memref_type;
    use crate::tosa::tensor_type;
    use td_ir::verify::verify;
    use td_support::Location;

    fn ctx() -> Context {
        let mut ctx = Context::new();
        crate::builtin::register(&mut ctx);
        register(&mut ctx);
        ctx
    }

    #[test]
    fn tensor_form_verifies() {
        let mut ctx = ctx();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let f32t = ctx.f32_type();
        let t = tensor_type(&mut ctx, &[4, 4], f32t);
        let a = ctx.create_op(Location::unknown(), "test.src", vec![], [t], vec![], 0);
        ctx.append_op(body, a);
        let v = ctx.op(a).results()[0];
        let mm = ctx.create_op(
            Location::unknown(),
            "linalg.matmul",
            [v, v, v],
            [t],
            vec![],
            0,
        );
        ctx.append_op(body, mm);
        assert!(verify(&ctx, module).is_ok());
        assert!(!is_bufferized(&ctx, mm));
    }

    #[test]
    fn memref_form_verifies() {
        let mut ctx = ctx();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let f32t = ctx.f32_type();
        let mt = memref_type(&mut ctx, &[4, 4], f32t);
        let a = ctx.create_op(Location::unknown(), "memref.alloc", vec![], [mt], vec![], 0);
        ctx.append_op(body, a);
        let v = ctx.op(a).results()[0];
        let mm = ctx.create_op(
            Location::unknown(),
            "linalg.matmul",
            [v, v, v],
            vec![],
            vec![],
            0,
        );
        ctx.append_op(body, mm);
        assert!(verify(&ctx, module).is_ok());
        assert!(is_bufferized(&ctx, mm));
    }

    #[test]
    fn mixed_form_rejected() {
        let mut ctx = ctx();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let f32t = ctx.f32_type();
        let t = tensor_type(&mut ctx, &[4, 4], f32t);
        let mt = memref_type(&mut ctx, &[4, 4], f32t);
        let a = ctx.create_op(Location::unknown(), "test.src", vec![], [t], vec![], 0);
        let b = ctx.create_op(Location::unknown(), "memref.alloc", vec![], [mt], vec![], 0);
        ctx.append_op(body, a);
        ctx.append_op(body, b);
        let va = ctx.op(a).results()[0];
        let vb = ctx.op(b).results()[0];
        let bad = ctx.create_op(
            Location::unknown(),
            "linalg.matmul",
            [va, vb, vb],
            vec![],
            vec![],
            0,
        );
        ctx.append_op(body, bad);
        assert!(verify(&ctx, module).is_err());
    }
}
