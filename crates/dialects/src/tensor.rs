//! The `tensor` dialect (subset): value-semantics tensor plumbing ops that
//! TOSA lowering produces (`tensor.empty`, `tensor.reshape`, `tensor.pad`,
//! `tensor.extract_slice`, `tensor.concat`, `tensor.cast`).

use td_ir::{Context, OpId, OpSpec, OpTraits, TypeKind};
use td_support::Diagnostic;

/// Registers the tensor dialect.
pub fn register(ctx: &mut Context) {
    ctx.registry.note_dialect("tensor");
    for (name, summary) in [
        ("tensor.empty", "uninitialized tensor"),
        ("tensor.reshape", "shape change"),
        ("tensor.pad", "padding"),
        ("tensor.extract_slice", "slice extraction"),
        ("tensor.concat", "concatenation"),
        ("tensor.gather", "gather"),
        ("tensor.cast", "shape cast"),
    ] {
        ctx.registry.register(
            OpSpec::new(name, summary)
                .with_traits(OpTraits::PURE)
                .with_verify(verify_tensor_results),
        );
    }
}

fn verify_tensor_results(ctx: &Context, op: OpId) -> Result<(), Diagnostic> {
    let data = ctx.op(op);
    if data.results().len() != 1
        || !matches!(
            ctx.type_kind(ctx.value_type(data.results()[0])),
            TypeKind::Tensor { .. }
        )
    {
        return Err(Diagnostic::error(
            data.location.clone(),
            format!("'{}' op expects a single tensor result", data.name),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tosa::tensor_type;
    use td_ir::verify::verify;
    use td_support::Location;

    #[test]
    fn empty_verifies() {
        let mut ctx = Context::new();
        crate::builtin::register(&mut ctx);
        register(&mut ctx);
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let f32t = ctx.f32_type();
        let t = tensor_type(&mut ctx, &[2, 2], f32t);
        let e = ctx.create_op(Location::unknown(), "tensor.empty", vec![], [t], vec![], 0);
        ctx.append_op(body, e);
        assert!(verify(&ctx, module).is_ok());
        let bad = ctx.create_op(
            Location::unknown(),
            "tensor.empty",
            vec![],
            [f32t],
            vec![],
            0,
        );
        ctx.append_op(body, bad);
        assert!(verify(&ctx, module).is_err());
    }
}
