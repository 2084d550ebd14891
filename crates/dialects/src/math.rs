//! The `math` dialect (subset): transcendental scalar functions that
//! elementwise tensor ops lower to.

use td_ir::{Context, OpId, OpSpec, OpTraits};
use td_support::Diagnostic;

/// Registered math ops.
pub const MATH_OPS: &[&str] = &[
    "math.exp",
    "math.tanh",
    "math.sqrt",
    "math.rsqrt",
    "math.sigmoid",
    "math.absf",
];

/// Registers the math dialect.
pub fn register(ctx: &mut Context) {
    ctx.registry.note_dialect("math");
    for &name in MATH_OPS {
        ctx.registry.register(
            OpSpec::new(name, "scalar math function")
                .with_traits(OpTraits::PURE)
                .with_verify(verify_unary),
        );
    }
}

fn verify_unary(ctx: &Context, op: OpId) -> Result<(), Diagnostic> {
    let data = ctx.op(op);
    if data.operands().len() != 1 || data.results().len() != 1 {
        return Err(Diagnostic::error(
            data.location.clone(),
            format!("'{}' op expects one operand and one result", data.name),
        ));
    }
    if ctx.value_type(data.operands()[0]) != ctx.value_type(data.results()[0]) {
        return Err(Diagnostic::error(
            data.location.clone(),
            format!("'{}' op operand and result types must match", data.name),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_ir::verify::verify;
    use td_support::Location;

    #[test]
    fn unary_shape_enforced() {
        let mut ctx = Context::new();
        crate::builtin::register(&mut ctx);
        register(&mut ctx);
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let f32t = ctx.f32_type();
        let src = ctx.create_op(Location::unknown(), "test.src", vec![], [f32t], vec![], 0);
        ctx.append_op(body, src);
        let v = ctx.op(src).results()[0];
        let e = ctx.create_op(Location::unknown(), "math.exp", [v], [f32t], vec![], 0);
        ctx.append_op(body, e);
        assert!(verify(&ctx, module).is_ok());
        let f64t = ctx.f64_type();
        let bad = ctx.create_op(Location::unknown(), "math.exp", [v], [f64t], vec![], 0);
        ctx.append_op(body, bad);
        assert!(verify(&ctx, module).is_err());
    }
}
