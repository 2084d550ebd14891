//! The `builtin` dialect: `builtin.module` and
//! `builtin.unrealized_conversion_cast`.

use td_ir::{Context, OpId, OpSpec, OpTraits, TypeId, ValueId};
use td_support::{Diagnostic, Location};

/// Name of the unrealized conversion cast operation.
pub const UNREALIZED_CAST: &str = "builtin.unrealized_conversion_cast";

/// Registers the builtin dialect.
pub fn register(ctx: &mut Context) {
    ctx.registry.note_dialect("builtin");
    ctx.registry.register(
        OpSpec::new("builtin.module", "top-level container")
            .with_traits(OpTraits::NO_TERMINATOR | OpTraits::SYMBOL_TABLE)
            .with_verify(verify_module),
    );
    ctx.registry.register(
        OpSpec::new(
            UNREALIZED_CAST,
            "temporary cast between unreconciled type systems",
        )
        .with_traits(OpTraits::PURE)
        .with_verify(verify_cast),
    );
}

fn verify_module(ctx: &Context, op: OpId) -> Result<(), Diagnostic> {
    let data = ctx.op(op);
    if data.regions().len() != 1 {
        return Err(Diagnostic::error(
            data.location.clone(),
            "'builtin.module' op expects exactly one region",
        ));
    }
    if !data.operands().is_empty() || !data.results().is_empty() {
        return Err(Diagnostic::error(
            data.location.clone(),
            "'builtin.module' op takes no operands and produces no results",
        ));
    }
    Ok(())
}

fn verify_cast(ctx: &Context, op: OpId) -> Result<(), Diagnostic> {
    let data = ctx.op(op);
    if data.operands().len() != 1 || data.results().len() != 1 {
        return Err(Diagnostic::error(
            data.location.clone(),
            format!("'{UNREALIZED_CAST}' op expects one operand and one result"),
        ));
    }
    Ok(())
}

/// Creates an unrealized conversion cast `value : -> to_type` immediately
/// before `anchor`, returning the cast result.
pub fn cast_before(ctx: &mut Context, anchor: OpId, value: ValueId, to_type: TypeId) -> ValueId {
    let cast = ctx.create_op(
        Location::name("materialized-cast"),
        UNREALIZED_CAST,
        [value],
        [to_type],
        vec![],
        0,
    );
    ctx.insert_op_before(anchor, cast);
    ctx.op(cast).results()[0]
}

/// Creates an unrealized conversion cast right after `anchor`.
pub fn cast_after(ctx: &mut Context, anchor: OpId, value: ValueId, to_type: TypeId) -> ValueId {
    let cast = ctx.create_op(
        Location::name("materialized-cast"),
        UNREALIZED_CAST,
        [value],
        [to_type],
        vec![],
        0,
    );
    ctx.insert_op_after(anchor, cast);
    ctx.op(cast).results()[0]
}

/// Finds an attribute of the module by walking up from any op.
pub fn enclosing_module(ctx: &Context, op: OpId) -> Option<OpId> {
    if ctx.op(op).name.as_str() == "builtin.module" {
        return Some(op);
    }
    ctx.ancestors(op)
        .into_iter()
        .find(|&a| ctx.op(a).name.as_str() == "builtin.module")
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_ir::verify::verify;

    #[test]
    fn module_verifies() {
        let mut ctx = Context::new();
        register(&mut ctx);
        let module = ctx.create_module(Location::unknown());
        assert!(verify(&ctx, module).is_ok());
    }

    #[test]
    fn cast_helpers_insert_adjacent() {
        let mut ctx = Context::new();
        register(&mut ctx);
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let i64t = ctx.i64_type();
        let index = ctx.index_type();
        let c = ctx.create_op(
            Location::unknown(),
            "arith.constant",
            vec![],
            [index],
            vec![],
            0,
        );
        ctx.append_op(body, c);
        let v = ctx.op(c).results()[0];
        let casted = cast_after(&mut ctx, c, v, i64t);
        assert_eq!(ctx.value_type(casted), i64t);
        let ops: Vec<_> = ctx.block_ops(body).collect();
        assert_eq!(ops.len(), 2);
        assert_eq!(ctx.op(ops[1]).name.as_str(), UNREALIZED_CAST);
        let back = cast_before(&mut ctx, c, casted, index);
        // Insertion before `c` — order: cast(before), c, cast(after).
        assert_eq!(ctx.block(body).len(), 3);
        assert_eq!(ctx.value_type(back), index);
    }

    #[test]
    fn enclosing_module_walks_up() {
        let mut ctx = Context::new();
        register(&mut ctx);
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let f = ctx.create_op(Location::unknown(), "func.func", vec![], vec![], vec![], 1);
        ctx.append_op(body, f);
        let region = ctx.op(f).regions()[0];
        let fb = ctx.append_block(region, &[]);
        let inner = ctx.create_op(Location::unknown(), "test.op", vec![], vec![], vec![], 0);
        ctx.append_op(fb, inner);
        assert_eq!(enclosing_module(&ctx, inner), Some(module));
        assert_eq!(enclosing_module(&ctx, module), Some(module));
    }

    #[test]
    fn module_with_result_fails_verification() {
        let mut ctx = Context::new();
        register(&mut ctx);
        let i32t = ctx.i32_type();
        let bad = ctx.create_op(
            Location::unknown(),
            "builtin.module",
            vec![],
            [i32t],
            vec![],
            1,
        );
        let region = ctx.op(bad).regions()[0];
        ctx.append_block(region, &[]);
        assert!(verify(&ctx, bad).is_err());
    }
}
