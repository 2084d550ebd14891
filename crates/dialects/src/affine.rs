//! The `affine` dialect (subset): `affine.apply` and `affine.min`.
//!
//! Affine maps are represented as attribute arrays of integer coefficients:
//! a map over `n` operands is `[c0, c1, ..., c_{n-1}, constant]`, meaning
//! `sum(c_i * operand_i) + constant`. `affine.min` takes an array of such
//! maps and produces their minimum.
//!
//! These two ops are exactly what `expand-strided-metadata` introduces when
//! subview offsets are dynamic — the trigger of the Case Study 2 pipeline
//! failure.

use td_ir::{Attribute, BlockId, Context, OpId, OpSpec, OpTraits, TypeKind, ValueId};
use td_support::{Diagnostic, Location, Symbol};

/// Registers the affine dialect.
pub fn register(ctx: &mut Context) {
    ctx.registry.note_dialect("affine");
    ctx.registry.register(
        OpSpec::new("affine.apply", "evaluate an affine map")
            .with_traits(OpTraits::PURE)
            .with_verify(verify_apply),
    );
    ctx.registry.register(
        OpSpec::new("affine.min", "minimum over affine maps")
            .with_traits(OpTraits::PURE)
            .with_verify(verify_min),
    );
}

fn err(ctx: &Context, op: OpId, message: &str) -> Diagnostic {
    Diagnostic::error(
        ctx.op(op).location.clone(),
        format!("'{}' op {message}", ctx.op(op).name),
    )
}

/// Reads the coefficient vector of an `affine.apply`.
pub fn apply_map(ctx: &Context, op: OpId) -> Option<Vec<i64>> {
    ctx.op(op).attr("map")?.as_int_array()
}

/// Reads the maps of an `affine.min`.
pub fn min_maps(ctx: &Context, op: OpId) -> Option<Vec<Vec<i64>>> {
    ctx.op(op)
        .attr("maps")?
        .as_array()?
        .iter()
        .map(Attribute::as_int_array)
        .collect()
}

fn verify_map(ctx: &Context, op: OpId, map: &[i64]) -> Result<(), Diagnostic> {
    let data = ctx.op(op);
    if map.len() != data.operands().len() + 1 {
        return Err(err(
            ctx,
            op,
            "map must have one coefficient per operand plus a constant",
        ));
    }
    for &operand in data.operands() {
        if !matches!(ctx.type_kind(ctx.value_type(operand)), TypeKind::Index) {
            return Err(err(ctx, op, "operands must have index type"));
        }
    }
    if data.results().len() != 1
        || !matches!(
            ctx.type_kind(ctx.value_type(data.results()[0])),
            TypeKind::Index
        )
    {
        return Err(err(ctx, op, "expects a single index result"));
    }
    Ok(())
}

fn verify_apply(ctx: &Context, op: OpId) -> Result<(), Diagnostic> {
    let Some(map) = apply_map(ctx, op) else {
        return Err(err(ctx, op, "requires an integer-array 'map' attribute"));
    };
    verify_map(ctx, op, &map)
}

fn verify_min(ctx: &Context, op: OpId) -> Result<(), Diagnostic> {
    let Some(maps) = min_maps(ctx, op) else {
        return Err(err(ctx, op, "requires an array-of-arrays 'maps' attribute"));
    };
    if maps.is_empty() {
        return Err(err(ctx, op, "requires at least one map"));
    }
    for map in &maps {
        verify_map(ctx, op, map)?;
    }
    Ok(())
}

/// Builds `affine.apply` with coefficient vector `map` (length =
/// `operands.len() + 1`) at the end of `block`.
pub fn build_apply(ctx: &mut Context, block: BlockId, map: &[i64], operands: Vec<ValueId>) -> OpId {
    debug_assert_eq!(map.len(), operands.len() + 1);
    let index = ctx.index_type();
    let op = ctx.create_op(
        Location::name("affine.apply"),
        "affine.apply",
        operands,
        [index],
        vec![(
            Symbol::new("map"),
            Attribute::int_array(map.iter().copied()),
        )],
        0,
    );
    ctx.append_op(block, op);
    op
}

/// Evaluates an affine map over concrete operand values.
pub fn evaluate_map(map: &[i64], operands: &[i64]) -> i64 {
    debug_assert_eq!(map.len(), operands.len() + 1);
    let mut acc = *map.last().expect("map includes a constant");
    for (&c, &v) in map.iter().zip(operands.iter()) {
        acc += c * v;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_ir::verify::verify;
    use td_ir::OpBuilder;

    fn ctx() -> Context {
        let mut ctx = Context::new();
        crate::builtin::register(&mut ctx);
        crate::arith::register(&mut ctx);
        register(&mut ctx);
        ctx
    }

    #[test]
    fn evaluate_matches_definition() {
        assert_eq!(evaluate_map(&[2, 3, 5], &[10, 100]), 2 * 10 + 3 * 100 + 5);
        assert_eq!(evaluate_map(&[7], &[]), 7);
    }

    #[test]
    fn apply_verifies() {
        let mut ctx = ctx();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let v = {
            let mut b = OpBuilder::at_end(&mut ctx, body);
            b.const_index(3)
        };
        let apply = build_apply(&mut ctx, body, &[16, 0], vec![v]);
        assert!(verify(&ctx, module).is_ok(), "{:?}", verify(&ctx, module));
        assert_eq!(apply_map(&ctx, apply), Some(vec![16, 0]));
    }

    #[test]
    fn wrong_arity_rejected() {
        let mut ctx = ctx();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let index = ctx.index_type();
        let bad = ctx.create_op(
            Location::unknown(),
            "affine.apply",
            vec![],
            [index],
            vec![(Symbol::new("map"), Attribute::int_array([1, 2, 3]))],
            0,
        );
        ctx.append_op(body, bad);
        let errs = verify(&ctx, module).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message().contains("one coefficient per operand")));
    }

    #[test]
    fn min_requires_maps() {
        let mut ctx = ctx();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let index = ctx.index_type();
        let bad = ctx.create_op(
            Location::unknown(),
            "affine.min",
            vec![],
            [index],
            vec![],
            0,
        );
        ctx.append_op(body, bad);
        let errs = verify(&ctx, module).unwrap_err();
        assert!(errs.iter().any(|e| e.message().contains("maps")));
    }
}
