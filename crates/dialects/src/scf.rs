//! The `scf` dialect: structured control flow (`scf.for`, `scf.forall`,
//! `scf.if`, `scf.yield`, `scf.execute_region`).
//!
//! Loops in this dialect are the targets of the Transform dialect's loop
//! transforms (`loop.tile`, `loop.split`, `loop.unroll`, …).

use td_ir::{BlockId, Context, OpId, OpSpec, OpTraits, TypeKind, ValueId};
use td_support::{Diagnostic, Location};

/// Registers the scf dialect.
pub fn register(ctx: &mut Context) {
    ctx.registry.note_dialect("scf");
    ctx.registry
        .register(OpSpec::new("scf.for", "counted loop").with_verify(verify_for));
    ctx.registry
        .register(OpSpec::new("scf.forall", "parallel counted loop").with_verify(verify_for));
    ctx.registry
        .register(OpSpec::new("scf.if", "conditional").with_verify(verify_if));
    ctx.registry
        .register(OpSpec::new("scf.yield", "region terminator").with_traits(OpTraits::TERMINATOR));
    ctx.registry
        .register(OpSpec::new("scf.execute_region", "inline region"));
}

fn err(ctx: &Context, op: OpId, message: &str) -> Diagnostic {
    Diagnostic::error(
        ctx.op(op).location.clone(),
        format!("'{}' op {message}", ctx.op(op).name),
    )
}

fn verify_for(ctx: &Context, op: OpId) -> Result<(), Diagnostic> {
    let data = ctx.op(op);
    if data.operands().len() != 3 {
        return Err(err(
            ctx,
            op,
            "expects (lower bound, upper bound, step) operands",
        ));
    }
    for &operand in data.operands() {
        if !matches!(ctx.type_kind(ctx.value_type(operand)), TypeKind::Index) {
            return Err(err(ctx, op, "bounds and step must have index type"));
        }
    }
    if data.regions().len() != 1 {
        return Err(err(ctx, op, "expects exactly one region"));
    }
    let region = data.regions()[0];
    let blocks = ctx.region(region).blocks();
    if blocks.len() != 1 {
        return Err(err(ctx, op, "body must be a single block"));
    }
    let entry = blocks[0];
    let args = ctx.block(entry).args();
    if args.len() != 1 || !matches!(ctx.type_kind(ctx.value_type(args[0])), TypeKind::Index) {
        return Err(err(
            ctx,
            op,
            "body must have a single index-typed induction variable",
        ));
    }
    Ok(())
}

fn verify_if(ctx: &Context, op: OpId) -> Result<(), Diagnostic> {
    let data = ctx.op(op);
    if data.operands().len() != 1 {
        return Err(err(ctx, op, "expects a single condition operand"));
    }
    if !matches!(
        ctx.type_kind(ctx.value_type(data.operands()[0])),
        TypeKind::Integer(1)
    ) {
        return Err(err(ctx, op, "condition must be i1"));
    }
    if data.regions().is_empty() || data.regions().len() > 2 {
        return Err(err(
            ctx,
            op,
            "expects a 'then' region and an optional 'else' region",
        ));
    }
    Ok(())
}

/// Structured view of an `scf.for` (or `scf.forall`).
#[derive(Clone, Copy, Debug)]
pub struct ForOp {
    /// The loop operation.
    pub op: OpId,
    /// Lower bound (index).
    pub lower: ValueId,
    /// Upper bound (index).
    pub upper: ValueId,
    /// Step (index).
    pub step: ValueId,
    /// Body block.
    pub body: BlockId,
    /// Induction variable (body block argument).
    pub induction_var: ValueId,
}

/// Interprets `op` as an `scf.for`/`scf.forall`, if it is one.
pub fn as_for(ctx: &Context, op: OpId) -> Option<ForOp> {
    let name = ctx.op(op).name.as_str();
    if name != "scf.for" && name != "scf.forall" {
        return None;
    }
    let operands = ctx.op(op).operands();
    if operands.len() != 3 || ctx.op(op).regions().len() != 1 {
        return None;
    }
    let region = ctx.op(op).regions()[0];
    let &body = ctx.region(region).blocks().first()?;
    let &induction_var = ctx.block(body).args().first()?;
    Some(ForOp {
        op,
        lower: operands[0],
        upper: operands[1],
        step: operands[2],
        body,
        induction_var,
    })
}

/// Creates an (empty) `scf.for %iv = lower to upper step step` at the end of
/// `block`, returning its structured view. The body is terminated by
/// `scf.yield`.
pub fn build_for(
    ctx: &mut Context,
    block: BlockId,
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
    ctx.append_op(block, op);
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

/// The static trip count of a loop with constant bounds and step, if known.
pub fn static_trip_count(ctx: &Context, for_op: ForOp) -> Option<i64> {
    let lower = crate::arith::constant_int_value(ctx, for_op.lower)?;
    let upper = crate::arith::constant_int_value(ctx, for_op.upper)?;
    let step = crate::arith::constant_int_value(ctx, for_op.step)?;
    if step <= 0 {
        return None;
    }
    Some(((upper - lower) + step - 1).div_euclid(step).max(0))
}

/// Returns the ops of the loop body excluding the terminating `scf.yield`.
pub fn body_ops(ctx: &Context, for_op: ForOp) -> Vec<OpId> {
    let mut out: Vec<OpId> = ctx.block_ops(for_op.body).collect();
    if let Some(&last) = out.last() {
        if ctx.op(last).name.as_str() == "scf.yield" {
            out.pop();
        }
    }
    out
}

/// Collects all `scf.for` loops nested under `root` (preorder).
pub fn collect_loops(ctx: &Context, root: OpId) -> Vec<OpId> {
    ctx.walk_nested(root)
        .into_iter()
        .filter(|&op| ctx.op(op).name.as_str() == "scf.for")
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_ir::verify::verify;
    use td_ir::{parse_module, OpBuilder};

    fn ctx() -> Context {
        let mut ctx = Context::new();
        crate::builtin::register(&mut ctx);
        crate::arith::register(&mut ctx);
        crate::func::register(&mut ctx);
        register(&mut ctx);
        ctx
    }

    #[test]
    fn build_for_is_well_formed() {
        let mut ctx = ctx();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let (lo, hi, st) = {
            let mut b = OpBuilder::at_end(&mut ctx, body);
            (b.const_index(0), b.const_index(10), b.const_index(1))
        };
        let f = build_for(&mut ctx, body, lo, hi, st);
        assert!(verify(&ctx, module).is_ok(), "{:?}", verify(&ctx, module));
        assert_eq!(static_trip_count(&ctx, f), Some(10));
        assert!(body_ops(&ctx, f).is_empty(), "yield is excluded");
    }

    #[test]
    fn trip_count_rounds_up() {
        let mut ctx = ctx();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let (lo, hi, st) = {
            let mut b = OpBuilder::at_end(&mut ctx, body);
            (b.const_index(0), b.const_index(10), b.const_index(3))
        };
        let f = build_for(&mut ctx, body, lo, hi, st);
        assert_eq!(static_trip_count(&ctx, f), Some(4)); // 0,3,6,9
    }

    #[test]
    fn as_for_parses_textual_loops() {
        let mut ctx = ctx();
        let m = parse_module(
            &mut ctx,
            r#"module {
  %lo = arith.constant 0 : index
  %hi = arith.constant 8 : index
  %st = arith.constant 2 : index
  scf.for %i = %lo to %hi step %st {
    "test.body"(%i) : (index) -> ()
  }
}"#,
        )
        .unwrap();
        let loops = collect_loops(&ctx, m);
        assert_eq!(loops.len(), 1);
        let f = as_for(&ctx, loops[0]).unwrap();
        assert_eq!(static_trip_count(&ctx, f), Some(4));
        assert_eq!(body_ops(&ctx, f).len(), 1);
    }

    #[test]
    fn non_index_bounds_rejected() {
        let mut ctx = ctx();
        let m = parse_module(
            &mut ctx,
            r#"module {
  %lo = arith.constant 0 : i32
  "scf.for"(%lo, %lo, %lo) ({
  ^body(%i: index):
    "scf.yield"() : () -> ()
  }) : (i32, i32, i32) -> ()
}"#,
        )
        .unwrap();
        let errs = verify(&ctx, m).unwrap_err();
        assert!(errs.iter().any(|e| e.message().contains("index type")));
    }

    #[test]
    fn collect_loops_finds_nested() {
        let mut ctx = ctx();
        let m = parse_module(
            &mut ctx,
            r#"module {
  %lo = arith.constant 0 : index
  %hi = arith.constant 4 : index
  %st = arith.constant 1 : index
  scf.for %i = %lo to %hi step %st {
    scf.for %j = %lo to %hi step %st {
      "test.body"(%i, %j) : (index, index) -> ()
    }
  }
}"#,
        )
        .unwrap();
        assert_eq!(collect_loops(&ctx, m).len(), 2);
    }
}
