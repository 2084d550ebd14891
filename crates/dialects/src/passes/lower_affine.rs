//! `lower-affine`: expands `affine.apply` and `affine.min` into `arith`
//! operations on `index` values.
//!
//! Pre-condition: `{affine.*}` — post-condition:
//! `{arith.{constant, muli, addi, minsi}}`.

use crate::affine;
use td_ir::{Context, OpBuilder, OpId, OperandList, Pass, ValueId};
use td_support::Diagnostic;

/// The `lower-affine` pass.
#[derive(Debug, Default)]
pub struct LowerAffinePass;

impl Pass for LowerAffinePass {
    fn name(&self) -> &str {
        "lower-affine"
    }

    fn run(&self, ctx: &mut Context, target: OpId) -> Result<(), Diagnostic> {
        let ops: Vec<OpId> = ctx
            .walk_nested(target)
            .into_iter()
            .filter(|&op| matches!(ctx.op(op).name.as_str(), "affine.apply" | "affine.min"))
            .collect();
        for op in ops {
            match ctx.op(op).name.as_str() {
                "affine.apply" => lower_apply(ctx, op)?,
                "affine.min" => lower_min(ctx, op)?,
                _ => unreachable!(),
            }
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

/// Emits `sum(c_i * operand_i) + constant` right before `anchor` and returns
/// the resulting index value.
fn emit_map(ctx: &mut Context, anchor: OpId, map: &[i64], operands: &[ValueId]) -> ValueId {
    let index = ctx.index_type();
    let mut b = OpBuilder::before(ctx, anchor);
    let mut acc = b.const_int(*map.last().expect("map has a constant"), index);
    for (&coefficient, &operand) in map.iter().zip(operands.iter()) {
        if coefficient == 0 {
            continue;
        }
        let term = if coefficient == 1 {
            operand
        } else {
            let c = b.const_int(coefficient, index);
            let mul = b
                .op("arith.muli")
                .operands([c, operand])
                .results(vec![index])
                .build();
            b.ctx().op(mul).results()[0]
        };
        let add = b
            .op("arith.addi")
            .operands([acc, term])
            .results(vec![index])
            .build();
        acc = b.ctx().op(add).results()[0];
    }
    acc
}

fn lower_apply(ctx: &mut Context, op: OpId) -> Result<(), Diagnostic> {
    let map = affine::apply_map(ctx, op).ok_or_else(|| err(ctx, op, "is missing its map"))?;
    let operands = OperandList::from_slice(ctx.op(op).operands());
    let value = emit_map(ctx, op, &map, &operands);
    let result = ctx.op(op).results()[0];
    ctx.replace_all_uses(result, value);
    ctx.erase_op(op);
    Ok(())
}

fn lower_min(ctx: &mut Context, op: OpId) -> Result<(), Diagnostic> {
    let maps = affine::min_maps(ctx, op).ok_or_else(|| err(ctx, op, "is missing its maps"))?;
    let operands = OperandList::from_slice(ctx.op(op).operands());
    let index = ctx.index_type();
    let mut acc: Option<ValueId> = None;
    for map in &maps {
        let value = emit_map(ctx, op, map, &operands);
        acc = Some(match acc {
            None => value,
            Some(current) => {
                let mut b = OpBuilder::before(ctx, op);
                let min = b
                    .op("arith.minsi")
                    .operands([current, value])
                    .results(vec![index])
                    .build();
                b.ctx().op(min).results()[0]
            }
        });
    }
    let value = acc.ok_or_else(|| err(ctx, op, "has no maps"))?;
    let result = ctx.op(op).results()[0];
    ctx.replace_all_uses(result, value);
    ctx.erase_op(op);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::canonicalize::CanonicalizePass;
    use td_ir::parse_module;
    use td_ir::verify::verify;

    #[test]
    fn lowers_apply_to_arith() {
        let mut ctx = Context::new();
        crate::register_all_dialects(&mut ctx);
        let m = parse_module(
            &mut ctx,
            r#"module {
  %x = "test.source"() : () -> index
  %y = "affine.apply"(%x) {map = [16, 3]} : (index) -> index
  "test.use"(%y) : (index) -> ()
}"#,
        )
        .unwrap();
        LowerAffinePass.run(&mut ctx, m).unwrap();
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(!names.contains(&"affine.apply"), "{names:?}");
        assert!(names.contains(&"arith.muli"));
        assert!(names.contains(&"arith.addi"));
        assert!(verify(&ctx, m).is_ok(), "{:?}", verify(&ctx, m));
    }

    #[test]
    fn lowered_apply_folds_for_constant_input() {
        let mut ctx = Context::new();
        crate::register_all_dialects(&mut ctx);
        let m = parse_module(
            &mut ctx,
            r#"module {
  %x = arith.constant 2 : index
  %y = "affine.apply"(%x) {map = [16, 3]} : (index) -> index
  "test.use"(%y) : (index) -> ()
}"#,
        )
        .unwrap();
        LowerAffinePass.run(&mut ctx, m).unwrap();
        CanonicalizePass.run(&mut ctx, m).unwrap();
        let use_op = ctx
            .walk_nested(m)
            .into_iter()
            .find(|&o| ctx.op(o).name.as_str() == "test.use")
            .unwrap();
        let v = ctx.op(use_op).operands()[0];
        assert_eq!(crate::arith::constant_int_value(&ctx, v), Some(35));
    }

    #[test]
    fn lowers_min_to_minsi() {
        let mut ctx = Context::new();
        crate::register_all_dialects(&mut ctx);
        let m = parse_module(
            &mut ctx,
            r#"module {
  %x = "test.source"() : () -> index
  %y = "affine.min"(%x) {maps = [[1, 0], [0, 32]]} : (index) -> index
  "test.use"(%y) : (index) -> ()
}"#,
        )
        .unwrap();
        LowerAffinePass.run(&mut ctx, m).unwrap();
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(!names.contains(&"affine.min"));
        assert!(names.contains(&"arith.minsi"));
        assert!(verify(&ctx, m).is_ok());
    }
}
