//! The `arith` dialect: integer/float arithmetic and comparisons.

use td_ir::{Attribute, Context, FoldResult, OpId, OpSpec, OpTraits, TypeKind};
use td_support::Diagnostic;

/// Comparison predicates for `arith.cmpi` (stored as a string attribute).
pub const CMP_PREDICATES: &[&str] = &["eq", "ne", "slt", "sle", "sgt", "sge"];

/// Registers the arith dialect.
pub fn register(ctx: &mut Context) {
    ctx.registry.note_dialect("arith");
    ctx.registry.register(
        OpSpec::new("arith.constant", "integer/float constant")
            .with_traits(OpTraits::PURE | OpTraits::CONSTANT_LIKE)
            .with_verify(verify_constant),
    );
    for (name, summary) in [
        ("arith.addi", "integer addition"),
        ("arith.muli", "integer multiplication"),
    ] {
        ctx.registry.register(
            OpSpec::new(name, summary)
                .with_traits(OpTraits::PURE | OpTraits::COMMUTATIVE)
                .with_verify(verify_binary_same_type)
                .with_fold(fold_int_binary),
        );
    }
    for (name, summary) in [
        ("arith.subi", "integer subtraction"),
        ("arith.divsi", "signed integer division"),
        ("arith.remsi", "signed integer remainder"),
        ("arith.minsi", "signed integer minimum"),
        ("arith.maxsi", "signed integer maximum"),
        ("arith.shli", "shift left"),
    ] {
        ctx.registry.register(
            OpSpec::new(name, summary)
                .with_traits(OpTraits::PURE)
                .with_verify(verify_binary_same_type)
                .with_fold(fold_int_binary),
        );
    }
    for (name, summary) in [
        ("arith.addf", "float addition"),
        ("arith.subf", "float subtraction"),
        ("arith.mulf", "float multiplication"),
        ("arith.divf", "float division"),
        ("arith.maximumf", "float maximum"),
    ] {
        ctx.registry.register(
            OpSpec::new(name, summary)
                .with_traits(OpTraits::PURE)
                .with_verify(verify_binary_same_type),
        );
    }
    ctx.registry.register(
        OpSpec::new("arith.cmpi", "integer comparison")
            .with_traits(OpTraits::PURE)
            .with_verify(verify_cmpi),
    );
    ctx.registry.register(
        OpSpec::new("arith.select", "value selection")
            .with_traits(OpTraits::PURE)
            .with_verify(verify_select),
    );
    ctx.registry.register(
        OpSpec::new("arith.index_cast", "cast between index and integer")
            .with_traits(OpTraits::PURE),
    );
}

fn verify_constant(ctx: &Context, op: OpId) -> Result<(), Diagnostic> {
    let data = ctx.op(op);
    if data.results().len() != 1 {
        return Err(err(ctx, op, "expects exactly one result"));
    }
    let value = data
        .attr("value")
        .ok_or_else(|| err(ctx, op, "requires a 'value' attribute"))?;
    let ty = ctx.value_type(data.results()[0]);
    let ok = match ctx.type_kind(ty) {
        TypeKind::Integer(_) | TypeKind::Index => {
            matches!(value, Attribute::Int(_) | Attribute::Bool(_))
        }
        TypeKind::F32 | TypeKind::F64 => matches!(value, Attribute::Float(_)),
        _ => true,
    };
    if !ok {
        return Err(err(
            ctx,
            op,
            "'value' attribute does not match the result type",
        ));
    }
    Ok(())
}

fn verify_binary_same_type(ctx: &Context, op: OpId) -> Result<(), Diagnostic> {
    let data = ctx.op(op);
    if data.operands().len() != 2 || data.results().len() != 1 {
        return Err(err(ctx, op, "expects two operands and one result"));
    }
    let lhs = ctx.value_type(data.operands()[0]);
    let rhs = ctx.value_type(data.operands()[1]);
    let res = ctx.value_type(data.results()[0]);
    if lhs != rhs || lhs != res {
        return Err(err(ctx, op, "operand and result types must match"));
    }
    Ok(())
}

fn verify_cmpi(ctx: &Context, op: OpId) -> Result<(), Diagnostic> {
    let data = ctx.op(op);
    if data.operands().len() != 2 || data.results().len() != 1 {
        return Err(err(ctx, op, "expects two operands and one result"));
    }
    match data.attr("predicate") {
        Some(Attribute::String(p)) if CMP_PREDICATES.contains(&p.as_str()) => {}
        _ => return Err(err(ctx, op, "requires a valid 'predicate' attribute")),
    }
    let res = ctx.value_type(data.results()[0]);
    if !matches!(ctx.type_kind(res), TypeKind::Integer(1)) {
        return Err(err(ctx, op, "result must be i1"));
    }
    Ok(())
}

fn verify_select(ctx: &Context, op: OpId) -> Result<(), Diagnostic> {
    let data = ctx.op(op);
    if data.operands().len() != 3 || data.results().len() != 1 {
        return Err(err(ctx, op, "expects three operands and one result"));
    }
    let cond = ctx.value_type(data.operands()[0]);
    if !matches!(ctx.type_kind(cond), TypeKind::Integer(1)) {
        return Err(err(ctx, op, "condition must be i1"));
    }
    Ok(())
}

fn err(ctx: &Context, op: OpId, message: &str) -> Diagnostic {
    Diagnostic::error(
        ctx.op(op).location.clone(),
        format!("'{}' op {message}", ctx.op(op).name),
    )
}

/// Reads the integer value of a constant-like defining op, if any.
pub fn constant_int_value(ctx: &Context, value: td_ir::ValueId) -> Option<i64> {
    let def = ctx.defining_op(value)?;
    if ctx.op(def).name.as_str() != "arith.constant" {
        return None;
    }
    ctx.op(def).attr("value")?.as_int()
}

/// Constant-folds integer binaries with two constant operands, and applies
/// the algebraic identities `x+0`, `x*1`, `x*0`, `x-0`, `x/1`.
fn fold_int_binary(ctx: &mut Context, op: OpId) -> FoldResult {
    let name = ctx.op(op).name.as_str();
    let lhs = ctx.op(op).operands()[0];
    let rhs = ctx.op(op).operands()[1];
    let lhs_const = constant_int_value(ctx, lhs);
    let rhs_const = constant_int_value(ctx, rhs);

    // Algebraic identities that return an existing value.
    match (name, lhs_const, rhs_const) {
        ("arith.addi" | "arith.subi" | "arith.shli", _, Some(0)) => {
            return FoldResult::Replace(vec![lhs])
        }
        ("arith.addi", Some(0), _) => return FoldResult::Replace(vec![rhs]),
        ("arith.muli" | "arith.divsi", _, Some(1)) => return FoldResult::Replace(vec![lhs]),
        ("arith.muli", Some(1), _) => return FoldResult::Replace(vec![rhs]),
        _ => {}
    }

    let (Some(l), Some(r)) = (lhs_const, rhs_const) else {
        return FoldResult::Unchanged;
    };
    let result = match name {
        "arith.addi" => l.checked_add(r),
        "arith.subi" => l.checked_sub(r),
        "arith.muli" => l.checked_mul(r),
        "arith.divsi" => {
            if r == 0 {
                None
            } else {
                l.checked_div(r)
            }
        }
        "arith.remsi" => {
            if r == 0 {
                None
            } else {
                l.checked_rem(r)
            }
        }
        "arith.minsi" => Some(l.min(r)),
        "arith.maxsi" => Some(l.max(r)),
        "arith.shli" => {
            if (0..64).contains(&r) {
                l.checked_shl(r as u32)
            } else {
                None
            }
        }
        _ => None,
    };
    let Some(result) = result else {
        return FoldResult::Unchanged;
    };
    // Materialize a constant right before the op and replace.
    let ty = ctx.value_type(ctx.op(op).results()[0]);
    if ctx.op(op).parent().is_none() {
        return FoldResult::Unchanged;
    }
    let constant = ctx.create_op(
        ctx.op(op).location.clone(),
        "arith.constant",
        vec![],
        [ty],
        vec![(td_support::Symbol::new("value"), Attribute::Int(result))],
        0,
    );
    ctx.insert_op_before(op, constant);
    FoldResult::Replace(vec![ctx.op(constant).results()[0]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_ir::parse_module;
    use td_ir::rewrite::{apply_patterns_greedily, GreedyConfig, PatternSet};
    use td_ir::verify::verify;

    fn ctx() -> Context {
        let mut ctx = Context::new();
        crate::builtin::register(&mut ctx);
        register(&mut ctx);
        ctx
    }

    #[test]
    fn well_formed_arith_verifies() {
        let mut ctx = ctx();
        let m = parse_module(
            &mut ctx,
            r#"module {
  %a = arith.constant 3 : i32
  %b = arith.constant 4 : i32
  %c = "arith.addi"(%a, %b) : (i32, i32) -> i32
  %p = "arith.cmpi"(%a, %c) {predicate = "slt"} : (i32, i32) -> i1
  %s = "arith.select"(%p, %a, %c) : (i1, i32, i32) -> i32
  "test.use"(%s) : (i32) -> ()
}"#,
        )
        .unwrap();
        assert!(verify(&ctx, m).is_ok());
    }

    #[test]
    fn bad_predicate_rejected() {
        let mut ctx = ctx();
        let m = parse_module(
            &mut ctx,
            r#"module {
  %a = arith.constant 3 : i32
  %p = "arith.cmpi"(%a, %a) {predicate = "weird"} : (i32, i32) -> i1
  "test.use"(%p) : (i1) -> ()
}"#,
        )
        .unwrap();
        let errs = verify(&ctx, m).unwrap_err();
        assert!(errs.iter().any(|e| e.message().contains("predicate")));
    }

    #[test]
    fn mismatched_binary_types_rejected() {
        let mut ctx = ctx();
        let m = parse_module(
            &mut ctx,
            r#"module {
  %a = arith.constant 3 : i32
  %b = arith.constant 4 : i64
  %c = "arith.addi"(%a, %b) : (i32, i64) -> i32
  "test.use"(%c) : (i32) -> ()
}"#,
        )
        .unwrap();
        assert!(verify(&ctx, m).is_err());
    }

    #[test]
    fn folds_constants_to_fixpoint() {
        let mut ctx = ctx();
        let m = parse_module(
            &mut ctx,
            r#"module {
  %a = arith.constant 3 : i64
  %b = arith.constant 4 : i64
  %c = "arith.addi"(%a, %b) : (i64, i64) -> i64
  %d = "arith.muli"(%c, %c) : (i64, i64) -> i64
  "test.use"(%d) : (i64) -> ()
}"#,
        )
        .unwrap();
        let outcome =
            apply_patterns_greedily(&mut ctx, m, &PatternSet::new(), GreedyConfig::default())
                .unwrap();
        assert!(outcome.changed);
        // 49 should be materialized as a constant feeding test.use.
        let use_op = ctx
            .walk_nested(m)
            .into_iter()
            .find(|&o| ctx.op(o).name.as_str() == "test.use")
            .unwrap();
        let v = ctx.op(use_op).operands()[0];
        assert_eq!(constant_int_value(&ctx, v), Some(49));
    }

    #[test]
    fn folds_algebraic_identities() {
        let mut ctx = ctx();
        let m = parse_module(
            &mut ctx,
            r#"module {
  %x = "test.opaque"() : () -> i64
  %zero = arith.constant 0 : i64
  %one = arith.constant 1 : i64
  %a = "arith.addi"(%x, %zero) : (i64, i64) -> i64
  %b = "arith.muli"(%a, %one) : (i64, i64) -> i64
  "test.use"(%b) : (i64) -> ()
}"#,
        )
        .unwrap();
        apply_patterns_greedily(&mut ctx, m, &PatternSet::new(), GreedyConfig::default()).unwrap();
        let use_op = ctx
            .walk_nested(m)
            .into_iter()
            .find(|&o| ctx.op(o).name.as_str() == "test.use")
            .unwrap();
        let v = ctx.op(use_op).operands()[0];
        let def = ctx.defining_op(v).unwrap();
        assert_eq!(
            ctx.op(def).name.as_str(),
            "test.opaque",
            "identities folded through"
        );
    }

    #[test]
    fn division_by_zero_does_not_fold() {
        let mut ctx = ctx();
        let m = parse_module(
            &mut ctx,
            r#"module {
  %a = arith.constant 3 : i64
  %z = arith.constant 0 : i64
  %d = "arith.divsi"(%a, %z) : (i64, i64) -> i64
  "test.use"(%d) : (i64) -> ()
}"#,
        )
        .unwrap();
        apply_patterns_greedily(&mut ctx, m, &PatternSet::new(), GreedyConfig::default()).unwrap();
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(names.contains(&"arith.divsi"), "{names:?}");
    }
}
