//! Generated constraint verifiers.
//!
//! [`check_op`] evaluates a declarative [`IrdlOp`] against a concrete
//! operation — this is the "automatically generated constraint verifier" of
//! §3.3, used both to verify IRDL-defined dialects and to check
//! pre-/post-conditions dynamically. [`register_dialect`] installs the
//! generated verifier into the op registry so IRDL-defined ops participate
//! in normal IR verification.

use crate::def::{IrdlDialect, IrdlOp};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use td_ir::{Context, OpId, OpSpec};
use td_support::Diagnostic;

/// Checks one operation against a declarative definition.
///
/// # Errors
/// Returns a diagnostic naming the first violated slot.
pub fn check_op(ctx: &Context, op: OpId, def: &IrdlOp) -> Result<(), Diagnostic> {
    let data = ctx.op(op);
    let fail = |what: String| {
        Diagnostic::error(
            data.location.clone(),
            format!("'{}' op violates IRDL constraint: {what}", data.name),
        )
    };
    if data.name.as_str() != def.name {
        return Err(fail(format!("expected op '{}'", def.name)));
    }
    for (name, constraint) in &def.attributes {
        if !constraint.check(data.attr(name)) {
            return Err(fail(format!("attribute '{name}'")));
        }
    }
    // Greedy slot assignment over the flat operand/result lists.
    for (what, slots, values) in [
        ("operand", &def.operands, data.operands()),
        ("result", &def.results, data.results()),
    ] {
        let mut cursor = 0usize;
        // Count trailing demand of single/exact slots so a variadic slot in
        // the middle doesn't over-consume.
        for (i, (slot_name, constraint, arity)) in slots.iter().enumerate() {
            let reserved: usize = slots[i + 1..]
                .iter()
                .map(|(_, _, a)| match a {
                    crate::Arity::Single => 1,
                    crate::Arity::Exactly(n) => *n,
                    crate::Arity::Variadic => 0,
                })
                .sum();
            let available = values.len().saturating_sub(cursor).saturating_sub(reserved);
            let Some(take) = arity.consume(available) else {
                return Err(fail(format!("{what} slot '{slot_name}' arity")));
            };
            // `Exactly(n)` means exactly n, not at-least-n: with a greedy
            // scheme, exact slots take exactly n from the front.
            let take = match arity {
                crate::Arity::Exactly(n) => *n,
                crate::Arity::Single => 1,
                crate::Arity::Variadic => take,
            };
            for &value in values.iter().skip(cursor).take(take) {
                if !constraint.check(ctx, ctx.value_type(value)) {
                    return Err(fail(format!("{what} slot '{slot_name}' type")));
                }
            }
            cursor += take;
        }
        if cursor != values.len() {
            return Err(fail(format!("trailing {what}s beyond declared slots")));
        }
    }
    if let Some(native) = def.native {
        native(ctx, op)?;
    }
    Ok(())
}

// Generated verifiers are installed as plain `fn` pointers in the op
// registry; the definitions they check live in a process-global table so
// the fn pointer can find them. This mirrors how IRDL "loads" dialects into
// a running compiler without recompiling it.
fn loaded_defs() -> &'static Mutex<HashMap<String, IrdlOp>> {
    static DEFS: OnceLock<Mutex<HashMap<String, IrdlOp>>> = OnceLock::new();
    DEFS.get_or_init(|| Mutex::new(HashMap::new()))
}

fn generated_verifier(ctx: &Context, op: OpId) -> Result<(), Diagnostic> {
    let name = ctx.op(op).name.as_str().to_owned();
    let def = {
        let defs = loaded_defs().lock().expect("IRDL table poisoned");
        defs.get(&name).cloned()
    };
    match def {
        Some(def) => check_op(ctx, op, &def),
        None => Ok(()),
    }
}

/// Registers every op of an IRDL-defined dialect with the context, with a
/// verifier generated from its constraints.
pub fn register_dialect(ctx: &mut Context, dialect: &IrdlDialect) {
    ctx.registry.note_dialect(&dialect.name);
    let mut defs = loaded_defs().lock().expect("IRDL table poisoned");
    for op in &dialect.operations {
        defs.insert(op.name.clone(), op.clone());
        ctx.registry.register(
            OpSpec::new(&op.name, "IRDL-defined operation").with_verify(generated_verifier),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{Arity, AttrConstraint, TypeConstraint};
    use crate::def::subview_constr;
    use td_ir::verify::verify;
    use td_support::Location;

    #[test]
    fn subview_constraint_accepts_trivial_and_rejects_offset() {
        let mut ctx = Context::new();
        td_dialects_stub_register(&mut ctx);
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let f32t = ctx.f32_type();
        let mt = ctx.intern_type(td_ir::TypeKind::MemRef {
            shape: vec![td_ir::Extent::Static(8), td_ir::Extent::Static(8)],
            element: f32t,
            offset: td_ir::Extent::Static(0),
            strides: vec![],
        });
        let src = ctx.create_op(Location::unknown(), "test.src", vec![], [mt], vec![], 0);
        ctx.append_op(body, src);
        let v = ctx.op(src).results()[0];
        let mk = |ctx: &mut Context, offsets: Vec<i64>, strides: Vec<i64>| {
            let op = ctx.create_op(
                Location::unknown(),
                "memref.subview",
                [v],
                [mt],
                vec![
                    (
                        td_support::Symbol::new("static_offsets"),
                        td_ir::Attribute::int_array(offsets),
                    ),
                    (
                        td_support::Symbol::new("static_sizes"),
                        td_ir::Attribute::int_array([4, 4]),
                    ),
                    (
                        td_support::Symbol::new("static_strides"),
                        td_ir::Attribute::int_array(strides),
                    ),
                ],
                0,
            );
            ctx.append_op(body, op);
            op
        };
        let good = mk(&mut ctx, vec![0, 0], vec![1, 1]);
        let bad = mk(&mut ctx, vec![2, 0], vec![1, 1]);
        let def = subview_constr();
        assert!(check_op(&ctx, good, &def).is_ok());
        let err = check_op(&ctx, bad, &def).unwrap_err();
        assert!(err.message().contains("static_offsets"), "{err}");
    }

    fn td_dialects_stub_register(_ctx: &mut Context) {
        // Intentionally empty: this test only needs unregistered ops.
    }

    #[test]
    fn registered_dialect_verifies_via_generated_verifier() {
        let mut ctx = Context::new();
        let dialect = IrdlDialect::new("toy").op(IrdlOp::new("toy.axpy")
            .attr("alpha", AttrConstraint::AnyInt)
            .operand("x", TypeConstraint::AnyFloat, Arity::Single)
            .operand("y", TypeConstraint::AnyFloat, Arity::Single)
            .result("r", TypeConstraint::AnyFloat, Arity::Single));
        register_dialect(&mut ctx, &dialect);
        assert!(ctx
            .registry
            .is_registered(td_support::Symbol::new("toy.axpy")));

        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let f32t = ctx.f32_type();
        let src = ctx.create_op(Location::unknown(), "test.src", vec![], [f32t], vec![], 0);
        ctx.append_op(body, src);
        let v = ctx.op(src).results()[0];
        let good = ctx.create_op(
            Location::unknown(),
            "toy.axpy",
            [v, v],
            [f32t],
            vec![(td_support::Symbol::new("alpha"), td_ir::Attribute::Int(2))],
            0,
        );
        ctx.append_op(body, good);
        assert!(verify(&ctx, module).is_ok(), "{:?}", verify(&ctx, module));

        // Missing the attribute: the generated verifier rejects it.
        let bad = ctx.create_op(Location::unknown(), "toy.axpy", [v, v], [f32t], vec![], 0);
        ctx.append_op(body, bad);
        let errs = verify(&ctx, module).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message().contains("alpha")),
            "{errs:?}"
        );
    }

    #[test]
    fn variadic_middle_slot_respects_trailing_demand() {
        let mut ctx = Context::new();
        let def = IrdlOp::new("test.var")
            .operand("head", TypeConstraint::Any, Arity::Single)
            .operand("mid", TypeConstraint::Index, Arity::Variadic)
            .operand("tail", TypeConstraint::Any, Arity::Single);
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let index = ctx.index_type();
        let src = ctx.create_op(Location::unknown(), "test.src", vec![], [index], vec![], 0);
        ctx.append_op(body, src);
        let v = ctx.op(src).results()[0];
        let op = ctx.create_op(
            Location::unknown(),
            "test.var",
            [v, v, v, v],
            vec![],
            vec![],
            0,
        );
        ctx.append_op(body, op);
        assert!(check_op(&ctx, op, &def).is_ok());
        let too_few = ctx.create_op(Location::unknown(), "test.var", [v], vec![], vec![], 0);
        ctx.append_op(body, too_few);
        assert!(check_op(&ctx, too_few, &def).is_err());
    }
}
