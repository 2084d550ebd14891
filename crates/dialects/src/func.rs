//! The `func` dialect: functions, returns, and calls.

use td_ir::{Attribute, BlockId, Context, OpId, OpSpec, OpTraits, TypeId, TypeKind};
use td_support::{Diagnostic, Location, Symbol};

/// Registers the func dialect.
pub fn register(ctx: &mut Context) {
    ctx.registry.note_dialect("func");
    ctx.registry.register(
        OpSpec::new("func.func", "function definition")
            .with_traits(OpTraits::ISOLATED_FROM_ABOVE | OpTraits::SYMBOL)
            .with_verify(verify_func),
    );
    ctx.registry.register(
        OpSpec::new("func.return", "function return")
            .with_traits(OpTraits::TERMINATOR)
            .with_verify(verify_return),
    );
    ctx.registry
        .register(OpSpec::new("func.call", "direct call").with_verify(verify_call));
}

fn err(ctx: &Context, op: OpId, message: &str) -> Diagnostic {
    Diagnostic::error(
        ctx.op(op).location.clone(),
        format!("'{}' op {message}", ctx.op(op).name),
    )
}

fn verify_func(ctx: &Context, op: OpId) -> Result<(), Diagnostic> {
    let data = ctx.op(op);
    if data
        .attr("sym_name")
        .and_then(|a| a.as_str().map(str::to_owned))
        .is_none()
    {
        return Err(err(ctx, op, "requires a string 'sym_name' attribute"));
    }
    let Some(Attribute::Type(fty)) = data.attr("function_type") else {
        return Err(err(ctx, op, "requires a 'function_type' attribute"));
    };
    let TypeKind::Function { inputs, .. } = ctx.type_kind(*fty).clone() else {
        return Err(err(ctx, op, "'function_type' must be a function type"));
    };
    if data.regions().len() != 1 {
        return Err(err(ctx, op, "expects exactly one region"));
    }
    let region = data.regions()[0];
    if let Some(&entry) = ctx.region(region).blocks().first() {
        let args = ctx.block(entry).args();
        if args.len() != inputs.len() {
            return Err(err(
                ctx,
                op,
                "entry block argument count differs from function type",
            ));
        }
        for (&arg, &expected) in args.iter().zip(inputs.iter()) {
            if ctx.value_type(arg) != expected {
                return Err(err(
                    ctx,
                    op,
                    "entry block argument type differs from function type",
                ));
            }
        }
    }
    Ok(())
}

fn verify_return(ctx: &Context, op: OpId) -> Result<(), Diagnostic> {
    // Check against the enclosing function's result types, when known.
    let Some(func) = ctx.parent_op(op) else {
        return Ok(());
    };
    if ctx.op(func).name.as_str() != "func.func" {
        return Ok(());
    }
    let Some(Attribute::Type(fty)) = ctx.op(func).attr("function_type") else {
        return Ok(());
    };
    let TypeKind::Function { results, .. } = ctx.type_kind(*fty).clone() else {
        return Ok(());
    };
    let operands = ctx.op(op).operands();
    if operands.len() != results.len() {
        return Err(err(
            ctx,
            op,
            "operand count differs from function result count",
        ));
    }
    for (&v, &expected) in operands.iter().zip(results.iter()) {
        if ctx.value_type(v) != expected {
            return Err(err(
                ctx,
                op,
                "operand type differs from function result type",
            ));
        }
    }
    Ok(())
}

fn verify_call(ctx: &Context, op: OpId) -> Result<(), Diagnostic> {
    if ctx
        .op(op)
        .attr("callee")
        .and_then(Attribute::as_symbol)
        .is_none()
    {
        return Err(err(ctx, op, "requires a 'callee' symbol attribute"));
    }
    Ok(())
}

/// Creates an empty `func.func @name` with the given signature inside
/// `module`, returning `(func op, entry block)`.
pub fn build_func(
    ctx: &mut Context,
    module: OpId,
    name: &str,
    inputs: &[TypeId],
    results: &[TypeId],
) -> (OpId, BlockId) {
    let fty = ctx.intern_type(TypeKind::Function {
        inputs: inputs.to_vec(),
        results: results.to_vec(),
    });
    let func = ctx.create_op(
        Location::name(name),
        "func.func",
        vec![],
        vec![],
        vec![
            (Symbol::new("sym_name"), Attribute::String(name.to_owned())),
            (Symbol::new("function_type"), Attribute::Type(fty)),
        ],
        1,
    );
    let body = ctx.sole_block(module, 0);
    ctx.append_op(body, func);
    let region = ctx.op(func).regions()[0];
    let entry = ctx.append_block(region, inputs);
    (func, entry)
}

/// Returns the symbol name of a function-like op.
pub fn symbol_name(ctx: &Context, op: OpId) -> Option<String> {
    ctx.op(op)
        .attr("sym_name")
        .and_then(|a| a.as_str().map(str::to_owned))
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_ir::parse_module;
    use td_ir::verify::verify;

    fn ctx() -> Context {
        let mut ctx = Context::new();
        crate::builtin::register(&mut ctx);
        crate::arith::register(&mut ctx);
        register(&mut ctx);
        ctx
    }

    #[test]
    fn build_func_creates_valid_function() {
        let mut ctx = ctx();
        let module = ctx.create_module(Location::unknown());
        let i32t = ctx.i32_type();
        let (func, entry) = build_func(&mut ctx, module, "id", &[i32t], &[i32t]);
        let arg = ctx.block(entry).args()[0];
        let ret = ctx.create_op(Location::unknown(), "func.return", [arg], vec![], vec![], 0);
        ctx.append_op(entry, ret);
        assert!(verify(&ctx, module).is_ok(), "{:?}", verify(&ctx, module));
        assert_eq!(symbol_name(&ctx, func).as_deref(), Some("id"));
        assert_eq!(ctx.lookup_symbol(module, "id"), Some(func));
    }

    #[test]
    fn return_type_mismatch_rejected() {
        let mut ctx = ctx();
        let m = parse_module(
            &mut ctx,
            r#"module {
  func.func @f() -> i32 {
    %x = arith.constant 1.0 : f32
    func.return %x : f32
  }
}"#,
        )
        .unwrap();
        let errs = verify(&ctx, m).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message().contains("differs from function result")));
    }

    #[test]
    fn missing_terminator_rejected() {
        let mut ctx = ctx();
        let m = parse_module(
            &mut ctx,
            r#"module {
  func.func @f() {
    %x = arith.constant 1 : i32
  }
}"#,
        )
        .unwrap();
        let errs = verify(&ctx, m).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message().contains("not terminated")),
            "{errs:?}"
        );
    }

    #[test]
    fn call_requires_callee() {
        let mut ctx = ctx();
        let m = parse_module(
            &mut ctx,
            r#"module {
  func.func @f() {
    "func.call"() : () -> ()
    func.return
  }
}"#,
        )
        .unwrap();
        let errs = verify(&ctx, m).unwrap_err();
        assert!(errs.iter().any(|e| e.message().contains("callee")));
    }
}
