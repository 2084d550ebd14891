//! Conversion of traditional pass pipelines into Transform scripts — the
//! methodology of the paper's Case Study 1 / Table 1 ("we modified MLIR to
//! automatically create a Transform script of a pass pipeline that uses the
//! generic `transform.apply_registered_pass` transform").

use td_ir::{Attribute, Context, OpId, TypeKind};
use td_support::{Diagnostic, Location, Symbol};

/// The conventional name of the generated entry point.
pub const TRANSFORM_MAIN: &str = "__transform_main";

/// Converts a comma-separated pipeline description into a transform-script
/// module containing `transform.named_sequence @__transform_main`, one
/// `transform.apply_registered_pass` per pass, chained through handles.
///
/// # Errors
/// Fails on an empty pipeline.
pub fn pipeline_to_script(ctx: &mut Context, pipeline: &str) -> Result<OpId, Diagnostic> {
    let passes: Vec<&str> = pipeline
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if passes.is_empty() {
        return Err(Diagnostic::error(
            Location::unknown(),
            "cannot convert an empty pipeline to a transform script",
        ));
    }
    let module = ctx.create_module(Location::name("generated-transform-script"));
    let body = ctx.sole_block(module, 0);
    let anyop = ctx.transform_any_op_type();
    let fty = ctx.intern_type(TypeKind::Function {
        inputs: vec![anyop],
        results: vec![],
    });
    let seq = ctx.create_op(
        Location::name(TRANSFORM_MAIN),
        "transform.named_sequence",
        vec![],
        vec![],
        vec![
            (
                Symbol::new("sym_name"),
                Attribute::String(TRANSFORM_MAIN.to_owned()),
            ),
            (Symbol::new("function_type"), Attribute::Type(fty)),
        ],
        1,
    );
    ctx.append_op(body, seq);
    let region = ctx.op(seq).regions()[0];
    let block = ctx.append_block(region, &[anyop]);
    let mut handle = ctx.block(block).args()[0];
    for pass in passes {
        let op = ctx.create_op(
            Location::name(pass),
            "transform.apply_registered_pass",
            [handle],
            [anyop],
            vec![(Symbol::new("pass_name"), Attribute::String(pass.to_owned()))],
            0,
        );
        ctx.append_op(block, op);
        handle = ctx.op(op).results()[0];
    }
    let yld = ctx.create_op(
        Location::name("transform.yield"),
        "transform.yield",
        vec![],
        vec![],
        vec![],
        0,
    );
    ctx.append_op(block, yld);
    Ok(module)
}

/// Finds the generated entry point in a script module.
pub fn transform_main(ctx: &Context, script_module: OpId) -> Option<OpId> {
    ctx.lookup_symbol(script_module, TRANSFORM_MAIN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{InterpEnv, Interpreter};

    #[test]
    fn generates_one_transform_per_pass() {
        let mut ctx = Context::new();
        td_dialects::register_all_dialects(&mut ctx);
        crate::ops::register_transform_dialect(&mut ctx);
        let script = pipeline_to_script(&mut ctx, "canonicalize, cse, canonicalize").unwrap();
        let entry = transform_main(&ctx, script).unwrap();
        let applies = ctx
            .walk_nested(entry)
            .into_iter()
            .filter(|&op| ctx.op(op).name.as_str() == "transform.apply_registered_pass")
            .count();
        assert_eq!(applies, 3);
        assert!(td_ir::verify::verify(&ctx, script).is_ok());
    }

    #[test]
    fn empty_pipeline_is_an_error() {
        let mut ctx = Context::new();
        assert!(pipeline_to_script(&mut ctx, "  ,, ").is_err());
    }

    #[test]
    fn generated_script_is_equivalent_to_the_pass_manager() {
        // Run the same pipeline through the pass manager and through the
        // generated transform script: identical results.
        let src = r#"module {
  func.func @f() {
    %a = arith.constant 2 : i64
    %b = arith.constant 3 : i64
    %c = "arith.addi"(%a, %b) : (i64, i64) -> i64
    %d = "arith.addi"(%c, %c) : (i64, i64) -> i64
    "test.use"(%d) : (i64) -> ()
    func.return
  }
}"#;
        let pipeline = "canonicalize,cse";
        let mut passes = td_ir::PassRegistry::new();
        td_dialects::passes::register_all_passes(&mut passes);

        // Pass-manager side.
        let mut ctx1 = Context::new();
        td_dialects::register_all_dialects(&mut ctx1);
        let m1 = td_ir::parse_module(&mut ctx1, src).unwrap();
        passes
            .parse_pipeline(pipeline)
            .unwrap()
            .run(&mut ctx1, m1)
            .unwrap();

        // Transform side.
        let mut ctx2 = Context::new();
        td_dialects::register_all_dialects(&mut ctx2);
        crate::ops::register_transform_dialect(&mut ctx2);
        let m2 = td_ir::parse_module(&mut ctx2, src).unwrap();
        let script = pipeline_to_script(&mut ctx2, pipeline).unwrap();
        let entry = transform_main(&ctx2, script).unwrap();
        let mut env = InterpEnv::standard();
        env.passes = Some(&passes);
        Interpreter::new(&env).apply(&mut ctx2, entry, m2).unwrap();

        assert_eq!(td_ir::print_op(&ctx1, m1), td_ir::print_op(&ctx2, m2));
    }
}
