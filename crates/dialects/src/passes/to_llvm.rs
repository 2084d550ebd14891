//! The three one-to-one LLVM conversion passes of the Case Study 2 pipeline:
//! `convert-arith-to-llvm`, `convert-cf-to-llvm`, and
//! `convert-func-to-llvm`.

use super::conversion_util::{convert_type, replace_one_to_one, Replacement};
use crate::builtin;
use td_ir::{Attribute, Context, OpId, Pass};
use td_support::{Diagnostic, Symbol};

/// `convert-arith-to-llvm`: pre `{arith.*}` → post `{llvm.{add, mul, …}}`.
#[derive(Debug, Default)]
pub struct ArithToLlvmPass;

impl Pass for ArithToLlvmPass {
    fn name(&self) -> &str {
        "convert-arith-to-llvm"
    }

    fn run(&self, ctx: &mut Context, target: OpId) -> Result<(), Diagnostic> {
        let ops: Vec<OpId> = ctx
            .walk_nested(target)
            .into_iter()
            .filter(|&op| ctx.op(op).name.as_str().starts_with("arith."))
            .collect();
        for op in ops {
            let name = ctx.op(op).name.as_str();
            let target_name = match name {
                "arith.addi" => "llvm.add",
                "arith.subi" => "llvm.sub",
                "arith.muli" => "llvm.mul",
                "arith.divsi" => "llvm.sdiv",
                "arith.remsi" => "llvm.srem",
                "arith.shli" => "llvm.shl",
                "arith.addf" => "llvm.fadd",
                "arith.subf" => "llvm.fsub",
                "arith.mulf" => "llvm.fmul",
                "arith.divf" => "llvm.fdiv",
                "arith.cmpi" => "llvm.icmp",
                "arith.select" => "llvm.select",
                "arith.constant" => "llvm.mlir.constant",
                "arith.index_cast" => "llvm.bitcast",
                "arith.minsi" | "arith.maxsi" | "arith.maximumf" => {
                    lower_min_max(ctx, op)?;
                    continue;
                }
                _ => continue,
            };
            let attributes = ctx.op(op).attributes().to_vec();
            replace_one_to_one(
                ctx,
                op,
                Replacement {
                    name: target_name,
                    attributes,
                },
            );
        }
        Ok(())
    }
}

/// Expands `arith.minsi`/`arith.maxsi`/`arith.maximumf` into an
/// `llvm.icmp`/`llvm.fcmp` + `llvm.select` pair.
fn lower_min_max(ctx: &mut Context, op: OpId) -> Result<(), Diagnostic> {
    let name = ctx.op(op).name.as_str().to_owned();
    let predicate = match name.as_str() {
        "arith.minsi" => "slt",
        _ => "sgt",
    };
    // First turn it into a select on the original (index/float) types, then
    // let the generic 1:1 machinery convert the pieces — conceptually this
    // is "lowering the op within its own dialect" followed by conversion.
    let lhs = ctx.op(op).operands()[0];
    let rhs = ctx.op(op).operands()[1];
    let location = ctx.op(op).location.clone();
    let i1 = ctx.i1_type();
    let cmp = ctx.create_op(
        location.clone(),
        "arith.cmpi",
        [lhs, rhs],
        [i1],
        vec![(
            Symbol::new("predicate"),
            Attribute::String(predicate.into()),
        )],
        0,
    );
    ctx.insert_op_before(op, cmp);
    let cmp_value = ctx.op(cmp).results()[0];
    let result_ty = ctx.value_type(ctx.op(op).results()[0]);
    let select = ctx.create_op(
        location,
        "arith.select",
        [cmp_value, lhs, rhs],
        [result_ty],
        vec![],
        0,
    );
    ctx.insert_op_before(op, select);
    let select_value = ctx.op(select).results()[0];
    let old = ctx.op(op).results()[0];
    ctx.replace_all_uses(old, select_value);
    ctx.erase_op(op);
    // Convert the two freshly created arith ops.
    for new_op in [cmp, select] {
        let target_name = if ctx.op(new_op).name.as_str() == "arith.cmpi" {
            "llvm.icmp"
        } else {
            "llvm.select"
        };
        let attributes = ctx.op(new_op).attributes().to_vec();
        replace_one_to_one(
            ctx,
            new_op,
            Replacement {
                name: target_name,
                attributes,
            },
        );
    }
    Ok(())
}

/// `convert-cf-to-llvm`: pre `{cf.*}` → post `{llvm.{br, cond_br}}`.
#[derive(Debug, Default)]
pub struct CfToLlvmPass;

impl Pass for CfToLlvmPass {
    fn name(&self) -> &str {
        "convert-cf-to-llvm"
    }

    fn run(&self, ctx: &mut Context, target: OpId) -> Result<(), Diagnostic> {
        let ops: Vec<OpId> = ctx
            .walk_nested(target)
            .into_iter()
            .filter(|&op| ctx.op(op).name.as_str().starts_with("cf."))
            .collect();
        for op in ops {
            let target_name = match ctx.op(op).name.as_str() {
                "cf.br" => "llvm.br",
                "cf.cond_br" => "llvm.cond_br",
                _ => continue,
            };
            let attributes = ctx.op(op).attributes().to_vec();
            replace_one_to_one(
                ctx,
                op,
                Replacement {
                    name: target_name,
                    attributes,
                },
            );
        }
        Ok(())
    }
}

/// `convert-func-to-llvm`: pre `{func.*}` → post
/// `{llvm.{func, return, call}}`. Also converts block signatures of function
/// bodies (block arguments get LLVM types; casts keep old uses typed).
#[derive(Debug, Default)]
pub struct FuncToLlvmPass;

impl Pass for FuncToLlvmPass {
    fn name(&self) -> &str {
        "convert-func-to-llvm"
    }

    fn run(&self, ctx: &mut Context, target: OpId) -> Result<(), Diagnostic> {
        // Returns and calls first (simple 1:1).
        let ops: Vec<OpId> = ctx
            .walk_nested(target)
            .into_iter()
            .filter(|&op| matches!(ctx.op(op).name.as_str(), "func.return" | "func.call"))
            .collect();
        for op in ops {
            let target_name = match ctx.op(op).name.as_str() {
                "func.return" => "llvm.return",
                _ => "llvm.call",
            };
            let attributes = ctx.op(op).attributes().to_vec();
            replace_one_to_one(
                ctx,
                op,
                Replacement {
                    name: target_name,
                    attributes,
                },
            );
        }
        // Then the functions themselves.
        let funcs: Vec<OpId> = ctx
            .walk_nested(target)
            .into_iter()
            .filter(|&op| ctx.op(op).name.as_str() == "func.func")
            .collect();
        for func in funcs {
            convert_func(ctx, func);
        }
        Ok(())
    }
}

fn convert_func(ctx: &mut Context, func: OpId) {
    let mut attributes = ctx.op(func).attributes().to_vec();
    // Convert the function type attribute.
    for (key, value) in attributes.iter_mut() {
        if key.as_str() == "function_type" {
            if let Attribute::Type(fty) = value {
                *value = Attribute::Type(convert_type(ctx, *fty));
            }
        }
    }
    let location = ctx.op(func).location.clone();
    let new_func = ctx.create_op(location, "llvm.func", vec![], vec![], attributes, 1);
    ctx.insert_op_before(func, new_func);
    let old_region = ctx.op(func).regions()[0];
    let new_region = ctx.op(new_func).regions()[0];
    ctx.transfer_region_blocks(old_region, new_region);
    super::conversion_util::convert_block_signatures(ctx, new_region);
    ctx.erase_op(func);
}

/// Marker for the builtin cast op name, re-exported for pipeline checks.
pub const CAST_OP: &str = builtin::UNREALIZED_CAST;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::scf_to_cf::ScfToCfPass;
    use td_ir::parse_module;
    use td_ir::types::TypeKind as TK;

    fn ctx() -> Context {
        let mut ctx = Context::new();
        crate::register_all_dialects(&mut ctx);
        ctx
    }

    #[test]
    fn arith_converts_with_casts() {
        let mut ctx = ctx();
        let m = parse_module(
            &mut ctx,
            r#"module {
  %a = arith.constant 1 : index
  %b = "arith.addi"(%a, %a) : (index, index) -> index
  "test.use"(%b) : (index) -> ()
}"#,
        )
        .unwrap();
        ArithToLlvmPass.run(&mut ctx, m).unwrap();
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(!names.iter().any(|n| n.starts_with("arith.")), "{names:?}");
        assert!(names.contains(&"llvm.add"));
        assert!(names.contains(&"llvm.mlir.constant"));
        assert!(names.contains(&CAST_OP));
    }

    #[test]
    fn min_max_expand_to_icmp_select() {
        let mut ctx = ctx();
        let m = parse_module(
            &mut ctx,
            r#"module {
  %a = "test.source"() : () -> index
  %b = "test.source"() : () -> index
  %m = "arith.minsi"(%a, %b) : (index, index) -> index
  "test.use"(%m) : (index) -> ()
}"#,
        )
        .unwrap();
        ArithToLlvmPass.run(&mut ctx, m).unwrap();
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(names.contains(&"llvm.icmp"));
        assert!(names.contains(&"llvm.select"));
        assert!(!names.contains(&"arith.minsi"));
    }

    #[test]
    fn full_control_flow_conversion() {
        let mut ctx = ctx();
        let m = parse_module(
            &mut ctx,
            r#"module {
  func.func @f(%n: index) {
    %lo = arith.constant 0 : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %n step %st {
      "test.body"(%i) : (index) -> ()
    }
    func.return
  }
}"#,
        )
        .unwrap();
        ScfToCfPass.run(&mut ctx, m).unwrap();
        ArithToLlvmPass.run(&mut ctx, m).unwrap();
        CfToLlvmPass.run(&mut ctx, m).unwrap();
        FuncToLlvmPass.run(&mut ctx, m).unwrap();
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(names.contains(&"llvm.func"));
        assert!(names.contains(&"llvm.br"));
        assert!(names.contains(&"llvm.cond_br"));
        assert!(names.contains(&"llvm.return"));
        assert!(
            !names.iter().any(|n| n.starts_with("func.")
                || n.starts_with("scf.")
                || n.starts_with("cf.")
                || n.starts_with("arith.")),
            "{names:?}"
        );
        // The function argument was converted to i64.
        let func = ctx
            .walk_nested(m)
            .into_iter()
            .find(|&o| ctx.op(o).name.as_str() == "llvm.func")
            .unwrap();
        let entry = ctx.region(ctx.op(func).regions()[0]).blocks()[0];
        let arg = ctx.block(entry).args()[0];
        assert!(matches!(
            ctx.type_kind(ctx.value_type(arg)),
            TK::Integer(64)
        ));
    }
}
