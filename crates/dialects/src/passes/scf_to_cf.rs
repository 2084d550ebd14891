//! `convert-scf-to-cf`: lowers structured control flow (`scf.for`,
//! `scf.forall`, `scf.if`, `scf.execute_region`) to branch-based control
//! flow in the `cf` dialect.
//!
//! Pre-condition (Table 2): `{scf.*}` — post-condition:
//! `{cf.{br, cond_br}, arith.{addi, cmpi}}`.

use crate::cf;
use crate::scf;
use td_ir::{BlockId, Context, OpBuilder, OpId, Pass, RegionId};
use td_support::Diagnostic;

/// The `convert-scf-to-cf` pass.
#[derive(Debug, Default)]
pub struct ScfToCfPass;

impl Pass for ScfToCfPass {
    fn name(&self) -> &str {
        "convert-scf-to-cf"
    }

    fn run(&self, ctx: &mut Context, target: OpId) -> Result<(), Diagnostic> {
        // Outermost-first: each lowering splices nested scf ops into the
        // parent CFG where later iterations pick them up.
        loop {
            let next = ctx.walk_nested(target).into_iter().find(|&op| {
                matches!(
                    ctx.op(op).name.as_str(),
                    "scf.for" | "scf.forall" | "scf.if" | "scf.execute_region"
                )
            });
            let Some(op) = next else { break };
            match ctx.op(op).name.as_str() {
                "scf.for" | "scf.forall" => lower_for(ctx, op)?,
                "scf.if" => lower_if(ctx, op)?,
                "scf.execute_region" => lower_execute_region(ctx, op)?,
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

/// Splits the block of `op` after it: the ops that follow `op` move into a
/// fresh block appended to `region`. Returns the new block.
fn split_block_after(ctx: &mut Context, region: RegionId, op: OpId) -> BlockId {
    let tail = ctx.append_block(region, &[]);
    while let Some(next) = ctx.next_op(op) {
        ctx.detach_op(next);
        ctx.append_op(tail, next);
    }
    tail
}

fn lower_for(ctx: &mut Context, op: OpId) -> Result<(), Diagnostic> {
    let for_op = scf::as_for(ctx, op).ok_or_else(|| err(ctx, op, "is malformed"))?;
    let block = ctx
        .op(op)
        .parent()
        .ok_or_else(|| err(ctx, op, "is detached"))?;
    let region = ctx
        .block(block)
        .parent()
        .expect("attached block has a region");

    // exit <- everything after the loop.
    let exit = split_block_after(ctx, region, op);
    // header(iv): cmp + cond_br.
    let index = ctx.index_type();
    let header = ctx.append_block(region, &[index]);
    let header_iv = ctx.block(header).args()[0];
    // body block: loop body ops + iv increment + back-edge.
    let body = ctx.append_block(region, &[]);

    // Preheader: branch to header with the lower bound.
    cf::build_br(ctx, block, header, vec![for_op.lower]);

    // Header: iv < ub ? body : exit.
    let i1 = ctx.i1_type();
    let cmp = {
        let mut b = OpBuilder::at_end(ctx, header);
        b.op("arith.cmpi")
            .operands([header_iv, for_op.upper])
            .attr("predicate", "slt")
            .results(vec![i1])
            .build()
    };
    let cond = ctx.op(cmp).results()[0];
    cf::build_cond_br(ctx, header, cond, body, vec![], exit, vec![]);

    // Body: move loop ops, rewire the induction variable, add the back-edge.
    let loop_ops = scf::body_ops(ctx, for_op);
    for nested in &loop_ops {
        ctx.detach_op(*nested);
        ctx.append_op(body, *nested);
    }
    ctx.replace_all_uses(for_op.induction_var, header_iv);
    let next = {
        let mut b = OpBuilder::at_end(ctx, body);
        b.op("arith.addi")
            .operands([header_iv, for_op.step])
            .results(vec![index])
            .build()
    };
    let next_value = ctx.op(next).results()[0];
    cf::build_br(ctx, body, header, vec![next_value]);

    // The loop op now contains only its (empty but for scf.yield) body.
    ctx.erase_op(op);
    Ok(())
}

fn lower_if(ctx: &mut Context, op: OpId) -> Result<(), Diagnostic> {
    if !ctx.op(op).results().is_empty() {
        return Err(err(
            ctx,
            op,
            "with results is not supported by this lowering",
        ));
    }
    let block = ctx
        .op(op)
        .parent()
        .ok_or_else(|| err(ctx, op, "is detached"))?;
    let region = ctx
        .block(block)
        .parent()
        .expect("attached block has a region");
    let cond = ctx.op(op).operands()[0];
    let regions = ctx.op(op).regions().to_vec();

    let merge = split_block_after(ctx, region, op);
    let then_block = ctx.append_block(region, &[]);
    move_region_ops(ctx, regions[0], then_block);
    cf::build_br(ctx, then_block, merge, vec![]);
    let else_block = if regions.len() > 1 && !ctx.region(regions[1]).blocks().is_empty() {
        let else_block = ctx.append_block(region, &[]);
        move_region_ops(ctx, regions[1], else_block);
        cf::build_br(ctx, else_block, merge, vec![]);
        else_block
    } else {
        merge
    };
    cf::build_cond_br(ctx, block, cond, then_block, vec![], else_block, vec![]);
    ctx.erase_op(op);
    Ok(())
}

fn lower_execute_region(ctx: &mut Context, op: OpId) -> Result<(), Diagnostic> {
    if !ctx.op(op).results().is_empty() {
        return Err(err(
            ctx,
            op,
            "with results is not supported by this lowering",
        ));
    }
    if ctx.op(op).parent().is_none() {
        return Err(err(ctx, op, "is detached"));
    }
    // Inline the single-block region's ops in place of the op.
    let region = ctx.op(op).regions()[0];
    let inner = ctx
        .region(region)
        .blocks()
        .first()
        .copied()
        .ok_or_else(|| err(ctx, op, "has an empty region"))?;
    let ops: Vec<OpId> = ctx.block_ops(inner).collect();
    for nested in ops {
        if ctx.op(nested).name.as_str() == "scf.yield" {
            continue;
        }
        ctx.detach_op(nested);
        ctx.insert_op_before(op, nested);
    }
    ctx.erase_op(op);
    Ok(())
}

/// Moves the non-terminator ops of a single-block region into `dest`.
fn move_region_ops(ctx: &mut Context, region: RegionId, dest: BlockId) {
    let Some(&inner) = ctx.region(region).blocks().first() else {
        return;
    };
    let ops: Vec<OpId> = ctx.block_ops(inner).collect::<Vec<_>>();
    for nested in ops {
        if ctx.op(nested).name.as_str() == "scf.yield" {
            continue;
        }
        ctx.detach_op(nested);
        ctx.append_op(dest, nested);
    }
}

/// Pre-/post-condition helper used by Table 2 tooling: the op names this
/// pass consumes and produces.
pub fn conditions() -> (&'static [&'static str], &'static [&'static str]) {
    (
        &["scf.*"],
        &["cf.br", "cf.cond_br", "arith.addi", "arith.cmpi"],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_ir::parse_module;
    use td_ir::verify::verify;

    fn lower(src: &str) -> (Context, OpId) {
        let mut ctx = Context::new();
        crate::register_all_dialects(&mut ctx);
        let m = parse_module(&mut ctx, src).unwrap();
        ScfToCfPass.run(&mut ctx, m).unwrap();
        (ctx, m)
    }

    #[test]
    fn lowers_simple_loop() {
        let (ctx, m) = lower(
            r#"module {
  func.func @f() {
    %lo = arith.constant 0 : index
    %hi = arith.constant 8 : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {
      "test.body"(%i) : (index) -> ()
    }
    func.return
  }
}"#,
        );
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(!names.contains(&"scf.for"), "{names:?}");
        assert!(names.contains(&"cf.br"));
        assert!(names.contains(&"cf.cond_br"));
        assert!(names.contains(&"arith.cmpi"));
        assert!(verify(&ctx, m).is_ok(), "{:?}", verify(&ctx, m));
        // Function now has 4 blocks: entry, exit-tail, header, body.
        let func = ctx
            .walk_nested(m)
            .into_iter()
            .find(|&o| ctx.op(o).name.as_str() == "func.func")
            .unwrap();
        let region = ctx.op(func).regions()[0];
        assert_eq!(ctx.region(region).blocks().len(), 4);
    }

    #[test]
    fn lowers_nested_loops() {
        let (ctx, m) = lower(
            r#"module {
  func.func @f() {
    %lo = arith.constant 0 : index
    %hi = arith.constant 4 : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {
      scf.for %j = %lo to %hi step %st {
        "test.body"(%i, %j) : (index, index) -> ()
      }
    }
    func.return
  }
}"#,
        );
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(!names.contains(&"scf.for"));
        assert_eq!(names.iter().filter(|&&n| n == "cf.cond_br").count(), 2);
        assert!(verify(&ctx, m).is_ok(), "{:?}", verify(&ctx, m));
    }

    #[test]
    fn lowers_if_with_else() {
        let (ctx, m) = lower(
            r#"module {
  func.func @f(%c: i1) {
    "scf.if"(%c) ({
      "test.then"() : () -> ()
      "scf.yield"() : () -> ()
    }, {
      "test.else"() : () -> ()
      "scf.yield"() : () -> ()
    }) : (i1) -> ()
    func.return
  }
}"#,
        );
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(!names.contains(&"scf.if"));
        assert!(names.contains(&"test.then"));
        assert!(names.contains(&"test.else"));
        assert!(names.contains(&"cf.cond_br"));
        assert!(verify(&ctx, m).is_ok(), "{:?}", verify(&ctx, m));
    }

    #[test]
    fn inlines_execute_region() {
        let (ctx, m) = lower(
            r#"module {
  func.func @f() {
    "scf.execute_region"() ({
      "test.inner"() : () -> ()
      "scf.yield"() : () -> ()
    }) : () -> ()
    func.return
  }
}"#,
        );
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(!names.contains(&"scf.execute_region"));
        assert!(names.contains(&"test.inner"));
        assert!(verify(&ctx, m).is_ok());
    }
}
