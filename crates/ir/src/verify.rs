//! The IR verifier.
//!
//! Checks the structural invariants that the rest of the system (passes,
//! the transform interpreter, the execution substrate) relies on:
//!
//! * entity liveness and parent-link consistency;
//! * SSA visibility and dominance (including across blocks of a CFG region);
//! * isolation (`IsolatedFromAbove` ops may not capture outside values);
//! * terminator discipline and successor well-formedness;
//! * per-op verifier hooks registered in the dialect registry.

use crate::analysis::Dominance;
use crate::dialect::OpTraits;
use crate::ir::{BlockId, Context, OpId, ValueDef, ValueId};
use std::collections::HashMap;
use td_support::Diagnostic;

/// Verifies `root` and everything nested in it.
///
/// # Errors
/// Returns all violations found (not just the first).
pub fn verify(ctx: &Context, root: OpId) -> Result<(), Vec<Diagnostic>> {
    let mut verifier = Verifier {
        ctx,
        diags: Vec::new(),
        dominance: HashMap::new(),
    };
    verifier.verify_op(root);
    if verifier.diags.is_empty() {
        Ok(())
    } else {
        Err(verifier.diags)
    }
}

struct Verifier<'c> {
    ctx: &'c Context,
    diags: Vec<Diagnostic>,
    /// Cache of dominance info per region (keyed by region's parent op +
    /// region index for stable hashing).
    dominance: HashMap<crate::ir::RegionId, Dominance>,
}

impl<'c> Verifier<'c> {
    fn error(&mut self, op: OpId, message: String) {
        let loc = self.ctx.op(op).location.clone();
        let name = self.ctx.op(op).name;
        self.diags
            .push(Diagnostic::error(loc, format!("'{name}' op {message}")));
    }

    fn verify_op(&mut self, op: OpId) {
        if !self.ctx.is_live(op) {
            self.diags.push(Diagnostic::error(
                td_support::Location::unknown(),
                "reference to erased operation".to_owned(),
            ));
            return;
        }
        let data = self.ctx.op(op);
        let traits = self.ctx.op_traits(op);

        // Successors allowed only on terminators, and must live in the same
        // region as the op's block.
        if !data.successors().is_empty() {
            if !traits.contains(OpTraits::TERMINATOR) {
                self.error(op, "has successors but is not a terminator".to_owned());
            }
            if let Some(block) = data.parent() {
                let region = self.ctx.block(block).parent();
                for &succ in data.successors() {
                    if self.ctx.block(succ).parent() != region {
                        self.error(op, "successor belongs to a different region".to_owned());
                    }
                }
            }
        }

        // Operand visibility.
        let operands = data.operands().to_vec();
        for (index, &operand) in operands.iter().enumerate() {
            self.verify_operand(op, index, operand);
        }

        // Registered hook.
        if let Some(spec) = self.ctx.registry.spec(self.ctx.op(op).name) {
            if let Some(hook) = spec.verify {
                if let Err(diag) = hook(self.ctx, op) {
                    self.diags.push(diag);
                }
            }
        }

        // Blocks and nested ops.
        let regions = self.ctx.op(op).regions().to_vec();
        for region in regions {
            let blocks = self.ctx.region(region).blocks().to_vec();
            for block in blocks {
                self.verify_block(op, block, traits);
            }
        }
    }

    fn verify_block(&mut self, parent: OpId, block: BlockId, parent_traits: OpTraits) {
        let mut cursor = self.ctx.block(block).first_op();
        while let Some(nested) = cursor {
            cursor = self.ctx.next_op(nested);
            if self.ctx.op(nested).parent() != Some(block) {
                self.error(
                    nested,
                    "parent link does not match containing block".to_owned(),
                );
            }
            let is_last = cursor.is_none();
            let is_terminator = self.ctx.has_trait(nested, OpTraits::TERMINATOR);
            if is_terminator && !is_last {
                self.error(
                    nested,
                    "terminator is not the last operation in its block".to_owned(),
                );
            }
            if is_last && !is_terminator && !parent_traits.contains(OpTraits::NO_TERMINATOR) {
                // Only enforce for registered parents that demand it: blocks
                // in unregistered / NO_TERMINATOR parents are exempt.
                if self.ctx.registry.is_registered(self.ctx.op(parent).name)
                    && self.requires_terminator(parent)
                {
                    self.error(
                        nested,
                        format!(
                            "block of '{}' is not terminated by a terminator op",
                            self.ctx.op(parent).name
                        ),
                    );
                }
            }
            self.verify_op(nested);
        }
    }

    fn requires_terminator(&self, parent: OpId) -> bool {
        !self.ctx.has_trait(parent, OpTraits::NO_TERMINATOR)
    }

    fn verify_operand(&mut self, user: OpId, index: usize, operand: ValueId) {
        if !self.ctx.is_value_live(operand) {
            self.error(user, format!("operand #{index} refers to an erased value"));
            return;
        }
        // Find the defining block.
        let (def_block, def_point): (BlockId, Option<OpId>) = match self.ctx.value_def(operand) {
            ValueDef::OpResult { op, .. } => match self.ctx.op(op).parent() {
                Some(b) => (b, Some(op)),
                None => {
                    self.error(
                        user,
                        format!("operand #{index} is defined by a detached op"),
                    );
                    return;
                }
            },
            ValueDef::BlockArg { block, .. } => (block, None),
        };

        // Walk up from the user until we reach a block in the same region as
        // the definition, checking isolation boundaries along the way.
        let mut cursor = user;
        loop {
            let Some(block) = self.ctx.op(cursor).parent() else {
                // Reached a detached/top-level op without finding the def.
                self.error(
                    user,
                    format!("operand #{index} is not visible from this operation"),
                );
                return;
            };
            if block == def_block {
                // Same block: defs must come before uses.
                if let Some(def_op) = def_point {
                    if def_op == cursor || !self.ctx.is_before(def_op, cursor) {
                        self.error(
                            user,
                            format!("operand #{index} is used before its definition"),
                        );
                    }
                }
                return;
            }
            let block_region = self.ctx.block(block).parent();
            let def_region = self.ctx.block(def_block).parent();
            if block_region == def_region {
                // Same region, different blocks: CFG dominance.
                if let Some(region) = block_region {
                    let dom = self
                        .dominance
                        .entry(region)
                        .or_insert_with(|| Dominance::compute(self.ctx, region));
                    if !dom.dominates(def_block, block) {
                        self.error(user, format!("operand #{index} does not dominate this use"));
                    }
                }
                return;
            }
            // Cross a region boundary: check isolation.
            let Some(parent) = self.ctx.parent_op(cursor) else {
                self.error(
                    user,
                    format!("operand #{index} is not visible from this operation"),
                );
                return;
            };
            if self.ctx.has_trait(parent, OpTraits::ISOLATED_FROM_ABOVE) {
                self.error(
                    user,
                    format!(
                        "operand #{index} crosses the boundary of isolated-from-above op '{}'",
                        self.ctx.op(parent).name
                    ),
                );
                return;
            }
            cursor = parent;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::OpSpec;
    use crate::parse::parse_module;
    use td_support::Location;

    fn register_test_dialect(ctx: &mut Context) {
        ctx.registry
            .register(OpSpec::new("test.done", "terminator").with_traits(OpTraits::TERMINATOR));
        ctx.registry.register(
            OpSpec::new("test.isolated", "isolated region op")
                .with_traits(OpTraits::ISOLATED_FROM_ABOVE | OpTraits::NO_TERMINATOR),
        );
        ctx.registry
            .register(OpSpec::new("builtin.module", "module").with_traits(OpTraits::NO_TERMINATOR));
    }

    #[test]
    fn accepts_well_formed_ir() {
        let mut ctx = Context::new();
        register_test_dialect(&mut ctx);
        let module = parse_module(
            &mut ctx,
            r#"module {
  %a = arith.constant 1 : i32
  "test.use"(%a) : (i32) -> ()
}"#,
        )
        .unwrap();
        assert!(verify(&ctx, module).is_ok());
    }

    #[test]
    fn detects_use_before_def() {
        let mut ctx = Context::new();
        register_test_dialect(&mut ctx);
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let i32t = ctx.i32_type();
        let def = ctx.create_op(
            Location::unknown(),
            "arith.constant",
            vec![],
            [i32t],
            vec![],
            0,
        );
        ctx.append_op(body, def);
        let v = ctx.op(def).results()[0];
        let user = ctx.create_op(Location::unknown(), "test.use", [v], vec![], vec![], 0);
        ctx.prepend_op(body, user); // user before def
        let errs = verify(&ctx, module).unwrap_err();
        assert!(errs
            .iter()
            .any(|d| d.message().contains("used before its definition")));
    }

    #[test]
    fn detects_isolation_violation() {
        let mut ctx = Context::new();
        register_test_dialect(&mut ctx);
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let i32t = ctx.i32_type();
        let def = ctx.create_op(
            Location::unknown(),
            "arith.constant",
            vec![],
            [i32t],
            vec![],
            0,
        );
        ctx.append_op(body, def);
        let v = ctx.op(def).results()[0];
        let isolated = ctx.create_op(
            Location::unknown(),
            "test.isolated",
            vec![],
            vec![],
            vec![],
            1,
        );
        ctx.append_op(body, isolated);
        let region = ctx.op(isolated).regions()[0];
        let inner = ctx.append_block(region, &[]);
        let user = ctx.create_op(Location::unknown(), "test.use", [v], vec![], vec![], 0);
        ctx.append_op(inner, user);
        let errs = verify(&ctx, module).unwrap_err();
        assert!(
            errs.iter()
                .any(|d| d.message().contains("isolated-from-above")),
            "{errs:?}"
        );
    }

    #[test]
    fn allows_capture_into_non_isolated_region() {
        let mut ctx = Context::new();
        register_test_dialect(&mut ctx);
        let module = parse_module(
            &mut ctx,
            r#"module {
  %c = arith.constant 0 : index
  %n = arith.constant 4 : index
  %s = arith.constant 1 : index
  scf.for %i = %c to %n step %s {
    "test.use"(%c) : (index) -> ()
  }
}"#,
        )
        .unwrap();
        assert!(verify(&ctx, module).is_ok());
    }

    #[test]
    fn detects_misplaced_terminator() {
        let mut ctx = Context::new();
        register_test_dialect(&mut ctx);
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let t = ctx.create_op(Location::unknown(), "test.done", vec![], vec![], vec![], 0);
        ctx.append_op(body, t);
        let after = ctx.create_op(Location::unknown(), "test.other", vec![], vec![], vec![], 0);
        ctx.append_op(body, after);
        let errs = verify(&ctx, module).unwrap_err();
        assert!(errs
            .iter()
            .any(|d| d.message().contains("terminator is not the last")));
    }

    #[test]
    fn detects_cfg_dominance_violation() {
        let mut ctx = Context::new();
        register_test_dialect(&mut ctx);
        ctx.registry
            .register(OpSpec::new("cf.br", "branch").with_traits(OpTraits::TERMINATOR));
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let wrap = ctx.create_op(
            Location::unknown(),
            "test.isolated",
            vec![],
            vec![],
            vec![],
            1,
        );
        ctx.append_op(body, wrap);
        let region = ctx.op(wrap).regions()[0];
        let entry = ctx.append_block(region, &[]);
        let b1 = ctx.append_block(region, &[]);
        let b2 = ctx.append_block(region, &[]);
        // entry branches to b1 or b2; b1 defines a value used in b2.
        let br = ctx.create_op(Location::unknown(), "cf.br", vec![], vec![], vec![], 0);
        ctx.append_op(entry, br);
        ctx.set_successors(br, vec![b1, b2]);
        let i32t = ctx.i32_type();
        let def = ctx.create_op(
            Location::unknown(),
            "arith.constant",
            vec![],
            [i32t],
            vec![],
            0,
        );
        ctx.append_op(b1, def);
        let br1 = ctx.create_op(Location::unknown(), "cf.br", vec![], vec![], vec![], 0);
        ctx.append_op(b1, br1);
        ctx.set_successors(br1, vec![b2]);
        let v = ctx.op(def).results()[0];
        let user = ctx.create_op(Location::unknown(), "test.use", [v], vec![], vec![], 0);
        ctx.append_op(b2, user);
        let done = ctx.create_op(Location::unknown(), "test.done", vec![], vec![], vec![], 0);
        ctx.append_op(b2, done);
        let errs = verify(&ctx, module).unwrap_err();
        assert!(
            errs.iter()
                .any(|d| d.message().contains("does not dominate")),
            "expected dominance error, got {errs:?}"
        );
    }
}
