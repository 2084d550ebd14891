//! Cheap structural IR fingerprinting, backing the print-only-on-change
//! mode of the IR-snapshot instrumentation (`TD_PRINT_IR_AFTER=changed`)
//! and any future pass-caching work.
//!
//! The fingerprint is an FNV-1a hash over a preorder walk of the op tree:
//! op names, attribute dictionaries, operand/result identities and types,
//! and region/block shape. It hashes through a `fmt::Write` adapter, so no
//! intermediate strings are allocated — unlike hashing the printed form,
//! this stays cheap enough to run after every pass.
//!
//! Fingerprints are *context-relative*: they include arena value ids, so
//! two structurally identical modules in different contexts may hash
//! differently. That is exactly the right contract for change detection
//! (same context, before vs. after a pass) and deliberately *not* a
//! structural-equality oracle.

use crate::ir::{BlockId, Context, OpId, ValueId};
use std::collections::HashMap;
use std::fmt::{self, Write};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a hasher usable as a `fmt::Write` sink, so `Debug`/`Display`
/// implementations feed it without allocating.
struct FnvWriter(u64);

impl FnvWriter {
    fn new() -> Self {
        FnvWriter(FNV_OFFSET)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

impl Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// Computes the structural fingerprint of `root` and everything nested in
/// it. Deterministic within a context; any mutation reachable from `root`
/// (op inserted/erased/renamed, attribute changed, operand rewired, type
/// changed, block structure altered) changes the hash with overwhelming
/// probability.
pub fn fingerprint_op(ctx: &Context, root: OpId) -> u64 {
    let mut hasher = FnvWriter::new();
    hash_op(ctx, root, &mut hasher, &mut ArenaIds);
    hasher.0
}

/// Computes a *structural* fingerprint of `root`: like [`fingerprint_op`]
/// but with value and block ids normalized to dense preorder numbers, so
/// two structurally identical op trees hash identically even when their
/// arena ids differ. This is the validation hash of
/// [`Context::rollback_watermark`] and what the fuzz oracle compares
/// re-parsed outputs by. Types are interned per context and hash by id, so
/// the hash is still context-relative across *contexts*.
pub fn structural_fingerprint_op(ctx: &Context, root: OpId) -> u64 {
    let mut hasher = FnvWriter::new();
    hash_op(ctx, root, &mut hasher, &mut Normalizer::default());
    hasher.0
}

/// How the walk names value and block ids: the one difference between the
/// two fingerprints. `hash_op` is generic over it, so each mode is its own
/// monomorphized walk.
trait IdNames {
    fn value(&mut self, hasher: &mut FnvWriter, v: ValueId);
    fn block(&mut self, hasher: &mut FnvWriter, b: BlockId);
    /// Names a region's block where the walk enters it.
    fn entered_block(&mut self, hasher: &mut FnvWriter, b: BlockId) {
        self.block(hasher, b);
    }
}

/// Arena ids as they are (`fingerprint_op`); an entered block is named by
/// position only.
struct ArenaIds;

impl IdNames for ArenaIds {
    fn value(&mut self, hasher: &mut FnvWriter, v: ValueId) {
        let _ = write!(hasher, "{v:?}");
    }

    fn block(&mut self, hasher: &mut FnvWriter, b: BlockId) {
        let _ = write!(hasher, "{b:?}");
    }

    fn entered_block(&mut self, _: &mut FnvWriter, _: BlockId) {}
}

/// First-encounter dense numbering of value/block ids along the preorder
/// walk; identical structures encounter ids in identical order.
#[derive(Default)]
struct Normalizer {
    values: HashMap<ValueId, u32>,
    blocks: HashMap<BlockId, u32>,
}

impl IdNames for Normalizer {
    fn value(&mut self, hasher: &mut FnvWriter, v: ValueId) {
        let next = self.values.len() as u32;
        let _ = write!(hasher, "{}", *self.values.entry(v).or_insert(next));
    }

    fn block(&mut self, hasher: &mut FnvWriter, b: BlockId) {
        let next = self.blocks.len() as u32;
        let _ = write!(hasher, "{}", *self.blocks.entry(b).or_insert(next));
    }
}

fn hash_op<N: IdNames>(ctx: &Context, op: OpId, hasher: &mut FnvWriter, ids: &mut N) {
    let data = ctx.op(op);
    let _ = write!(hasher, "o{}", data.name.as_str());
    for &operand in data.operands() {
        hasher.write_bytes(b";");
        ids.value(hasher, operand);
    }
    for &result in data.results() {
        hasher.write_bytes(b">");
        ids.value(hasher, result);
        let _ = write!(hasher, ":{:?}", ctx.value_type(result));
    }
    for (key, value) in data.attributes() {
        let _ = write!(hasher, "@{key}={value:?}");
    }
    for &successor in data.successors() {
        hasher.write_bytes(b"^");
        ids.block(hasher, successor);
    }
    for &region in data.regions() {
        hasher.write_bytes(b"(");
        for &block in ctx.region(region).blocks() {
            hasher.write_bytes(b"[");
            ids.entered_block(hasher, block);
            for &arg in ctx.block(block).args() {
                hasher.write_bytes(b"a");
                ids.value(hasher, arg);
                let _ = write!(hasher, ":{:?}", ctx.value_type(arg));
            }
            for nested in ctx.block_ops(block) {
                hash_op(ctx, nested, hasher, ids);
            }
            hasher.write_bytes(b"]");
        }
        hasher.write_bytes(b")");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Attribute;

    fn module_with_constant() -> (Context, OpId) {
        let mut ctx = Context::new();
        let module = crate::parse_module(
            &mut ctx,
            r#"module {
  %x = arith.constant 41 : i32
  %one = arith.constant 1 : i32
  %sum = "arith.addi"(%x, %one) : (i32, i32) -> i32
}"#,
        )
        .unwrap();
        (ctx, module)
    }

    #[test]
    fn fingerprint_is_stable_across_calls() {
        let (ctx, module) = module_with_constant();
        assert_eq!(fingerprint_op(&ctx, module), fingerprint_op(&ctx, module));
    }

    #[test]
    fn attribute_change_changes_fingerprint() {
        let (mut ctx, module) = module_with_constant();
        let before = fingerprint_op(&ctx, module);
        ctx.set_attr(module, "test.marker", Attribute::Int(1));
        assert_ne!(before, fingerprint_op(&ctx, module));
    }

    #[test]
    fn erasing_an_op_changes_fingerprint() {
        let (mut ctx, module) = module_with_constant();
        let before = fingerprint_op(&ctx, module);
        let add = ctx
            .walk_nested(module)
            .into_iter()
            .find(|&o| ctx.op(o).name.as_str() == "arith.addi")
            .unwrap();
        ctx.erase_op(add);
        assert_ne!(before, fingerprint_op(&ctx, module));
    }

    #[test]
    fn structural_fingerprint_ignores_arena_ids() {
        let (mut ctx, module) = module_with_constant();
        let clone = ctx.clone_op(module, &mut std::collections::HashMap::new());
        assert_ne!(
            fingerprint_op(&ctx, module),
            fingerprint_op(&ctx, clone),
            "the id-sensitive hash distinguishes clones"
        );
        assert_eq!(
            structural_fingerprint_op(&ctx, module),
            structural_fingerprint_op(&ctx, clone),
            "the structural hash does not"
        );
        // But it still sees real structural changes.
        ctx.set_attr(clone, "test.marker", Attribute::Int(1));
        assert_ne!(
            structural_fingerprint_op(&ctx, module),
            structural_fingerprint_op(&ctx, clone)
        );
    }

    #[test]
    fn no_op_pass_preserves_fingerprint() {
        // The contract the on-change print filter relies on: running
        // something that does not touch the IR keeps the hash identical.
        let (ctx, module) = module_with_constant();
        let before = fingerprint_op(&ctx, module);
        let _ = ctx.walk_nested(module); // read-only traversal
        assert_eq!(before, fingerprint_op(&ctx, module));
    }

    /// Both fingerprints' exact values on a module with block arguments,
    /// successors, attributes and nested regions. The `changed` IR-print
    /// filter, flight bundles, the watermark check, the fuzz oracle and the
    /// benchmark's replay read these values, so a change to the walk keeps
    /// every bit.
    #[test]
    fn fingerprint_values_are_pinned() {
        let mut ctx = Context::new();
        let module = crate::parse_module(
            &mut ctx,
            r#"module {
  "test.wrap"() ({
  ^entry(%c: i1, %x: i32):
    %k = arith.constant 7 : i32
    %s = "arith.addi"(%x, %k) {tag = "sum"} : (i32, i32) -> i32
    "cf.cond_br"(%c)[^then, ^else] : (i1) -> ()
  ^then:
    "test.loop"(%s) ({
    ^body(%i: i32):
      "test.use"(%i, %x) : (i32, i32) -> ()
    }) : (i32) -> ()
    "cf.br"()[^merge] : () -> ()
  ^else:
    "cf.br"()[^merge] : () -> ()
  ^merge:
    "test.done"() : () -> ()
  }) : () -> ()
}"#,
        )
        .unwrap();
        assert_eq!(
            (
                fingerprint_op(&ctx, module),
                structural_fingerprint_op(&ctx, module)
            ),
            (0xc99f57e0b8cca7f1, 0x99b4b9ab661b8df0),
            "fingerprints moved"
        );
    }
}
