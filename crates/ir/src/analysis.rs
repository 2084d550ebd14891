//! IR analyses: CFG reachability and dominance.
//!
//! Used by the verifier to check SSA dominance in multi-block regions
//! (which appear after `convert-scf-to-cf`), and available to passes.

use crate::ir::{BlockId, Context, RegionId};
use std::collections::HashMap;

/// Dominance information for one region's CFG.
///
/// Computed with the classic iterative data-flow algorithm (Cooper, Harvey,
/// Kennedy): fast enough for the block counts this workspace produces and
/// simple enough to audit.
#[derive(Debug)]
pub struct Dominance {
    /// Reverse-post-order of reachable blocks.
    rpo: Vec<BlockId>,
    /// Immediate dominator of each reachable block (entry maps to itself).
    idom: HashMap<BlockId, BlockId>,
    entry: Option<BlockId>,
}

impl Dominance {
    /// Computes dominance for `region`.
    pub fn compute(ctx: &Context, region: RegionId) -> Dominance {
        let blocks = ctx.region(region).blocks();
        let Some(&entry) = blocks.first() else {
            return Dominance {
                rpo: vec![],
                idom: HashMap::new(),
                entry: None,
            };
        };

        // Successors of a block are the successors of its terminator.
        let successors = |b: BlockId| -> Vec<BlockId> {
            match ctx.block(b).last_op() {
                Some(term) => ctx.op(term).successors().to_vec(),
                None => vec![],
            }
        };

        // Post-order DFS from the entry.
        let mut post_order = Vec::new();
        let mut visited = std::collections::HashSet::new();
        let mut stack = vec![(entry, 0usize)];
        visited.insert(entry);
        while let Some(&mut (block, ref mut child)) = stack.last_mut() {
            let succ = successors(block);
            if *child < succ.len() {
                let next = succ[*child];
                *child += 1;
                if visited.insert(next) {
                    stack.push((next, 0));
                }
            } else {
                post_order.push(block);
                stack.pop();
            }
        }
        let mut rpo = post_order.clone();
        rpo.reverse();
        let order_index: HashMap<BlockId, usize> =
            rpo.iter().enumerate().map(|(i, &b)| (b, i)).collect();

        // Predecessor map over reachable blocks.
        let mut preds: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
        for &b in &rpo {
            for s in successors(b) {
                if order_index.contains_key(&s) {
                    preds.entry(s).or_default().push(b);
                }
            }
        }

        let mut idom: HashMap<BlockId, BlockId> = HashMap::new();
        idom.insert(entry, entry);
        let intersect = |idom: &HashMap<BlockId, BlockId>, mut a: BlockId, mut b: BlockId| {
            while a != b {
                while order_index[&a] > order_index[&b] {
                    a = idom[&a];
                }
                while order_index[&b] > order_index[&a] {
                    b = idom[&b];
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in preds.get(&b).map(Vec::as_slice).unwrap_or(&[]) {
                    if !idom.contains_key(&p) {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(current) => intersect(&idom, current, p),
                    });
                }
                if let Some(new_idom) = new_idom {
                    if idom.get(&b) != Some(&new_idom) {
                        idom.insert(b, new_idom);
                        changed = true;
                    }
                }
            }
        }
        Dominance {
            rpo,
            idom,
            entry: Some(entry),
        }
    }

    /// Whether block `a` dominates block `b`. Unreachable blocks dominate
    /// nothing and are dominated by nothing (except themselves).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if a == b {
            return true;
        }
        let Some(entry) = self.entry else {
            return false;
        };
        if !self.idom.contains_key(&b) || !self.idom.contains_key(&a) {
            return false;
        }
        let mut cursor = b;
        while cursor != entry {
            cursor = self.idom[&cursor];
            if cursor == a {
                return true;
            }
        }
        a == entry
    }

    /// Whether the block is reachable from the entry.
    pub fn is_reachable(&self, block: BlockId) -> bool {
        self.idom.contains_key(&block)
    }

    /// Reachable blocks in reverse post-order.
    pub fn reverse_post_order(&self) -> &[BlockId] {
        &self.rpo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_support::Location;

    /// Builds a region with a diamond CFG: entry → {then, else} → merge.
    fn diamond() -> (Context, RegionId, [BlockId; 4]) {
        let mut ctx = Context::new();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let wrap = ctx.create_op(Location::unknown(), "test.wrap", vec![], vec![], vec![], 1);
        ctx.append_op(body, wrap);
        let region = ctx.op(wrap).regions()[0];
        let entry = ctx.append_block(region, &[]);
        let then_b = ctx.append_block(region, &[]);
        let else_b = ctx.append_block(region, &[]);
        let merge = ctx.append_block(region, &[]);
        let cond = ctx.create_op(Location::unknown(), "cf.cond_br", vec![], vec![], vec![], 0);
        ctx.append_op(entry, cond);
        ctx.set_successors(cond, vec![then_b, else_b]);
        for b in [then_b, else_b] {
            let br = ctx.create_op(Location::unknown(), "cf.br", vec![], vec![], vec![], 0);
            ctx.append_op(b, br);
            ctx.set_successors(br, vec![merge]);
        }
        let ret = ctx.create_op(Location::unknown(), "test.done", vec![], vec![], vec![], 0);
        ctx.append_op(merge, ret);
        (ctx, region, [entry, then_b, else_b, merge])
    }

    #[test]
    fn diamond_dominance() {
        let (ctx, region, [entry, then_b, else_b, merge]) = diamond();
        let dom = Dominance::compute(&ctx, region);
        assert!(dom.dominates(entry, merge));
        assert!(dom.dominates(entry, then_b));
        assert!(!dom.dominates(then_b, merge), "merge has two predecessors");
        assert!(!dom.dominates(else_b, merge));
        assert!(dom.dominates(merge, merge));
        assert_eq!(dom.reverse_post_order().len(), 4);
    }

    #[test]
    fn unreachable_blocks() {
        let (mut ctx, region, [entry, ..]) = diamond();
        let orphan = ctx.append_block(region, &[]);
        let dom = Dominance::compute(&ctx, region);
        assert!(dom.is_reachable(entry));
        assert!(!dom.is_reachable(orphan));
        assert!(!dom.dominates(entry, orphan));
        assert!(dom.dominates(orphan, orphan));
    }

    #[test]
    fn empty_region() {
        let mut ctx = Context::new();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let wrap = ctx.create_op(Location::unknown(), "test.wrap", vec![], vec![], vec![], 1);
        ctx.append_op(body, wrap);
        let region = ctx.op(wrap).regions()[0];
        let dom = Dominance::compute(&ctx, region);
        assert!(dom.reverse_post_order().is_empty());
    }

    #[test]
    fn loop_cfg() {
        // entry -> header; header -> body | exit; body -> header.
        let mut ctx = Context::new();
        let module = ctx.create_module(Location::unknown());
        let mbody = ctx.sole_block(module, 0);
        let wrap = ctx.create_op(Location::unknown(), "test.wrap", vec![], vec![], vec![], 1);
        ctx.append_op(mbody, wrap);
        let region = ctx.op(wrap).regions()[0];
        let entry = ctx.append_block(region, &[]);
        let header = ctx.append_block(region, &[]);
        let lbody = ctx.append_block(region, &[]);
        let exit = ctx.append_block(region, &[]);
        let mk = |ctx: &mut Context, b: BlockId, succ: Vec<BlockId>| {
            let op = ctx.create_op(Location::unknown(), "cf.br", vec![], vec![], vec![], 0);
            ctx.append_op(b, op);
            ctx.set_successors(op, succ);
        };
        mk(&mut ctx, entry, vec![header]);
        mk(&mut ctx, header, vec![lbody, exit]);
        mk(&mut ctx, lbody, vec![header]);
        mk(&mut ctx, exit, vec![]);
        let dom = Dominance::compute(&ctx, region);
        assert!(dom.dominates(header, lbody));
        assert!(dom.dominates(header, exit));
        assert!(!dom.dominates(lbody, exit));
    }
}
