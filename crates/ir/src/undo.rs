//! The incremental undo log behind transactional payload application.
//!
//! The [`Context`](crate::Context) records, behind a one-branch fast
//! path, the *inverse* of every primitive mutation it performs while a
//! watermark is open: a created op undoes to an erase, an erased op undoes
//! to a reinsert of the moved-out payload under its original generational
//! id ([`td_support::Arena::restore`]), an attribute or operand write
//! undoes to the old value, and so on.
//!
//! A *watermark* ([`Context::begin_watermark`](crate::Context::begin_watermark))
//! is the current length of the entry vector, and rollback pops entries
//! back to it, applying each inverse in place. Watermarks nest: an inner
//! watermark can commit (keep entries, the outer one may still roll
//! everything back) or roll back (pop to its own mark) independently.
//! This is the system's one rollback mechanism: the interpreter's
//! top-level transactions, its per-step scopes and every
//! `transform.alternatives` branch are watermarks on this log.
//!
//! # Fixed-size entries and side stacks
//!
//! An [`UndoEntry`] is a `Copy` record of at most 24 bytes (asserted at
//! compile time): ids, `u32` positions and interned names, never owned
//! data. Whatever an inverse needs that is large or variable-length lives
//! on one of the typed [`SideStacks`] instead — the payload of a freed op,
//! value, block or region, a replaced block list, the uses a
//! `replace_all_uses` moved, an overwritten or removed attribute. Logging
//! therefore moves data that was about to be dropped anyway onto a stack
//! whose capacity outlives the transaction, and never boxes or clones a
//! list.
//!
//! The one invariant that makes this work: **a mutator pushes its side
//! data immediately before its entry, and the replay of that entry pops
//! the same data.** Entries replay strictly in reverse, so each entry's
//! side data is on top of its stack when it replays, and rolling back to a
//! mark leaves every side stack at the length it had when the mark opened
//! (checked on every rollback, release builds included). The outermost
//! commit or rollback clears the entries and every side stack together.
//!
//! A block's ops are a linked list, so a detach records where the op
//! goes back as an id, not an index: the sibling that followed it
//! (`OpDetachedBefore`) or, if it was last, its block
//! (`OpDetachedAtEnd`). Replay runs in reverse, so that sibling is back in
//! place when the detach replays.
//!
//! # What is and is not undoable
//!
//! Every public [`Context`](crate::Context) mutator is logged. The one
//! deliberate exception is the *parser*, which builds fresh ops through
//! private arena access: parsing new IR into a context while a watermark
//! is open leaks the parsed entities on rollback (they are simply not
//! unwound — they were never part of the watermarked module). Rollback
//! correctness is therefore verified end-to-end: a watermark that names
//! an op compares live entity counts after the replay in every build, and
//! in debug builds the structural fingerprint captured when the watermark
//! opened must match the replayed module.

use crate::attrs::Attribute;
use crate::ir::{
    BlockData, BlockId, BlockList, OpData, OpId, RegionData, RegionId, ValueData, ValueId,
};
use crate::types::TypeId;
use td_support::Symbol;

/// One recorded inverse operation. Entries are replayed strictly in
/// reverse, so each one only assumes the state the *next*-later mutation
/// left behind. Kinds marked "side:" own data on [`SideStacks`], pushed
/// just before the entry and popped by its replay.
#[derive(Clone, Copy, Debug)]
pub(crate) enum UndoEntry {
    /// `create_op` allocated `op` (plus its result values and empty
    /// regions, all readable from the arena at undo time).
    OpCreated { op: OpId },
    /// `append_block` allocated `block` (plus its argument values) and
    /// pushed it onto its region's block list.
    BlockCreated { block: BlockId },
    /// `add_block_arg` pushed `value` onto `block`'s argument list.
    BlockArgAdded { block: BlockId, value: ValueId },
    /// An insertion attached `op` to a block.
    OpInserted { op: OpId },
    /// `detach_op` removed `op` from just before `next`.
    OpDetachedBefore { op: OpId, next: OpId },
    /// `detach_op` removed `op` from the end of `block`.
    OpDetachedAtEnd { op: OpId, block: BlockId },
    /// `set_operand` overwrote operand `index` of `op` (was `old`).
    OperandSet { op: OpId, index: u32, old: ValueId },
    /// `append_operand` pushed an operand onto `op`.
    OperandAppended { op: OpId },
    /// `set_op_name` renamed `op` (was `old`).
    NameSet { op: OpId, old: Symbol },
    /// `set_successors` overwrote `op`'s successor list. Side: the old
    /// list on `block_lists`.
    SuccessorsSet { op: OpId },
    /// `replace_all_uses` moved `count` uses from `old` onto `new`. Side:
    /// those uses, in order, on `uses`.
    UsesReplaced {
        old: ValueId,
        new: ValueId,
        count: u32,
    },
    /// `set_attr` wrote attribute `name` on `op`. Side, if `replaced`: the
    /// overwritten value on `attrs` (otherwise the attribute was new).
    AttrSet {
        op: OpId,
        name: Symbol,
        replaced: bool,
    },
    /// `remove_attr` removed `name` from position `index`. Side: the
    /// removed value on `attrs`.
    AttrRemoved { op: OpId, index: u32, name: Symbol },
    /// `set_value_type` retyped `value` (was `old`).
    ValueTypeSet { value: ValueId, old: TypeId },
    /// `transfer_region_blocks` moved blocks from `from` to the end of
    /// `to`. Side: the moved list on `block_lists`.
    BlocksTransferred { from: RegionId, to: RegionId },
    /// `erase_op` unlinked use `(op, index)` from `value`'s use list.
    UseUnlinked {
        value: ValueId,
        op: OpId,
        index: u32,
    },
    /// An op slot was freed. Side: the moved-out payload on `ops`.
    OpFreed { op: OpId },
    /// A value slot was freed. Side: the moved-out payload on `values`.
    ValueFreed { value: ValueId },
    /// A block slot was freed. Side: the moved-out payload on `blocks`.
    BlockFreed { block: BlockId },
    /// A region slot was freed. Side: the moved-out payload on `regions`.
    RegionFreed { region: RegionId },
    /// `erase_region_contents` took `region`'s block list. Side: the list
    /// on `block_lists`.
    RegionBlocksTaken { region: RegionId },
}

// The point of the layout: an entry is a few ids, so pushing one is a
// 24-byte copy (it was 72 with the payloads inline).
const _: () = assert!(std::mem::size_of::<UndoEntry>() <= 24);

/// The typed stacks holding what entries do not: see the module docs for
/// the push-before-entry / pop-in-reverse invariant.
#[derive(Debug, Default)]
pub(crate) struct SideStacks {
    /// Payloads of freed ops (`OpFreed`).
    pub(crate) ops: Vec<OpData>,
    /// Payloads of freed values (`ValueFreed`).
    pub(crate) values: Vec<ValueData>,
    /// Payloads of freed blocks (`BlockFreed`).
    pub(crate) blocks: Vec<BlockData>,
    /// Payloads of freed regions (`RegionFreed`).
    pub(crate) regions: Vec<RegionData>,
    /// Old successor lists and moved or taken region block lists
    /// (`SuccessorsSet`, `BlocksTransferred`, `RegionBlocksTaken`).
    pub(crate) block_lists: Vec<BlockList>,
    /// Uses moved by `replace_all_uses`, flattened (`UsesReplaced`).
    pub(crate) uses: Vec<(OpId, u32)>,
    /// Overwritten and removed attribute values (`AttrSet`,
    /// `AttrRemoved`).
    pub(crate) attrs: Vec<Attribute>,
}

impl SideStacks {
    /// Length of every stack, in field order.
    fn lens(&self) -> [usize; 7] {
        [
            self.ops.len(),
            self.values.len(),
            self.blocks.len(),
            self.regions.len(),
            self.block_lists.len(),
            self.uses.len(),
            self.attrs.len(),
        ]
    }

    fn clear(&mut self) {
        self.ops.clear();
        self.values.clear();
        self.blocks.clear();
        self.regions.clear();
        self.block_lists.clear();
        self.uses.clear();
        self.attrs.clear();
    }
}

/// An open watermark: where in the entry vector it starts, the side
/// stacks' lengths at that point, and a token unique within its `UndoLog`
/// so two watermarks opened at the same entry count (a nested scope with
/// no mutations in between) stay distinguishable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Mark {
    token: u64,
    pos: usize,
    sides: [usize; 7],
}

impl Mark {
    /// Entry count at watermark time.
    pub(crate) fn pos(self) -> usize {
        self.pos
    }
}

/// The undo log: the entry vector, its side stacks and the stack of open
/// watermarks.
///
/// Every mutator asks [`UndoLog::edit`] whether to log: the call counts
/// the edit and returns `active`, which is `false` when no watermark is
/// open, so mutation then costs an add and one branch.
#[derive(Debug, Default)]
pub(crate) struct UndoLog {
    entries: Vec<UndoEntry>,
    /// Data the entries refer to; mutators push here, then `push` their
    /// entry.
    pub(crate) side: SideStacks,
    /// Open watermarks, outermost first.
    open: Vec<Mark>,
    /// Token source for [`Mark`]s.
    next_token: u64,
    /// Whether any watermark is open — the mutators' fast-path flag.
    pub(crate) active: bool,
    /// Net payload edits: +1 per [`UndoLog::edit`], −1 per entry a
    /// rollback replays, so a rolled-back scope nets to zero.
    pub(crate) edits: u64,
}

impl UndoLog {
    /// Counts one payload edit and returns whether the log records it (a
    /// watermark is open); a mutator that gets `true` pushes exactly one
    /// entry.
    #[inline]
    pub(crate) fn edit(&mut self) -> bool {
        self.edits += 1;
        self.active
    }

    /// Records one inverse operation, after any side data it owns.
    /// Callers ask [`UndoLog::edit`] first.
    #[inline]
    pub(crate) fn push(&mut self, entry: UndoEntry) {
        self.entries.push(entry);
    }

    /// Opens a watermark at the current entry count.
    pub(crate) fn begin(&mut self) -> Mark {
        let mark = Mark {
            token: self.next_token,
            pos: self.entries.len(),
            sides: self.side.lens(),
        };
        self.next_token += 1;
        self.open.push(mark);
        self.active = true;
        mark
    }

    /// Total entries currently held (all open watermarks combined).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of open watermarks.
    pub(crate) fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes `mark` and any *deeper* watermark still open: a panic that
    /// unwound through nested scopes leaves their marks behind, and the
    /// enclosing commit/rollback owns them. Entries are untouched; a
    /// rollback then replays [`UndoLog::pop_since`] to exhaustion and
    /// calls [`UndoLog::rolled_back`].
    ///
    /// Returns `false` if `mark` is not an open watermark (double close).
    pub(crate) fn close(&mut self, mark: Mark) -> bool {
        let Some(pos) = self.open.iter().position(|m| m.token == mark.token) else {
            return false;
        };
        self.open.truncate(pos);
        true
    }

    /// Once no watermark is open, drops every entry and all side data and
    /// turns recording off.
    fn settle(&mut self) {
        if self.open.is_empty() {
            self.entries.clear();
            self.side.clear();
            self.active = false;
        }
    }

    /// Closes `mark`, keeping its entries (an enclosing watermark may
    /// still roll them back). When the outermost watermark closes the log
    /// is cleared.
    ///
    /// Returns `false` if `mark` is not an open watermark (double close).
    pub(crate) fn commit(&mut self, mark: Mark) -> bool {
        if !self.close(mark) {
            return false;
        }
        self.settle();
        true
    }

    /// Pops the latest entry recorded since `mark`, if any, for in-place
    /// replay.
    #[inline]
    pub(crate) fn pop_since(&mut self, mark: Mark) -> Option<UndoEntry> {
        if self.entries.len() > mark.pos {
            self.edits -= 1;
            self.entries.pop()
        } else {
            None
        }
    }

    /// Finishes a rollback to `mark` once every entry since it replayed:
    /// each replay popped exactly the side data its mutator pushed, so
    /// every side stack is back at its length when `mark` opened — empty,
    /// for the outermost mark, before `settle` clears anything. Returns
    /// whether that held (an O(1) check, made in every build).
    #[must_use]
    pub(crate) fn rolled_back(&mut self, mark: Mark) -> bool {
        debug_assert_eq!(self.entries.len(), mark.pos, "rollback stopped early");
        let balanced = self.side.lens() == mark.sides;
        self.settle();
        balanced
    }
}

#[cfg(test)]
impl UndoLog {
    /// The entries currently held, oldest first.
    pub(crate) fn entries(&self) -> &[UndoEntry] {
        &self.entries
    }
}

#[cfg(test)]
impl UndoEntry {
    /// Number of entry kinds; [`UndoEntry::kind`] numbers them densely.
    pub(crate) const KINDS: usize = 21;

    /// This entry's kind in `0..KINDS`. The match is exhaustive, so a new
    /// kind does not compile until it is numbered here (and `KINDS`
    /// grows, which the `random_burst` coverage test then holds to).
    pub(crate) fn kind(&self) -> usize {
        match self {
            UndoEntry::OpCreated { .. } => 0,
            UndoEntry::BlockCreated { .. } => 1,
            UndoEntry::BlockArgAdded { .. } => 2,
            UndoEntry::OpInserted { .. } => 3,
            UndoEntry::OpDetachedBefore { .. } => 4,
            UndoEntry::OperandSet { .. } => 5,
            UndoEntry::OperandAppended { .. } => 6,
            UndoEntry::NameSet { .. } => 7,
            UndoEntry::SuccessorsSet { .. } => 8,
            UndoEntry::UsesReplaced { .. } => 9,
            UndoEntry::AttrSet { .. } => 10,
            UndoEntry::AttrRemoved { .. } => 11,
            UndoEntry::ValueTypeSet { .. } => 12,
            UndoEntry::BlocksTransferred { .. } => 13,
            UndoEntry::UseUnlinked { .. } => 14,
            UndoEntry::OpFreed { .. } => 15,
            UndoEntry::ValueFreed { .. } => 16,
            UndoEntry::BlockFreed { .. } => 17,
            UndoEntry::RegionFreed { .. } => 18,
            UndoEntry::RegionBlocksTaken { .. } => 19,
            UndoEntry::OpDetachedAtEnd { .. } => 20,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Logs `entry` the way a mutator does.
    fn record(log: &mut UndoLog, entry: UndoEntry) {
        assert!(log.edit(), "a watermark is open");
        log.push(entry);
    }

    /// Pops everything since `mark` the way `Context::rollback_watermark`
    /// does, without applying it.
    fn rollback(log: &mut UndoLog, mark: Mark) -> Option<Vec<UndoEntry>> {
        if !log.close(mark) {
            return None;
        }
        let mut tail = Vec::new();
        while let Some(entry) = log.pop_since(mark) {
            tail.push(entry);
        }
        assert!(log.rolled_back(mark), "side stacks balance");
        Some(tail)
    }

    #[test]
    fn watermarks_nest_and_clear() {
        let mut log = UndoLog::default();
        assert!(!log.active);
        let outer = log.begin();
        assert!(log.active);
        record(
            &mut log,
            UndoEntry::OpInserted {
                op: OpId::from_raw(0, 0),
            },
        );
        let inner = log.begin();
        record(
            &mut log,
            UndoEntry::OpInserted {
                op: OpId::from_raw(1, 0),
            },
        );
        assert_eq!(log.depth(), 2);
        assert!(log.commit(inner), "inner commit keeps entries");
        assert_eq!(log.len(), 2);
        assert!(log.active);
        assert_eq!(log.edits, 2);
        let tail = rollback(&mut log, outer).expect("outer is open");
        assert_eq!(tail.len(), 2, "outer rollback sees the inner entries");
        assert!(!log.active, "outermost close clears the log");
        assert_eq!(log.len(), 0);
        assert_eq!(log.edits, 0, "replayed entries wind the edit count back");
        assert!(!log.edit(), "unlogged edits still count");
        assert_eq!(log.edits, 1);
    }

    #[test]
    fn rollback_drains_in_reverse() {
        let mut log = UndoLog::default();
        let mark = log.begin();
        record(
            &mut log,
            UndoEntry::OpInserted {
                op: OpId::from_raw(7, 0),
            },
        );
        record(
            &mut log,
            UndoEntry::OpInserted {
                op: OpId::from_raw(8, 0),
            },
        );
        let tail = rollback(&mut log, mark).unwrap();
        match (&tail[0], &tail[1]) {
            (UndoEntry::OpInserted { op: first }, UndoEntry::OpInserted { op: second }) => {
                assert_eq!(first.index(), 8);
                assert_eq!(second.index(), 7);
            }
            other => panic!("unexpected entries {other:?}"),
        }
    }

    #[test]
    fn double_close_is_detected() {
        let mut log = UndoLog::default();
        let mark = log.begin();
        assert!(log.commit(mark));
        assert!(!log.commit(mark), "second close of the same mark");
        assert!(rollback(&mut log, mark).is_none());
    }

    #[test]
    fn close_drops_abandoned_deeper_watermarks() {
        let mut log = UndoLog::default();
        let outer = log.begin();
        let _inner = log.begin(); // abandoned, as a panic unwind would
        record(
            &mut log,
            UndoEntry::OpInserted {
                op: OpId::from_raw(0, 0),
            },
        );
        let tail = rollback(&mut log, outer).expect("outer still open");
        assert_eq!(tail.len(), 1);
        assert_eq!(log.depth(), 0);
        assert!(!log.active);
    }

    #[test]
    fn the_outermost_commit_empties_every_side_stack() {
        let mut log = UndoLog::default();
        let outer = log.begin();
        let inner = log.begin();
        log.side.uses.push((OpId::from_raw(3, 0), 1));
        record(
            &mut log,
            UndoEntry::UsesReplaced {
                old: ValueId::from_raw(0, 0),
                new: ValueId::from_raw(1, 0),
                count: 1,
            },
        );
        log.side.attrs.push(Attribute::Int(4));
        record(
            &mut log,
            UndoEntry::AttrSet {
                op: OpId::from_raw(3, 0),
                name: Symbol::new("n"),
                replaced: true,
            },
        );
        assert!(log.commit(inner));
        assert_eq!(
            log.side.lens(),
            [0, 0, 0, 0, 0, 1, 1],
            "inner commit keeps them"
        );
        assert!(log.commit(outer));
        assert_eq!(log.side.lens(), [0; 7]);
        assert_eq!(log.len(), 0);
    }
}
