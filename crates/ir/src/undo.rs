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
//! back to it, applying each inverse. Watermarks nest: an inner watermark
//! can commit (keep entries, the outer one may still roll everything
//! back) or roll back (truncate to its own mark) independently. This is
//! the system's one rollback mechanism: the interpreter's top-level
//! transactions, its per-step scopes and every `transform.alternatives`
//! branch are watermarks on this log.
//!
//! # What is and is not undoable
//!
//! Every public [`Context`](crate::Context) mutator is logged. The one
//! deliberate exception is the *parser*, which builds fresh ops through
//! private arena access: parsing new IR into a context while a watermark
//! is open leaks the parsed entities on rollback (they are simply not
//! unwound — they were never part of the watermarked module). Rollback
//! correctness is therefore verified end-to-end: in debug builds the
//! structural fingerprint captured when the watermark opened must match
//! the replayed module.

use crate::attrs::Attribute;
use crate::ir::{BlockData, BlockId, OpData, OpId, RegionData, RegionId, ValueData, ValueId};
use crate::types::TypeId;
use td_support::Symbol;

/// One recorded inverse operation. Entries are replayed strictly in
/// reverse, so each one only assumes the state the *next*-later mutation
/// left behind.
#[derive(Debug)]
pub(crate) enum UndoEntry {
    /// `create_op` allocated `op` (plus its result values and empty
    /// regions, all readable from the arena at undo time).
    OpCreated { op: OpId },
    /// `append_block` allocated `block` (plus its argument values) and
    /// pushed it onto its region's block list.
    BlockCreated { block: BlockId },
    /// `add_block_arg` pushed `value` onto `block`'s argument list.
    BlockArgAdded { block: BlockId, value: ValueId },
    /// `insert_op` attached `op` to a block.
    OpInserted { op: OpId },
    /// `detach_op` removed `op` from `block` at `index`.
    OpDetached {
        op: OpId,
        block: BlockId,
        index: usize,
    },
    /// `set_operand` overwrote operand `index` of `op` (was `old`).
    OperandSet { op: OpId, index: u32, old: ValueId },
    /// `append_operand` pushed an operand onto `op`.
    OperandAppended { op: OpId },
    /// `set_op_name` renamed `op` (was `old`).
    NameSet { op: OpId, old: Symbol },
    /// `set_successors` overwrote `op`'s successor list (was `old`).
    SuccessorsSet { op: OpId, old: Vec<BlockId> },
    /// `replace_all_uses` moved `uses` from `old` onto `new`.
    UsesReplaced {
        old: ValueId,
        new: ValueId,
        uses: Vec<(OpId, u32)>,
    },
    /// `set_attr` wrote attribute `name` on `op` (`old` is `None` when the
    /// attribute was newly added).
    AttrSet {
        op: OpId,
        name: Symbol,
        old: Option<Attribute>,
    },
    /// `remove_attr` removed `(name, value)` from position `index`.
    AttrRemoved {
        op: OpId,
        index: usize,
        name: Symbol,
        value: Attribute,
    },
    /// `set_value_type` retyped `value` (was `old`).
    ValueTypeSet { value: ValueId, old: TypeId },
    /// `transfer_region_blocks` moved `blocks` from `from` to `to`.
    BlocksTransferred {
        from: RegionId,
        to: RegionId,
        blocks: Vec<BlockId>,
    },
    /// `erase_op` unlinked use `(op, index)` from `value`'s use list.
    UseUnlinked {
        value: ValueId,
        op: OpId,
        index: u32,
    },
    /// An op slot was freed; `data` is the moved-out payload (boxed so
    /// this rare-but-large variant does not inflate every entry push).
    OpFreed { op: OpId, data: Box<OpData> },
    /// A value slot was freed; `data` is the moved-out payload.
    ValueFreed {
        value: ValueId,
        data: Box<ValueData>,
    },
    /// A block slot was freed; `data` is the moved-out payload.
    BlockFreed {
        block: BlockId,
        data: Box<BlockData>,
    },
    /// A region slot was freed; `data` is the moved-out payload.
    RegionFreed {
        region: RegionId,
        data: Box<RegionData>,
    },
    /// `erase_region_contents` took `region`'s block list.
    RegionBlocksTaken {
        region: RegionId,
        blocks: Vec<BlockId>,
    },
}

/// An open watermark: where in the entry vector it starts, plus a token
/// unique within its `UndoLog` so two watermarks opened at the same entry
/// count (a nested scope with no mutations in between) stay
/// distinguishable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Mark {
    token: u64,
    pos: usize,
}

impl Mark {
    /// Entry count at watermark time.
    pub(crate) fn pos(self) -> usize {
        self.pos
    }
}

/// The undo log: the entry vector plus the stack of open watermarks.
///
/// `active` is the one-branch fast path every mutator checks (mirroring
/// `journal::recording()`): when no watermark is open it is `false` and
/// mutation costs nothing beyond the branch.
#[derive(Debug, Default)]
pub(crate) struct UndoLog {
    entries: Vec<UndoEntry>,
    /// Open watermarks, outermost first.
    open: Vec<Mark>,
    /// Token source for [`Mark`]s.
    next_token: u64,
    /// Whether any watermark is open — the mutators' fast-path flag.
    pub(crate) active: bool,
}

impl UndoLog {
    /// Records one inverse operation. Callers check `active` first.
    #[inline]
    pub(crate) fn push(&mut self, entry: UndoEntry) {
        self.entries.push(entry);
    }

    /// Opens a watermark at the current entry count.
    pub(crate) fn begin(&mut self) -> Mark {
        let mark = Mark {
            token: self.next_token,
            pos: self.entries.len(),
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

    /// Closes `mark`, keeping its entries (an enclosing watermark may
    /// still roll them back). Any *deeper* watermark still open is dropped
    /// too: a panic that unwound through nested scopes leaves their marks
    /// behind, and the enclosing commit/rollback owns them. When the
    /// outermost watermark closes the log is cleared.
    ///
    /// Returns `false` if `mark` is not an open watermark (double close).
    pub(crate) fn commit(&mut self, mark: Mark) -> bool {
        let Some(pos) = self.open.iter().position(|m| m.token == mark.token) else {
            return false;
        };
        self.open.truncate(pos);
        if self.open.is_empty() {
            self.entries.clear();
            self.active = false;
        }
        true
    }

    /// Closes `mark` for rollback, draining the entries recorded since it
    /// (in reverse — ready to replay) and dropping any deeper watermark
    /// (see [`UndoLog::commit`] on panic unwinding).
    ///
    /// Returns `None` if `mark` is not an open watermark.
    pub(crate) fn rollback(&mut self, mark: Mark) -> Option<Vec<UndoEntry>> {
        let pos = self.open.iter().position(|m| m.token == mark.token)?;
        self.open.truncate(pos);
        let mut tail: Vec<UndoEntry> = self.entries.drain(mark.pos..).collect();
        tail.reverse();
        if self.open.is_empty() {
            self.entries.clear();
            self.active = false;
        }
        Some(tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermarks_nest_and_clear() {
        let mut log = UndoLog::default();
        assert!(!log.active);
        let outer = log.begin();
        assert!(log.active);
        log.push(UndoEntry::OpInserted {
            op: OpId::from_raw(0, 0),
        });
        let inner = log.begin();
        log.push(UndoEntry::OpInserted {
            op: OpId::from_raw(1, 0),
        });
        assert_eq!(log.depth(), 2);
        assert!(log.commit(inner), "inner commit keeps entries");
        assert_eq!(log.len(), 2);
        assert!(log.active);
        let tail = log.rollback(outer).expect("outer is open");
        assert_eq!(tail.len(), 2, "outer rollback sees the inner entries");
        assert!(!log.active, "outermost close clears the log");
        assert_eq!(log.len(), 0);
    }

    #[test]
    fn rollback_drains_in_reverse() {
        let mut log = UndoLog::default();
        let mark = log.begin();
        log.push(UndoEntry::OpInserted {
            op: OpId::from_raw(7, 0),
        });
        log.push(UndoEntry::OpInserted {
            op: OpId::from_raw(8, 0),
        });
        let tail = log.rollback(mark).unwrap();
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
        assert!(log.rollback(mark).is_none());
    }

    #[test]
    fn close_drops_abandoned_deeper_watermarks() {
        let mut log = UndoLog::default();
        let outer = log.begin();
        let _inner = log.begin(); // abandoned, as a panic unwind would
        log.push(UndoEntry::OpInserted {
            op: OpId::from_raw(0, 0),
        });
        let tail = log.rollback(outer).expect("outer still open");
        assert_eq!(tail.len(), 1);
        assert_eq!(log.depth(), 0);
        assert!(!log.active);
    }
}
