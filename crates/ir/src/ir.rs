//! The mutable IR: operations, regions, blocks, and values, owned by a
//! [`Context`].
//!
//! The design follows MLIR's hierarchical SSA form:
//!
//! * an *operation* has operands, results, attributes, successors, and
//!   nested *regions*;
//! * a region holds a list of *blocks* (a control-flow graph);
//! * a block has *block arguments* and an ordered list of operations.
//!
//! All entities live in generational arenas inside the [`Context`] and are
//! referenced by `Copy` ids ([`OpId`], [`BlockId`], [`RegionId`],
//! [`ValueId`]). Erasing an entity invalidates its id *detectably* — the
//! property the Transform dialect's handle-invalidation machinery is built
//! on.
//!
//! # Entity storage
//!
//! A block's ops form an intrusive doubly linked list, as in MLIR: each
//! [`OpData`] holds its `prev`/`next` sibling and each [`BlockData`] its
//! `first`/`last` op and length, so inserting, detaching and moving an op
//! are O(1) — nothing shifts. Relative order inside a block is answered by
//! lazily assigned *order keys* ([`Context::is_before`]): an op linked
//! anywhere gets no key until one is asked for, and then the whole run of
//! keyless ops around it is keyed at once, spread between its keyed
//! neighbours; only when they leave no room is a label range around the
//! spot relabelled, the smallest aligned one sparse enough (see
//! `Context::relabel`). Operand, result, region and block lists, block
//! arguments and use lists are [`InlineVec`]s sized from the arity
//! histogram of lowered models, so the common op allocates nothing beyond
//! its arena slot.

use crate::attrs::Attribute;
use crate::dialect::DialectRegistry;
use crate::types::{TypeId, TypeKind, TypeStore};
use crate::undo::{Mark, UndoEntry, UndoLog};
use std::cell::Cell;
use std::collections::HashMap;
use td_support::journal::{self, ChangeKind, RawId};
use td_support::{Arena, Idx, InlineVec, Location, Symbol};

/// Id of an operation.
pub type OpId = Idx<OpData>;
/// Id of a block.
pub type BlockId = Idx<BlockData>;
/// Id of a region.
pub type RegionId = Idx<RegionData>;
/// Id of an SSA value (operation result or block argument).
pub type ValueId = Idx<ValueData>;

/// Where a value is defined.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ValueDef {
    /// The `index`-th result of an operation.
    OpResult {
        /// Defining operation.
        op: OpId,
        /// Result position.
        index: u32,
    },
    /// The `index`-th argument of a block.
    BlockArg {
        /// Owning block.
        block: BlockId,
        /// Argument position.
        index: u32,
    },
}

/// Data of an SSA value.
#[derive(Clone, Debug)]
pub struct ValueData {
    /// The value's type.
    pub ty: TypeId,
    /// Where the value is defined.
    pub def: ValueDef,
    /// Use list: `(user op, operand index)` pairs.
    pub(crate) uses: UseList,
}

/// Inline capacities, from the arity histogram of the five lowered Table 1
/// models (91,083 ops): 99.7% have at most 4 operands, every op at most 1
/// result and at most 1 region, 99.6% of results at most 3 uses. Block
/// lists (a region's blocks, an op's successors) and block arguments hold
/// one inline: loop bodies are single blocks with one argument, and a
/// one-item list costs no more room than an empty `Vec`.
pub type OperandList = InlineVec<ValueId, 4>;
pub(crate) type ResultList = InlineVec<ValueId, 1>;
pub(crate) type RegionList = InlineVec<RegionId, 1>;
pub(crate) type UseList = InlineVec<(OpId, u32), 3>;
pub(crate) type BlockList = InlineVec<BlockId, 1>;
pub(crate) type ArgList = InlineVec<ValueId, 1>;

/// Data of an operation.
///
/// Fields are read through [`Context::op`]; mutation goes through `Context`
/// methods so use lists stay consistent.
#[derive(Clone, Debug)]
pub struct OpData {
    /// Fully qualified name, e.g. `arith.addi`.
    pub name: Symbol,
    /// Source location.
    pub location: Location,
    /// Flat operand list (successor arguments included, by convention).
    pub(crate) operands: OperandList,
    /// Result values.
    pub(crate) results: ResultList,
    /// Ordered attribute dictionary.
    pub(crate) attributes: Vec<(Symbol, Attribute)>,
    /// Nested regions.
    pub(crate) regions: RegionList,
    /// Successor blocks (terminators only).
    pub(crate) successors: BlockList,
    /// The block containing this op, if attached.
    pub(crate) parent: Option<BlockId>,
    /// The previous op of the parent block, if any.
    pub(crate) prev: Option<OpId>,
    /// The next op of the parent block, if any.
    pub(crate) next: Option<OpId>,
    /// Order key within the parent block, increasing along the list; 0
    /// until [`Context::is_before`] first needs it (see the module docs).
    pub(crate) order: Cell<u64>,
}

impl OpData {
    /// Operand values.
    pub fn operands(&self) -> &[ValueId] {
        &self.operands
    }
    /// Result values.
    pub fn results(&self) -> &[ValueId] {
        &self.results
    }
    /// Attribute dictionary in insertion order.
    pub fn attributes(&self) -> &[(Symbol, Attribute)] {
        &self.attributes
    }
    /// Nested regions.
    pub fn regions(&self) -> &[RegionId] {
        &self.regions
    }
    /// Successor blocks.
    pub fn successors(&self) -> &[BlockId] {
        &self.successors
    }
    /// The containing block, if attached.
    pub fn parent(&self) -> Option<BlockId> {
        self.parent
    }
    /// Looks up an attribute by name.
    pub fn attr(&self, name: &str) -> Option<&Attribute> {
        self.attributes
            .iter()
            .find(|(k, _)| k.as_str() == name)
            .map(|(_, v)| v)
    }
}

/// Data of a block.
///
/// The ops are a doubly linked list through [`OpData`]'s `prev`/`next`;
/// iterate them with [`Context::block_ops`]. Only `Context::link_op` and
/// `Context::unlink_op` write `first`, `last`, `len` and the sibling links.
#[derive(Clone, Debug, Default)]
pub struct BlockData {
    /// Block arguments.
    pub(crate) args: ArgList,
    /// First op, if any.
    pub(crate) first: Option<OpId>,
    /// Last op, if any.
    pub(crate) last: Option<OpId>,
    /// Number of ops.
    pub(crate) len: usize,
    /// Owning region.
    pub(crate) parent: Option<RegionId>,
}

impl BlockData {
    /// Block arguments.
    pub fn args(&self) -> &[ValueId] {
        &self.args
    }
    /// Number of ops in the block.
    pub fn len(&self) -> usize {
        self.len
    }
    /// Whether the block holds no op.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
    /// The first op, if any.
    pub fn first_op(&self) -> Option<OpId> {
        self.first
    }
    /// The last op (the terminator, in a terminated block), if any.
    pub fn last_op(&self) -> Option<OpId> {
        self.last
    }
    /// Owning region.
    pub fn parent(&self) -> Option<RegionId> {
        self.parent
    }
}

/// Data of a region.
#[derive(Clone, Debug, Default)]
pub struct RegionData {
    /// Blocks; the first is the entry block.
    pub(crate) blocks: BlockList,
    /// Owning operation.
    pub(crate) parent: Option<OpId>,
}

impl RegionData {
    /// Blocks in order; the first is the entry block.
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }
    /// Owning operation.
    pub fn parent(&self) -> Option<OpId> {
        self.parent
    }
}

/// Entity-storage work counters of one [`Context`], read with
/// [`Context::storage_stats`]: plain counts of work done, for tests and
/// tools that pin how much the storage layer does per edit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Ops created by [`Context::create_op`] (clones and parses included).
    pub ops_created: u64,
    /// Ops erased by [`Context::erase_op`], nested ones included.
    pub ops_erased: u64,
    /// Ops linked into or unlinked from a block (undo replay included):
    /// each is O(1), where a block held as an array shifted its tail.
    pub block_edits: u64,
    /// Order keys written, by first keying or by relabelling.
    pub order_keys_assigned: u64,
}

/// Iterator over a block's ops in order (see [`Context::block_ops`]).
#[derive(Clone, Debug)]
pub struct BlockOps<'a> {
    ctx: &'a Context,
    front: Option<OpId>,
    back: Option<OpId>,
    remaining: usize,
}

impl Iterator for BlockOps<'_> {
    type Item = OpId;
    fn next(&mut self) -> Option<OpId> {
        if self.remaining == 0 {
            return None;
        }
        let op = self.front?;
        self.remaining -= 1;
        self.front = self.ctx.ops[op].next;
        Some(op)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl DoubleEndedIterator for BlockOps<'_> {
    fn next_back(&mut self) -> Option<OpId> {
        if self.remaining == 0 {
            return None;
        }
        let op = self.back?;
        self.remaining -= 1;
        self.back = self.ctx.ops[op].prev;
        Some(op)
    }
}

impl ExactSizeIterator for BlockOps<'_> {}

/// Spacing of order keys given to ops keyed at the end of a block, which
/// is where parsing and building append.
const ORDER_STRIDE: u64 = 1 << 32;

/// The IR context: owns all IR entities, the type interner, and the dialect
/// registry.
///
/// # Examples
///
/// ```
/// use td_ir::ir::Context;
/// use td_support::Location;
/// let mut ctx = Context::new();
/// let module = ctx.create_module(Location::unknown());
/// assert_eq!(ctx.op(module).name.as_str(), "builtin.module");
/// ```
#[derive(Debug, Default)]
pub struct Context {
    pub(crate) ops: Arena<OpData>,
    pub(crate) blocks: Arena<BlockData>,
    pub(crate) regions: Arena<RegionData>,
    pub(crate) values: Arena<ValueData>,
    pub(crate) types: TypeStore,
    /// Registered dialects (op specs, verifiers, folders).
    pub registry: DialectRegistry,
    /// The incremental undo log (inactive — one false branch per
    /// mutation — until [`Context::begin_watermark`] opens a watermark).
    pub(crate) undo: UndoLog,
    /// Ops created and erased, and block-list edits (order keys are
    /// counted in `keyed`).
    created: u64,
    erased: u64,
    edits: u64,
    /// Entries across all live values' use lists: one O(1) rollback
    /// invariant that sees a use list the replay left short or long.
    use_count: usize,
    /// Order keys written; a `Cell` because keys are assigned on reads.
    keyed: Cell<u64>,
}

impl Context {
    /// Creates an empty context with no dialects registered.
    pub fn new() -> Self {
        Self::default()
    }

    // ----- types ---------------------------------------------------------

    /// Interns a type.
    pub fn intern_type(&mut self, kind: TypeKind) -> TypeId {
        self.types.intern(kind)
    }

    /// Resolves a type id.
    pub fn type_kind(&self, id: TypeId) -> &TypeKind {
        self.types.kind(id)
    }

    /// The `index` type.
    pub fn index_type(&mut self) -> TypeId {
        self.intern_type(TypeKind::Index)
    }
    /// The `i1` type.
    pub fn i1_type(&mut self) -> TypeId {
        self.intern_type(TypeKind::Integer(1))
    }
    /// The `i32` type.
    pub fn i32_type(&mut self) -> TypeId {
        self.intern_type(TypeKind::Integer(32))
    }
    /// The `i64` type.
    pub fn i64_type(&mut self) -> TypeId {
        self.intern_type(TypeKind::Integer(64))
    }
    /// The `f32` type.
    pub fn f32_type(&mut self) -> TypeId {
        self.intern_type(TypeKind::F32)
    }
    /// The `f64` type.
    pub fn f64_type(&mut self) -> TypeId {
        self.intern_type(TypeKind::F64)
    }
    /// The `!transform.any_op` type.
    pub fn transform_any_op_type(&mut self) -> TypeId {
        self.intern_type(TypeKind::TransformAnyOp)
    }

    // ----- entity access -------------------------------------------------

    /// Reads an operation.
    ///
    /// # Panics
    /// Panics if `op` is stale (erased).
    pub fn op(&self, op: OpId) -> &OpData {
        &self.ops[op]
    }

    /// Whether `op` still refers to a live operation.
    pub fn is_live(&self, op: OpId) -> bool {
        self.ops.contains(op)
    }

    /// Reads a block.
    pub fn block(&self, block: BlockId) -> &BlockData {
        &self.blocks[block]
    }

    /// The ops of `block`, in order.
    pub fn block_ops(&self, block: BlockId) -> BlockOps<'_> {
        let data = &self.blocks[block];
        BlockOps {
            ctx: self,
            front: data.first,
            back: data.last,
            remaining: data.len,
        }
    }

    /// The op after `op` in its block, if any.
    pub fn next_op(&self, op: OpId) -> Option<OpId> {
        self.ops[op].next
    }

    /// Net payload edits so far: +1 per edit (each one the undo log
    /// records, or would record with a watermark open), −1 per edit a
    /// rollback unwinds. Two reads that differ bracket a payload change
    /// that stuck; the provenance journal detects in-place edits this
    /// way, in O(1).
    pub fn edit_count(&self) -> u64 {
        self.undo.edits
    }

    /// The entity-storage work counters.
    pub fn storage_stats(&self) -> StorageStats {
        StorageStats {
            ops_created: self.created,
            ops_erased: self.erased,
            block_edits: self.edits,
            order_keys_assigned: self.keyed.get(),
        }
    }

    /// Reads a region.
    pub fn region(&self, region: RegionId) -> &RegionData {
        &self.regions[region]
    }

    /// Type of a value.
    pub fn value_type(&self, value: ValueId) -> TypeId {
        self.values[value].ty
    }

    /// Definition site of a value.
    pub fn value_def(&self, value: ValueId) -> ValueDef {
        self.values[value].def
    }

    /// Whether `value` still refers to a live value.
    pub fn is_value_live(&self, value: ValueId) -> bool {
        self.values.contains(value)
    }

    /// Current uses of a value as `(user op, operand index)` pairs.
    pub fn uses(&self, value: ValueId) -> &[(OpId, u32)] {
        self.values[value].uses.as_slice()
    }

    /// Whether the value has at least one use.
    pub fn has_uses(&self, value: ValueId) -> bool {
        !self.values[value].uses.is_empty()
    }

    /// The defining op of a value, if it is an op result.
    pub fn defining_op(&self, value: ValueId) -> Option<OpId> {
        match self.values[value].def {
            ValueDef::OpResult { op, .. } => Some(op),
            ValueDef::BlockArg { .. } => None,
        }
    }

    // ----- creation ------------------------------------------------------

    /// Creates a detached operation.
    ///
    /// Result values are created with the given types; `num_regions` empty
    /// regions are attached. The op must subsequently be inserted into a
    /// block (unless it is a top-level module). Operands and result types
    /// are read from any slice-like argument (`vec![…]`, `&[…]`, a slice),
    /// so building an op allocates no list of its own below the inline
    /// capacities.
    pub fn create_op(
        &mut self,
        location: Location,
        name: impl Into<Symbol>,
        operands: impl AsRef<[ValueId]>,
        result_types: impl AsRef<[TypeId]>,
        attributes: Vec<(Symbol, Attribute)>,
        num_regions: usize,
    ) -> OpId {
        let name = name.into();
        let (operands, result_types) = (operands.as_ref(), result_types.as_ref());
        if td_support::fault::active() {
            if let Some(fault) =
                td_support::fault::check(td_support::fault::POINT_IR_ALLOC, name.as_str())
            {
                match fault {
                    td_support::fault::Fault::Sleep(duration) => std::thread::sleep(duration),
                    // `create_op` has no error channel, so every other
                    // kind models allocation failure as a panic; the
                    // containment boundaries above prove they recover.
                    _ => panic!(
                        "injected fault at ir.create_op while creating '{}'",
                        name.as_str()
                    ),
                }
            }
        }
        let op = self.ops.alloc(OpData {
            name,
            location,
            operands: OperandList::from_slice(operands),
            results: ResultList::new(),
            attributes,
            regions: RegionList::new(),
            successors: BlockList::new(),
            parent: None,
            prev: None,
            next: None,
            order: Cell::new(0),
        });
        self.created += 1;
        for (index, &ty) in result_types.iter().enumerate() {
            let result = self.values.alloc(ValueData {
                ty,
                def: ValueDef::OpResult {
                    op,
                    index: index as u32,
                },
                uses: UseList::new(),
            });
            self.ops[op].results.push(result);
        }
        for _ in 0..num_regions {
            let region = self.regions.alloc(RegionData {
                blocks: BlockList::new(),
                parent: Some(op),
            });
            self.ops[op].regions.push(region);
        }
        for (index, &operand) in operands.iter().enumerate() {
            self.link_use(operand, op, index as u32);
        }
        if self.undo.edit() {
            self.undo.push(UndoEntry::OpCreated { op });
        }
        if journal::recording() {
            journal::record_change(ChangeKind::Created, RawId::of(op), name, 0);
        }
        op
    }

    /// Creates a `builtin.module` with one region containing one block.
    pub fn create_module(&mut self, location: Location) -> OpId {
        let module = self.create_op(location, "builtin.module", vec![], vec![], vec![], 1);
        let region = self.op(module).regions[0];
        self.append_block(region, &[]);
        module
    }

    /// Appends a new block with the given argument types to a region.
    pub fn append_block(&mut self, region: RegionId, arg_types: &[TypeId]) -> BlockId {
        let block = self.blocks.alloc(BlockData {
            parent: Some(region),
            ..BlockData::default()
        });
        let args: ArgList = arg_types
            .iter()
            .enumerate()
            .map(|(index, &ty)| {
                self.values.alloc(ValueData {
                    ty,
                    def: ValueDef::BlockArg {
                        block,
                        index: index as u32,
                    },
                    uses: UseList::new(),
                })
            })
            .collect();
        self.blocks[block].args = args;
        self.regions[region].blocks.push(block);
        if self.undo.edit() {
            self.undo.push(UndoEntry::BlockCreated { block });
        }
        block
    }

    /// Adds an extra argument to an existing block, returning the new value.
    pub fn add_block_arg(&mut self, block: BlockId, ty: TypeId) -> ValueId {
        let index = self.blocks[block].args.len() as u32;
        let value = self.values.alloc(ValueData {
            ty,
            def: ValueDef::BlockArg { block, index },
            uses: UseList::new(),
        });
        self.blocks[block].args.push(value);
        if self.undo.edit() {
            self.undo.push(UndoEntry::BlockArgAdded { block, value });
        }
        value
    }

    /// Sets the successor blocks of a terminator.
    pub fn set_successors(&mut self, op: OpId, successors: impl AsRef<[BlockId]>) {
        let successors = BlockList::from_slice(successors.as_ref());
        let old = std::mem::replace(&mut self.ops[op].successors, successors);
        if self.undo.edit() {
            self.undo.side.block_lists.push(old);
            self.undo.push(UndoEntry::SuccessorsSet { op });
        }
    }

    // ----- insertion and movement ----------------------------------------

    /// Appends a detached op at the end of a block.
    ///
    /// # Panics
    /// Panics if the op is already attached to a block.
    pub fn append_op(&mut self, block: BlockId, op: OpId) {
        self.insert_op_at(block, None, op);
    }

    /// Inserts a detached op at the start of a block.
    pub fn prepend_op(&mut self, block: BlockId, op: OpId) {
        let first = self.blocks[block].first;
        self.insert_op_at(block, first, op);
    }

    /// Inserts a detached op immediately before `anchor`.
    ///
    /// # Panics
    /// Panics if `op` is attached or `anchor` is detached.
    pub fn insert_op_before(&mut self, anchor: OpId, op: OpId) {
        let block = self.ops[anchor]
            .parent
            .expect("insertion anchor is detached");
        self.insert_op_at(block, Some(anchor), op);
    }

    /// Inserts a detached op immediately after `anchor`.
    ///
    /// # Panics
    /// Panics if `op` is attached or `anchor` is detached.
    pub fn insert_op_after(&mut self, anchor: OpId, op: OpId) {
        let block = self.ops[anchor]
            .parent
            .expect("insertion anchor is detached");
        let next = self.ops[anchor].next;
        self.insert_op_at(block, next, op);
    }

    /// Links a detached op into `block` before `before` (at the end if
    /// `None`) and logs it.
    fn insert_op_at(&mut self, block: BlockId, before: Option<OpId>, op: OpId) {
        assert!(
            self.ops[op].parent.is_none(),
            "op {op:?} is already attached"
        );
        self.link_op(block, before, op);
        if self.undo.edit() {
            self.undo.push(UndoEntry::OpInserted { op });
        }
    }

    /// Detaches an op from its block without erasing it.
    pub fn detach_op(&mut self, op: OpId) {
        let Some(block) = self.ops[op].parent else {
            return;
        };
        let next = self.unlink_op(op);
        if self.undo.edit() {
            self.undo.push(match next {
                Some(next) => UndoEntry::OpDetachedBefore { op, next },
                None => UndoEntry::OpDetachedAtEnd { op, block },
            });
        }
    }

    /// Moves `op` so it comes immediately before `before` (same or another
    /// block).
    pub fn move_op_before(&mut self, op: OpId, before: OpId) {
        self.detach_op(op);
        self.insert_op_before(before, op);
    }

    /// Moves `op` so it comes immediately after `after`.
    pub fn move_op_after(&mut self, op: OpId, after: OpId) {
        self.detach_op(op);
        self.insert_op_after(after, op);
    }

    /// Whether `a` comes before `b` in their block.
    ///
    /// Amortized O(1): compares order keys, assigning them first where an
    /// edit left ops without one (see the module docs).
    ///
    /// # Panics
    /// Panics if the two ops are not attached to the same block.
    pub fn is_before(&self, a: OpId, b: OpId) -> bool {
        assert!(
            self.ops[a].parent.is_some() && self.ops[a].parent == self.ops[b].parent,
            "is_before compares ops of one block"
        );
        // Keying `b` may relabel `a`, so both keys are read once both exist.
        self.ensure_order_key(a);
        self.ensure_order_key(b);
        self.ops[a].order.get() < self.ops[b].order.get()
    }

    /// Assigns keys around `op` if it has none.
    fn ensure_order_key(&self, op: OpId) {
        if self.ops[op].order.get() == 0 {
            self.assign_order_keys(op);
        }
    }

    /// Keys the maximal run of keyless ops around `op`: spaced
    /// `ORDER_STRIDE` apart past the last keyed op (appends), else spread
    /// evenly between the keyed neighbours, else by [`Context::relabel`].
    fn assign_order_keys(&self, op: OpId) {
        let key = |op: OpId| self.ops[op].order.get();
        let (mut first, mut last, mut count) = (op, op, 1u64);
        while let Some(prev) = self.ops[first].prev.filter(|&p| key(p) == 0) {
            first = prev;
            count += 1;
        }
        while let Some(next) = self.ops[last].next.filter(|&n| key(n) == 0) {
            last = next;
            count += 1;
        }
        let lo = self.ops[first].prev.map_or(0, key);
        let step = match self.ops[last].next.map(key) {
            None => ORDER_STRIDE
                .checked_mul(count)
                .and_then(|span| lo.checked_add(span))
                .map(|_| ORDER_STRIDE),
            Some(hi) => Some((hi - lo) / (count + 1)).filter(|&step| step > 0),
        };
        match step {
            Some(step) => self.write_keys(first, count, lo, step),
            None => self.relabel(first, last, count, lo),
        }
    }

    /// Gives `count` ops from `first` on the keys `base + step`,
    /// `base + 2 * step`, ….
    fn write_keys(&self, first: OpId, count: u64, base: u64, step: u64) {
        let mut cursor = Some(first);
        for i in 1..=count {
            let op = cursor.expect("count ops follow");
            self.ops[op].order.set(base + step * i);
            cursor = self.ops[op].next;
        }
        self.keyed.set(self.keyed.get() + count);
    }

    /// Keys the keyless run `first..=last` (`count` ops, after an op keyed
    /// `lo`) when its neighbours leave no room: finds the smallest aligned
    /// label range `[base, base + 2^level)` around `lo` whose ops, run
    /// included, number fewer than `(4/3)^level`, and spreads them evenly
    /// over it. Keyless ops inside the range join it, so its walk left
    /// does not stop short of keyed ops that hold keys in the range. Bigger ranges must be sparser, which is what bounds the
    /// relabelling per insertion by a constant times the key width (list
    /// labelling after Bender et al., "Two simplified algorithms for
    /// maintaining order in a list", T = 1.5); the full range always
    /// qualifies.
    fn relabel(&self, mut first: OpId, mut last: OpId, mut count: u64, lo: u64) {
        let key = |op: OpId| self.ops[op].order.get();
        for level in 1..=64u32 {
            let size = 1u128 << level;
            let base = u128::from(lo) & !(size - 1);
            let end = base + size;
            let inside = |op: OpId| key(op) == 0 || u128::from(key(op)) >= base;
            while let Some(prev) = self.ops[first].prev.filter(|&p| inside(p)) {
                first = prev;
                count += 1;
            }
            while let Some(next) = self.ops[last].next.filter(|&n| u128::from(key(n)) < end) {
                last = next;
                count += 1;
            }
            let sparse = (count as f64) < (4.0f64 / 3.0).powi(level as i32);
            if level == 64 || (sparse && u128::from(count) + 1 < size) {
                let step = size / (u128::from(count) + 1);
                self.write_keys(first, count, base as u64, step as u64);
                return;
            }
        }
    }

    /// Links a detached `op` into `block` before `before` (at the end if
    /// `None`). With [`Context::unlink_op`], the only writer of a block's
    /// list; the op is left keyless.
    fn link_op(&mut self, block: BlockId, before: Option<OpId>, op: OpId) {
        let prev = match before {
            Some(next) => {
                debug_assert_eq!(self.ops[next].parent, Some(block), "anchor in block");
                std::mem::replace(&mut self.ops[next].prev, Some(op))
            }
            None => self.blocks[block].last,
        };
        match prev {
            Some(prev) => self.ops[prev].next = Some(op),
            None => self.blocks[block].first = Some(op),
        }
        let data = &mut self.blocks[block];
        if before.is_none() {
            data.last = Some(op);
        }
        data.len += 1;
        self.edits += 1;
        let data = &mut self.ops[op];
        data.parent = Some(block);
        data.prev = prev;
        data.next = before;
        data.order.set(0);
    }

    /// Unlinks an attached `op` from its block, clearing its parent and
    /// links; returns the op that followed it.
    fn unlink_op(&mut self, op: OpId) -> Option<OpId> {
        let data = &mut self.ops[op];
        let block = data.parent.take().expect("unlinking a detached op");
        let (prev, next) = (data.prev.take(), data.next.take());
        match prev {
            Some(prev) => self.ops[prev].next = next,
            None => self.blocks[block].first = next,
        }
        match next {
            Some(next) => self.ops[next].prev = prev,
            None => self.blocks[block].last = prev,
        }
        self.blocks[block].len -= 1;
        self.edits += 1;
        next
    }

    // ----- mutation ------------------------------------------------------

    /// Replaces the operand at `index` of `op` with `new_value`, updating
    /// use lists.
    pub fn set_operand(&mut self, op: OpId, index: usize, new_value: ValueId) {
        let old = self.ops[op].operands[index];
        if old == new_value {
            return;
        }
        self.unlink_use(old, op, index as u32);
        self.link_use(new_value, op, index as u32);
        self.ops[op].operands[index] = new_value;
        if self.undo.edit() {
            self.undo.push(UndoEntry::OperandSet {
                op,
                index: index as u32,
                old,
            });
        }
    }

    /// Renames an operation in place, keeping operands/results/attributes.
    ///
    /// Useful for conversions where source and target ops are structurally
    /// identical (e.g. bufferization renaming `tensor.empty` to
    /// `memref.alloc`).
    pub fn set_op_name(&mut self, op: OpId, name: impl Into<Symbol>) {
        let old = std::mem::replace(&mut self.ops[op].name, name.into());
        if self.undo.edit() {
            self.undo.push(UndoEntry::NameSet { op, old });
        }
    }

    /// Appends an operand to `op`, updating use lists.
    pub fn append_operand(&mut self, op: OpId, value: ValueId) {
        let index = self.ops[op].operands.len() as u32;
        self.ops[op].operands.push(value);
        self.link_use(value, op, index);
        if self.undo.edit() {
            self.undo.push(UndoEntry::OperandAppended { op });
        }
    }

    /// Replaces every use of `old` with `new`.
    pub fn replace_all_uses(&mut self, old: ValueId, new: ValueId) {
        if old == new {
            return;
        }
        let uses = std::mem::take(&mut self.values[old].uses);
        for &(op, index) in &uses {
            self.ops[op].operands[index as usize] = new;
        }
        if self.undo.edit() {
            self.undo.side.uses.extend_from_slice(&uses);
            self.undo.push(UndoEntry::UsesReplaced {
                old,
                new,
                count: uses.len() as u32,
            });
        }
        self.values[new].uses.extend_from_slice(&uses);
    }

    /// Sets (or overwrites) an attribute on an operation.
    pub fn set_attr(&mut self, op: OpId, name: impl Into<Symbol>, value: Attribute) {
        let name = name.into();
        let attrs = &mut self.ops[op].attributes;
        let old = if let Some(slot) = attrs.iter_mut().find(|(k, _)| *k == name) {
            Some(std::mem::replace(&mut slot.1, value))
        } else {
            attrs.push((name, value));
            None
        };
        if self.undo.edit() {
            let replaced = old.is_some();
            self.undo.side.attrs.extend(old);
            self.undo.push(UndoEntry::AttrSet { op, name, replaced });
        }
    }

    /// Removes an attribute; returns the previous value if present.
    pub fn remove_attr(&mut self, op: OpId, name: &str) -> Option<Attribute> {
        let attrs = &mut self.ops[op].attributes;
        let pos = attrs.iter().position(|(k, _)| k.as_str() == name)?;
        let (name_sym, value) = attrs.remove(pos);
        if self.undo.edit() {
            // The caller gets the value and the log keeps a copy: the one
            // clone on a logging path, forced by the return type.
            self.undo.side.attrs.push(value.clone());
            self.undo.push(UndoEntry::AttrRemoved {
                op,
                index: pos as u32,
                name: name_sym,
            });
        }
        Some(value)
    }

    // ----- erasure -------------------------------------------------------

    /// Erases an operation and everything nested inside it.
    ///
    /// Uses of the op's operands are removed from use lists. The op's
    /// results must be unused (drop or replace them first); this is
    /// asserted in debug builds and enforced with a panic in release
    /// builds, because silently erasing used values would corrupt the IR.
    ///
    /// # Panics
    /// Panics if any result still has uses *outside* the erased subtree.
    pub fn erase_op(&mut self, op: OpId) {
        if journal::recording() {
            journal::record_change(ChangeKind::Erased, RawId::of(op), self.ops[op].name, 0);
        }
        self.erased += 1;
        // First erase nested regions so uses inside the subtree disappear.
        // The op's own lists stay put until it is freed, so every loop
        // below reads them by index instead of copying them.
        for i in 0..self.ops[op].regions.len() {
            let region = self.ops[op].regions[i];
            self.erase_region_contents(region);
            let data = self.regions.erase(region).expect("region is live");
            if self.undo.edit() {
                self.undo.side.regions.push(data);
                self.undo.push(UndoEntry::RegionFreed { region });
            }
        }
        // Unlink operand uses.
        for index in 0..self.ops[op].operands.len() {
            let operand = self.ops[op].operands[index];
            if self.unlink_use(operand, op, index as u32) && self.undo.edit() {
                self.undo.push(UndoEntry::UseUnlinked {
                    value: operand,
                    op,
                    index: index as u32,
                });
            }
        }
        // Detach from parent block.
        self.detach_op(op);
        // Erase result values.
        for i in 0..self.ops[op].results.len() {
            let result = self.ops[op].results[i];
            let still_used = self.values[result]
                .uses
                .iter()
                .any(|&(user, _)| self.ops.contains(user));
            assert!(
                !still_used,
                "erasing op {:?} ({}) whose result still has live uses",
                op, self.ops[op].name
            );
            self.free_value(result);
        }
        let data = self.ops.erase(op).expect("op is live");
        if self.undo.edit() {
            self.undo.side.ops.push(data);
            self.undo.push(UndoEntry::OpFreed { op });
        }
    }

    /// Erases all blocks (and their ops) of a region, leaving it empty.
    pub fn erase_region_contents(&mut self, region: RegionId) {
        let blocks = std::mem::take(&mut self.regions[region].blocks);
        if !self.undo.edit() {
            for &block in &blocks {
                self.erase_block(block);
            }
            return;
        }
        // The taken list is side data: it goes onto its stack with the
        // entry, before the erasures below log theirs, and is read back
        // from there by index.
        let count = blocks.len();
        self.undo.side.block_lists.push(blocks);
        self.undo.push(UndoEntry::RegionBlocksTaken { region });
        let list = self.undo.side.block_lists.len() - 1;
        for i in 0..count {
            let block = self.undo.side.block_lists[list][i];
            self.erase_block(block);
        }
    }

    /// Erases a block already taken out of its region: its ops from the
    /// last (so uses disappear before defs), its arguments, then itself.
    fn erase_block(&mut self, block: BlockId) {
        while let Some(op) = self.blocks[block].last {
            self.erase_op(op);
        }
        for i in 0..self.blocks[block].args.len() {
            self.free_value(self.blocks[block].args[i]);
        }
        let data = self.blocks.erase(block).expect("block is live");
        if self.undo.edit() {
            self.undo.side.blocks.push(data);
            self.undo.push(UndoEntry::BlockFreed { block });
        }
    }

    /// Frees a result or block argument's slot, logging its payload.
    fn free_value(&mut self, value: ValueId) {
        let data = self.erase_value(value).expect("value is live");
        if self.undo.edit() {
            self.undo.side.values.push(data);
            self.undo.push(UndoEntry::ValueFreed { value });
        }
    }

    /// Adds use `(op, index)` to `value`'s use list.
    fn link_use(&mut self, value: ValueId, op: OpId, index: u32) {
        self.values[value].uses.push((op, index));
        self.use_count += 1;
    }

    /// Removes use `(op, index)` from `value`'s use list; returns whether
    /// the value is live and held it.
    fn unlink_use(&mut self, value: ValueId, op: OpId, index: u32) -> bool {
        let Some(data) = self.values.get_mut(value) else {
            return false;
        };
        let Some(pos) = data.uses.iter().position(|&use_| use_ == (op, index)) else {
            return false;
        };
        data.uses.swap_remove(pos);
        self.use_count -= 1;
        true
    }

    /// Frees a value's slot, taking any uses it still lists out of the
    /// census with it.
    fn erase_value(&mut self, value: ValueId) -> Option<ValueData> {
        let data = self.values.erase(value)?;
        self.use_count -= data.uses.len();
        Some(data)
    }

    // ----- navigation ----------------------------------------------------

    /// The op that owns the block containing `op` (its parent op).
    pub fn parent_op(&self, op: OpId) -> Option<OpId> {
        let block = self.ops[op].parent?;
        let region = self.blocks[block].parent?;
        self.regions[region].parent
    }

    /// Iterates `op`'s ancestors from the immediate parent upward.
    pub fn ancestors(&self, op: OpId) -> Vec<OpId> {
        let mut out = Vec::new();
        let mut cursor = self.parent_op(op);
        while let Some(parent) = cursor {
            out.push(parent);
            cursor = self.parent_op(parent);
        }
        out
    }

    /// Whether `ancestor` properly contains `descendant`.
    pub fn is_proper_ancestor(&self, ancestor: OpId, descendant: OpId) -> bool {
        let mut cursor = self.parent_op(descendant);
        while let Some(parent) = cursor {
            if parent == ancestor {
                return true;
            }
            cursor = self.parent_op(parent);
        }
        false
    }

    /// Collects `root` and every op nested inside it, preorder.
    pub fn walk(&self, root: OpId) -> Vec<OpId> {
        let mut out = Vec::new();
        self.walk_into(root, &mut out);
        out
    }

    fn walk_into(&self, op: OpId, out: &mut Vec<OpId>) {
        out.push(op);
        for &region in &self.ops[op].regions {
            for &block in &self.regions[region].blocks {
                for nested in self.block_ops(block) {
                    self.walk_into(nested, out);
                }
            }
        }
    }

    /// Collects ops nested inside `root` (excluding `root`), preorder.
    pub fn walk_nested(&self, root: OpId) -> Vec<OpId> {
        let mut all = self.walk(root);
        all.remove(0);
        all
    }

    /// Returns the single block of the op's `index`-th region.
    ///
    /// # Panics
    /// Panics if the region does not have exactly one block.
    pub fn sole_block(&self, op: OpId, index: usize) -> BlockId {
        let region = self.ops[op].regions[index];
        let blocks = &self.regions[region].blocks;
        assert_eq!(
            blocks.len(),
            1,
            "expected a single-block region on {}",
            self.ops[op].name
        );
        blocks[0]
    }

    /// Looks up a symbol-defining op (one with a `sym_name` attribute equal
    /// to `name`) among the immediate ops of `scope`'s regions.
    pub fn lookup_symbol(&self, scope: OpId, name: &str) -> Option<OpId> {
        for &region in &self.ops[scope].regions {
            for &block in &self.regions[region].blocks {
                for op in self.block_ops(block) {
                    if let Some(Attribute::String(s)) = self.op(op).attr("sym_name") {
                        if s == name {
                            return Some(op);
                        }
                    }
                }
            }
        }
        None
    }

    /// Changes the type of a value in place.
    ///
    /// This is the low-level primitive behind block-signature conversion in
    /// lowering passes (MLIR's `TypeConverter::convertSignature`); callers
    /// are responsible for materializing casts so existing uses stay
    /// type-correct.
    pub fn set_value_type(&mut self, value: ValueId, ty: TypeId) {
        let old = std::mem::replace(&mut self.values[value].ty, ty);
        if self.undo.edit() {
            self.undo.push(UndoEntry::ValueTypeSet { value, old });
        }
    }

    /// Moves all blocks of `from` to the end of `to`, leaving `from` empty.
    /// Used by conversions that replace a region-holding op (e.g.
    /// `func.func` → `llvm.func`) without rebuilding its body.
    pub fn transfer_region_blocks(&mut self, from: RegionId, to: RegionId) {
        let blocks = std::mem::take(&mut self.regions[from].blocks);
        for &block in &blocks {
            self.blocks[block].parent = Some(to);
        }
        self.regions[to].blocks.extend_from_slice(&blocks);
        if self.undo.edit() {
            self.undo.side.block_lists.push(blocks);
            self.undo.push(UndoEntry::BlocksTransferred { from, to });
        }
    }

    // ----- cloning -------------------------------------------------------

    /// Deep-clones `op` (with all nested regions) as a detached operation.
    ///
    /// `value_map` maps values of the original to values of the clone;
    /// operands not present in the map are assumed to be defined outside
    /// the cloned subtree and are used as-is. On return the map additionally
    /// contains all result/argument correspondences, which callers can use
    /// to remap handles.
    pub fn clone_op(&mut self, op: OpId, value_map: &mut HashMap<ValueId, ValueId>) -> OpId {
        let data = &self.ops[op];
        let operands: OperandList = data
            .operands
            .iter()
            .map(|v| *value_map.get(v).unwrap_or(v))
            .collect();
        let result_types: InlineVec<TypeId, 1> =
            data.results.iter().map(|&r| self.values[r].ty).collect();
        let (location, name, attributes) =
            (data.location.clone(), data.name, data.attributes.clone());
        let (results, regions) = (data.results.clone(), data.regions.clone());
        let clone = self.create_op(location, name, operands, result_types, attributes, 0);
        for (index, &old) in results.iter().enumerate() {
            value_map.insert(old, self.ops[clone].results[index]);
        }
        // Clone regions.
        let mut block_map: HashMap<BlockId, BlockId> = HashMap::new();
        for &region in &regions {
            let new_region = self.regions.alloc(RegionData {
                blocks: BlockList::new(),
                parent: Some(clone),
            });
            self.ops[clone].regions.push(new_region);
            // Pass 1: create blocks and arguments so forward branch targets
            // and cross-block value uses resolve.
            let blocks = self.regions[region].blocks.clone();
            for &block in &blocks {
                let arg_types: Vec<TypeId> = self.blocks[block]
                    .args
                    .iter()
                    .map(|&a| self.values[a].ty)
                    .collect();
                let new_block = self.append_block(new_region, &arg_types);
                block_map.insert(block, new_block);
                for index in 0..arg_types.len() {
                    let (old, new) = (
                        self.blocks[block].args[index],
                        self.blocks[new_block].args[index],
                    );
                    value_map.insert(old, new);
                }
            }
            // Pass 2: clone ops. The clones go into other blocks, so the
            // source list can be followed while they are appended.
            for &block in &blocks {
                let new_block = block_map[&block];
                let mut cursor = self.blocks[block].first;
                while let Some(nested) = cursor {
                    cursor = self.ops[nested].next;
                    let nested_clone = self.clone_op(nested, value_map);
                    // Remap successors through the accumulated block map.
                    let succ = self.ops[nested].successors.clone();
                    self.ops[nested_clone].successors = succ
                        .iter()
                        .map(|b| *block_map.get(b).unwrap_or(b))
                        .collect();
                    self.append_op(new_block, nested_clone);
                }
            }
        }
        clone
    }

    // ----- undo-log watermarks -------------------------------------------

    /// Opens an undo-log watermark: until it is closed, every mutation
    /// records its inverse, so [`Context::rollback_watermark`] can return
    /// the IR to exactly this point. Opening copies nothing — it pushes a
    /// mark onto the log. Watermarks nest: an inner one commits into, or
    /// rolls back inside, whichever encloses it.
    ///
    /// `validate` names an op the rollback must restore. In every build the
    /// rollback then compares O(1) invariants with their values here: the
    /// live ops, values, blocks and regions of each arena and the op count
    /// of `validate`'s blocks (the undo side stacks are compared for every
    /// watermark). The full structural fingerprint of `validate` is O(op),
    /// so it is taken only under `debug_assertions` (every `cargo test`);
    /// [`Context::begin_watermark_fingerprinted`] takes it in any build.
    pub fn begin_watermark(&mut self, validate: Option<OpId>) -> Watermark {
        self.open_watermark(validate, cfg!(debug_assertions))
    }

    /// [`Context::begin_watermark`] that also takes `validate`'s full
    /// structural fingerprint in release builds, for a caller that
    /// samples the O(op) check itself (a reused payload context).
    pub fn begin_watermark_fingerprinted(&mut self, validate: OpId) -> Watermark {
        self.open_watermark(Some(validate), true)
    }

    fn open_watermark(&mut self, validate: Option<OpId>, fingerprint: bool) -> Watermark {
        let fingerprint = validate
            .filter(|_| fingerprint)
            .map(|op| crate::fingerprint::structural_fingerprint_op(self, op));
        Watermark {
            mark: self.undo.begin(),
            validate: validate.map(|op| (op, self.live_counts(op))),
            fingerprint,
        }
    }

    /// The O(1) rollback invariants: live ops, values, blocks and regions,
    /// use-list entries, then the number of ops in `root`'s blocks.
    fn live_counts(&self, root: OpId) -> [usize; 6] {
        let body = self.ops.get(root).map_or(0, |data| {
            data.regions
                .iter()
                .flat_map(|&region| &self.regions[region].blocks)
                .map(|&block| self.blocks[block].len)
                .sum()
        });
        [
            self.ops.len(),
            self.values.len(),
            self.blocks.len(),
            self.regions.len(),
            self.use_count,
            body,
        ]
    }

    /// Closes `watermark` keeping every mutation made since it opened. An
    /// enclosing watermark can still roll them back; when the outermost
    /// one commits the log is cleared and mutation is free again.
    pub fn commit_watermark(&mut self, watermark: Watermark) {
        let closed = self.undo.commit(watermark.mark);
        debug_assert!(closed, "watermark closed twice");
    }

    /// Unwinds every mutation made since `watermark` opened, replaying
    /// the log in reverse. Erased entities are resurrected under their
    /// *original* generational ids, so ids held from before the watermark
    /// — handles included — are live again. Deeper watermarks still open
    /// (a panic unwound past their scopes) are dropped with it.
    ///
    /// # Errors
    /// Returns a message if `watermark` is already closed, or if the
    /// restored context fails a check the watermark took (see
    /// [`Context::begin_watermark`]): a side stack off its length at the
    /// mark, an invariant count off, or a fingerprint mismatch — the mark
    /// of an unlogged mutation (e.g. an entity written behind the log's
    /// back) or of a defective undo arm.
    pub fn rollback_watermark(&mut self, watermark: Watermark) -> Result<(), String> {
        let mark = watermark.mark;
        if !self.undo.close(mark) {
            return Err("rollback of a watermark that is already closed".into());
        }
        while let Some(entry) = self.undo.pop_since(mark) {
            self.apply_undo(entry);
        }
        if !self.undo.rolled_back(mark) {
            return Err("rollback left the undo side stacks off their lengths at the mark".into());
        }
        let Some((op, counts)) = watermark.validate else {
            return Ok(());
        };
        let restored = self.live_counts(op);
        if restored != counts {
            return Err(format!(
                "rollback invariant mismatch: live ops, values, blocks, regions, uses \
                 and root ops were {counts:?} at the watermark, {restored:?} restored"
            ));
        }
        if let Some(expected) = watermark.fingerprint {
            let actual = crate::fingerprint::structural_fingerprint_op(self, op);
            if actual != expected {
                return Err(format!(
                    "rollback fingerprint mismatch: watermark {expected:#018x}, \
                     restored {actual:#018x}"
                ));
            }
        }
        Ok(())
    }

    /// Undo-log entries recorded since `watermark` opened — how much a
    /// rollback would unwind.
    pub fn undo_entries_since(&self, watermark: &Watermark) -> usize {
        self.undo.len().saturating_sub(watermark.mark.pos())
    }

    /// Number of currently open watermarks (0 when nothing is recording).
    pub fn undo_depth(&self) -> usize {
        self.undo.depth()
    }

    /// Replays one inverse operation. Uses raw arena/field access only —
    /// never the public mutators — so the replay itself is neither
    /// re-logged nor journaled, and hits no fault points. An entry with
    /// side data finds it on top of its side stack and pops it.
    fn apply_undo(&mut self, entry: UndoEntry) {
        let side = &mut self.undo.side;
        match entry {
            UndoEntry::OpCreated { op } => {
                // The op is detached and its regions are empty by now
                // (later insertions/appends were undone first).
                let data = self.ops.erase(op).expect("created op is live");
                debug_assert!(data.parent.is_none(), "undo of create found attached op");
                for (index, &operand) in data.operands.iter().enumerate() {
                    self.unlink_use(operand, op, index as u32);
                }
                for &result in &data.results {
                    self.erase_value(result);
                }
                for &region in &data.regions {
                    self.regions.erase(region);
                }
            }
            UndoEntry::BlockCreated { block } => {
                let data = self.blocks.erase(block).expect("created block is live");
                debug_assert!(data.first.is_none(), "undo of block create found ops");
                for arg in data.args {
                    self.erase_value(arg);
                }
                if let Some(region) = data.parent {
                    if let Some(region) = self.regions.get_mut(region) {
                        region.blocks.retain(|&b| b != block);
                    }
                }
            }
            UndoEntry::BlockArgAdded { block, value } => {
                self.blocks[block].args.retain(|&a| a != value);
                self.erase_value(value);
            }
            UndoEntry::OpInserted { op } => {
                if self.ops[op].parent.is_some() {
                    self.unlink_op(op);
                }
            }
            UndoEntry::OpDetachedBefore { op, next } => {
                let block = self.ops[next].parent.expect("detach anchor is attached");
                self.link_op(block, Some(next), op);
            }
            UndoEntry::OpDetachedAtEnd { op, block } => {
                self.link_op(block, None, op);
            }
            UndoEntry::OperandSet { op, index, old } => {
                let current = self.ops[op].operands[index as usize];
                self.unlink_use(current, op, index);
                self.link_use(old, op, index);
                self.ops[op].operands[index as usize] = old;
            }
            UndoEntry::OperandAppended { op } => {
                let value = self.ops[op].operands.pop().expect("appended operand");
                let index = self.ops[op].operands.len() as u32;
                self.unlink_use(value, op, index);
            }
            UndoEntry::NameSet { op, old } => {
                self.ops[op].name = old;
            }
            UndoEntry::SuccessorsSet { op } => {
                self.ops[op].successors = side.block_lists.pop().expect("old successors");
            }
            UndoEntry::UsesReplaced { old, new, count } => {
                let start = self.undo.side.uses.len() - count as usize;
                for i in start..self.undo.side.uses.len() {
                    let (op, index) = self.undo.side.uses[i];
                    self.unlink_use(new, op, index);
                    self.link_use(old, op, index);
                    self.ops[op].operands[index as usize] = old;
                }
                self.undo.side.uses.truncate(start);
            }
            UndoEntry::AttrSet { op, name, replaced } => {
                let attrs = &mut self.ops[op].attributes;
                let pos = attrs
                    .iter()
                    .position(|(k, _)| *k == name)
                    .expect("set attribute present");
                if replaced {
                    attrs[pos].1 = side.attrs.pop().expect("overwritten attribute");
                } else {
                    attrs.remove(pos);
                }
            }
            UndoEntry::AttrRemoved { op, index, name } => {
                let value = side.attrs.pop().expect("removed attribute");
                self.ops[op]
                    .attributes
                    .insert(index as usize, (name, value));
            }
            UndoEntry::ValueTypeSet { value, old } => {
                self.values[value].ty = old;
            }
            UndoEntry::BlocksTransferred { from, to } => {
                let blocks = side.block_lists.pop().expect("transferred blocks");
                self.regions[to].blocks.retain(|b| !blocks.contains(b));
                for &block in &blocks {
                    self.blocks[block].parent = Some(from);
                }
                self.regions[from].blocks = blocks;
            }
            UndoEntry::UseUnlinked { value, op, index } => {
                if self.values.contains(value) {
                    self.link_use(value, op, index);
                }
            }
            UndoEntry::OpFreed { op } => {
                let data = side.ops.pop().expect("freed op payload");
                self.ops
                    .restore(op, data)
                    .unwrap_or_else(|_| panic!("undo replay could not restore op {op:?}"));
            }
            UndoEntry::ValueFreed { value } => {
                let data = side.values.pop().expect("freed value payload");
                self.use_count += data.uses.len();
                self.values
                    .restore(value, data)
                    .unwrap_or_else(|_| panic!("undo replay could not restore value {value:?}"));
            }
            UndoEntry::BlockFreed { block } => {
                let data = side.blocks.pop().expect("freed block payload");
                self.blocks
                    .restore(block, data)
                    .unwrap_or_else(|_| panic!("undo replay could not restore block {block:?}"));
            }
            UndoEntry::RegionFreed { region } => {
                let data = side.regions.pop().expect("freed region payload");
                self.regions
                    .restore(region, data)
                    .unwrap_or_else(|_| panic!("undo replay could not restore region {region:?}"));
            }
            UndoEntry::RegionBlocksTaken { region } => {
                self.regions[region].blocks = side.block_lists.pop().expect("taken blocks");
            }
        }
    }

    /// Total number of live operations (for tests and statistics).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Sets an attribute *without* logging it: a deliberate defect, for
    /// tests in other crates that check what happens when a rollback
    /// notices an unlogged mutation. Compiled only with the `test-hooks`
    /// feature, which only dev-dependencies enable.
    #[cfg(feature = "test-hooks")]
    pub fn corrupt_attr_unlogged(&mut self, op: OpId, name: &str, value: Attribute) {
        self.ops[op].attributes.push((Symbol::new(name), value));
    }
}

/// An open undo-log watermark from [`Context::begin_watermark`]: close it
/// with [`Context::commit_watermark`] or [`Context::rollback_watermark`].
/// Losing one to a panic unwind is tolerated — closing an enclosing
/// watermark drops it; losing the outermost one leaves the log recording
/// (entries accumulate) for the context's lifetime.
#[derive(Debug)]
pub struct Watermark {
    mark: Mark,
    /// The op a rollback must restore, with the O(1) invariants at the mark.
    validate: Option<(OpId, [usize; 6])>,
    /// That op's structural fingerprint at the mark, where taken.
    fingerprint: Option<u64>,
}

// The concurrency contract of the IR: a `Context` (with everything it
// owns — arenas, the type store, the dialect registry) can be *moved* to
// another thread, which is what lets a scheduler build payloads on one
// thread and hand whole contexts to workers. These are compile-time
// assertions; if a future field change introduces a thread-hostile type
// (`Rc`, `RefCell` shared via aliasing, raw pointers), this stops
// compiling rather than producing a data race.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Context>();
    assert_send::<crate::types::TypeStore>();
    assert_send::<crate::dialect::DialectRegistry>();
    assert_send::<td_support::Arena<OpData>>();
    assert_send::<td_support::Arena<BlockData>>();
    assert_send::<td_support::Arena<RegionData>>();
    assert_send::<td_support::Arena<ValueData>>();
    // Ids are plain `Copy` data and additionally `Sync`: shareable freely.
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<OpId>();
    assert_send_sync::<BlockId>();
    assert_send_sync::<RegionId>();
    assert_send_sync::<ValueId>();
    assert_send_sync::<crate::types::TypeId>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use td_support::rng::Xoshiro256pp;
    use td_support::Location;

    fn ctx_with_module() -> (Context, OpId, BlockId) {
        let mut ctx = Context::new();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        (ctx, module, body)
    }

    #[test]
    fn create_and_insert() {
        let (mut ctx, _module, body) = ctx_with_module();
        let i32t = ctx.i32_type();
        let c = ctx.create_op(
            Location::unknown(),
            "arith.constant",
            vec![],
            [i32t],
            vec![(Symbol::new("value"), Attribute::Int(7))],
            0,
        );
        ctx.append_op(body, c);
        assert_eq!(ctx.block(body).len(), 1);
        assert_eq!(ctx.op(c).parent(), Some(body));
        assert_eq!(ctx.op(c).attr("value"), Some(&Attribute::Int(7)));
    }

    #[test]
    fn use_lists_track_operands() {
        let (mut ctx, _m, body) = ctx_with_module();
        let i32t = ctx.i32_type();
        let a = ctx.create_op(
            Location::unknown(),
            "arith.constant",
            vec![],
            [i32t],
            vec![],
            0,
        );
        let b = ctx.create_op(
            Location::unknown(),
            "arith.constant",
            vec![],
            [i32t],
            vec![],
            0,
        );
        ctx.append_op(body, a);
        ctx.append_op(body, b);
        let va = ctx.op(a).results()[0];
        let vb = ctx.op(b).results()[0];
        let add = ctx.create_op(
            Location::unknown(),
            "arith.addi",
            [va, va],
            [i32t],
            vec![],
            0,
        );
        ctx.append_op(body, add);
        assert_eq!(ctx.uses(va).len(), 2);
        ctx.set_operand(add, 1, vb);
        assert_eq!(ctx.uses(va).len(), 1);
        assert_eq!(ctx.uses(vb), &[(add, 1)]);
    }

    #[test]
    fn rauw_moves_all_uses() {
        let (mut ctx, _m, body) = ctx_with_module();
        let i32t = ctx.i32_type();
        let a = ctx.create_op(
            Location::unknown(),
            "arith.constant",
            vec![],
            [i32t],
            vec![],
            0,
        );
        let b = ctx.create_op(
            Location::unknown(),
            "arith.constant",
            vec![],
            [i32t],
            vec![],
            0,
        );
        ctx.append_op(body, a);
        ctx.append_op(body, b);
        let va = ctx.op(a).results()[0];
        let vb = ctx.op(b).results()[0];
        let u1 = ctx.create_op(Location::unknown(), "test.use", [va], vec![], vec![], 0);
        let u2 = ctx.create_op(Location::unknown(), "test.use", [va, va], vec![], vec![], 0);
        ctx.append_op(body, u1);
        ctx.append_op(body, u2);
        ctx.replace_all_uses(va, vb);
        assert!(!ctx.has_uses(va));
        assert_eq!(ctx.uses(vb).len(), 3);
        assert_eq!(ctx.op(u2).operands(), &[vb, vb]);
    }

    #[test]
    fn erase_op_detects_stale_ids() {
        let (mut ctx, _m, body) = ctx_with_module();
        let i32t = ctx.i32_type();
        let a = ctx.create_op(
            Location::unknown(),
            "arith.constant",
            vec![],
            [i32t],
            vec![],
            0,
        );
        ctx.append_op(body, a);
        ctx.erase_op(a);
        assert!(!ctx.is_live(a));
        assert!(ctx.block(body).is_empty());
    }

    #[test]
    #[should_panic(expected = "still has live uses")]
    fn erase_op_with_uses_panics() {
        let (mut ctx, _m, body) = ctx_with_module();
        let i32t = ctx.i32_type();
        let a = ctx.create_op(
            Location::unknown(),
            "arith.constant",
            vec![],
            [i32t],
            vec![],
            0,
        );
        ctx.append_op(body, a);
        let va = ctx.op(a).results()[0];
        let u = ctx.create_op(Location::unknown(), "test.use", [va], vec![], vec![], 0);
        ctx.append_op(body, u);
        ctx.erase_op(a);
    }

    #[test]
    fn erase_recursively_erases_nested() {
        let (mut ctx, _m, body) = ctx_with_module();
        let outer = ctx.create_op(
            Location::unknown(),
            "scf.execute_region",
            vec![],
            vec![],
            vec![],
            1,
        );
        ctx.append_op(body, outer);
        let region = ctx.op(outer).regions()[0];
        let inner_block = ctx.append_block(region, &[]);
        let i32t = ctx.i32_type();
        let c = ctx.create_op(
            Location::unknown(),
            "arith.constant",
            vec![],
            [i32t],
            vec![],
            0,
        );
        ctx.append_op(inner_block, c);
        let before = ctx.num_ops();
        ctx.erase_op(outer);
        assert_eq!(ctx.num_ops(), before - 2);
        assert!(!ctx.is_live(c));
    }

    #[test]
    fn ancestors_and_walk() {
        let (mut ctx, module, body) = ctx_with_module();
        let outer = ctx.create_op(
            Location::unknown(),
            "scf.execute_region",
            vec![],
            vec![],
            vec![],
            1,
        );
        ctx.append_op(body, outer);
        let region = ctx.op(outer).regions()[0];
        let inner_block = ctx.append_block(region, &[]);
        let c = ctx.create_op(
            Location::unknown(),
            "arith.constant",
            vec![],
            vec![],
            vec![],
            0,
        );
        ctx.append_op(inner_block, c);
        assert_eq!(ctx.ancestors(c), vec![outer, module]);
        assert!(ctx.is_proper_ancestor(module, c));
        assert!(ctx.is_proper_ancestor(outer, c));
        assert!(!ctx.is_proper_ancestor(c, outer));
        let walked = ctx.walk(module);
        assert_eq!(walked, vec![module, outer, c]);
        assert_eq!(ctx.walk_nested(module), vec![outer, c]);
    }

    #[test]
    fn move_op_before_and_after() {
        let (mut ctx, _m, body) = ctx_with_module();
        let a = ctx.create_op(Location::unknown(), "test.a", vec![], vec![], vec![], 0);
        let b = ctx.create_op(Location::unknown(), "test.b", vec![], vec![], vec![], 0);
        let c = ctx.create_op(Location::unknown(), "test.c", vec![], vec![], vec![], 0);
        ctx.append_op(body, a);
        ctx.append_op(body, b);
        ctx.append_op(body, c);
        ctx.move_op_before(c, a);
        assert_eq!(block_seq(&ctx, body), [c, a, b]);
        ctx.move_op_after(c, b);
        assert_eq!(block_seq(&ctx, body), [a, b, c]);
    }

    #[test]
    fn clone_op_remaps_internal_uses() {
        let (mut ctx, _m, body) = ctx_with_module();
        let i32t = ctx.i32_type();
        let outer = ctx.create_op(Location::unknown(), "test.wrap", vec![], vec![], vec![], 1);
        ctx.append_op(body, outer);
        let region = ctx.op(outer).regions()[0];
        let block = ctx.append_block(region, &[i32t]);
        let arg = ctx.block(block).args()[0];
        let use_op = ctx.create_op(Location::unknown(), "test.use", [arg], [i32t], vec![], 0);
        ctx.append_op(block, use_op);
        let mut map = HashMap::new();
        let clone = ctx.clone_op(outer, &mut map);
        ctx.append_op(body, clone);
        let cloned_block = ctx.sole_block(clone, 0);
        let cloned_arg = ctx.block(cloned_block).args()[0];
        let cloned_use = ctx.block(cloned_block).first_op().unwrap();
        assert_eq!(ctx.op(cloned_use).operands(), &[cloned_arg]);
        assert_eq!(map[&arg], cloned_arg);
        assert_ne!(cloned_use, use_op);
    }

    #[test]
    fn clone_op_of_a_module_is_deep_and_independent() {
        let (mut ctx, module, body) = ctx_with_module();
        let i32t = ctx.i32_type();
        let c = ctx.create_op(
            Location::unknown(),
            "arith.constant",
            vec![],
            [i32t],
            vec![(Symbol::new("value"), Attribute::Int(7))],
            0,
        );
        ctx.append_op(body, c);
        let ops_before = ctx.num_ops();
        let clone = ctx.clone_op(module, &mut HashMap::new());
        assert_eq!(ctx.num_ops(), ops_before * 2);
        assert_eq!(ctx.op(clone).name.as_str(), "builtin.module");
        assert!(ctx.op(clone).parent().is_none(), "clone starts detached");
        // Mutating the original is invisible to the clone.
        ctx.set_attr(c, "value", Attribute::Int(8));
        let cloned_body = ctx.sole_block(clone, 0);
        let cloned_c = ctx.block(cloned_body).first_op().unwrap();
        assert_ne!(cloned_c, c);
        assert_eq!(ctx.op(cloned_c).attr("value"), Some(&Attribute::Int(7)));
        // And erasing the clone leaves the original intact.
        ctx.erase_op(clone);
        assert!(ctx.is_live(module));
        assert!(ctx.is_live(c));
    }

    #[test]
    fn rollback_restores_structure_attributes_and_fingerprint() {
        let (mut ctx, module, body) = ctx_with_module();
        let i32t = ctx.i32_type();
        let c = ctx.create_op(
            Location::unknown(),
            "arith.constant",
            vec![],
            [i32t],
            vec![(Symbol::new("value"), Attribute::Int(7))],
            0,
        );
        ctx.append_op(body, c);
        ctx.set_attr(module, "tag", Attribute::Int(1));
        let fp_before = crate::fingerprint::structural_fingerprint_op(&ctx, module);
        let ops_before = ctx.num_ops();
        let watermark = ctx.begin_watermark(Some(module));

        // Dirty the payload: nested mutation + root-attribute mutation.
        ctx.set_attr(c, "value", Attribute::Int(8));
        ctx.set_attr(module, "tag", Attribute::Int(2));
        let extra = ctx.create_op(Location::unknown(), "test.extra", vec![], vec![], vec![], 0);
        ctx.append_op(body, extra);
        assert_ne!(
            crate::fingerprint::structural_fingerprint_op(&ctx, module),
            fp_before
        );

        ctx.rollback_watermark(watermark).expect("restores");
        assert!(ctx.is_live(module), "root id survives the rollback");
        assert_eq!(
            crate::fingerprint::structural_fingerprint_op(&ctx, module),
            fp_before
        );
        assert_eq!(ctx.op(module).attr("tag"), Some(&Attribute::Int(1)));
        assert_eq!(ctx.num_ops(), ops_before, "dirty ops are gone");
        let restored_body = ctx.sole_block(module, 0);
        let ops = block_seq(&ctx, restored_body);
        assert_eq!(ops.len(), 1);
        assert_eq!(
            ctx.op(ops[0]).attr("value"),
            Some(&Attribute::Int(7)),
            "nested attribute rolled back"
        );
    }

    /// The ops of `block`, in order.
    fn block_seq(ctx: &Context, block: BlockId) -> Vec<OpId> {
        ctx.block_ops(block).collect()
    }

    /// Asserts that the links of `block` agree both ways and with its
    /// length, and that `is_before` agrees with sequence order for every
    /// pair, asked back to front (keys assigned from the last op) or front
    /// to back.
    fn assert_order(ctx: &Context, block: BlockId, back_to_front: bool) {
        let ops = block_seq(ctx, block);
        let mut reversed: Vec<OpId> = ctx.block_ops(block).rev().collect();
        reversed.reverse();
        assert_eq!(ops, reversed, "prev links mirror next links");
        assert_eq!(ops.len(), ctx.block(block).len());
        let mut pairs: Vec<(usize, usize)> = (0..ops.len())
            .flat_map(|i| (0..ops.len()).map(move |j| (i, j)))
            .filter(|(i, j)| i != j)
            .collect();
        if back_to_front {
            pairs.reverse();
        }
        for (i, j) in pairs {
            assert_eq!(ctx.is_before(ops[i], ops[j]), i < j, "ops {i} and {j}");
        }
    }

    /// Every block under `root` with its op sequence, in walk order.
    fn block_sequences(ctx: &Context, root: OpId) -> Vec<(BlockId, Vec<OpId>)> {
        let mut out = Vec::new();
        for op in ctx.walk(root) {
            for &region in ctx.op(op).regions() {
                for &block in ctx.region(region).blocks() {
                    out.push((block, block_seq(ctx, block)));
                }
            }
        }
        out
    }

    /// Inserts the detached `op` into `block` at sequence index `at`,
    /// through whichever of the four insertion calls names that spot: after
    /// the op before it or before the op at it, or at a block end.
    fn insert_at(ctx: &mut Context, rng: &mut Xoshiro256pp, block: BlockId, at: usize, op: OpId) {
        let ops = block_seq(ctx, block);
        match (at.checked_sub(1).map(|i| ops[i]), ops.get(at).copied()) {
            (Some(prev), _) if rng.range_usize(0, 2) == 0 => ctx.insert_op_after(prev, op),
            (_, Some(next)) if rng.range_usize(0, 2) == 0 => ctx.insert_op_before(next, op),
            (None, _) => ctx.prepend_op(block, op),
            (_, None) => ctx.append_op(block, op),
            (Some(prev), Some(_)) => ctx.insert_op_after(prev, op),
        }
    }

    /// Results of `ops`, in order.
    fn results_of(ctx: &Context, ops: &[OpId]) -> Vec<ValueId> {
        ops.iter()
            .flat_map(|&op| ctx.op(op).results().to_vec())
            .collect()
    }

    /// Where `op` may sit in `ops` (which must not contain it) with its
    /// operands defined before it and its results used after it: the
    /// inclusive range `lo..=hi` of insertion indices.
    fn legal_span(ctx: &Context, ops: &[OpId], op: OpId) -> (usize, usize) {
        let index_of = |o: OpId| ops.iter().position(|&x| x == o);
        let lo = ctx
            .op(op)
            .operands()
            .iter()
            .filter_map(|&v| ctx.defining_op(v).and_then(index_of))
            .map(|i| i + 1)
            .max()
            .unwrap_or(0);
        let hi = ctx
            .op(op)
            .results()
            .iter()
            .flat_map(|&v| ctx.uses(v).iter().map(|&(user, _)| user))
            .filter_map(index_of)
            .min()
            .unwrap_or(ops.len());
        (lo, hi)
    }

    /// Appends a block with one `i32` argument to `region`, holding one op
    /// that reads it.
    fn add_wrap_block(ctx: &mut Context, region: RegionId) {
        let i32t = ctx.i32_type();
        let block = ctx.append_block(region, &[i32t]);
        let arg = ctx.block(block).args()[0];
        let op = ctx.create_op(Location::unknown(), "test.node", [arg], [i32t], vec![], 0);
        ctx.append_op(block, op);
    }

    /// One edit inside a random block of a wrap's region (`blocks`): a new
    /// argument, a retype between `types`, an operand appended from the
    /// block's own arguments, or successors drawn from the same region.
    fn edit_wrap_block(
        ctx: &mut Context,
        rng: &mut Xoshiro256pp,
        blocks: &[BlockId],
        types: [TypeId; 2],
    ) {
        let block = blocks[rng.range_usize(0, blocks.len())];
        let args = ctx.block(block).args();
        let arg = args[rng.range_usize(0, args.len())];
        let inner = block_seq(ctx, block);
        match rng.range_usize(0, 4) {
            0 => {
                ctx.add_block_arg(block, types[0]);
            }
            1 => {
                let ty = types[usize::from(ctx.value_type(arg) == types[0])];
                ctx.set_value_type(arg, ty);
            }
            2 if !inner.is_empty() => {
                ctx.append_operand(inner[rng.range_usize(0, inner.len())], arg);
            }
            3 if !inner.is_empty() => {
                let successors: Vec<BlockId> = (0..rng.range_usize(0, 3))
                    .map(|_| blocks[rng.range_usize(0, blocks.len())])
                    .collect();
                ctx.set_successors(inner[rng.range_usize(0, inner.len())], successors);
            }
            _ => {}
        }
    }

    /// Applies `actions` randomly chosen public mutations to `module`'s
    /// body: op creation at a random spot (operands drawn from the ops
    /// before it), use-guarded erasure anywhere in the block, moves before
    /// or after a random anchor and detach-then-reinsert within the span
    /// the op's defs and uses allow — every insertion through a random one
    /// of insert-before, insert-after, prepend and append, block ends
    /// included —
    /// attribute churn, use rewiring, operand pokes and renames. It also
    /// builds and edits region-holding `test.wrap` ops: their blocks gain
    /// blocks, arguments, operands, retypes and successors, and their
    /// regions are emptied or moved onto each other whole. Every block of a
    /// wrap has an argument (so its header prints) and its ops read only
    /// their own block's arguments, so a wrap can sit anywhere. Defs stay
    /// before uses, so the module always re-parses. After every action the
    /// body's links and `is_before` are checked against its op sequence.
    /// Pure in `rng`, so a failing seed reproduces exactly.
    fn random_burst(ctx: &mut Context, module: OpId, rng: &mut Xoshiro256pp, actions: usize) {
        let i32t = ctx.i32_type();
        let i64t = ctx.i64_type();
        let body = ctx.sole_block(module, 0);
        for _ in 0..actions {
            let ops = block_seq(ctx, body);
            let wraps: Vec<OpId> = ops
                .iter()
                .copied()
                .filter(|&op| !ctx.op(op).regions().is_empty())
                .collect();
            let wrap_region = |ctx: &Context, rng: &mut Xoshiro256pp| {
                ctx.op(wraps[rng.range_usize(0, wraps.len())]).regions()[0]
            };
            match rng.range_usize(0, 11) {
                0 => {
                    let at = rng.range_usize(0, ops.len() + 1);
                    let values = results_of(ctx, &ops[..at]);
                    let arity = if values.is_empty() {
                        0
                    } else {
                        rng.range_usize(0, 3)
                    };
                    let operands: Vec<ValueId> = (0..arity)
                        .map(|_| values[rng.range_usize(0, values.len())])
                        .collect();
                    let op = ctx.create_op(
                        Location::unknown(),
                        "test.node",
                        operands,
                        [i32t],
                        vec![(Symbol::new("n"), Attribute::Int(rng.next_u64() as i64))],
                        0,
                    );
                    insert_at(ctx, rng, body, at, op);
                }
                1 => {
                    // Erase an op whose results are unused, so the rest of
                    // the module stays printable.
                    let dead: Vec<OpId> = ops
                        .iter()
                        .copied()
                        .filter(|&op| ctx.op(op).results().iter().all(|&v| !ctx.has_uses(v)))
                        .collect();
                    if !dead.is_empty() {
                        ctx.erase_op(dead[rng.range_usize(0, dead.len())]);
                    }
                }
                2 if !ops.is_empty() => {
                    let op = ops[rng.range_usize(0, ops.len())];
                    if rng.range_usize(0, 2) == 0 {
                        ctx.set_attr(op, "tag", Attribute::Int(rng.next_u64() as i64));
                    } else {
                        ctx.remove_attr(op, "n");
                    }
                }
                // Both rewiring arms draw the new value from ops that
                // precede the rewritten use in walk (= print) order, so
                // the module keeps parsing: defs stay before uses.
                3 if ops.len() >= 2 => {
                    let io = rng.range_usize(1, ops.len());
                    let earlier = results_of(ctx, &ops[..io]);
                    let old = ctx.op(ops[io]).results().first().copied();
                    if let (Some(old), false) = (old, earlier.is_empty()) {
                        let new = earlier[rng.range_usize(0, earlier.len())];
                        ctx.replace_all_uses(old, new);
                    }
                }
                4 if ops.len() >= 2 => {
                    let i = rng.range_usize(1, ops.len());
                    let op = ops[i];
                    let arity = ctx.op(op).operands().len();
                    let earlier = results_of(ctx, &ops[..i]);
                    if arity > 0 && !earlier.is_empty() {
                        ctx.set_operand(
                            op,
                            rng.range_usize(0, arity),
                            earlier[rng.range_usize(0, earlier.len())],
                        );
                    }
                }
                // Move an op without uses before or after an anchor that
                // follows every def it reads.
                5 if ops.len() >= 2 => {
                    let op = ops[rng.range_usize(0, ops.len())];
                    if ctx.op(op).results().iter().all(|&v| !ctx.has_uses(v)) {
                        let rest: Vec<OpId> = ops.iter().copied().filter(|&o| o != op).collect();
                        let (lo, _) = legal_span(ctx, &rest, op);
                        if lo < rest.len() {
                            let anchor = rest[rng.range_usize(lo, rest.len())];
                            if rng.range_usize(0, 2) == 0 {
                                ctx.move_op_before(op, anchor);
                            } else {
                                ctx.move_op_after(op, anchor);
                            }
                        }
                    }
                }
                6 if !ops.is_empty() => {
                    let op = ops[rng.range_usize(0, ops.len())];
                    ctx.detach_op(op);
                    assert_eq!(ctx.op(op).parent(), None, "detached op has no parent");
                    let rest = block_seq(ctx, body);
                    let (lo, hi) = legal_span(ctx, &rest, op);
                    let at = rng.range_usize(lo, hi + 1);
                    insert_at(ctx, rng, body, at, op);
                }
                7 => {
                    let at = rng.range_usize(0, ops.len() + 1);
                    let wrap =
                        ctx.create_op(Location::unknown(), "test.wrap", vec![], vec![], vec![], 1);
                    add_wrap_block(ctx, ctx.op(wrap).regions()[0]);
                    insert_at(ctx, rng, body, at, wrap);
                }
                8 if !wraps.is_empty() => {
                    let region = wrap_region(ctx, rng);
                    let blocks = ctx.region(region).blocks().to_vec();
                    if blocks.is_empty() || rng.range_usize(0, 4) == 0 {
                        add_wrap_block(ctx, region);
                    } else {
                        edit_wrap_block(ctx, rng, &blocks, [i32t, i64t]);
                    }
                }
                9 if !wraps.is_empty() => {
                    let from = wrap_region(ctx, rng);
                    if rng.range_usize(0, 2) == 0 {
                        ctx.erase_region_contents(from);
                    } else {
                        let to = wrap_region(ctx, rng);
                        ctx.transfer_region_blocks(from, to);
                    }
                }
                10 if !ops.is_empty() => {
                    let op = ops[rng.range_usize(0, ops.len())];
                    let name = ["test.node", "test.renamed"][rng.range_usize(0, 2)];
                    ctx.set_op_name(op, name);
                }
                _ => {}
            }
            assert_order(ctx, body, rng.range_usize(0, 2) == 0);
        }
    }

    /// Property: for any seeded pre-state and any seeded mutation burst,
    /// watermark → burst → rollback is a print fixpoint, and the restored
    /// print round-trips through the parser.
    #[test]
    fn property_watermark_burst_rollback_is_a_print_fixpoint() {
        for seed in 0..32u64 {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let mut ctx = Context::new();
            let module = ctx.create_module(Location::unknown());
            random_burst(&mut ctx, module, &mut rng, 12);
            let before = crate::print_op(&ctx, module);
            let (sequences, fingerprint) = (
                block_sequences(&ctx, module),
                crate::fingerprint::fingerprint_op(&ctx, module),
            );

            let watermark = ctx.begin_watermark(Some(module));
            random_burst(&mut ctx, module, &mut rng, 20);
            ctx.rollback_watermark(watermark)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));

            let after = crate::print_op(&ctx, module);
            assert_eq!(after, before, "seed {seed}");
            assert_eq!(block_sequences(&ctx, module), sequences, "seed {seed}");
            assert_eq!(
                crate::fingerprint::fingerprint_op(&ctx, module),
                fingerprint,
                "seed {seed}: ids restored exactly"
            );
            for (block, _) in &sequences {
                assert_order(&ctx, *block, seed % 2 == 0);
            }
            let mut fresh = Context::new();
            let reparsed = crate::parse_module(&mut fresh, &after)
                .unwrap_or_else(|e| panic!("seed {seed}: restored print must re-parse: {e}"));
            assert_eq!(
                crate::print_op(&fresh, reparsed),
                after,
                "seed {seed}: restored print is not a parse fixpoint"
            );
        }
    }

    /// Property: nested watermarks compose — an inner rollback returns
    /// exactly to the inner boundary, an inner commit keeps its mutations,
    /// and the outer rollback unwinds everything (committed inner scopes
    /// included) back to the outer boundary.
    #[test]
    fn property_nested_watermarks_compose_with_outer_restore() {
        for seed in 0..32u64 {
            let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x5eed);
            let mut ctx = Context::new();
            let module = ctx.create_module(Location::unknown());
            random_burst(&mut ctx, module, &mut rng, 10);
            let base = crate::print_op(&ctx, module);

            let outer = ctx.begin_watermark(Some(module));
            random_burst(&mut ctx, module, &mut rng, 6);
            let mid = crate::print_op(&ctx, module);

            let inner = ctx.begin_watermark(Some(module));
            random_burst(&mut ctx, module, &mut rng, 8);
            ctx.rollback_watermark(inner)
                .unwrap_or_else(|e| panic!("seed {seed}: inner: {e}"));
            assert_order(&ctx, ctx.sole_block(module, 0), seed % 2 == 0);
            assert_eq!(
                crate::print_op(&ctx, module),
                mid,
                "seed {seed}: inner rollback must return to the inner boundary"
            );

            let inner = ctx.begin_watermark(None);
            random_burst(&mut ctx, module, &mut rng, 5);
            ctx.commit_watermark(inner);

            ctx.rollback_watermark(outer)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(
                crate::print_op(&ctx, module),
                base,
                "seed {seed}: outer rollback must unwind committed inner scopes too"
            );
            assert_order(&ctx, ctx.sole_block(module, 0), seed % 2 == 1);
            assert_eq!(
                ctx.undo_depth(),
                0,
                "seed {seed}: no open watermarks remain"
            );
        }
    }

    /// A fingerprinted watermark checks the restore in every build, so
    /// this test runs in release too.
    #[test]
    fn rollback_rejects_an_unlogged_mutation() {
        let (mut ctx, module, body) = ctx_with_module();
        let op = ctx.create_op(Location::unknown(), "test.a", vec![], vec![], vec![], 0);
        ctx.append_op(body, op);
        let watermark = ctx.begin_watermark_fingerprinted(module);
        // Mutate behind the log's back; the rollback must notice that it
        // no longer reproduces the watermarked state.
        ctx.ops[op]
            .attributes
            .push((Symbol::new("corrupted"), Attribute::Int(1)));
        let err = ctx
            .rollback_watermark(watermark)
            .expect_err("an unlogged mutation must not validate");
        assert!(err.contains("fingerprint mismatch"), "{err}");
    }

    #[test]
    fn rollback_is_invisible_to_the_journal() {
        use td_support::journal;
        let (mut ctx, module, body) = ctx_with_module();
        let op = ctx.create_op(Location::unknown(), "test.a", vec![], vec![], vec![], 0);
        ctx.append_op(body, op);
        journal::reset();
        journal::set_enabled(true);
        let root = Some((RawId::of(module), ctx.op(module).name));
        let before = ctx.edit_count();
        let step = journal::begin_step("transform", "t", None, [], before);
        let watermark = ctx.begin_watermark(Some(module));
        ctx.erase_op(op);
        assert!(ctx.edit_count() > before);
        ctx.rollback_watermark(watermark).unwrap();
        assert_eq!(ctx.edit_count(), before, "the rollback nets the edits out");
        journal::end_step(
            step,
            ctx.edit_count(),
            1,
            journal::StepOutcome::Ok,
            "",
            root,
        );
        let recorded = journal::take();
        journal::clear_enabled_override();
        assert!(ctx.is_live(op));
        assert_eq!(
            recorded.changes().len(),
            1,
            "the erase is the step's; resurrecting the op is not a payload change \
             a transform made: {:?}",
            recorded.changes()
        );
    }

    #[test]
    fn rollback_is_immune_to_fault_injection() {
        use td_support::fault;
        let (mut ctx, module, body) = ctx_with_module();
        let op = ctx.create_op(Location::unknown(), "test.a", vec![], vec![], vec![], 0);
        ctx.append_op(body, op);
        // Under a plan that fails every op creation, a rollback must still
        // bring an erased op back: the safety net must not itself fail.
        fault::set_thread_plan(Some(fault::FaultPlan::parse("alloc_pressure@p=1").unwrap()));
        fault::set_lane(0);
        let watermark = ctx.begin_watermark(Some(module));
        ctx.erase_op(op);
        let restored = ctx.rollback_watermark(watermark);
        fault::set_thread_plan(None);
        restored.expect("restores");
        assert!(ctx.is_live(op));
    }

    #[test]
    #[should_panic(expected = "injected fault at ir.create_op")]
    fn alloc_pressure_fault_panics_in_create_op() {
        use td_support::fault;
        fault::set_thread_plan(Some(fault::FaultPlan::parse("alloc_pressure@p=1").unwrap()));
        fault::set_lane(0);
        let mut ctx = Context::new();
        let _ = ctx.create_op(Location::unknown(), "test.a", vec![], vec![], vec![], 0);
    }

    #[test]
    fn context_moves_across_threads() {
        let (mut ctx, module, body) = ctx_with_module();
        let op = ctx.create_op(Location::unknown(), "test.a", vec![], vec![], vec![], 0);
        ctx.append_op(body, op);
        // The `Send` guarantee, exercised: hand the whole context to a
        // worker thread and keep using it there.
        let count = std::thread::spawn(move || ctx.walk(module).len())
            .join()
            .unwrap();
        assert_eq!(count, 2);
    }

    #[test]
    fn watermark_is_allocation_free_and_rolls_back_exactly() {
        let (mut ctx, module, body) = ctx_with_module();
        let i32t = ctx.i32_type();
        let a = ctx.create_op(
            Location::unknown(),
            "arith.constant",
            vec![],
            [i32t],
            vec![(Symbol::new("value"), Attribute::Int(1))],
            0,
        );
        let b = ctx.create_op(
            Location::unknown(),
            "arith.constant",
            vec![],
            [i32t],
            vec![(Symbol::new("value"), Attribute::Int(2))],
            0,
        );
        ctx.append_op(body, a);
        ctx.append_op(body, b);
        let va = ctx.op(a).results()[0];
        let vb = ctx.op(b).results()[0];
        let add = ctx.create_op(
            Location::unknown(),
            "arith.addi",
            [va, va],
            [i32t],
            vec![],
            0,
        );
        ctx.append_op(body, add);
        let before = crate::print::print_op(&ctx, module);
        let ops_before = ctx.num_ops();

        let watermark = ctx.begin_watermark(Some(module));
        assert_eq!(ctx.num_ops(), ops_before, "a watermark clones nothing");

        // A representative mutation burst across every mutator class.
        ctx.set_attr(a, "value", Attribute::Int(9));
        ctx.set_attr(add, "overflow", Attribute::Bool(true));
        ctx.remove_attr(b, "value");
        ctx.set_operand(add, 1, vb);
        ctx.set_op_name(b, "arith.renamed");
        ctx.replace_all_uses(va, vb);
        ctx.move_op_before(b, a);
        let extra = ctx.create_op(Location::unknown(), "test.extra", [vb], vec![], vec![], 0);
        ctx.append_op(body, extra);
        ctx.erase_op(extra);
        ctx.erase_op(add);
        assert!(ctx.undo_entries_since(&watermark) > 0);

        ctx.rollback_watermark(watermark).expect("restores");
        assert_eq!(crate::print::print_op(&ctx, module), before);
        assert_eq!(ctx.num_ops(), ops_before);
        assert_eq!(ctx.uses(va).len(), 2, "use lists restored");
    }

    #[test]
    fn rollback_resurrects_original_ids() {
        let (mut ctx, module, body) = ctx_with_module();
        let i32t = ctx.i32_type();
        let c = ctx.create_op(
            Location::unknown(),
            "arith.constant",
            vec![],
            [i32t],
            vec![],
            0,
        );
        ctx.append_op(body, c);
        let vc = ctx.op(c).results()[0];
        let watermark = ctx.begin_watermark(Some(module));
        ctx.erase_op(c);
        assert!(!ctx.is_live(c));
        assert!(!ctx.is_value_live(vc));
        ctx.rollback_watermark(watermark).expect("restores");
        // The *same* ids are live again — no re-materialization under
        // fresh ones.
        assert!(ctx.is_live(c), "original OpId resurrected");
        assert!(ctx.is_value_live(vc), "original ValueId resurrected");
        assert_eq!(ctx.op(c).results()[0], vc);
        assert_eq!(block_seq(&ctx, body), [c]);
    }

    #[test]
    fn nested_watermarks_compose() {
        let (mut ctx, module, body) = ctx_with_module();
        let outer = ctx.begin_watermark(Some(module));
        let a = ctx.create_op(Location::unknown(), "test.a", vec![], vec![], vec![], 0);
        ctx.append_op(body, a);

        let inner = ctx.begin_watermark(None);
        let b = ctx.create_op(Location::unknown(), "test.b", vec![], vec![], vec![], 0);
        ctx.append_op(body, b);
        assert_eq!(ctx.undo_depth(), 2);
        ctx.rollback_watermark(inner).expect("inner is open");
        assert!(
            !ctx.is_live(b),
            "inner rollback unwinds only the inner scope"
        );
        assert!(ctx.is_live(a), "outer mutations survive inner rollback");

        let inner2 = ctx.begin_watermark(None);
        let c = ctx.create_op(Location::unknown(), "test.c", vec![], vec![], vec![], 0);
        ctx.append_op(body, c);
        ctx.commit_watermark(inner2);
        assert!(ctx.is_live(c), "inner commit keeps the scope");

        ctx.rollback_watermark(outer).expect("restores");
        assert!(!ctx.is_live(a));
        assert!(
            !ctx.is_live(c),
            "outer rollback unwinds committed inner scopes"
        );
        assert_eq!(ctx.undo_depth(), 0);
    }

    #[test]
    fn a_watermark_opens_without_an_enclosing_one() {
        let (mut ctx, _module, body) = ctx_with_module();
        assert_eq!(ctx.undo_depth(), 0);
        let watermark = ctx.begin_watermark(None);
        assert_eq!(ctx.undo_depth(), 1, "begin always opens");
        let a = ctx.create_op(Location::unknown(), "test.a", vec![], vec![], vec![], 0);
        ctx.append_op(body, a);
        ctx.rollback_watermark(watermark).expect("open");
        assert!(!ctx.is_live(a));
        assert_eq!(ctx.undo_depth(), 0);
    }

    #[test]
    fn outermost_commit_clears_the_log() {
        let (mut ctx, module, body) = ctx_with_module();
        let watermark = ctx.begin_watermark(Some(module));
        let a = ctx.create_op(Location::unknown(), "test.a", vec![], vec![], vec![], 0);
        ctx.append_op(body, a);
        ctx.commit_watermark(watermark);
        assert!(ctx.is_live(a), "commit keeps the mutations");
        assert_eq!(ctx.undo_depth(), 0);
        // After commit the log is inactive: mutations are free again and a
        // fresh watermark starts from a clean slate.
        let next = ctx.begin_watermark(Some(module));
        assert_eq!(ctx.undo_entries_since(&next), 0);
        ctx.commit_watermark(next);
    }

    #[test]
    fn rollback_is_byte_identical() {
        let (mut ctx, module, body) = ctx_with_module();
        let i32t = ctx.i32_type();
        let c = ctx.create_op(
            Location::unknown(),
            "arith.constant",
            vec![],
            [i32t],
            vec![(Symbol::new("value"), Attribute::Int(7))],
            0,
        );
        ctx.append_op(body, c);
        let before = crate::print::print_op(&ctx, module);
        let watermark = ctx.begin_watermark(Some(module));
        ctx.set_attr(c, "value", Attribute::Int(8));
        let junk = ctx.create_op(Location::unknown(), "test.junk", vec![], vec![], vec![], 0);
        ctx.append_op(body, junk);
        ctx.rollback_watermark(watermark).expect("restores");
        assert_eq!(crate::print::print_op(&ctx, module), before);
    }

    /// `random_burst` logs every entry kind — each one that carries side
    /// data included — so the watermark properties replay them all.
    #[test]
    fn random_burst_logs_every_undo_entry_kind() {
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..32u64 {
            let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xc0de);
            let mut ctx = Context::new();
            let module = ctx.create_module(Location::unknown());
            random_burst(&mut ctx, module, &mut rng, 12);
            let before = crate::print_op(&ctx, module);
            let edits = ctx.edit_count();
            assert!(edits > 0, "unlogged edits count too");
            let watermark = ctx.begin_watermark(Some(module));
            random_burst(&mut ctx, module, &mut rng, 40);
            kinds.extend(ctx.undo.entries().iter().map(UndoEntry::kind));
            let logged = ctx.undo.entries().len() as u64;
            assert_eq!(
                ctx.edit_count() - edits,
                logged,
                "seed {seed}: one edit per entry"
            );
            ctx.rollback_watermark(watermark)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(crate::print_op(&ctx, module), before, "seed {seed}");
            assert_eq!(
                ctx.edit_count(),
                edits,
                "seed {seed}: the rollback nets out"
            );
        }
        assert_eq!(kinds.len(), UndoEntry::KINDS, "kinds logged: {kinds:?}");
    }

    /// N replacements in the middle of an N-op block — a new op inserted
    /// before the current one, its order asked, the old one erased — key
    /// O(N) ops in all: each keying is local, never a renumbering of the
    /// block, so 4N replacements cost about 4x as many keys as N.
    #[test]
    fn order_keys_grow_linearly_with_edits_in_the_middle_of_a_block() {
        fn keys_for(n: usize) -> u64 {
            let (mut ctx, _module, body) = ctx_with_module();
            for _ in 0..n {
                let op = ctx.create_op(Location::unknown(), "test.a", [], [], vec![], 0);
                ctx.append_op(body, op);
            }
            let (first, last) = (ctx.block(body).first_op(), ctx.block(body).last_op());
            assert!(ctx.is_before(first.unwrap(), last.unwrap()));
            let keyed = ctx.storage_stats().order_keys_assigned;
            let mut anchor = block_seq(&ctx, body)[n / 2];
            for _ in 0..n {
                let op = ctx.create_op(Location::unknown(), "test.b", [], [], vec![], 0);
                ctx.insert_op_before(anchor, op);
                assert!(ctx.is_before(op, anchor));
                ctx.erase_op(anchor);
                anchor = op;
            }
            assert_eq!(ctx.block(body).len(), n);
            let ops = block_seq(&ctx, body);
            assert!(ops.windows(2).all(|pair| ctx.is_before(pair[0], pair[1])));
            ctx.storage_stats().order_keys_assigned - keyed
        }
        let (small, large) = (keys_for(500), keys_for(2000));
        assert!(
            large as f64 <= 4.5 * small as f64,
            "{small} keys for 500 edits, {large} for 2000"
        );
    }

    /// A block whose last `inserts` ops went in one by one before its last
    /// op, each asked for its order as it landed: the gap there halves
    /// until it runs out and keys are relabelled, so near the end some
    /// neighbours hold adjacent keys.
    fn block_with_dense_keys(inserts: usize) -> (Context, BlockId) {
        let (mut ctx, _module, body) = ctx_with_module();
        let node =
            |ctx: &mut Context| ctx.create_op(Location::unknown(), "test.a", [], [], vec![], 0);
        let (first, anchor) = (node(&mut ctx), node(&mut ctx));
        ctx.append_op(body, first);
        ctx.append_op(body, anchor);
        assert!(ctx.is_before(first, anchor));
        for _ in 0..inserts {
            let op = node(&mut ctx);
            ctx.insert_op_before(anchor, op);
            assert!(ctx.is_before(op, anchor));
        }
        (ctx, body)
    }

    /// A relabel that starts right of a keyless op keeps every keyed op in
    /// order: its range reaches over keyless ops to the keyed ones beyond.
    /// Among dense keys, an op is inserted without asking its order, then
    /// one further right is asked for its order, at every pair of spots
    /// near the dense end. Once every op is keyed, neighbours in order mean
    /// every pair is.
    #[test]
    fn a_relabel_reaches_over_keyless_ops() {
        for inserts in 32..=72 {
            let spots = inserts + 2;
            for x in spots - 16..spots {
                for y in x + 1..spots {
                    let (mut ctx, body) = block_with_dense_keys(inserts);
                    let seq = block_seq(&ctx, body);
                    let keyless = ctx.create_op(Location::unknown(), "test.x", [], [], vec![], 0);
                    ctx.insert_op_after(seq[x], keyless);
                    let keyed = ctx.create_op(Location::unknown(), "test.y", [], [], vec![], 0);
                    ctx.insert_op_after(seq[y], keyed);
                    assert!(ctx.is_before(seq[y], keyed));
                    let ops = block_seq(&ctx, body);
                    for (i, pair) in ops.windows(2).enumerate() {
                        assert!(
                            ctx.is_before(pair[0], pair[1]),
                            "{inserts} inserts, x {x}, y {y}: ops {i} and {}",
                            i + 1
                        );
                    }
                }
            }
        }
    }

    /// Property: `is_before` agrees with sequence order when only some ops
    /// are ever asked about, so keyless ops sit among keyed ones when a gap
    /// runs out. Inserts cluster around a moving spot and most are asked
    /// about against it, so gaps there do run out.
    #[test]
    fn property_order_holds_when_only_some_ops_are_asked() {
        for seed in 0..24u64 {
            let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x0bde_4c0d);
            let (mut ctx, _module, body) = ctx_with_module();
            let mut spot = ctx.create_op(Location::unknown(), "test.a", [], [], vec![], 0);
            ctx.append_op(body, spot);
            for step in 0..300 {
                let op = ctx.create_op(Location::unknown(), "test.a", [], [], vec![], 0);
                let before = rng.range_usize(0, 2) == 0;
                if before {
                    ctx.insert_op_before(spot, op);
                } else {
                    ctx.insert_op_after(spot, op);
                }
                if rng.range_usize(0, 3) != 0 {
                    assert_eq!(ctx.is_before(op, spot), before, "seed {seed} step {step}");
                }
                let seq = block_seq(&ctx, body);
                for _ in 0..rng.range_usize(0, 3) {
                    let (i, j) = (rng.range_usize(0, seq.len()), rng.range_usize(0, seq.len()));
                    let answer = ctx.is_before(seq[i], seq[j]);
                    assert_eq!(answer, i < j, "seed {seed} step {step}: ops {i} and {j}");
                }
                spot = match rng.range_usize(0, 8) {
                    0 => seq[rng.range_usize(0, seq.len())],
                    1 if seq.len() > 2 => {
                        let gone = seq[rng.range_usize(0, seq.len())];
                        if gone != spot {
                            ctx.erase_op(gone);
                        }
                        spot
                    }
                    _ => op,
                };
            }
            assert_order(&ctx, body, seed % 2 == 0);
        }
    }

    #[test]
    fn storage_stats_count_creation_erasure_and_block_edits() {
        let (mut ctx, _module, body) = ctx_with_module();
        let before = ctx.storage_stats();
        let a = ctx.create_op(Location::unknown(), "test.a", [], [], vec![], 0);
        ctx.append_op(body, a);
        ctx.erase_op(a);
        let after = ctx.storage_stats();
        assert_eq!(after.ops_created - before.ops_created, 1);
        assert_eq!(after.ops_erased - before.ops_erased, 1);
        assert_eq!(
            after.block_edits - before.block_edits,
            2,
            "one link, one unlink"
        );
    }

    #[test]
    fn lookup_symbol_finds_functions() {
        let (mut ctx, module, body) = ctx_with_module();
        let f = ctx.create_op(
            Location::unknown(),
            "func.func",
            vec![],
            vec![],
            vec![(Symbol::new("sym_name"), Attribute::String("main".into()))],
            1,
        );
        ctx.append_op(body, f);
        assert_eq!(ctx.lookup_symbol(module, "main"), Some(f));
        assert_eq!(ctx.lookup_symbol(module, "other"), None);
    }
}
#[cfg(test)]
#[test]
fn tmp_sizes() {
    eprintln!("OpData {} ValueData {} BlockData {} RegionData {} Location {} Operands {} Results {} Regions {} Uses {} Attr {}",
        std::mem::size_of::<OpData>(), std::mem::size_of::<ValueData>(), std::mem::size_of::<BlockData>(), std::mem::size_of::<RegionData>(),
        std::mem::size_of::<Location>(), std::mem::size_of::<OperandList>(), std::mem::size_of::<ResultList>(), std::mem::size_of::<RegionList>(), std::mem::size_of::<UseList>(), std::mem::size_of::<Attribute>());
}
