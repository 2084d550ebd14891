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

use crate::attrs::Attribute;
use crate::dialect::DialectRegistry;
use crate::types::{TypeId, TypeKind, TypeStore};
use crate::undo::{Mark, UndoEntry, UndoLog};
use std::cell::Cell;
use std::collections::HashMap;
use td_support::{Arena, Idx, Location, Symbol};

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
    pub(crate) uses: Vec<(OpId, u32)>,
}

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
    pub(crate) operands: Vec<ValueId>,
    /// Result values.
    pub(crate) results: Vec<ValueId>,
    /// Ordered attribute dictionary.
    pub(crate) attributes: Vec<(Symbol, Attribute)>,
    /// Nested regions.
    pub(crate) regions: Vec<RegionId>,
    /// Successor blocks (terminators only).
    pub(crate) successors: Vec<BlockId>,
    /// The block containing this op, if attached.
    pub(crate) parent: Option<BlockId>,
    /// Index of this op in its block's op list as of its insertion or last
    /// numbering: exact for every op in the block's numbered prefix (see
    /// [`BlockData`]), possibly stale past it, so a reader checks it
    /// against the list.
    pub(crate) position: Cell<usize>,
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
/// The op list is numbered lazily: every op in `ops[..numbered]` holds its
/// exact index in [`OpData`]'s `position`, so [`Context::op_position`] is
/// amortized O(1). Only `Context::link_op` and `Context::unlink_op` write
/// `ops`, and both cut `numbered` back to the edited index.
#[derive(Clone, Debug, Default)]
pub struct BlockData {
    /// Block arguments.
    pub(crate) args: Vec<ValueId>,
    /// Ordered operations.
    pub(crate) ops: Vec<OpId>,
    /// Length of the prefix of `ops` whose positions are exact.
    numbered: Cell<usize>,
    /// Owning region.
    pub(crate) parent: Option<RegionId>,
}

impl BlockData {
    /// Block arguments.
    pub fn args(&self) -> &[ValueId] {
        &self.args
    }
    /// Operations in order.
    pub fn ops(&self) -> &[OpId] {
        &self.ops
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
    pub(crate) blocks: Vec<BlockId>,
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
    /// The `!transform.param` type.
    pub fn transform_param_type(&mut self) -> TypeId {
        self.intern_type(TypeKind::TransformParam)
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

    /// Whether `block` still refers to a live block.
    pub fn is_block_live(&self, block: BlockId) -> bool {
        self.blocks.contains(block)
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
        &self.values[value].uses
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
    /// block (unless it is a top-level module).
    pub fn create_op(
        &mut self,
        location: Location,
        name: impl Into<Symbol>,
        operands: Vec<ValueId>,
        result_types: Vec<TypeId>,
        attributes: Vec<(Symbol, Attribute)>,
        num_regions: usize,
    ) -> OpId {
        let name = name.into();
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
            operands: Vec::new(),
            results: Vec::new(),
            attributes,
            regions: Vec::new(),
            successors: Vec::new(),
            parent: None,
            position: Cell::new(0),
        });
        let results: Vec<ValueId> = result_types
            .into_iter()
            .enumerate()
            .map(|(index, ty)| {
                self.values.alloc(ValueData {
                    ty,
                    def: ValueDef::OpResult {
                        op,
                        index: index as u32,
                    },
                    uses: Vec::new(),
                })
            })
            .collect();
        let regions: Vec<RegionId> = (0..num_regions)
            .map(|_| {
                self.regions.alloc(RegionData {
                    blocks: Vec::new(),
                    parent: Some(op),
                })
            })
            .collect();
        for (index, &operand) in operands.iter().enumerate() {
            self.values[operand].uses.push((op, index as u32));
        }
        let data = &mut self.ops[op];
        data.operands = operands;
        data.results = results;
        data.regions = regions;
        if self.undo.active {
            self.undo.push(UndoEntry::OpCreated { op });
        }
        if td_support::journal::recording() {
            td_support::journal::record_change(
                td_support::journal::ChangeKind::Created,
                &format!("{op:?}"),
                name.as_str(),
                "",
            );
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
        let args: Vec<ValueId> = arg_types
            .iter()
            .enumerate()
            .map(|(index, &ty)| {
                self.values.alloc(ValueData {
                    ty,
                    def: ValueDef::BlockArg {
                        block,
                        index: index as u32,
                    },
                    uses: Vec::new(),
                })
            })
            .collect();
        self.blocks[block].args = args;
        self.regions[region].blocks.push(block);
        if self.undo.active {
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
            uses: vec![],
        });
        self.blocks[block].args.push(value);
        if self.undo.active {
            self.undo.push(UndoEntry::BlockArgAdded { block, value });
        }
        value
    }

    /// Sets the successor blocks of a terminator.
    pub fn set_successors(&mut self, op: OpId, successors: Vec<BlockId>) {
        let old = std::mem::replace(&mut self.ops[op].successors, successors);
        if self.undo.active {
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
        self.insert_op(block, self.blocks[block].ops.len(), op);
    }

    /// Inserts a detached op at `index` within a block.
    pub fn insert_op(&mut self, block: BlockId, index: usize, op: OpId) {
        assert!(
            self.ops[op].parent.is_none(),
            "op {op:?} is already attached"
        );
        self.link_op(block, index, op);
        if self.undo.active {
            self.undo.push(UndoEntry::OpInserted { op });
        }
    }

    /// Detaches an op from its block without erasing it.
    pub fn detach_op(&mut self, op: OpId) {
        if let Some(block) = self.ops[op].parent {
            let pos = self
                .op_position(block, op)
                .expect("op missing from parent block list");
            self.unlink_op(block, pos);
            if self.undo.active {
                self.undo.push(UndoEntry::OpDetached {
                    op,
                    block,
                    index: pos as u32,
                });
            }
        }
    }

    /// Moves `op` so it comes immediately before `before` (same or another
    /// block).
    pub fn move_op_before(&mut self, op: OpId, before: OpId) {
        self.detach_op(op);
        let block = self.ops[before].parent.expect("`before` op is detached");
        let pos = self
            .op_position(block, before)
            .expect("`before` missing from block");
        self.insert_op(block, pos, op);
    }

    /// Moves `op` so it comes immediately after `after`.
    pub fn move_op_after(&mut self, op: OpId, after: OpId) {
        self.detach_op(op);
        let block = self.ops[after].parent.expect("`after` op is detached");
        let pos = self
            .op_position(block, after)
            .expect("`after` missing from block");
        self.insert_op(block, pos + 1, op);
    }

    /// Position of `op` inside `block`, if present.
    ///
    /// Amortized O(1): an op whose stored position still holds it answers
    /// from there; otherwise the numbering is extended forward until it
    /// reaches `op`, so each op is renumbered once per edit upstream of
    /// it, not rescanned per lookup.
    pub fn op_position(&self, block: BlockId, op: OpId) -> Option<usize> {
        let data = self.ops.get(op)?;
        if data.parent != Some(block) {
            return None;
        }
        let block = &self.blocks[block];
        let position = data.position.get();
        if block.ops.get(position) == Some(&op) {
            return Some(position);
        }
        for index in block.numbered.get()..block.ops.len() {
            let next = block.ops[index];
            self.ops[next].position.set(index);
            if next == op {
                block.numbered.set(index + 1);
                return Some(index);
            }
        }
        None
    }

    /// Inserts `op` at `index` of `block` and links its parent. With
    /// [`Context::unlink_op`], the only write to a block's op list: ops
    /// before `index` keep their positions, so the numbered prefix ends
    /// just past the inserted op if it reached `index`. The op's own
    /// position is exact either way, which is what lets an op appended
    /// past the prefix be found without numbering up to it.
    fn link_op(&mut self, block: BlockId, index: usize, op: OpId) {
        let data = &mut self.blocks[block];
        data.ops.insert(index, op);
        let numbered = data.numbered.get_mut();
        if *numbered >= index {
            *numbered = index + 1;
        }
        let op = &mut self.ops[op];
        op.parent = Some(block);
        op.position.set(index);
    }

    /// Removes the op at `index` of `block` and clears its parent; the
    /// numbered prefix ends at `index` at most.
    fn unlink_op(&mut self, block: BlockId, index: usize) -> OpId {
        let data = &mut self.blocks[block];
        let op = data.ops.remove(index);
        let numbered = data.numbered.get_mut();
        *numbered = (*numbered).min(index);
        self.ops[op].parent = None;
        op
    }

    // ----- mutation ------------------------------------------------------

    /// Replaces the operand at `index` of `op` with `new_value`, updating
    /// use lists.
    pub fn set_operand(&mut self, op: OpId, index: usize, new_value: ValueId) {
        let old = self.ops[op].operands[index];
        if old == new_value {
            return;
        }
        let uses = &mut self.values[old].uses;
        if let Some(pos) = uses
            .iter()
            .position(|&(o, i)| o == op && i as usize == index)
        {
            uses.swap_remove(pos);
        }
        self.values[new_value].uses.push((op, index as u32));
        self.ops[op].operands[index] = new_value;
        if self.undo.active {
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
        if self.undo.active {
            self.undo.push(UndoEntry::NameSet { op, old });
        }
    }

    /// Appends an operand to `op`, updating use lists.
    pub fn append_operand(&mut self, op: OpId, value: ValueId) {
        let index = self.ops[op].operands.len() as u32;
        self.ops[op].operands.push(value);
        self.values[value].uses.push((op, index));
        if self.undo.active {
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
        if self.undo.active {
            self.undo.side.uses.extend_from_slice(&uses);
            self.undo.push(UndoEntry::UsesReplaced {
                old,
                new,
                count: uses.len() as u32,
            });
        }
        self.values[new].uses.extend(uses);
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
        if self.undo.active {
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
        if self.undo.active {
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
        if td_support::journal::recording() {
            td_support::journal::record_change(
                td_support::journal::ChangeKind::Erased,
                &format!("{op:?}"),
                self.ops[op].name.as_str(),
                "",
            );
        }
        // First erase nested regions so uses inside the subtree disappear.
        // The op's own lists stay put until it is freed, so every loop
        // below reads them by index instead of copying them.
        for i in 0..self.ops[op].regions.len() {
            let region = self.ops[op].regions[i];
            self.erase_region_contents(region);
            let data = self.regions.erase(region).expect("region is live");
            if self.undo.active {
                self.undo.side.regions.push(data);
                self.undo.push(UndoEntry::RegionFreed { region });
            }
        }
        // Unlink operand uses.
        for index in 0..self.ops[op].operands.len() {
            let operand = self.ops[op].operands[index];
            if let Some(value) = self.values.get_mut(operand) {
                if let Some(pos) = value
                    .uses
                    .iter()
                    .position(|&(o, i)| o == op && i as usize == index)
                {
                    value.uses.swap_remove(pos);
                    if self.undo.active {
                        self.undo.push(UndoEntry::UseUnlinked {
                            value: operand,
                            op,
                            index: index as u32,
                        });
                    }
                }
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
        if self.undo.active {
            self.undo.side.ops.push(data);
            self.undo.push(UndoEntry::OpFreed { op });
        }
    }

    /// Erases all blocks (and their ops) of a region, leaving it empty.
    pub fn erase_region_contents(&mut self, region: RegionId) {
        let blocks = std::mem::take(&mut self.regions[region].blocks);
        if !self.undo.active {
            for block in blocks {
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
        while let Some(&op) = self.blocks[block].ops.last() {
            self.erase_op(op);
        }
        for i in 0..self.blocks[block].args.len() {
            self.free_value(self.blocks[block].args[i]);
        }
        let data = self.blocks.erase(block).expect("block is live");
        if self.undo.active {
            self.undo.side.blocks.push(data);
            self.undo.push(UndoEntry::BlockFreed { block });
        }
    }

    /// Frees a result or block argument's slot, logging its payload.
    fn free_value(&mut self, value: ValueId) {
        let data = self.values.erase(value).expect("value is live");
        if self.undo.active {
            self.undo.side.values.push(data);
            self.undo.push(UndoEntry::ValueFreed { value });
        }
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
                for &nested in &self.blocks[block].ops {
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
                for &op in &self.blocks[block].ops {
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
        if self.undo.active {
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
        if self.undo.active {
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
        let data = self.ops[op].clone();
        let operands: Vec<ValueId> = data
            .operands
            .iter()
            .map(|v| *value_map.get(v).unwrap_or(v))
            .collect();
        let result_types: Vec<TypeId> = data.results.iter().map(|&r| self.values[r].ty).collect();
        let clone = self.create_op(
            data.location.clone(),
            data.name,
            operands,
            result_types,
            data.attributes.clone(),
            0,
        );
        for (old, new) in data.results.iter().zip(self.ops[clone].results.clone()) {
            value_map.insert(*old, new);
        }
        // Clone regions.
        let mut block_map: HashMap<BlockId, BlockId> = HashMap::new();
        for &region in &data.regions {
            let new_region = self.regions.alloc(RegionData {
                blocks: vec![],
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
                let old_args = self.blocks[block].args.clone();
                let new_args = self.blocks[new_block].args.clone();
                for (old, new) in old_args.into_iter().zip(new_args) {
                    value_map.insert(old, new);
                }
            }
            // Pass 2: clone ops.
            for &block in &blocks {
                let ops = self.blocks[block].ops.clone();
                let new_block = block_map[&block];
                for nested in ops {
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
    /// `validate` names an op whose structural fingerprint a rollback must
    /// reproduce. The walk is O(op) — the only non-constant cost of a
    /// watermark — so it is taken under `debug_assertions` (every
    /// `cargo test`) and skipped in release builds, where rollback
    /// correctness is enforced from outside by the chaos and fuzz gates.
    pub fn begin_watermark(&mut self, validate: Option<OpId>) -> Watermark {
        let expect = validate
            .filter(|_| cfg!(debug_assertions))
            .map(|op| (op, crate::fingerprint::structural_fingerprint_op(self, op)));
        Watermark {
            mark: self.undo.begin(),
            expect,
        }
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
    /// Returns a message if `watermark` is already closed, or — where the
    /// watermark captured a fingerprint — if the rolled-back op does not
    /// reproduce it: an unlogged mutation (e.g. new IR parsed into the
    /// context while the watermark was open).
    pub fn rollback_watermark(&mut self, watermark: Watermark) -> Result<(), String> {
        let mark = watermark.mark;
        if !self.undo.close(mark) {
            return Err("rollback of a watermark that is already closed".into());
        }
        while let Some(entry) = self.undo.pop_since(mark) {
            self.apply_undo(entry);
        }
        self.undo.rolled_back(mark);
        if let Some((op, expected)) = watermark.expect {
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
                for (index, operand) in data.operands.into_iter().enumerate() {
                    if let Some(value) = self.values.get_mut(operand) {
                        if let Some(pos) = value
                            .uses
                            .iter()
                            .position(|&(o, i)| o == op && i as usize == index)
                        {
                            value.uses.swap_remove(pos);
                        }
                    }
                }
                for result in data.results {
                    self.values.erase(result);
                }
                for region in data.regions {
                    self.regions.erase(region);
                }
            }
            UndoEntry::BlockCreated { block } => {
                let data = self.blocks.erase(block).expect("created block is live");
                debug_assert!(data.ops.is_empty(), "undo of block create found ops");
                for arg in data.args {
                    self.values.erase(arg);
                }
                if let Some(region) = data.parent {
                    if let Some(region) = self.regions.get_mut(region) {
                        region.blocks.retain(|&b| b != block);
                    }
                }
            }
            UndoEntry::BlockArgAdded { block, value } => {
                self.blocks[block].args.retain(|&a| a != value);
                self.values.erase(value);
            }
            UndoEntry::OpInserted { op } => {
                if let Some(block) = self.ops[op].parent {
                    let pos = self
                        .op_position(block, op)
                        .expect("inserted op missing from block");
                    self.unlink_op(block, pos);
                }
            }
            UndoEntry::OpDetached { op, block, index } => {
                self.link_op(block, index as usize, op);
            }
            UndoEntry::OperandSet { op, index, old } => {
                let current = self.ops[op].operands[index as usize];
                let uses = &mut self.values[current].uses;
                if let Some(pos) = uses.iter().position(|&(o, i)| o == op && i == index) {
                    uses.swap_remove(pos);
                }
                self.values[old].uses.push((op, index));
                self.ops[op].operands[index as usize] = old;
            }
            UndoEntry::OperandAppended { op } => {
                let value = self.ops[op].operands.pop().expect("appended operand");
                let index = self.ops[op].operands.len() as u32;
                let uses = &mut self.values[value].uses;
                if let Some(pos) = uses.iter().position(|&(o, i)| o == op && i == index) {
                    uses.swap_remove(pos);
                }
            }
            UndoEntry::NameSet { op, old } => {
                self.ops[op].name = old;
            }
            UndoEntry::SuccessorsSet { op } => {
                self.ops[op].successors = side.block_lists.pop().expect("old successors");
            }
            UndoEntry::UsesReplaced { old, new, count } => {
                let start = side.uses.len() - count as usize;
                for &(op, index) in &side.uses[start..] {
                    let new_uses = &mut self.values[new].uses;
                    if let Some(pos) = new_uses.iter().position(|&(o, i)| o == op && i == index) {
                        new_uses.swap_remove(pos);
                    }
                    self.ops[op].operands[index as usize] = old;
                }
                self.values[old].uses.extend(side.uses.drain(start..));
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
                if let Some(value) = self.values.get_mut(value) {
                    value.uses.push((op, index));
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
}

/// An open undo-log watermark from [`Context::begin_watermark`]: close it
/// with [`Context::commit_watermark`] or [`Context::rollback_watermark`].
/// Losing one to a panic unwind is tolerated — closing an enclosing
/// watermark drops it; losing the outermost one leaves the log recording
/// (entries accumulate) for the context's lifetime.
#[derive(Debug)]
pub struct Watermark {
    mark: Mark,
    /// `(op, structural fingerprint)` a rollback must reproduce.
    expect: Option<(OpId, u64)>,
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
            vec![i32t],
            vec![(Symbol::new("value"), Attribute::Int(7))],
            0,
        );
        ctx.append_op(body, c);
        assert_eq!(ctx.block(body).ops().len(), 1);
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
            vec![i32t],
            vec![],
            0,
        );
        let b = ctx.create_op(
            Location::unknown(),
            "arith.constant",
            vec![],
            vec![i32t],
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
            vec![va, va],
            vec![i32t],
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
            vec![i32t],
            vec![],
            0,
        );
        let b = ctx.create_op(
            Location::unknown(),
            "arith.constant",
            vec![],
            vec![i32t],
            vec![],
            0,
        );
        ctx.append_op(body, a);
        ctx.append_op(body, b);
        let va = ctx.op(a).results()[0];
        let vb = ctx.op(b).results()[0];
        let u1 = ctx.create_op(Location::unknown(), "test.use", vec![va], vec![], vec![], 0);
        let u2 = ctx.create_op(
            Location::unknown(),
            "test.use",
            vec![va, va],
            vec![],
            vec![],
            0,
        );
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
            vec![i32t],
            vec![],
            0,
        );
        ctx.append_op(body, a);
        ctx.erase_op(a);
        assert!(!ctx.is_live(a));
        assert!(ctx.block(body).ops().is_empty());
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
            vec![i32t],
            vec![],
            0,
        );
        ctx.append_op(body, a);
        let va = ctx.op(a).results()[0];
        let u = ctx.create_op(Location::unknown(), "test.use", vec![va], vec![], vec![], 0);
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
            vec![i32t],
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
        assert_eq!(ctx.block(body).ops(), &[c, a, b]);
        ctx.move_op_after(c, b);
        assert_eq!(ctx.block(body).ops(), &[a, b, c]);
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
        let use_op = ctx.create_op(
            Location::unknown(),
            "test.use",
            vec![arg],
            vec![i32t],
            vec![],
            0,
        );
        ctx.append_op(block, use_op);
        let mut map = HashMap::new();
        let clone = ctx.clone_op(outer, &mut map);
        ctx.append_op(body, clone);
        let cloned_block = ctx.sole_block(clone, 0);
        let cloned_arg = ctx.block(cloned_block).args()[0];
        let cloned_use = ctx.block(cloned_block).ops()[0];
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
            vec![i32t],
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
        let cloned_c = ctx.block(cloned_body).ops()[0];
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
            vec![i32t],
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
        let ops = ctx.block(restored_body).ops().to_vec();
        assert_eq!(ops.len(), 1);
        assert_eq!(
            ctx.op(ops[0]).attr("value"),
            Some(&Attribute::Int(7)),
            "nested attribute rolled back"
        );
    }

    /// Asserts that `op_position` agrees with the op list of `block` for
    /// every op, looked up back to front (one long numbering walk) or front
    /// to back (one step per lookup).
    fn assert_positions(ctx: &Context, block: BlockId, back_to_front: bool) {
        let ops = ctx.block(block).ops();
        let mut order: Vec<usize> = (0..ops.len()).collect();
        if back_to_front {
            order.reverse();
        }
        for index in order {
            assert_eq!(ctx.op_position(block, ops[index]), Some(index));
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
        let op = ctx.create_op(
            Location::unknown(),
            "test.node",
            vec![arg],
            vec![i32t],
            vec![],
            0,
        );
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
        let inner = ctx.block(block).ops().to_vec();
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
                let successors = (0..rng.range_usize(0, 3))
                    .map(|_| blocks[rng.range_usize(0, blocks.len())])
                    .collect();
                ctx.set_successors(inner[rng.range_usize(0, inner.len())], successors);
            }
            _ => {}
        }
    }

    /// Applies `actions` randomly chosen public mutations to `module`'s
    /// body: op creation at a random index (operands drawn from the ops
    /// before it), use-guarded erasure anywhere in the block, moves and
    /// detach-then-reinsert within the span the op's defs and uses allow,
    /// attribute churn, use rewiring, operand pokes and renames. It also
    /// builds and edits region-holding `test.wrap` ops: their blocks gain
    /// blocks, arguments, operands, retypes and successors, and their
    /// regions are emptied or moved onto each other whole. Every block of a
    /// wrap has an argument (so its header prints) and its ops read only
    /// their own block's arguments, so a wrap can sit anywhere. Defs stay
    /// before uses, so the module always re-parses. After every action each
    /// op's `op_position` is checked against the op list. Pure in `rng`, so
    /// a failing seed reproduces exactly.
    fn random_burst(ctx: &mut Context, module: OpId, rng: &mut Xoshiro256pp, actions: usize) {
        let i32t = ctx.i32_type();
        let i64t = ctx.i64_type();
        let body = ctx.sole_block(module, 0);
        for _ in 0..actions {
            let ops = ctx.block(body).ops().to_vec();
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
                    let operands = (0..arity)
                        .map(|_| values[rng.range_usize(0, values.len())])
                        .collect();
                    let op = ctx.create_op(
                        Location::unknown(),
                        "test.node",
                        operands,
                        vec![i32t],
                        vec![(Symbol::new("n"), Attribute::Int(rng.next_u64() as i64))],
                        0,
                    );
                    ctx.insert_op(body, at, op);
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
                    assert_eq!(
                        ctx.op_position(body, op),
                        None,
                        "detached op has no position"
                    );
                    let rest = ctx.block(body).ops().to_vec();
                    let (lo, hi) = legal_span(ctx, &rest, op);
                    ctx.insert_op(body, rng.range_usize(lo, hi + 1), op);
                }
                7 => {
                    let at = rng.range_usize(0, ops.len() + 1);
                    let wrap =
                        ctx.create_op(Location::unknown(), "test.wrap", vec![], vec![], vec![], 1);
                    add_wrap_block(ctx, ctx.op(wrap).regions()[0]);
                    ctx.insert_op(body, at, wrap);
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
            assert_positions(ctx, body, rng.range_usize(0, 2) == 0);
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

            let watermark = ctx.begin_watermark(Some(module));
            random_burst(&mut ctx, module, &mut rng, 20);
            ctx.rollback_watermark(watermark)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));

            let after = crate::print_op(&ctx, module);
            assert_eq!(after, before, "seed {seed}");
            assert_positions(&ctx, ctx.sole_block(module, 0), seed % 2 == 0);
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
        for seed in 0..16u64 {
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
            assert_positions(&ctx, ctx.sole_block(module, 0), seed % 2 == 0);
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
            assert_positions(&ctx, ctx.sole_block(module, 0), seed % 2 == 1);
            assert_eq!(
                ctx.undo_depth(),
                0,
                "seed {seed}: no open watermarks remain"
            );
        }
    }

    /// The restore validation is a `debug_assertions` check, so this test
    /// exists only where it does.
    #[cfg(debug_assertions)]
    #[test]
    fn rollback_rejects_an_unlogged_mutation() {
        let (mut ctx, module, body) = ctx_with_module();
        let op = ctx.create_op(Location::unknown(), "test.a", vec![], vec![], vec![], 0);
        ctx.append_op(body, op);
        let watermark = ctx.begin_watermark(Some(module));
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
        let step = journal::begin_step("transform", "t", "", vec![], 0);
        let watermark = ctx.begin_watermark(Some(module));
        ctx.erase_op(op);
        ctx.rollback_watermark(watermark).unwrap();
        journal::end_step(step, 0, 1, journal::StepOutcome::Ok, "", "", "");
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
            vec![i32t],
            vec![(Symbol::new("value"), Attribute::Int(1))],
            0,
        );
        let b = ctx.create_op(
            Location::unknown(),
            "arith.constant",
            vec![],
            vec![i32t],
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
            vec![va, va],
            vec![i32t],
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
        let extra = ctx.create_op(
            Location::unknown(),
            "test.extra",
            vec![vb],
            vec![],
            vec![],
            0,
        );
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
            vec![i32t],
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
        assert_eq!(ctx.block(body).ops(), &[c]);
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
            vec![i32t],
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
        for seed in 0..8u64 {
            let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xc0de);
            let mut ctx = Context::new();
            let module = ctx.create_module(Location::unknown());
            random_burst(&mut ctx, module, &mut rng, 12);
            let before = crate::print_op(&ctx, module);
            let watermark = ctx.begin_watermark(Some(module));
            random_burst(&mut ctx, module, &mut rng, 40);
            kinds.extend(ctx.undo.entries().iter().map(UndoEntry::kind));
            ctx.rollback_watermark(watermark)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(crate::print_op(&ctx, module), before, "seed {seed}");
        }
        assert_eq!(kinds.len(), UndoEntry::KINDS, "kinds logged: {kinds:?}");
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
