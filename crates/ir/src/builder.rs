//! Ergonomic IR construction with an insertion point.

use crate::attrs::Attribute;
use crate::ir::{BlockId, Context, OpId, ValueId};
use crate::types::TypeId;
use td_support::{InlineVec, Location, Symbol};

/// Where new operations are inserted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertPoint {
    /// Append at the end of a block.
    AtEnd(BlockId),
    /// Insert immediately before an op, which stays the anchor: ops built
    /// in a row land in order before it.
    Before(OpId),
}

/// A builder that creates operations at an insertion point.
///
/// Modeled on MLIR's `OpBuilder`: it borrows the [`Context`] mutably and
/// keeps a current insertion point and location.
///
/// # Examples
///
/// ```
/// use td_ir::{Context, OpBuilder, Attribute};
/// use td_support::Location;
/// let mut ctx = Context::new();
/// let module = ctx.create_module(Location::unknown());
/// let body = ctx.sole_block(module, 0);
/// let mut b = OpBuilder::at_end(&mut ctx, body);
/// let i64t = b.ctx().i64_type();
/// let op = b.op("arith.constant").attr("value", Attribute::Int(4)).results(vec![i64t]).build();
/// assert_eq!(b.ctx().block(body).first_op(), Some(op));
/// ```
#[derive(Debug)]
pub struct OpBuilder<'c> {
    ctx: &'c mut Context,
    insert: InsertPoint,
    location: Location,
}

impl<'c> OpBuilder<'c> {
    /// Builder inserting at the end of `block`.
    pub fn at_end(ctx: &'c mut Context, block: BlockId) -> Self {
        OpBuilder {
            ctx,
            insert: InsertPoint::AtEnd(block),
            location: Location::Unknown,
        }
    }

    /// Builder inserting immediately before `op`.
    pub fn before(ctx: &'c mut Context, op: OpId) -> Self {
        assert!(
            ctx.op(op).parent().is_some(),
            "cannot insert before a detached op"
        );
        OpBuilder {
            ctx,
            insert: InsertPoint::Before(op),
            location: Location::Unknown,
        }
    }

    /// Builder inserting immediately after `op`: before its next sibling,
    /// or at the end of its block.
    pub fn after(ctx: &'c mut Context, op: OpId) -> Self {
        let block = ctx
            .op(op)
            .parent()
            .expect("cannot insert after a detached op");
        let insert = match ctx.next_op(op) {
            Some(next) => InsertPoint::Before(next),
            None => InsertPoint::AtEnd(block),
        };
        OpBuilder {
            ctx,
            insert,
            location: Location::Unknown,
        }
    }

    /// Access to the underlying context.
    pub fn ctx(&mut self) -> &mut Context {
        self.ctx
    }

    /// Sets the location used for subsequently created ops.
    pub fn set_location(&mut self, location: Location) {
        self.location = location;
    }

    /// Starts building an op with the given name.
    pub fn op(&mut self, name: &str) -> OpUnderConstruction<'_, 'c> {
        OpUnderConstruction {
            builder: self,
            name: Symbol::new(name),
            operands: InlineVec::new(),
            results: InlineVec::new(),
            attributes: Vec::new(),
            regions: 0,
            successors: InlineVec::new(),
        }
    }

    /// Inserts an already-created detached op at the insertion point; the
    /// next op goes after it.
    pub fn insert(&mut self, op: OpId) {
        match self.insert {
            InsertPoint::AtEnd(block) => self.ctx.append_op(block, op),
            InsertPoint::Before(anchor) => self.ctx.insert_op_before(anchor, op),
        }
    }

    /// Creates an `arith.constant` with an integer value of type `ty`.
    pub fn const_int(&mut self, value: i64, ty: TypeId) -> ValueId {
        let op = self
            .op("arith.constant")
            .attr("value", Attribute::Int(value))
            .results([ty])
            .build();
        self.ctx.op(op).results()[0]
    }

    /// Creates an `arith.constant` of `index` type.
    pub fn const_index(&mut self, value: i64) -> ValueId {
        let ty = self.ctx.index_type();
        self.const_int(value, ty)
    }

    /// Creates an `arith.constant` with a float value of type `ty`.
    pub fn const_float(&mut self, value: f64, ty: TypeId) -> ValueId {
        let op = self
            .op("arith.constant")
            .attr("value", Attribute::float(value))
            .results([ty])
            .build();
        self.ctx.op(op).results()[0]
    }
}

/// In-flight operation description; finish with
/// [`OpUnderConstruction::build`].
#[derive(Debug)]
pub struct OpUnderConstruction<'b, 'c> {
    builder: &'b mut OpBuilder<'c>,
    name: Symbol,
    operands: InlineVec<ValueId, 4>,
    results: InlineVec<TypeId, 1>,
    attributes: Vec<(Symbol, Attribute)>,
    regions: usize,
    successors: InlineVec<BlockId, 1>,
}

impl OpUnderConstruction<'_, '_> {
    /// Adds one operand.
    pub fn operand(mut self, value: ValueId) -> Self {
        self.operands.push(value);
        self
    }

    /// Adds operands.
    pub fn operands(mut self, values: impl IntoIterator<Item = ValueId>) -> Self {
        self.operands.extend(values);
        self
    }

    /// Declares result types (replacing any declared before).
    pub fn results(mut self, types: impl IntoIterator<Item = TypeId>) -> Self {
        self.results.clear();
        self.results.extend(types);
        self
    }

    /// Adds an attribute.
    pub fn attr(mut self, name: &str, value: impl Into<Attribute>) -> Self {
        self.attributes.push((Symbol::new(name), value.into()));
        self
    }

    /// Declares `count` empty regions.
    pub fn regions(mut self, count: usize) -> Self {
        self.regions = count;
        self
    }

    /// Declares successor blocks (for terminators).
    pub fn successors(mut self, blocks: impl IntoIterator<Item = BlockId>) -> Self {
        self.successors.clear();
        self.successors.extend(blocks);
        self
    }

    /// Creates the op, inserts it at the builder's insertion point, and
    /// returns its id.
    pub fn build(self) -> OpId {
        let location = self.builder.location.clone();
        let op = self.builder.ctx.create_op(
            location,
            self.name,
            self.operands,
            self.results,
            self.attributes,
            self.regions,
        );
        if !self.successors.is_empty() {
            self.builder.ctx.set_successors(op, self.successors);
        }
        self.builder.insert(op);
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_in_order() {
        let mut ctx = Context::new();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let mut b = OpBuilder::at_end(&mut ctx, body);
        let a = b.op("test.a").build();
        let c = b.op("test.c").build();
        let ops: Vec<_> = b.ctx().block_ops(body).collect();
        assert_eq!(ops, vec![a, c]);
    }

    #[test]
    fn before_and_after_insertion() {
        let mut ctx = Context::new();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let (a, c) = {
            let mut b = OpBuilder::at_end(&mut ctx, body);
            (b.op("test.a").build(), b.op("test.c").build())
        };
        let b_op = OpBuilder::before(&mut ctx, c).op("test.b").build();
        assert_eq!(ctx.block_ops(body).collect::<Vec<_>>(), [a, b_op, c]);
        let d_op = OpBuilder::after(&mut ctx, c).op("test.d").build();
        assert_eq!(ctx.block_ops(body).collect::<Vec<_>>(), [a, b_op, c, d_op]);
    }

    #[test]
    fn before_insertion_point_advances() {
        let mut ctx = Context::new();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let end = {
            let mut b = OpBuilder::at_end(&mut ctx, body);
            b.op("test.end").build()
        };
        let mut b = OpBuilder::before(&mut ctx, end);
        let x = b.op("test.x").build();
        let y = b.op("test.y").build();
        assert_eq!(ctx.block_ops(body).collect::<Vec<_>>(), [x, y, end]);
    }

    #[test]
    fn constants() {
        let mut ctx = Context::new();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let mut b = OpBuilder::at_end(&mut ctx, body);
        let v = b.const_index(42);
        let op = b.ctx().defining_op(v).unwrap();
        assert_eq!(b.ctx().op(op).attr("value"), Some(&Attribute::Int(42)));
    }
}
