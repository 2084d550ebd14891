//! IRDL dialect and operation definitions.

use crate::constraint::{Arity, AttrConstraint, TypeConstraint};
use std::collections::HashMap;
use td_ir::{Context, OpId};
use td_support::Diagnostic;

/// Custom predicate hook, the analogue of IRDL's `CPPConstraint` escape
/// hatch (Fig. 3 of the paper references `checkMemrefConstraints()`).
pub type NativeConstraint = fn(&Context, OpId) -> Result<(), Diagnostic>;

/// Declarative definition of one operation.
#[derive(Clone)]
pub struct IrdlOp {
    /// Fully-qualified op name this definition describes (or constrains).
    pub name: String,
    /// Attribute slots: `(attribute name, constraint)`.
    pub attributes: Vec<(String, AttrConstraint)>,
    /// Operand slots: `(slot name, type constraint, arity)` in order.
    pub operands: Vec<(String, TypeConstraint, Arity)>,
    /// Result slots.
    pub results: Vec<(String, TypeConstraint, Arity)>,
    /// Optional native predicate.
    pub native: Option<NativeConstraint>,
}

impl IrdlOp {
    /// Creates a definition with no slots.
    pub fn new(name: &str) -> IrdlOp {
        IrdlOp {
            name: name.to_owned(),
            attributes: Vec::new(),
            operands: Vec::new(),
            results: Vec::new(),
            native: None,
        }
    }

    /// Adds an attribute slot (builder-style).
    pub fn attr(mut self, name: &str, constraint: AttrConstraint) -> Self {
        self.attributes.push((name.to_owned(), constraint));
        self
    }

    /// Adds an operand slot (builder-style).
    pub fn operand(mut self, name: &str, constraint: TypeConstraint, arity: Arity) -> Self {
        self.operands.push((name.to_owned(), constraint, arity));
        self
    }

    /// Adds a result slot (builder-style).
    pub fn result(mut self, name: &str, constraint: TypeConstraint, arity: Arity) -> Self {
        self.results.push((name.to_owned(), constraint, arity));
        self
    }
}

impl std::fmt::Debug for IrdlOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IrdlOp")
            .field("name", &self.name)
            .field("attributes", &self.attributes.len())
            .field("operands", &self.operands.len())
            .field("results", &self.results.len())
            .finish()
    }
}

/// Declarative definition of a dialect: a named group of op definitions.
#[derive(Clone, Debug, Default)]
pub struct IrdlDialect {
    /// Dialect namespace (e.g. `memref`).
    pub name: String,
    /// Operation definitions.
    pub operations: Vec<IrdlOp>,
}

impl IrdlDialect {
    /// Creates an empty dialect definition.
    pub fn new(name: &str) -> IrdlDialect {
        IrdlDialect {
            name: name.to_owned(),
            operations: Vec::new(),
        }
    }

    /// Adds an op definition (builder-style).
    pub fn op(mut self, op: IrdlOp) -> Self {
        self.operations.push(op);
        self
    }
}

/// Registry of IRDL definitions, including *constraint* definitions that
/// refine existing ops (keyed by a `name.constr`-style id).
#[derive(Debug, Default)]
pub struct IrdlRegistry {
    constraints: HashMap<String, IrdlOp>,
}

impl IrdlRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a *constrained copy* of an existing op under `id` (e.g.
    /// `"memref.subview.constr"`). This does **not** introduce a new
    /// operation — it only names a refinement usable in pre-/post-condition
    /// sets, exactly as in §3.3.
    pub fn register_constraint(&mut self, id: &str, op: IrdlOp) {
        self.constraints.insert(id.to_owned(), op);
    }

    /// Looks up a constraint by id.
    pub fn constraint(&self, id: &str) -> Option<&IrdlOp> {
        self.constraints.get(id)
    }

    /// All registered constraint ids, sorted.
    pub fn constraint_ids(&self) -> Vec<&str> {
        let mut ids: Vec<&str> = self.constraints.keys().map(String::as_str).collect();
        ids.sort_unstable();
        ids
    }
}

/// The constrained-subview definition from the paper (Fig. 3, highlighted):
/// a `memref.subview` whose dynamic offset/size/stride operand lists are
/// empty and whose static offsets are all zero and strides all one — i.e. a
/// view needing no address arithmetic.
pub fn subview_constr() -> IrdlOp {
    IrdlOp::new("memref.subview")
        .attr("static_offsets", AttrConstraint::IntArrayAllEqual(0))
        .attr("static_sizes", AttrConstraint::IntArray)
        .attr("static_strides", AttrConstraint::IntArrayAllEqual(1))
        .operand("input", TypeConstraint::AnyMemRef, Arity::Single)
        .operand("offsets", TypeConstraint::Index, Arity::Exactly(0))
        .operand("sizes", TypeConstraint::Index, Arity::Exactly(0))
        .operand("strides", TypeConstraint::Index, Arity::Exactly(0))
        .result("view", TypeConstraint::AnyMemRef, Arity::Single)
}

/// Registers the standard constraints used by the Table 2 pipeline checks.
pub fn register_standard_constraints(registry: &mut IrdlRegistry) {
    registry.register_constraint("memref.subview.constr", subview_constr());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_slots() {
        let op = subview_constr();
        assert_eq!(op.name, "memref.subview");
        assert_eq!(op.attributes.len(), 3);
        assert_eq!(op.operands.len(), 4);
        assert_eq!(op.results.len(), 1);
    }

    #[test]
    fn registry_round_trip() {
        let mut registry = IrdlRegistry::new();
        register_standard_constraints(&mut registry);
        assert!(registry.constraint("memref.subview.constr").is_some());
        assert!(registry.constraint("nope").is_none());
        assert_eq!(registry.constraint_ids(), vec!["memref.subview.constr"]);
    }
}
