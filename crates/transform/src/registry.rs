//! The transform-op registry: the extensibility point of the dialect.
//!
//! Every transform operation is described by a [`TransformOpDef`]: its
//! name, which operands it *consumes* (triggering handle invalidation),
//! optional pre-/post-condition op-sets (§3.3), and a handler closure that
//! implements it against the payload. Registering new defs — including from
//! downstream crates — is the paper's "new transform abstractions without
//! modifying the compiler" story.

use crate::error::TransformResult;
use crate::interp::Interpreter;
use crate::state::TransformState;
use std::collections::HashMap;
use std::sync::Arc;
use td_ir::rewrite::RewritePattern;
use td_ir::{Context, OpId};
use td_support::{Diagnostic, Symbol};

/// Handler implementing one transform operation.
pub type TransformHandler = Box<
    dyn Fn(&mut Interpreter<'_>, &mut Context, &mut TransformState, OpId) -> TransformResult
        + Send
        + Sync,
>;

/// Definition of a transform operation.
pub struct TransformOpDef {
    /// Fully-qualified name (e.g. `transform.loop.tile`).
    pub name: Symbol,
    /// One-line description.
    pub summary: &'static str,
    /// Indices of operands that are consumed (their handles, and all
    /// aliasing handles, are invalidated on success).
    pub consumed_operands: Vec<usize>,
    /// Pre-condition op-set patterns (payload ops expected and removed).
    pub pre: Vec<String>,
    /// Post-condition op-set patterns (payload ops introduced).
    pub post: Vec<String>,
    /// The implementation.
    pub handler: TransformHandler,
}

impl TransformOpDef {
    /// Creates a definition with no consumed operands or conditions.
    pub fn new(
        name: &str,
        summary: &'static str,
        handler: impl Fn(&mut Interpreter<'_>, &mut Context, &mut TransformState, OpId) -> TransformResult
            + Send
            + Sync
            + 'static,
    ) -> Self {
        TransformOpDef {
            name: Symbol::new(name),
            summary,
            consumed_operands: Vec::new(),
            pre: Vec::new(),
            post: Vec::new(),
            handler: Box::new(handler),
        }
    }

    /// Declares consumed operand indices (builder-style).
    pub fn consuming(mut self, indices: impl IntoIterator<Item = usize>) -> Self {
        self.consumed_operands = indices.into_iter().collect();
        self
    }

    /// Declares pre-/post-condition op sets (builder-style).
    pub fn with_conditions(
        mut self,
        pre: impl IntoIterator<Item = &'static str>,
        post: impl IntoIterator<Item = &'static str>,
    ) -> Self {
        self.pre = pre.into_iter().map(str::to_owned).collect();
        self.post = post.into_iter().map(str::to_owned).collect();
        self
    }
}

impl std::fmt::Debug for TransformOpDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransformOpDef")
            .field("name", &self.name)
            .field("consumed_operands", &self.consumed_operands)
            .finish_non_exhaustive()
    }
}

/// Registry of transform op definitions. Definitions are reference-counted,
/// so a clone shares the handlers: an embedder builds the registry once and
/// hands each worker thread a cheap copy.
#[derive(Clone, Debug, Default)]
pub struct TransformOpRegistry {
    defs: HashMap<Symbol, Arc<TransformOpDef>>,
}

impl TransformOpRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a registry with all standard transform ops registered.
    pub fn with_standard_ops() -> Self {
        let mut registry = Self::new();
        crate::ops::register_standard(&mut registry);
        registry
    }

    /// Registers (or replaces) a definition.
    pub fn register(&mut self, def: TransformOpDef) {
        self.defs.insert(def.name, Arc::new(def));
    }

    /// Looks up a definition.
    pub fn def(&self, name: Symbol) -> Option<&TransformOpDef> {
        self.defs.get(&name).map(Arc::as_ref)
    }

    /// Registered op names, sorted.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.defs.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names
    }
}

/// Factory for a named rewrite pattern.
pub type PatternFactory = Box<dyn Fn() -> Box<dyn RewritePattern> + Send + Sync>;

/// Registry of named rewrite patterns, targeted by
/// `transform.apply_patterns` (Case Study 3 drives a binary search over
/// this set from Transform scripts alone).
#[derive(Default)]
pub struct NamedPatternRegistry {
    factories: Vec<(String, PatternFactory)>,
}

impl NamedPatternRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a pattern factory under `name`.
    pub fn register(
        &mut self,
        name: &str,
        factory: impl Fn() -> Box<dyn RewritePattern> + Send + Sync + 'static,
    ) {
        self.factories.push((name.to_owned(), Box::new(factory)));
    }

    /// Instantiates the pattern registered under `name`.
    pub fn create(&self, name: &str) -> Option<Box<dyn RewritePattern>> {
        self.factories
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, f)| f())
    }

    /// All registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.factories.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Number of registered patterns.
    pub fn len(&self) -> usize {
        self.factories.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.factories.is_empty()
    }
}

impl std::fmt::Debug for NamedPatternRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NamedPatternRegistry")
            .field("names", &self.names())
            .finish()
    }
}

/// Hook for replacing a recognized payload computation with a call into an
/// external library of microkernels (the `transform.to_library` op of Case
/// Study 4). Implemented by `td-machine` over its LIBXSMM-like registry.
pub trait LibraryResolver {
    /// Attempts the replacement rooted at `root`. On success returns the
    /// created call operation; on failure (computation not recognized, or
    /// no kernel with matching sizes) returns a diagnostic, which the
    /// transform reports as a *silenceable* error so `alternatives` can
    /// fall back.
    ///
    /// # Errors
    /// See above — failures are expected and recoverable.
    fn try_replace(&self, ctx: &mut Context, root: OpId, library: &str)
        -> Result<OpId, Diagnostic>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_registers_and_lists() {
        let mut registry = TransformOpRegistry::new();
        registry.register(TransformOpDef::new(
            "transform.test",
            "a test",
            |_, _, _, _| Ok(()),
        ));
        assert!(registry.def(Symbol::new("transform.test")).is_some());
        assert!(registry.def(Symbol::new("transform.other")).is_none());
        assert_eq!(registry.names(), vec!["transform.test"]);
    }

    #[test]
    fn builder_sets_consumption_and_conditions() {
        let def = TransformOpDef::new("transform.x", "x", |_, _, _, _| Ok(()))
            .consuming([0])
            .with_conditions(["scf.*"], ["cf.br"]);
        assert_eq!(def.consumed_operands, vec![0]);
        assert_eq!(def.pre, vec!["scf.*"]);
        assert_eq!(def.post, vec!["cf.br"]);
    }

    #[test]
    fn pattern_registry_round_trip() {
        struct Dummy;
        impl RewritePattern for Dummy {
            fn name(&self) -> &str {
                "dummy"
            }
            fn match_and_rewrite(
                &self,
                _rw: &mut td_ir::Rewriter<'_>,
                _op: OpId,
            ) -> Result<bool, Diagnostic> {
                Ok(false)
            }
        }
        let mut registry = NamedPatternRegistry::new();
        registry.register("dummy", || Box::new(Dummy));
        assert_eq!(registry.names(), vec!["dummy"]);
        assert!(registry.create("dummy").is_some());
        assert!(registry.create("absent").is_none());
        assert_eq!(registry.len(), 1);
    }
}
