//! The transform interpreter's state: the association table between
//! transform-IR *handles* and payload entities, and the handle-invalidation
//! machinery (§3.1 of the paper).

use crate::error::{TransformError, TransformResult};
use std::collections::HashMap;
use td_ir::rewrite::RewriteEvent;
use td_ir::{Attribute, Context, OpId, ValueId};
use td_support::trace::HandleEvent;
use td_support::Location;

/// What a transform value is associated with.
#[derive(Clone, Debug, PartialEq)]
pub enum Mapped {
    /// A handle to a list of payload operations.
    Ops(Vec<OpId>),
    /// A list of parameters (compile-time constants).
    Params(Vec<Attribute>),
}

/// The interpreter's association table plus invalidation bookkeeping.
#[derive(Debug, Default)]
pub struct TransformState {
    mapping: HashMap<ValueId, Mapped>,
    /// Invalidated handles with the reason, for precise diagnostics.
    invalidated: HashMap<ValueId, String>,
    /// When true, handle lifecycle events are appended to `events` for the
    /// interpreter to drain into the trace/instrumentation streams. Off by
    /// default so uninstrumented runs pay nothing.
    observe: bool,
    events: Vec<HandleEvent>,
}

/// The handle table — mappings and invalidations — at one point in a run.
#[derive(Debug)]
pub(crate) struct HandleSnapshot {
    mapping: HashMap<ValueId, Mapped>,
    invalidated: HashMap<ValueId, String>,
}

impl TransformState {
    /// Creates an empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies the handle table, so a scope that rolls its payload changes
    /// back (a failed `transform.alternatives` branch) can put the handles
    /// back with them. Handle events already logged are not part of it:
    /// what was observed stays observed.
    pub(crate) fn snapshot(&self) -> HandleSnapshot {
        HandleSnapshot {
            mapping: self.mapping.clone(),
            invalidated: self.invalidated.clone(),
        }
    }

    /// Puts the handle table back to `snapshot`.
    pub(crate) fn restore(&mut self, snapshot: &HandleSnapshot) {
        self.mapping.clone_from(&snapshot.mapping);
        self.invalidated.clone_from(&snapshot.invalidated);
    }

    /// Enables or disables handle-lifecycle event logging.
    pub fn set_observe(&mut self, observe: bool) {
        self.observe = observe;
    }

    /// Drains the logged handle events (allocation/invalidation) since the
    /// last call. Empty unless [`TransformState::set_observe`] was enabled.
    pub fn take_handle_events(&mut self) -> Vec<HandleEvent> {
        std::mem::take(&mut self.events)
    }

    /// Associates `handle` with payload operations.
    pub fn set_ops(&mut self, handle: ValueId, ops: Vec<OpId>) {
        if self.observe {
            self.events.push(HandleEvent::Allocated {
                handle: format!("{handle:?}"),
                num_entities: ops.len(),
                kind: "ops",
            });
        }
        self.invalidated.remove(&handle);
        self.mapping.insert(handle, Mapped::Ops(ops));
    }

    /// Associates `handle` with parameters.
    pub fn set_params(&mut self, handle: ValueId, params: Vec<Attribute>) {
        if self.observe {
            self.events.push(HandleEvent::Allocated {
                handle: format!("{handle:?}"),
                num_entities: params.len(),
                kind: "params",
            });
        }
        self.invalidated.remove(&handle);
        self.mapping.insert(handle, Mapped::Params(params));
    }

    /// The payload operations of `handle`.
    ///
    /// # Errors
    /// Definite error if the handle was invalidated (use-after-consume) or
    /// never mapped, or maps to parameters.
    pub fn ops(&self, handle: ValueId, location: &Location) -> TransformResult<Vec<OpId>> {
        if let Some(reason) = self.invalidated.get(&handle) {
            return Err(TransformError::definite(
                location.clone(),
                format!("use of invalidated handle: {reason}"),
            ));
        }
        match self.mapping.get(&handle) {
            Some(Mapped::Ops(ops)) => Ok(ops.clone()),
            Some(Mapped::Params(_)) => Err(TransformError::definite(
                location.clone(),
                "expected an operation handle, found a parameter",
            )),
            None => Err(TransformError::definite(
                location.clone(),
                "use of unmapped handle",
            )),
        }
    }

    /// The parameters of `handle`.
    ///
    /// # Errors
    /// Definite error on invalidated/unmapped handles or op handles.
    pub fn params(&self, handle: ValueId, location: &Location) -> TransformResult<Vec<Attribute>> {
        if let Some(reason) = self.invalidated.get(&handle) {
            return Err(TransformError::definite(
                location.clone(),
                format!("use of invalidated handle: {reason}"),
            ));
        }
        match self.mapping.get(&handle) {
            Some(Mapped::Params(params)) => Ok(params.clone()),
            Some(Mapped::Ops(_)) => Err(TransformError::definite(
                location.clone(),
                "expected a parameter, found an operation handle",
            )),
            None => Err(TransformError::definite(
                location.clone(),
                "use of unmapped handle",
            )),
        }
    }

    /// All handles whose payload intersects (an op of, or an op nested in)
    /// the payload of `consumed_handle` — i.e. the handles that consuming
    /// that operand invalidates. Must be called *before* the payload is
    /// mutated, while ancestry links are still live.
    pub fn aliasing_handles(&self, ctx: &Context, consumed_handle: ValueId) -> Vec<ValueId> {
        let Some(Mapped::Ops(consumed)) = self.mapping.get(&consumed_handle) else {
            return vec![consumed_handle];
        };
        let mut out = Vec::new();
        for (&handle, mapped) in &self.mapping {
            let Mapped::Ops(ops) = mapped else { continue };
            let aliases = ops.iter().any(|&op| {
                consumed.iter().any(|&c| {
                    op == c || (ctx.is_live(op) && ctx.is_live(c) && ctx.is_proper_ancestor(c, op))
                })
            });
            if aliases {
                out.push(handle);
            }
        }
        if !out.contains(&consumed_handle) {
            out.push(consumed_handle);
        }
        out
    }

    /// Marks a handle invalidated with a reason.
    pub fn invalidate(&mut self, handle: ValueId, reason: impl Into<String>) {
        let reason = reason.into();
        if self.observe {
            self.events.push(HandleEvent::Invalidated {
                handle: format!("{handle:?}"),
                reason: reason.clone(),
            });
        }
        self.invalidated.insert(handle, reason);
        self.mapping.remove(&handle);
    }

    /// Processes rewrite events (op replaced/erased), updating handles to
    /// point at replacements rather than invalidating them — the event
    /// subscription mechanism of §3.1.
    pub fn apply_rewrite_events(&mut self, ctx: &Context, events: &[RewriteEvent]) {
        for event in events {
            match event {
                RewriteEvent::Replaced { old, new_values } => {
                    let replacements: Vec<OpId> = new_values
                        .iter()
                        .filter_map(|&v| {
                            if ctx.is_value_live(v) {
                                ctx.defining_op(v)
                            } else {
                                None
                            }
                        })
                        .collect();
                    for mapped in self.mapping.values_mut() {
                        let Mapped::Ops(ops) = mapped else { continue };
                        if !ops.contains(old) {
                            continue;
                        }
                        let mut next = Vec::with_capacity(ops.len());
                        for &op in ops.iter() {
                            if op == *old {
                                for &r in &replacements {
                                    if !next.contains(&r) {
                                        next.push(r);
                                    }
                                }
                            } else {
                                next.push(op);
                            }
                        }
                        *ops = next;
                    }
                }
                RewriteEvent::Erased(erased) => {
                    for mapped in self.mapping.values_mut() {
                        if let Mapped::Ops(ops) = mapped {
                            ops.retain(|op| op != erased);
                        }
                    }
                }
                RewriteEvent::Inserted(_) => {}
            }
        }
    }

    /// Drops stale entries (ops that were erased outside event tracking).
    /// Used by `apply_registered_pass`, where passes do not report events.
    pub fn prune_dead(&mut self, ctx: &Context) {
        for mapped in self.mapping.values_mut() {
            if let Mapped::Ops(ops) = mapped {
                ops.retain(|&op| ctx.is_live(op));
            }
        }
    }

    /// Number of live handle mappings (for tests and statistics).
    pub fn num_mappings(&self) -> usize {
        self.mapping.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_support::Location;

    fn fixture() -> (Context, OpId, OpId, ValueId, ValueId) {
        // Payload: module { outer { inner } } and two transform values.
        let mut ctx = Context::new();
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let outer = ctx.create_op(Location::unknown(), "test.outer", vec![], vec![], vec![], 1);
        ctx.append_op(body, outer);
        let region = ctx.op(outer).regions()[0];
        let inner_block = ctx.append_block(region, &[]);
        let inner = ctx.create_op(Location::unknown(), "test.inner", vec![], vec![], vec![], 0);
        ctx.append_op(inner_block, inner);
        // Transform values are just values of some op in a scratch module.
        let anyop = ctx.transform_any_op_type();
        let t1 = ctx.create_op(
            Location::unknown(),
            "transform.test",
            vec![],
            [anyop, anyop],
            vec![],
            0,
        );
        ctx.append_op(body, t1);
        let h1 = ctx.op(t1).results()[0];
        let h2 = ctx.op(t1).results()[1];
        (ctx, outer, inner, h1, h2)
    }

    #[test]
    fn mapping_round_trip() {
        let (ctx, outer, _inner, h1, h2) = fixture();
        let mut state = TransformState::new();
        state.set_ops(h1, vec![outer]);
        state.set_params(h2, vec![Attribute::Int(32)]);
        assert_eq!(state.ops(h1, &Location::unknown()).unwrap(), vec![outer]);
        assert_eq!(
            state.params(h2, &Location::unknown()).unwrap(),
            vec![Attribute::Int(32)]
        );
        assert!(state.ops(h2, &Location::unknown()).is_err());
        assert!(state.params(h1, &Location::unknown()).is_err());
        let _ = ctx;
    }

    #[test]
    fn invalidation_blocks_use() {
        let (_ctx, outer, _inner, h1, _h2) = fixture();
        let mut state = TransformState::new();
        state.set_ops(h1, vec![outer]);
        state.invalidate(h1, "consumed by loop.unroll");
        let err = state.ops(h1, &Location::unknown()).unwrap_err();
        assert!(!err.is_silenceable());
        assert!(err.diagnostic().message().contains("loop.unroll"));
    }

    #[test]
    fn aliasing_covers_nested_payload() {
        let (ctx, outer, inner, h1, h2) = fixture();
        let mut state = TransformState::new();
        state.set_ops(h1, vec![outer]);
        state.set_ops(h2, vec![inner]);
        // Consuming the outer handle invalidates the inner one (nested).
        let aliases = state.aliasing_handles(&ctx, h1);
        assert!(aliases.contains(&h1));
        assert!(aliases.contains(&h2), "handle to nested op must alias");
        // Consuming the inner handle does NOT invalidate the outer one.
        let aliases = state.aliasing_handles(&ctx, h2);
        assert!(aliases.contains(&h2));
        assert!(!aliases.contains(&h1), "ancestor handles stay valid");
    }

    #[test]
    fn replaced_events_update_handles() {
        let (mut ctx, outer, _inner, h1, _h2) = fixture();
        let mut state = TransformState::new();
        state.set_ops(h1, vec![outer]);
        // Replace `outer` with a new op via the rewriter.
        let block = ctx.op(outer).parent().unwrap();
        let replacement = ctx.create_op(
            Location::unknown(),
            "test.replacement",
            vec![],
            vec![],
            vec![],
            0,
        );
        ctx.append_op(block, replacement);
        // outer has no results, so the "replacement" event carries none.
        let mut rewriter = td_ir::Rewriter::new(&mut ctx);
        rewriter.erase_op(outer);
        let events = rewriter.take_events();
        state.apply_rewrite_events(&ctx, &events);
        assert_eq!(
            state.ops(h1, &Location::unknown()).unwrap(),
            Vec::<OpId>::new()
        );
    }

    /// With observation on, allocation and invalidation land in the event
    /// log; with it off (the default), nothing is recorded.
    #[test]
    fn handle_events_are_logged_when_observing() {
        let (_ctx, outer, inner, h1, h2) = fixture();
        let mut state = TransformState::new();
        state.set_ops(h1, vec![outer]);
        assert!(state.take_handle_events().is_empty(), "off by default");

        state.set_observe(true);
        state.set_ops(h2, vec![outer, inner]);
        state.set_params(h1, vec![Attribute::Int(4)]);
        state.invalidate(h2, "consumed by 'transform.loop.tile'");
        let events = state.take_handle_events();
        assert_eq!(events.len(), 3);
        assert!(matches!(
            &events[0],
            HandleEvent::Allocated {
                num_entities: 2,
                kind: "ops",
                ..
            }
        ));
        assert!(matches!(
            &events[1],
            HandleEvent::Allocated {
                num_entities: 1,
                kind: "params",
                ..
            }
        ));
        let HandleEvent::Invalidated { reason, .. } = &events[2] else {
            panic!("expected invalidation, got {:?}", events[2]);
        };
        assert!(reason.contains("loop.tile"));
        assert!(state.take_handle_events().is_empty(), "drained");
    }

    #[test]
    fn prune_dead_drops_erased_ops() {
        let (mut ctx, outer, inner, h1, _h2) = fixture();
        let mut state = TransformState::new();
        state.set_ops(h1, vec![outer, inner]);
        ctx.erase_op(outer); // also erases inner
        state.prune_dead(&ctx);
        assert!(state.ops(h1, &Location::unknown()).unwrap().is_empty());
    }
}
