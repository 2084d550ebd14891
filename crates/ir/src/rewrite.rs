//! Pattern rewriting: [`RewritePattern`], the [`Rewriter`], and the greedy
//! fixpoint driver.
//!
//! The rewriter records [`RewriteEvent`]s for every structural change
//! ("operation replaced", "operation erased", "operation inserted"). The
//! greedy driver consumes them to maintain its worklist, and — crucially
//! for the Transform dialect (§3.1 of the paper) — the transform
//! interpreter consumes them to update handle/payload mappings instead of
//! invalidating handles when a payload op is replaced.

use crate::builder::OpBuilder;
use crate::dialect::{FoldResult, OpTraits};
use crate::ir::{Context, OpId, ValueId};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use td_support::journal::{self, ChangeKind, RawId};
use td_support::{metrics, trace, Diagnostic, InlineVec, Symbol};

/// A structural change performed through a [`Rewriter`].
#[derive(Clone, Debug, PartialEq)]
pub enum RewriteEvent {
    /// `old` was replaced: each of its results now corresponds to the value
    /// at the same index of `new_values`, and `old` was erased.
    Replaced {
        /// The erased op (id is stale but still a valid map key).
        old: OpId,
        /// Replacement values, one per old result.
        new_values: Vec<ValueId>,
    },
    /// The op was erased without replacement.
    Erased(OpId),
    /// A new op was inserted.
    Inserted(OpId),
}

/// A rewriter: wraps the [`Context`] and records events.
#[derive(Debug)]
pub struct Rewriter<'c> {
    ctx: &'c mut Context,
    events: Vec<RewriteEvent>,
}

impl<'c> Rewriter<'c> {
    /// Creates a rewriter over `ctx`.
    pub fn new(ctx: &'c mut Context) -> Self {
        Rewriter {
            ctx,
            events: Vec::new(),
        }
    }

    /// Access to the underlying context (for matching and ad-hoc edits).
    pub fn ctx(&mut self) -> &mut Context {
        self.ctx
    }

    /// Read-only access to the underlying context.
    pub fn ctx_ref(&self) -> &Context {
        self.ctx
    }

    /// Events recorded so far.
    pub fn events(&self) -> &[RewriteEvent] {
        &self.events
    }

    /// Removes and returns all recorded events.
    pub fn take_events(&mut self) -> Vec<RewriteEvent> {
        std::mem::take(&mut self.events)
    }

    /// Creates an op right before `anchor` and records the insertion.
    pub fn create_before(&mut self, anchor: OpId, f: impl FnOnce(&mut OpBuilder) -> OpId) -> OpId {
        let mut builder = OpBuilder::before(self.ctx, anchor);
        let op = f(&mut builder);
        self.events.push(RewriteEvent::Inserted(op));
        op
    }

    /// Replaces all uses of `op`'s results with `new_values` and erases
    /// `op`.
    ///
    /// # Panics
    /// Panics if `new_values.len()` differs from the op's result count.
    pub fn replace_op(&mut self, op: OpId, new_values: Vec<ValueId>) {
        let results = self.ctx.op(op).results().to_vec();
        assert_eq!(
            results.len(),
            new_values.len(),
            "replacement value count must match result count of {}",
            self.ctx.op(op).name
        );
        for (&old, &new) in results.iter().zip(new_values.iter()) {
            self.ctx.replace_all_uses(old, new);
        }
        // Record Replaced *after* erase_op so provenance queries see the
        // replacement (not the plain erasure) as the op's final change.
        let name = self.ctx.op(op).name;
        self.ctx.erase_op(op);
        if journal::recording() {
            let arity = new_values.len() as u32;
            journal::record_change(ChangeKind::Replaced, RawId::of(op), name, arity);
        }
        self.events.push(RewriteEvent::Replaced {
            old: op,
            new_values,
        });
    }

    /// Erases `op` (which must have no remaining uses of its results).
    pub fn erase_op(&mut self, op: OpId) {
        self.ctx.erase_op(op);
        self.events.push(RewriteEvent::Erased(op));
    }
}

/// A rewrite pattern.
///
/// Patterns are *named* so compositions of patterns can be manipulated from
/// Transform scripts (`transform.apply_patterns`, Case Study 3).
pub trait RewritePattern {
    /// Unique, stable name (e.g. `"fold-add-zero"`).
    fn name(&self) -> &str;

    /// Restricts the pattern to ops with this name (`None` = any op).
    fn root_op(&self) -> Option<Symbol> {
        None
    }

    /// Relative priority: higher-benefit patterns are tried first.
    fn benefit(&self) -> usize {
        1
    }

    /// Attempts to match `op` and rewrite it. Returns `Ok(true)` if the IR
    /// changed.
    ///
    /// # Errors
    /// Returns a diagnostic if the pattern matched but the rewrite could not
    /// be completed safely.
    fn match_and_rewrite(&self, rewriter: &mut Rewriter<'_>, op: OpId) -> Result<bool, Diagnostic>;
}

/// An ordered collection of patterns with an index by root op name.
#[derive(Default)]
pub struct PatternSet {
    patterns: Vec<Box<dyn RewritePattern>>,
}

impl PatternSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a pattern.
    pub fn add(&mut self, pattern: Box<dyn RewritePattern>) -> &mut Self {
        self.patterns.push(pattern);
        self
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Names of all patterns, in insertion order.
    pub fn names(&self) -> Vec<&str> {
        self.patterns.iter().map(|p| p.name()).collect()
    }

    /// Retains only patterns whose name satisfies `keep`.
    pub fn retain(&mut self, keep: impl Fn(&str) -> bool) {
        self.patterns.retain(|p| keep(p.name()));
    }

    /// Iterates patterns applicable to an op with the given name, highest
    /// benefit first.
    fn applicable(&self, op_name: Symbol) -> Vec<&dyn RewritePattern> {
        let mut out: Vec<&dyn RewritePattern> = self
            .patterns
            .iter()
            .filter(|p| p.root_op().map_or(true, |n| n == op_name))
            .map(Box::as_ref)
            .collect();
        out.sort_by_key(|p| std::cmp::Reverse(p.benefit()));
        out
    }
}

impl std::fmt::Debug for PatternSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PatternSet")
            .field("patterns", &self.names())
            .finish()
    }
}

/// Configuration for the greedy driver.
#[derive(Clone, Copy, Debug)]
pub struct GreedyConfig {
    /// Upper bound on full worklist sweeps (guards against ping-ponging
    /// pattern pairs).
    pub max_iterations: usize,
    /// Whether to apply registered folders in addition to patterns.
    pub fold: bool,
}

impl Default for GreedyConfig {
    fn default() -> Self {
        GreedyConfig {
            max_iterations: 10,
            fold: true,
        }
    }
}

/// Result of a greedy rewrite.
#[derive(Debug)]
pub struct GreedyOutcome {
    /// Whether anything changed.
    pub changed: bool,
    /// Number of pattern/fold applications performed.
    pub applications: usize,
    /// Whether the fixpoint converged within the iteration budget.
    pub converged: bool,
    /// All recorded events, in order.
    pub events: Vec<RewriteEvent>,
}

/// Applies `patterns` (and folders) greedily to the ops nested under `root`
/// until a fixpoint.
///
/// # Errors
/// Propagates the first pattern error encountered.
pub fn apply_patterns_greedily(
    ctx: &mut Context,
    root: OpId,
    patterns: &PatternSet,
    config: GreedyConfig,
) -> Result<GreedyOutcome, Diagnostic> {
    let mut outcome = GreedyOutcome {
        changed: false,
        applications: 0,
        converged: false,
        events: Vec::new(),
    };
    let _greedy_span = metrics::span("rewrite.greedy");
    let _greedy_trace = trace::span("rewrite", "greedy");
    for _ in 0..config.max_iterations {
        metrics::counter("rewrite.sweeps", 1);
        let mut worklist: Vec<OpId> = ctx.walk_nested(root);
        worklist.reverse();
        let mut changed_this_iteration = false;
        let mut rewriter = Rewriter::new(ctx);
        // Events already turned into worklist entries.
        let mut processed_events = 0;
        // Ops popped once already this sweep: a second pop is a revisit
        // caused by a re-enqueue (replacement users, insertions, folds).
        let mut visited: HashSet<OpId> = HashSet::new();
        while let Some(op) = worklist.pop() {
            if !rewriter.ctx_ref().is_live(op) {
                continue;
            }
            if !visited.insert(op) {
                metrics::counter("rewrite.worklist_revisits", 1);
            }
            // Try the registered folder first.
            if config.fold {
                if let Some(fold) = rewriter
                    .ctx_ref()
                    .registry
                    .spec(rewriter.ctx_ref().op(op).name)
                    .and_then(|s| s.fold)
                {
                    match fold(rewriter.ctx(), op) {
                        FoldResult::Unchanged => {}
                        FoldResult::InPlace => {
                            changed_this_iteration = true;
                            outcome.applications += 1;
                            metrics::counter("rewrite.folds", 1);
                            worklist.push(op);
                            continue;
                        }
                        FoldResult::Replace(values) => {
                            changed_this_iteration = true;
                            outcome.applications += 1;
                            metrics::counter("rewrite.folds", 1);
                            rewriter.replace_op(op, values.clone());
                            processed_events = rewriter.events().len();
                            enqueue_affected(&mut worklist, &rewriter, &values);
                            continue;
                        }
                    }
                }
            }
            // Then patterns, highest benefit first.
            let name = rewriter.ctx_ref().op(op).name;
            for pattern in patterns.applicable(name) {
                if pattern.match_and_rewrite(&mut rewriter, op)? {
                    metrics::counter("rewrite.pattern_hits", 1);
                    changed_this_iteration = true;
                    outcome.applications += 1;
                    // Requeue everything the new events touched.
                    let events = rewriter.events()[processed_events..].to_vec();
                    processed_events = rewriter.events().len();
                    for event in &events {
                        match event {
                            RewriteEvent::Replaced { new_values, .. } => {
                                enqueue_affected(&mut worklist, &rewriter, new_values);
                            }
                            RewriteEvent::Inserted(new_op) => worklist.push(*new_op),
                            RewriteEvent::Erased(_) => {}
                        }
                    }
                    break;
                }
                metrics::counter("rewrite.pattern_misses", 1);
            }
        }
        outcome.events.extend(rewriter.take_events());
        if changed_this_iteration {
            outcome.changed = true;
        } else {
            outcome.converged = true;
            break;
        }
    }
    Ok(outcome)
}

fn enqueue_affected(worklist: &mut Vec<OpId>, rewriter: &Rewriter<'_>, values: &[ValueId]) {
    for &value in values {
        if !rewriter.ctx_ref().is_value_live(value) {
            continue;
        }
        if let Some(def) = rewriter.ctx_ref().defining_op(value) {
            worklist.push(def);
        }
        for &(user, _) in rewriter.ctx_ref().uses(value) {
            worklist.push(user);
        }
    }
}

/// Erases ops with the [`OpTraits::PURE`] trait whose results are all
/// unused, bottom-up. Returns the number of erased ops.
pub fn run_dce(ctx: &mut Context, root: OpId) -> usize {
    let mut erased = 0;
    loop {
        let mut removed_this_round = 0;
        let ops = ctx.walk_nested(root);
        for op in ops.into_iter().rev() {
            if !ctx.is_live(op) {
                continue;
            }
            if !ctx.has_trait(op, OpTraits::PURE) {
                continue;
            }
            let dead = ctx.op(op).results().iter().all(|&r| !ctx.has_uses(r));
            if dead {
                ctx.erase_op(op);
                removed_this_round += 1;
            }
        }
        erased += removed_this_round;
        if removed_this_round == 0 {
            metrics::counter("rewrite.dce_erased", erased as u64);
            return erased;
        }
    }
}

/// Common-subexpression elimination over [`OpTraits::PURE`] ops.
///
/// Two ops are equivalent when they have the same name, operands,
/// attributes, and result types, and are in the same block (a conservative
/// scope that needs no dominance reasoning). Returns the number of erased
/// ops.
///
/// The key holds a content hash of the attributes, not a copy: ops whose
/// keys match compare their attribute lists in place, so a lookup
/// allocates nothing.
pub fn run_cse(ctx: &mut Context, root: OpId) -> usize {
    #[derive(PartialEq, Eq, Hash)]
    struct Key {
        block: crate::ir::BlockId,
        name: Symbol,
        operands: InlineVec<ValueId, 4>,
        attrs: u64,
        result_types: InlineVec<crate::types::TypeId, 1>,
    }
    let mut erased = 0;
    // Ops whose keys match but whose attributes differ (a hash collision)
    // share an entry.
    let mut seen: HashMap<Key, InlineVec<OpId, 1>> = HashMap::new();
    let ops = ctx.walk_nested(root);
    for op in ops {
        if !ctx.is_live(op) || !ctx.has_trait(op, OpTraits::PURE) {
            continue;
        }
        if !ctx.op(op).regions().is_empty() {
            continue; // regions make structural equality subtle; skip
        }
        let Some(block) = ctx.op(op).parent() else {
            continue;
        };
        let key = Key {
            block,
            name: ctx.op(op).name,
            operands: InlineVec::from_slice(ctx.op(op).operands()),
            attrs: {
                let mut hasher = std::collections::hash_map::DefaultHasher::new();
                ctx.op(op).attributes().hash(&mut hasher);
                hasher.finish()
            },
            result_types: ctx
                .op(op)
                .results()
                .iter()
                .map(|&r| ctx.value_type(r))
                .collect(),
        };
        let candidates = seen.entry(key).or_default();
        let attrs = ctx.op(op).attributes();
        match candidates
            .iter()
            .copied()
            .find(|&c| ctx.op(c).attributes() == attrs)
        {
            Some(canonical) => {
                for index in 0..ctx.op(op).results().len() {
                    let (old, new) = (
                        ctx.op(op).results()[index],
                        ctx.op(canonical).results()[index],
                    );
                    ctx.replace_all_uses(old, new);
                }
                ctx.erase_op(op);
                erased += 1;
            }
            None => candidates.push(op),
        }
    }
    metrics::counter("rewrite.cse_erased", erased as u64);
    erased
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Attribute;
    use crate::dialect::OpSpec;
    use crate::parse::parse_module;

    fn register(ctx: &mut Context) {
        ctx.registry.register(
            OpSpec::new("arith.constant", "constant")
                .with_traits(OpTraits::PURE | OpTraits::CONSTANT_LIKE),
        );
        ctx.registry
            .register(OpSpec::new("arith.addi", "add").with_traits(OpTraits::PURE));
    }

    /// `x + 0 → x` for integer adds whose rhs is a zero constant.
    struct FoldAddZero;
    impl RewritePattern for FoldAddZero {
        fn name(&self) -> &str {
            "fold-add-zero"
        }
        fn root_op(&self) -> Option<Symbol> {
            Some(Symbol::new("arith.addi"))
        }
        fn match_and_rewrite(&self, rw: &mut Rewriter<'_>, op: OpId) -> Result<bool, Diagnostic> {
            let rhs = rw.ctx_ref().op(op).operands()[1];
            let Some(def) = rw.ctx_ref().defining_op(rhs) else {
                return Ok(false);
            };
            if rw.ctx_ref().op(def).name.as_str() != "arith.constant" {
                return Ok(false);
            }
            if rw.ctx_ref().op(def).attr("value") != Some(&Attribute::Int(0)) {
                return Ok(false);
            }
            let lhs = rw.ctx_ref().op(op).operands()[0];
            rw.replace_op(op, vec![lhs]);
            Ok(true)
        }
    }

    #[test]
    fn greedy_driver_applies_to_fixpoint() {
        let mut ctx = Context::new();
        register(&mut ctx);
        let module = parse_module(
            &mut ctx,
            r#"module {
  %x = arith.constant 5 : i32
  %z = arith.constant 0 : i32
  %a = "arith.addi"(%x, %z) : (i32, i32) -> i32
  %b = "arith.addi"(%a, %z) : (i32, i32) -> i32
  "test.use"(%b) : (i32) -> ()
}"#,
        )
        .unwrap();
        let mut patterns = PatternSet::new();
        patterns.add(Box::new(FoldAddZero));
        let outcome =
            apply_patterns_greedily(&mut ctx, module, &patterns, GreedyConfig::default()).unwrap();
        assert!(outcome.changed);
        assert!(outcome.converged);
        assert_eq!(outcome.applications, 2);
        // Both adds are gone; the use now consumes %x directly.
        let names: Vec<&str> = ctx
            .walk_nested(module)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(!names.contains(&"arith.addi"), "{names:?}");
    }

    #[test]
    fn events_record_replacements() {
        let mut ctx = Context::new();
        register(&mut ctx);
        let module = parse_module(
            &mut ctx,
            r#"module {
  %x = arith.constant 5 : i32
  %z = arith.constant 0 : i32
  %a = "arith.addi"(%x, %z) : (i32, i32) -> i32
  "test.use"(%a) : (i32) -> ()
}"#,
        )
        .unwrap();
        let mut patterns = PatternSet::new();
        patterns.add(Box::new(FoldAddZero));
        let outcome =
            apply_patterns_greedily(&mut ctx, module, &patterns, GreedyConfig::default()).unwrap();
        assert!(outcome
            .events
            .iter()
            .any(|e| matches!(e, RewriteEvent::Replaced { .. })));
    }

    #[test]
    fn dce_removes_dead_pure_ops() {
        let mut ctx = Context::new();
        register(&mut ctx);
        let module = parse_module(
            &mut ctx,
            r#"module {
  %dead1 = arith.constant 5 : i32
  %dead2 = "arith.addi"(%dead1, %dead1) : (i32, i32) -> i32
  %live = arith.constant 1 : i32
  "test.use"(%live) : (i32) -> ()
}"#,
        )
        .unwrap();
        let erased = run_dce(&mut ctx, module);
        assert_eq!(erased, 2);
        assert_eq!(ctx.walk_nested(module).len(), 2);
    }

    #[test]
    fn dce_keeps_impure_ops() {
        let mut ctx = Context::new();
        register(&mut ctx);
        let module = parse_module(
            &mut ctx,
            r#"module {
  %x = "test.sideeffect"() : () -> i32
}"#,
        )
        .unwrap();
        assert_eq!(run_dce(&mut ctx, module), 0);
    }

    #[test]
    fn cse_merges_identical_constants() {
        let mut ctx = Context::new();
        register(&mut ctx);
        let module = parse_module(
            &mut ctx,
            r#"module {
  %a = arith.constant 5 : i32
  %b = arith.constant 5 : i32
  %c = arith.constant 6 : i32
  "test.use"(%a, %b, %c) : (i32, i32, i32) -> ()
}"#,
        )
        .unwrap();
        let erased = run_cse(&mut ctx, module);
        assert_eq!(erased, 1);
        let use_op = ctx
            .walk_nested(module)
            .into_iter()
            .find(|&o| ctx.op(o).name.as_str() == "test.use")
            .unwrap();
        let ops = ctx.op(use_op).operands();
        assert_eq!(ops[0], ops[1], "identical constants merged");
        assert_ne!(ops[0], ops[2]);
    }

    #[test]
    fn cse_merges_equal_attributes_and_keeps_different_ones() {
        let mut ctx = Context::new();
        register(&mut ctx);
        let module = parse_module(
            &mut ctx,
            r#"module {
  %x = arith.constant 1 : i32
  %a = "arith.addi"(%x, %x) {flags = [1, 2], tag = "t"} : (i32, i32) -> i32
  %b = "arith.addi"(%x, %x) {flags = [1, 2], tag = "t"} : (i32, i32) -> i32
  %c = "arith.addi"(%x, %x) {flags = [1, 3], tag = "t"} : (i32, i32) -> i32
  %d = "arith.addi"(%x, %x) {tag = "t", flags = [1, 2]} : (i32, i32) -> i32
  %e = "arith.addi"(%x, %x) : (i32, i32) -> i32
  "test.use"(%a, %b, %c, %d, %e) : (i32, i32, i32, i32, i32) -> ()
}"#,
        )
        .unwrap();
        assert_eq!(run_cse(&mut ctx, module), 1, "only %b folds into %a");
        let use_op = ctx
            .walk_nested(module)
            .into_iter()
            .find(|&o| ctx.op(o).name.as_str() == "test.use")
            .unwrap();
        let ops = ctx.op(use_op).operands().to_vec();
        assert_eq!(ops[0], ops[1], "equal attributes merge");
        let distinct: HashSet<_> = [ops[0], ops[2], ops[3], ops[4]].into_iter().collect();
        assert_eq!(distinct.len(), 4, "different attributes (or order) do not");
    }

    /// `"test.mk_add"(x, z) → "arith.addi"(x, z)`: materializes a fresh op
    /// via the rewriter so the driver sees an `Inserted` event.
    struct ExpandMkAdd;
    impl RewritePattern for ExpandMkAdd {
        fn name(&self) -> &str {
            "expand-mk-add"
        }
        fn root_op(&self) -> Option<Symbol> {
            Some(Symbol::new("test.mk_add"))
        }
        fn match_and_rewrite(&self, rw: &mut Rewriter<'_>, op: OpId) -> Result<bool, Diagnostic> {
            let operands = rw.ctx_ref().op(op).operands().to_vec();
            let result_ty = rw.ctx_ref().value_type(rw.ctx_ref().op(op).results()[0]);
            let add = rw.create_before(op, |b| {
                b.op("arith.addi")
                    .operands(operands)
                    .results(vec![result_ty])
                    .build()
            });
            let new_value = rw.ctx_ref().op(add).results()[0];
            rw.replace_op(op, vec![new_value]);
            Ok(true)
        }
    }

    /// Toggles a `parity` attribute `from → to` in place. Registering the
    /// `0→1` and `1→0` instances together yields a pattern pair that never
    /// reaches a fixpoint — each sweep undoes the previous one — which is
    /// exactly what the max-sweep guard exists for.
    struct Toggle {
        from: i64,
        to: i64,
    }
    impl RewritePattern for Toggle {
        fn name(&self) -> &str {
            "toggle-parity"
        }
        fn root_op(&self) -> Option<Symbol> {
            Some(Symbol::new("test.ping"))
        }
        fn match_and_rewrite(&self, rw: &mut Rewriter<'_>, op: OpId) -> Result<bool, Diagnostic> {
            if rw.ctx_ref().op(op).attr("parity") != Some(&Attribute::Int(self.from)) {
                return Ok(false);
            }
            rw.ctx().set_attr(op, "parity", Attribute::Int(self.to));
            Ok(true)
        }
    }

    /// A replacement re-enqueues the users of the new values: the second
    /// add only becomes foldable after the first is replaced, yet a single
    /// sweep suffices — and the revisit is counted.
    #[test]
    fn replacement_reenqueues_users_within_one_sweep() {
        metrics::reset();
        let mut ctx = Context::new();
        register(&mut ctx);
        let module = parse_module(
            &mut ctx,
            r#"module {
  %x = arith.constant 5 : i32
  %z = arith.constant 0 : i32
  %a = "arith.addi"(%x, %z) : (i32, i32) -> i32
  %b = "arith.addi"(%a, %z) : (i32, i32) -> i32
  "test.use"(%b) : (i32) -> ()
}"#,
        )
        .unwrap();
        let mut patterns = PatternSet::new();
        patterns.add(Box::new(FoldAddZero));
        let config = GreedyConfig {
            max_iterations: 1,
            fold: false,
        };
        let outcome = apply_patterns_greedily(&mut ctx, module, &patterns, config).unwrap();
        assert!(outcome.changed);
        assert_eq!(outcome.applications, 2, "both adds fold in a single sweep");
        let names: Vec<&str> = ctx
            .walk_nested(module)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(!names.contains(&"arith.addi"), "{names:?}");
        let snapshot = metrics::snapshot();
        assert!(
            snapshot
                .counter_value("rewrite.worklist_revisits")
                .unwrap_or(0)
                >= 1,
            "re-enqueue of %b after %a's replacement must count as a revisit: {}",
            snapshot.to_json()
        );
        assert_eq!(snapshot.counter_value("rewrite.pattern_hits"), Some(2));
    }

    /// An `Inserted` event lands the new op on the worklist: the addi that
    /// `ExpandMkAdd` materializes is folded by `FoldAddZero` in the same
    /// sweep.
    #[test]
    fn inserted_ops_are_enqueued_within_one_sweep() {
        let mut ctx = Context::new();
        register(&mut ctx);
        let module = parse_module(
            &mut ctx,
            r#"module {
  %x = arith.constant 5 : i32
  %z = arith.constant 0 : i32
  %a = "test.mk_add"(%x, %z) : (i32, i32) -> i32
  "test.use"(%a) : (i32) -> ()
}"#,
        )
        .unwrap();
        let mut patterns = PatternSet::new();
        patterns.add(Box::new(ExpandMkAdd));
        patterns.add(Box::new(FoldAddZero));
        let config = GreedyConfig {
            max_iterations: 1,
            fold: false,
        };
        let outcome = apply_patterns_greedily(&mut ctx, module, &patterns, config).unwrap();
        assert_eq!(outcome.applications, 2, "expand then fold, one sweep");
        assert!(outcome
            .events
            .iter()
            .any(|e| matches!(e, RewriteEvent::Inserted(_))));
        let names: Vec<&str> = ctx
            .walk_nested(module)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(!names.contains(&"arith.addi"), "{names:?}");
        assert!(!names.contains(&"test.mk_add"), "{names:?}");
        // The use now consumes %x directly.
        let use_op = ctx
            .walk_nested(module)
            .into_iter()
            .find(|&o| ctx.op(o).name.as_str() == "test.use")
            .unwrap();
        let operand = ctx.op(use_op).operands()[0];
        let def = ctx.defining_op(operand).unwrap();
        assert_eq!(ctx.op(def).attr("value"), Some(&Attribute::Int(5)));
    }

    /// A ping-ponging pattern pair must terminate via the iteration budget
    /// and report non-convergence instead of looping forever.
    #[test]
    fn max_sweeps_guard_stops_ping_pong() {
        metrics::reset();
        let mut ctx = Context::new();
        register(&mut ctx);
        let module = parse_module(
            &mut ctx,
            r#"module {
  %p = "test.ping"() {parity = 0} : () -> i32
  "test.use"(%p) : (i32) -> ()
}"#,
        )
        .unwrap();
        let mut patterns = PatternSet::new();
        patterns.add(Box::new(Toggle { from: 0, to: 1 }));
        patterns.add(Box::new(Toggle { from: 1, to: 0 }));
        let config = GreedyConfig {
            max_iterations: 4,
            fold: false,
        };
        let outcome = apply_patterns_greedily(&mut ctx, module, &patterns, config).unwrap();
        assert!(outcome.changed);
        assert!(!outcome.converged, "ping-pong must exhaust the budget");
        assert_eq!(outcome.applications, 4, "one toggle per sweep");
        assert_eq!(metrics::snapshot().counter_value("rewrite.sweeps"), Some(4));
        // The IR is untouched structurally: the op is still there, well-formed.
        let names: Vec<&str> = ctx
            .walk_nested(module)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert_eq!(
            names.iter().filter(|n| **n == "test.ping").count(),
            1,
            "{names:?}"
        );
    }

    /// DCE and CSE report their erasure counts through the metrics layer.
    #[test]
    fn dce_and_cse_record_metrics_counters() {
        metrics::reset();
        let mut ctx = Context::new();
        register(&mut ctx);
        let module = parse_module(
            &mut ctx,
            r#"module {
  %dead = arith.constant 9 : i32
  %a = arith.constant 5 : i32
  %b = arith.constant 5 : i32
  "test.use"(%a, %b) : (i32, i32) -> ()
}"#,
        )
        .unwrap();
        assert_eq!(run_cse(&mut ctx, module), 1);
        assert_eq!(run_dce(&mut ctx, module), 1);
        let snapshot = metrics::snapshot();
        assert_eq!(snapshot.counter_value("rewrite.cse_erased"), Some(1));
        assert_eq!(snapshot.counter_value("rewrite.dce_erased"), Some(1));
        let json = snapshot.to_json();
        assert!(json.contains("\"rewrite.cse_erased\":1"), "dump: {json}");
    }

    #[test]
    fn pattern_set_retain_filters_by_name() {
        let mut patterns = PatternSet::new();
        patterns.add(Box::new(FoldAddZero));
        assert_eq!(patterns.names(), vec!["fold-add-zero"]);
        patterns.retain(|n| n != "fold-add-zero");
        assert!(patterns.is_empty());
    }
}
