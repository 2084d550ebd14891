//! Seeded random transform scripts for the generative fuzzer.
//!
//! [`generate_schedule_text`] emits a `transform.named_sequence @main`
//! whose steps are drawn from a seeded stream but are always *type- and
//! handle-correct*: every handle operand refers to an in-scope
//! `!transform.any_op` (or `!transform.param`) SSA value, loop transforms
//! are only applied to handles that were narrowed to a single `scf.for`,
//! and consumed handles are tracked so the generator knows which uses
//! would trip the interpreter's invalidation checking. Schedules are
//! *runtime-interesting* on purpose:
//!
//! * matches against op names drawn from the actual payload usually
//!   succeed, while a deliberately-absent name makes the step fail
//!   **silenceably** — sometimes wrapped in a suppressing
//!   `transform.sequence`, sometimes not;
//! * with [`ScheduleOptions::allow_invalidation`], a use of a consumed
//!   handle is occasionally emitted, which the interpreter must reject
//!   **deterministically** in every execution mode;
//! * loop tiling/unrolling/peeling/splitting consume their operand and
//!   produce fresh loop handles, exercising the rewrite-tracking paths.
//!
//! Like the payload generator, schedule generation is a pure function of
//! the options — the differential oracle replays a repro from its seed.

use td_ir::{Context, OpId};
use td_support::rng::{derive_seed, Xoshiro256pp};

/// Knobs for one generated schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleOptions {
    /// Seed of the decision stream.
    pub seed: u64,
    /// Number of top-level steps to generate.
    pub steps: u32,
    /// Op names present in the payload this schedule will target; matches
    /// are drawn from this list. Must be sorted and deduplicated (use
    /// [`payload_op_names`]) so generation stays seed-pure.
    pub payload_ops: Vec<String>,
    /// Permit silenceably-failing steps *outside* suppressing sequences
    /// (matches of absent ops, out-of-range selects).
    pub allow_failures: bool,
    /// Permit uses of already-consumed handles (definite invalidation
    /// errors at runtime).
    pub allow_invalidation: bool,
}

impl ScheduleOptions {
    /// Options targeting the given payload op names, with defaults.
    pub fn new(seed: u64, payload_ops: Vec<String>) -> Self {
        ScheduleOptions {
            seed,
            steps: 8,
            payload_ops,
            allow_failures: true,
            allow_invalidation: true,
        }
    }

    /// Sets the step count (builder-style).
    pub fn with_steps(mut self, steps: u32) -> Self {
        self.steps = steps;
        self
    }
}

/// The sorted, deduplicated op names nested in `module` — the match
/// vocabulary for [`ScheduleOptions::payload_ops`]. Sorting makes the
/// vocabulary independent of traversal details, keeping schedule
/// generation a pure function of `(payload text, seed)`.
pub fn payload_op_names(ctx: &Context, module: OpId) -> Vec<String> {
    let mut names: Vec<String> = ctx
        .walk_nested(module)
        .into_iter()
        .map(|op| ctx.op(op).name.as_str().to_owned())
        .collect();
    names.sort();
    names.dedup();
    names
}

/// A handle variable in the generated script.
#[derive(Clone, Debug)]
struct Handle {
    var: String,
    /// May map to more than one payload op (`select = "all"` matches,
    /// merges) — such handles are not valid loop-transform targets.
    multi: bool,
    /// Narrowed to a single `scf.for`.
    loop_like: bool,
    /// Consumed by a loop transform; further uses are definite errors.
    consumed: bool,
}

struct ScheduleBuilder {
    rng: Xoshiro256pp,
    opts: ScheduleOptions,
    handles: Vec<Handle>,
    params: Vec<String>,
    lines: Vec<String>,
    next_var: u32,
    next_tag: u32,
}

/// The op name used for deliberately-failing matches; never emitted by the
/// payload generator.
const ABSENT_OP: &str = "fuzz.absent";

impl ScheduleBuilder {
    fn var(&mut self, prefix: &str) -> String {
        let v = format!("%{prefix}{}", self.next_var);
        self.next_var += 1;
        v
    }

    fn tag(&mut self) -> String {
        let t = format!("fuzz_tag{}", self.next_tag);
        self.next_tag += 1;
        t
    }

    /// A random live (non-consumed) handle; index 0 is the root, which is
    /// never consumed and serves as the fallback.
    fn live_handle(&mut self, allow_root: bool) -> usize {
        let lo = usize::from(!allow_root);
        let candidates: Vec<usize> = (lo..self.handles.len())
            .filter(|&i| !self.handles[i].consumed)
            .collect();
        if candidates.is_empty() {
            0
        } else {
            *self.rng.choose(&candidates)
        }
    }

    fn live_loop_handle(&mut self) -> Option<usize> {
        let candidates: Vec<usize> = (0..self.handles.len())
            .filter(|&i| self.handles[i].loop_like && !self.handles[i].consumed)
            .collect();
        if candidates.is_empty() {
            None
        } else {
            Some(*self.rng.choose(&candidates))
        }
    }

    fn consumed_handle(&mut self) -> Option<usize> {
        let candidates: Vec<usize> = (0..self.handles.len())
            .filter(|&i| self.handles[i].consumed)
            .collect();
        if candidates.is_empty() {
            None
        } else {
            Some(*self.rng.choose(&candidates))
        }
    }

    fn push_handle(&mut self, var: String, multi: bool, loop_like: bool) -> usize {
        self.handles.push(Handle {
            var,
            multi,
            loop_like,
            consumed: false,
        });
        self.handles.len() - 1
    }

    // ----- steps -------------------------------------------------------

    fn step_match(&mut self) {
        let parent = self.live_handle(true);
        let absent = self.opts.allow_failures && self.rng.below(6) == 0;
        let name = if absent || self.opts.payload_ops.is_empty() {
            ABSENT_OP.to_owned()
        } else {
            self.rng.choose(&self.opts.payload_ops).clone()
        };
        let select = *self.rng.choose(&["all", "all", "first", "last"]);
        let out = self.var("h");
        let parent_var = self.handles[parent].var.clone();
        self.lines.push(format!(
            "    {out} = \"transform.match_op\"({parent_var}) {{name = \"{name}\", select = \"{select}\"}} : (!transform.any_op) -> !transform.any_op"
        ));
        let loop_like = name == "scf.for" && select != "all";
        self.push_handle(out, select == "all", loop_like);
    }

    fn step_annotate(&mut self) {
        // Occasionally target a consumed handle: a deterministic definite
        // error every execution mode must agree on.
        let target = if self.opts.allow_invalidation && self.rng.below(5) == 0 {
            self.consumed_handle()
                .unwrap_or_else(|| self.handles.len() - 1)
        } else {
            self.live_handle(true)
        };
        let tag = self.tag();
        let var = self.handles[target].var.clone();
        if !self.params.is_empty() && self.rng.next_bool() {
            let param = self.rng.choose(&self.params).clone();
            self.lines.push(format!(
                "    \"transform.annotate\"({var}, {param}) {{name = \"{tag}\"}} : (!transform.any_op, !transform.param) -> ()"
            ));
        } else {
            self.lines.push(format!(
                "    \"transform.annotate\"({var}) {{name = \"{tag}\"}} : (!transform.any_op) -> ()"
            ));
        }
    }

    fn step_merge(&mut self) {
        let a = self.live_handle(true);
        let b = self.live_handle(true);
        let out = self.var("h");
        let (va, vb) = (self.handles[a].var.clone(), self.handles[b].var.clone());
        self.lines.push(format!(
            "    {out} = \"transform.merge_handles\"({va}, {vb}) : (!transform.any_op, !transform.any_op) -> !transform.any_op"
        ));
        self.push_handle(out, true, false);
    }

    fn step_get_parent(&mut self) {
        if self.handles.len() < 2 {
            return self.step_match();
        }
        let target = self.live_handle(false);
        let out = self.var("h");
        let var = self.handles[target].var.clone();
        self.lines.push(format!(
            "    {out} = \"transform.get_parent_op\"({var}) {{name = \"func.func\"}} : (!transform.any_op) -> !transform.any_op"
        ));
        self.push_handle(out, self.handles[target].multi, false);
    }

    fn step_select(&mut self) {
        let target = self.live_handle(true);
        let index = if self.opts.allow_failures {
            self.rng.range_i64(0, 3)
        } else {
            0
        };
        let out = self.var("h");
        let var = self.handles[target].var.clone();
        self.lines.push(format!(
            "    {out} = \"transform.select_op\"({var}) {{index = {index}}} : (!transform.any_op) -> !transform.any_op"
        ));
        self.push_handle(out, false, false);
    }

    fn step_loop_transform(&mut self) {
        let Some(target) = self.live_loop_handle() else {
            // No single-loop handle in scope yet: mint one instead.
            return self.step_match_loop();
        };
        let var = self.handles[target].var.clone();
        self.handles[target].consumed = true;
        match self.rng.below(4) {
            0 => {
                let size = *self.rng.choose(&[2i64, 4]);
                let tiles = self.var("h");
                let points = self.var("h");
                self.lines.push(format!(
                    "    {tiles}, {points} = \"transform.loop.tile\"({var}) {{tile_sizes = [{size}]}} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)"
                ));
                self.push_handle(tiles, false, true);
                self.push_handle(points, false, true);
            }
            1 => {
                let factor = *self.rng.choose(&[2i64, 4]);
                let out = self.var("h");
                self.lines.push(format!(
                    "    {out} = \"transform.loop.unroll\"({var}) {{factor = {factor}}} : (!transform.any_op) -> !transform.any_op"
                ));
                self.push_handle(out, false, true);
            }
            2 => {
                let main = self.var("h");
                let rest = self.var("h");
                self.lines.push(format!(
                    "    {main}, {rest} = \"transform.loop.peel\"({var}) : (!transform.any_op) -> (!transform.any_op, !transform.any_op)"
                ));
                self.push_handle(main, false, true);
                self.push_handle(rest, false, true);
            }
            _ => {
                let main = self.var("h");
                let rest = self.var("h");
                self.lines.push(format!(
                    "    {main}, {rest} = \"transform.loop.split\"({var}) {{div_by = 2}} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)"
                ));
                self.push_handle(main, false, true);
                self.push_handle(rest, false, true);
            }
        }
    }

    /// Mints a single-`scf.for` handle off the root.
    fn step_match_loop(&mut self) {
        let select = *self.rng.choose(&["first", "last"]);
        let out = self.var("h");
        let root = self.handles[0].var.clone();
        self.lines.push(format!(
            "    {out} = \"transform.match_op\"({root}) {{name = \"scf.for\", select = \"{select}\"}} : (!transform.any_op) -> !transform.any_op"
        ));
        self.push_handle(out, false, true);
    }

    /// A suppressing sequence wrapping a possibly-failing inner match: the
    /// silenceable error is swallowed, so the step always succeeds.
    fn step_suppressed_sequence(&mut self) {
        let outer = self.live_handle(true);
        let arg = self.var("a");
        let inner = self.var("s");
        let tag = self.tag();
        let inner_name = if self.rng.next_bool() || self.opts.payload_ops.is_empty() {
            ABSENT_OP.to_owned()
        } else {
            self.rng.choose(&self.opts.payload_ops).clone()
        };
        let outer_var = self.handles[outer].var.clone();
        self.lines.push(format!(
            "    \"transform.sequence\"({outer_var}) ({{\n    ^bb0({arg}: !transform.any_op):\n      {inner} = \"transform.match_op\"({arg}) {{name = \"{inner_name}\", select = \"first\"}} : (!transform.any_op) -> !transform.any_op\n      \"transform.annotate\"({inner}) {{name = \"{tag}\"}} : (!transform.any_op) -> ()\n      \"transform.yield\"() : () -> ()\n    }}) {{failure_propagation_mode = \"suppress\"}} : (!transform.any_op) -> ()"
        ));
    }

    fn step_param(&mut self) {
        let value = self.rng.range_i64(1, 8);
        let out = self.var("p");
        self.lines.push(format!(
            "    {out} = \"transform.param.constant\"() {{value = {value}}} : () -> !transform.param"
        ));
        self.params.push(out);
    }

    fn step_pass(&mut self) {
        let pass = *self.rng.choose(&["canonicalize", "cse"]);
        let target = self.live_handle(true);
        let out = self.var("h");
        let var = self.handles[target].var.clone();
        self.lines.push(format!(
            "    {out} = \"transform.apply_registered_pass\"({var}) {{pass_name = \"{pass}\"}} : (!transform.any_op) -> !transform.any_op"
        ));
        self.push_handle(out, self.handles[target].multi, false);
    }

    fn step(&mut self) {
        match self.rng.below(100) {
            0..=29 => self.step_match(),
            30..=44 => self.step_annotate(),
            45..=52 => self.step_merge(),
            53..=60 => self.step_get_parent(),
            61..=67 => self.step_select(),
            68..=79 => self.step_loop_transform(),
            80..=87 => self.step_suppressed_sequence(),
            88..=93 => self.step_param(),
            _ => self.step_pass(),
        }
    }
}

/// Generates a random transform script (a module holding
/// `transform.named_sequence @main`) as text. Pure in the options: same
/// options, byte-identical script.
pub fn generate_schedule_text(opts: &ScheduleOptions) -> String {
    let rng = Xoshiro256pp::seed_from_u64(derive_seed(opts.seed, 0x5c8e_d01e));
    let mut b = ScheduleBuilder {
        rng,
        opts: opts.clone(),
        handles: vec![Handle {
            var: "%root".to_owned(),
            multi: false,
            loop_like: false,
            consumed: false,
        }],
        params: vec![],
        lines: vec![],
        next_var: 0,
        next_tag: 0,
    };
    for _ in 0..opts.steps.max(1) {
        b.step();
    }
    let mut out = String::new();
    out.push_str("module {\n");
    out.push_str("  transform.named_sequence @main(%root: !transform.any_op) {\n");
    for line in &b.lines {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str("  }\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::{generate_payload, PayloadOptions};

    fn fresh_ctx() -> Context {
        let mut ctx = Context::new();
        td_dialects::register_all_dialects(&mut ctx);
        ctx
    }

    fn sample_ops() -> Vec<String> {
        let mut ctx = fresh_ctx();
        let module = generate_payload(&mut ctx, &PayloadOptions::new(1));
        payload_op_names(&ctx, module)
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let ops = sample_ops();
        for seed in [0u64, 3, 99] {
            let opts = ScheduleOptions::new(seed, ops.clone()).with_steps(12);
            assert_eq!(
                generate_schedule_text(&opts),
                generate_schedule_text(&opts),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn generated_schedules_parse() {
        let ops = sample_ops();
        for seed in 0..24u64 {
            let text = generate_schedule_text(&ScheduleOptions::new(seed, ops.clone()));
            let mut ctx = fresh_ctx();
            td_transform::register_transform_dialect(&mut ctx);
            let module = td_ir::parse_module(&mut ctx, &text)
                .unwrap_or_else(|e| panic!("seed {seed}: {}\n{text}", e.message()));
            assert!(
                ctx.lookup_symbol(module, "main").is_some(),
                "seed {seed}: no @main"
            );
        }
    }

    #[test]
    fn vocabulary_is_sorted_and_unique() {
        let mut ctx = fresh_ctx();
        let module = generate_payload(&mut ctx, &PayloadOptions::new(2));
        let names = payload_op_names(&ctx, module);
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(names, sorted);
        assert!(names.iter().any(|n| n == "scf.for"));
    }
}
