//! Allocation budgets of the IR's entity storage, counted exactly.
//!
//! One `models_direct`-shaped job on GPT-2 with the TOSA pipeline script
//! is split into phases by the counting allocator of
//! `tests/support/alloc_phases.rs`, and each phase is held to a budget
//! per op:
//!
//! * parse: at most 3.0 allocations per parsed op;
//! * apply: at most 3.0 allocations per op the interpreter created;
//! * context drop: at most 1.0 free per op still live.
//!
//! The same job with the provenance journal recording may allocate at
//! most 0.05 more per change record it journals than with the journal
//! off: a record is a `Copy` push, so only the journal's own vectors grow.
//!
//! Counts are per thread, so tests running beside this one in the same
//! process do not leak into it. Counts are exact for a given build, so a
//! budget that fails is a real regression, not noise.

#[path = "support/alloc_phases.rs"]
mod alloc_phases;

fn gpt2_payload() -> String {
    let spec = td_modelgen::paper_models()
        .into_iter()
        .find(|spec| spec.name == "GPT-2")
        .expect("GPT-2 is a Table 1 model");
    alloc_phases::model_payload(&spec)
}

#[test]
fn gpt2_lowering_stays_within_its_allocation_budgets() {
    let payload = gpt2_payload();
    let phases = alloc_phases::job(&payload, &alloc_phases::tosa_script(), |_, _| {});
    let (parse, apply, drop) = phases.per_op();
    let report = format!("{phases:?}: parse {parse:.2}, apply {apply:.2}, drop {drop:.2}");
    assert!(phases.created_ops > 1000, "{report}");
    assert!(parse <= 3.0, "parse allocations per parsed op: {report}");
    assert!(apply <= 3.0, "apply allocations per created op: {report}");
    assert!(drop <= 1.0, "context-drop frees per live op: {report}");
}

#[test]
fn journaling_gpt2_allocates_nothing_per_change_record() {
    let (payload, script) = (gpt2_payload(), alloc_phases::tosa_script());
    let off = alloc_phases::job(&payload, &script, |_, _| {});
    let (on, changes) = alloc_phases::journaled_job(&payload, &script);
    let extra = on.apply_allocs.saturating_sub(off.apply_allocs);
    let report = format!(
        "apply allocations: {} journal off, {} journal on, {changes} change records",
        off.apply_allocs, on.apply_allocs
    );
    assert!(changes > 10_000, "{report}");
    assert!(extra as f64 <= 0.05 * changes as f64, "{report}");
}
