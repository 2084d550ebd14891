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
//! Counts are per thread, so tests running beside this one in the same
//! process do not leak into it. Counts are exact for a given build, so a
//! budget that fails is a real regression, not noise.

#[path = "support/alloc_phases.rs"]
mod alloc_phases;

#[test]
fn gpt2_lowering_stays_within_its_allocation_budgets() {
    let spec = td_modelgen::paper_models()
        .into_iter()
        .find(|spec| spec.name == "GPT-2")
        .expect("GPT-2 is a Table 1 model");
    let payload = alloc_phases::model_payload(&spec);
    let phases = alloc_phases::job(&payload, &alloc_phases::tosa_script(), |_, _| {});
    let (parse, apply, drop) = phases.per_op();
    let report = format!("{phases:?}: parse {parse:.2}, apply {apply:.2}, drop {drop:.2}");
    assert!(phases.created_ops > 1000, "{report}");
    assert!(parse <= 3.0, "parse allocations per parsed op: {report}");
    assert!(apply <= 3.0, "apply allocations per created op: {report}");
    assert!(drop <= 1.0, "context-drop frees per live op: {report}");
}
