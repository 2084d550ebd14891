//! Entity-storage statistics of the five Table 1 models under the TOSA
//! pipeline: what the inline list capacities and the linked op lists in
//! `td_ir::ir` were sized from, reproducible from the repository.
//!
//! ```text
//! cargo run --release --example ir_storage_stats
//! ```
//!
//! For each model it runs one `models_direct`-shaped job — parse the model
//! and the pipeline script, apply the script with the interpreter, print,
//! drop the context — and reports:
//!
//! * allocations per phase (parse, apply, print) and frees at context
//!   drop, counted by the per-thread counting allocator of
//!   `tests/support/alloc_phases.rs` (the job that `tests/alloc_budget.rs`
//!   holds to its budgets);
//! * the context's storage counters: ops created and erased, block-list
//!   edits (each O(1); a block held as an array shifted its tail on every
//!   one) and order keys assigned.
//!
//! Then the arity histogram over every lowered op: operands, results,
//! regions, successors and attributes per op, and uses per result.

#[path = "../tests/support/alloc_phases.rs"]
mod alloc_phases;

use std::collections::BTreeMap;
use td_ir::{Context, OpId};

/// Counts of how many ops (or results) have each arity.
#[derive(Default)]
struct Histogram(BTreeMap<usize, u64>);

impl Histogram {
    fn add(&mut self, arity: usize) {
        *self.0.entry(arity).or_default() += 1;
    }

    /// `0:n0 1:n1 …` plus the share at or below `cap`.
    fn line(&self, cap: usize) -> String {
        let total: u64 = self.0.values().sum();
        let within: u64 = self.0.range(..=cap).map(|(_, n)| n).sum();
        let cells: Vec<String> = self.0.iter().map(|(k, n)| format!("{k}:{n}")).collect();
        format!(
            "{} ({:.1}% at most {cap})",
            cells.join(" "),
            100.0 * within as f64 / total.max(1) as f64
        )
    }
}

#[derive(Default)]
struct Arity {
    operands: Histogram,
    results: Histogram,
    regions: Histogram,
    successors: Histogram,
    attributes: Histogram,
    uses: Histogram,
}

impl Arity {
    fn record(&mut self, ctx: &Context, module: OpId) {
        for op in ctx.walk_nested(module) {
            let data = ctx.op(op);
            self.operands.add(data.operands().len());
            self.results.add(data.results().len());
            self.regions.add(data.regions().len());
            self.successors.add(data.successors().len());
            self.attributes.add(data.attributes().len());
            for &result in data.results() {
                self.uses.add(ctx.uses(result).len());
            }
        }
    }
}

fn main() {
    let script = alloc_phases::tosa_script();
    let mut arity = Arity::default();
    println!(
        "{:<24} {:>7} {:>7} {:>8} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "model", "parsed", "parse", "apply", "print", "drop", "created", "erased", "edits", "keys"
    );
    let mut totals = [0u64; 4];
    for spec in td_modelgen::paper_models() {
        let payload = alloc_phases::model_payload(&spec);
        let phases = alloc_phases::job(&payload, &script, |ctx, module| arity.record(ctx, module));
        println!(
            "{:<24} {:>7} {:>7} {:>8} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8}",
            spec.name,
            phases.parsed_ops,
            phases.parse_allocs,
            phases.apply_allocs,
            phases.print_allocs,
            phases.drop_frees,
            phases.created_ops,
            phases.erased_ops,
            phases.block_edits,
            phases.order_keys,
        );
        let counts = [
            phases.parse_allocs,
            phases.apply_allocs,
            phases.drop_frees,
            phases.created_ops,
        ];
        for (total, value) in totals.iter_mut().zip(counts) {
            *total += value;
        }
    }
    println!(
        "all models: {} parse, {} apply ({:.2} per created op), {} drop frees",
        totals[0],
        totals[1],
        totals[1] as f64 / totals[3].max(1) as f64,
        totals[2]
    );
    println!("\narity over the lowered ops (value:count):");
    println!("  operands    {}", arity.operands.line(4));
    println!("  results     {}", arity.results.line(1));
    println!("  regions     {}", arity.regions.line(1));
    println!("  successors  {}", arity.successors.line(1));
    println!("  attributes  {}", arity.attributes.line(1));
    println!("  uses/result {}", arity.uses.line(3));
}
