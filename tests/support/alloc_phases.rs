//! Counted allocations of one `models_direct`-shaped job, split into
//! phases: parse the model and the TOSA pipeline script, apply the script
//! with the interpreter, print, drop the context.
//!
//! A counting `#[global_allocator]` wraps `System` and counts, per thread,
//! allocations (`alloc`, `alloc_zeroed` and `realloc` calls) and frees, so
//! other threads of the process do not leak into a count. Counts are exact
//! for a given build.
//!
//! Shared by `tests/alloc_budget.rs` and `examples/ir_storage_stats.rs`
//! through `#[path]`; each reads only some of the fields.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use td_bench::{full_context, full_pass_registry};
use td_ir::{Context, OpId};
use td_modelgen::ModelSpec;
use td_transform::{InterpEnv, Interpreter};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when there is nothing left to count into.
    let _ = counter.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters are thread-local `Cell`s with const
// initializers, which neither allocate nor register destructors.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn frees() -> u64 {
    FREES.with(Cell::get)
}

/// Per-phase counts of one job. The storage counters (`created_ops`,
/// `erased_ops`, `block_edits`, `order_keys`) cover the apply phase.
#[derive(Debug)]
pub struct Phases {
    pub parsed_ops: usize,
    pub parse_allocs: u64,
    pub apply_allocs: u64,
    pub print_allocs: u64,
    pub live_ops: usize,
    pub drop_frees: u64,
    pub created_ops: u64,
    pub erased_ops: u64,
    pub block_edits: u64,
    pub order_keys: u64,
}

impl Phases {
    /// Parse allocations per parsed op, apply allocations per created op
    /// and context-drop frees per live op.
    pub fn per_op(&self) -> (f64, f64, f64) {
        let per = |count: u64, ops: u64| count as f64 / ops.max(1) as f64;
        (
            per(self.parse_allocs, self.parsed_ops as u64),
            per(self.apply_allocs, self.created_ops),
            per(self.drop_frees, self.live_ops as u64),
        )
    }
}

/// The printed TOSA pipeline script.
pub fn tosa_script() -> String {
    let mut ctx = full_context();
    let script = td_transform::pipeline_to_script(&mut ctx, td_dialects::passes::TOSA_PIPELINE)
        .expect("the pipeline is not empty");
    td_ir::print_op(&ctx, script)
}

/// The printed payload of one model.
pub fn model_payload(spec: &ModelSpec) -> String {
    let mut ctx = full_context();
    let module = td_modelgen::build_model(&mut ctx, spec);
    td_ir::print_op(&ctx, module)
}

/// Runs one job on `payload` with `script`, counting each phase; `inspect`
/// sees the lowered payload before the context is dropped.
pub fn job(payload: &str, script: &str, inspect: impl FnOnce(&Context, OpId)) -> Phases {
    let registry = full_pass_registry();
    let mut ctx = full_context();
    let start = allocs();
    let payload_op = td_ir::parse_module(&mut ctx, payload).expect("model parses");
    let script_op = td_ir::parse_module(&mut ctx, script).expect("script parses");
    let parse_allocs = allocs() - start;
    let parsed_ops = ctx.num_ops();

    let entry = td_transform::transform_main(&ctx, script_op).expect("entry exists");
    let mut env = InterpEnv::standard();
    env.passes = Some(&registry);
    let before = ctx.storage_stats();
    let start = allocs();
    Interpreter::new(&env)
        .apply(&mut ctx, entry, payload_op)
        .expect("the pipeline applies");
    let apply_allocs = allocs() - start;
    let after = ctx.storage_stats();

    let start = allocs();
    let text = td_ir::print_op(&ctx, payload_op);
    let print_allocs = allocs() - start;
    assert!(!text.is_empty());
    inspect(&ctx, payload_op);

    let live_ops = ctx.num_ops();
    let start = frees();
    drop(ctx);
    Phases {
        parsed_ops,
        parse_allocs,
        apply_allocs,
        print_allocs,
        live_ops,
        drop_frees: frees() - start,
        created_ops: after.ops_created - before.ops_created,
        erased_ops: after.ops_erased - before.ops_erased,
        block_edits: after.block_edits - before.block_edits,
        order_keys: after.order_keys_assigned - before.order_keys_assigned,
    }
}

/// [`job`] with the provenance journal recording, without `inspect`;
/// also returns how many change records the job journaled.
pub fn journaled_job(payload: &str, script: &str) -> (Phases, usize) {
    use td_support::journal;
    journal::reset();
    journal::set_enabled(true);
    let phases = job(payload, script, |_, _| {});
    let changes = journal::take().changes().len();
    journal::clear_enabled_override();
    (phases, changes)
}
