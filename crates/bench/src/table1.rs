//! The Table 1 / Figure 6 harness: compile-time overhead of driving an
//! identical pipeline through the Transform interpreter instead of the
//! pass manager, on five whole-model TOSA graphs.

use std::time::Instant;
use td_modelgen::{build_model, count_model_ops, paper_models, ModelSpec};
use td_transform::{pipeline_to_script, transform_main, InterpEnv, Interpreter, TxnMode};

/// One row of Table 1.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Model name.
    pub model: &'static str,
    /// Op count of the model function (matches the paper's column).
    pub ops: usize,
    /// Compile time via the pass manager, milliseconds.
    pub pass_manager_ms: f64,
    /// Compile time via the Transform interpreter, milliseconds.
    pub transform_ms: f64,
    /// Compile time via the Transform interpreter with transactions on
    /// (`TxnMode::Always`, the default a shipped interpreter runs with),
    /// milliseconds.
    pub transform_txn_ms: f64,
}

impl Table1Row {
    /// Interpreter overhead as a percentage.
    pub fn overhead_percent(&self) -> f64 {
        percent_over(self.transform_ms, self.pass_manager_ms)
    }

    /// Overhead of the interpreter with transactions on, as a percentage
    /// of the pass manager.
    pub fn txn_overhead_percent(&self) -> f64 {
        percent_over(self.transform_txn_ms, self.pass_manager_ms)
    }
}

fn percent_over(ms: f64, base_ms: f64) -> f64 {
    if base_ms == 0.0 {
        0.0
    } else {
        (ms / base_ms - 1.0) * 100.0
    }
}

/// Compile time of the TOSA pipeline through the pass manager, in ms.
pub fn compile_with_pass_manager(spec: &ModelSpec) -> f64 {
    let mut ctx = crate::full_context();
    let module = build_model(&mut ctx, spec);
    let registry = crate::full_pass_registry();
    let mut pm = registry
        .parse_pipeline(td_dialects::passes::TOSA_PIPELINE)
        .expect("pipeline parses");
    let start = Instant::now();
    pm.run(&mut ctx, module).expect("pipeline succeeds");
    start.elapsed().as_secs_f64() * 1e3
}

/// Compile time of the *same* pipeline expressed as a Transform script and
/// interpreted, in ms. The script conversion happens outside the timed
/// section, mirroring the paper's methodology (scripts are generated once).
pub fn compile_with_transform(spec: &ModelSpec) -> f64 {
    // Transactions off for a fair comparison with the pass manager, which
    // has none: this isolates the paper's Table 1 quantity (interpreter
    // *dispatch* overhead). `measure_model` reports the shipped default
    // beside it.
    compile_with_transform_txn(spec, TxnMode::Never)
}

/// [`compile_with_transform`] under an explicit transaction mode.
fn compile_with_transform_txn(spec: &ModelSpec, txn: TxnMode) -> f64 {
    let mut ctx = crate::full_context();
    let module = build_model(&mut ctx, spec);
    let registry = crate::full_pass_registry();
    let script = pipeline_to_script(&mut ctx, td_dialects::passes::TOSA_PIPELINE)
        .expect("script generation succeeds");
    let entry = transform_main(&ctx, script).expect("entry point exists");
    let mut env = InterpEnv::standard();
    env.passes = Some(&registry);
    // Expensive checks off: the pass manager has none.
    env.config.expensive_checks = false;
    env.config.txn = txn;
    let mut interp = Interpreter::new(&env);
    let start = Instant::now();
    interp
        .apply(&mut ctx, entry, module)
        .expect("script succeeds");
    start.elapsed().as_secs_f64() * 1e3
}

/// Measures one model over `pairs` interleaved pass-manager /
/// interpreter pairs and reports the pair with the median interpreter /
/// pass-manager ratio. Machine noise lasting longer than one compile lands
/// on both halves of a pair alike, and the median over pairs shrugs off the
/// pairs it still hit unevenly, where a best-of-N minimum of each column
/// picks two unrelated outliers.
///
/// Each pair also times the interpreter with transactions on, and which of
/// the three compiles runs first rotates. The transactions-on column is
/// the median of *its* per-pair ratio to the pass manager, applied to the
/// reported pass-manager time, so both overheads are medians over the same
/// pairs.
///
/// # Panics
/// Panics if `pairs` is 0.
pub fn measure_model(spec: &ModelSpec, pairs: usize) -> Table1Row {
    assert!(pairs > 0, "at least one pair");
    let mut timed: Vec<[f64; 3]> = (0..pairs)
        .map(|i| {
            let mut row = [0.0; 3];
            for k in 0..3 {
                let driver = (i + k) % 3;
                row[driver] = match driver {
                    0 => compile_with_pass_manager(spec),
                    1 => compile_with_transform(spec),
                    _ => compile_with_transform_txn(spec, TxnMode::Always),
                };
            }
            row
        })
        .collect();
    let mut txn_ratios: Vec<f64> = timed.iter().map(|t| t[2] / t[0]).collect();
    txn_ratios.sort_by(f64::total_cmp);
    timed.sort_by(|a, b| (a[1] / a[0]).total_cmp(&(b[1] / b[0])));
    let [pass_manager_ms, transform_ms, _] = timed[pairs / 2];
    let mut ctx = crate::full_context();
    let module = build_model(&mut ctx, spec);
    Table1Row {
        model: spec.name,
        ops: count_model_ops(&ctx, module),
        pass_manager_ms,
        transform_ms,
        transform_txn_ms: pass_manager_ms * txn_ratios[pairs / 2],
    }
}

/// Runs the full Table 1 measurement: [`measure_model`] with `pairs`
/// pairs on each of the five models.
pub fn measure(pairs: usize) -> Vec<Table1Row> {
    paper_models()
        .iter()
        .map(|spec| measure_model(spec, pairs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_drivers_produce_identical_ir() {
        // The worst-case-scenario claim only holds if the transform route
        // really does the same work: compare final IR.
        let spec = &paper_models()[0]; // Squeezenet (smallest)
        let mut ctx1 = crate::full_context();
        let m1 = build_model(&mut ctx1, spec);
        let registry = crate::full_pass_registry();
        registry
            .parse_pipeline(td_dialects::passes::TOSA_PIPELINE)
            .unwrap()
            .run(&mut ctx1, m1)
            .unwrap();

        let mut ctx2 = crate::full_context();
        let m2 = build_model(&mut ctx2, spec);
        let script = pipeline_to_script(&mut ctx2, td_dialects::passes::TOSA_PIPELINE).unwrap();
        let entry = transform_main(&ctx2, script).unwrap();
        let mut env = InterpEnv::standard();
        env.passes = Some(&registry);
        Interpreter::new(&env).apply(&mut ctx2, entry, m2).unwrap();

        assert_eq!(td_ir::print_op(&ctx1, m1), td_ir::print_op(&ctx2, m2));
    }

    #[test]
    fn overhead_is_small() {
        // A smoke version of the Table 1 claim on the smallest model: the
        // transform route must not cost more than 50% extra even in debug
        // builds (the release-mode harness reports the real ≤ a-few-%).
        let row = measure_model(&paper_models()[0], 5);
        assert!(
            row.transform_ms < row.pass_manager_ms * 1.5,
            "median pair: transform {} ms vs pass manager {} ms",
            row.transform_ms,
            row.pass_manager_ms
        );
    }
}
