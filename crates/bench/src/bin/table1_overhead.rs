//! Regenerates **Table 1** (and the **Figure 6** series with `--csv`):
//! compile-time overhead of driving the TOSA→loops pipeline through the
//! Transform interpreter vs. the pass manager on five whole-model graphs,
//! with the interpreter's transactions off (the paper's quantity) and on
//! (the shipped default).
//!
//! ```text
//! cargo run -p td-bench --release --bin table1_overhead [-- --csv] [--pairs N]
//! ```

use td_bench::table1;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let csv = args.iter().any(|a| a == "--csv");
    let pairs = args
        .iter()
        .position(|a| a == "--pairs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(15);

    eprintln!("measuring Table 1 ({pairs} interleaved pairs per model, median pair reported)...");
    let rows = table1::measure(pairs);

    if csv {
        // Figure 6 series: model, driver, compile time.
        println!("model,driver,compile_ms");
        for row in &rows {
            println!("{},pass-manager,{:.3}", row.model, row.pass_manager_ms);
            println!("{},transform,{:.3}", row.model, row.transform_ms);
            println!("{},transform-txn,{:.3}", row.model, row.transform_txn_ms);
        }
        return;
    }

    println!("Table 1: ML models compiled through the TOSA->Linalg->loops pipeline.");
    println!("Identical pipelines; the Transform column interprets a generated script");
    println!("of transform.apply_registered_pass ops (the paper's worst case), and the");
    println!("transactions-on column does so under the default TxnMode::Always.\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.model.to_owned(),
                row.ops.to_string(),
                format!("{:.1}", row.pass_manager_ms),
                format!("{:.1}", row.transform_ms),
                format!("{:+.1}%", row.overhead_percent()),
                format!("{:.1}", row.transform_txn_ms),
                format!("{:+.1}%", row.txn_overhead_percent()),
            ]
        })
        .collect();
    print!(
        "{}",
        td_bench::render_table(
            &[
                "Model",
                "# Ops",
                "MLIR-style pass manager (ms)",
                "Transform (ms)",
                "Overhead",
                "Transform, transactions on (ms)",
                "Overhead"
            ],
            &table_rows
        )
    );
    let max_of = |overhead: fn(&table1::Table1Row) -> f64| {
        rows.iter().map(overhead).fold(f64::NEG_INFINITY, f64::max)
    };
    let max_overhead = max_of(table1::Table1Row::overhead_percent);
    let max_txn = max_of(table1::Table1Row::txn_overhead_percent);
    println!("\nmax overhead: {max_overhead:+.1}% (paper reports <= 2.6%)");
    println!("max overhead with transactions on: {max_txn:+.1}%");
    if let Some(path) = td_support::trace::write_env_trace().expect("write trace") {
        eprintln!("wrote {path}");
    }
}
