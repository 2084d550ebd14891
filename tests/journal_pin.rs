//! Pins the provenance journal's *answers*: for every payload op a
//! recording mentions, who created it, who erased it and what last
//! touched it, plus the first failing step and the ranked summary
//! without its times.
//!
//! Inputs:
//! * the `journal_smoke` tiled-matmul schedule;
//! * the first 200 td-fuzz pairs of the default seed, each applied with
//!   the journal on under `TxnMode::Always` and under `TxnMode::Never`,
//!   in a fresh context.
//!
//! The answers render as text and fold into one FNV-1a digest per input
//! set, pinned below. The test reads the journal only through its
//! queries, so any change to how the journal records must reproduce
//! these answers exactly.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use td_fuzz::{pair_specs, FuzzConfig, Pair};
use td_ir::parse_module;
use td_sched::standard_passes;
use td_support::journal::{self, Journal};
use td_transform::{InterpEnv, Interpreter, TxnMode};

const MATMUL_PAYLOAD: &str = r#"module {
  func.func @matmul(%a: memref<128x128xf32>, %b: memref<128x128xf32>, %c: memref<128x128xf32>) {
    %lo = arith.constant 0 : index
    %hi = arith.constant 128 : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {
      scf.for %j = %lo to %hi step %st {
        scf.for %k = %lo to %hi step %st {
          %av = "memref.load"(%a, %i, %k) : (memref<128x128xf32>, index, index) -> f32
          %bv = "memref.load"(%b, %k, %j) : (memref<128x128xf32>, index, index) -> f32
          %cv = "memref.load"(%c, %i, %j) : (memref<128x128xf32>, index, index) -> f32
          %p = "arith.mulf"(%av, %bv) : (f32, f32) -> f32
          %s = "arith.addf"(%cv, %p) : (f32, f32) -> f32
          "memref.store"(%s, %c, %i, %j) : (f32, memref<128x128xf32>, index, index) -> ()
        }
      }
    }
    func.return
  }
}"#;

/// Pinned digests: (input set, number of answer lines, FNV-1a of them).
const PINS: [(&str, usize, u64); 3] = [
    ("matmul", 17, 3562157765786685053),
    ("fuzz/always", 2680, 12600004721751626735),
    ("fuzz/never", 2541, 14835784051287470134),
];

/// Records `f` with the journal on and returns what it recorded.
fn journaled(f: impl FnOnce()) -> Journal {
    journal::reset();
    journal::set_enabled(true);
    f();
    let recorded = journal::take();
    journal::clear_enabled_override();
    recorded
}

/// The journal's answers as text, one line per query.
fn answers(recorded: &Journal, out: &mut String) {
    let ops: BTreeSet<String> = recorded
        .changes()
        .iter()
        .map(|c| c.op.to_string())
        .collect();
    for op in &ops {
        let step = |s: Option<&journal::StepRecord>| {
            s.map_or("-".to_owned(), |s| format!("{}@{}", s.name, s.index))
        };
        let last = recorded.last_touch(op).map_or("-".to_owned(), |(c, s)| {
            format!("{} {}@{}", c.kind.name(), s.name, s.index)
        });
        let _ = writeln!(
            out,
            "{op} created={} erased={} last={last}",
            step(recorded.who_created(op)),
            step(recorded.who_erased(op)),
        );
    }
    let failure = recorded.first_failure().map_or("-".to_owned(), |s| {
        format!("{}@{} {}", s.name, s.index, s.outcome.name())
    });
    let _ = writeln!(out, "first_failure={failure}");
    // Rows rank by time among equals, so they are listed by name here.
    let mut rows = recorded.summarize();
    rows.sort_by(|a, b| a.name.cmp(&b.name));
    for row in rows {
        let _ = writeln!(
            out,
            "summary {} steps={} ops={} failures={}",
            row.name, row.steps, row.ops_touched, row.failures
        );
    }
}

/// Applies `pair` in a fresh context with the journal on.
fn fuzz_journal(pair: &Pair, txn: TxnMode) -> Journal {
    journaled(|| {
        let mut ctx = td_fuzz::fresh_context();
        let Ok(payload) = parse_module(&mut ctx, &pair.payload) else {
            return;
        };
        let Ok(script) = parse_module(&mut ctx, &pair.schedule) else {
            return;
        };
        let Some(entry) = ctx.lookup_symbol(script, &pair.entry) else {
            return;
        };
        let passes = standard_passes();
        let mut env = InterpEnv::standard();
        env.passes = Some(&passes);
        env.config.txn = txn;
        let _ = Interpreter::new(&env).apply_reentrant(&mut ctx, entry, payload);
    })
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn journal_answers_match_the_pinned_digests() {
    let mut texts: Vec<(&str, String)> = Vec::new();

    let mut matmul = String::new();
    for script in [
        td_bench::gate::tile_schedule("main", 32, None),
        td_bench::gate::FAILING_SCRIPT.to_owned(),
    ] {
        let recorded = journaled(|| {
            let (mut ctx, entry, payload) =
                td_bench::parse_schedule(MATMUL_PAYLOAD, &script, "main");
            let env = InterpEnv::standard();
            let _ = Interpreter::new(&env).apply_reentrant(&mut ctx, entry, payload);
        });
        answers(&recorded, &mut matmul);
    }
    texts.push(("matmul", matmul));

    let pairs: Vec<Pair> = pair_specs(&FuzzConfig::default())
        .iter()
        .map(|spec| spec.build())
        .collect();
    for (label, txn) in [
        ("fuzz/always", TxnMode::Always),
        ("fuzz/never", TxnMode::Never),
    ] {
        let mut text = String::new();
        for (index, pair) in pairs.iter().enumerate() {
            let _ = writeln!(text, "pair {index}");
            answers(&fuzz_journal(pair, txn), &mut text);
        }
        texts.push((label, text));
    }

    let actual: Vec<(&str, usize, u64)> = texts
        .iter()
        .map(|(label, text)| (*label, text.lines().count(), fnv1a(text)))
        .collect();
    assert_eq!(
        actual,
        PINS,
        "journal answers moved; first lines of each set:\n{}",
        texts
            .iter()
            .map(|(label, text)| format!(
                "--- {label}\n{}",
                text.lines().take(12).collect::<Vec<_>>().join("\n")
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
