//! Byte-identity pin for the printer: FNV-1a digests of `print_op` over
//! the five Table 1 models, before and after `TOSA_PIPELINE`, and over 300
//! td-modelgen payloads. `CacheKey` hashes request bytes and the benchmark
//! compares printed text byte for byte, so any change to a printed byte
//! fails here, in tier-1, not only in `benchmark/run.sh --check`.
//!
//! A deliberate format change re-blesses the table from the failure
//! message, which prints every row as it now reads.

use td_bench::{full_context, full_pass_registry};
use td_modelgen::{build_model, generate_payload, paper_models, PayloadOptions};
use td_sched::cache::fnv1a;

/// `(what, digest)` rows; model rows are `<model>.built` / `<model>.lowered`.
const PINNED: &[(&str, u64)] = &[
    ("Squeezenet.built", 0x26384240466afacb),
    ("Squeezenet.lowered", 0x3b3447846b7072ac),
    ("GPT-2.built", 0x0496a28b17d65864),
    ("GPT-2.lowered", 0x961f1c138ad901b2),
    ("Mobile BERT.built", 0xe144e35a694038b7),
    ("Mobile BERT.lowered", 0x971092ff528f8993),
    ("Whisper (decoder only).built", 0x5a1d52604fe1e85d),
    ("Whisper (decoder only).lowered", 0xf189dff95f5c20d6),
    ("BERT-base-uncased.built", 0xe06828d165e333dc),
    ("BERT-base-uncased.lowered", 0x065a92b1c8bf76cc),
    ("payloads.0..300", 0x90793cab726e3937),
];

fn actual_rows() -> Vec<(String, u64)> {
    let registry = full_pass_registry();
    let mut rows = Vec::new();
    for spec in paper_models() {
        let mut ctx = full_context();
        let module = build_model(&mut ctx, &spec);
        let built = td_ir::print_op(&ctx, module);
        rows.push((format!("{}.built", spec.name), fnv1a(built.as_bytes())));
        registry
            .parse_pipeline(td_dialects::passes::TOSA_PIPELINE)
            .expect("pipeline parses")
            .run(&mut ctx, module)
            .expect("pipeline runs");
        let lowered = td_ir::print_op(&ctx, module);
        rows.push((format!("{}.lowered", spec.name), fnv1a(lowered.as_bytes())));
    }
    // One digest over every payload's text, each followed by a separator.
    let mut all = Vec::new();
    for seed in 0..300u64 {
        let mut ctx = full_context();
        let opts = PayloadOptions::new(seed).with_size(16 + (seed % 48) as u32);
        let module = generate_payload(&mut ctx, &opts);
        all.extend_from_slice(td_ir::print_op(&ctx, module).as_bytes());
        all.push(0);
    }
    rows.push(("payloads.0..300".to_owned(), fnv1a(&all)));
    rows
}

#[test]
fn printed_bytes_match_the_pinned_digests() {
    let actual = actual_rows();
    let expected: Vec<(String, u64)> = PINNED
        .iter()
        .map(|&(what, digest)| (what.to_owned(), digest))
        .collect();
    if actual != expected {
        let table: String = actual
            .iter()
            .map(|(what, digest)| format!("    (\"{what}\", {digest:#018x}),\n"))
            .collect();
        panic!("printed bytes moved; the printer now reads:\n{table}");
    }
}
