//! `models_direct`: the five Table 1 models, text in → text out, on one
//! thread through the library path. The harness is the direct caller of
//! every layer here ([`Replayer::direct`]), so in the traced pass its spans
//! wrap the real calls.

use crate::gen::{self, ModelJob};
use crate::reference;
use crate::replay::Replayer;
use crate::stats;
use crate::workload::{timed_segment, Round, Workload};
use td_support::rng::{derive_seed, Xoshiro256pp};

/// The workload after set-up.
pub struct ModelsDirect {
    /// The five models with their pass-manager references, in the seed's
    /// order.
    pub models: Vec<ModelJob>,
    /// The TOSA pipeline as a transform script.
    pub script: String,
    /// Runs the jobs; records spans while its `tracing` is on.
    pub replayer: Replayer,
}

impl ModelsDirect {
    /// Builds the model texts, the script text and the references. The
    /// models are fixed (they stand in for five real networks); the seed
    /// orders them within a round.
    pub fn setup(seed: u64) -> ModelsDirect {
        let mut models = gen::table1_models();
        let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(seed, 0x7ab1e1));
        for i in (1..models.len()).rev() {
            models.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut replayer = Replayer::new(1);
        replayer.tracing = false;
        ModelsDirect {
            models,
            script: gen::tosa_pipeline_script(),
            replayer,
        }
    }
}

impl Workload for ModelsDirect {
    fn digest(&self) -> u64 {
        // By name, so the seed's order does not matter.
        let mut models: Vec<&ModelJob> = self.models.iter().collect();
        models.sort_by_key(|m| m.name);
        reference::fold_digests(
            models
                .iter()
                .map(|m| reference::digest(&[m.name, &m.payload, &m.expected])),
        )
    }

    fn round(&mut self) -> Round {
        let me = std::process::id();
        let mut round = Round::default();
        for model in &self.models {
            // A job is a segment of its own: it runs alone on one thread.
            let (segment, (text, stats)) =
                timed_segment(me, || self.replayer.direct(&self.script, &model.payload));
            round.segments.push(segment);
            round.latencies_ns.push(segment.wall_ns);
            // Byte for byte against the pass-manager route.
            round.failed += usize::from(text != model.expected);
            round.output_bytes += text.len() as u64;
            round.transforms += stats.transforms_executed as u64;
            round.undo_entries += stats.undo_entries as u64;
            round.rolled_back += stats.rolled_back as u64;
        }
        round.peak_rss_kb = stats::peak_rss_kb(me);
        round.signature = vec![
            round.jobs() as u64,
            round.output_bytes,
            round.transforms,
            round.undo_entries,
            round.rolled_back,
        ];
        round
    }
}
