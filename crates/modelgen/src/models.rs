//! Synthetic whole-model TOSA graphs for the Table 1 compile-time
//! experiment.
//!
//! The paper measures the transform-interpreter overhead on five real ML
//! models imported from TFLite (Squeezenet, GPT-2, MobileBERT, Whisper
//! decoder, BERT). Real flatbuffer imports are out of scope here, so this
//! crate builds *synthetic* TOSA graphs with the **same operation counts**
//! as Table 1 (126 / 2861 / 4134 / 847 / 1182) and a realistic op mix
//! (convolution blocks for the CNN, attention blocks for the
//! transformers). Since the measured quantity is compile time as a
//! function of graph size and pass structure, matching op counts and op
//! kinds preserves the experiment's behaviour (see DESIGN.md,
//! "Substitutions").

use td_dialects::func::build_func;
use td_dialects::tosa::tensor_type;
use td_ir::{Attribute, BlockId, Context, OpId, TypeId, ValueId};
use td_support::{Location, Symbol};

/// Kind of synthetic architecture to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// Convolutional network (Squeezenet-like fire modules).
    Cnn,
    /// Decoder-style transformer (GPT-2 / Whisper-decoder-like).
    TransformerDecoder,
    /// Encoder-style transformer (BERT / MobileBERT-like).
    TransformerEncoder,
}

/// Description of one synthetic model.
#[derive(Clone, Debug)]
pub struct ModelSpec {
    /// Human-readable name (reported in the benchmark tables).
    pub name: &'static str,
    /// Architecture family.
    pub kind: ModelKind,
    /// Exact number of operations the generated function body must contain
    /// (excluding the terminator), matching Table 1's "# Ops" column.
    pub target_ops: usize,
    /// Hidden dimension (kept small so pipelines run quickly).
    pub hidden: i64,
}

/// The five models of Table 1 with their paper-reported op counts.
pub fn paper_models() -> Vec<ModelSpec> {
    vec![
        ModelSpec {
            name: "Squeezenet",
            kind: ModelKind::Cnn,
            target_ops: 126,
            hidden: 8,
        },
        ModelSpec {
            name: "GPT-2",
            kind: ModelKind::TransformerDecoder,
            target_ops: 2861,
            hidden: 16,
        },
        ModelSpec {
            name: "Mobile BERT",
            kind: ModelKind::TransformerEncoder,
            target_ops: 4134,
            hidden: 16,
        },
        ModelSpec {
            name: "Whisper (decoder only)",
            kind: ModelKind::TransformerDecoder,
            target_ops: 847,
            hidden: 16,
        },
        ModelSpec {
            name: "BERT-base-uncased",
            kind: ModelKind::TransformerEncoder,
            target_ops: 1182,
            hidden: 16,
        },
    ]
}

/// Counts the ops in the model function's body, excluding the terminator —
/// the quantity Table 1 reports.
pub fn count_model_ops(ctx: &Context, module: OpId) -> usize {
    let Some(func) = ctx.lookup_symbol(module, "main") else {
        return 0;
    };
    ctx.walk_nested(func)
        .into_iter()
        .filter(|&op| ctx.op(op).name.as_str() != "func.return")
        .count()
}

struct Builder<'c> {
    ctx: &'c mut Context,
    block: BlockId,
    f32: TypeId,
}

impl Builder<'_> {
    fn tensor(&mut self, shape: &[i64]) -> TypeId {
        tensor_type(self.ctx, shape, self.f32)
    }

    fn op(&mut self, name: &str, operands: Vec<ValueId>, result: TypeId) -> ValueId {
        self.op_with_attrs(name, operands, result, vec![])
    }

    fn op_with_attrs(
        &mut self,
        name: &str,
        operands: Vec<ValueId>,
        result: TypeId,
        attrs: Vec<(Symbol, Attribute)>,
    ) -> ValueId {
        let op = self
            .ctx
            .create_op(Location::name(name), name, operands, [result], attrs, 0);
        self.ctx.append_op(self.block, op);
        self.ctx.op(op).results()[0]
    }

    fn constant(&mut self, shape: &[i64], splat: f64) -> ValueId {
        let ty = self.tensor(shape);
        self.op_with_attrs(
            "tosa.const",
            vec![],
            ty,
            vec![(Symbol::new("splat"), Attribute::float(splat))],
        )
    }

    /// Squeezenet-style fire module on an NHWC feature map (10 ops).
    fn fire_module(&mut self, x: ValueId, shape: &[i64; 4]) -> ValueId {
        let c = shape[3];
        let squeeze_w = self.constant(&[1, 1, c, c], 0.1);
        let t = self.tensor(&shape[..]);
        let squeezed = self.op("tosa.conv2d", vec![x, squeeze_w], t);
        let relu1 = self.op("tosa.clamp", vec![squeezed], t);
        let expand1_w = self.constant(&[1, 1, c, c], 0.1);
        let e1 = self.op("tosa.conv2d", vec![relu1, expand1_w], t);
        let r1 = self.op("tosa.clamp", vec![e1], t);
        let expand3_w = self.constant(&[3, 3, c, c], 0.1);
        let e3 = self.op("tosa.conv2d", vec![r1, expand3_w], t);
        let r3 = self.op("tosa.clamp", vec![e3], t);
        self.op("tosa.add", vec![r1, r3], t)
    }

    /// Transformer attention + MLP block over `[seq, hidden]`
    /// (30 ops causal, 29 ops bidirectional).
    fn transformer_block(&mut self, x: ValueId, seq: i64, hidden: i64, causal: bool) -> ValueId {
        let t = self.tensor(&[seq, hidden]);
        let scores_ty = self.tensor(&[seq, seq]);
        // Layer norm (approximate): mean, sub, scale.
        let ones = self.constant(&[seq, 1], 1.0 / hidden as f64);
        let reduced_ty = self.tensor(&[seq, 1]);
        let sum = self.op("tosa.reduce_sum", vec![x], reduced_ty);
        let mean = self.op("tosa.mul", vec![sum, ones], reduced_ty);
        let mean_b = self.op("tosa.reshape", vec![mean], t);
        let centered = self.op("tosa.sub", vec![x, mean_b], t);
        // Q, K, V projections.
        let wq = self.constant(&[hidden, hidden], 0.02);
        let wk = self.constant(&[hidden, hidden], 0.02);
        let wv = self.constant(&[hidden, hidden], 0.02);
        let q = self.op("tosa.matmul", vec![centered, wq], t);
        let k = self.op("tosa.matmul", vec![centered, wk], t);
        let v = self.op("tosa.matmul", vec![centered, wv], t);
        // Attention scores with optional causal mask.
        let kt_ty = self.tensor(&[hidden, seq]);
        let kt = self.op("tosa.transpose", vec![k], kt_ty);
        let mut scores = self.op("tosa.matmul", vec![q, kt], scores_ty);
        let scale = self.constant(&[seq, seq], 1.0 / (hidden as f64).sqrt());
        scores = self.op("tosa.mul", vec![scores, scale], scores_ty);
        if causal {
            let mask = self.constant(&[seq, seq], 0.0);
            scores = self.op("tosa.add", vec![scores, mask], scores_ty);
        }
        // Softmax: exp / sum(exp).
        let e = self.op("tosa.exp", vec![scores], scores_ty);
        let row_ty = self.tensor(&[seq, 1]);
        let denom = self.op("tosa.reduce_sum", vec![e], row_ty);
        let inv = self.op("tosa.reciprocal", vec![denom], row_ty);
        let inv_b = self.op("tosa.reshape", vec![inv], scores_ty);
        let probs = self.op("tosa.mul", vec![e, inv_b], scores_ty);
        let attended = self.op("tosa.matmul", vec![probs, v], t);
        // Output projection + residual.
        let wo = self.constant(&[hidden, hidden], 0.02);
        let projected = self.op("tosa.matmul", vec![attended, wo], t);
        let res1 = self.op("tosa.add", vec![x, projected], t);
        // MLP: up, activation, down, residual.
        let up_ty = self.tensor(&[seq, hidden * 2]);
        let w_up = self.constant(&[hidden, hidden * 2], 0.02);
        let up = self.op("tosa.matmul", vec![res1, w_up], up_ty);
        let act = self.op("tosa.tanh", vec![up], up_ty);
        let w_down = self.constant(&[hidden * 2, hidden], 0.02);
        let down = self.op("tosa.matmul", vec![act, w_down], t);
        self.op("tosa.add", vec![res1, down], t)
    }

    /// One-op unary padding step, used to hit exact op counts.
    fn pad_op(&mut self, x: ValueId) -> ValueId {
        let ty = self.ctx.value_type(x);
        self.op("tosa.sigmoid", vec![x], ty)
    }
}

/// Builds a synthetic model as `func.func @main` inside a fresh module.
/// The function body contains exactly `spec.target_ops` operations.
pub fn build_model(ctx: &mut Context, spec: &ModelSpec) -> OpId {
    let module = ctx.create_module(Location::name(spec.name));
    let f32 = ctx.f32_type();
    let shape: Vec<i64> = match spec.kind {
        ModelKind::Cnn => vec![1, 8, 8, spec.hidden],
        _ => vec![8, spec.hidden],
    };
    let input_ty = tensor_type(ctx, &shape, f32);
    let (_func, entry) = build_func(ctx, module, "main", &[input_ty], &[input_ty]);
    let input = ctx.block(entry).args()[0];
    let mut b = Builder {
        ctx,
        block: entry,
        f32,
    };

    let mut x = input;
    loop {
        let emitted = b.ctx.block(entry).len();
        let remaining = spec.target_ops.saturating_sub(emitted);
        let block_cost = match spec.kind {
            ModelKind::Cnn => 10,
            ModelKind::TransformerDecoder => 30,
            ModelKind::TransformerEncoder => 29,
        };
        if remaining < block_cost {
            break;
        }
        x = match spec.kind {
            ModelKind::Cnn => {
                let s = [shape[0], shape[1], shape[2], shape[3]];
                b.fire_module(x, &s)
            }
            ModelKind::TransformerDecoder => b.transformer_block(x, shape[0], shape[1], true),
            ModelKind::TransformerEncoder => b.transformer_block(x, shape[0], shape[1], false),
        };
    }
    // Pad to the exact count with unary ops.
    while b.ctx.block(entry).len() < spec.target_ops {
        x = b.pad_op(x);
    }
    let ret = b.ctx.create_op(
        Location::name("return"),
        "func.return",
        [x],
        vec![],
        vec![],
        0,
    );
    b.ctx.append_op(entry, ret);
    module
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_ir::verify::verify;

    fn fresh_ctx() -> Context {
        let mut ctx = Context::new();
        td_dialects::register_all_dialects(&mut ctx);
        ctx
    }

    #[test]
    fn paper_models_have_exact_op_counts() {
        for spec in paper_models() {
            let mut ctx = fresh_ctx();
            let module = build_model(&mut ctx, &spec);
            assert_eq!(
                count_model_ops(&ctx, module),
                spec.target_ops,
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn generated_models_verify() {
        for spec in paper_models() {
            let mut ctx = fresh_ctx();
            let module = build_model(&mut ctx, &spec);
            assert!(
                verify(&ctx, module).is_ok(),
                "{}: {:?}",
                spec.name,
                verify(&ctx, module)
            );
        }
    }

    #[test]
    fn models_contain_expected_op_mix() {
        let mut ctx = fresh_ctx();
        let models = paper_models();
        let module = build_model(&mut ctx, &models[1]); // GPT-2
        let names: Vec<&str> = ctx
            .walk_nested(module)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        for expected in [
            "tosa.matmul",
            "tosa.exp",
            "tosa.reduce_sum",
            "tosa.transpose",
            "tosa.add",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        let mut ctx2 = fresh_ctx();
        let cnn = build_model(&mut ctx2, &models[0]);
        let names2: Vec<&str> = ctx2
            .walk_nested(cnn)
            .iter()
            .map(|&o| ctx2.op(o).name.as_str())
            .collect();
        assert!(names2.contains(&"tosa.conv2d"));
    }

    #[test]
    fn cnn_model_runs_through_tosa_pipeline() {
        let mut ctx = fresh_ctx();
        let models = paper_models();
        let module = build_model(&mut ctx, &models[0]); // Squeezenet (smallest)
        let mut registry = td_ir::PassRegistry::new();
        td_dialects::passes::register_all_passes(&mut registry);
        let mut pm = registry
            .parse_pipeline(td_dialects::passes::TOSA_PIPELINE)
            .unwrap();
        pm.run(&mut ctx, module)
            .unwrap_or_else(|e| panic!("pipeline failed: {e}"));
        let names: Vec<&str> = ctx
            .walk_nested(module)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(
            names
                .iter()
                .all(|n| !n.starts_with("tosa.") && !n.starts_with("linalg.")),
            "pipeline must lower everything: {:?}",
            names
                .iter()
                .filter(|n| n.starts_with("tosa.") || n.starts_with("linalg."))
                .collect::<Vec<_>>()
        );
        assert!(names.contains(&"scf.for"));
        assert!(verify(&ctx, module).is_ok());
    }
}
