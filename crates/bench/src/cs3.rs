//! Case Study 3 harness: finding a counter-productive optimization
//! pattern by binary search over the pattern set, driven entirely from
//! Transform scripts (no compiler rebuild).
//!
//! The payload is an LLM-like tensor program whose blocks end in
//! reshape-isolated full reductions; the pattern catalogue
//! (`td_machine::tensor_patterns`) contains one pattern that is locally
//! work-reducing but globally counter-productive under the fusion
//! back-end. Each search iteration re-runs a Transform script with a
//! subset of patterns enabled — a few milliseconds here, versus the
//! paper's ~10 minutes per compiler rebuild.

use std::time::Instant;
use td_ir::{Attribute, Context, OpId, ValueId};
use td_machine::fusion::{estimate_cost, FusionCostModel};
use td_machine::register_tensor_patterns;
use td_support::{Location, Symbol};
use td_transform::{InterpEnv, Interpreter, NamedPatternRegistry};

/// Builds the Case Study 3 payload: `blocks` transformer-ish blocks, each
/// a large elementwise chain whose auxiliary output goes through
/// `reshape → reduce_sum` (the pattern the culprit folds), plus small
/// tensors with benign folding opportunities.
pub fn build_payload(ctx: &mut Context, blocks: usize) -> OpId {
    let module = ctx.create_module(Location::name("cs3-payload"));
    let f32t = ctx.f32_type();
    let big = td_dialects::tosa::tensor_type(ctx, &[64, 256], f32t);
    let flat = td_dialects::tosa::tensor_type(ctx, &[16384], f32t);
    let scalar = td_dialects::tosa::tensor_type(ctx, &[1], f32t);
    let small = td_dialects::tosa::tensor_type(ctx, &[4, 4], f32t);
    let (_func, entry) = td_dialects::func::build_func(ctx, module, "main", &[big], &[scalar]);
    let x0 = ctx.block(entry).args()[0];

    let emit = |ctx: &mut Context,
                name: &str,
                operands: Vec<ValueId>,
                ty,
                attrs: Vec<(Symbol, Attribute)>| {
        let op = ctx.create_op(Location::name(name), name, operands, [ty], attrs, 0);
        ctx.append_op(entry, op);
        ctx.op(op).results()[0]
    };

    let mut x = x0;
    let mut aux: Option<ValueId> = None;
    for _ in 0..blocks {
        // Heavy anchor.
        x = emit(ctx, "tosa.matmul", vec![x, x0], big, vec![]);
        // Large elementwise chain (the producer cluster).
        for _ in 0..24 {
            x = emit(ctx, "tosa.tanh", vec![x], big, vec![]);
        }
        // Auxiliary statistic: reshape-isolated full reduction.
        let reshaped = emit(ctx, "tosa.reshape", vec![x], flat, vec![]);
        let reduced = emit(
            ctx,
            "tosa.reduce_sum",
            vec![reshaped],
            scalar,
            vec![(Symbol::new("kind"), Attribute::String("sum".into()))],
        );
        aux = Some(match aux {
            None => reduced,
            Some(acc) => emit(ctx, "tosa.add", vec![acc, reduced], scalar, vec![]),
        });
        // Benign fold opportunities on small tensors.
        let zero = emit(
            ctx,
            "tosa.const",
            vec![],
            small,
            vec![(Symbol::new("splat"), Attribute::float(0.0))],
        );
        let one = emit(
            ctx,
            "tosa.const",
            vec![],
            small,
            vec![(Symbol::new("splat"), Attribute::float(1.0))],
        );
        let noise = emit(
            ctx,
            "tosa.const",
            vec![],
            small,
            vec![(Symbol::new("splat"), Attribute::float(0.5))],
        );
        let a = emit(ctx, "tosa.add", vec![noise, zero], small, vec![]);
        let b = emit(ctx, "tosa.mul", vec![a, one], small, vec![]);
        let small_reduced = emit(
            ctx,
            "tosa.reduce_sum",
            vec![b],
            scalar,
            vec![(Symbol::new("kind"), Attribute::String("sum".into()))],
        );
        let acc = aux.expect("set above");
        aux = Some(emit(
            ctx,
            "tosa.add",
            vec![acc, small_reduced],
            scalar,
            vec![],
        ));
    }
    let result = aux.expect("at least one block");
    let ret = ctx.create_op(
        Location::name("return"),
        "func.return",
        [result],
        vec![],
        vec![],
        0,
    );
    ctx.append_op(entry, ret);
    module
}

/// Builds the Transform script enabling exactly `patterns` (by name) on the
/// first function.
fn pattern_script(ctx: &mut Context, patterns: &[&str]) -> OpId {
    let mut body = String::new();
    for name in patterns {
        body.push_str(&format!(
            "      \"transform.pattern.{name}\"() : () -> ()\n"
        ));
    }
    let src = format!(
        r#"module {{
  transform.named_sequence @main(%root: !transform.any_op) {{
    %func = "transform.match_op"(%root) {{name = "func.func", select = "first"}} : (!transform.any_op) -> !transform.any_op
    "transform.apply_patterns"(%func) ({{
{body}      "transform.yield"() : () -> ()
    }}) : (!transform.any_op) -> ()
  }}
}}"#
    );
    td_ir::parse_module(ctx, &src).expect("pattern script parses")
}

/// Applies the pattern subset to a fresh payload and returns the fusion
/// back-end's estimated cost together with the compile (script
/// application) time in seconds.
pub fn cost_with_patterns(blocks: usize, patterns: &[&str]) -> (f64, f64) {
    let mut ctx = crate::full_context();
    let module = build_payload(&mut ctx, blocks);
    let script = pattern_script(&mut ctx, patterns);
    let entry = ctx.lookup_symbol(script, "main").expect("entry");
    let mut registry = NamedPatternRegistry::new();
    register_tensor_patterns(&mut registry);
    let mut env = InterpEnv::standard();
    env.patterns = Some(&registry);
    let start = Instant::now();
    Interpreter::new(&env)
        .apply(&mut ctx, entry, module)
        .expect("patterns apply");
    td_ir::rewrite::run_dce(&mut ctx, module);
    let compile_seconds = start.elapsed().as_secs_f64();
    let report = estimate_cost(&ctx, module, FusionCostModel::default());
    (report.total_cost, compile_seconds)
}

/// One step of the binary search.
#[derive(Clone, Debug)]
pub struct SearchStep {
    /// The subset tested.
    pub tested: Vec<String>,
    /// Its cost.
    pub cost: f64,
    /// Whether the regression was present.
    pub regression: bool,
    /// Script-application time for this iteration, seconds.
    pub compile_seconds: f64,
}

/// Outcome of the Case Study 3 binary search.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Cost with no extra patterns (the healthy baseline).
    pub baseline_cost: f64,
    /// Cost with the full pattern set (the observed regression).
    pub full_cost: f64,
    /// The pattern identified as counter-productive.
    pub culprit: String,
    /// All bisection steps.
    pub steps: Vec<SearchStep>,
}

/// Runs the full Case Study 3 story: observe the regression with all
/// patterns enabled, then bisect the pattern list (re-running the Transform
/// script each time) until a single culprit remains.
pub fn binary_search_culprit(blocks: usize) -> SearchOutcome {
    let all: Vec<&str> = td_machine::pattern_names();
    let (baseline_cost, _) = cost_with_patterns(blocks, &[]);
    let (full_cost, _) = cost_with_patterns(blocks, &all);
    let mut candidates: Vec<&str> = all.clone();
    let mut steps = Vec::new();
    while candidates.len() > 1 {
        let half = &candidates[..candidates.len() / 2];
        let (cost, compile_seconds) = cost_with_patterns(blocks, half);
        let regression = cost > baseline_cost * 1.001;
        steps.push(SearchStep {
            tested: half.iter().map(|s| (*s).to_owned()).collect(),
            cost,
            regression,
            compile_seconds,
        });
        candidates = if regression {
            half.to_vec()
        } else {
            candidates[candidates.len() / 2..].to_vec()
        };
    }
    SearchOutcome {
        baseline_cost,
        full_cost,
        culprit: candidates[0].to_owned(),
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_ir::TypeKind;

    /// Whether the payload's tensor types are all static.
    fn payload_is_static(ctx: &Context, module: OpId) -> bool {
        ctx.walk_nested(module).into_iter().all(|op| {
            ctx.op(op).results().iter().all(|&r| {
                !matches!(ctx.type_kind(ctx.value_type(r)), TypeKind::Tensor { .. })
                    || td_dialects::tosa::static_shape(ctx, ctx.value_type(r)).is_some()
            })
        })
    }

    #[test]
    fn payload_builds_and_verifies() {
        let mut ctx = crate::full_context();
        let module = build_payload(&mut ctx, 2);
        assert!(td_ir::verify::verify(&ctx, module).is_ok());
        assert!(payload_is_static(&ctx, module));
    }

    #[test]
    fn full_pattern_set_regresses() {
        let all = td_machine::pattern_names();
        let (baseline, _) = cost_with_patterns(2, &[]);
        let (full, _) = cost_with_patterns(2, &all);
        assert!(
            full > baseline,
            "the catalogue should be net counter-productive on this payload: \
             {full} vs {baseline}"
        );
    }

    #[test]
    fn catalogue_without_culprit_improves() {
        let without: Vec<&str> = td_machine::pattern_names()
            .into_iter()
            .filter(|&n| n != td_machine::CULPRIT)
            .collect();
        let (baseline, _) = cost_with_patterns(2, &[]);
        let (fixed, _) = cost_with_patterns(2, &without);
        assert!(
            fixed <= baseline,
            "without the culprit, the patterns should help (or be neutral): \
             {fixed} vs {baseline}"
        );
    }

    #[test]
    fn binary_search_finds_the_culprit() {
        let outcome = binary_search_culprit(2);
        assert_eq!(outcome.culprit, td_machine::CULPRIT);
        // ~log2(25) iterations.
        assert!(
            outcome.steps.len() <= 6,
            "took {} steps",
            outcome.steps.len()
        );
        assert!(outcome.full_cost > outcome.baseline_cost);
    }
}
