//! The automatic-differentiation introspection case (§3.4, Fig. 5).
//!
//! AD is meaningful at several abstraction levels, but the generated "add"
//! ops must match the dialect stage the payload is in when AD runs. Instead
//! of asking the user to configure this, [`configure_autodiff_ops`]
//! *introspects the Transform script*: it abstractly interprets the
//! lowering steps before each `transform.autodiff` op (reusing the
//! pre-/post-condition machinery) and infers which dialect's arithmetic
//! will be live at that point.
//!
//! The AD transform itself ([`register_autodiff_op`]) is a forward-mode
//! differentiator over straight-line `add`/`mul` code, parameterized by the
//! op names to emit — a faithful miniature of the Enzyme-style pass the
//! paper references.

use crate::conditions::{conditions_for, OpSet};
use crate::error::{TransformError, TransformResult};
use crate::registry::{TransformOpDef, TransformOpRegistry};
use crate::state::TransformState;
use std::collections::HashMap;
use td_ir::{Attribute, Context, OpBuilder, OpId, ValueId};
use td_support::Diagnostic;

/// An abstraction level AD can run at (Fig. 5's three options).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdStage {
    /// Tensor level: emit `tosa.add`/`tosa.mul`.
    Tosa,
    /// Scalar level: emit `arith.addf`/`arith.mulf`.
    Arith,
    /// LLVM level: emit `llvm.fadd`/`llvm.fmul`.
    Llvm,
}

impl AdStage {
    /// The add/mul op names of this stage.
    pub fn op_names(self) -> (&'static str, &'static str) {
        match self {
            AdStage::Tosa => ("tosa.add", "tosa.mul"),
            AdStage::Arith => ("arith.addf", "arith.mulf"),
            AdStage::Llvm => ("llvm.fadd", "llvm.fmul"),
        }
    }

    /// Infers the stage from an abstract set of live op names.
    pub fn from_live_ops<'a>(ops: impl IntoIterator<Item = &'a str>) -> AdStage {
        let mut saw_arith = false;
        let mut saw_llvm = false;
        for name in ops {
            if name.starts_with("tosa.") {
                return AdStage::Tosa;
            }
            saw_arith |= name.starts_with("arith.");
            saw_llvm |= name.starts_with("llvm.");
        }
        if saw_arith {
            AdStage::Arith
        } else if saw_llvm {
            AdStage::Llvm
        } else {
            AdStage::Arith
        }
    }
}

/// Walks the script under `entry` and, for every `transform.autodiff` op
/// without an explicit `add_kind`, infers and sets it by abstractly
/// interpreting the preceding `apply_registered_pass` steps over
/// `input_ops`. Returns the number of configured ops.
///
/// # Errors
/// Fails when a preceding pass has no declared conditions.
pub fn configure_autodiff_ops(
    ctx: &mut Context,
    entry: OpId,
    input_ops: &[&str],
) -> Result<usize, Diagnostic> {
    let mut live: std::collections::BTreeSet<String> =
        input_ops.iter().map(|s| (*s).to_owned()).collect();
    let mut configured = 0;
    let script_ops = ctx.walk_nested(entry);
    for op in script_ops {
        match ctx.op(op).name.as_str() {
            "transform.apply_registered_pass" => {
                let pass = ctx
                    .op(op)
                    .attr("pass_name")
                    .and_then(|a| a.as_str().map(str::to_owned))
                    .unwrap_or_default();
                let conditions = conditions_for(&pass).ok_or_else(|| {
                    Diagnostic::error(
                        ctx.op(op).location.clone(),
                        format!("no conditions declared for pass '{pass}'"),
                    )
                })?;
                let pre = OpSet::of(conditions.pre.iter());
                live.retain(|d| !pre.matches(d));
                live.extend(conditions.post.iter().cloned());
            }
            "transform.autodiff" => {
                if ctx.op(op).attr("add_kind").is_none() {
                    let stage = AdStage::from_live_ops(live.iter().map(String::as_str));
                    let (add, _) = stage.op_names();
                    ctx.set_attr(op, "add_kind", Attribute::String(add.to_owned()));
                    configured += 1;
                }
            }
            _ => {}
        }
    }
    Ok(configured)
}

/// Registers the `transform.autodiff` op: forward-mode differentiation of
/// the straight-line add/mul body of each targeted function, with respect
/// to its first argument. Derivative ops are emitted before the terminator;
/// the final derivative op is tagged with a `gradient` attribute.
pub fn register_autodiff_op(registry: &mut TransformOpRegistry) {
    registry.register(TransformOpDef::new(
        "transform.autodiff",
        "forward-mode AD at a configurable abstraction level",
        autodiff_handler,
    ));
}

fn autodiff_handler(
    _interp: &mut crate::interp::Interpreter<'_>,
    ctx: &mut Context,
    state: &mut TransformState,
    op: OpId,
) -> TransformResult {
    let location = ctx.op(op).location.clone();
    let handle = ctx.op(op).operands().first().copied().ok_or_else(|| {
        TransformError::definite(
            location.clone(),
            "'transform.autodiff' expects a function handle",
        )
    })?;
    let add_kind = ctx
        .op(op)
        .attr("add_kind")
        .and_then(|a| a.as_str().map(str::to_owned))
        .ok_or_else(|| {
            TransformError::definite(
                location.clone(),
                "'transform.autodiff' needs an 'add_kind' (set explicitly or via introspection)",
            )
        })?;
    let mul_kind = add_kind
        .replace("addf", "mulf")
        .replace("add", "mul")
        .replace("fadd", "fmul");
    // Normalize: tosa.add→tosa.mul, arith.addf→arith.mulf, llvm.fadd→llvm.fmul.
    let mul_kind = match add_kind.as_str() {
        "tosa.add" => "tosa.mul".to_owned(),
        "arith.addf" => "arith.mulf".to_owned(),
        "llvm.fadd" => "llvm.fmul".to_owned(),
        _ => mul_kind,
    };
    let targets = state.ops(handle, &location)?;
    for func in targets {
        differentiate_function(ctx, func, &add_kind, &mul_kind)
            .map_err(TransformError::Silenceable)?;
    }
    if let Some(&result) = ctx.op(op).results().first() {
        let targets = state.ops(handle, &location)?;
        state.set_ops(result, targets);
    }
    Ok(())
}

/// Forward-mode AD over a single-block function whose body consists of
/// add/mul ops (of any one stage) over values derived from the arguments.
/// d(arg0) = 1, d(other args) = 0.
fn differentiate_function(
    ctx: &mut Context,
    func: OpId,
    add_kind: &str,
    mul_kind: &str,
) -> Result<(), Diagnostic> {
    let block = ctx.sole_block(func, 0);
    let args = ctx.block(block).args().to_vec();
    let ops = ctx.block_ops(block).collect::<Vec<_>>();
    let Some(&terminator) = ops.last() else {
        return Err(Diagnostic::error(
            ctx.op(func).location.clone(),
            "cannot differentiate an empty function",
        ));
    };

    let mut duals: HashMap<ValueId, ValueId> = HashMap::new();
    // Seed: one/zero constants of the right kind before the terminator.
    let seed = |ctx: &mut Context, value: f64, ty: td_ir::TypeId, anchor: OpId| -> ValueId {
        let is_tensor = matches!(ctx.type_kind(ty), td_ir::TypeKind::Tensor { .. });
        let mut b = OpBuilder::before(ctx, anchor);
        if is_tensor {
            let c = b
                .op("tosa.const")
                .attr("splat", Attribute::float(value))
                .results(vec![ty])
                .build();
            b.ctx().op(c).results()[0]
        } else if add_kind.starts_with("llvm.") {
            let c = b
                .op("llvm.mlir.constant")
                .attr("value", Attribute::float(value))
                .results(vec![ty])
                .build();
            b.ctx().op(c).results()[0]
        } else {
            b.const_float(value, ty)
        }
    };
    for (i, &arg) in args.iter().enumerate() {
        let ty = ctx.value_type(arg);
        let value = if i == 0 { 1.0 } else { 0.0 };
        let dual = seed(ctx, value, ty, terminator);
        duals.insert(arg, dual);
    }

    // Differentiate each add/mul in order.
    let mut last_dual: Option<ValueId> = None;
    let add_sym = add_kind.to_owned();
    let mul_sym = mul_kind.to_owned();
    for op in ops {
        let name = ctx.op(op).name.as_str().to_owned();
        if name != add_sym && name != mul_sym {
            continue;
        }
        let lhs = ctx.op(op).operands()[0];
        let rhs = ctx.op(op).operands()[1];
        let result = ctx.op(op).results()[0];
        let ty = ctx.value_type(result);
        let zero_like = |_ctx: &mut Context, duals: &HashMap<ValueId, ValueId>, v: ValueId| {
            duals.get(&v).copied()
        };
        let (Some(dl), Some(dr)) = (zero_like(ctx, &duals, lhs), zero_like(ctx, &duals, rhs))
        else {
            // Operand derivative unknown (e.g. a constant): treat as zero.
            let dl = duals.get(&lhs).copied();
            let dr = duals.get(&rhs).copied();
            let dual = match (dl, dr) {
                (Some(d), None) | (None, Some(d)) if name == add_sym => d,
                (Some(d), None) => {
                    // d(x * c) = dx * c.
                    let mut b = OpBuilder::before(ctx, terminator);
                    let m = b.op(&mul_sym).operands([d, rhs]).results(vec![ty]).build();
                    b.ctx().op(m).results()[0]
                }
                (None, Some(d)) => {
                    let mut b = OpBuilder::before(ctx, terminator);
                    let m = b.op(&mul_sym).operands([lhs, d]).results(vec![ty]).build();
                    b.ctx().op(m).results()[0]
                }
                _ => seed(ctx, 0.0, ty, terminator),
            };
            duals.insert(result, dual);
            last_dual = Some(dual);
            continue;
        };
        let dual = if name == add_sym {
            let mut b = OpBuilder::before(ctx, terminator);
            let s = b.op(&add_sym).operands([dl, dr]).results(vec![ty]).build();
            b.ctx().op(s).results()[0]
        } else {
            // Product rule: dl*rhs + lhs*dr.
            let mut b = OpBuilder::before(ctx, terminator);
            let t1 = b.op(&mul_sym).operands([dl, rhs]).results(vec![ty]).build();
            let t1 = b.ctx().op(t1).results()[0];
            let t2 = b.op(&mul_sym).operands([lhs, dr]).results(vec![ty]).build();
            let t2 = b.ctx().op(t2).results()[0];
            let s = b.op(&add_sym).operands([t1, t2]).results(vec![ty]).build();
            b.ctx().op(s).results()[0]
        };
        duals.insert(result, dual);
        last_dual = Some(dual);
    }

    if let Some(dual) = last_dual {
        if let Some(def) = ctx.defining_op(dual) {
            ctx.set_attr(def, "gradient", Attribute::Unit);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_inference() {
        assert_eq!(
            AdStage::from_live_ops(["tosa.add", "func.func"]),
            AdStage::Tosa
        );
        assert_eq!(
            AdStage::from_live_ops(["arith.addf", "scf.for"]),
            AdStage::Arith
        );
        assert_eq!(AdStage::from_live_ops(["llvm.fadd"]), AdStage::Llvm);
        assert_eq!(AdStage::from_live_ops(["func.func"]), AdStage::Arith);
        // Mixed: the highest level wins (tosa before arith).
        assert_eq!(
            AdStage::from_live_ops(["arith.addf", "tosa.add"]),
            AdStage::Tosa
        );
    }

    #[test]
    fn op_names_per_stage() {
        assert_eq!(AdStage::Tosa.op_names(), ("tosa.add", "tosa.mul"));
        assert_eq!(AdStage::Arith.op_names(), ("arith.addf", "arith.mulf"));
        assert_eq!(AdStage::Llvm.op_names(), ("llvm.fadd", "llvm.fmul"));
    }
}
