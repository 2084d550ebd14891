//! The TOSA lowering passes of the Table 1 compile-time pipeline:
//! `tosa-optional-decompositions`, `tosa-infer-shapes`,
//! `tosa-make-broadcastable`, `tosa-to-linalg-named`, and `tosa-to-linalg`.
//!
//! Together they rewrite a whole-model TOSA graph into `linalg` named ops
//! and `tensor` plumbing ops, mirroring the structure (and, importantly for
//! the experiment, the per-op work) of MLIR's `tosa-to-linalg` pipeline.

use crate::tosa::static_shape;
use td_ir::{Attribute, Context, OpId, OperandList, Pass, TypeId, ValueId};
use td_support::{Diagnostic, Symbol};

fn err(ctx: &Context, op: OpId, message: &str) -> Diagnostic {
    Diagnostic::error(
        ctx.op(op).location.clone(),
        format!("'{}' op {message}", ctx.op(op).name),
    )
}

/// Creates `op_name(operands) : result_ty` right before `anchor`.
fn create_before(
    ctx: &mut Context,
    anchor: OpId,
    op_name: &str,
    operands: impl AsRef<[ValueId]>,
    result_types: impl AsRef<[TypeId]>,
    attributes: Vec<(Symbol, Attribute)>,
) -> OpId {
    let op = ctx.create_op(
        ctx.op(anchor).location.clone(),
        op_name,
        operands,
        result_types,
        attributes,
        0,
    );
    ctx.insert_op_before(anchor, op);
    op
}

fn replace_with(ctx: &mut Context, old: OpId, new: OpId) {
    for index in 0..ctx.op(old).results().len() {
        let (o, n) = (ctx.op(old).results()[index], ctx.op(new).results()[index]);
        ctx.replace_all_uses(o, n);
    }
    ctx.erase_op(old);
}

/// `tosa-optional-decompositions`: decomposes composite TOSA ops into
/// primitive ones (`fully_connected` → `matmul` + `add`,
/// `depthwise_conv2d` → `conv2d` with a marker).
#[derive(Debug, Default)]
pub struct TosaOptionalDecompositionsPass;

impl Pass for TosaOptionalDecompositionsPass {
    fn name(&self) -> &str {
        "tosa-optional-decompositions"
    }

    fn run(&self, ctx: &mut Context, target: OpId) -> Result<(), Diagnostic> {
        let ops: Vec<OpId> = ctx
            .walk_nested(target)
            .into_iter()
            .filter(|&op| {
                matches!(
                    ctx.op(op).name.as_str(),
                    "tosa.fully_connected" | "tosa.depthwise_conv2d"
                )
            })
            .collect();
        for op in ops {
            match ctx.op(op).name.as_str() {
                "tosa.fully_connected" => {
                    let operands = OperandList::from_slice(ctx.op(op).operands());
                    if operands.len() < 2 {
                        return Err(err(ctx, op, "expects at least (input, weights)"));
                    }
                    let result_ty = ctx.value_type(ctx.op(op).results()[0]);
                    let matmul = create_before(
                        ctx,
                        op,
                        "tosa.matmul",
                        vec![operands[0], operands[1]],
                        vec![result_ty],
                        vec![],
                    );
                    let mut value = ctx.op(matmul).results()[0];
                    if let Some(&bias) = operands.get(2) {
                        let add = create_before(
                            ctx,
                            op,
                            "tosa.add",
                            vec![value, bias],
                            vec![result_ty],
                            vec![],
                        );
                        value = ctx.op(add).results()[0];
                    }
                    let old = ctx.op(op).results()[0];
                    ctx.replace_all_uses(old, value);
                    ctx.erase_op(op);
                }
                "tosa.depthwise_conv2d" => {
                    ctx.set_op_name(op, "tosa.conv2d");
                    ctx.set_attr(op, "depthwise", Attribute::Unit);
                }
                _ => unreachable!(),
            }
        }
        Ok(())
    }
}

/// `tosa-infer-shapes`: propagates static operand shapes into dynamic
/// result types of elementwise ops.
#[derive(Debug, Default)]
pub struct TosaInferShapesPass;

impl Pass for TosaInferShapesPass {
    fn name(&self) -> &str {
        "tosa-infer-shapes"
    }

    fn run(&self, ctx: &mut Context, target: OpId) -> Result<(), Diagnostic> {
        for op in ctx.walk_nested(target) {
            if !ctx.op(op).name.as_str().starts_with("tosa.") {
                continue;
            }
            if !matches!(
                ctx.op(op).name.as_str(),
                "tosa.add"
                    | "tosa.sub"
                    | "tosa.mul"
                    | "tosa.clamp"
                    | "tosa.sigmoid"
                    | "tosa.tanh"
                    | "tosa.exp"
                    | "tosa.cast"
                    | "tosa.rescale"
            ) {
                continue;
            }
            let Some(&first) = ctx.op(op).operands().first() else {
                continue;
            };
            let operand_ty = ctx.value_type(first);
            if static_shape(ctx, operand_ty).is_none() {
                continue;
            }
            let result = ctx.op(op).results()[0];
            if static_shape(ctx, ctx.value_type(result)).is_none() {
                ctx.set_value_type(result, operand_ty);
            }
        }
        Ok(())
    }
}

/// `tosa-make-broadcastable`: reshapes mismatched elementwise operands so
/// both sides have the same (static) shape.
#[derive(Debug, Default)]
pub struct TosaMakeBroadcastablePass;

impl Pass for TosaMakeBroadcastablePass {
    fn name(&self) -> &str {
        "tosa-make-broadcastable"
    }

    fn run(&self, ctx: &mut Context, target: OpId) -> Result<(), Diagnostic> {
        let ops: Vec<OpId> = ctx
            .walk_nested(target)
            .into_iter()
            .filter(|&op| {
                matches!(
                    ctx.op(op).name.as_str(),
                    "tosa.add" | "tosa.sub" | "tosa.mul"
                )
            })
            .collect();
        for op in ops {
            let operands = OperandList::from_slice(ctx.op(op).operands());
            if operands.len() != 2 {
                continue;
            }
            let lhs_ty = ctx.value_type(operands[0]);
            let rhs_ty = ctx.value_type(operands[1]);
            if lhs_ty == rhs_ty {
                continue;
            }
            // Reshape the rhs to the lhs type (toy broadcast semantics).
            let reshape = create_before(
                ctx,
                op,
                "tosa.reshape",
                vec![operands[1]],
                vec![lhs_ty],
                vec![],
            );
            let new_value = ctx.op(reshape).results()[0];
            ctx.set_operand(op, 1, new_value);
        }
        Ok(())
    }
}

/// Creates a `tensor.empty` destination of type `ty` before `anchor`.
fn empty_dest(ctx: &mut Context, anchor: OpId, ty: TypeId) -> ValueId {
    let empty = create_before(ctx, anchor, "tensor.empty", vec![], vec![ty], vec![]);
    ctx.op(empty).results()[0]
}

/// `tosa-to-linalg-named`: lowers contraction-like TOSA ops to linalg named
/// ops with explicit destination tensors.
#[derive(Debug, Default)]
pub struct TosaToLinalgNamedPass;

impl Pass for TosaToLinalgNamedPass {
    fn name(&self) -> &str {
        "tosa-to-linalg-named"
    }

    fn run(&self, ctx: &mut Context, target: OpId) -> Result<(), Diagnostic> {
        let ops: Vec<OpId> = ctx
            .walk_nested(target)
            .into_iter()
            .filter(|&op| {
                matches!(
                    ctx.op(op).name.as_str(),
                    "tosa.matmul" | "tosa.conv2d" | "tosa.avg_pool2d" | "tosa.max_pool2d"
                )
            })
            .collect();
        for op in ops {
            let name = ctx.op(op).name.as_str();
            let target_name = match name {
                "tosa.matmul" => "linalg.matmul",
                "tosa.conv2d" => "linalg.conv2d",
                "tosa.avg_pool2d" => "linalg.pooling_avg",
                "tosa.max_pool2d" => "linalg.pooling_max",
                _ => unreachable!(),
            };
            let operands = OperandList::from_slice(ctx.op(op).operands());
            let result_ty = ctx.value_type(ctx.op(op).results()[0]);
            let dest = empty_dest(ctx, op, result_ty);
            let mut new_operands = operands.clone();
            let bias = if target_name == "linalg.conv2d" && operands.len() == 3 {
                let b = new_operands.pop();
                b
            } else {
                None
            };
            new_operands.push(dest);
            let attributes = ctx.op(op).attributes().to_vec();
            let new_op = create_before(
                ctx,
                op,
                target_name,
                new_operands,
                vec![result_ty],
                attributes,
            );
            let mut value = ctx.op(new_op).results()[0];
            if let Some(bias) = bias {
                let dest2 = empty_dest(ctx, op, result_ty);
                let add = create_before(
                    ctx,
                    op,
                    "linalg.add",
                    vec![value, bias, dest2],
                    vec![result_ty],
                    vec![],
                );
                value = ctx.op(add).results()[0];
            }
            let old = ctx.op(op).results()[0];
            ctx.replace_all_uses(old, value);
            ctx.erase_op(op);
        }
        Ok(())
    }
}

/// `tosa-to-linalg`: lowers elementwise/shape TOSA ops to `linalg.map`,
/// `linalg.add`/`sub`/`mul`, `linalg.reduce`, `linalg.transpose`, and
/// `tensor` plumbing ops.
#[derive(Debug, Default)]
pub struct TosaToLinalgPass;

impl Pass for TosaToLinalgPass {
    fn name(&self) -> &str {
        "tosa-to-linalg"
    }

    fn run(&self, ctx: &mut Context, target: OpId) -> Result<(), Diagnostic> {
        let ops: Vec<OpId> = ctx
            .walk_nested(target)
            .into_iter()
            .filter(|&op| {
                let name = ctx.op(op).name.as_str();
                name.starts_with("tosa.") && name != "tosa.const"
            })
            .collect();
        for op in ops {
            let name = ctx.op(op).name.as_str().to_owned();
            let operands = OperandList::from_slice(ctx.op(op).operands());
            let result_ty = ctx.value_type(ctx.op(op).results()[0]);
            let attributes = ctx.op(op).attributes().to_vec();
            let new_op = match name.as_str() {
                "tosa.add" | "tosa.sub" | "tosa.mul" => {
                    let target_name = match name.as_str() {
                        "tosa.add" => "linalg.add",
                        "tosa.sub" => "linalg.sub",
                        _ => "linalg.mul",
                    };
                    let dest = empty_dest(ctx, op, result_ty);
                    let mut new_operands = operands.clone();
                    new_operands.push(dest);
                    create_before(
                        ctx,
                        op,
                        target_name,
                        new_operands,
                        vec![result_ty],
                        attributes,
                    )
                }
                "tosa.clamp" | "tosa.sigmoid" | "tosa.tanh" | "tosa.exp" | "tosa.reciprocal"
                | "tosa.rsqrt" | "tosa.cast" | "tosa.rescale" => {
                    let dest = empty_dest(ctx, op, result_ty);
                    let kind = name.trim_start_matches("tosa.").to_owned();
                    let mut attrs = attributes;
                    attrs.push((Symbol::new("kind"), Attribute::String(kind)));
                    create_before(
                        ctx,
                        op,
                        "linalg.map",
                        vec![operands[0], dest],
                        vec![result_ty],
                        attrs,
                    )
                }
                "tosa.reduce_sum" | "tosa.reduce_max" => {
                    let dest = empty_dest(ctx, op, result_ty);
                    let kind = name.trim_start_matches("tosa.reduce_").to_owned();
                    let mut attrs = attributes;
                    attrs.push((Symbol::new("kind"), Attribute::String(kind)));
                    create_before(
                        ctx,
                        op,
                        "linalg.reduce",
                        vec![operands[0], dest],
                        vec![result_ty],
                        attrs,
                    )
                }
                "tosa.transpose" => {
                    let dest = empty_dest(ctx, op, result_ty);
                    create_before(
                        ctx,
                        op,
                        "linalg.transpose",
                        vec![operands[0], dest],
                        vec![result_ty],
                        attributes,
                    )
                }
                "tosa.reshape" => create_before(
                    ctx,
                    op,
                    "tensor.reshape",
                    operands,
                    vec![result_ty],
                    attributes,
                ),
                "tosa.pad" => {
                    create_before(ctx, op, "tensor.pad", operands, vec![result_ty], attributes)
                }
                "tosa.slice" => create_before(
                    ctx,
                    op,
                    "tensor.extract_slice",
                    operands,
                    vec![result_ty],
                    attributes,
                ),
                "tosa.concat" => create_before(
                    ctx,
                    op,
                    "tensor.concat",
                    operands,
                    vec![result_ty],
                    attributes,
                ),
                "tosa.gather" => create_before(
                    ctx,
                    op,
                    "tensor.gather",
                    operands,
                    vec![result_ty],
                    attributes,
                ),
                _ => return Err(err(ctx, op, "has no tosa-to-linalg lowering")),
            };
            replace_with(ctx, op, new_op);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tosa::tensor_type;
    use td_ir::verify::verify;
    use td_support::Location;

    fn model(ctx: &mut Context) -> OpId {
        crate::register_all_dialects(ctx);
        let module = ctx.create_module(Location::unknown());
        let body = ctx.sole_block(module, 0);
        let f32t = ctx.f32_type();
        let mat = tensor_type(ctx, &[8, 8], f32t);
        let (func, entry) = crate::func::build_func(ctx, module, "model", &[mat], &[mat]);
        let _ = func;
        let x = ctx.block(entry).args()[0];
        let w = ctx.create_op(
            Location::unknown(),
            "tosa.const",
            vec![],
            [mat],
            vec![(Symbol::new("splat"), Attribute::float(0.5))],
            0,
        );
        ctx.append_op(entry, w);
        let wv = ctx.op(w).results()[0];
        let fc = ctx.create_op(
            Location::unknown(),
            "tosa.fully_connected",
            [x, wv, wv],
            [mat],
            vec![],
            0,
        );
        ctx.append_op(entry, fc);
        let fcv = ctx.op(fc).results()[0];
        let act = ctx.create_op(Location::unknown(), "tosa.tanh", [fcv], [mat], vec![], 0);
        ctx.append_op(entry, act);
        let av = ctx.op(act).results()[0];
        let ret = ctx.create_op(Location::unknown(), "func.return", [av], vec![], vec![], 0);
        ctx.append_op(entry, ret);
        let _ = body;
        module
    }

    #[test]
    fn decomposition_splits_fully_connected() {
        let mut ctx = Context::new();
        let m = model(&mut ctx);
        TosaOptionalDecompositionsPass.run(&mut ctx, m).unwrap();
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(!names.contains(&"tosa.fully_connected"));
        assert!(names.contains(&"tosa.matmul"));
        assert!(names.contains(&"tosa.add"));
        assert!(verify(&ctx, m).is_ok(), "{:?}", verify(&ctx, m));
    }

    #[test]
    fn full_tosa_to_linalg_removes_all_tosa_compute() {
        let mut ctx = Context::new();
        let m = model(&mut ctx);
        TosaOptionalDecompositionsPass.run(&mut ctx, m).unwrap();
        TosaInferShapesPass.run(&mut ctx, m).unwrap();
        TosaMakeBroadcastablePass.run(&mut ctx, m).unwrap();
        TosaToLinalgNamedPass.run(&mut ctx, m).unwrap();
        TosaToLinalgPass.run(&mut ctx, m).unwrap();
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(
            names
                .iter()
                .all(|n| !n.starts_with("tosa.") || *n == "tosa.const"),
            "{names:?}"
        );
        assert!(names.contains(&"linalg.matmul"));
        assert!(names.contains(&"linalg.map"));
        assert!(names.contains(&"tensor.empty"));
        assert!(verify(&ctx, m).is_ok(), "{:?}", verify(&ctx, m));
    }
}
