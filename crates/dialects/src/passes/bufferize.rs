//! `linalg-bufferize`: converts tensor-form IR into memref form.
//!
//! A deliberately simple whole-function bufferization: every tensor type
//! becomes the identity-layout memref of the same shape, `tensor.empty`
//! and `tosa.const` become allocations (constants keep their data in an
//! `init` attribute), destination-passing linalg ops lose their result
//! (uses are redirected to the destination operand), and the remaining
//! `tensor` plumbing ops become explicit `linalg.copy`-style ops.

use std::collections::HashMap;
use td_ir::{Attribute, Context, OpId, OperandList, Pass, TypeId, TypeKind, ValueId};
use td_support::{Diagnostic, InlineVec, Symbol};

/// The `linalg-bufferize` pass.
#[derive(Debug, Default)]
pub struct LinalgBufferizePass;

impl Pass for LinalgBufferizePass {
    fn name(&self) -> &str {
        "linalg-bufferize"
    }

    fn run(&self, ctx: &mut Context, target: OpId) -> Result<(), Diagnostic> {
        // 1. Flip every tensor-typed value (results and block args) to the
        //    equivalent memref type.
        let mut types = MemrefTypes::default();
        let all_ops = ctx.walk_nested(target);
        for &op in &all_ops {
            for index in 0..ctx.op(op).results().len() {
                let value = ctx.op(op).results()[index];
                let ty = ctx.value_type(value);
                if let Some(new_ty) = types.tensor_to_memref(ctx, ty) {
                    ctx.set_value_type(value, new_ty);
                }
            }
            for region in 0..ctx.op(op).regions().len() {
                let region = ctx.op(op).regions()[region];
                for block in 0..ctx.region(region).blocks().len() {
                    let block = ctx.region(region).blocks()[block];
                    for arg in 0..ctx.block(block).args().len() {
                        let arg = ctx.block(block).args()[arg];
                        let ty = ctx.value_type(arg);
                        if let Some(new_ty) = types.tensor_to_memref(ctx, ty) {
                            ctx.set_value_type(arg, new_ty);
                        }
                    }
                }
            }
            // Function types in attributes.
            let attr_types: Vec<(Symbol, TypeId)> = ctx
                .op(op)
                .attributes()
                .iter()
                .filter_map(|(key, value)| match value {
                    Attribute::Type(ty) => Some((*key, *ty)),
                    _ => None,
                })
                .collect();
            for (key, ty) in attr_types {
                if let Some(new_ty) = types.convert_deep(ctx, ty) {
                    ctx.set_attr(op, key, Attribute::Type(new_ty));
                }
            }
        }

        // 2. Restructure ops.
        for op in all_ops {
            if !ctx.is_live(op) {
                continue;
            }
            let name = ctx.op(op).name.as_str();
            match name {
                "tensor.empty" => ctx.set_op_name(op, "memref.alloc"),
                "tosa.const" => {
                    // Keep the constant data: memref.alloc {init = ...}.
                    let data = ctx
                        .op(op)
                        .attr("splat")
                        .or_else(|| ctx.op(op).attr("value"))
                        .cloned()
                        .unwrap_or(Attribute::float(0.0));
                    ctx.set_op_name(op, "memref.alloc");
                    ctx.set_attr(op, "init", data);
                }
                _ if name.starts_with("linalg.") => {
                    drop_result_use_dest(ctx, op);
                }
                "tensor.reshape"
                | "tensor.pad"
                | "tensor.extract_slice"
                | "tensor.concat"
                | "tensor.gather"
                | "tensor.cast" => {
                    lower_plumbing_to_copy(ctx, op, name);
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// The type conversions of one pass run, each type converted (and its
/// memref interned) once, however many values and attributes carry it.
#[derive(Default)]
struct MemrefTypes {
    /// Value types: tensor → memref, `None` for every other type.
    values: HashMap<TypeId, Option<TypeId>>,
    /// Function types, with the tensors inside them converted.
    functions: HashMap<TypeId, Option<TypeId>>,
}

impl MemrefTypes {
    /// `tensor<AxBxT>` → `memref<AxBxT>`; `None` when not a tensor.
    fn tensor_to_memref(&mut self, ctx: &mut Context, ty: TypeId) -> Option<TypeId> {
        if let Some(&known) = self.values.get(&ty) {
            return known;
        }
        let memref = match ctx.type_kind(ty) {
            TypeKind::Tensor { shape, element } => Some(TypeKind::MemRef {
                shape: shape.clone(),
                element: *element,
                offset: td_ir::Extent::Static(0),
                strides: vec![],
            }),
            _ => None,
        }
        .map(|kind| ctx.intern_type(kind));
        self.values.insert(ty, memref);
        memref
    }

    /// Converts tensors inside function types as well.
    fn convert_deep(&mut self, ctx: &mut Context, ty: TypeId) -> Option<TypeId> {
        let TypeKind::Function { inputs, results } = ctx.type_kind(ty) else {
            return self.tensor_to_memref(ctx, ty);
        };
        if let Some(&known) = self.functions.get(&ty) {
            return known;
        }
        let (mut inputs, mut results) = (inputs.clone(), results.clone());
        let mut changed = false;
        for t in inputs.iter_mut().chain(results.iter_mut()) {
            if let Some(new) = self.convert_deep(ctx, *t) {
                *t = new;
                changed = true;
            }
        }
        let converted = changed.then(|| ctx.intern_type(TypeKind::Function { inputs, results }));
        self.functions.insert(ty, converted);
        converted
    }
}

/// Turns `r = linalg.op(ins..., dest)` into `linalg.op(ins..., dest)` with
/// uses of `r` replaced by `dest`.
fn drop_result_use_dest(ctx: &mut Context, op: OpId) {
    let Some(&result) = ctx.op(op).results().first() else {
        return;
    };
    let operands = InlineVec::<ValueId, 4>::from_slice(ctx.op(op).operands());
    let Some(&dest) = operands.last() else { return };
    let attributes = ctx.op(op).attributes().to_vec();
    let name = ctx.op(op).name;
    let new_op = ctx.create_op(
        ctx.op(op).location.clone(),
        name,
        operands,
        vec![],
        attributes,
        0,
    );
    ctx.insert_op_before(op, new_op);
    ctx.replace_all_uses(result, dest);
    ctx.erase_op(op);
}

/// Lowers a tensor plumbing op to `alloc` + `linalg.copy {kind}`.
fn lower_plumbing_to_copy(ctx: &mut Context, op: OpId, name: &str) {
    let result = ctx.op(op).results()[0];
    let result_ty = ctx.value_type(result); // already a memref by step 1
    let operands = OperandList::from_slice(ctx.op(op).operands());
    let alloc = ctx.create_op(
        ctx.op(op).location.clone(),
        "memref.alloc",
        vec![],
        [result_ty],
        vec![],
        0,
    );
    ctx.insert_op_before(op, alloc);
    let dest = ctx.op(alloc).results()[0];
    let kind = name.trim_start_matches("tensor.").to_owned();
    let mut copy_operands = operands;
    copy_operands.push(dest);
    let attributes = {
        let mut attrs = ctx.op(op).attributes().to_vec();
        attrs.push((Symbol::new("kind"), Attribute::String(kind)));
        attrs
    };
    let copy = ctx.create_op(
        ctx.op(op).location.clone(),
        "linalg.copy",
        copy_operands,
        vec![],
        attributes,
        0,
    );
    ctx.insert_op_before(op, copy);
    ctx.replace_all_uses(result, dest);
    ctx.erase_op(op);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::tosa_to_linalg::*;
    use td_ir::verify::verify;

    #[test]
    fn bufferizes_a_lowered_model() {
        // Reuse the tosa lowering fixture: build, lower to linalg, bufferize.
        let mut ctx = Context::new();
        crate::register_all_dialects(&mut ctx);
        let module = ctx.create_module(td_support::Location::unknown());
        let f32t = ctx.f32_type();
        let mat = crate::tosa::tensor_type(&mut ctx, &[4, 4], f32t);
        let (_f, entry) = crate::func::build_func(&mut ctx, module, "m", &[mat], &[mat]);
        let x = ctx.block(entry).args()[0];
        let mm = ctx.create_op(
            td_support::Location::unknown(),
            "tosa.matmul",
            [x, x],
            [mat],
            vec![],
            0,
        );
        ctx.append_op(entry, mm);
        let v = ctx.op(mm).results()[0];
        let ret = ctx.create_op(
            td_support::Location::unknown(),
            "func.return",
            [v],
            vec![],
            vec![],
            0,
        );
        ctx.append_op(entry, ret);

        TosaToLinalgNamedPass.run(&mut ctx, module).unwrap();
        LinalgBufferizePass.run(&mut ctx, module).unwrap();

        let names: Vec<&str> = ctx
            .walk_nested(module)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(names.contains(&"memref.alloc"), "{names:?}");
        assert!(!names.contains(&"tensor.empty"), "{names:?}");
        // The linalg.matmul now has no results and all-memref operands.
        let mm = ctx
            .walk_nested(module)
            .into_iter()
            .find(|&o| ctx.op(o).name.as_str() == "linalg.matmul")
            .unwrap();
        assert!(ctx.op(mm).results().is_empty());
        assert!(crate::linalg::is_bufferized(&ctx, mm));
        assert!(verify(&ctx, module).is_ok(), "{:?}", verify(&ctx, module));
    }
}
