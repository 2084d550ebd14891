//! Shared machinery for dialect-conversion passes: the LLVM type converter
//! and one-to-one op replacement with unrealized-cast materialization.
//!
//! The cast-materialization protocol mirrors MLIR's partial conversion:
//! each converted op receives operands *casted to the target types* and
//! produces results *casted back to the original types*, via
//! `builtin.unrealized_conversion_cast`. A later `reconcile-unrealized-casts`
//! pass cancels cast pairs; casts that do not cancel indicate an incomplete
//! pipeline — the precise failure mode Case Study 2 examines.

use crate::builtin;
use td_ir::{Attribute, Context, OpId, OperandList, TypeId, TypeKind};
use td_support::Symbol;

/// Converts a type to its LLVM-dialect equivalent, returning `None` when the
/// type is already legal (no conversion needed).
pub fn llvm_type_of(ctx: &mut Context, ty: TypeId) -> Option<TypeId> {
    match ctx.type_kind(ty).clone() {
        TypeKind::Index => Some(ctx.i64_type()),
        TypeKind::MemRef { .. } => Some(ctx.intern_type(TypeKind::LlvmPtr)),
        TypeKind::Function { inputs, results } => {
            let mut changed = false;
            let inputs: Vec<TypeId> = inputs
                .into_iter()
                .map(|t| match llvm_type_of(ctx, t) {
                    Some(new) => {
                        changed = true;
                        new
                    }
                    None => t,
                })
                .collect();
            let results: Vec<TypeId> = results
                .into_iter()
                .map(|t| match llvm_type_of(ctx, t) {
                    Some(new) => {
                        changed = true;
                        new
                    }
                    None => t,
                })
                .collect();
            changed.then(|| ctx.intern_type(TypeKind::Function { inputs, results }))
        }
        _ => None,
    }
}

/// The converted type of `ty` (itself when already legal).
pub fn convert_type(ctx: &mut Context, ty: TypeId) -> TypeId {
    llvm_type_of(ctx, ty).unwrap_or(ty)
}

/// Description of a one-to-one op replacement.
#[derive(Debug)]
pub struct Replacement {
    /// Target op name.
    pub name: &'static str,
    /// Attributes for the new op (typically forwarded from the old one).
    pub attributes: Vec<(Symbol, Attribute)>,
}

/// Replaces `op` with a new op named per `replacement`:
///
/// 1. each operand is cast to its converted type when needed;
/// 2. the new op produces converted result types;
/// 3. each new result is cast back to the original type and all uses of the
///    old results are redirected to the casts;
/// 4. the old op is erased.
///
/// Returns the new op.
pub fn replace_one_to_one(ctx: &mut Context, op: OpId, replacement: Replacement) -> OpId {
    assert!(ctx.op(op).parent().is_some(), "op must be attached");
    let location = ctx.op(op).location.clone();
    let old_operands = OperandList::from_slice(ctx.op(op).operands());
    let old_results = ctx.op(op).results().to_vec();

    // Cast operands as needed; casts are inserted before `op`.
    let mut new_operands = Vec::with_capacity(old_operands.len());
    for &operand in &old_operands {
        let ty = ctx.value_type(operand);
        match llvm_type_of(ctx, ty) {
            Some(target) => new_operands.push(builtin::cast_before(ctx, op, operand, target)),
            None => new_operands.push(operand),
        }
    }
    let new_result_types: Vec<TypeId> = old_results
        .iter()
        .map(|&r| {
            let ty = ctx.value_type(r);
            convert_type(ctx, ty)
        })
        .collect();
    let new_op = ctx.create_op(
        location,
        replacement.name,
        new_operands,
        new_result_types,
        replacement.attributes,
        0,
    );
    // Insert the new op right before the old one, after the casts.
    ctx.insert_op_before(op, new_op);
    // Preserve successors for terminators.
    let successors = ctx.op(op).successors().to_vec();
    if !successors.is_empty() {
        ctx.set_successors(new_op, successors);
    }
    // Cast results back and redirect uses.
    let new_results = ctx.op(new_op).results().to_vec();
    for (&old, &new) in old_results.iter().zip(new_results.iter()) {
        let old_ty = ctx.value_type(old);
        let new_ty = ctx.value_type(new);
        let replacement_value = if old_ty == new_ty {
            new
        } else {
            builtin::cast_after(ctx, new_op, new, old_ty)
        };
        ctx.replace_all_uses(old, replacement_value);
    }
    ctx.erase_op(op);
    new_op
}

/// Converts the argument types of every block in `region` (and nested
/// regions are *not* touched). For each converted argument a cast back to
/// the original type is inserted at the top of the block and pre-existing
/// uses are redirected to it.
pub fn convert_block_signatures(ctx: &mut Context, region: td_ir::RegionId) {
    let blocks = ctx.region(region).blocks().to_vec();
    for block in blocks {
        let args = ctx.block(block).args().to_vec();
        for arg in args {
            let ty = ctx.value_type(arg);
            let Some(target) = llvm_type_of(ctx, ty) else {
                continue;
            };
            ctx.set_value_type(arg, target);
            // Insert cast target -> original at block start and move uses.
            let cast = ctx.create_op(
                td_support::Location::name("block-arg-cast"),
                builtin::UNREALIZED_CAST,
                vec![],
                [ty],
                vec![],
                0,
            );
            ctx.prepend_op(block, cast);
            let cast_result = ctx.op(cast).results()[0];
            ctx.replace_all_uses(arg, cast_result);
            // Now wire the cast input (after RAUW so it is not redirected).
            ctx.append_operand(cast, arg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memref::memref_type;
    use td_ir::parse_module;

    fn ctx() -> Context {
        let mut ctx = Context::new();
        crate::register_all_dialects(&mut ctx);
        ctx
    }

    #[test]
    fn type_conversion_rules() {
        let mut ctx = ctx();
        let index = ctx.index_type();
        let i64t = ctx.i64_type();
        let f32t = ctx.f32_type();
        assert_eq!(llvm_type_of(&mut ctx, index), Some(i64t));
        assert_eq!(llvm_type_of(&mut ctx, i64t), None);
        assert_eq!(llvm_type_of(&mut ctx, f32t), None);
        let mt = memref_type(&mut ctx, &[4], f32t);
        let ptr = ctx.intern_type(TypeKind::LlvmPtr);
        assert_eq!(llvm_type_of(&mut ctx, mt), Some(ptr));
        let fty = ctx.intern_type(TypeKind::Function {
            inputs: vec![index],
            results: vec![f32t],
        });
        let converted = llvm_type_of(&mut ctx, fty).unwrap();
        assert_eq!(
            ctx.type_kind(converted),
            &TypeKind::Function {
                inputs: vec![i64t],
                results: vec![f32t]
            }
        );
    }

    #[test]
    fn one_to_one_inserts_casts() {
        let mut ctx = ctx();
        let m = parse_module(
            &mut ctx,
            r#"module {
  %a = arith.constant 1 : index
  %b = "arith.addi"(%a, %a) : (index, index) -> index
  "test.use"(%b) : (index) -> ()
}"#,
        )
        .unwrap();
        let add = ctx
            .walk_nested(m)
            .into_iter()
            .find(|&o| ctx.op(o).name.as_str() == "arith.addi")
            .unwrap();
        replace_one_to_one(
            &mut ctx,
            add,
            Replacement {
                name: "llvm.add",
                attributes: vec![],
            },
        );
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(names.contains(&"llvm.add"));
        // Two operand casts (index->i64) + one result cast (i64->index).
        let cast_count = names
            .iter()
            .filter(|&&n| n == builtin::UNREALIZED_CAST)
            .count();
        assert_eq!(cast_count, 3, "{names:?}");
        // The add's operands are i64 now.
        let add = ctx
            .walk_nested(m)
            .into_iter()
            .find(|&o| ctx.op(o).name.as_str() == "llvm.add")
            .unwrap();
        let i64t = ctx.i64_type();
        assert!(ctx
            .op(add)
            .operands()
            .iter()
            .all(|&v| ctx.value_type(v) == i64t));
    }

    #[test]
    fn block_signature_conversion_redirects_uses() {
        let mut ctx = ctx();
        let m = parse_module(
            &mut ctx,
            r#"module {
  "test.wrap"() ({
  ^entry(%i: index):
    "test.use"(%i) : (index) -> ()
  }) : () -> ()
}"#,
        )
        .unwrap();
        let wrap = ctx
            .walk_nested(m)
            .into_iter()
            .find(|&o| ctx.op(o).name.as_str() == "test.wrap")
            .unwrap();
        let region = ctx.op(wrap).regions()[0];
        convert_block_signatures(&mut ctx, region);
        let block = ctx.region(region).blocks()[0];
        let arg = ctx.block(block).args()[0];
        let i64t = ctx.i64_type();
        assert_eq!(ctx.value_type(arg), i64t);
        // test.use now consumes the cast result, still index-typed.
        let use_op = ctx
            .walk_nested(m)
            .into_iter()
            .find(|&o| ctx.op(o).name.as_str() == "test.use")
            .unwrap();
        let operand = ctx.op(use_op).operands()[0];
        let index = ctx.index_type();
        assert_eq!(ctx.value_type(operand), index);
        assert_eq!(
            ctx.op(ctx.defining_op(operand).unwrap()).name.as_str(),
            builtin::UNREALIZED_CAST
        );
    }
}
