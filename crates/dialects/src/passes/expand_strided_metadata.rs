//! `expand-strided-metadata`: factors the address arithmetic of
//! `memref.subview` out into explicit operations, leaving only *trivial*
//! accesses behind (the paper's `memref.subview.constr` post-condition,
//! Fig. 3/4).
//!
//! When every subview offset is static, the new offset is an
//! `arith.constant`. When any offset is dynamic, an **`affine.apply`** is
//! introduced — the operation whose presence breaks the naive Case Study 2
//! pipeline, because no later pass in that pipeline lowers the `affine`
//! dialect.

use crate::affine;
use crate::memref::{self, DYNAMIC};
use td_ir::{Attribute, Context, Extent, OpId, Pass, TypeKind, ValueId};
use td_support::{Diagnostic, Symbol};

/// The `expand-strided-metadata` pass.
#[derive(Debug, Default)]
pub struct ExpandStridedMetadataPass;

impl Pass for ExpandStridedMetadataPass {
    fn name(&self) -> &str {
        "expand-strided-metadata"
    }

    fn run(&self, ctx: &mut Context, target: OpId) -> Result<(), Diagnostic> {
        let subviews: Vec<OpId> = ctx
            .walk_nested(target)
            .into_iter()
            .filter(|&op| ctx.op(op).name.as_str() == "memref.subview")
            .collect();
        for op in subviews {
            expand_subview(ctx, op)?;
        }
        Ok(())
    }
}

fn err(ctx: &Context, op: OpId, message: &str) -> Diagnostic {
    Diagnostic::error(
        ctx.op(op).location.clone(),
        format!("'{}' op {message}", ctx.op(op).name),
    )
}

fn expand_subview(ctx: &mut Context, op: OpId) -> Result<(), Diagnostic> {
    let source = ctx.op(op).operands()[0];
    let source_ty = ctx.value_type(source);
    let (_, element, src_offset, src_strides) = memref::memref_info(ctx, source_ty)
        .ok_or_else(|| err(ctx, op, "source is not a memref"))?;
    let (offsets, sizes, strides) = memref::static_triple(ctx, op)
        .ok_or_else(|| err(ctx, op, "is missing its static triple"))?;

    // Static strides of the source are required to fold coefficients.
    let src_stride_values: Vec<i64> = src_strides
        .iter()
        .map(|s| s.as_static())
        .collect::<Option<_>>()
        .ok_or_else(|| err(ctx, op, "with dynamically-strided source is not supported"))?;
    let src_offset_value = src_offset
        .as_static()
        .ok_or_else(|| err(ctx, op, "with dynamically-offset source is not supported"))?;

    // Extract base + metadata.
    let rank = offsets.len();
    let index = ctx.index_type();
    let flat = ctx.intern_type(TypeKind::MemRef {
        shape: vec![Extent::Dynamic],
        element,
        offset: Extent::Static(0),
        strides: vec![],
    });
    let mut result_types = vec![flat, index];
    result_types.extend(std::iter::repeat(index).take(2 * rank));
    let metadata = {
        let md = ctx.create_op(
            ctx.op(op).location.clone(),
            "memref.extract_strided_metadata",
            [source],
            result_types,
            vec![],
            0,
        );
        ctx.insert_op_before(op, md);
        md
    };
    let base = ctx.op(metadata).results()[0];

    // New offset: src_offset + sum(offset_i * src_stride_i).
    let mut constant_part = src_offset_value;
    let mut dyn_coefficients = Vec::new();
    let mut dyn_operands = Vec::new();
    let dynamic_offset_operands: Vec<ValueId> = ctx.op(op).operands()[1..].to_vec();
    let mut dyn_cursor = 0;
    for (i, &o) in offsets.iter().enumerate() {
        if o == DYNAMIC {
            dyn_coefficients.push(src_stride_values[i]);
            dyn_operands.push(
                dynamic_offset_operands
                    .get(dyn_cursor)
                    .copied()
                    .ok_or_else(|| err(ctx, op, "is missing a dynamic offset operand"))?,
            );
            dyn_cursor += 1;
        } else {
            constant_part += o * src_stride_values[i];
        }
    }
    // Fully static offsets stay static attributes; only runtime offsets
    // introduce affine.apply (the Case Study 2 trigger) and a dynamic
    // reinterpret_cast operand.
    let (static_offset_attr, offset_operand) = if dyn_operands.is_empty() {
        (constant_part, None)
    } else {
        let mut map = dyn_coefficients.clone();
        map.push(constant_part);
        let block = ctx.op(op).parent().expect("attached");
        let apply = affine::build_apply(ctx, block, &map, dyn_operands);
        ctx.detach_op(apply);
        ctx.insert_op_before(op, apply);
        (DYNAMIC, Some(ctx.op(apply).results()[0]))
    };

    // Result strides are stride_i * src_stride_i.
    let result_strides: Vec<i64> = strides
        .iter()
        .zip(&src_stride_values)
        .map(|(&s, &base)| s * base)
        .collect();

    let result_ty = ctx.value_type(ctx.op(op).results()[0]);
    let mut operands = vec![base];
    operands.extend(offset_operand);
    let cast = ctx.create_op(
        ctx.op(op).location.clone(),
        "memref.reinterpret_cast",
        operands,
        [result_ty],
        vec![
            (
                Symbol::new("static_offsets"),
                Attribute::int_array([static_offset_attr]),
            ),
            (
                Symbol::new("static_sizes"),
                Attribute::int_array(sizes.iter().copied()),
            ),
            (
                Symbol::new("static_strides"),
                Attribute::int_array(result_strides.iter().copied()),
            ),
        ],
        0,
    );
    ctx.insert_op_before(op, cast);
    let new_value = ctx.op(cast).results()[0];
    let old_value = ctx.op(op).results()[0];
    ctx.replace_all_uses(old_value, new_value);
    ctx.erase_op(op);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_ir::parse_module;
    use td_ir::verify::verify;

    fn run(src: &str) -> (Context, OpId) {
        let mut ctx = Context::new();
        crate::register_all_dialects(&mut ctx);
        let m = parse_module(&mut ctx, src).unwrap();
        ExpandStridedMetadataPass.run(&mut ctx, m).unwrap();
        (ctx, m)
    }

    const STATIC_SUBVIEW: &str = r#"module {
  func.func @f(%m: memref<16x16xf32>) {
    %sv = "memref.subview"(%m) {static_offsets = [0, 0], static_sizes = [4, 4], static_strides = [1, 1]} : (memref<16x16xf32>) -> memref<4x4xf32, strided<[16, 1], offset: 0>>
    "test.use"(%sv) : (memref<4x4xf32, strided<[16, 1], offset: 0>>) -> ()
    func.return
  }
}"#;

    #[test]
    fn static_offsets_produce_no_affine() {
        let (ctx, m) = run(STATIC_SUBVIEW);
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(!names.contains(&"memref.subview"), "{names:?}");
        assert!(names.contains(&"memref.reinterpret_cast"));
        assert!(names.contains(&"memref.extract_strided_metadata"));
        assert!(
            !names.contains(&"affine.apply"),
            "static subview must not need affine.apply: {names:?}"
        );
        assert!(verify(&ctx, m).is_ok(), "{:?}", verify(&ctx, m));
    }

    #[test]
    fn dynamic_offset_introduces_affine_apply() {
        let (ctx, m) = run(r#"module {
  func.func @f(%m: memref<16x16xf32>, %offset: index) {
    %sv = "memref.subview"(%m, %offset) {static_offsets = [-9223372036854775808, 0], static_sizes = [4, 4], static_strides = [1, 1]} : (memref<16x16xf32>, index) -> memref<4x4xf32, strided<[16, 1], offset: ?>>
    "test.use"(%sv) : (memref<4x4xf32, strided<[16, 1], offset: ?>>) -> ()
    func.return
  }
}"#);
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(
            names.contains(&"affine.apply"),
            "dynamic subview offset must introduce affine.apply: {names:?}"
        );
        assert!(verify(&ctx, m).is_ok(), "{:?}", verify(&ctx, m));
        // The affine map multiplies the dynamic offset by the row stride 16.
        let apply = ctx
            .walk_nested(m)
            .into_iter()
            .find(|&o| ctx.op(o).name.as_str() == "affine.apply")
            .unwrap();
        assert_eq!(affine::apply_map(&ctx, apply), Some(vec![16, 0]));
    }
}
