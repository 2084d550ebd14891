//! `finalize-memref-to-llvm`: lowers trivially-indexed memref operations to
//! LLVM pointers.
//!
//! Conversion protocol: every produced pointer is cast back to the original
//! memref type with `builtin.unrealized_conversion_cast`, and every consumed
//! memref is cast to `!llvm.ptr`; `reconcile-unrealized-casts` cancels the
//! pairs. Index values used in address arithmetic are cast to `i64` the
//! same way — which is exactly why a leftover `affine.apply` (whose result
//! is an uncasted `index`) makes the final reconciliation fail, reproducing
//! the Case Study 2 error.

use crate::builtin;
use crate::memref::{self, DYNAMIC};
use td_ir::{Attribute, Context, Extent, OpId, OperandList, Pass, TypeKind, ValueId};
use td_support::{Diagnostic, Symbol};

/// The `finalize-memref-to-llvm` pass.
#[derive(Debug, Default)]
pub struct FinalizeMemrefToLlvmPass;

impl Pass for FinalizeMemrefToLlvmPass {
    fn name(&self) -> &str {
        "finalize-memref-to-llvm"
    }

    fn run(&self, ctx: &mut Context, target: OpId) -> Result<(), Diagnostic> {
        let ops: Vec<OpId> = ctx
            .walk_nested(target)
            .into_iter()
            .filter(|&op| ctx.op(op).name.as_str().starts_with("memref."))
            .collect();
        for op in ops {
            if !ctx.is_live(op) {
                continue;
            }
            match ctx.op(op).name.as_str() {
                "memref.alloc" => lower_alloc(ctx, op)?,
                "memref.dealloc" => lower_dealloc(ctx, op),
                "memref.load" => lower_load_store(ctx, op, true)?,
                "memref.store" => lower_load_store(ctx, op, false)?,
                "memref.reinterpret_cast" => lower_reinterpret_cast(ctx, op)?,
                "memref.subview" => lower_trivial_subview(ctx, op)?,
                "memref.dim" => lower_dim(ctx, op)?,
                "memref.cast" => lower_cast(ctx, op),
                "memref.extract_aligned_pointer_as_index" => lower_extract_pointer(ctx, op),
                // extract_strided_metadata is consumed by reinterpret_cast
                // handling; leftovers are cleaned below when dead.
                _ => {}
            }
        }
        // extract_strided_metadata ops whose results are all dead can go.
        let metadata_ops: Vec<OpId> = ctx
            .walk_nested(target)
            .into_iter()
            .filter(|&op| ctx.op(op).name.as_str() == "memref.extract_strided_metadata")
            .collect();
        for op in metadata_ops {
            let dead = ctx.op(op).results().iter().all(|&r| !ctx.has_uses(r));
            if dead {
                ctx.erase_op(op);
            }
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

fn ptr_type(ctx: &mut Context) -> td_ir::TypeId {
    ctx.intern_type(TypeKind::LlvmPtr)
}

/// Casts a memref value to `!llvm.ptr` before `anchor`, looking through
/// `extract_strided_metadata` base results to their original source.
fn memref_to_ptr(ctx: &mut Context, anchor: OpId, value: ValueId) -> ValueId {
    let mut source = value;
    if let Some(def) = ctx.defining_op(value) {
        if ctx.op(def).name.as_str() == "memref.extract_strided_metadata"
            && ctx.op(def).results()[0] == value
        {
            source = ctx.op(def).operands()[0];
        }
    }
    let ptr = ptr_type(ctx);
    builtin::cast_before(ctx, anchor, source, ptr)
}

fn index_to_i64(ctx: &mut Context, anchor: OpId, value: ValueId) -> ValueId {
    let i64t = ctx.i64_type();
    if ctx.value_type(value) == i64t {
        return value;
    }
    builtin::cast_before(ctx, anchor, value, i64t)
}

fn const_i64(ctx: &mut Context, anchor: OpId, value: i64) -> ValueId {
    let i64t = ctx.i64_type();
    let c = ctx.create_op(
        ctx.op(anchor).location.clone(),
        "llvm.mlir.constant",
        vec![],
        [i64t],
        vec![(Symbol::new("value"), Attribute::Int(value))],
        0,
    );
    ctx.insert_op_before(anchor, c);
    ctx.op(c).results()[0]
}

fn binop_i64(ctx: &mut Context, anchor: OpId, name: &str, lhs: ValueId, rhs: ValueId) -> ValueId {
    let i64t = ctx.i64_type();
    let op = ctx.create_op(
        ctx.op(anchor).location.clone(),
        name,
        [lhs, rhs],
        [i64t],
        vec![],
        0,
    );
    ctx.insert_op_before(anchor, op);
    ctx.op(op).results()[0]
}

fn gep(ctx: &mut Context, anchor: OpId, base: ValueId, offset: ValueId) -> ValueId {
    let ptr = ptr_type(ctx);
    let op = ctx.create_op(
        ctx.op(anchor).location.clone(),
        "llvm.getelementptr",
        [base, offset],
        [ptr],
        vec![],
        0,
    );
    ctx.insert_op_before(anchor, op);
    ctx.op(op).results()[0]
}

fn lower_alloc(ctx: &mut Context, op: OpId) -> Result<(), Diagnostic> {
    let result = ctx.op(op).results()[0];
    let memref_ty = ctx.value_type(result);
    let (shape, ..) = memref::memref_info(ctx, memref_ty)
        .ok_or_else(|| err(ctx, op, "result is not a memref"))?;
    // Element count: product of static dims × dynamic operands.
    let mut static_product = 1i64;
    for extent in &shape {
        if let Extent::Static(d) = extent {
            static_product *= d;
        }
    }
    let mut size = const_i64(ctx, op, static_product);
    let dynamic_operands = OperandList::from_slice(ctx.op(op).operands());
    for dynamic in dynamic_operands {
        let dynamic = index_to_i64(ctx, op, dynamic);
        size = binop_i64(ctx, op, "llvm.mul", size, dynamic);
    }
    let ptr = ptr_type(ctx);
    let call = ctx.create_op(
        ctx.op(op).location.clone(),
        "llvm.call",
        [size],
        [ptr],
        vec![(
            Symbol::new("callee"),
            Attribute::SymbolRef(td_support::Symbol::new("malloc")),
        )],
        0,
    );
    ctx.insert_op_before(op, call);
    let ptr_value = ctx.op(call).results()[0];
    let back = builtin::cast_after(ctx, call, ptr_value, memref_ty);
    ctx.replace_all_uses(result, back);
    ctx.erase_op(op);
    Ok(())
}

fn lower_dealloc(ctx: &mut Context, op: OpId) {
    let operand = ctx.op(op).operands()[0];
    let ptr_value = memref_to_ptr(ctx, op, operand);
    let call = ctx.create_op(
        ctx.op(op).location.clone(),
        "llvm.call",
        [ptr_value],
        vec![],
        vec![(
            Symbol::new("callee"),
            Attribute::SymbolRef(td_support::Symbol::new("free")),
        )],
        0,
    );
    ctx.insert_op_before(op, call);
    ctx.erase_op(op);
}

/// Emits the linearized element offset of an access to a memref of the given
/// type with the given indices. Type-level offsets contribute nothing: by
/// this lowering's convention the *pointer* carries the offset —
/// `reinterpret_cast`/`subview` lowering pre-offsets it with
/// `llvm.getelementptr`.
fn linear_offset(
    ctx: &mut Context,
    anchor: OpId,
    memref_ty: td_ir::TypeId,
    indices: &[ValueId],
) -> Result<ValueId, Diagnostic> {
    let (_, _, _offset, strides) =
        memref::memref_info(ctx, memref_ty).ok_or_else(|| err(ctx, anchor, "expects a memref"))?;
    let mut acc = const_i64(ctx, anchor, 0);
    for (&index_value, stride) in indices.iter().zip(strides.iter()) {
        let stride = stride
            .as_static()
            .ok_or_else(|| err(ctx, anchor, "with dynamic strides is not supported"))?;
        let index_value = index_to_i64(ctx, anchor, index_value);
        let term = if stride == 1 {
            index_value
        } else {
            let c = const_i64(ctx, anchor, stride);
            binop_i64(ctx, anchor, "llvm.mul", c, index_value)
        };
        acc = binop_i64(ctx, anchor, "llvm.add", acc, term);
    }
    Ok(acc)
}

fn lower_load_store(ctx: &mut Context, op: OpId, is_load: bool) -> Result<(), Diagnostic> {
    let operands = OperandList::from_slice(ctx.op(op).operands());
    let (memref_value, indices, stored) = if is_load {
        (operands[0], operands[1..].to_vec(), None)
    } else {
        (operands[1], operands[2..].to_vec(), Some(operands[0]))
    };
    let memref_ty = ctx.value_type(memref_value);
    let base = memref_to_ptr(ctx, op, memref_value);
    let offset = linear_offset(ctx, op, memref_ty, &indices)?;
    let address = gep(ctx, op, base, offset);
    if let Some(stored) = stored {
        let store = ctx.create_op(
            ctx.op(op).location.clone(),
            "llvm.store",
            [stored, address],
            vec![],
            vec![],
            0,
        );
        ctx.insert_op_before(op, store);
        ctx.erase_op(op);
    } else {
        let result = ctx.op(op).results()[0];
        let elem_ty = ctx.value_type(result);
        let load = ctx.create_op(
            ctx.op(op).location.clone(),
            "llvm.load",
            [address],
            [elem_ty],
            vec![],
            0,
        );
        ctx.insert_op_before(op, load);
        let new_value = ctx.op(load).results()[0];
        ctx.replace_all_uses(result, new_value);
        ctx.erase_op(op);
    }
    Ok(())
}

fn lower_reinterpret_cast(ctx: &mut Context, op: OpId) -> Result<(), Diagnostic> {
    let base = ctx.op(op).operands()[0];
    let base_ptr = memref_to_ptr(ctx, op, base);
    let (offsets, ..) = memref::static_triple(ctx, op)
        .ok_or_else(|| err(ctx, op, "is missing its static triple"))?;
    let result = ctx.op(op).results()[0];
    let result_ty = ctx.value_type(result);
    let adjusted = match offsets.first().copied() {
        Some(DYNAMIC) => {
            let offset = ctx.op(op).operands()[1];
            let offset = index_to_i64(ctx, op, offset);
            gep(ctx, op, base_ptr, offset)
        }
        Some(0) | None => base_ptr,
        Some(static_offset) => {
            let c = const_i64(ctx, op, static_offset);
            gep(ctx, op, base_ptr, c)
        }
    };
    // The pointer is pre-offset here, so downstream accesses treat the
    // result type's (possibly dynamic) offset as already applied; the
    // load/store lowering and the machine both ignore dynamic type offsets
    // under this convention.
    let cast = ctx.create_op(
        ctx.op(op).location.clone(),
        builtin::UNREALIZED_CAST,
        [adjusted],
        [result_ty],
        vec![],
        0,
    );
    ctx.insert_op_before(op, cast);
    let new_value = ctx.op(cast).results()[0];
    ctx.replace_all_uses(result, new_value);
    ctx.erase_op(op);
    Ok(())
}

fn lower_trivial_subview(ctx: &mut Context, op: OpId) -> Result<(), Diagnostic> {
    if !memref::is_trivial_subview(ctx, op) {
        // Pre-condition violation: this pass only handles the constrained
        // subview form (memref.subview.constr). Leave the op untouched; the
        // cast reconciliation at the end of the pipeline will surface the
        // problem, as in MLIR.
        return Ok(());
    }
    let source = ctx.op(op).operands()[0];
    let base_ptr = memref_to_ptr(ctx, op, source);
    let result = ctx.op(op).results()[0];
    let result_ty = ctx.value_type(result);
    let cast = ctx.create_op(
        ctx.op(op).location.clone(),
        builtin::UNREALIZED_CAST,
        [base_ptr],
        [result_ty],
        vec![],
        0,
    );
    ctx.insert_op_before(op, cast);
    let new_value = ctx.op(cast).results()[0];
    ctx.replace_all_uses(result, new_value);
    ctx.erase_op(op);
    Ok(())
}

fn lower_dim(ctx: &mut Context, op: OpId) -> Result<(), Diagnostic> {
    let source = ctx.op(op).operands()[0];
    let dim = ctx
        .op(op)
        .attr("index")
        .and_then(Attribute::as_int)
        .ok_or_else(|| err(ctx, op, "requires an integer 'index' attribute"))?;
    let (shape, ..) = memref::memref_info(ctx, ctx.value_type(source))
        .ok_or_else(|| err(ctx, op, "expects a memref"))?;
    let Some(Extent::Static(extent)) = shape.get(dim as usize).copied() else {
        return Err(err(ctx, op, "of a dynamic dimension is not supported"));
    };
    let c = const_i64(ctx, op, extent);
    let index = ctx.index_type();
    let back = builtin::cast_before(ctx, op, c, index);
    let result = ctx.op(op).results()[0];
    ctx.replace_all_uses(result, back);
    ctx.erase_op(op);
    Ok(())
}

fn lower_cast(ctx: &mut Context, op: OpId) {
    let source = ctx.op(op).operands()[0];
    let ptr_value = memref_to_ptr(ctx, op, source);
    let result = ctx.op(op).results()[0];
    let result_ty = ctx.value_type(result);
    let cast = ctx.create_op(
        ctx.op(op).location.clone(),
        builtin::UNREALIZED_CAST,
        [ptr_value],
        [result_ty],
        vec![],
        0,
    );
    ctx.insert_op_before(op, cast);
    let new_value = ctx.op(cast).results()[0];
    ctx.replace_all_uses(result, new_value);
    ctx.erase_op(op);
}

fn lower_extract_pointer(ctx: &mut Context, op: OpId) {
    let source = ctx.op(op).operands()[0];
    let ptr_value = memref_to_ptr(ctx, op, source);
    let i64t = ctx.i64_type();
    let ptrtoint = ctx.create_op(
        ctx.op(op).location.clone(),
        "llvm.ptrtoint",
        [ptr_value],
        [i64t],
        vec![],
        0,
    );
    ctx.insert_op_before(op, ptrtoint);
    let int_value = ctx.op(ptrtoint).results()[0];
    let index = ctx.index_type();
    let back = builtin::cast_after(ctx, ptrtoint, int_value, index);
    let result = ctx.op(op).results()[0];
    ctx.replace_all_uses(result, back);
    ctx.erase_op(op);
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_ir::parse_module;

    fn run(src: &str) -> (Context, OpId) {
        let mut ctx = Context::new();
        crate::register_all_dialects(&mut ctx);
        let m = parse_module(&mut ctx, src).unwrap();
        FinalizeMemrefToLlvmPass.run(&mut ctx, m).unwrap();
        (ctx, m)
    }

    #[test]
    fn lowers_alloc_load_store() {
        let (ctx, m) = run(r#"module {
  func.func @f(%i: index, %v: f32) {
    %m = "memref.alloc"() : () -> memref<8x8xf32>
    "memref.store"(%v, %m, %i, %i) : (f32, memref<8x8xf32>, index, index) -> ()
    %x = "memref.load"(%m, %i, %i) : (memref<8x8xf32>, index, index) -> f32
    "test.use"(%x) : (f32) -> ()
    func.return
  }
}"#);
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(!names.iter().any(|n| n.starts_with("memref.")), "{names:?}");
        assert!(names.contains(&"llvm.call"), "malloc call: {names:?}");
        assert!(names.contains(&"llvm.load"));
        assert!(names.contains(&"llvm.store"));
        assert!(names.contains(&"llvm.getelementptr"));
        assert!(
            names.contains(&"llvm.mul"),
            "row stride multiply: {names:?}"
        );
    }

    #[test]
    fn lowers_reinterpret_cast_with_dynamic_offset() {
        let (ctx, m) = run(r#"module {
  func.func @f(%m: memref<16x16xf32>, %off: index) {
    %base, %o, %s0, %s1, %t0, %t1 = "memref.extract_strided_metadata"(%m) : (memref<16x16xf32>) -> (memref<?xf32>, index, index, index, index, index)
    %rc = "memref.reinterpret_cast"(%base, %off) {static_offsets = [-9223372036854775808], static_sizes = [4, 4], static_strides = [16, 1]} : (memref<?xf32>, index) -> memref<4x4xf32, strided<[16, 1], offset: ?>>
    "test.use"(%rc) : (memref<4x4xf32, strided<[16, 1], offset: ?>>) -> ()
    func.return
  }
}"#);
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(!names.contains(&"memref.reinterpret_cast"), "{names:?}");
        assert!(
            !names.contains(&"memref.extract_strided_metadata"),
            "dead metadata op removed: {names:?}"
        );
        assert!(names.contains(&"llvm.getelementptr"));
    }

    #[test]
    fn nontrivial_subview_left_untouched() {
        let (ctx, m) = run(r#"module {
  func.func @f(%m: memref<16x16xf32>) {
    %sv = "memref.subview"(%m) {static_offsets = [2, 2], static_sizes = [4, 4], static_strides = [1, 1]} : (memref<16x16xf32>) -> memref<4x4xf32, strided<[16, 1], offset: 34>>
    "test.use"(%sv) : (memref<4x4xf32, strided<[16, 1], offset: 34>>) -> ()
    func.return
  }
}"#);
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(
            names.contains(&"memref.subview"),
            "non-trivial subview violates the pre-condition and must be left alone: {names:?}"
        );
    }

    #[test]
    fn trivial_subview_lowers_to_pointer_reuse() {
        let (ctx, m) = run(r#"module {
  func.func @f(%m: memref<16x16xf32>) {
    %sv = "memref.subview"(%m) {static_offsets = [0, 0], static_sizes = [4, 4], static_strides = [1, 1]} : (memref<16x16xf32>) -> memref<4x4xf32, strided<[16, 1], offset: 0>>
    "test.use"(%sv) : (memref<4x4xf32, strided<[16, 1], offset: 0>>) -> ()
    func.return
  }
}"#);
        let names: Vec<&str> = ctx
            .walk_nested(m)
            .iter()
            .map(|&o| ctx.op(o).name.as_str())
            .collect();
        assert!(!names.contains(&"memref.subview"), "{names:?}");
    }
}
