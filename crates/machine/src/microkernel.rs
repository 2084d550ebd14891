//! A LIBXSMM-like microkernel library and the matmul-nest recognizer
//! behind `transform.to_library` (Case Study 4).
//!
//! The library holds fixed-size high-throughput matmul kernels. The
//! [`td_transform::LibraryResolver`] implementation recognizes a perfectly
//! nested `(i, j, k)` matmul loop nest — including the offset point-loop
//! nests produced by tiling — and replaces it with a `func.call` that the
//! machine executes at near-peak FLOP throughput.

use td_dialects::arith::constant_int_value;
use td_dialects::scf;
use td_ir::{Attribute, Context, OpId, ValueId};
use td_support::{Diagnostic, Location, Symbol};
use td_transform::LibraryResolver;

/// Which matmul sizes the library implements.
#[derive(Clone, Debug)]
pub struct MicrokernelLibrary {
    /// Library name, matched against `transform.to_library`'s attribute.
    pub name: String,
    /// Maximum m/n dimension.
    pub max_mn: i64,
    /// m and n must be multiples of this (SIMD register blocking).
    pub mn_multiple: i64,
    /// Maximum reduction length.
    pub max_k: i64,
}

impl MicrokernelLibrary {
    /// The standard configuration used by the Case Study 4 experiments:
    /// kernels for m,n ∈ {8, 16, …, 64} (multiples of 8) and k ≤ 512.
    pub fn libxsmm() -> MicrokernelLibrary {
        MicrokernelLibrary {
            name: "libxsmm".to_owned(),
            max_mn: 64,
            mn_multiple: 8,
            max_k: 512,
        }
    }

    /// Whether a kernel for this size triple exists.
    pub fn supports(&self, m: i64, n: i64, k: i64) -> bool {
        m >= 1
            && n >= 1
            && k >= 1
            && m <= self.max_mn
            && n <= self.max_mn
            && m % self.mn_multiple == 0
            && n % self.mn_multiple == 0
            && k <= self.max_k
    }
}

/// A recognized matmul loop nest.
#[derive(Clone, Copy, Debug)]
pub struct MatmulNest {
    /// Tile extents.
    pub m: i64,
    /// Tile extents.
    pub n: i64,
    /// Reduction length.
    pub k: i64,
    /// The three memrefs.
    pub a: ValueId,
    /// Second operand.
    pub b: ValueId,
    /// Accumulator.
    pub c: ValueId,
    /// Row origin (the i loop's lower bound).
    pub i_lower: ValueId,
    /// Column origin (the j loop's lower bound).
    pub j_lower: ValueId,
}

/// Trip count of a loop whose upper bound is either static or
/// `lb + constant` (the form tiling produces for point loops).
fn span(ctx: &Context, for_op: scf::ForOp) -> Option<i64> {
    td_transform::loop_transforms::symbolic_trip_count(ctx, for_op)
}

/// Recognizes `for i { for j { for k { C[i,j] += A[i,k] * B[k,j] } } }`
/// rooted at `root` (bounds may be offset, as after tiling).
pub fn recognize_matmul(ctx: &Context, root: OpId) -> Option<MatmulNest> {
    let nest = td_transform::loop_transforms::perfect_nest(ctx, root);
    if nest.len() != 3 {
        return None;
    }
    let [li, lj, lk] = [nest[0], nest[1], nest[2]];
    let (m, n, k) = (span(ctx, li)?, span(ctx, lj)?, span(ctx, lk)?);
    // The k loop must cover the full reduction from 0.
    if constant_int_value(ctx, lk.lower) != Some(0) {
        return None;
    }
    // Body: exactly load, load, load, mulf, addf, store.
    let body = scf::body_ops(ctx, lk);
    if body.len() != 6 {
        return None;
    }
    let store = *body.last()?;
    if ctx.op(store).name.as_str() != "memref.store" {
        return None;
    }
    let stored = ctx.op(store).operands()[0];
    let c = ctx.op(store).operands()[1];
    let store_idx = (ctx.op(store).operands()[2], ctx.op(store).operands()[3]);
    if store_idx != (li.induction_var, lj.induction_var) {
        return None;
    }
    // stored = addf(x, y) with one side a load of C[i,j] and the other
    // mulf(load A[i,k], load B[k,j]).
    let add = ctx.defining_op(stored)?;
    if ctx.op(add).name.as_str() != "arith.addf" {
        return None;
    }
    let mut c_load = None;
    let mut mul = None;
    for &side in ctx.op(add).operands() {
        let def = ctx.defining_op(side)?;
        match ctx.op(def).name.as_str() {
            "memref.load" => c_load = Some(def),
            "arith.mulf" => mul = Some(def),
            _ => return None,
        }
    }
    let (c_load, mul) = (c_load?, mul?);
    if ctx.op(c_load).operands()[0] != c {
        return None;
    }
    if (ctx.op(c_load).operands()[1], ctx.op(c_load).operands()[2]) != store_idx {
        return None;
    }
    let mut a = None;
    let mut b = None;
    for &factor in ctx.op(mul).operands() {
        let load = ctx.defining_op(factor)?;
        if ctx.op(load).name.as_str() != "memref.load" {
            return None;
        }
        let idx = (ctx.op(load).operands()[1], ctx.op(load).operands()[2]);
        if idx == (li.induction_var, lk.induction_var) {
            a = Some(ctx.op(load).operands()[0]);
        } else if idx == (lk.induction_var, lj.induction_var) {
            b = Some(ctx.op(load).operands()[0]);
        } else {
            return None;
        }
    }
    Some(MatmulNest {
        m,
        n,
        k,
        a: a?,
        b: b?,
        c,
        i_lower: li.lower,
        j_lower: lj.lower,
    })
}

impl LibraryResolver for MicrokernelLibrary {
    fn try_replace(
        &self,
        ctx: &mut Context,
        root: OpId,
        library: &str,
    ) -> Result<OpId, Diagnostic> {
        let location = ctx.op(root).location.clone();
        if library != self.name {
            return Err(Diagnostic::error(
                location,
                format!("library '{library}' is not linked (have '{}')", self.name),
            ));
        }
        let Some(nest) = recognize_matmul(ctx, root) else {
            return Err(Diagnostic::error(
                location,
                "target is not a recognizable matmul loop nest",
            ));
        };
        if !self.supports(nest.m, nest.n, nest.k) {
            return Err(Diagnostic::error(
                location,
                format!(
                    "{} has no kernel for {}x{}x{}",
                    self.name, nest.m, nest.n, nest.k
                ),
            ));
        }
        let callee = format!("xsmm_{}x{}x{}", nest.m, nest.n, nest.k);
        let call = ctx.create_op(
            Location::name(&callee),
            "func.call",
            [nest.a, nest.b, nest.c, nest.i_lower, nest.j_lower],
            vec![],
            vec![
                (
                    Symbol::new("callee"),
                    Attribute::SymbolRef(Symbol::new(&callee)),
                ),
                (Symbol::new("microkernel"), Attribute::Unit),
                (
                    Symbol::new("kernel_sizes"),
                    Attribute::int_array([nest.m, nest.n, nest.k]),
                ),
            ],
            0,
        );
        ctx.insert_op_before(root, call);
        ctx.erase_op(root);
        Ok(call)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_ir::parse_module;

    const MATMUL: &str = r#"module {
  func.func @mm(%a: memref<32x48xf32>, %b: memref<48x32xf32>, %c: memref<32x32xf32>) {
    %lo = arith.constant 0 : index
    %m = arith.constant 32 : index
    %n = arith.constant 32 : index
    %k = arith.constant 48 : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %m step %st {
      scf.for %j = %lo to %n step %st {
        scf.for %kk = %lo to %k step %st {
          %av = "memref.load"(%a, %i, %kk) : (memref<32x48xf32>, index, index) -> f32
          %bv = "memref.load"(%b, %kk, %j) : (memref<48x32xf32>, index, index) -> f32
          %cv = "memref.load"(%c, %i, %j) : (memref<32x32xf32>, index, index) -> f32
          %p = "arith.mulf"(%av, %bv) : (f32, f32) -> f32
          %s = "arith.addf"(%cv, %p) : (f32, f32) -> f32
          "memref.store"(%s, %c, %i, %j) : (f32, memref<32x32xf32>, index, index) -> ()
        }
      }
    }
    func.return
  }
}"#;

    fn parse(src: &str) -> (Context, OpId) {
        let mut ctx = Context::new();
        td_dialects::register_all_dialects(&mut ctx);
        let m = parse_module(&mut ctx, src).unwrap();
        (ctx, m)
    }

    #[test]
    fn recognizes_canonical_matmul() {
        let (ctx, m) = parse(MATMUL);
        let root = scf::collect_loops(&ctx, m)[0];
        let nest = recognize_matmul(&ctx, root).expect("recognized");
        assert_eq!((nest.m, nest.n, nest.k), (32, 32, 48));
    }

    #[test]
    fn rejects_non_matmul_bodies() {
        let (ctx, m) = parse(&MATMUL.replace("arith.mulf", "arith.divf"));
        let root = scf::collect_loops(&ctx, m)[0];
        assert!(recognize_matmul(&ctx, root).is_none());
    }

    #[test]
    fn library_size_filter() {
        let lib = MicrokernelLibrary::libxsmm();
        assert!(lib.supports(32, 32, 48));
        assert!(lib.supports(8, 64, 512));
        assert!(!lib.supports(5, 32, 48), "m not a multiple of 8");
        assert!(!lib.supports(128, 32, 48), "m too large");
        assert!(!lib.supports(32, 32, 1024), "k too large");
    }

    #[test]
    fn replacement_creates_microkernel_call() {
        let (mut ctx, m) = parse(MATMUL);
        let root = scf::collect_loops(&ctx, m)[0];
        let lib = MicrokernelLibrary::libxsmm();
        let call = lib
            .try_replace(&mut ctx, root, "libxsmm")
            .expect("replaced");
        assert_eq!(ctx.op(call).name.as_str(), "func.call");
        assert_eq!(
            ctx.op(call).attr("kernel_sizes"),
            Some(&Attribute::int_array([32, 32, 48]))
        );
        assert!(scf::collect_loops(&ctx, m).is_empty(), "nest replaced");
        assert!(td_ir::verify::verify(&ctx, m).is_ok());
    }

    #[test]
    fn wrong_library_name_fails() {
        let (mut ctx, m) = parse(MATMUL);
        let root = scf::collect_loops(&ctx, m)[0];
        let lib = MicrokernelLibrary::libxsmm();
        let err = lib.try_replace(&mut ctx, root, "mkl").unwrap_err();
        assert!(err.message().contains("not linked"));
    }

    #[test]
    fn execution_matches_loop_nest() {
        use crate::interp::{run_function_with_buffers, ArgBuilder, ExecConfig};
        // Run the loop nest, then the microkernel version; same C.
        let run = |replace: bool| -> (Vec<f64>, f64) {
            let (mut ctx, m) = parse(MATMUL);
            if replace {
                let root = scf::collect_loops(&ctx, m)[0];
                MicrokernelLibrary::libxsmm()
                    .try_replace(&mut ctx, root, "libxsmm")
                    .unwrap();
            }
            let mut args = ArgBuilder::new();
            let a = args.buffer((0..32 * 48).map(|i| (i % 7) as f64).collect());
            let b = args.buffer((0..48 * 32).map(|i| (i % 5) as f64 - 2.0).collect());
            let c = args.buffer(vec![0.0; 32 * 32]);
            let buffers = args.into_buffers();
            let (_, buffers, report) = run_function_with_buffers(
                &ctx,
                m,
                "mm",
                vec![a, b, c],
                buffers,
                ExecConfig::default(),
                Some(&MicrokernelLibrary::libxsmm()),
            )
            .unwrap();
            (buffers[2].clone(), report.cycles)
        };
        let (loop_c, loop_cycles) = run(false);
        let (kernel_c, kernel_cycles) = run(true);
        assert_eq!(loop_c, kernel_c, "identical results");
        assert!(
            kernel_cycles * 4.0 < loop_cycles,
            "microkernel should be much faster: {kernel_cycles} vs {loop_cycles}"
        );
    }
}
