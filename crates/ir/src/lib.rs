#![warn(missing_docs)]

//! `td-ir`: an MLIR-like compiler IR infrastructure in Rust.
//!
//! This crate is the substrate on which the Transform dialect
//! (`td-transform`) is built. It provides:
//!
//! * a hierarchical, SSA-based, *mutable* IR ([`ir::Context`], operations /
//!   regions / blocks / values) stored in generational arenas so erased
//!   entities are detectably stale;
//! * interned [`types`] and by-value [`attrs`];
//! * dynamic op registration ([`dialect`]) — dialects are data, not code;
//! * a textual format: [`print`] and [`parse`] round-trip both a generic
//!   syntax (usable for *any* op) and custom syntax for common ops;
//! * structural [`verify`]cation including CFG dominance ([`analysis`]);
//! * pattern [`rewrite`] infrastructure with a greedy fixpoint driver and
//!   rewrite *events* (the hook the transform interpreter uses to keep
//!   handles valid across rewrites, §3.1 of the paper);
//! * a [`pass`] manager and by-name pass registry (the coarse-grained
//!   mechanism the Transform dialect refines, and the backing store of
//!   `transform.apply_registered_pass`), instrumented with trace spans,
//!   `Instrumentation` hooks, and env-driven IR snapshotting;
//! * cheap structural [`fingerprint`]ing for change detection
//!   (the `print-only-on-change` gate of the snapshot instrumentation).
//!
//! # Example
//!
//! ```
//! use td_ir::{Context, parse_module, print_op};
//! let mut ctx = Context::new();
//! let module = parse_module(&mut ctx, r#"module {
//!   %x = arith.constant 41 : i32
//!   %one = arith.constant 1 : i32
//!   %sum = "arith.addi"(%x, %one) : (i32, i32) -> i32
//! }"#).map_err(|e| e.to_string())?;
//! assert!(print_op(&ctx, module).contains("arith.addi"));
//! # Ok::<(), String>(())
//! ```

pub mod analysis;
pub mod attrs;
pub mod builder;
pub mod dialect;
pub mod fingerprint;
pub mod ir;
pub mod parse;
pub mod pass;
pub mod print;
pub mod rewrite;
pub mod types;
pub mod undo;
pub mod verify;

pub use attrs::{Attribute, FloatVal};
pub use builder::{InsertPoint, OpBuilder};
pub use dialect::{DialectRegistry, FoldResult, OpSpec, OpTraits};
pub use fingerprint::{fingerprint_op, structural_fingerprint_op};
pub use ir::{
    BlockId, BlockOps, Context, OpData, OpId, OperandList, RegionId, StorageStats, ValueDef,
    ValueId, Watermark,
};
pub use parse::{parse_module, parse_type_str};
pub use pass::{Pass, PassManager, PassRegistry};
pub use print::{print_attribute, print_op, print_type};
pub use rewrite::{
    apply_patterns_greedily, run_cse, run_dce, GreedyConfig, GreedyOutcome, PatternSet,
    RewriteEvent, RewritePattern, Rewriter,
};
pub use types::{Extent, TypeId, TypeKind};
pub use verify::verify;
