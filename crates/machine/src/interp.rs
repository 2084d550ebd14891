//! The payload-IR evaluator: executes `func`/`scf`/`arith`/`memref`/`math`
//! (and the lowered `cf`/`llvm`) dialects over simulated memory, charging
//! cycles through the cache simulator and a per-op cost model.
//!
//! This is the workspace's stand-in for running generated code on real
//! hardware: transformations change *simulated cycles* the way they change
//! wall-clock time on a machine (loop overhead, locality, microkernel
//! throughput), which is what the Case Study 4/5 experiments measure.

use crate::cache::{CacheConfig, CacheSim, LevelStats};
use crate::microkernel::MicrokernelLibrary;
use std::collections::HashMap;
use td_dialects::memref::memref_info;
use td_ir::{Attribute, BlockId, Context, OpId, RegionId, TypeKind, ValueId};
use td_support::Diagnostic;

/// A runtime value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RtValue {
    /// Integer (also `index` and booleans-as-i1 when compared).
    Int(i64),
    /// Floating point (f32 and f64 share this representation).
    Float(f64),
    /// Boolean (i1).
    Bool(bool),
    /// Pointer into simulated memory: buffer id + element offset.
    Ptr(MemPtr),
    /// Absent value.
    Unit,
}

/// A pointer into simulated memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemPtr {
    /// Buffer index in the machine's buffer table.
    pub buffer: usize,
    /// Element offset from the buffer start.
    pub offset: i64,
}

impl RtValue {
    fn as_int(self) -> Result<i64, String> {
        match self {
            RtValue::Int(v) => Ok(v),
            RtValue::Bool(b) => Ok(b as i64),
            other => Err(format!("expected an integer, found {other:?}")),
        }
    }
    fn as_float(self) -> Result<f64, String> {
        match self {
            RtValue::Float(v) => Ok(v),
            other => Err(format!("expected a float, found {other:?}")),
        }
    }
    fn as_bool(self) -> Result<bool, String> {
        match self {
            RtValue::Bool(b) => Ok(b),
            RtValue::Int(v) => Ok(v != 0),
            other => Err(format!("expected a boolean, found {other:?}")),
        }
    }
    fn as_ptr(self) -> Result<MemPtr, String> {
        match self {
            RtValue::Ptr(p) => Ok(p),
            other => Err(format!("expected a memref/pointer, found {other:?}")),
        }
    }
}

/// Per-operation cycle costs.
#[derive(Clone, Copy, Debug)]
pub struct CostConfig {
    /// Integer ALU op.
    pub int_op: f64,
    /// Float add/sub/cmp.
    pub float_add: f64,
    /// Float multiply.
    pub float_mul: f64,
    /// Float divide.
    pub float_div: f64,
    /// Transcendental (`math.*`).
    pub math_fn: f64,
    /// Branch / loop back-edge overhead per iteration.
    pub loop_iteration: f64,
    /// Function call overhead.
    pub call: f64,
    /// Allocation overhead.
    pub alloc: f64,
    /// Microkernel floating-point throughput (flops per cycle) — the
    /// SIMD/pipelined rate a hand-tuned kernel achieves, vs. 1 scalar flop
    /// per `float_*` cost for interpreted loops.
    pub kernel_flops_per_cycle: f64,
}

impl Default for CostConfig {
    fn default() -> Self {
        CostConfig {
            int_op: 1.0,
            float_add: 1.0,
            float_mul: 1.0,
            float_div: 8.0,
            math_fn: 20.0,
            loop_iteration: 2.0,
            call: 20.0,
            alloc: 50.0,
            kernel_flops_per_cycle: 8.0,
        }
    }
}

/// Evaluator configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExecConfig {
    /// Cache hierarchy.
    pub cache: CacheConfig,
    /// Cost model.
    pub costs: CostConfig,
    /// Safety bound on executed operations.
    pub max_steps: u64,
    /// Simulated clock frequency, used by [`ExecReport::seconds`].
    pub clock_hz: f64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            cache: CacheConfig::default(),
            costs: CostConfig::default(),
            max_steps: 500_000_000,
            clock_hz: 1.0e9,
        }
    }
}

/// Execution outcome: cycle count and cache statistics.
#[derive(Clone, Copy, Debug)]
pub struct ExecReport {
    /// Total simulated cycles.
    pub cycles: f64,
    /// Operations executed.
    pub instructions: u64,
    /// L1 statistics.
    pub l1: LevelStats,
    /// L2 statistics.
    pub l2: LevelStats,
    /// Clock used for [`ExecReport::seconds`].
    pub clock_hz: f64,
}

impl ExecReport {
    /// Simulated wall-clock seconds.
    pub fn seconds(&self) -> f64 {
        self.cycles / self.clock_hz
    }
}

/// Runs `@name` in `module` with the given arguments.
///
/// # Errors
/// Returns a diagnostic on missing functions, type errors, out-of-bounds
/// accesses, or exceeding the step budget.
pub fn run_function(
    ctx: &Context,
    module: OpId,
    name: &str,
    args: Vec<RtValue>,
    config: ExecConfig,
    library: Option<&MicrokernelLibrary>,
) -> Result<(Vec<RtValue>, ExecReport), Diagnostic> {
    let mut machine = Machine {
        ctx,
        module,
        cache: CacheSim::new(config.cache),
        config,
        library,
        buffers: Vec::new(),
        env: HashMap::new(),
        cycles: 0.0,
        instructions: 0,
    };
    let results = machine.call(name, args).map_err(|message| {
        Diagnostic::error(
            ctx.op(module).location.clone(),
            format!("execution failed: {message}"),
        )
    })?;
    let report = ExecReport {
        cycles: machine.cycles,
        instructions: machine.instructions,
        l1: machine.cache.l1_stats(),
        l2: machine.cache.l2_stats(),
        clock_hz: config.clock_hz,
    };
    Ok((results, report))
}

/// Allocates a buffer and returns a value for it — used by harnesses to
/// pass pre-filled memrefs as function arguments.
pub struct ArgBuilder {
    buffers: Vec<Vec<f64>>,
}

impl ArgBuilder {
    /// Creates an empty argument builder.
    pub fn new() -> ArgBuilder {
        ArgBuilder {
            buffers: Vec::new(),
        }
    }

    /// Adds a buffer with the given contents; returns its argument value.
    pub fn buffer(&mut self, data: Vec<f64>) -> RtValue {
        self.buffers.push(data);
        RtValue::Ptr(MemPtr {
            buffer: self.buffers.len() - 1,
            offset: 0,
        })
    }

    /// The buffers, to be passed to [`run_function_with_buffers`].
    pub fn into_buffers(self) -> Vec<Vec<f64>> {
        self.buffers
    }
}

impl Default for ArgBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Like [`run_function`] but with caller-provided initial buffers (indices
/// match the `MemPtr::buffer` fields of pointer arguments). Returns the
/// final buffer contents as well.
#[allow(clippy::too_many_arguments)]
pub fn run_function_with_buffers(
    ctx: &Context,
    module: OpId,
    name: &str,
    args: Vec<RtValue>,
    buffers: Vec<Vec<f64>>,
    config: ExecConfig,
    library: Option<&MicrokernelLibrary>,
) -> Result<(Vec<RtValue>, Vec<Vec<f64>>, ExecReport), Diagnostic> {
    let mut machine = Machine {
        ctx,
        module,
        cache: CacheSim::new(config.cache),
        config,
        library,
        buffers,
        env: HashMap::new(),
        cycles: 0.0,
        instructions: 0,
    };
    let results = machine.call(name, args).map_err(|message| {
        Diagnostic::error(
            ctx.op(module).location.clone(),
            format!("execution failed: {message}"),
        )
    })?;
    let report = ExecReport {
        cycles: machine.cycles,
        instructions: machine.instructions,
        l1: machine.cache.l1_stats(),
        l2: machine.cache.l2_stats(),
        clock_hz: config.clock_hz,
    };
    Ok((results, machine.buffers, report))
}

enum Flow {
    /// Continue with the next op.
    Next,
    /// Branch to a block with arguments.
    Branch(BlockId, Vec<RtValue>),
    /// Leave the region with these results.
    Return(Vec<RtValue>),
}

struct Machine<'c> {
    ctx: &'c Context,
    module: OpId,
    cache: CacheSim,
    config: ExecConfig,
    library: Option<&'c MicrokernelLibrary>,
    buffers: Vec<Vec<f64>>,
    env: HashMap<ValueId, RtValue>,
    cycles: f64,
    instructions: u64,
}

impl Machine<'_> {
    fn call(&mut self, name: &str, args: Vec<RtValue>) -> Result<Vec<RtValue>, String> {
        let func = self
            .ctx
            .lookup_symbol(self.module, name)
            .ok_or_else(|| format!("unknown function @{name}"))?;
        self.cycles += self.config.costs.call;
        let region = self.ctx.op(func).regions()[0];
        self.run_region(region, args)
    }

    fn value(&self, v: ValueId) -> Result<RtValue, String> {
        self.env
            .get(&v)
            .copied()
            .ok_or_else(|| "use of unevaluated value".to_owned())
    }

    fn set(&mut self, v: ValueId, value: RtValue) {
        self.env.insert(v, value);
    }

    fn step(&mut self) -> Result<(), String> {
        self.instructions += 1;
        if self.instructions > self.config.max_steps {
            return Err("step budget exceeded (runaway loop?)".to_owned());
        }
        Ok(())
    }

    fn run_region(&mut self, region: RegionId, args: Vec<RtValue>) -> Result<Vec<RtValue>, String> {
        let mut block = *self
            .ctx
            .region(region)
            .blocks()
            .first()
            .ok_or_else(|| "cannot execute an empty region".to_owned())?;
        let mut incoming = args;
        loop {
            let params = self.ctx.block(block).args().to_vec();
            if params.len() != incoming.len() {
                return Err(format!(
                    "block expects {} arguments, got {}",
                    params.len(),
                    incoming.len()
                ));
            }
            for (&p, &v) in params.iter().zip(incoming.iter()) {
                self.set(p, v);
            }
            let ops = self.ctx.block_ops(block).collect::<Vec<_>>();
            let mut next: Option<Flow> = None;
            for op in ops {
                self.step()?;
                match self.execute(op)? {
                    Flow::Next => {}
                    other => {
                        next = Some(other);
                        break;
                    }
                }
            }
            match next {
                Some(Flow::Branch(dest, values)) => {
                    self.cycles += self.config.costs.int_op;
                    block = dest;
                    incoming = values;
                }
                Some(Flow::Return(values)) => return Ok(values),
                Some(Flow::Next) | None => return Ok(vec![]),
            }
        }
    }

    /// Element address for the cache simulator.
    fn address(ptr: MemPtr, linear: i64) -> u64 {
        ((ptr.buffer as u64) << 40) | (((ptr.offset + linear) as u64) * 8)
    }

    fn mem_load(&mut self, ptr: MemPtr, linear: i64) -> Result<f64, String> {
        self.cycles += self.cache.access(Self::address(ptr, linear));
        let buffer = self
            .buffers
            .get(ptr.buffer)
            .ok_or_else(|| "dangling buffer".to_owned())?;
        let index = ptr.offset + linear;
        buffer.get(index as usize).copied().ok_or_else(|| {
            format!(
                "load out of bounds: element {index} of buffer {}",
                ptr.buffer
            )
        })
    }

    fn mem_store(&mut self, ptr: MemPtr, linear: i64, value: f64) -> Result<(), String> {
        self.cycles += self.cache.access(Self::address(ptr, linear));
        let buffer_len = self.buffers.get(ptr.buffer).map(Vec::len).unwrap_or(0);
        let index = ptr.offset + linear;
        if index < 0 || index as usize >= buffer_len {
            return Err(format!(
                "store out of bounds: element {index} of buffer {} (len {buffer_len})",
                ptr.buffer
            ));
        }
        self.buffers[ptr.buffer][index as usize] = value;
        Ok(())
    }

    /// Computes the linear element offset of an access through a memref
    /// value, from the *type*'s strides (the runtime pointer carries the
    /// base offset).
    fn linear_offset(&self, memref: ValueId, indices: &[RtValue]) -> Result<i64, String> {
        let ty = self.ctx.value_type(memref);
        let (_, _, _, strides) =
            memref_info(self.ctx, ty).ok_or_else(|| "not a memref".to_owned())?;
        let mut linear = 0;
        for (value, stride) in indices.iter().zip(strides.iter()) {
            let stride = stride
                .as_static()
                .ok_or_else(|| "dynamic stride".to_owned())?;
            linear += value.as_int()? * stride;
        }
        Ok(linear)
    }

    #[allow(clippy::too_many_lines)]
    fn execute(&mut self, op: OpId) -> Result<Flow, String> {
        let data = self.ctx.op(op);
        let name = data.name.as_str();
        let costs = self.config.costs;
        match name {
            // ----- constants and integer arithmetic -----------------------
            "arith.constant" | "llvm.mlir.constant" => {
                let result = data.results()[0];
                let ty = self.ctx.value_type(result);
                let attr = data.attr("value").ok_or("constant without value")?;
                let value = match (self.ctx.type_kind(ty), attr) {
                    (TypeKind::F32 | TypeKind::F64, a) => RtValue::Float(
                        a.as_float()
                            .or_else(|| a.as_int().map(|v| v as f64))
                            .ok_or("bad float constant")?,
                    ),
                    (TypeKind::Integer(1), a) => RtValue::Bool(
                        a.as_bool()
                            .or_else(|| a.as_int().map(|v| v != 0))
                            .ok_or("bad bool constant")?,
                    ),
                    (_, a) => RtValue::Int(a.as_int().ok_or("bad integer constant")?),
                };
                self.cycles += costs.int_op;
                self.set(result, value);
            }
            "arith.addi" | "arith.subi" | "arith.muli" | "arith.divsi" | "arith.remsi"
            | "arith.minsi" | "arith.maxsi" | "arith.shli" | "llvm.add" | "llvm.sub"
            | "llvm.mul" | "llvm.sdiv" | "llvm.srem" | "llvm.shl" => {
                let l = self.value(data.operands()[0])?.as_int()?;
                let r = self.value(data.operands()[1])?.as_int()?;
                let v = match name {
                    "arith.addi" | "llvm.add" => l.wrapping_add(r),
                    "arith.subi" | "llvm.sub" => l.wrapping_sub(r),
                    "arith.muli" | "llvm.mul" => l.wrapping_mul(r),
                    "arith.divsi" | "llvm.sdiv" => {
                        if r == 0 {
                            return Err("division by zero".to_owned());
                        }
                        l / r
                    }
                    "arith.remsi" | "llvm.srem" => {
                        if r == 0 {
                            return Err("remainder by zero".to_owned());
                        }
                        l % r
                    }
                    "arith.minsi" => l.min(r),
                    "arith.maxsi" => l.max(r),
                    _ => l.wrapping_shl(r as u32),
                };
                self.cycles += costs.int_op;
                self.set(data.results()[0], RtValue::Int(v));
            }
            "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" | "arith.maximumf"
            | "llvm.fadd" | "llvm.fsub" | "llvm.fmul" | "llvm.fdiv" => {
                let l = self.value(data.operands()[0])?.as_float()?;
                let r = self.value(data.operands()[1])?.as_float()?;
                let (v, cost) = match name {
                    "arith.addf" | "llvm.fadd" => (l + r, costs.float_add),
                    "arith.subf" | "llvm.fsub" => (l - r, costs.float_add),
                    "arith.mulf" | "llvm.fmul" => (l * r, costs.float_mul),
                    "arith.maximumf" => (l.max(r), costs.float_add),
                    _ => {
                        if r == 0.0 {
                            (f64::INFINITY, costs.float_div)
                        } else {
                            (l / r, costs.float_div)
                        }
                    }
                };
                self.cycles += cost;
                self.set(data.results()[0], RtValue::Float(v));
            }
            "arith.cmpi" | "llvm.icmp" => {
                let l = self.value(data.operands()[0])?.as_int()?;
                let r = self.value(data.operands()[1])?.as_int()?;
                let predicate = data
                    .attr("predicate")
                    .and_then(|a| a.as_str().map(str::to_owned))
                    .unwrap_or_default();
                let v = match predicate.as_str() {
                    "eq" => l == r,
                    "ne" => l != r,
                    "slt" => l < r,
                    "sle" => l <= r,
                    "sgt" => l > r,
                    "sge" => l >= r,
                    other => return Err(format!("unknown predicate {other}")),
                };
                self.cycles += costs.int_op;
                self.set(data.results()[0], RtValue::Bool(v));
            }
            "arith.select" | "llvm.select" => {
                let c = self.value(data.operands()[0])?.as_bool()?;
                let v = if c {
                    self.value(data.operands()[1])?
                } else {
                    self.value(data.operands()[2])?
                };
                self.cycles += costs.int_op;
                self.set(data.results()[0], v);
            }
            "arith.index_cast"
            | "llvm.bitcast"
            | "builtin.unrealized_conversion_cast"
            | "memref.cast"
            | "llvm.ptrtoint"
            | "llvm.inttoptr" => {
                let v = self.value(data.operands()[0])?;
                self.set(data.results()[0], v);
            }
            // ----- math ----------------------------------------------------
            "math.exp" | "math.tanh" | "math.sqrt" | "math.rsqrt" | "math.sigmoid"
            | "math.absf" => {
                let x = self.value(data.operands()[0])?.as_float()?;
                let v = match name {
                    "math.exp" => x.exp(),
                    "math.tanh" => x.tanh(),
                    "math.sqrt" => x.sqrt(),
                    "math.rsqrt" => 1.0 / x.sqrt(),
                    "math.sigmoid" => 1.0 / (1.0 + (-x).exp()),
                    _ => x.abs(),
                };
                self.cycles += costs.math_fn;
                self.set(data.results()[0], RtValue::Float(v));
            }
            // ----- memory --------------------------------------------------
            "memref.alloc" => {
                let result = data.results()[0];
                let ty = self.ctx.value_type(result);
                let (shape, ..) = memref_info(self.ctx, ty).ok_or("alloc of non-memref")?;
                let mut total: i64 = 1;
                let mut dynamic_iter = data.operands().iter();
                for extent in &shape {
                    total *= match extent.as_static() {
                        Some(d) => d,
                        None => self
                            .value(*dynamic_iter.next().ok_or("missing dynamic extent")?)?
                            .as_int()?,
                    };
                }
                let init = data
                    .attr("init")
                    .and_then(Attribute::as_float)
                    .or_else(|| {
                        data.attr("init")
                            .and_then(Attribute::as_int)
                            .map(|v| v as f64)
                    })
                    .unwrap_or(0.0);
                self.cycles += costs.alloc;
                self.buffers.push(vec![init; total.max(0) as usize]);
                self.set(
                    result,
                    RtValue::Ptr(MemPtr {
                        buffer: self.buffers.len() - 1,
                        offset: 0,
                    }),
                );
            }
            "memref.dealloc" => {
                // Buffers are reclaimed wholesale at the end of execution.
            }
            "memref.load" => {
                let ptr = self.value(data.operands()[0])?.as_ptr()?;
                let indices: Vec<RtValue> = data.operands()[1..]
                    .iter()
                    .map(|&v| self.value(v))
                    .collect::<Result<_, _>>()?;
                let linear = self.linear_offset(data.operands()[0], &indices)?;
                let v = self.mem_load(ptr, linear)?;
                self.set(data.results()[0], RtValue::Float(v));
            }
            "memref.store" => {
                let value = self.value(data.operands()[0])?.as_float()?;
                let ptr = self.value(data.operands()[1])?.as_ptr()?;
                let indices: Vec<RtValue> = data.operands()[2..]
                    .iter()
                    .map(|&v| self.value(v))
                    .collect::<Result<_, _>>()?;
                let linear = self.linear_offset(data.operands()[1], &indices)?;
                self.mem_store(ptr, linear, value)?;
            }
            "memref.subview" => {
                let source = self.value(data.operands()[0])?.as_ptr()?;
                let (offsets, ..) = td_dialects::memref::static_triple(self.ctx, op)
                    .ok_or("subview without static triple")?;
                let src_ty = self.ctx.value_type(data.operands()[0]);
                let (_, _, _, strides) =
                    memref_info(self.ctx, src_ty).ok_or("subview of non-memref")?;
                let mut dynamic_iter = data.operands()[1..].iter();
                let mut delta = 0;
                for (i, &o) in offsets.iter().enumerate() {
                    let o = if o == td_dialects::memref::DYNAMIC {
                        self.value(*dynamic_iter.next().ok_or("missing dynamic offset")?)?
                            .as_int()?
                    } else {
                        o
                    };
                    let stride = strides[i].as_static().ok_or("dynamic source stride")?;
                    delta += o * stride;
                }
                self.cycles += costs.int_op;
                self.set(
                    data.results()[0],
                    RtValue::Ptr(MemPtr {
                        buffer: source.buffer,
                        offset: source.offset + delta,
                    }),
                );
            }
            "memref.reinterpret_cast" => {
                let source = self.value(data.operands()[0])?.as_ptr()?;
                let (offsets, ..) = td_dialects::memref::static_triple(self.ctx, op)
                    .ok_or("reinterpret_cast without static triple")?;
                let delta = match offsets.first().copied() {
                    Some(td_dialects::memref::DYNAMIC) => {
                        self.value(data.operands()[1])?.as_int()?
                    }
                    Some(static_offset) => static_offset,
                    None => 0,
                };
                self.set(
                    data.results()[0],
                    RtValue::Ptr(MemPtr {
                        buffer: source.buffer,
                        offset: source.offset + delta,
                    }),
                );
            }
            "memref.extract_strided_metadata" => {
                let source = self.value(data.operands()[0])?.as_ptr()?;
                let results = data.results().to_vec();
                self.set(
                    results[0],
                    RtValue::Ptr(MemPtr {
                        buffer: source.buffer,
                        offset: 0,
                    }),
                );
                if results.len() > 1 {
                    self.set(results[1], RtValue::Int(source.offset));
                }
                // Sizes and strides from the source type.
                let (shape, _, _, strides) =
                    memref_info(self.ctx, self.ctx.value_type(data.operands()[0]))
                        .ok_or("metadata of non-memref")?;
                let rank = shape.len();
                for (i, extent) in shape.iter().enumerate() {
                    if let Some(&r) = results.get(2 + i) {
                        self.set(r, RtValue::Int(extent.as_static().unwrap_or(0)));
                    }
                    if let Some(&r) = results.get(2 + rank + i) {
                        self.set(r, RtValue::Int(strides[i].as_static().unwrap_or(0)));
                    }
                }
            }
            "memref.copy" => {
                let src = self.value(data.operands()[0])?.as_ptr()?;
                let dst = self.value(data.operands()[1])?.as_ptr()?;
                let src_len = self.buffers[src.buffer].len() as i64 - src.offset;
                let dst_len = self.buffers[dst.buffer].len() as i64 - dst.offset;
                let n = src_len.min(dst_len).max(0);
                for i in 0..n {
                    let v = self.mem_load(src, i)?;
                    self.mem_store(dst, i, v)?;
                }
            }
            "memref.dim" => {
                let index = data.attr("index").and_then(Attribute::as_int).unwrap_or(0);
                let (shape, ..) = memref_info(self.ctx, self.ctx.value_type(data.operands()[0]))
                    .ok_or("dim of non-memref")?;
                let extent = shape
                    .get(index as usize)
                    .and_then(|e| e.as_static())
                    .ok_or("dynamic or out-of-range dim")?;
                self.set(data.results()[0], RtValue::Int(extent));
            }
            "memref.extract_aligned_pointer_as_index" => {
                let source = self.value(data.operands()[0])?.as_ptr()?;
                self.set(data.results()[0], RtValue::Int(source.offset));
            }
            // ----- llvm memory --------------------------------------------
            "llvm.getelementptr" => {
                let base = self.value(data.operands()[0])?.as_ptr()?;
                let offset = self.value(data.operands()[1])?.as_int()?;
                self.cycles += costs.int_op;
                self.set(
                    data.results()[0],
                    RtValue::Ptr(MemPtr {
                        buffer: base.buffer,
                        offset: base.offset + offset,
                    }),
                );
            }
            "llvm.load" => {
                let ptr = self.value(data.operands()[0])?.as_ptr()?;
                let v = self.mem_load(ptr, 0)?;
                self.set(data.results()[0], RtValue::Float(v));
            }
            "llvm.store" => {
                let value = self.value(data.operands()[0])?.as_float()?;
                let ptr = self.value(data.operands()[1])?.as_ptr()?;
                self.mem_store(ptr, 0, value)?;
            }
            "llvm.alloca" => {
                let size = match data.operands().first() {
                    Some(&v) => self.value(v)?.as_int()?,
                    None => 1,
                };
                self.buffers.push(vec![0.0; size.max(0) as usize]);
                self.set(
                    data.results()[0],
                    RtValue::Ptr(MemPtr {
                        buffer: self.buffers.len() - 1,
                        offset: 0,
                    }),
                );
            }
            "llvm.mlir.undef" => {
                self.set(data.results()[0], RtValue::Float(0.0));
            }
            // ----- control flow -------------------------------------------
            "scf.for" => {
                let for_op = td_dialects::scf::as_for(self.ctx, op).ok_or("malformed scf.for")?;
                let lower = self.value(for_op.lower)?.as_int()?;
                let upper = self.value(for_op.upper)?.as_int()?;
                let step = self.value(for_op.step)?.as_int()?;
                if step <= 0 {
                    return Err("non-positive loop step".to_owned());
                }
                let region = self.ctx.op(op).regions()[0];
                let mut iv = lower;
                while iv < upper {
                    self.cycles += costs.loop_iteration;
                    self.run_region(region, vec![RtValue::Int(iv)])?;
                    iv += step;
                }
            }
            "scf.forall" => {
                // Executed sequentially (single simulated core).
                let for_op =
                    td_dialects::scf::as_for(self.ctx, op).ok_or("malformed scf.forall")?;
                let lower = self.value(for_op.lower)?.as_int()?;
                let upper = self.value(for_op.upper)?.as_int()?;
                let step = self.value(for_op.step)?.as_int()?.max(1);
                let region = self.ctx.op(op).regions()[0];
                let mut iv = lower;
                while iv < upper {
                    self.cycles += costs.loop_iteration;
                    self.run_region(region, vec![RtValue::Int(iv)])?;
                    iv += step;
                }
            }
            "scf.if" => {
                let condition = self.value(data.operands()[0])?.as_bool()?;
                self.cycles += costs.int_op;
                let regions = data.regions().to_vec();
                if condition {
                    self.run_region(regions[0], vec![])?;
                } else if let Some(&else_region) = regions.get(1) {
                    if !self.ctx.region(else_region).blocks().is_empty() {
                        self.run_region(else_region, vec![])?;
                    }
                }
            }
            "scf.yield" => return Ok(Flow::Return(vec![])),
            "func.return" | "llvm.return" => {
                let values: Vec<RtValue> = data
                    .operands()
                    .iter()
                    .map(|&v| self.value(v))
                    .collect::<Result<_, _>>()?;
                return Ok(Flow::Return(values));
            }
            "cf.br" | "llvm.br" => {
                let dest = data.successors()[0];
                let args = td_dialects::cf::successor_args(self.ctx, op)[0]
                    .iter()
                    .map(|&v| self.value(v))
                    .collect::<Result<Vec<_>, _>>()?;
                return Ok(Flow::Branch(dest, args));
            }
            "cf.cond_br" | "llvm.cond_br" => {
                let condition = self.value(data.operands()[0])?.as_bool()?;
                let successor_args = td_dialects::cf::successor_args(self.ctx, op);
                let index = if condition { 0 } else { 1 };
                let dest = data.successors()[index];
                let args = successor_args[index]
                    .iter()
                    .map(|&v| self.value(v))
                    .collect::<Result<Vec<_>, _>>()?;
                self.cycles += costs.int_op;
                return Ok(Flow::Branch(dest, args));
            }
            // ----- calls ---------------------------------------------------
            "func.call" | "llvm.call" => {
                let callee = data
                    .attr("callee")
                    .and_then(Attribute::as_symbol)
                    .ok_or("call without callee")?;
                let callee_name = callee.as_str();
                let args: Vec<RtValue> = data
                    .operands()
                    .iter()
                    .map(|&v| self.value(v))
                    .collect::<Result<_, _>>()?;
                match callee_name {
                    "malloc" => {
                        let size = args[0].as_int()?;
                        self.cycles += costs.alloc;
                        self.buffers.push(vec![0.0; size.max(0) as usize]);
                        self.set(
                            data.results()[0],
                            RtValue::Ptr(MemPtr {
                                buffer: self.buffers.len() - 1,
                                offset: 0,
                            }),
                        );
                    }
                    "free" => {}
                    _ if data.attr("microkernel").is_some() => {
                        self.run_microkernel(op, &args)?;
                    }
                    _ if self.ctx.lookup_symbol(self.module, callee_name).is_some() => {
                        let results = self.call(callee_name, args)?;
                        for (&r, v) in data.results().iter().zip(results) {
                            self.set(r, v);
                        }
                    }
                    _ => {
                        // Unknown external: charge call overhead, produce
                        // zeros (models e.g. `@use` sinks).
                        self.cycles += costs.call;
                        for &r in data.results() {
                            let ty = self.ctx.value_type(r);
                            let v = match self.ctx.type_kind(ty) {
                                TypeKind::F32 | TypeKind::F64 => RtValue::Float(0.0),
                                _ => RtValue::Int(0),
                            };
                            self.set(r, v);
                        }
                    }
                }
            }
            // ----- structure -----------------------------------------------
            "func.func" | "llvm.func" | "builtin.module" => {
                return Err(format!("cannot execute '{name}' inline"));
            }
            other => {
                return Err(format!("no interpreter for op '{other}'"));
            }
        }
        Ok(Flow::Next)
    }

    /// Executes a microkernel call: a near-peak-throughput matmul
    /// `C[i0+i, j0+j] += A[i0+i, k] * B[k, j0+j]`.
    fn run_microkernel(&mut self, op: OpId, args: &[RtValue]) -> Result<(), String> {
        let data = self.ctx.op(op);
        let sizes = data
            .attr("kernel_sizes")
            .and_then(Attribute::as_int_array)
            .ok_or("microkernel call without kernel_sizes")?;
        let [m, n, k] = sizes[..] else {
            return Err("kernel_sizes must be [m, n, k]".to_owned());
        };
        // When a library is linked, the call must actually be resolvable —
        // simulating a link error otherwise.
        if let Some(library) = self.library {
            if !library.supports(m, n, k) {
                return Err(format!(
                    "unresolved microkernel symbol: {} provides no {m}x{n}x{k} kernel",
                    library.name
                ));
            }
        }
        let a = args[0].as_ptr()?;
        let b = args[1].as_ptr()?;
        let c = args[2].as_ptr()?;
        let i0 = args.get(3).map(|v| v.as_int()).transpose()?.unwrap_or(0);
        let j0 = args.get(4).map(|v| v.as_int()).transpose()?.unwrap_or(0);
        // Strides from the operand memref types.
        let stride_of = |machine: &Self, operand: ValueId| -> Result<(i64, i64), String> {
            let (_, _, _, strides) = memref_info(machine.ctx, machine.ctx.value_type(operand))
                .ok_or("microkernel operand is not a memref")?;
            let s0 = strides[0].as_static().ok_or("dynamic stride")?;
            let s1 = strides[1].as_static().ok_or("dynamic stride")?;
            Ok((s0, s1))
        };
        let (a_s0, a_s1) = stride_of(self, data.operands()[0])?;
        let (b_s0, b_s1) = stride_of(self, data.operands()[1])?;
        let (c_s0, c_s1) = stride_of(self, data.operands()[2])?;
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    let av =
                        self.buffers[a.buffer][(a.offset + (i0 + i) * a_s0 + kk * a_s1) as usize];
                    let bv =
                        self.buffers[b.buffer][(b.offset + kk * b_s0 + (j0 + j) * b_s1) as usize];
                    acc += av * bv;
                }
                let c_index = (c.offset + (i0 + i) * c_s0 + (j0 + j) * c_s1) as usize;
                self.buffers[c.buffer][c_index] += acc;
            }
        }
        // Cost model: near-peak FLOP throughput plus streaming loads of the
        // three operand tiles.
        let flops = 2.0 * (m * n * k) as f64;
        let bytes_moved = 8.0 * (m * k + k * n + 2 * m * n) as f64;
        self.cycles += flops / self.config.costs.kernel_flops_per_cycle;
        self.cycles += bytes_moved / 64.0 * 4.0; // one L1-ish access per line
        self.instructions += (m * n) as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_with(src: &str) -> (Context, OpId) {
        let mut ctx = Context::new();
        td_dialects::register_all_dialects(&mut ctx);
        let m = td_ir::parse_module(&mut ctx, src).unwrap();
        (ctx, m)
    }

    fn run(src: &str, name: &str, args: Vec<RtValue>) -> Vec<RtValue> {
        let (ctx, m) = ctx_with(src);
        let (results, _) = run_function(&ctx, m, name, args, ExecConfig::default(), None).unwrap();
        results
    }

    #[test]
    fn arithmetic_and_calls() {
        let results = run(
            r#"module {
  func.func @helper(%x: i64) -> i64 {
    %two = arith.constant 2 : i64
    %d = "arith.muli"(%x, %two) : (i64, i64) -> i64
    func.return %d : i64
  }
  func.func @main(%a: i64) -> i64 {
    %b = "func.call"(%a) {callee = @helper} : (i64) -> i64
    %c = "arith.addi"(%b, %a) : (i64, i64) -> i64
    func.return %c : i64
  }
}"#,
            "main",
            vec![RtValue::Int(7)],
        );
        assert_eq!(results, vec![RtValue::Int(21)]);
    }

    #[test]
    fn scf_if_takes_both_branches() {
        let src = r#"module {
  func.func @f(%m: memref<2xf32>, %c: i1) {
    %z = arith.constant 0 : index
    %one = arith.constant 1 : index
    %a = arith.constant 1.0 : f32
    %b = arith.constant 2.0 : f32
    "scf.if"(%c) ({
      "memref.store"(%a, %m, %z) : (f32, memref<2xf32>, index) -> ()
      "scf.yield"() : () -> ()
    }, {
      "memref.store"(%b, %m, %one) : (f32, memref<2xf32>, index) -> ()
      "scf.yield"() : () -> ()
    }) : (i1) -> ()
    func.return
  }
}"#;
        for (cond, expected) in [(true, [1.0, 0.0]), (false, [0.0, 2.0])] {
            let (ctx, m) = ctx_with(src);
            let mut args = ArgBuilder::new();
            let buf = args.buffer(vec![0.0, 0.0]);
            let buffers = args.into_buffers();
            let (_, buffers, _) = run_function_with_buffers(
                &ctx,
                m,
                "f",
                vec![buf, RtValue::Bool(cond)],
                buffers,
                ExecConfig::default(),
                None,
            )
            .unwrap();
            assert_eq!(buffers[0], expected);
        }
    }

    #[test]
    fn cfg_loop_executes_after_scf_lowering() {
        use td_ir::Pass;
        // Lower a counted loop to cf branches, then execute the CFG.
        let (mut ctx, m) = ctx_with(
            r#"module {
  func.func @count(%m: memref<1xf32>) {
    %lo = arith.constant 0 : index
    %hi = arith.constant 10 : index
    %st = arith.constant 1 : index
    %z = arith.constant 0 : index
    scf.for %i = %lo to %hi step %st {
      %acc = "memref.load"(%m, %z) : (memref<1xf32>, index) -> f32
      %one = arith.constant 1.0 : f32
      %s = "arith.addf"(%acc, %one) : (f32, f32) -> f32
      "memref.store"(%s, %m, %z) : (f32, memref<1xf32>, index) -> ()
    }
    func.return
  }
}"#,
        );
        td_dialects::passes::ScfToCfPass.run(&mut ctx, m).unwrap();
        let mut args = ArgBuilder::new();
        let buf = args.buffer(vec![0.0]);
        let buffers = args.into_buffers();
        let (_, buffers, _) = run_function_with_buffers(
            &ctx,
            m,
            "count",
            vec![buf],
            buffers,
            ExecConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(buffers[0][0], 10.0);
    }

    #[test]
    fn math_functions() {
        let src = r#"module {
  func.func @f(%x: f32) -> f32 {
    %e = "math.exp"(%x) : (f32) -> f32
    %t = "math.tanh"(%e) : (f32) -> f32
    %s = "math.sigmoid"(%t) : (f32) -> f32
    func.return %s : f32
  }
}"#;
        let mut ctx = Context::new();
        td_dialects::register_all_dialects(&mut ctx);
        let m = td_ir::parse_module(&mut ctx, src).unwrap();
        let (results, report) = run_function(
            &ctx,
            m,
            "f",
            vec![RtValue::Float(0.5)],
            ExecConfig::default(),
            None,
        )
        .unwrap();
        let expected = 1.0 / (1.0 + (-(0.5f64.exp().tanh())).exp());
        match results[0] {
            RtValue::Float(v) => assert!((v - expected).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
        // Transcendentals are charged at the math_fn rate.
        assert!(report.cycles >= 3.0 * ExecConfig::default().costs.math_fn);
    }

    #[test]
    fn dynamic_alloc_and_dim() {
        let src = r#"module {
  func.func @f(%n: index) -> f32 {
    %m = "memref.alloc"(%n) : (index) -> memref<?xf32>
    %z = arith.constant 0 : index
    %v = arith.constant 3.5 : f32
    "memref.store"(%v, %m, %z) : (f32, memref<?xf32>, index) -> ()
    %r = "memref.load"(%m, %z) : (memref<?xf32>, index) -> f32
    "memref.dealloc"(%m) : (memref<?xf32>) -> ()
    func.return %r : f32
  }
}"#;
        let results = run(src, "f", vec![RtValue::Int(16)]);
        assert_eq!(results, vec![RtValue::Float(3.5)]);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let src = r#"module {
  func.func @f(%m: memref<4xf32>, %i: index) -> f32 {
    %r = "memref.load"(%m, %i) : (memref<4xf32>, index) -> f32
    func.return %r : f32
  }
}"#;
        let (ctx, m) = ctx_with(src);
        let mut args = ArgBuilder::new();
        let buf = args.buffer(vec![0.0; 4]);
        let buffers = args.into_buffers();
        let err = run_function_with_buffers(
            &ctx,
            m,
            "f",
            vec![buf, RtValue::Int(9)],
            buffers,
            ExecConfig::default(),
            None,
        )
        .unwrap_err();
        assert!(err.message().contains("out of bounds"), "{err}");
    }

    #[test]
    fn step_budget_catches_runaway_loops() {
        let src = r#"module {
  func.func @f() {
    %lo = arith.constant 0 : index
    %hi = arith.constant 1000000 : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {
      %c = arith.constant 1 : i64
    }
    func.return
  }
}"#;
        // With a tiny budget the loop trips the guard.
        let (ctx, m) = ctx_with(src);
        let mut config = ExecConfig::default();
        config.max_steps = 100;
        let err = run_function(&ctx, m, "f", vec![], config, None).unwrap_err();
        assert!(err.message().contains("step budget"), "{err}");
    }

    #[test]
    fn subview_adjusts_the_pointer() {
        let src = r#"module {
  func.func @f(%m: memref<4x4xf32>) -> f32 {
    %sv = "memref.subview"(%m) {static_offsets = [1, 1], static_sizes = [2, 2], static_strides = [1, 1]} : (memref<4x4xf32>) -> memref<2x2xf32, strided<[4, 1], offset: 5>>
    %z = arith.constant 0 : index
    %r = "memref.load"(%sv, %z, %z) : (memref<2x2xf32, strided<[4, 1], offset: 5>>, index, index) -> f32
    func.return %r : f32
  }
}"#;
        let (ctx, m) = ctx_with(src);
        let mut args = ArgBuilder::new();
        let buf = args.buffer((0..16).map(|i| i as f64).collect());
        let buffers = args.into_buffers();
        let (results, _, _) = run_function_with_buffers(
            &ctx,
            m,
            "f",
            vec![buf],
            buffers,
            ExecConfig::default(),
            None,
        )
        .unwrap();
        // Element (1,1) of the 4x4 = linear index 5.
        assert_eq!(results, vec![RtValue::Float(5.0)]);
    }
}
