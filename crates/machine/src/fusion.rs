//! A simulated fusion-heuristic back-end (the XLA stand-in of Case
//! Study 3).
//!
//! The model walks a tensor-level (TOSA) function and greedily groups
//! elementwise/reduction ops into *fusion clusters*; data-movement ops
//! (`reshape`, `transpose`, `slice`, …) act as cluster barriers, and heavy
//! ops (`matmul`, `conv2d`, pooling) form their own clusters. Cluster cost
//! is flops + memory traffic — with one realistic quirk faithfully
//! reproducing the paper's debugging story: **fusing a full reduction into
//! a large producer cluster forces the producer to be recomputed for the
//! reduction's benefit**, so removing a "useless" reshape between a big
//! elementwise cluster and a reduce (strictly less work!) can make the
//! whole model slower.

use td_dialects::tosa::static_shape;
use td_ir::{Context, OpId, TypeKind};

/// Parameters of the fusion cost model.
#[derive(Clone, Copy, Debug)]
pub struct FusionCostModel {
    /// Cycles per floating-point operation.
    pub flop_cost: f64,
    /// Cycles per element moved to/from memory at a cluster boundary.
    pub mem_cost_per_elem: f64,
    /// Producer-flop threshold beyond which fusing a reduction triggers
    /// recomputation.
    pub recompute_threshold_flops: f64,
}

impl Default for FusionCostModel {
    fn default() -> Self {
        FusionCostModel {
            flop_cost: 1.0,
            mem_cost_per_elem: 4.0,
            recompute_threshold_flops: 4096.0,
        }
    }
}

/// Result of a cost estimation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FusionReport {
    /// Number of fusion clusters formed.
    pub clusters: usize,
    /// Estimated total cycles.
    pub total_cost: f64,
    /// Clusters that hit the recomputation quirk.
    pub recompute_clusters: usize,
}

#[derive(Default)]
struct Cluster {
    flops: f64,
    /// Flops of non-reduction (producer) ops only — the part recomputed
    /// when a reduction is fused into a large producer.
    producer_flops: f64,
    boundary_elems: f64,
    has_reduce: bool,
    ops: usize,
}

/// Kind classification for the cluster builder.
enum Kind {
    Heavy(f64),
    Barrier(f64),
    Fusible {
        flops: f64,
        elems: f64,
        is_reduce: bool,
    },
    Ignored,
}

fn elems(ctx: &Context, op: OpId) -> f64 {
    let Some(&result) = ctx.op(op).results().first() else {
        return 0.0;
    };
    let ty = ctx.value_type(result);
    match ctx.type_kind(ty) {
        TypeKind::Tensor { .. } => static_shape(ctx, ty)
            .map(|shape| shape.iter().product::<i64>() as f64)
            .unwrap_or(1.0),
        _ => 1.0,
    }
}

fn classify(ctx: &Context, op: OpId) -> Kind {
    let out = elems(ctx, op);
    match ctx.op(op).name.as_str() {
        "tosa.matmul" | "tosa.fully_connected" => Kind::Heavy(out * 64.0),
        "tosa.conv2d" | "tosa.depthwise_conv2d" => Kind::Heavy(out * 128.0),
        "tosa.avg_pool2d" | "tosa.max_pool2d" => Kind::Heavy(out * 4.0),
        "tosa.reshape" | "tosa.transpose" | "tosa.slice" | "tosa.concat" | "tosa.gather"
        | "tosa.pad" => Kind::Barrier(out),
        "tosa.reduce_sum" | "tosa.reduce_max" => {
            // Reduction flops scale with the *input*.
            let input_elems = ctx
                .op(op)
                .operands()
                .first()
                .map(|&v| match ctx.type_kind(ctx.value_type(v)) {
                    TypeKind::Tensor { .. } => static_shape(ctx, ctx.value_type(v))
                        .map(|s| s.iter().product::<i64>() as f64)
                        .unwrap_or(1.0),
                    _ => 1.0,
                })
                .unwrap_or(1.0);
            Kind::Fusible {
                flops: input_elems,
                elems: out,
                is_reduce: true,
            }
        }
        "tosa.add" | "tosa.sub" | "tosa.mul" | "tosa.clamp" | "tosa.sigmoid" | "tosa.tanh"
        | "tosa.exp" | "tosa.reciprocal" | "tosa.rsqrt" | "tosa.cast" | "tosa.rescale" => {
            Kind::Fusible {
                flops: out,
                elems: out,
                is_reduce: false,
            }
        }
        _ => Kind::Ignored,
    }
}

/// Estimates the execution cost of the tensor-level model in `module`
/// under the simulated fusion back-end.
pub fn estimate_cost(ctx: &Context, module: OpId, model: FusionCostModel) -> FusionReport {
    let mut clusters_done: Vec<Cluster> = Vec::new();
    let mut current = Cluster::default();

    let flush = |current: &mut Cluster, clusters_done: &mut Vec<Cluster>| {
        if current.ops > 0 {
            clusters_done.push(std::mem::take(current));
        }
    };

    for op in ctx.walk_nested(module) {
        match classify(ctx, op) {
            Kind::Heavy(flops) => {
                flush(&mut current, &mut clusters_done);
                clusters_done.push(Cluster {
                    flops,
                    producer_flops: 0.0,
                    boundary_elems: elems(ctx, op) * 2.0,
                    has_reduce: false,
                    ops: 1,
                });
            }
            Kind::Barrier(moved) => {
                flush(&mut current, &mut clusters_done);
                // Pure data movement: memory cost only.
                clusters_done.push(Cluster {
                    flops: 0.0,
                    producer_flops: 0.0,
                    boundary_elems: moved * 2.0,
                    has_reduce: false,
                    ops: 1,
                });
            }
            Kind::Fusible {
                flops,
                elems,
                is_reduce,
            } => {
                current.flops += flops;
                if !is_reduce {
                    current.producer_flops += flops;
                }
                current.boundary_elems += elems;
                current.has_reduce |= is_reduce;
                current.ops += 1;
            }
            Kind::Ignored => {}
        }
    }
    flush(&mut current, &mut clusters_done);

    let mut total = 0.0;
    let mut recompute_clusters = 0;
    for cluster in &clusters_done {
        let mut flops = cluster.flops;
        // The quirk: a reduction fused into a large producer cluster
        // recomputes the producer once more for the reduction's benefit.
        if cluster.has_reduce && cluster.producer_flops > model.recompute_threshold_flops {
            flops += cluster.producer_flops;
            recompute_clusters += 1;
        }
        total += flops * model.flop_cost + cluster.boundary_elems * model.mem_cost_per_elem;
    }
    FusionReport {
        clusters: clusters_done.len(),
        total_cost: total,
        recompute_clusters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_dialects::tosa::tensor_type;
    use td_ir::{Attribute, Context, ValueId};
    use td_support::{Location, Symbol};

    /// Builds: big elementwise chain → [reshape?] → reduce_sum.
    fn chain_model(with_reshape: bool, chain_length: usize) -> (Context, OpId) {
        let mut ctx = Context::new();
        td_dialects::register_all_dialects(&mut ctx);
        let module = ctx.create_module(Location::unknown());
        let f32t = ctx.f32_type();
        let big = tensor_type(&mut ctx, &[64, 256], f32t);
        let flat = tensor_type(&mut ctx, &[16384], f32t);
        let scalar = tensor_type(&mut ctx, &[1], f32t);
        let (_f, entry) =
            td_dialects::func::build_func(&mut ctx, module, "main", &[big], &[scalar]);
        let mut x: ValueId = ctx.block(entry).args()[0];
        for _ in 0..chain_length {
            let op = ctx.create_op(Location::unknown(), "tosa.tanh", [x], [big], vec![], 0);
            ctx.append_op(entry, op);
            x = ctx.op(op).results()[0];
        }
        if with_reshape {
            let op = ctx.create_op(Location::unknown(), "tosa.reshape", [x], [flat], vec![], 0);
            ctx.append_op(entry, op);
            x = ctx.op(op).results()[0];
        }
        let reduce = ctx.create_op(
            Location::unknown(),
            "tosa.reduce_sum",
            [x],
            [scalar],
            vec![(Symbol::new("kind"), Attribute::String("sum".into()))],
            0,
        );
        ctx.append_op(entry, reduce);
        let r = ctx.op(reduce).results()[0];
        let ret = ctx.create_op(Location::unknown(), "func.return", [r], vec![], vec![], 0);
        ctx.append_op(entry, ret);
        (ctx, module)
    }

    #[test]
    fn reshape_barrier_separates_clusters() {
        let (ctx, m) = chain_model(true, 10);
        let report = estimate_cost(&ctx, m, FusionCostModel::default());
        assert_eq!(report.recompute_clusters, 0, "barrier isolates the reduce");
        let (ctx2, m2) = chain_model(false, 10);
        let report2 = estimate_cost(&ctx2, m2, FusionCostModel::default());
        assert_eq!(report2.recompute_clusters, 1, "merged cluster recomputes");
        assert!(
            report2.total_cost > report.total_cost,
            "removing the reshape is counter-productive: {} vs {}",
            report2.total_cost,
            report.total_cost
        );
    }

    #[test]
    fn small_producers_fuse_reductions_for_free() {
        // Below the recompute threshold, dropping the reshape IS a win.
        let (ctx, with) = chain_model(true, 0);
        let (ctx2, without) = chain_model(false, 0);
        let a = estimate_cost(&ctx, with, FusionCostModel::default());
        let b = estimate_cost(&ctx2, without, FusionCostModel::default());
        assert!(b.total_cost < a.total_cost);
    }

    #[test]
    fn heavy_ops_form_singleton_clusters() {
        let mut ctx = Context::new();
        td_dialects::register_all_dialects(&mut ctx);
        let module = ctx.create_module(Location::unknown());
        let f32t = ctx.f32_type();
        let t = tensor_type(&mut ctx, &[16, 16], f32t);
        let (_f, entry) = td_dialects::func::build_func(&mut ctx, module, "main", &[t], &[t]);
        let x = ctx.block(entry).args()[0];
        let mm = ctx.create_op(Location::unknown(), "tosa.matmul", [x, x], [t], vec![], 0);
        ctx.append_op(entry, mm);
        let v = ctx.op(mm).results()[0];
        let ret = ctx.create_op(Location::unknown(), "func.return", [v], vec![], vec![], 0);
        ctx.append_op(entry, ret);
        let report = estimate_cost(&ctx, module, FusionCostModel::default());
        assert_eq!(report.clusters, 1);
        assert!(report.total_cost > 0.0);
    }
}
