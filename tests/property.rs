//! Property-based tests on the in-tree harness (`td_support::proptest`):
//! arena safety under random operation sequences, printer/parser
//! round-trips on generated IR (both textual and structural), semantic
//! preservation of loop transforms under random shapes, cache-simulator
//! invariants, op-set algebra, and autotuner constraint satisfaction.
//!
//! Every case is seeded deterministically; a failure panics with a
//! `TD_PROP_REPLAY=<seed>:<size>` line. Export that variable and re-run
//! the test to reproduce (and debug) exactly the shrunk failing case:
//!
//! ```text
//! TD_PROP_REPLAY=1234567890:4 cargo test -q --test property -- arena
//! ```

use std::collections::HashMap;
use td_ir::{Attribute, Context, OpId, ValueId};
use td_support::proptest::{check, Config, Gen};
use td_support::rng::Rng;
use td_support::{Location, Symbol};

// ----- generational arena ----------------------------------------------------

/// Random alloc/erase sequences never resurrect stale indices, and the
/// live count always matches a reference model.
#[test]
fn arena_against_model() {
    check("arena_against_model", Config::default(), |g| {
        let ops = g.vec(1, 200, |g| g.u8(0, 4));
        let mut arena: td_support::Arena<u32> = td_support::Arena::new();
        let mut live: Vec<(td_support::Idx<u32>, u32)> = Vec::new();
        let mut erased: Vec<td_support::Idx<u32>> = Vec::new();
        let mut counter = 0u32;
        for op in ops {
            match op {
                0 | 1 => {
                    let idx = arena.alloc(counter);
                    live.push((idx, counter));
                    counter += 1;
                }
                2 if !live.is_empty() => {
                    let (idx, _) = live.swap_remove(counter as usize % live.len());
                    if arena.erase(idx).is_none() {
                        return Err("live index failed to erase".into());
                    }
                    erased.push(idx);
                }
                _ => {}
            }
            if arena.len() != live.len() {
                return Err(format!("len {} != model {}", arena.len(), live.len()));
            }
            for (idx, value) in &live {
                if arena.get(*idx) != Some(value) {
                    return Err(format!("live index lost value {value}"));
                }
            }
            for idx in &erased {
                if arena.get(*idx).is_some() {
                    return Err("stale index resolved".into());
                }
            }
        }
        Ok(())
    });
}

// ----- printer / parser round-trip -------------------------------------------

/// A tiny generator of well-formed straight-line payload programs (text).
fn generated_program(ops: &[(u8, u8, u8)]) -> String {
    let mut body = String::new();
    let mut values: Vec<String> = Vec::new();
    for (i, &(kind, a, b)) in ops.iter().enumerate() {
        let name = format!("%v{i}");
        match kind % 4 {
            0 => {
                body.push_str(&format!(
                    "    {name} = arith.constant {} : i64\n",
                    a as i64 - 100
                ));
            }
            1 if values.len() >= 2 => {
                let lhs = &values[a as usize % values.len()];
                let rhs = &values[b as usize % values.len()];
                body.push_str(&format!(
                    "    {name} = \"arith.addi\"({lhs}, {rhs}) : (i64, i64) -> i64\n"
                ));
            }
            2 if values.len() >= 2 => {
                let lhs = &values[a as usize % values.len()];
                let rhs = &values[b as usize % values.len()];
                body.push_str(&format!(
                    "    {name} = \"arith.muli\"({lhs}, {rhs}) : (i64, i64) -> i64\n"
                ));
            }
            _ => {
                body.push_str(&format!("    {name} = arith.constant {} : i64\n", b as i64));
            }
        }
        values.push(name);
    }
    if let Some(last) = values.last() {
        body.push_str(&format!("    \"test.use\"({last}) : (i64) -> ()\n"));
    }
    format!("module {{\n  func.func @f() {{\n{body}    func.return\n  }}\n}}")
}

fn gen_op_triples(g: &mut Gen, max: usize) -> Vec<(u8, u8, u8)> {
    g.vec(1, max, |g| (g.u8(0, 4), g.any_u8(), g.any_u8()))
}

/// print(parse(print(parse(p)))) is stable: the second round-trip is a
/// fixed point.
#[test]
fn parse_print_fixed_point() {
    check("parse_print_fixed_point", Config::default(), |g| {
        let ops = gen_op_triples(g, 40);
        let source = generated_program(&ops);
        let mut ctx1 = td_ir::Context::new();
        td_dialects::register_all_dialects(&mut ctx1);
        let m1 = td_ir::parse_module(&mut ctx1, &source)
            .map_err(|e| format!("generated program must parse: {e}"))?;
        td_ir::verify::verify(&ctx1, m1)
            .map_err(|e| format!("generated program must verify: {e:?}"))?;
        let printed1 = td_ir::print_op(&ctx1, m1);
        let mut ctx2 = td_ir::Context::new();
        td_dialects::register_all_dialects(&mut ctx2);
        let m2 = td_ir::parse_module(&mut ctx2, &printed1)
            .map_err(|e| format!("printed program must re-parse: {e}"))?;
        let printed2 = td_ir::print_op(&ctx2, m2);
        if printed1 != printed2 {
            return Err(format!(
                "not a fixed point:\n--- first\n{printed1}\n--- second\n{printed2}"
            ));
        }
        Ok(())
    });
}

/// A context- and id-independent structural signature of the IR under
/// `root`: op names, operand wiring (by local value numbering), printed
/// attributes, printed result types, and region/block shape, in walk
/// order. Two modules are structurally equal iff signatures match.
fn structural_signature(ctx: &Context, root: OpId) -> Vec<String> {
    fn visit_op(
        ctx: &Context,
        op: OpId,
        numbering: &mut HashMap<ValueId, usize>,
        sig: &mut Vec<String>,
    ) {
        let data = ctx.op(op);
        let operands: Vec<String> = data
            .operands()
            .iter()
            .map(|v| match numbering.get(v) {
                Some(&n) => format!("v{n}"),
                None => "v?".to_owned(),
            })
            .collect();
        let mut attrs: Vec<String> = data
            .attributes()
            .iter()
            .map(|(k, a)| format!("{k}={}", td_ir::print_attribute(ctx, a)))
            .collect();
        attrs.sort();
        let result_types: Vec<String> = data
            .results()
            .iter()
            .map(|&r| td_ir::print_type(ctx, ctx.value_type(r)))
            .collect();
        sig.push(format!(
            "{}({}) {{{}}} -> ({}) regions={}",
            data.name,
            operands.join(", "),
            attrs.join(", "),
            result_types.join(", "),
            data.regions().len()
        ));
        for &result in data.results() {
            let n = numbering.len();
            numbering.insert(result, n);
        }
        for &region in data.regions() {
            for &block in ctx.region(region).blocks() {
                sig.push(format!("block(args={})", ctx.block(block).args().len()));
                for &arg in ctx.block(block).args() {
                    let n = numbering.len();
                    numbering.insert(arg, n);
                }
                for inner in ctx.block_ops(block) {
                    visit_op(ctx, inner, numbering, sig);
                }
            }
        }
    }
    let mut numbering = HashMap::new();
    let mut sig = Vec::new();
    visit_op(ctx, root, &mut numbering, &mut sig);
    sig
}

/// Builds a random straight-line module *structurally* (no text), driven
/// by the vendored PRNG: constants feeding random add/mul DAGs.
fn build_random_module(ctx: &mut Context, rng: &mut Rng, num_ops: usize) -> OpId {
    let module = ctx.create_module(Location::name("gen"));
    let i64t = ctx.i64_type();
    let (_func, entry) = td_dialects::func::build_func(ctx, module, "gen", &[], &[]);
    let mut values: Vec<ValueId> = Vec::new();
    for _ in 0..num_ops {
        let (name, operands, attrs) = if values.len() < 2 || rng.below(2) == 0 {
            (
                "arith.constant",
                vec![],
                vec![(
                    Symbol::new("value"),
                    Attribute::Int(rng.range_i64(-100, 100)),
                )],
            )
        } else {
            let a = *rng.choose(&values);
            let b = *rng.choose(&values);
            (
                if rng.next_bool() {
                    "arith.addi"
                } else {
                    "arith.muli"
                },
                vec![a, b],
                vec![],
            )
        };
        let op = ctx.create_op(Location::name("g"), name, operands, [i64t], attrs, 0);
        ctx.append_op(entry, op);
        values.push(ctx.op(op).results()[0]);
    }
    if let Some(&last) = values.last() {
        let use_op = ctx.create_op(Location::name("use"), "test.use", [last], vec![], vec![], 0);
        ctx.append_op(entry, use_op);
    }
    let ret = ctx.create_op(
        Location::name("ret"),
        "func.return",
        vec![],
        vec![],
        vec![],
        0,
    );
    ctx.append_op(entry, ret);
    module
}

/// `parse(print(m)) == m` structurally, for modules generated with the
/// vendored PRNG: printing and re-parsing loses no structure.
#[test]
fn parse_print_structural_roundtrip() {
    check("parse_print_structural_roundtrip", Config::default(), |g| {
        let num_ops = g.usize(1, 30.min(g.size() as usize + 1) + 1);
        let mut ctx = Context::new();
        td_dialects::register_all_dialects(&mut ctx);
        let module = build_random_module(&mut ctx, g.rng(), num_ops);
        td_ir::verify::verify(&ctx, module)
            .map_err(|e| format!("generated module must verify: {e:?}"))?;
        let printed = td_ir::print_op(&ctx, module);
        let mut ctx2 = Context::new();
        td_dialects::register_all_dialects(&mut ctx2);
        let reparsed = td_ir::parse_module(&mut ctx2, &printed)
            .map_err(|e| format!("printed module must parse: {e}\n{printed}"))?;
        let original_sig = structural_signature(&ctx, module);
        let reparsed_sig = structural_signature(&ctx2, reparsed);
        if original_sig != reparsed_sig {
            let diff = original_sig
                .iter()
                .zip(reparsed_sig.iter())
                .find(|(a, b)| a != b)
                .map(|(a, b)| format!("first diff:\n  orig: {a}\n  back: {b}"))
                .unwrap_or_else(|| {
                    format!(
                        "lengths differ: {} vs {}",
                        original_sig.len(),
                        reparsed_sig.len()
                    )
                });
            return Err(format!(
                "structural mismatch after round-trip; {diff}\n{printed}"
            ));
        }
        Ok(())
    });
}

/// `fingerprint_op` is stable under a print→parse round-trip into a fresh
/// context: parsing the same text twice (or parsing, printing, and parsing
/// again) yields the same fingerprint. This is the invariant the td-sched
/// result cache rests on — its `(script, payload)` keys are fingerprints
/// computed under exactly this fresh-context parse discipline, so the test
/// failing would mean cache keys are not pure functions of source text.
#[test]
fn fingerprint_stable_under_print_parse_roundtrip() {
    check(
        "fingerprint_stable_under_print_parse_roundtrip",
        Config::default(),
        |g| {
            let num_ops = g.usize(1, 30.min(g.size() as usize + 1) + 1);
            let mut ctx = Context::new();
            td_dialects::register_all_dialects(&mut ctx);
            let module = build_random_module(&mut ctx, g.rng(), num_ops);
            let printed = td_ir::print_op(&ctx, module);

            let mut ctx1 = Context::new();
            td_dialects::register_all_dialects(&mut ctx1);
            let m1 = td_ir::parse_module(&mut ctx1, &printed)
                .map_err(|e| format!("printed module must parse: {e}\n{printed}"))?;
            let fp1 = td_ir::fingerprint_op(&ctx1, m1);

            // Same text into another fresh context: identical fingerprint.
            let mut ctx1b = Context::new();
            td_dialects::register_all_dialects(&mut ctx1b);
            let m1b = td_ir::parse_module(&mut ctx1b, &printed)
                .map_err(|e| format!("reparse must succeed: {e}"))?;
            if td_ir::fingerprint_op(&ctx1b, m1b) != fp1 {
                return Err(format!(
                    "same text, fresh contexts, different fingerprints\n{printed}"
                ));
            }

            // Full round-trip (print the reparsed module, parse again):
            // still the same fingerprint.
            let reprinted = td_ir::print_op(&ctx1, m1);
            let mut ctx2 = Context::new();
            td_dialects::register_all_dialects(&mut ctx2);
            let m2 = td_ir::parse_module(&mut ctx2, &reprinted)
                .map_err(|e| format!("reprinted module must parse: {e}\n{reprinted}"))?;
            let fp2 = td_ir::fingerprint_op(&ctx2, m2);
            if fp1 != fp2 {
                return Err(format!(
                    "fingerprint changed across print→parse round-trip: \
                     {fp1:#x} vs {fp2:#x}\nfirst print:\n{printed}\nsecond print:\n{reprinted}"
                ));
            }
            Ok(())
        },
    );
}

/// Canonicalization preserves the observable value: folding a random
/// arithmetic DAG produces the same result the interpreter computes.
#[test]
fn canonicalization_preserves_semantics() {
    check(
        "canonicalization_preserves_semantics",
        Config::default(),
        |g| {
            use td_ir::Pass;
            let ops = gen_op_triples(g, 25);
            let source = generated_program(&ops);

            // Reference: evaluate the final value by hand over the op list.
            let eval = |ctx: &td_ir::Context, module| -> Option<i64> {
                let use_op = ctx
                    .walk_nested(module)
                    .into_iter()
                    .find(|&o| ctx.op(o).name.as_str() == "test.use")?;
                evaluate_int(ctx, ctx.op(use_op).operands()[0])
            };

            let mut ctx = td_ir::Context::new();
            td_dialects::register_all_dialects(&mut ctx);
            let module = td_ir::parse_module(&mut ctx, &source).map_err(|e| e.to_string())?;
            let before = eval(&ctx, module);
            td_dialects::passes::CanonicalizePass
                .run(&mut ctx, module)
                .map_err(|e| e.to_string())?;
            td_ir::verify::verify(&ctx, module)
                .map_err(|e| format!("canonical IR must verify: {e:?}"))?;
            let after = eval(&ctx, module);
            if before != after {
                return Err(format!("value changed: {before:?} -> {after:?}\n{source}"));
            }
            Ok(())
        },
    );
}

/// Recursively evaluates an integer SSA value (constants, addi, muli).
fn evaluate_int(ctx: &td_ir::Context, value: td_ir::ValueId) -> Option<i64> {
    let def = ctx.defining_op(value)?;
    let data = ctx.op(def);
    match data.name.as_str() {
        "arith.constant" => data.attr("value")?.as_int(),
        "arith.addi" => Some(
            evaluate_int(ctx, data.operands()[0])?
                .wrapping_add(evaluate_int(ctx, data.operands()[1])?),
        ),
        "arith.muli" => Some(
            evaluate_int(ctx, data.operands()[0])?
                .wrapping_mul(evaluate_int(ctx, data.operands()[1])?),
        ),
        _ => None,
    }
}

// ----- loop transformations preserve semantics -------------------------------

/// Tiling + unrolling a reduction loop computes the same sum for random
/// extents and tile sizes.
#[test]
fn tiling_preserves_reduction() {
    check("tiling_preserves_reduction", Config::with_cases(24), |g| {
        let extent = g.i64(1, 120);
        let tile = g.i64(1, 40);
        let unroll = g.i64(1, 5);
        let src = format!(
            r#"module {{
  func.func @sum(%x: memref<{extent}xf32>, %out: memref<1xf32>) {{
    %lo = arith.constant 0 : index
    %hi = arith.constant {extent} : index
    %st = arith.constant 1 : index
    %z = arith.constant 0 : index
    scf.for %i = %lo to %hi step %st {{
      %xv = "memref.load"(%x, %i) : (memref<{extent}xf32>, index) -> f32
      %acc = "memref.load"(%out, %z) : (memref<1xf32>, index) -> f32
      %s = "arith.addf"(%acc, %xv) : (f32, f32) -> f32
      "memref.store"(%s, %out, %z) : (f32, memref<1xf32>, index) -> ()
    }}
    func.return
  }}
}}"#
        );
        let run = |transform: bool| -> Result<f64, String> {
            let mut ctx = td_ir::Context::new();
            td_dialects::register_all_dialects(&mut ctx);
            let module = td_ir::parse_module(&mut ctx, &src).map_err(|e| e.to_string())?;
            if transform {
                let root = td_dialects::scf::collect_loops(&ctx, module)[0];
                let tiled = td_transform::loop_transforms::tile(&mut ctx, root, &[tile])
                    .map_err(|e| format!("{e:?}"))?;
                // Unroll the point loop when the tile size divides evenly.
                if tile % unroll == 0 && extent % tile == 0 {
                    td_transform::loop_transforms::unroll_by(
                        &mut ctx,
                        tiled.point_loops[0],
                        unroll,
                    )
                    .map_err(|e| format!("{e:?}"))?;
                }
                td_ir::verify::verify(&ctx, module)
                    .map_err(|e| format!("tiled IR must verify: {e:?}"))?;
            }
            let mut args = td_machine::ArgBuilder::new();
            let x = args.buffer((0..extent).map(|i| (i as f64) - 3.0).collect());
            let out = args.buffer(vec![0.0]);
            let buffers = args.into_buffers();
            let (_, buffers, _) = td_machine::run_function_with_buffers(
                &ctx,
                module,
                "sum",
                vec![x, out],
                buffers,
                td_machine::ExecConfig::default(),
                None,
            )
            .map_err(|e| format!("{e:?}"))?;
            Ok(buffers[1][0])
        };
        let (reference, transformed) = (run(false)?, run(true)?);
        if reference != transformed {
            return Err(format!(
                "extent={extent} tile={tile} unroll={unroll}: {reference} != {transformed}"
            ));
        }
        Ok(())
    });
}

/// Splitting preserves the iteration multiset: trip(main) + trip(rest)
/// equals the original trip count, and main's trip divides the divisor.
#[test]
fn split_partitions_iterations() {
    check("split_partitions_iterations", Config::with_cases(24), |g| {
        let extent = g.i64(1, 300);
        let divisor = g.i64(1, 40);
        let src = format!(
            r#"module {{
  func.func @f() {{
    %lo = arith.constant 0 : index
    %hi = arith.constant {extent} : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {{
      "test.body"(%i) : (index) -> ()
    }}
    func.return
  }}
}}"#
        );
        let mut ctx = td_ir::Context::new();
        td_dialects::register_all_dialects(&mut ctx);
        let module = td_ir::parse_module(&mut ctx, &src).map_err(|e| e.to_string())?;
        let root = td_dialects::scf::collect_loops(&ctx, module)[0];
        let (main, rest) = td_transform::loop_transforms::split(&mut ctx, root, divisor)
            .map_err(|e| format!("{e:?}"))?;
        let trip = |ctx: &td_ir::Context, op| {
            td_dialects::scf::static_trip_count(ctx, td_dialects::scf::as_for(ctx, op).unwrap())
                .unwrap()
        };
        let (main_trip, rest_trip) = (trip(&ctx, main), trip(&ctx, rest));
        if main_trip + rest_trip != extent {
            return Err(format!("{main_trip} + {rest_trip} != {extent}"));
        }
        if main_trip % divisor != 0 {
            return Err(format!("main trip {main_trip} not a multiple of {divisor}"));
        }
        if rest_trip >= divisor {
            return Err(format!("rest trip {rest_trip} >= divisor {divisor}"));
        }
        td_ir::verify::verify(&ctx, module).map_err(|e| format!("split IR must verify: {e:?}"))?;
        Ok(())
    });
}

// ----- cache simulator invariants ---------------------------------------------

/// Hits + misses equals accesses; repeating the same trace twice never
/// lowers the L1 hit count; costs are bounded by the configured range.
#[test]
fn cache_sim_invariants() {
    check("cache_sim_invariants", Config::with_cases(32), |g| {
        use td_machine::{CacheConfig, CacheSim};
        let addresses = g.vec(1, 400, |g| g.u64(0, 1_000_000));
        let mut sim = CacheSim::new(CacheConfig::default());
        let config = CacheConfig::default();
        let mut total = 0u64;
        for &address in &addresses {
            let cost = sim.access(address);
            if cost < config.l1.hit_cycles || cost > config.memory_cycles {
                return Err(format!("cost {cost} out of configured range"));
            }
            total += 1;
        }
        let stats = sim.l1_stats();
        if stats.hits + stats.misses != total {
            return Err(format!("{} + {} != {total}", stats.hits, stats.misses));
        }
        // Second pass over the same trace: a warm L2 must not miss when
        // the trace fits comfortably.
        let unique: std::collections::HashSet<u64> = addresses.iter().map(|a| a / 64).collect();
        if (unique.len() as u64) * 64 < config.l2.size_bytes / 2 {
            let before = sim.l2_stats().misses;
            for &address in &addresses {
                sim.access(address);
            }
            let new_misses = sim.l2_stats().misses - before;
            if new_misses != 0 {
                return Err(format!(
                    "warm L2 missed {new_misses} times on a resident trace"
                ));
            }
        }
        Ok(())
    });
}

// ----- op-set algebra ----------------------------------------------------------

/// OpSet::matches is monotone under union and consistent with its
/// constituent patterns.
#[test]
fn opset_union_is_monotone() {
    check("opset_union_is_monotone", Config::default(), |g| {
        use td_transform::OpSet;
        let qualified = |g: &mut Gen| format!("{}.{}", g.ident(1, 6), g.ident(1, 6));
        let names = g.vec(1, 12, qualified);
        let probe = qualified(g);
        let half = names.len() / 2;
        let a = OpSet::of(names[..half].iter());
        let b = OpSet::of(names[half..].iter());
        let all = OpSet::of(names.iter());
        if (a.matches(&probe) || b.matches(&probe)) != all.matches(&probe) {
            return Err(format!(
                "union not monotone for probe {probe} over {names:?}"
            ));
        }
        // Every exact member matches its own set.
        for name in &names {
            if !all.matches(name) {
                return Err(format!("{name} does not match its own set"));
            }
        }
        // Dialect wildcard covers all members of that dialect.
        if let Some(dialect) = probe.split('.').next() {
            let wild = OpSet::of([format!("{dialect}.*")]);
            if !wild.matches(&probe) {
                return Err(format!("wildcard {dialect}.* misses {probe}"));
            }
        }
        Ok(())
    });
}

// ----- autotuner constraints -----------------------------------------------------

/// Every configuration any searcher proposes satisfies the space's
/// constraints, for random divisor-structured spaces.
#[test]
fn searchers_respect_constraints() {
    check(
        "searchers_respect_constraints",
        Config::with_cases(32),
        |g| {
            use td_autotune::{
                divisors, tune, Annealing, BayesOpt, ParamDomain, ParamSpace, RandomSearch,
                Searcher,
            };
            let n = g.i64(2, 200);
            let seed = g.any_u64();
            let space = ParamSpace::new()
                .param("t", ParamDomain::Ordinal(divisors(n)))
                .param("v", ParamDomain::Bool)
                .constraint(move |c| {
                    let t = c[0].as_int().unwrap_or(1);
                    let v = c[1].as_bool().unwrap_or(false);
                    !v || t % 2 == 0
                });
            let satisfiable = divisors(n).iter().any(|t| t % 2 == 0);
            let mut searchers: Vec<Box<dyn Searcher>> = vec![
                Box::new(RandomSearch),
                Box::new(Annealing::default()),
                Box::new(BayesOpt {
                    warmup: 2,
                    pool: 16,
                    length_scale: 0.3,
                }),
            ];
            for searcher in &mut searchers {
                let mut violation = None;
                let result = tune(&space, searcher.as_mut(), 8, seed, |c| {
                    // Objective checks the constraint as a hard property.
                    if !space.is_valid(c) {
                        violation = Some(format!("{} proposed invalid config {c:?}", "searcher"));
                    }
                    Some(c[0].as_int().unwrap_or(1) as f64)
                });
                if let Some(violation) = violation {
                    return Err(violation);
                }
                if (satisfiable || !space.enumerate().is_empty()) && result.evaluations.is_empty() {
                    return Err(format!("no evaluations for n={n} seed={seed}"));
                }
            }
            Ok(())
        },
    );
}

// ----- microkernel semantic equivalence ---------------------------------------

/// For random library-supported sizes, replacing the matmul nest with a
/// microkernel call computes exactly the same C.
#[test]
fn microkernel_matches_loops() {
    check("microkernel_matches_loops", Config::with_cases(12), |g| {
        let (m, n) = (g.i64(1, 5) * 8, g.i64(1, 5) * 8); // library supports multiples of 8
        let k = g.i64(1, 40);
        let config = td_bench::cs4::Cs4Config { m, n, k };
        let mut reference: Option<f64> = None;
        for variant in [
            td_bench::cs4::Variant::Baseline,
            td_bench::cs4::Variant::TransformLibrary,
        ] {
            let mut ctx = td_bench::full_context();
            let module = td_bench::cs4::build_payload(&mut ctx, config);
            td_bench::cs4::apply_variant(&mut ctx, module, variant);
            let (checksum, _) = td_bench::cs4::run_payload(&ctx, module, config);
            match reference {
                None => reference = Some(checksum),
                Some(expected) => {
                    if (checksum - expected).abs() >= 1e-9 * expected.abs().max(1.0) {
                        return Err(format!("{checksum} vs {expected} at {m}x{n}x{k}"));
                    }
                }
            }
        }
        // The kernel call must actually be present for supported sizes.
        if k <= 512 && m % 32 == 0 && n % 32 == 0 {
            // The split/tile path uses tile size 32; for smaller m the
            // split main part is empty and the library may not fire.
            let mut ctx = td_bench::full_context();
            let module = td_bench::cs4::build_payload(&mut ctx, config);
            td_bench::cs4::apply_variant(
                &mut ctx,
                module,
                td_bench::cs4::Variant::TransformLibrary,
            );
            let has_kernel = ctx
                .walk_nested(module)
                .iter()
                .any(|&op| ctx.op(op).attr("microkernel").is_some());
            if !has_kernel {
                return Err(format!("kernel expected at {m}x{n}x{k}"));
            }
        }
        Ok(())
    });
}

/// Interchanging a 2-D nest never changes the computed result.
#[test]
fn interchange_preserves_semantics() {
    check(
        "interchange_preserves_semantics",
        Config::with_cases(12),
        |g| {
            let rows = g.i64(1, 20);
            let cols = g.i64(1, 20);
            let src = format!(
                r#"module {{
  func.func @acc(%x: memref<{rows}x{cols}xf32>, %out: memref<1xf32>) {{
    %lo = arith.constant 0 : index
    %hr = arith.constant {rows} : index
    %hc = arith.constant {cols} : index
    %st = arith.constant 1 : index
    %z = arith.constant 0 : index
    scf.for %i = %lo to %hr step %st {{
      scf.for %j = %lo to %hc step %st {{
        %v = "memref.load"(%x, %i, %j) : (memref<{rows}x{cols}xf32>, index, index) -> f32
        %a = "memref.load"(%out, %z) : (memref<1xf32>, index) -> f32
        %two = arith.constant 2.0 : f32
        %scaled = "arith.mulf"(%v, %two) : (f32, f32) -> f32
        %s = "arith.addf"(%a, %scaled) : (f32, f32) -> f32
        "memref.store"(%s, %out, %z) : (f32, memref<1xf32>, index) -> ()
      }}
    }}
    func.return
  }}
}}"#
            );
            let run = |interchange: bool| -> Result<f64, String> {
                let mut ctx = td_bench::full_context();
                let module = td_ir::parse_module(&mut ctx, &src).map_err(|e| e.to_string())?;
                if interchange {
                    let root = td_dialects::scf::collect_loops(&ctx, module)[0];
                    td_transform::loop_transforms::interchange(&mut ctx, root, &[1, 0])
                        .map_err(|e| format!("{e:?}"))?;
                    td_ir::verify::verify(&ctx, module).map_err(|e| format!("{e:?}"))?;
                }
                let mut args = td_machine::ArgBuilder::new();
                let x = args.buffer((0..rows * cols).map(|i| (i % 11) as f64 - 5.0).collect());
                let out = args.buffer(vec![0.0]);
                let buffers = args.into_buffers();
                let (_, buffers, _) = td_machine::run_function_with_buffers(
                    &ctx,
                    module,
                    "acc",
                    vec![x, out],
                    buffers,
                    td_machine::ExecConfig::default(),
                    None,
                )
                .map_err(|e| format!("{e:?}"))?;
                Ok(buffers[1][0])
            };
            let (reference, transformed) = (run(false)?, run(true)?);
            if reference != transformed {
                return Err(format!("{rows}x{cols}: {reference} != {transformed}"));
            }
            Ok(())
        },
    );
}

// ----- interpreter robustness under random scripts -----------------------------

/// Generates a random (often nonsensical) transform script over a fixed
/// payload shape. Handles are threaded through a value stack so scripts are
/// well-formed SSA even when they are semantically doomed.
fn generated_script(ops: &[(u8, u8)]) -> String {
    let mut body = String::new();
    let mut handles: Vec<String> = vec!["%root".to_owned()];
    for (i, &(kind, which)) in ops.iter().enumerate() {
        let name = format!("%h{i}");
        let source = handles[which as usize % handles.len()].clone();
        match kind % 7 {
            0 => body.push_str(&format!(
                "    {name} = \"transform.match_op\"({source}) {{name = \"scf.for\", select = \"first\"}} : (!transform.any_op) -> !transform.any_op\n"
            )),
            1 => body.push_str(&format!(
                "    {name} = \"transform.match_op\"({source}) {{name = \"memref.load\", select = \"all\"}} : (!transform.any_op) -> !transform.any_op\n"
            )),
            2 => {
                body.push_str(&format!(
                    "    {name}, %p{i} = \"transform.loop.tile\"({source}) {{tile_sizes = [{}]}} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)\n",
                    1 + (which as i64 % 9)
                ));
                handles.push(format!("%p{i}"));
            }
            3 => body.push_str(&format!(
                "    {name} = \"transform.loop.unroll\"({source}) {{factor = {}}} : (!transform.any_op) -> !transform.any_op\n",
                1 + (which as i64 % 5)
            )),
            4 => {
                body.push_str(&format!(
                    "    {name}, %r{i} = \"transform.loop.split\"({source}) {{div_by = {}}} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)\n",
                    1 + (which as i64 % 7)
                ));
                handles.push(format!("%r{i}"));
            }
            5 => body.push_str(&format!(
                "    {name} = \"transform.get_parent_op\"({source}) : (!transform.any_op) -> !transform.any_op\n"
            )),
            _ => {
                body.push_str(&format!(
                    "    \"transform.annotate\"({source}) {{name = \"mark{i}\"}} : (!transform.any_op) -> ()\n"
                ));
                continue;
            }
        }
        handles.push(name);
    }
    format!(
        "module {{\n  transform.named_sequence @main(%root: !transform.any_op) {{\n{body}  }}\n}}"
    )
}

/// Random transform scripts never panic the interpreter: they either
/// apply (leaving verified IR) or fail with a structured error. On
/// error, any *definite* failure must be an invalidation/expectation
/// error, never a crash.
#[test]
fn interpreter_is_total_on_random_scripts() {
    check(
        "interpreter_is_total_on_random_scripts",
        Config::with_cases(96),
        |g| {
            let ops = g.vec(0, 14, |g| (g.any_u8(), g.any_u8()));
            let payload_src = r#"module {
  func.func @f(%m: memref<24x24xf32>) {
    %lo = arith.constant 0 : index
    %hi = arith.constant 24 : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {
      scf.for %j = %lo to %hi step %st {
        %v = "memref.load"(%m, %i, %j) : (memref<24x24xf32>, index, index) -> f32
        "test.use"(%v) : (f32) -> ()
      }
    }
    func.return
  }
}"#;
            let script_src = generated_script(&ops);
            let mut ctx = td_bench::full_context();
            let payload = td_ir::parse_module(&mut ctx, payload_src).map_err(|e| e.to_string())?;
            let script = td_ir::parse_module(&mut ctx, &script_src)
                .map_err(|e| format!("generated script must parse: {e}\n{script_src}"))?;
            let entry = ctx
                .lookup_symbol(script, "main")
                .ok_or("entry point missing")?;
            let env = td_transform::InterpEnv::standard();
            let outcome = td_transform::Interpreter::new(&env).apply(&mut ctx, entry, payload);
            // Whatever happened, the payload must still be verifiable IR —
            // failed transforms either do not mutate or mutate consistently.
            td_ir::verify::verify(&ctx, payload)
                .map_err(|e| format!("payload corrupted: {e:?}\nscript:\n{script_src}"))?;
            let _ = outcome;
            Ok(())
        },
    );
}

// ----- observability JSON emission is robust to hostile names ------------------

/// Builds a string from a palette biased toward JSON-hostile characters:
/// quotes, backslashes, newlines, other control characters (< 0x20), and
/// multi-byte unicode.
fn hostile_string(g: &mut Gen) -> String {
    let picks = g.vec(0, 24, |g| g.u8(0, 15));
    let mut s = String::new();
    for p in picks {
        match p {
            0 => s.push('"'),
            1 => s.push('\\'),
            2 => s.push('\n'),
            3 => s.push('\r'),
            4 => s.push('\t'),
            5 => s.push('\u{0}'),
            6 => s.push('\u{1}'),
            7 => s.push('\u{1f}'),
            8 => s.push('\u{7f}'),
            9 => s.push('é'),
            10 => s.push('日'),
            _ => s.push((b'a' + (p - 11)) as char),
        }
    }
    s
}

/// Every trace, metrics, and journal JSON emission must stay well-formed
/// (accepted by the std-only `trace::validate_json`) no matter what op
/// names, span args, or failure messages contain — including quotes,
/// backslashes, newlines, and raw control characters.
#[test]
fn observability_json_survives_hostile_names() {
    use td_support::{journal, metrics, trace};
    check(
        "observability_json_survives_hostile_names",
        Config::default(),
        |g| {
            let names = g.vec(1, 8, hostile_string);

            // Trace: spans (with hostile args) and instant events.
            trace::reset();
            trace::set_enabled(true);
            for name in &names {
                let mut span = trace::span("prop", name.clone());
                span.arg("key", name.clone());
                trace::instant("prop", name, &[("arg", format!("x{name}"))]);
            }
            let emitted = trace::take();
            trace::clear_enabled_override();
            let chrome = emitted.to_chrome_json();
            trace::validate_json(&chrome)
                .map_err(|e| format!("trace JSON invalid: {e}\n{chrome}"))?;

            // Metrics: counter and timer names.
            let mut m = metrics::Metrics::new();
            for name in &names {
                m.add_counter(name, 1);
                m.add_timer_ns(name, 7);
            }
            let metrics_json = m.to_json();
            trace::validate_json(&metrics_json)
                .map_err(|e| format!("metrics JSON invalid: {e}\n{metrics_json}"))?;

            // Journal: step names, locations, handles, messages, changes,
            // artifacts.
            journal::reset();
            journal::set_enabled(true);
            for name in &names {
                let symbol = td_support::Symbol::new(name);
                let location = td_support::Location::name(name);
                let step = journal::begin_step("transform", symbol, Some(&location), [], 1);
                let op = journal::RawId::default();
                journal::record_change(journal::ChangeKind::Created, op, symbol, 0);
                journal::end_step(
                    step,
                    2,
                    5,
                    journal::StepOutcome::FailedSilenceable,
                    name,
                    Some((op, symbol)),
                );
                journal::add_artifact("bisect", name, name);
            }
            let recorded = journal::take();
            journal::clear_enabled_override();
            let journal_json = recorded.to_json();
            trace::validate_json(&journal_json)
                .map_err(|e| format!("journal JSON invalid: {e}\n{journal_json}"))?;
            Ok(())
        },
    );
}

// ----- generative fuzzer ------------------------------------------------------

/// Generated payload modules hit the print->parse->print fixed point, and
/// across the run the generator exercises every dialect it declares
/// (`td_modelgen::PAYLOAD_DIALECTS`).
#[test]
fn generated_payload_print_parse_fixpoint() {
    let dialects_seen = std::cell::RefCell::new(std::collections::BTreeSet::new());
    check(
        "generated_payload_print_parse_fixpoint",
        Config::with_cases(32),
        |g| {
            let seed = g.any_u64();
            let size = g.usize(0, 12) as u32;
            let opts = td_modelgen::PayloadOptions::new(seed).with_size(size);
            let first = td_modelgen::generate_payload_text(&opts);
            let mut ctx = td_fuzz::fresh_context();
            let module = td_ir::parse_module(&mut ctx, &first)
                .map_err(|e| format!("generated payload must parse: {}", e.message()))?;
            td_ir::verify::verify(&ctx, module)
                .map_err(|e| format!("generated payload must verify: {e:?}"))?;
            // walk (not walk_nested): the root builtin.module counts too.
            for &op in &ctx.walk(module) {
                let name = ctx.op(op).name.as_str();
                if let Some((dialect, _)) = name.split_once('.') {
                    dialects_seen.borrow_mut().insert(dialect.to_owned());
                }
            }
            let reprinted = td_ir::print_op(&ctx, module);
            if first != reprinted {
                return Err(format!(
                    "print->parse->print is not a fixed point (seed {seed}, size {size}):\n--- generated\n{first}\n--- reprinted\n{reprinted}"
                ));
            }
            Ok(())
        },
    );
    let dialects_seen = dialects_seen.into_inner();
    for dialect in td_modelgen::PAYLOAD_DIALECTS {
        assert!(
            dialects_seen.contains(*dialect),
            "dialect '{dialect}' never emitted across the run (saw: {dialects_seen:?})"
        );
    }
}

/// Generated transform schedules parse, and their *printed* form is a
/// print->parse->print fixed point (the raw generated text is
/// hand-formatted, so the first parse normalizes it).
#[test]
fn generated_schedule_print_parse_fixpoint() {
    check(
        "generated_schedule_print_parse_fixpoint",
        Config::with_cases(32),
        |g| {
            let seed = g.any_u64();
            let steps = g.usize(1, 12) as u32;
            let opts = td_modelgen::ScheduleOptions::new(
                seed,
                vec![
                    "arith.constant".to_owned(),
                    "func.func".to_owned(),
                    "scf.for".to_owned(),
                ],
            )
            .with_steps(steps);
            let text = td_modelgen::generate_schedule_text(&opts);
            let mut ctx1 = td_fuzz::fresh_context();
            let m1 = td_ir::parse_module(&mut ctx1, &text)
                .map_err(|e| format!("generated schedule must parse: {}", e.message()))?;
            let printed1 = td_ir::print_op(&ctx1, m1);
            let mut ctx2 = td_fuzz::fresh_context();
            let m2 = td_ir::parse_module(&mut ctx2, &printed1)
                .map_err(|e| format!("printed schedule must re-parse: {}", e.message()))?;
            let printed2 = td_ir::print_op(&ctx2, m2);
            if printed1 != printed2 {
                return Err(format!(
                    "schedule print->parse->print is not a fixed point (seed {seed}):\n--- first\n{printed1}\n--- second\n{printed2}"
                ));
            }
            Ok(())
        },
    );
}
