//! Cross-crate integration tests: full flows from textual IR through the
//! Transform interpreter, the pass pipelines, and the execution substrate.

use td_bench::{full_context, full_pass_registry};
use td_machine::{run_function_with_buffers, ArgBuilder, ExecConfig, MicrokernelLibrary, RtValue};
use td_transform::{InterpEnv, Interpreter};

/// Parse payload + script, apply, verify, execute — the full quickstart
/// loop, checked numerically.
#[test]
fn script_transformed_code_computes_identically() {
    let payload_src = r#"module {
  func.func @sum(%x: memref<256xf32>, %out: memref<1xf32>) {
    %lo = arith.constant 0 : index
    %hi = arith.constant 256 : index
    %st = arith.constant 1 : index
    %zero = arith.constant 0 : index
    scf.for %i = %lo to %hi step %st {
      %xv = "memref.load"(%x, %i) : (memref<256xf32>, index) -> f32
      %acc = "memref.load"(%out, %zero) : (memref<1xf32>, index) -> f32
      %s = "arith.addf"(%acc, %xv) : (f32, f32) -> f32
      "memref.store"(%s, %out, %zero) : (f32, memref<1xf32>, index) -> ()
    }
    func.return
  }
}"#;
    let script_src = r#"module {
  transform.named_sequence @opt(%root: !transform.any_op) {
    %loop = "transform.match_op"(%root) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %tiles, %points = "transform.loop.tile"(%loop) {tile_sizes = [32]} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
    %u = "transform.loop.unroll"(%points) {factor = 8} : (!transform.any_op) -> !transform.any_op
  }
}"#;

    let run = |transform: bool| -> f64 {
        let mut ctx = full_context();
        let payload = td_ir::parse_module(&mut ctx, payload_src).unwrap();
        if transform {
            let script = td_ir::parse_module(&mut ctx, script_src).unwrap();
            let entry = ctx.lookup_symbol(script, "opt").unwrap();
            let env = InterpEnv::standard();
            Interpreter::new(&env)
                .apply(&mut ctx, entry, payload)
                .unwrap();
            td_ir::verify::verify(&ctx, payload).unwrap();
        }
        let mut args = ArgBuilder::new();
        let x = args.buffer((0..256).map(|i| (i as f64) * 0.5).collect());
        let out = args.buffer(vec![0.0]);
        let buffers = args.into_buffers();
        let (_, buffers, _) = run_function_with_buffers(
            &ctx,
            payload,
            "sum",
            vec![x, out],
            buffers,
            ExecConfig::default(),
            None,
        )
        .unwrap();
        buffers[1][0]
    };
    let reference = run(false);
    let transformed = run(true);
    assert_eq!(reference, transformed);
    assert_eq!(reference, (0..256).map(|i| (i as f64) * 0.5).sum::<f64>());
}

/// The pass manager and the transform interpreter produce byte-identical
/// IR for the same pipeline — on every Table 1 model.
#[test]
fn pass_manager_and_interpreter_agree_on_all_models() {
    let registry = full_pass_registry();
    for spec in td_modelgen::paper_models() {
        if spec.target_ops > 1500 {
            continue; // keep CI time bounded; the harness covers the rest
        }
        let mut ctx1 = full_context();
        let m1 = td_modelgen::build_model(&mut ctx1, &spec);
        registry
            .parse_pipeline(td_dialects::passes::TOSA_PIPELINE)
            .unwrap()
            .run(&mut ctx1, m1)
            .unwrap();

        let mut ctx2 = full_context();
        let m2 = td_modelgen::build_model(&mut ctx2, &spec);
        let script =
            td_transform::pipeline_to_script(&mut ctx2, td_dialects::passes::TOSA_PIPELINE)
                .unwrap();
        let entry = td_transform::transform_main(&ctx2, script).unwrap();
        let mut env = InterpEnv::standard();
        env.passes = Some(&registry);
        Interpreter::new(&env).apply(&mut ctx2, entry, m2).unwrap();

        assert_eq!(
            td_ir::print_op(&ctx1, m1),
            td_ir::print_op(&ctx2, m2),
            "{} diverged",
            spec.name
        );
    }
}

/// A lowered (LLVM-dialect) model still executes and produces finite
/// results: the whole TOSA → loops → execution path.
#[test]
fn lowered_model_executes() {
    let mut ctx = full_context();
    let spec = &td_modelgen::paper_models()[0]; // Squeezenet-like
    let module = td_modelgen::build_model(&mut ctx, spec);
    let registry = full_pass_registry();
    registry
        .parse_pipeline(td_dialects::passes::TOSA_PIPELINE)
        .unwrap()
        .run(&mut ctx, module)
        .unwrap();
    td_ir::verify::verify(&ctx, module).unwrap();
    // Input: one NHWC feature map buffer.
    let mut args = ArgBuilder::new();
    let input = args.buffer(vec![0.01; (8 * 8 * spec.hidden) as usize]);
    let buffers = args.into_buffers();
    let mut config = ExecConfig::default();
    config.max_steps = 2_000_000_000;
    let (results, _buffers, report) =
        run_function_with_buffers(&ctx, module, "main", vec![input], buffers, config, None)
            .unwrap();
    assert_eq!(results.len(), 1, "model returns its output memref");
    assert!(matches!(results[0], RtValue::Ptr(_)));
    assert!(report.instructions > 1000);
}

/// Case Study 2, as an integration test: naive pipeline fails only on the
/// dynamic-offset program, with the paper's error; fixed pipeline passes.
#[test]
fn cs2_pipeline_failure_modes() {
    let program = |dynamic: bool| -> String {
        let (sig, offs, operands, ty, ro) = if dynamic {
            (
                "%m: memref<8x8xf32>, %o: index",
                "[-9223372036854775808, 0]",
                "(%m, %o)",
                "(memref<8x8xf32>, index)",
                "?",
            )
        } else {
            (
                "%m: memref<8x8xf32>",
                "[0, 0]",
                "(%m)",
                "(memref<8x8xf32>)",
                "0",
            )
        };
        format!(
            r#"module {{
  func.func @f({sig}) {{
    %v = "memref.subview"{operands} {{static_offsets = {offs}, static_sizes = [2, 2], static_strides = [1, 1]}} : {ty} -> memref<2x2xf32, strided<[8, 1], offset: {ro}>>
    %c = arith.constant 7.0 : f32
    %z = arith.constant 0 : index
    "memref.store"(%c, %v, %z, %z) : (f32, memref<2x2xf32, strided<[8, 1], offset: {ro}>>, index, index) -> ()
    func.return
  }}
}}"#
        )
    };
    let registry = full_pass_registry();
    let compile = |pipeline: &str, dynamic: bool| -> Result<(), String> {
        let mut ctx = full_context();
        let module = td_ir::parse_module(&mut ctx, &program(dynamic)).unwrap();
        registry
            .parse_pipeline(pipeline)
            .unwrap()
            .run(&mut ctx, module)
            .map_err(|e| e.to_string())
    };
    assert!(compile(td_dialects::passes::CS2_NAIVE_PIPELINE, false).is_ok());
    let err = compile(td_dialects::passes::CS2_NAIVE_PIPELINE, true).unwrap_err();
    assert!(
        err.contains("failed to legalize operation 'builtin.unrealized_conversion_cast'"),
        "got: {err}"
    );
    assert!(compile(td_dialects::passes::CS2_FIXED_PIPELINE, false).is_ok());
    assert!(compile(td_dialects::passes::CS2_FIXED_PIPELINE, true).is_ok());
}

/// `transform.to_library` inside `alternatives`, end-to-end from text:
/// the kernel call replaces the nest and computes the same result.
#[test]
fn to_library_end_to_end() {
    use td_bench::cs4::{apply_variant, build_payload, run_payload, Cs4Config, Variant};
    let config = Cs4Config {
        m: 32,
        n: 32,
        k: 16,
    };
    let mut reference = None;
    for variant in [Variant::Baseline, Variant::TransformLibrary] {
        let mut ctx = full_context();
        let module = build_payload(&mut ctx, config);
        apply_variant(&mut ctx, module, variant);
        let (checksum, _) = run_payload(&ctx, module, config);
        let reference = *reference.get_or_insert(checksum);
        assert!((checksum - reference).abs() < 1e-9);
    }
    // And the library variant really contains the kernel call.
    let mut ctx = full_context();
    let module = build_payload(&mut ctx, config);
    apply_variant(&mut ctx, module, Variant::TransformLibrary);
    let has_kernel = ctx
        .walk_nested(module)
        .iter()
        .any(|&op| ctx.op(op).attr("microkernel").is_some());
    assert!(has_kernel);
    let _ = MicrokernelLibrary::libxsmm();
}

/// Static script checking composes with `apply_registered_pass` scripts:
/// a generated pipeline script is checkable before running.
#[test]
fn generated_scripts_are_statically_checkable() {
    let mut ctx = full_context();
    let script =
        td_transform::pipeline_to_script(&mut ctx, td_dialects::passes::CS2_FIXED_PIPELINE)
            .unwrap();
    let entry = td_transform::transform_main(&ctx, script).unwrap();
    let registry = td_transform::TransformOpRegistry::with_standard_ops();
    let report = td_transform::check_script(
        &ctx,
        &registry,
        entry,
        &[
            "func.func",
            "func.return",
            "arith.constant",
            "scf.for",
            "memref.subview",
            "memref.store",
        ],
        &td_transform::OpSet::of(["llvm.*"]),
    )
    .unwrap();
    assert!(report.is_ok(), "leftover: {:?}", report.leftover);

    let mut ctx = full_context();
    let script =
        td_transform::pipeline_to_script(&mut ctx, td_dialects::passes::CS2_NAIVE_PIPELINE)
            .unwrap();
    let entry = td_transform::transform_main(&ctx, script).unwrap();
    let report = td_transform::check_script(
        &ctx,
        &registry,
        entry,
        &[
            "func.func",
            "func.return",
            "arith.constant",
            "scf.for",
            "memref.subview",
            "memref.store",
        ],
        &td_transform::OpSet::of(["llvm.*"]),
    )
    .unwrap();
    assert!(!report.is_ok());
    assert!(report.leftover.contains(&"affine.apply".to_owned()));
}

/// IRDL-defined constraints refine payload scans: a trivial subview is
/// classified as `memref.subview.constr`, a strided one is not.
#[test]
fn irdl_constraint_refines_payload_scan() {
    let mut ctx = full_context();
    let module = td_ir::parse_module(
        &mut ctx,
        r#"module {
  func.func @f(%m: memref<8x8xf32>) {
    %trivial = "memref.subview"(%m) {static_offsets = [0, 0], static_sizes = [2, 2], static_strides = [1, 1]} : (memref<8x8xf32>) -> memref<2x2xf32, strided<[8, 1], offset: 0>>
    "test.use"(%trivial) : (memref<2x2xf32, strided<[8, 1], offset: 0>>) -> ()
    func.return
  }
}"#,
    )
    .unwrap();
    let mut irdl = td_irdl::IrdlRegistry::new();
    td_irdl::def::register_standard_constraints(&mut irdl);
    let descriptors = td_transform::conditions::scan_payload_ops(&ctx, module, Some(&irdl));
    assert!(
        descriptors.contains(&"memref.subview.constr".to_owned()),
        "{descriptors:?}"
    );
    assert!(!descriptors.contains(&"memref.subview".to_owned()));
}

/// The `convert-linalg-to-loops` lowering is numerically correct: a
/// bufferized `linalg.matmul` lowered to loops computes the right product.
#[test]
fn lowered_linalg_matmul_computes_correctly() {
    let mut ctx = full_context();
    let module = td_ir::parse_module(
        &mut ctx,
        r#"module {
  func.func @mm(%a: memref<2x3xf32>, %b: memref<3x2xf32>, %c: memref<2x2xf32>) {
    "linalg.matmul"(%a, %b, %c) : (memref<2x3xf32>, memref<3x2xf32>, memref<2x2xf32>) -> ()
    func.return
  }
}"#,
    )
    .unwrap();
    use td_ir::Pass;
    td_dialects::passes::LinalgToLoopsPass
        .run(&mut ctx, module)
        .unwrap();
    td_ir::verify::verify(&ctx, module).unwrap();
    let mut args = ArgBuilder::new();
    let a = args.buffer(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    let b = args.buffer(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
    let c = args.buffer(vec![0.0; 4]);
    let buffers = args.into_buffers();
    let (_, buffers, _) = run_function_with_buffers(
        &ctx,
        module,
        "mm",
        vec![a, b, c],
        buffers,
        ExecConfig::default(),
        None,
    )
    .unwrap();
    assert_eq!(buffers[2], vec![58.0, 64.0, 139.0, 154.0]);
}

/// `depth` generic ops, each holding the next in its region.
fn nested_regions(depth: usize) -> String {
    "\"t.r\"() ({\n".repeat(depth) + &"}) : () -> ()\n".repeat(depth)
}

/// The deepest payload the parser accepts still verifies, runs through the
/// interpreter and prints on a 2 MiB thread, the stack td-serve's pool
/// workers get.
#[test]
fn deepest_accepted_payload_runs_on_a_worker_sized_stack() {
    const SCRIPT: &str = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %all = "transform.match_op"(%root) {name = "t.r", select = "all"} : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%all) {name = "seen"} : (!transform.any_op) -> ()
  }
}"#;
    let worker = std::thread::Builder::new().stack_size(2 << 20);
    let run = worker.spawn(|| {
        // Past some depth every payload is refused; bisect for the last
        // accepted one.
        let parses =
            |depth| td_ir::parse_module(&mut full_context(), &nested_regions(depth)).is_ok();
        let (mut deepest, mut refused) = (1, 100_000);
        assert!(parses(deepest) && !parses(refused));
        while refused - deepest > 1 {
            let mid = (deepest + refused) / 2;
            if parses(mid) {
                deepest = mid;
            } else {
                refused = mid;
            }
        }
        let mut ctx = full_context();
        let payload = td_ir::parse_module(&mut ctx, &nested_regions(deepest)).unwrap();
        let script = td_ir::parse_module(&mut ctx, SCRIPT).unwrap();
        let entry = ctx.lookup_symbol(script, "main").unwrap();
        Interpreter::new(&InterpEnv::standard())
            .apply(&mut ctx, entry, payload)
            .unwrap();
        td_ir::verify::verify(&ctx, payload).unwrap();
        let text = td_ir::print_op(&ctx, payload);
        assert_eq!(text.matches("{seen}").count(), deepest);
        deepest
    });
    let deepest = run.unwrap().join().unwrap();
    assert!(deepest >= 64, "only {deepest} levels accepted");
}
