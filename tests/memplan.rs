//! Static memory planner validation: planned (arena-backed) execution
//! must be *bit-identical* to the reference-counted executor for every
//! tree strategy and full pipelines, plans must be deterministic, and
//! warm compiled inference must reach a zero-allocation steady state.

use hummingbird::backend::device::P100;
use hummingbird::backend::{Backend, Device, RunStats};
use hummingbird::compiler::{compile, CompileOptions, TreeStrategy};
use hummingbird::ml::ensemble::{Aggregation, TreeEnsemble};
use hummingbird::ml::tree::Tree;
use hummingbird::pipeline::{fit_pipeline, OpSpec, Pipeline, Targets};
use hummingbird::tensor::{DynTensor, Tensor};

/// Deterministic xorshift in [0, 1).
fn make_rand(seed: u64) -> impl FnMut() -> f32 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// Builds a random binary tree of at most `depth` with `value_width`
/// leaf payloads (same builder as the strategy-equivalence suite).
fn random_tree(
    depth: usize,
    n_features: usize,
    value_width: usize,
    rand: &mut impl FnMut() -> f32,
) -> Tree {
    fn build(
        depth: usize,
        n_features: usize,
        value_width: usize,
        rand: &mut impl FnMut() -> f32,
        tree: &mut Tree,
    ) -> i32 {
        let id = tree.left.len();
        tree.left.push(-1);
        tree.right.push(-1);
        tree.feature.push(0);
        tree.threshold.push(0.0);
        for _ in 0..value_width {
            tree.values.push(rand() * 2.0 - 1.0);
        }
        if depth > 0 && rand() < 0.7 {
            let f = ((rand() * n_features as f32) as usize).min(n_features - 1);
            let l = build(depth - 1, n_features, value_width, rand, tree);
            let r = build(depth - 1, n_features, value_width, rand, tree);
            tree.left[id] = l;
            tree.right[id] = r;
            tree.feature[id] = f as u32;
            tree.threshold[id] = rand() * 2.0 - 1.0;
        }
        id as i32
    }
    let mut tree = Tree {
        left: vec![],
        right: vec![],
        feature: vec![],
        threshold: vec![],
        values: vec![],
        value_width,
    };
    build(depth, n_features, value_width, rand, &mut tree);
    tree
}

fn forest_pipeline(seed: u64, n_features: usize, n_classes: usize) -> Pipeline {
    let mut rand = make_rand(seed);
    let trees: Vec<Tree> = (0..8)
        .map(|_| random_tree(5, n_features, n_classes, &mut rand))
        .collect();
    Pipeline::from_op(TreeEnsemble {
        trees,
        n_features,
        n_classes,
        agg: Aggregation::AverageProba,
    })
}

fn batch(seed: u64, n_rows: usize, n_features: usize) -> Tensor<f32> {
    let mut rand = make_rand(seed);
    Tensor::from_fn(&[n_rows, n_features], |_| rand() * 2.0 - 1.0)
}

/// Runs the model on `device` through both executors on identical
/// inputs and asserts bit-identical outputs and identical cost
/// accounting (launches, flops, bytes, traversals and modeled device
/// time). Returns the refcount run's stats and the last warm planned
/// run's stats.
fn assert_planned_bitwise_identical(
    pipe: &Pipeline,
    strategy: TreeStrategy,
    x: &Tensor<f32>,
    device: Device,
) -> (RunStats, RunStats) {
    let opts = CompileOptions {
        tree_strategy: strategy,
        optimize_pipeline: false,
        device,
        ..Default::default()
    };
    let model = compile(pipe, &opts).expect("compile");
    let exe = model.executable();
    let inputs = [DynTensor::F32(x.clone())];
    let (want, ref_stats) = exe.run_refcount_with_stats(&inputs).expect("refcount run");
    assert!(!ref_stats.planned, "refcount path must not report planned");
    // First sighting builds + caches the plan but serves refcount;
    // subsequent runs must come from the warm arena plan.
    let mut last = None;
    for run in 0..3 {
        let (got, stats) = exe.run_with_stats(&inputs).expect("planned run");
        let label = strategy.label();
        if run > 0 {
            assert!(
                stats.planned,
                "{label}: warm run {run} not served from plan cache"
            );
        }
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(
                g.as_f32().to_vec(),
                w.as_f32().to_vec(),
                "{label}: planned output diverges bitwise from refcount"
            );
        }
        assert_eq!(
            (stats.kernel_launches, stats.flops, stats.bytes),
            (ref_stats.kernel_launches, ref_stats.flops, ref_stats.bytes),
            "{label}: run {run} launches/flops/bytes differ from refcount"
        );
        assert_eq!(
            (stats.traversals, stats.simulated),
            (ref_stats.traversals, ref_stats.simulated),
            "{label}: run {run} traversals/simulated time differ from refcount"
        );
        last = Some(stats);
    }
    (ref_stats, last.expect("ran"))
}

#[test]
fn planned_execution_bit_identical_gemm() {
    let pipe = forest_pipeline(0x5eed_0001, 10, 3);
    let x = batch(0xfeed_0001, 17, 10);
    assert_planned_bitwise_identical(&pipe, TreeStrategy::Gemm, &x, Device::cpu());
}

#[test]
fn planned_execution_bit_identical_tree_traversal() {
    let pipe = forest_pipeline(0x5eed_0002, 10, 3);
    let x = batch(0xfeed_0002, 17, 10);
    assert_planned_bitwise_identical(&pipe, TreeStrategy::TreeTraversal, &x, Device::cpu());
}

#[test]
fn planned_execution_bit_identical_perfect_tree_traversal() {
    let pipe = forest_pipeline(0x5eed_0003, 10, 3);
    let x = batch(0xfeed_0003, 17, 10);
    assert_planned_bitwise_identical(&pipe, TreeStrategy::PerfectTreeTraversal, &x, Device::cpu());
}

#[test]
fn planned_execution_matches_refcount_on_simulated_device() {
    let pipe = forest_pipeline(0x5eed_000b, 10, 3);
    let x = batch(0xfeed_000b, 33, 10);
    let (refcount, planned) =
        assert_planned_bitwise_identical(&pipe, TreeStrategy::Gemm, &x, Device::Sim(P100));
    assert!(refcount.simulated.is_some() && planned.planned);
}

#[test]
fn no_tensor_is_allocated_inside_a_rayon_worker() {
    // Run accounting reads counters scoped to the calling thread. That
    // is sound only while kernels allocate their tensors before fanning
    // out to the pool's workers: a 4-thread pool splits these kernels
    // across workers, yet must count exactly what one thread counts.
    let pipe = forest_pipeline(0x5eed_000c, 16, 3);
    let x = batch(0xfeed_000c, 1000, 16);
    for strategy in [
        TreeStrategy::Gemm,
        TreeStrategy::TreeTraversal,
        TreeStrategy::PerfectTreeTraversal,
    ] {
        let one = assert_planned_bitwise_identical(&pipe, strategy, &x, Device::cpu1());
        let four =
            assert_planned_bitwise_identical(&pipe, strategy, &x, Device::Cpu { threads: 4 });
        assert!(
            one.0.allocations > 0,
            "{strategy:?}: refcount run allocated nothing"
        );
        for (path, a, b) in [("refcount", &one.0, &four.0), ("planned", &one.1, &four.1)] {
            assert_eq!(
                (a.allocations, a.peak_tensor_bytes),
                (b.allocations, b.peak_tensor_bytes),
                "{strategy:?} {path}: 1-thread vs 4-thread allocations/peak bytes"
            );
        }
    }
}

#[test]
fn concurrent_executables_see_only_their_own_counters() {
    let compile_on_one_core = |seed| {
        let opts = CompileOptions {
            tree_strategy: TreeStrategy::Gemm,
            optimize_pipeline: false,
            device: Device::cpu1(),
            ..Default::default()
        };
        compile(&forest_pipeline(seed, 16, 3), &opts).expect("compile")
    };
    let (a, b) = (
        compile_on_one_core(0x5eed_000d),
        compile_on_one_core(0x5eed_000e),
    );
    let xa = [DynTensor::F32(batch(0xfeed_000d, 64, 16))];
    let xb = [DynTensor::F32(batch(0xfeed_000e, 256, 16))];
    let solo = b.executable().run_refcount_with_stats(&xb).expect("solo");
    for _ in 0..2 {
        a.executable().run_with_stats(&xa).expect("warm-up");
    }
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        // B allocates on every run while A runs its warm plan beside it.
        let b_runs = scope.spawn(|| {
            start.wait();
            for run in 0..30 {
                let (_, stats) = b.executable().run_refcount_with_stats(&xb).expect("B");
                assert_eq!(
                    (stats.allocations, stats.peak_tensor_bytes),
                    (solo.1.allocations, solo.1.peak_tensor_bytes),
                    "B run {run}: counters differ from its solo run"
                );
            }
        });
        start.wait();
        let mut a_runs = 0;
        while a_runs < 30 || !b_runs.is_finished() {
            let (_, stats) = a.executable().run_with_stats(&xa).expect("A");
            assert!(stats.planned, "A run {a_runs} not planned");
            assert_eq!(stats.allocations, 0, "A run {a_runs} saw allocations");
            a_runs += 1;
        }
    });
}

#[test]
fn planned_execution_bit_identical_e2e_pipeline() {
    // Full featurizer + model pipeline through the pipeline optimizer:
    // the planner must survive fused / rewritten graphs too.
    let n = 120;
    let d = 8;
    let x = Tensor::from_fn(&[n, d], |i| {
        let cls = (i[0] % 3) as f32;
        cls * 1.3 + ((i[0] * 13 + i[1] * 7) % 11) as f32 * 0.25 - 1.0
    });
    let y = Targets::Classes((0..n).map(|i| (i % 3) as i64).collect());
    let pipe = fit_pipeline(
        &[
            OpSpec::StandardScaler,
            OpSpec::RandomForestClassifier(Default::default()),
        ],
        &x,
        &y,
    );
    let model = compile(&pipe, &CompileOptions::default()).expect("compile");
    let exe = model.executable();
    let inputs = [DynTensor::F32(batch(0xfeed_0004, 33, d))];
    let (want, _) = exe.run_refcount_with_stats(&inputs).expect("refcount run");
    for _ in 0..3 {
        let (got, _) = exe.run_with_stats(&inputs).expect("planned run");
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.as_f32().to_vec(), w.as_f32().to_vec());
        }
    }
}

#[test]
fn warm_compiled_runs_make_zero_allocations() {
    // All three strategies must reach the allocation-free steady state —
    // TT/PTT exercise the strided gather/compare kernels that used to
    // materialize transposed cursor views every run.
    for strategy in [
        TreeStrategy::Gemm,
        TreeStrategy::TreeTraversal,
        TreeStrategy::PerfectTreeTraversal,
    ] {
        let pipe = forest_pipeline(0x5eed_0005, 12, 4);
        let opts = CompileOptions {
            tree_strategy: strategy,
            optimize_pipeline: false,
            ..Default::default()
        };
        let model = compile(&pipe, &opts).expect("compile");
        let exe = model.executable();
        let inputs = [DynTensor::F32(batch(0xfeed_0005, 64, 12))];
        // Run 1 builds the plan (refcount), run 2 warms up any lazy state,
        // run 3 must be the zero-allocation steady state.
        let mut last = None;
        for _ in 0..3 {
            let (_, stats) = exe.run_with_stats(&inputs).expect("run");
            last = Some(stats);
        }
        let stats = last.expect("ran");
        assert!(stats.planned, "{strategy:?}: steady-state run not planned");
        assert!(
            stats.arena_bytes > 0,
            "{strategy:?}: planned run reports no arena"
        );
        assert_eq!(
            stats.allocations, 0,
            "{strategy:?}: steady-state compiled inference must perform \
             zero tensor heap allocations"
        );
    }
}

#[test]
fn planned_peak_memory_beats_refcount() {
    // Acceptance criterion: on a GEMM forest the arena's liveness-based
    // reuse must cut peak tensor bytes by >= 30% vs the refcount path.
    let pipe = forest_pipeline(0x5eed_0006, 16, 3);
    let opts = CompileOptions {
        tree_strategy: TreeStrategy::Gemm,
        optimize_pipeline: false,
        ..Default::default()
    };
    let model = compile(&pipe, &opts).expect("compile");
    let exe = model.executable();
    let inputs = [DynTensor::F32(batch(0xfeed_0006, 1000, 16))];
    let (want, ref_stats) = exe.run_refcount_with_stats(&inputs).expect("refcount");
    let mut planned_stats = None;
    for _ in 0..2 {
        let (got, stats) = exe.run_with_stats(&inputs).expect("run");
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.as_f32().to_vec(), w.as_f32().to_vec());
        }
        planned_stats = Some(stats);
    }
    let planned = planned_stats.expect("ran");
    assert!(planned.planned);
    assert!(
        planned.peak_tensor_bytes * 10 <= ref_stats.peak_tensor_bytes * 7,
        "planned peak {} not >=30% below refcount peak {}",
        planned.peak_tensor_bytes,
        ref_stats.peak_tensor_bytes
    );
}

#[test]
fn plans_are_deterministic_per_batch_size() {
    let pipe = forest_pipeline(0x5eed_0007, 10, 3);
    let opts = CompileOptions {
        tree_strategy: TreeStrategy::Gemm,
        optimize_pipeline: false,
        ..Default::default()
    };
    let model = compile(&pipe, &opts).expect("compile");
    let exe = model.executable();
    let a = exe.plan_for_batch(64).expect("plan");
    let b = exe.plan_for_batch(64).expect("plan again");
    assert_eq!(a, b, "same batch size must produce identical plans");
    assert!(a.planned_kernels > 0, "no kernels planned");
    assert!(
        a.arena_bytes <= a.naive_bytes,
        "arena {} exceeds naive sum {}",
        a.arena_bytes,
        a.naive_bytes
    );
}

#[test]
fn plan_cache_serves_multiple_batch_sizes() {
    let pipe = forest_pipeline(0x5eed_0008, 10, 3);
    let opts = CompileOptions {
        tree_strategy: TreeStrategy::Gemm,
        optimize_pipeline: false,
        ..Default::default()
    };
    let model = compile(&pipe, &opts).expect("compile");
    let exe = model.executable();
    for rows in [8usize, 16, 8, 16, 8] {
        let inputs = [DynTensor::F32(batch(0xfeed_0008 + rows as u64, rows, 10))];
        let (want, _) = exe.run_refcount_with_stats(&inputs).expect("refcount");
        let (got, _) = exe.run_with_stats(&inputs).expect("run");
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.as_f32().to_vec(), w.as_f32().to_vec());
        }
    }
}

#[test]
fn eager_and_script_backends_stay_on_refcount_path() {
    let pipe = forest_pipeline(0x5eed_0009, 10, 3);
    for backend in [Backend::Eager, Backend::Script] {
        let opts = CompileOptions {
            backend,
            optimize_pipeline: false,
            ..Default::default()
        };
        let model = compile(&pipe, &opts).expect("compile");
        let exe = model.executable();
        let inputs = [DynTensor::F32(batch(0xfeed_0009, 12, 10))];
        for _ in 0..3 {
            let (_, stats) = exe.run_with_stats(&inputs).expect("run");
            assert!(!stats.planned, "{backend:?} must never use the arena plan");
        }
    }
}

#[test]
fn optimized_pipeline_with_injected_selector_still_plans() {
    // §5.2 feature-selection injection prepends a FeatureSelector to the
    // pipeline; width tracking must survive it (the selector carries its
    // fit-time input width) so the compiler still declares a concrete
    // [B, width] input fact and the planner is not defeated. Trees built
    // over 12 features rarely use all of them at depth 5, so injection
    // fires for this seed.
    let pipe = forest_pipeline(0x5eed_000a, 12, 3);
    let opts = CompileOptions {
        optimize_pipeline: true,
        ..Default::default()
    };
    let model = compile(&pipe, &opts).expect("compile");
    let exe = model.executable();
    let inputs = [DynTensor::F32(batch(0xfeed_000a, 48, 12))];
    let (want, _) = exe.run_refcount_with_stats(&inputs).expect("refcount");
    let mut planned = false;
    for _ in 0..3 {
        let (got, stats) = exe.run_with_stats(&inputs).expect("run");
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.as_f32().to_vec(), w.as_f32().to_vec());
        }
        planned |= stats.planned;
    }
    assert!(
        planned,
        "optimize_pipeline: true must not defeat the memory planner"
    );
}
