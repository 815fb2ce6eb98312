//! The four workloads: data generation, fitting, and the program under
//! test. Everything here is driven by the `--seed` argument; the program
//! under test only ever sees the generated tensors.
//!
//! Sizes are recorded in [`SPECS`] with the reason for each; README.md
//! explains why each workload exists.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hb_backend::Device;
use hb_core::{compile, CompileOptions, CompiledModel};
use hb_data::{nomao_like, tree_bench_dataset, Dataset, TREE_BENCH_SPECS};
use hb_ml::featurize::ImputeStrategy;
use hb_ml::forest::ForestConfig;
use hb_ml::gbdt::GbdtConfig;
use hb_pipeline::{fit_pipeline, OpSpec, Pipeline};
use hb_serve::{ModelStore, ServeConfig, ServingModel, StoreConfig, Supervisor};
use hb_tensor::Tensor;
use rand::{Rng, SeedableRng, StdRng};

/// Static description of one workload.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Generated rows; `hb-data` keeps 80% for training, 20% for scoring.
    pub rows: usize,
    /// Records per call.
    pub batch: usize,
    /// Distinct pre-sliced inputs the generator cycles through.
    pub n_inputs: usize,
    /// Models hosted (1 except for the store).
    pub n_models: usize,
    /// Closed-loop generator threads; capped at `nproc` when run.
    pub clients: usize,
}

/// Sizes were chosen so a 2.0 s program block holds at least 200 calls
/// (ten samples beyond p95) on a 2-core box, and so that fitting stays
/// a small part of set-up.
pub const SPECS: [Spec; 4] = [
    // The issue's batch of 1 000 takes ~10.5 ms per call here, 190 calls
    // per block; 500 rows take ~5 ms, 380 per block.
    Spec {
        name: "trees_batch",
        rows: 20_000,
        batch: 500,
        n_inputs: 8,
        n_models: 1,
        clients: 1,
    },
    // ~1 ms per call: 2 000 calls per block.
    Spec {
        name: "pipeline_batch",
        rows: 20_000,
        batch: 1000,
        n_inputs: 4,
        n_models: 1,
        clients: 1,
    },
    // 256 rows of 28 floats stay in L1/L2, so per-call fixed cost, not
    // memory, is what is measured. ~32 us per call on one core.
    Spec {
        name: "single_record",
        rows: 10_000,
        batch: 1,
        n_inputs: 256,
        n_models: 1,
        clients: 1,
    },
    // Four same-shape forests so latency stays unimodal across models.
    // ~90 us per call under two clients.
    Spec {
        name: "serve_store",
        rows: 10_000,
        batch: 1,
        n_inputs: 256,
        n_models: 4,
        clients: 2,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One generated request: which model, which pre-sliced input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub model: usize,
    pub input: usize,
}

/// The program under test.
pub enum Program {
    /// `CompiledModel::predict_proba`, called directly.
    Compiled(CompiledModel),
    /// A `ModelStore` behind `Supervisor::spawn_store`.
    Store {
        supervisor: Supervisor,
        store: Arc<ModelStore>,
        names: Vec<String>,
        config: ServeConfig,
    },
}

impl Program {
    /// One request through the public API; refusals and errors come back
    /// as text so the run loop can count them.
    pub fn call(&self, model: usize, x: &Tensor<f32>) -> Result<Tensor<f32>, String> {
        match self {
            Program::Compiled(m) => m.predict_proba(x).map_err(|e| e.to_string()),
            Program::Store {
                supervisor, names, ..
            } => supervisor
                .predict_detailed_for(&names[model], x)
                .map(|s| s.output)
                .map_err(|e| e.to_string()),
        }
    }
}

/// Wall time of each set-up stage, seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub data_s: f64,
    pub fit_s: f64,
    /// Compile (or register, for the store) including cache-cold
    /// autotune and cost calibration.
    pub build_s: f64,
    pub expected_s: f64,
    pub warmup_s: f64,
}

/// A workload ready to be timed.
pub struct Workload {
    pub spec: &'static Spec,
    pub clients: usize,
    /// Fitted pipelines, one per model: the imperative reference scorers.
    pub pipelines: Vec<Pipeline>,
    pub inputs: Vec<Tensor<f32>>,
    /// Reference outputs `[model][input]`, from `Pipeline::predict_proba`.
    pub expected: Vec<Vec<Tensor<f32>>>,
    /// Seeded request sequence; client `c` of `n` takes every `n`-th.
    pub requests: Vec<Request>,
    pub program: Program,
    pub compile_opts: CompileOptions,
    pub times: SetupTimes,
}

fn forest_spec(seed: u64) -> OpSpec {
    OpSpec::RandomForestClassifier(ForestConfig {
        n_trees: 20,
        max_depth: 6,
        seed,
        ..ForestConfig::default()
    })
}

fn dataset(spec: &Spec, seed: u64) -> Dataset {
    match spec.name {
        "trees_batch" => tree_bench_dataset(&TREE_BENCH_SPECS[4], spec.rows, seed),
        "pipeline_batch" => nomao_like(spec.rows, seed),
        _ => tree_bench_dataset(&TREE_BENCH_SPECS[0], spec.rows, seed),
    }
}

fn op_specs(spec: &Spec, seed: u64, model: usize) -> Vec<OpSpec> {
    match spec.name {
        "trees_batch" => vec![OpSpec::GbdtClassifier(GbdtConfig {
            n_rounds: 60,
            max_depth: 6,
            seed,
            ..GbdtConfig::default()
        })],
        "pipeline_batch" => vec![
            OpSpec::SimpleImputer {
                strategy: ImputeStrategy::Mean,
            },
            OpSpec::StandardScaler,
            OpSpec::SelectPercentile { percentile: 20 },
            OpSpec::LogisticRegression(Default::default()),
        ],
        _ => vec![
            OpSpec::StandardScaler,
            forest_spec(seed.wrapping_add(model as u64)),
        ],
    }
}

pub fn compile_options(spec: &Spec) -> CompileOptions {
    CompileOptions {
        expected_batch: spec.batch,
        // One record per call is the paper's request/response setting,
        // which it (and this repo's table 8) runs on one core.
        device: if spec.batch == 1 {
            Device::cpu1()
        } else {
            Device::cpu()
        },
        ..CompileOptions::default()
    }
}

pub fn serve_config(spec: &Spec) -> ServeConfig {
    ServeConfig {
        deadline: Some(Duration::from_millis(250)),
        compile: compile_options(spec),
        ..ServeConfig::default()
    }
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Builds the workload from nothing: the part `setup_s` covers.
pub fn build(spec: &'static Spec, seed: u64, nproc: usize) -> Result<Workload, String> {
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let ds = dataset(spec, seed);
    let n_test = ds.x_test.shape()[0];
    if n_test < spec.n_inputs * spec.batch {
        return Err(format!(
            "{}: {} test rows cannot fill {} inputs of {} rows",
            spec.name, n_test, spec.n_inputs, spec.batch
        ));
    }
    let inputs: Vec<Tensor<f32>> = (0..spec.n_inputs)
        .map(|i| {
            ds.x_test
                .slice(0, i * spec.batch, (i + 1) * spec.batch)
                .to_contiguous()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0f2e_9e57);
    let requests: Vec<Request> = (0..4096)
        .map(|_| Request {
            model: rng.gen_range(0..spec.n_models),
            input: rng.gen_range(0..spec.n_inputs),
        })
        .collect();
    times.data_s = secs_since(t);

    let t = Instant::now();
    let pipelines: Vec<Pipeline> = (0..spec.n_models)
        .map(|m| fit_pipeline(&op_specs(spec, seed, m), &ds.x_train, &ds.y_train))
        .collect();
    times.fit_s = secs_since(t);

    let t = Instant::now();
    let compile_opts = compile_options(spec);
    let program = if spec.name == "serve_store" {
        let store = Arc::new(ModelStore::new(StoreConfig::default()));
        let config = serve_config(spec);
        let names: Vec<String> = (0..spec.n_models).map(|m| format!("forest{m}")).collect();
        for (name, pipe) in names.iter().zip(&pipelines) {
            store
                .register(name, pipe, config.clone())
                .map_err(|e| format!("register {name}: {e}"))?;
        }
        Program::Store {
            supervisor: Supervisor::spawn_store(Arc::clone(&store), nproc),
            store,
            names,
            config,
        }
    } else {
        Program::Compiled(compile(&pipelines[0], &compile_opts).map_err(|e| e.to_string())?)
    };
    times.build_s = secs_since(t);

    let t = Instant::now();
    let expected: Vec<Vec<Tensor<f32>>> = pipelines
        .iter()
        .map(|p| inputs.iter().map(|x| p.predict_proba(x)).collect())
        .collect();
    times.expected_s = secs_since(t);

    // Warm-up: every (model, input) pair at least once, and at least 64
    // calls, so the plan cache is warm and every GEMM shape class the
    // program meets has been autotuned before the first timed call.
    let t = Instant::now();
    let warm = (spec.n_models * spec.n_inputs).max(64);
    for i in 0..warm {
        let (model, input) = (i % spec.n_models, (i / spec.n_models) % spec.n_inputs);
        program
            .call(model, &inputs[input])
            .map_err(|e| format!("warm-up call failed: {e}"))?;
    }
    times.warmup_s = secs_since(t);

    Ok(Workload {
        spec,
        clients: spec.clients.min(nproc).max(1),
        pipelines,
        inputs,
        expected,
        requests,
        program,
        compile_opts,
        times,
    })
}

/// One cold build of the program, as `compile_ms` times it.
pub fn compile_once(w: &Workload) -> Result<Duration, String> {
    let t = Instant::now();
    match &w.program {
        Program::Compiled(_) => {
            let m = compile(&w.pipelines[0], &w.compile_opts).map_err(|e| e.to_string())?;
            let dt = t.elapsed();
            std::hint::black_box(&m);
            Ok(dt)
        }
        Program::Store { config, .. } => {
            let m =
                ServingModel::new(&w.pipelines[0], config.clone()).map_err(|e| e.to_string())?;
            let dt = t.elapsed();
            std::hint::black_box(&m);
            Ok(dt)
        }
    }
}

impl crate::run::Subject for Workload {
    fn call(&self, r: Request) -> Result<Tensor<f32>, String> {
        self.program.call(r.model, &self.inputs[r.input])
    }

    fn reference(&self, r: Request) -> Tensor<f32> {
        self.pipelines[r.model].predict_proba(&self.inputs[r.input])
    }

    fn expected(&self, r: Request) -> &Tensor<f32> {
        &self.expected[r.model][r.input]
    }

    fn rows_per_call(&self) -> usize {
        self.spec.batch
    }

    fn call_span(&self) -> &'static str {
        match self.program {
            Program::Compiled(_) => "core.predict_proba",
            Program::Store { .. } => "serve.store.predict_detailed_for",
        }
    }

    /// The store's write beside the reads: the model whose turn it is
    /// gets the pipeline it already serves deployed as a new version, so
    /// the canary finds no divergence and promotes it long before that
    /// name's turn comes round again.
    fn write(&self, window: usize) -> Option<Result<(), String>> {
        let Program::Store {
            store,
            names,
            config,
            ..
        } = &self.program
        else {
            return None;
        };
        let m = window % names.len();
        Some(
            store
                .deploy(&names[m], &self.pipelines[m], config.clone())
                .map(|_| ())
                .map_err(|e| e.to_string()),
        )
    }
}
