//! Per-layer numbers, all timed from outside: every measurement here is
//! a span around one call into a public function of one library crate,
//! on the workload's own pipeline and input shape.
//!
//! Layer names are the crates': `ml` (`hb-ml`/`hb-pipeline`), `core`,
//! `backend`, `tensor`, `serve`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hb_backend::{cost_cert, envelope_for, Artifact, Backend, Device, Executable, FaultPlan};
use hb_core::fil::FilForest;
use hb_core::{compile, CompileOptions, CompiledModel, TreeStrategy};
use hb_ml::baselines::{OnnxLikeForest, SklearnLikeForest};
use hb_pipeline::{FittedOp, Pipeline};
use hb_serve::{CoalesceConfig, ModelStore, ServeConfig, ServingModel, StoreConfig, Supervisor};
use hb_tensor::{DynTensor, Tensor};

use crate::spans::Trace;
use crate::stats::median;
use crate::workloads::{serve_config, Program, Workload};

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        // A layer that could not be measured reads 0, never NaN: the
        // result line must stay valid JSON.
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// What the traced run reports beyond the window phase.
pub struct Layers {
    /// Defined on every workload; `BENCHMARK.json` lists exactly these.
    pub metrics: Vec<Metric>,
    /// Tree-ensemble layers, present on the three workloads that have
    /// trees; reported and written to the trace file only.
    pub tree_extras: Vec<Metric>,
    /// GEMM tiles the autotuner chose in this process.
    pub tiles: Vec<String>,
}

const REPS: usize = 9;

/// The chain of public entry points one served request passes through,
/// outermost first; each is replayed as the child of the one before it.
pub const LADDER: [&str; 5] = [
    "serve.store.call",
    "serve.supervisor.call",
    "serve.model.call",
    "core.call",
    "backend.run",
];

fn put(m: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    m.push(metric(name, value, unit));
}

/// Median duration, in microseconds, of the spans called `name`.
fn median_us(trace: &Trace, name: &str) -> f64 {
    median(&trace.durations_us(name))
}

/// Runs `f` [`REPS`] times, each as one span called `name` (a name used
/// nowhere else), and returns the median duration in microseconds.
fn timed<T>(trace: &mut Trace, name: &'static str, mut f: impl FnMut() -> T) -> f64 {
    for rep in 0..REPS {
        let (out, _) = trace.time(name, None, rep as u64, &mut f);
        std::hint::black_box(out);
    }
    median_us(trace, name)
}

fn compiled_with(
    pipe: &Pipeline,
    opts: &CompileOptions,
    edit: impl FnOnce(&mut CompileOptions),
) -> Result<CompiledModel, String> {
    let mut o = opts.clone();
    edit(&mut o);
    compile(pipe, &o).map_err(|e| e.to_string())
}

fn run_exe(exe: &Executable, x: &DynTensor) {
    std::hint::black_box(exe.run(std::slice::from_ref(x)).expect("probe run failed"));
}

/// hb-core / hb-backend: the stages of one compile, one by one. Returns
/// the Eager-backend model it compiled on the way.
fn compile_stages(
    pipe: &Pipeline,
    opts: &CompileOptions,
    trace: &mut Trace,
    m: &mut Vec<Metric>,
) -> Result<CompiledModel, String> {
    let optimize_us = timed(trace, "core.optimize_pipeline", || {
        hb_core::optimizer::optimize_pipeline(pipe)
    });
    let optimized = hb_core::optimizer::optimize_pipeline(pipe);
    let parse_us = timed(trace, "core.parse", || {
        hb_core::containers::parse(&optimized)
    });
    // The Eager backend lowers nothing, so its graph is the converter's
    // output before any backend pass touched it.
    let eager = compiled_with(pipe, opts, |o| o.backend = Backend::Eager)?;
    let eager_compile_us = timed(trace, "core.compile_eager", || {
        compiled_with(pipe, opts, |o| o.backend = Backend::Eager)
    });
    let raw = eager.executable().graph().clone();
    let verify_us = timed(trace, "backend.verify", || raw.verify());
    let mut lower = |name, backend| {
        let mut graphs: Vec<_> = (0..REPS).map(|_| raw.clone()).collect();
        timed(trace, name, || {
            let g = graphs.pop().expect("one graph per repetition");
            Executable::try_new_with_faults(g, backend, opts.device, FaultPlan::none())
        })
    };
    let lower_us = lower("backend.lower", Backend::Compiled);
    let eager_lower_us = lower("backend.lower_eager", Backend::Eager);
    put(m, "core.optimize_pipeline_us", optimize_us, "us");
    put(m, "core.parse_us", parse_us, "us");
    // Conversion has no public entry point of its own: it is what is
    // left of an Eager compile once the stages that have one are taken
    // out.
    let convert_us = eager_compile_us - optimize_us - parse_us - verify_us - eager_lower_us;
    put(m, "core.convert_us", convert_us.max(0.0), "us");
    put(m, "backend.verify_us", verify_us, "us");
    put(m, "backend.lower_ms", lower_us / 1e3, "ms");
    Ok(eager)
}

/// hb-backend: what the compiled program is and what one warm run does,
/// as the executor itself counts it.
fn program_counters(
    model: &CompiledModel,
    x: &DynTensor,
    trace: &mut Trace,
    m: &mut Vec<Metric>,
) -> Result<(), String> {
    let exe = model.executable();
    let batch = x.shape()[0];
    let stats = exe.opt_stats().unwrap_or_default();
    put(m, "backend.opt.folded", stats.folded as f64, "count");
    put(m, "backend.opt.cse", stats.cse_merged as f64, "count");
    put(m, "backend.opt.fused", stats.fused_kernels as f64, "count");
    put(
        m,
        "backend.graph_nodes",
        exe.graph().nodes.len() as f64,
        "count",
    );
    let plan_us = timed(trace, "backend.plan_build", || {
        exe.plan_for_batch(batch + 1)
    });
    put(m, "backend.plan_build_us", plan_us, "us");

    // The first run of a batch size builds its plan and is not counted.
    run_exe(exe, x);
    let runs = 8;
    let mut planned = 0usize;
    let mut s = Default::default();
    for _ in 0..runs {
        (_, s) = exe
            .run_with_stats(std::slice::from_ref(x))
            .map_err(|e| e.to_string())?;
        planned += usize::from(s.planned);
    }
    put(
        m,
        "backend.kernel_launches",
        s.kernel_launches as f64,
        "count",
    );
    put(m, "backend.flops", s.flops, "count");
    put(m, "backend.bytes", s.bytes, "bytes");
    put(m, "backend.traversals", s.traversals, "count");
    put(m, "backend.allocations", s.allocations as f64, "count");
    put(m, "backend.arena_bytes", s.arena_bytes as f64, "bytes");
    put(
        m,
        "backend.planned_share",
        planned as f64 / runs as f64,
        "ratio",
    );

    let envelope_ratio = cost_cert(exe.graph(), batch).map_or(0.0, |c| {
        let e = envelope_for(&c);
        e.hi.as_secs_f64() / e.lo.as_secs_f64()
    });
    put(m, "backend.cost.envelope_ratio", envelope_ratio, "ratio");

    let export_us = timed(trace, "backend.artifact.export", || {
        model.artifact().map(|a| a.to_json_string())
    });
    let json = model
        .artifact()
        .map_err(|e| e.to_string())?
        .to_json_string();
    let parse_us = timed(trace, "backend.artifact.parse", || {
        Artifact::from_json_str(&json)
    });
    put(m, "backend.artifact.export_ms", export_us / 1e3, "ms");
    put(m, "backend.artifact.parse_ms", parse_us / 1e3, "ms");
    put(m, "backend.artifact.bytes", json.len() as f64, "bytes");
    Ok(())
}

/// hb-tensor: the three kernels the graphs lean on, at this workload's
/// batch and feature width.
fn tensor_kernels(x: &Tensor<f32>, trace: &mut Trace, m: &mut Vec<Metric>) {
    let (batch, width) = (x.shape()[0], x.shape()[1]);
    let weights = Tensor::from_fn(&[width, width], |i| ((i[0] * 7 + i[1]) % 13) as f32 * 0.1);
    let matmul_us = timed(trace, "tensor.matmul", || x.matmul(&weights));
    let columns: Vec<usize> = (0..width).rev().collect();
    let gather_us = timed(trace, "tensor.index_select", || x.index_select(1, &columns));
    let add_us = timed(trace, "tensor.add", || x.add(x));
    let elems = (batch * width) as f64;
    let gflops = 2.0 * elems * width as f64 / (matmul_us * 1e3);
    put(m, "tensor.matmul.gflops", gflops, "GFLOP/s");
    put(
        m,
        "tensor.gather.ns_per_elem",
        gather_us * 1e3 / elems,
        "ns/elem",
    );
    put(
        m,
        "tensor.elementwise.ns_per_elem",
        add_us * 1e3 / elems,
        "ns/elem",
    );
}

/// hb-serve: a fresh idle store, registered and deployed to.
fn store_writes(
    pipe: &Pipeline,
    config: &ServeConfig,
    trace: &mut Trace,
    m: &mut Vec<Metric>,
) -> Result<(), String> {
    for rep in 0..5u64 {
        let store = ModelStore::new(StoreConfig::default());
        trace
            .time("serve.store.register", None, rep, || {
                store.register("m", pipe, config.clone())
            })
            .0
            .map_err(|e| e.to_string())?;
        trace
            .time("serve.store.deploy", None, rep, || {
                store.deploy("m", pipe, config.clone())
            })
            .0
            .map_err(|e| e.to_string())?;
    }
    let register_ms = median_us(trace, "serve.store.register") / 1e3;
    put(m, "serve.store.register_ms", register_ms, "ms");
    let deploy_ms = median_us(trace, "serve.store.deploy") / 1e3;
    put(m, "serve.store.deploy_ms", deploy_ms, "ms");
    Ok(())
}

/// hb-serve: the coalescing front door, `nproc` callers of `predict_one`,
/// buckets `1..=nproc`. Its flush is timer-driven (a 500 us age
/// watermark), which is why it is a layer number and not a workload.
fn coalescing_front_door(
    w: &Workload,
    config: ServeConfig,
    nproc: usize,
    trace: &mut Trace,
    m: &mut Vec<Metric>,
) -> Result<(), String> {
    let config = ServeConfig {
        coalesce: Some(CoalesceConfig {
            buckets: (1..=nproc).collect(),
            ..CoalesceConfig::default()
        }),
        ..config
    };
    let model = ServingModel::new(&w.pipelines[0], config).map_err(|e| e.to_string())?;
    let supervisor = Supervisor::spawn(model, nproc);
    let rows: Vec<Tensor<f32>> = w
        .inputs
        .iter()
        .map(|x| x.slice(0, 0, 1).to_contiguous())
        .collect();
    let forks: Vec<Trace> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..nproc)
            .map(|c| {
                let mut fork = trace.fork();
                let (supervisor, rows) = (&supervisor, &rows);
                s.spawn(move || {
                    let started = Instant::now();
                    let mut i = c;
                    while started.elapsed() < Duration::from_millis(400) {
                        let (res, id) = fork.time("serve.coalesce.call", None, i as u64, || {
                            supervisor.predict_one(&rows[i % rows.len()])
                        });
                        // The front door may shed a request it expects to
                        // miss its deadline; that is its job, so count it.
                        if res.is_err() {
                            fork.spans[id].name = "serve.coalesce.refused";
                        }
                        drop(std::hint::black_box(res));
                        i += nproc;
                    }
                    fork
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("coalesce caller panicked"))
            .collect()
    });
    for fork in forks {
        trace.absorb(fork);
    }
    let stats = supervisor.model().stats();
    let refused = trace.durations_us("serve.coalesce.refused").len();
    let mean_batch = stats.total_served() as f64 / stats.coalesced_batches as f64;
    put(
        m,
        "serve.coalesce.call_us",
        median_us(trace, "serve.coalesce.call"),
        "us",
    );
    put(m, "serve.coalesce.refused", refused as f64, "count");
    put(m, "serve.coalesce.mean_batch", mean_batch, "count");
    Ok(())
}

/// One entry of the round-robin probe table: a call on input `i`.
struct Probe<'a> {
    name: &'static str,
    /// Index in the table of the layer that calls this one.
    parent: Option<usize>,
    tree_only: bool,
    call: Box<dyn Fn(usize) + 'a>,
}

fn probe<'a>(
    name: &'static str,
    parent: Option<usize>,
    tree_only: bool,
    call: impl Fn(usize) + 'a,
) -> Probe<'a> {
    Probe {
        name,
        parent,
        tree_only,
        call: Box::new(call),
    }
}

/// Measures every layer. `ladder_budget` bounds the round-robin part;
/// everything else is a fixed number of repetitions.
pub fn measure(
    w: &Workload,
    nproc: usize,
    ladder_budget: Duration,
    trace: &mut Trace,
) -> Result<Layers, String> {
    let pipe = &w.pipelines[0];
    let opts = &w.compile_opts;
    let config = serve_config(w.spec);
    let mut m: Vec<Metric> = vec![metric("ml.fit_s", w.times.fit_s, "s")];

    let eager = compile_stages(pipe, opts, trace, &mut m)?;
    let model = compiled_with(pipe, opts, |_| {})?;
    // Inputs already wrapped for `Executable::run`, so the wrap is not in
    // its span: `core.call` minus `backend.run` is what hb-core adds.
    let prepared: Vec<DynTensor> = w.inputs.iter().map(|x| DynTensor::F32(x.clone())).collect();
    program_counters(&model, &prepared[0], trace, &mut m)?;
    tensor_kernels(&w.inputs[0], trace, &mut m);
    store_writes(pipe, &config, trace, &mut m)?;

    // --- The ladder: one request through every layer's public entry
    // point, outermost first, each inner layer replayed as the child of
    // the one that calls it. Backend variants ride in the same
    // round-robin so all of them see the same machine.
    let serving = ServingModel::new(pipe, config.clone()).map_err(|e| e.to_string())?;
    let single = Supervisor::spawn(
        ServingModel::new(pipe, config.clone()).map_err(|e| e.to_string())?,
        nproc,
    );
    let own_store;
    let (store_sup, store, store_name) = match &w.program {
        Program::Store {
            supervisor,
            store,
            names,
            ..
        } => (supervisor, store, names[0].as_str()),
        Program::Compiled(_) => {
            let store = Arc::new(ModelStore::new(StoreConfig::default()));
            store
                .register("m", pipe, config.clone())
                .map_err(|e| e.to_string())?;
            own_store = (Supervisor::spawn_store(Arc::clone(&store), nproc), store);
            (&own_store.0, &own_store.1, "m")
        }
    };
    let exe = model.executable();
    let vm = exe.with_fused_vm_dispatch();
    let stack = exe.with_fused_stack_dispatch();
    let script = compiled_with(pipe, opts, |o| o.backend = Backend::Script)?;
    // The device the workload does not use is the other reading of the
    // same kernels: what kernel threads buy, and what spawning them costs.
    let all_cores = compiled_with(pipe, opts, |o| o.device = Device::cpu())?;
    let one_core = compiled_with(pipe, opts, |o| o.device = Device::cpu1())?;

    // Tree-only layers. The baselines score the ensemble alone, on the
    // input as it arrives: a featurizer in front of it would change the
    // answer, which is not checked here, and not the time.
    let ensemble = pipe.ops.iter().find_map(|op| match op {
        FittedOp::TreeEnsemble(e) => Some(e),
        _ => None,
    });
    let baselines = ensemble.map(|e| {
        (
            SklearnLikeForest::new(e),
            OnnxLikeForest::new(e),
            FilForest::new(e),
        )
    });
    let strategies = [
        ("core.strategy.gemm.call", TreeStrategy::Gemm),
        ("core.strategy.tt.call", TreeStrategy::TreeTraversal),
        ("core.strategy.ptt.call", TreeStrategy::PerfectTreeTraversal),
    ];
    // PTT refuses trees it cannot complete; that is a finding, not a
    // benchmark failure, so a strategy that does not compile is left out.
    let forced: Vec<(&'static str, CompiledModel)> = strategies
        .into_iter()
        .filter(|_| ensemble.is_some())
        .filter_map(|(name, s)| {
            Some((
                name,
                compiled_with(pipe, opts, |o| o.tree_strategy = s).ok()?,
            ))
        })
        .collect();

    let input = |i: usize| &w.inputs[i];
    let scored = |model: &CompiledModel, i: usize| {
        std::hint::black_box(model.predict_proba(input(i)).expect("probe call failed"));
    };
    let mut table: Vec<Probe> = Vec::new();
    table.push(probe(LADDER[0], None, false, |i| {
        let served = store_sup.predict_detailed_for(store_name, input(i));
        std::hint::black_box(served.expect("store"));
    }));
    table.push(probe(LADDER[1], Some(0), false, |i| {
        std::hint::black_box(single.predict_detailed(input(i)).expect("supervisor"));
    }));
    table.push(probe(LADDER[2], Some(1), false, |i| {
        std::hint::black_box(serving.predict_detailed(input(i)).expect("serving model"));
    }));
    table.push(probe(LADDER[3], Some(2), false, |i| scored(&model, i)));
    table.push(probe(LADDER[4], Some(3), false, |i| {
        run_exe(exe, &prepared[i])
    }));
    table.push(probe("ml.ref.call", None, false, |i| {
        std::hint::black_box(pipe.predict_proba(input(i)));
    }));
    table.push(probe("backend.eager.call", None, false, |i| {
        scored(&eager, i)
    }));
    table.push(probe("backend.script.call", None, false, |i| {
        scored(&script, i)
    }));
    table.push(probe("backend.allcores.call", None, false, |i| {
        scored(&all_cores, i)
    }));
    table.push(probe("backend.onecore.call", None, false, |i| {
        scored(&one_core, i)
    }));
    table.push(probe("backend.dispatch.vm.call", None, false, |i| {
        run_exe(&vm, &prepared[i])
    }));
    table.push(probe("backend.dispatch.stack.call", None, false, |i| {
        run_exe(&stack, &prepared[i])
    }));
    if let Some((sk, onnx, fil)) = &baselines {
        table.push(probe("ml.sklearn_like.call", None, true, |i| {
            std::hint::black_box(sk.predict_batch(input(i)));
        }));
        table.push(probe("ml.onnx_like.call", None, true, |i| {
            std::hint::black_box(onnx.predict_batch(input(i)));
        }));
        table.push(probe("core.fil.call", None, true, |i| {
            std::hint::black_box(fil.predict_batch(input(i)));
        }));
    }
    for (name, model) in &forced {
        table.push(probe(name, None, true, |i| scored(model, i)));
    }

    // Two untimed rounds warm every variant's plan cache.
    for i in 0..2 {
        table.iter().for_each(|p| (p.call)(i));
    }
    let started = Instant::now();
    let mut rounds = 0u64;
    let mut ids = vec![0usize; table.len()];
    while rounds < 16 || started.elapsed() < ladder_budget {
        let i = rounds as usize % w.inputs.len();
        for (k, p) in table.iter().enumerate() {
            let parent = p.parent.map(|k| ids[k]);
            ids[k] = trace.time(p.name, parent, rounds, || (p.call)(i)).1;
        }
        rounds += 1;
    }

    let mut extras = Vec::new();
    for p in &table {
        let target = if p.tree_only { &mut extras } else { &mut m };
        put(
            target,
            &format!("{}_us", p.name),
            median_us(trace, p.name),
            "us",
        );
    }
    let (core_us, run_us) = (
        median_us(trace, "core.call"),
        median_us(trace, "backend.run"),
    );
    put(
        &mut m,
        "core.wrap_overhead_us",
        (core_us - run_us).max(0.0),
        "us",
    );
    let script_us = median_us(trace, "backend.script.call");
    put(
        &mut m,
        "backend.compiled_over_script",
        script_us / core_us,
        "ratio",
    );
    put(&mut m, "trace.ladder_rounds", rounds as f64, "count");
    if !forced.is_empty() {
        let best = forced
            .iter()
            .map(|(name, _)| median_us(trace, name))
            .fold(f64::INFINITY, f64::min);
        put(
            &mut extras,
            "core.strategy.auto_regret",
            core_us / best,
            "ratio",
        );
    }

    // --- hb-serve counters, read where the store's requests were served.
    let latency = store_sup.latency();
    let p50_us = |h: &hb_serve::HistogramSnapshot| h.quantile(0.5).as_secs_f64() * 1e6;
    put(
        &mut m,
        "serve.queue_wait_p50_us",
        p50_us(&latency.queue_wait),
        "us",
    );
    put(
        &mut m,
        "serve.hist_e2e_p50_us",
        p50_us(&latency.end_to_end),
        "us",
    );
    put(
        &mut m,
        "serve.store.resident_bytes",
        store.resident_bytes() as f64,
        "bytes",
    );
    put(
        &mut m,
        "serve.store.pool_bytes",
        store.pool_bytes() as f64,
        "bytes",
    );
    let served = store_sup.health().model.stats;
    for (name, count) in [
        ("serve.served", served.total_served()),
        ("serve.degraded", served.degraded),
        ("serve.retries", served.retries),
        ("serve.rejected_overload", served.rejected_overload),
        ("serve.deadline_misses", served.deadline_misses),
        ("serve.breaker_skips", served.breaker_skips),
    ] {
        put(&mut m, name, count as f64, "count");
    }

    coalescing_front_door(w, config, nproc, trace, &mut m)?;

    let tiles: Vec<String> = hb_tensor::tune::tuned_snapshot()
        .into_iter()
        .map(|((m2, k2, n2, threads), tile)| {
            format!(
                "m2={m2} k2={k2} n2={n2} threads={threads} -> {}",
                tile.label()
            )
        })
        .collect();
    m.push(metric("tensor.tune.classes", tiles.len() as f64, "count"));

    Ok(Layers {
        metrics: m,
        tree_extras: extras,
        tiles,
    })
}
