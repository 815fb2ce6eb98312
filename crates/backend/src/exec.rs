//! Graph executors: the Eager, Script, and Compiled backends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hb_tensor::{alloc, DynTensor, Tensor};

use crate::cancel::CancelToken;
use crate::device::{Device, DeviceSpec};
use crate::fault::FaultPlan;
use crate::graph::Graph;
use crate::op::{DestMut, Op};
use crate::optimize::{optimize_with, OptStats, PassToggles};
use crate::plan::{infer_batch, Inplace, MemoryPlan, Step};
use crate::Backend;

/// Bound on the per-executable plan cache: one warm plan per recently-seen
/// batch size, evicted least-recently-used (PRETZEL-style per-shape plan
/// caching, bounded so adversarial batch-size churn cannot grow memory).
const PLAN_CACHE_CAP: usize = 8;

/// A cached plan plus its live arena buffers.
struct PlanState {
    plan: MemoryPlan,
    slots: Vec<DynTensor>,
}

/// A cached plan's shared state. Its arena size sits beside the run
/// lock, so footprint readers see a plan even while a request holds it.
struct CachedPlan {
    arena_bytes: usize,
    state: Arc<Mutex<PlanState>>,
}

/// One plan-cache entry: batch size → cached plan, or `None` when that
/// batch defeats planning (negative cache).
type PlanEntry = (usize, Option<CachedPlan>);

/// Failure modes of compiled-graph execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The (simulated) accelerator ran out of device memory — mirrors the
    /// paper's K80 OOM at 1M-record batches under TorchScript.
    DeviceOom {
        /// Peak modeled residency the run required.
        needed: u64,
        /// Device capacity.
        capacity: u64,
    },
    /// Wrong number of graph inputs supplied.
    InputCount {
        /// Inputs the graph declares.
        expected: usize,
        /// Inputs supplied.
        got: usize,
    },
    /// An input had the wrong dtype.
    InputDType {
        /// Input slot index.
        slot: usize,
    },
    /// A kernel failed mid-run — either an injected fault or a panic
    /// caught at the per-node unwind boundary (e.g. a shape mismatch fed
    /// by a malformed request).
    Kernel {
        /// Node whose kernel failed.
        node: usize,
        /// The kernel's panic or fault message.
        message: String,
    },
    /// Lowering to the backend failed (injected compile-pass fault).
    Lowering {
        /// Description of the lowering failure.
        message: String,
    },
    /// The run observed its [`CancelToken`] between node evaluations and
    /// stopped cooperatively (deadline blown or shutdown requested)
    /// before reaching `node`.
    Cancelled {
        /// The node whose evaluation was skipped.
        node: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::DeviceOom { needed, capacity } => {
                write!(f, "device OOM: needed {needed} bytes, capacity {capacity}")
            }
            ExecError::InputCount { expected, got } => {
                write!(f, "expected {expected} inputs, got {got}")
            }
            ExecError::InputDType { slot } => write!(f, "wrong dtype for input {slot}"),
            ExecError::Kernel { node, message } => {
                write!(f, "kernel failure at node {node}: {message}")
            }
            ExecError::Lowering { message } => write!(f, "lowering failed: {message}"),
            ExecError::Cancelled { node } => {
                write!(f, "execution cancelled cooperatively before node {node}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl ExecError {
    /// True for failures that a retry might clear (kernel-level faults);
    /// request-shaped errors (`InputCount`/`InputDType`), capacity
    /// errors (`DeviceOom`), and cooperative cancellation are
    /// deterministic (for the lifetime of the request) and not worth
    /// retrying.
    pub fn is_transient(&self) -> bool {
        matches!(self, ExecError::Kernel { .. })
    }

    /// True when the run stopped because its [`CancelToken`] fired.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, ExecError::Cancelled { .. })
    }
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "kernel panicked".to_string()
    }
}

/// Measurements from one execution.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Measured wall-clock time of the host execution.
    pub wall: Duration,
    /// Modeled latency when running on a simulated device.
    pub simulated: Option<Duration>,
    /// Non-metadata kernels launched.
    pub kernel_launches: usize,
    /// Total modeled FLOPs.
    pub flops: f64,
    /// Total modeled bytes of memory traffic.
    pub bytes: f64,
    /// Total output elements traversed by launched kernels (the
    /// `hb-backend::cost` element-traversal counter, measured side).
    pub traversals: f64,
    /// Measured peak host tensor bytes during the run.
    pub peak_tensor_bytes: usize,
    /// Modeled peak device-memory residency (parameters + live
    /// intermediates), for simulated devices.
    pub sim_peak_bytes: u64,
    /// Tensor storage allocations performed during the run. A warm planned
    /// run on the Compiled backend performs zero.
    pub allocations: usize,
    /// Bytes of the static arena backing this run (planned runs only).
    pub arena_bytes: usize,
    /// True when the run executed a warm memory plan instead of the
    /// refcount path.
    pub planned: bool,
    /// Cumulative count of runs of this executable that were stopped
    /// mid-graph by cooperative cancellation (deadline/shutdown), as of
    /// the end of this run. A serving stack under deadline pressure sees
    /// this grow instead of paying for full-graph executions whose
    /// answers nobody wants.
    pub cancelled: u64,
}

impl RunStats {
    /// The latency this run "took" on its device: modeled time for
    /// simulated accelerators, measured wall time for the CPU.
    pub fn device_time(&self) -> Duration {
        self.simulated.unwrap_or(self.wall)
    }
}

/// A graph lowered to a backend and bound to a device, ready to run.
pub struct Executable {
    graph: Graph,
    backend: Backend,
    device: Device,
    /// Per-node count of consumers, for early buffer release (Script and
    /// Compiled backends only).
    refcounts: Option<Vec<u32>>,
    opt_stats: Option<OptStats>,
    compile_time: Duration,
    pool: Option<rayon::ThreadPool>,
    faults: FaultPlan,
    runs: AtomicU64,
    /// Runs stopped mid-graph by cooperative cancellation.
    cancelled: AtomicU64,
    /// LRU cache of memory plans keyed by batch size (Compiled backend
    /// only). `None` entries negative-cache batches that defeat planning
    /// so they are not re-attempted every run.
    plans: Mutex<Vec<PlanEntry>>,
}

impl Executable {
    /// Lowers `graph` to `backend` on `device`.
    ///
    /// This is the paper's *conversion* step (Table 10): Eager does almost
    /// nothing, Script plans buffer lifetimes, Compiled additionally runs
    /// the whole optimization pipeline.
    pub fn new(graph: Graph, backend: Backend, device: Device) -> Executable {
        match Executable::try_new_with_faults(graph, backend, device, FaultPlan::none()) {
            Ok(exe) => exe,
            // Unreachable with no faults; try_new only fails on injection.
            Err(e) => panic!("fault-free lowering failed: {e}"),
        }
    }

    /// Lowers `graph` with a [`FaultPlan`] attached.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Lowering`] when the plan injects a
    /// compile-pass failure and `backend` is [`Backend::Compiled`].
    pub fn try_new_with_faults(
        graph: Graph,
        backend: Backend,
        device: Device,
        faults: FaultPlan,
    ) -> Result<Executable, ExecError> {
        if faults.compile_fail && backend == Backend::Compiled {
            return Err(ExecError::Lowering {
                message: "injected optimization-pass failure".to_string(),
            });
        }
        Ok(Executable::lower(
            graph,
            backend,
            PassToggles::default(),
            device,
            faults,
        ))
    }

    /// Lowers `graph` like the Compiled backend but with selected
    /// optimization passes — the ablation entry point.
    pub fn with_toggles(graph: Graph, toggles: PassToggles, device: Device) -> Executable {
        Executable::lower(graph, Backend::Compiled, toggles, device, FaultPlan::none())
    }

    /// Lowers `graph` to `backend`, running the optimizer with `toggles`
    /// when the backend is Compiled.
    fn lower(
        graph: Graph,
        backend: Backend,
        toggles: PassToggles,
        device: Device,
        faults: FaultPlan,
    ) -> Executable {
        let start = Instant::now();
        graph.validate();
        let (graph, opt_stats) = match backend {
            Backend::Compiled => {
                let (g, stats) = optimize_with(&graph, toggles);
                (g, Some(stats))
            }
            Backend::Eager | Backend::Script => (graph, None),
        };
        let refcounts = (backend != Backend::Eager).then(|| compute_refcounts(&graph));
        let compile_time = start.elapsed();
        Executable::from_parts(
            graph,
            backend,
            device,
            refcounts,
            opt_stats,
            compile_time,
            faults,
        )
    }

    /// Binds an already-lowered graph to `device` with a cold plan cache
    /// and fresh run counters.
    fn from_parts(
        graph: Graph,
        backend: Backend,
        device: Device,
        refcounts: Option<Vec<u32>>,
        opt_stats: Option<OptStats>,
        compile_time: Duration,
        faults: FaultPlan,
    ) -> Executable {
        #[allow(clippy::disallowed_methods)] // invariant, message documents it
        let pool = match device {
            Device::Cpu { threads } if threads > 0 => Some(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("failed to build thread pool"),
            ),
            _ => None,
        };
        Executable {
            graph,
            backend,
            device,
            refcounts,
            opt_stats,
            compile_time,
            pool,
            faults,
            runs: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            plans: Mutex::new(Vec::new()),
        }
    }

    /// The backend this executable was lowered to.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The device this executable is bound to.
    pub fn device(&self) -> Device {
        self.device
    }

    /// The (possibly optimized) graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Time spent lowering the graph (the paper's conversion time,
    /// Table 10).
    pub fn compile_time(&self) -> Duration {
        self.compile_time
    }

    /// Optimizer counters (Compiled backend only).
    pub fn opt_stats(&self) -> Option<OptStats> {
        self.opt_stats
    }

    /// Abstract-interpretation facts for every output, assuming finite
    /// f32 inputs (the serving admission precondition — see
    /// [`Graph::finite_input_facts`]). Computed over the lowered graph,
    /// so Compiled executables report facts for the optimized program
    /// actually run.
    ///
    /// # Errors
    ///
    /// Propagates structural errors from shape inference; a graph that
    /// passed the verifier never fails here.
    pub fn output_value_facts(&self) -> Result<Vec<crate::ValueFact>, crate::GraphError> {
        let inputs = self.graph.finite_input_facts();
        self.graph.output_value_facts(&inputs)
    }

    /// Runs the graph, returning the output tensors.
    pub fn run(&self, inputs: &[DynTensor]) -> Result<Vec<DynTensor>, ExecError> {
        self.run_with_stats(inputs).map(|(o, _)| o)
    }

    /// Runs the graph, also returning execution measurements.
    ///
    /// On the Compiled backend, repeat batch sizes are served from a warm
    /// memory plan (arena-backed, allocation-free kernels); the first
    /// sighting of a batch size builds and caches the plan while running
    /// on the refcount path.
    pub fn run_with_stats(
        &self,
        inputs: &[DynTensor],
    ) -> Result<(Vec<DynTensor>, RunStats), ExecError> {
        self.run_with_stats_cancel(inputs, None)
    }

    /// Like [`Executable::run_with_stats`], but checks `cancel` between
    /// node evaluations: a fired token stops the run mid-graph with
    /// [`ExecError::Cancelled`] instead of executing the remaining
    /// kernels. Pass `None` to run uninterruptible.
    pub fn run_with_stats_cancel(
        &self,
        inputs: &[DynTensor],
        cancel: Option<&CancelToken>,
    ) -> Result<(Vec<DynTensor>, RunStats), ExecError> {
        self.run_on_pool(inputs, true, cancel, None)
    }

    /// Runs of this executable stopped mid-graph by cooperative
    /// cancellation (mirrored into [`RunStats::cancelled`]).
    pub fn cancelled_runs(&self) -> u64 {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Runs the graph on the refcount path even when a warm plan exists —
    /// the baseline side of planned-vs-refcount comparisons.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Executable::run_with_stats`].
    pub fn run_refcount_with_stats(
        &self,
        inputs: &[DynTensor],
    ) -> Result<(Vec<DynTensor>, RunStats), ExecError> {
        self.run_on_pool(inputs, false, None, None)
    }

    /// Returns a twin executable whose fused kernels run on the legacy
    /// stack interpreter instead of the verified register LIR — the
    /// baseline side of LIR-dispatch comparisons. Outputs stay
    /// bit-identical (both dispatchers implement the same bytecode
    /// semantics); only the inner-loop execution strategy differs. The
    /// twin starts with a cold plan cache and fresh run counters.
    pub fn with_fused_stack_dispatch(&self) -> Executable {
        self.with_fused_dispatch(crate::fuse::Dispatch::Stack)
    }

    /// Returns a twin executable whose fused kernels are pinned to the
    /// generic register VM — the middle rung of the dispatch ladder
    /// (codegen → LIR-VM → stack), skipping peephole forms and codegen
    /// classes. Together with [`Executable::with_fused_stack_dispatch`]
    /// this lets chaos/fault and differential tests force every rung
    /// and hold all of them to bit-identical outputs.
    pub fn with_fused_vm_dispatch(&self) -> Executable {
        self.with_fused_dispatch(crate::fuse::Dispatch::Vm)
    }

    /// Clones the executable with every fused kernel pinned to `rung`.
    /// The twin starts with a cold plan cache and fresh run counters.
    fn with_fused_dispatch(&self, rung: crate::fuse::Dispatch) -> Executable {
        let mut graph = self.graph.clone();
        for node in &mut graph.nodes {
            if let Op::Fused(k) = &node.op {
                let pinned = match rung {
                    crate::fuse::Dispatch::Stack => k.with_stack_dispatch(),
                    crate::fuse::Dispatch::Vm => k.with_vm_dispatch(),
                    crate::fuse::Dispatch::Auto => (**k).clone(),
                };
                node.op = Op::Fused(std::sync::Arc::new(pinned));
            }
        }
        Executable::from_parts(
            graph,
            self.backend,
            self.device,
            self.refcounts.clone(),
            self.opt_stats,
            self.compile_time,
            self.faults.clone(),
        )
    }

    /// Builds the memory plan this executable's (optimized) graph gets at
    /// `batch` — introspection for benches, audits, and the plan-
    /// determinism CI check. Does not touch the plan cache.
    ///
    /// # Errors
    ///
    /// Returns [`crate::plan::PlanError`] when the graph defeats planning
    /// at this batch.
    pub fn plan_for_batch(&self, batch: usize) -> Result<MemoryPlan, crate::plan::PlanError> {
        MemoryPlan::build(&self.graph, batch)
    }

    /// Interns this executable's constant tensors into a shared
    /// [`crate::dedup::ConstPool`], collapsing parameter blocks that
    /// other registered graphs already hold to one shared buffer.
    /// Replacements are bit-identical; call at registration time, before
    /// serving traffic.
    pub fn intern_constants(&mut self, pool: &crate::dedup::ConstPool) -> crate::dedup::DedupStats {
        crate::dedup::intern_graph_consts(&mut self.graph, pool)
    }

    /// Bytes of arena backing currently held by the warm plan cache
    /// (summed over cached batch sizes) — the per-model plan-cache
    /// component of a store's memory accounting. Plans a request is
    /// running right now count too.
    pub fn plan_cache_bytes(&self) -> usize {
        let cache = self.plans.lock().unwrap_or_else(|p| p.into_inner());
        cache
            .iter()
            .filter_map(|(_, entry)| entry.as_ref())
            .map(|entry| entry.arena_bytes)
            .sum()
    }

    /// Constant bytes of this executable's graph not already counted in
    /// `seen` (storage identity; see [`crate::dedup::unique_const_bytes`]).
    pub fn unique_const_bytes(&self, seen: &mut std::collections::HashSet<usize>) -> usize {
        crate::dedup::unique_const_bytes(&self.graph, seen)
    }

    fn validate_inputs(&self, inputs: &[DynTensor]) -> Result<(), ExecError> {
        if inputs.len() != self.graph.input_dtypes.len() {
            return Err(ExecError::InputCount {
                expected: self.graph.input_dtypes.len(),
                got: inputs.len(),
            });
        }
        for (slot, (t, dt)) in inputs
            .iter()
            .zip(self.graph.input_dtypes.iter())
            .enumerate()
        {
            if t.dtype() != *dt {
                return Err(ExecError::InputDType { slot });
            }
        }
        Ok(())
    }

    /// Times every node of one run individually (diagnostic). The run
    /// takes the path a served request would — the warm plan when one
    /// matches — so these are the times of the serving path. A run that
    /// fails reports the nodes it finished.
    pub fn profile(&self, inputs: &[DynTensor]) -> Vec<(String, Duration)> {
        let mut times = Vec::with_capacity(self.graph.nodes.len());
        let _ = self.run_on_pool(inputs, true, None, Some(&mut times));
        self.graph
            .nodes
            .iter()
            .zip(times)
            .map(|(node, t)| (format!("{:?}", node.op).chars().take(60).collect(), t))
            .collect()
    }

    /// Validates `inputs`, then runs on this executable's thread pool.
    fn run_on_pool(
        &self,
        inputs: &[DynTensor],
        allow_planned: bool,
        cancel: Option<&CancelToken>,
        times: Option<&mut Vec<Duration>>,
    ) -> Result<(Vec<DynTensor>, RunStats), ExecError> {
        self.validate_inputs(inputs)?;
        match &self.pool {
            Some(pool) => pool.install(|| self.execute(inputs, allow_planned, cancel, times)),
            None => self.execute(inputs, allow_planned, cancel, times),
        }
    }

    /// Dispatches one run: injected-fault gates, then the node loop with
    /// the warm plan when one matches, else without a plan.
    fn execute(
        &self,
        inputs: &[DynTensor],
        allow_planned: bool,
        cancel: Option<&CancelToken>,
        times: Option<&mut Vec<Duration>>,
    ) -> Result<(Vec<DynTensor>, RunStats), ExecError> {
        let run_index = self.runs.fetch_add(1, Ordering::Relaxed);
        let faults_active = !self.faults.is_none() && self.faults.active_for_run(run_index);
        if faults_active && self.faults.oom {
            let capacity = match &self.device {
                Device::Sim(s) => s.mem_bytes,
                Device::Cpu { .. } => 0,
            };
            return Err(ExecError::DeviceOom {
                needed: u64::MAX,
                capacity,
            });
        }
        if allow_planned && self.backend == Backend::Compiled {
            if let Some(state) = self.plan_for(inputs) {
                // A busy mutex means a concurrent run holds the arena;
                // fall through to the (lock-free) refcount path instead
                // of queueing behind it.
                if let Ok(mut guard) = state.try_lock() {
                    return self.run_nodes(inputs, Some(&mut guard), faults_active, cancel, times);
                }
            }
        }
        self.run_nodes(inputs, None, faults_active, cancel, times)
    }

    /// Cancellation checkpoint between node evaluations: records the
    /// cancelled run and returns the typed error when `cancel` fired.
    fn check_cancel(&self, cancel: Option<&CancelToken>, node: usize) -> Result<(), ExecError> {
        if let Some(tok) = cancel {
            if tok.is_cancelled() {
                self.cancelled.fetch_add(1, Ordering::Relaxed);
                return Err(ExecError::Cancelled { node });
            }
        }
        Ok(())
    }

    /// Looks up (or, on first sighting of a batch size, builds) the warm
    /// plan matching this request. Returns `None` when the request should
    /// run on the refcount path: unplannable graph, first-seen batch,
    /// shape mismatch, or lock contention.
    fn plan_for(&self, inputs: &[DynTensor]) -> Option<Arc<Mutex<PlanState>>> {
        let batch = infer_batch(&self.graph, inputs)?;
        let mut cache = self.plans.lock().ok()?;
        if let Some(pos) = cache.iter().position(|(b, _)| *b == batch) {
            // LRU: refresh this batch's position.
            let entry = cache.remove(pos);
            cache.insert(0, entry);
            let state = cache[0].1.as_ref()?.state.clone();
            {
                // Distinct shapes can share a batch key (e.g. B² dims);
                // the plan stores exact input shapes to disambiguate.
                let guard = state.try_lock().ok()?;
                if !guard.plan.matches_inputs(inputs) {
                    return None;
                }
            }
            return Some(state);
        }
        // First sighting: build and cache, but serve this request on the
        // refcount path — plan building is compile-like work that should
        // not sit on a request's critical path twice.
        let built = MemoryPlan::build(&self.graph, batch)
            .ok()
            .filter(|p| p.planned_kernels > 0 && p.matches_inputs(inputs));
        let entry = built.map(|plan| CachedPlan {
            arena_bytes: plan.arena_bytes,
            state: Arc::new(Mutex::new(PlanState {
                slots: plan.allocate_slots(),
                plan,
            })),
        });
        cache.insert(0, (batch, entry));
        cache.truncate(PLAN_CACHE_CAP);
        None
    }

    /// The executor's one node loop.
    ///
    /// With a `plan`, each node runs as its [`Step`] says: kernels write
    /// into pre-allocated arena slots via [`Op::eval_into`] (or overwrite
    /// a dying operand's slot), node values are zero-copy views of their
    /// slot, and a steady-state run performs no tensor allocations.
    /// Without one — the refcount path — every node is a [`Step::Value`]
    /// that allocates its result. Either way Script and Compiled drop each
    /// value after its last consumer, while Eager keeps every value to the
    /// end. Cancellation, the per-node unwind boundary, cost counters,
    /// injected faults and the simulated-device model are the same on
    /// both paths. With `times`, each finished node's wall time is
    /// appended in node order.
    fn run_nodes(
        &self,
        inputs: &[DynTensor],
        plan: Option<&mut PlanState>,
        faults_active: bool,
        cancel: Option<&CancelToken>,
        mut times: Option<&mut Vec<Duration>>,
    ) -> Result<(Vec<DynTensor>, RunStats), ExecError> {
        let (plan, slots): (Option<&MemoryPlan>, &mut [DynTensor]) = match plan {
            Some(PlanState { plan, slots }) => (Some(plan), slots),
            None => (None, &mut []),
        };
        let free_early = self.refcounts.is_some();
        let start = Instant::now();
        alloc::reset_peak();
        let host_before = alloc::current_bytes();
        let allocs_before = alloc::alloc_count();

        let n = self.graph.nodes.len();
        let mut vals: Vec<Option<DynTensor>> = vec![None; n];
        let mut rc: Vec<u32> = match &self.refcounts {
            Some(rc) => rc.clone(),
            // Eager recomputes consumer counts every run — part of its
            // per-run interpretation overhead.
            None => compute_refcounts(&self.graph),
        };
        // Outputs must survive to the end regardless of consumer count.
        for &o in &self.graph.outputs {
            rc[o] = u32::MAX;
        }

        let arena_bytes = plan.map_or(0, |p| p.arena_bytes);
        let mut stats = RunStats {
            planned: plan.is_some(),
            arena_bytes,
            ..RunStats::default()
        };
        let mut sim = match &self.device {
            Device::Sim(spec) => Some(SimRun::start(spec, self.graph.const_bytes(), inputs)),
            Device::Cpu { .. } => None,
        };

        for id in 0..n {
            self.check_cancel(cancel, id)?;
            let started = times.is_some().then(Instant::now);
            let node = &self.graph.nodes[id];
            let (out, cost) = match &node.op {
                Op::Input(slot) => (inputs[*slot].clone(), None),
                op => {
                    let (out, cost) = match plan.map(|p| &p.steps[id]) {
                        None | Some(Step::Value) => {
                            let ins = values(&vals, &node.inputs);
                            let out = catch_kernel(id, || op.eval(&ins))?;
                            let cost = op.cost(&ins, &out);
                            (out, cost)
                        }
                        Some(Step::Kernel {
                            slot,
                            shape,
                            inplace: Inplace::Map,
                        }) => {
                            // Drop the dying operand's view to restore slot
                            // uniqueness; its data lives in the slot itself.
                            self.release(&mut vals, node.inputs[0], &mut sim);
                            let applied = match &mut slots[*slot] {
                                DynTensor::F32(t) => match t.as_mut_slice() {
                                    Some(buf) => {
                                        catch_kernel(id, || op.apply_inplace_f32(buf))?;
                                        true
                                    }
                                    None => false,
                                },
                                _ => false,
                            };
                            let out = if applied {
                                slot_view(&slots[*slot], shape)
                            } else {
                                // Self-heal: a stale alias still pins the
                                // slot, so rebuild the operand from the
                                // (unmodified) slot data and run the
                                // allocating kernel instead.
                                let rebuilt = slot_view(&slots[*slot], shape);
                                catch_kernel(id, || op.eval(&[&rebuilt]))?
                            };
                            // A unary map's cost is symmetric in operand
                            // and result, so the result stands in for the
                            // dropped operand.
                            let cost = op.cost(&[&out], &out);
                            (out, cost)
                        }
                        Some(Step::Kernel {
                            slot,
                            shape,
                            inplace: Inplace::Fused { operand },
                        }) => {
                            let numel: usize = shape.iter().product();
                            // Drop the dying operand's view to restore slot
                            // uniqueness; its data lives in the slot itself.
                            self.release(&mut vals, node.inputs[*operand], &mut sim);
                            let ins: Vec<Option<&DynTensor>> = node
                                .inputs
                                .iter()
                                .enumerate()
                                .map(|(j, &i)| (j != *operand).then(|| value(&vals, i)))
                                .collect();
                            let Op::Fused(kern) = op else {
                                return Err(ExecError::Kernel {
                                    node: id,
                                    message: "planner marked a non-fused op Inplace::Fused"
                                        .to_string(),
                                });
                            };
                            let applied = match &mut slots[*slot] {
                                DynTensor::F32(t) => match t.as_mut_slice() {
                                    Some(buf) => {
                                        catch_kernel(id, || {
                                            kern.eval_in_place(
                                                *operand,
                                                &ins,
                                                shape,
                                                &mut buf[..numel],
                                            )
                                        })?;
                                        true
                                    }
                                    None => false,
                                },
                                _ => false,
                            };
                            let out = if applied {
                                slot_view(&slots[*slot], shape)
                            } else {
                                // Self-heal: a stale alias still pins the
                                // slot, so rebuild the operand from the
                                // (unmodified) slot data and run the
                                // allocating kernel instead.
                                let rebuilt = slot_view(&slots[*slot], shape);
                                let full: Vec<&DynTensor> =
                                    ins.iter().map(|o| o.unwrap_or(&rebuilt)).collect();
                                catch_kernel(id, || op.eval(&full))?
                            };
                            // The destroyed operand had exactly the output
                            // shape, so the result stands in for it in the
                            // (shape-only) cost model.
                            let cost = {
                                let cost_ins: Vec<&DynTensor> =
                                    ins.iter().map(|o| o.unwrap_or(&out)).collect();
                                op.cost(&cost_ins, &out)
                            };
                            (out, cost)
                        }
                        Some(Step::Kernel {
                            slot,
                            shape,
                            inplace: Inplace::MatMulLhs { scratch },
                        }) => {
                            // Capture the dying LHS's shape, then drop its
                            // view so the slot regains Arc uniqueness.
                            let lhs_shape = value(&vals, node.inputs[0]).shape().to_vec();
                            self.release(&mut vals, node.inputs[0], &mut sim);
                            let rhs_val = value(&vals, node.inputs[1]);
                            let DynTensor::F32(rhs) = rhs_val else {
                                return Err(ExecError::Kernel {
                                    node: id,
                                    message: "planner marked a non-f32 matmul in-place".to_string(),
                                });
                            };
                            // Two distinct slots (data + panel scratch) need
                            // simultaneous mutable access.
                            let (lo, hi) = ((*slot).min(*scratch), (*slot).max(*scratch));
                            let applied = {
                                let (left, right) = slots.split_at_mut(hi);
                                let (data_slot, scratch_slot) = if *slot < *scratch {
                                    (&mut left[lo], &mut right[0])
                                } else {
                                    (&mut right[0], &mut left[lo])
                                };
                                match (data_slot, scratch_slot) {
                                    (DynTensor::F32(d), DynTensor::F32(s)) => {
                                        match (d.as_mut_slice(), s.as_mut_slice()) {
                                            (Some(buf), Some(scr)) => {
                                                catch_kernel(id, || {
                                                    hb_tensor::matmul::matmul_in_place(
                                                        buf, &lhs_shape, rhs, scr,
                                                    )
                                                })?;
                                                true
                                            }
                                            _ => false,
                                        }
                                    }
                                    _ => false,
                                }
                            };
                            let out = if applied {
                                slot_view(&slots[*slot], shape)
                            } else {
                                // Self-heal: the LHS data is still intact in
                                // its slot; rebuild it and run allocating.
                                let rebuilt = slot_view(&slots[*slot], &lhs_shape);
                                catch_kernel(id, || op.eval(&[&rebuilt, rhs_val]))?
                            };
                            // Cost reads only shapes, so a shape-correct
                            // view of the (now overwritten) slot stands in
                            // for the destroyed LHS.
                            let cost = {
                                let lhs_standin = slot_view(&slots[*slot], &lhs_shape);
                                op.cost(&[&lhs_standin, rhs_val], &out)
                            };
                            (out, cost)
                        }
                        Some(Step::Kernel {
                            slot,
                            shape,
                            inplace: Inplace::No,
                        }) => {
                            let numel: usize = shape.iter().product();
                            // Self-heal: if a previous run's caller still
                            // holds views into this slot, replace the
                            // buffer (a counted allocation).
                            let unique = match &mut slots[*slot] {
                                DynTensor::F32(t) => t.as_mut_slice().is_some(),
                                DynTensor::I64(t) => t.as_mut_slice().is_some(),
                                DynTensor::Bool(t) => t.as_mut_slice().is_some(),
                                DynTensor::U8(t) => t.as_mut_slice().is_some(),
                            };
                            if !unique {
                                if let Some(plan) = plan {
                                    slots[*slot] = plan.slots[*slot].allocate();
                                }
                            }
                            let ins = values(&vals, &node.inputs);
                            #[allow(clippy::disallowed_methods)] // uniqueness ensured above
                            let dest = match &mut slots[*slot] {
                                DynTensor::F32(t) => DestMut::F32(
                                    &mut t.as_mut_slice().expect("slot is unique")[..numel],
                                ),
                                DynTensor::I64(t) => DestMut::I64(
                                    &mut t.as_mut_slice().expect("slot is unique")[..numel],
                                ),
                                DynTensor::Bool(t) => DestMut::Bool(
                                    &mut t.as_mut_slice().expect("slot is unique")[..numel],
                                ),
                                DynTensor::U8(_) => {
                                    return Err(ExecError::Kernel {
                                        node: id,
                                        message: "planner assigned a u8 arena slot".to_string(),
                                    })
                                }
                            };
                            catch_kernel(id, || op.eval_into(&ins, dest))?;
                            let out = slot_view(&slots[*slot], shape);
                            let cost = op.cost(&ins, &out);
                            (out, cost)
                        }
                    };
                    (out, Some(cost))
                }
            };
            if let Some(cost) = cost {
                if !cost.metadata_only {
                    stats.kernel_launches += 1;
                    stats.flops += cost.flops;
                    stats.bytes += cost.bytes;
                    stats.traversals += cost.traversals;
                    if let Some(sim) = &mut sim {
                        sim.time += sim.spec.kernel_time(cost.flops, cost.bytes);
                    }
                    if faults_active {
                        if let Some(d) = self.faults.slow_kernel {
                            std::thread::sleep(d);
                        }
                        if self.faults.kernel_error {
                            return Err(ExecError::Kernel {
                                node: id,
                                message: "injected kernel fault".to_string(),
                            });
                        }
                    }
                }
                if let Some(sim) = &mut sim {
                    if !matches!(node.op, Op::Const(_)) {
                        sim.grow(out.nbytes() as u64);
                    }
                }
            }
            vals[id] = Some(out);
            if let (Some(times), Some(started)) = (times.as_deref_mut(), started) {
                times.push(started.elapsed());
            }
            // Release operands whose last consumer this was.
            if free_early {
                for &i in &node.inputs {
                    if rc[i] != u32::MAX && rc[i] > 0 {
                        rc[i] -= 1;
                        if rc[i] == 0 {
                            self.release(&mut vals, i, &mut sim);
                        }
                    }
                }
            }
        }

        if let Some(sim) = &mut sim {
            let out_bytes: f64 = self
                .graph
                .outputs
                .iter()
                .map(|&o| value(&vals, o).nbytes() as f64)
                .sum();
            sim.time += sim.spec.transfer_time(out_bytes);
            stats.simulated = Some(Duration::from_secs_f64(sim.time));
            stats.sim_peak_bytes = sim.peak;
            if sim.peak > sim.spec.mem_bytes {
                return Err(ExecError::DeviceOom {
                    needed: sim.peak,
                    capacity: sim.spec.mem_bytes,
                });
            }
        }

        let mut outputs: Vec<DynTensor> = self
            .graph
            .outputs
            .iter()
            .map(|&o| value(&vals, o).clone())
            .collect();
        if faults_active && self.faults.nan_poison {
            // Silent corruption: replace f32 outputs with NaN while still
            // reporting success. Downstream output validation must catch it.
            for out in &mut outputs {
                if let DynTensor::F32(t) = out {
                    *out = DynTensor::F32(Tensor::from_fn(t.shape(), |_| f32::NAN));
                }
            }
        }
        stats.wall = start.elapsed();
        // The counters are this thread's: every tensor of the run is
        // allocated here, not in the pool's workers. The arena is
        // allocated once at plan time, outside this run's peak window;
        // report it alongside transient allocations so the figure stays
        // comparable with refcount runs.
        let transient = usize::try_from(alloc::peak_bytes() - host_before).unwrap_or(0);
        stats.peak_tensor_bytes = arena_bytes.saturating_add(transient);
        stats.allocations = alloc::alloc_count() - allocs_before;
        stats.cancelled = self.cancelled.load(Ordering::Relaxed);
        Ok((outputs, stats))
    }

    /// Drops node `i`'s value — after its last consumer, or to hand its
    /// arena slot to an in-place kernel — and releases its modeled device
    /// residency (parameters stay resident on the device).
    fn release(&self, vals: &mut [Option<DynTensor>], i: usize, sim: &mut Option<SimRun<'_>>) {
        let v = vals[i].take();
        if let (Some(sim), Some(v)) = (sim, v) {
            if !matches!(self.graph.nodes[i].op, Op::Const(_)) {
                sim.live = sim.live.saturating_sub(v.nbytes() as u64);
            }
        }
    }
}

/// The modeled state of one run on a simulated accelerator.
struct SimRun<'a> {
    spec: &'a DeviceSpec,
    /// Modeled latency so far, in seconds.
    time: f64,
    /// Modeled device residency: parameters plus live values.
    live: u64,
    peak: u64,
}

impl<'a> SimRun<'a> {
    /// Parameters stay resident; inputs are transferred up front.
    fn start(spec: &'a DeviceSpec, const_bytes: usize, inputs: &[DynTensor]) -> SimRun<'a> {
        let in_bytes: f64 = inputs.iter().map(|t| t.nbytes() as f64).sum();
        let mut sim = SimRun {
            spec,
            time: spec.transfer_time(in_bytes),
            live: const_bytes as u64,
            peak: 0,
        };
        sim.grow(in_bytes as u64);
        sim
    }

    fn grow(&mut self, bytes: u64) {
        self.live += bytes;
        self.peak = self.peak.max(self.live);
    }
}

/// Per-node unwind boundary: kernels validate shapes by panicking
/// (trusted-graph fast path), so a malformed request that slips past
/// input validation surfaces here as a typed error instead of unwinding
/// through the serving stack.
fn catch_kernel<R>(node: usize, kernel: impl FnOnce() -> R) -> Result<R, ExecError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(kernel)).map_err(|p| ExecError::Kernel {
        node,
        message: panic_message(p),
    })
}

/// Node `i`'s live value. Values stay live until their last consumer and
/// outputs are pinned, so a missing one is an executor bug.
#[allow(clippy::disallowed_methods)] // invariant, message documents it
fn value(vals: &[Option<DynTensor>], i: usize) -> &DynTensor {
    vals[i]
        .as_ref()
        .expect("executor: value freed before its last use")
}

/// The live values of `ids`, in order.
fn values<'v>(vals: &'v [Option<DynTensor>], ids: &[usize]) -> Vec<&'v DynTensor> {
    ids.iter().map(|&i| value(vals, i)).collect()
}

/// A zero-copy view of an arena slot's leading `shape`-full of elements.
fn slot_view(slot: &DynTensor, shape: &[usize]) -> DynTensor {
    let numel: usize = shape.iter().product();
    match slot {
        DynTensor::F32(t) => DynTensor::F32(t.slice(0, 0, numel).reshape(shape)),
        DynTensor::I64(t) => DynTensor::I64(t.slice(0, 0, numel).reshape(shape)),
        DynTensor::Bool(t) => DynTensor::Bool(t.slice(0, 0, numel).reshape(shape)),
        DynTensor::U8(t) => DynTensor::U8(t.slice(0, 0, numel).reshape(shape)),
    }
}

/// Counts how many nodes consume each node's value.
fn compute_refcounts(graph: &Graph) -> Vec<u32> {
    let mut rc = vec![0u32; graph.nodes.len()];
    for node in &graph.nodes {
        for &i in &node.inputs {
            rc[i] += 1;
        }
    }
    rc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{K80, P100};
    use crate::graph::GraphBuilder;
    use hb_tensor::{DType, Tensor};

    /// y = relu(x @ w + b), a tiny linear layer.
    fn linear_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let x = b.input(DType::F32);
        let w = b.constant(Tensor::from_vec(vec![1.0f32, -1.0, 0.5, 2.0], &[2, 2]));
        let bias = b.constant(Tensor::from_vec(vec![0.1f32, -0.2], &[2]));
        let mm = b.matmul(x, w);
        let s = b.add(mm, bias);
        let y = b.push(Op::Relu, vec![s]);
        b.output(y);
        b.build()
    }

    fn sample_input() -> DynTensor {
        DynTensor::F32(Tensor::from_vec(vec![1.0, 2.0, -1.0, 0.0], &[2, 2]))
    }

    #[test]
    fn all_backends_agree() {
        let mut outs = Vec::new();
        for backend in Backend::ALL {
            let exe = Executable::new(linear_graph(), backend, Device::cpu());
            let out = exe.run(&[sample_input()]).unwrap();
            outs.push(out[0].as_f32().to_vec());
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[1], outs[2]);
    }

    #[test]
    fn compiled_fuses_add_relu() {
        let eager = Executable::new(linear_graph(), Backend::Eager, Device::cpu());
        let compiled = Executable::new(linear_graph(), Backend::Compiled, Device::cpu());
        let (_, es) = eager.run_with_stats(&[sample_input()]).unwrap();
        let (_, cs) = compiled.run_with_stats(&[sample_input()]).unwrap();
        assert!(
            cs.kernel_launches < es.kernel_launches,
            "{} !< {}",
            cs.kernel_launches,
            es.kernel_launches
        );
    }

    #[test]
    fn input_validation_errors() {
        let exe = Executable::new(linear_graph(), Backend::Script, Device::cpu());
        assert!(matches!(
            exe.run(&[]),
            Err(ExecError::InputCount {
                expected: 1,
                got: 0
            })
        ));
        let wrong = DynTensor::I64(Tensor::from_vec(vec![1i64], &[1]));
        assert!(matches!(
            exe.run(&[wrong]),
            Err(ExecError::InputDType { slot: 0 })
        ));
    }

    #[test]
    fn simulated_device_reports_latency() {
        let exe = Executable::new(linear_graph(), Backend::Compiled, Device::Sim(P100));
        let (out, stats) = exe.run_with_stats(&[sample_input()]).unwrap();
        assert_eq!(out[0].shape(), &[2, 2]);
        let sim = stats.simulated.expect("simulated time present");
        assert!(sim > Duration::ZERO);
        assert!(stats.sim_peak_bytes > 0);
    }

    #[test]
    fn simulated_oom_on_tiny_device() {
        let tiny = DeviceSpec {
            mem_bytes: 48,
            ..K80
        };
        let exe = Executable::new(linear_graph(), Backend::Script, Device::Sim(tiny));
        match exe.run(&[sample_input()]) {
            Err(ExecError::DeviceOom { .. }) => {}
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn eager_holds_more_memory_than_script() {
        // A chain of adds: Script frees intermediates, Eager keeps all.
        let build = || {
            let mut b = GraphBuilder::new();
            let x = b.input(DType::F32);
            let mut cur = x;
            for _ in 0..16 {
                cur = b.add_scalar(cur, 1.0);
            }
            b.output(cur);
            b.build()
        };
        let big = DynTensor::F32(Tensor::<f32>::zeros(&[64, 1024]));
        let eager = Executable::new(build(), Backend::Eager, Device::Sim(P100));
        let script = Executable::new(build(), Backend::Script, Device::Sim(P100));
        let (_, es) = eager.run_with_stats(&[big.clone()]).unwrap();
        let (_, ss) = script.run_with_stats(&[big]).unwrap();
        assert!(es.sim_peak_bytes > ss.sim_peak_bytes);
    }

    #[test]
    fn single_thread_pool_runs() {
        let exe = Executable::new(linear_graph(), Backend::Script, Device::cpu1());
        let out = exe.run(&[sample_input()]).unwrap();
        assert_eq!(out[0].shape(), &[2, 2]);
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_kernel() {
        let exe = Executable::new(linear_graph(), Backend::Script, Device::cpu());
        let tok = CancelToken::new();
        tok.cancel();
        match exe.run_with_stats_cancel(&[sample_input()], Some(&tok)) {
            Err(ExecError::Cancelled { node: 0 }) => {}
            other => panic!("expected Cancelled at node 0, got {other:?}"),
        }
        assert_eq!(exe.cancelled_runs(), 1);
        // A later uncancelled run succeeds and reports the cumulative count.
        let (_, stats) = exe.run_with_stats_cancel(&[sample_input()], None).unwrap();
        assert_eq!(stats.cancelled, 1);
    }

    #[test]
    fn expired_deadline_token_cancels_mid_graph() {
        let exe = Executable::new(linear_graph(), Backend::Compiled, Device::cpu());
        let tok = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let res = exe.run_with_stats_cancel(&[sample_input()], Some(&tok));
        assert!(matches!(res, Err(ExecError::Cancelled { .. })));
        assert!(exe.cancelled_runs() > 0);
        assert!(!ExecError::Cancelled { node: 3 }.is_transient());
        assert!(ExecError::Cancelled { node: 3 }.is_cancelled());
    }

    /// y = relu(x @ w) with a declared `[B, 2]` input, so it plans.
    fn planned_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let x = b.input_with_shape(DType::F32, crate::ShapeFact::batched(&[2]));
        let w = b.constant(Tensor::from_vec(vec![1.0f32, -1.0, 0.5, 2.0], &[2, 2]));
        let y = b.matmul(x, w);
        let z = b.push(Op::Relu, vec![y]);
        b.output(z);
        b.build()
    }

    #[test]
    fn plan_cache_bytes_counts_a_plan_while_it_runs() {
        let exe = Executable::new(planned_graph(), Backend::Compiled, Device::cpu1());
        let (_, cold) = exe.run_with_stats(&[sample_input()]).unwrap();
        let (_, warm) = exe.run_with_stats(&[sample_input()]).unwrap();
        assert!(!cold.planned && warm.planned && warm.arena_bytes > 0);
        assert_eq!(exe.plan_cache_bytes(), warm.arena_bytes);
        // A request holding the plan's arena must not hide it.
        let cache = exe.plans.lock().unwrap();
        let state = cache[0].1.as_ref().unwrap().state.clone();
        drop(cache);
        let _running = state.lock().unwrap();
        assert_eq!(exe.plan_cache_bytes(), warm.arena_bytes);
    }

    #[test]
    fn profile_times_every_node_on_the_serving_path() {
        let exe = Executable::new(planned_graph(), Backend::Compiled, Device::cpu1());
        let n = exe.graph().nodes.len();
        assert_eq!(exe.profile(&[sample_input()]).len(), n);
        // The first profile built the plan, so the second one runs it.
        assert!(exe.plan_cache_bytes() > 0);
        assert_eq!(exe.profile(&[sample_input()]).len(), n);
        assert!(exe.profile(&[]).is_empty(), "invalid inputs time nothing");
    }

    #[test]
    fn compile_time_recorded_and_compiled_slowest() {
        let e = Executable::new(linear_graph(), Backend::Eager, Device::cpu());
        let c = Executable::new(linear_graph(), Backend::Compiled, Device::cpu());
        // Compiled runs optimization passes, so conversion must do work.
        assert!(c.compile_time() >= e.compile_time() || c.opt_stats().is_some());
    }
}
