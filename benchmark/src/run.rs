//! The timed phase: closed-loop generator threads, windowed.
//!
//! Each window is a *program block* (back-to-back calls into the program
//! under test, each timed) followed by a *reference block* (the
//! imperative scorer on the same requests, same thread, each timed).
//! There is no sleep and no timer on the generator path: a client sends
//! its next request when the previous one returned, and a block ends
//! when the clock read after a call says so. Barriers line the clients
//! up at block boundaries; they are not timers.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use hb_ml::metrics::allclose;
use hb_tensor::Tensor;

use crate::spans::Trace;
use crate::stats::{Window, WindowSamples};
use crate::workloads::Request;

/// Every `CHECK_EVERY`-th call's output is kept and compared, after the
/// window's timed blocks, with the reference scorer's.
pub const CHECK_EVERY: u64 = 64;
pub const RTOL: f32 = 1e-4;
pub const ATOL: f32 = 1e-4;

/// What the run loop needs from a workload; tests substitute a fake.
pub trait Subject: Sync {
    /// One request through the program under test.
    fn call(&self, r: Request) -> Result<Tensor<f32>, String>;
    /// The same request through the imperative reference scorer.
    fn reference(&self, r: Request) -> Tensor<f32>;
    /// The reference scorer's output for `r`, computed during set-up.
    fn expected(&self, r: Request) -> &Tensor<f32>;
    fn rows_per_call(&self) -> usize;
    /// Span name of the public function `call` enters.
    fn call_span(&self) -> &'static str;
    /// A write beside the reads, made by one client once per window;
    /// `None` when the workload has none.
    fn write(&self, _window: usize) -> Option<Result<(), String>> {
        None
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub windows: usize,
    pub program: Duration,
    pub reference: Duration,
}

impl Plan {
    /// As many whole windows of 2.0 s + 0.5 s as fit in `seconds`, at
    /// least two.
    pub fn for_seconds(seconds: f64) -> Plan {
        Plan {
            windows: ((seconds / 2.5) as usize).max(2),
            program: Duration::from_millis(2000),
            reference: Duration::from_millis(500),
        }
    }

    /// `--smoke`: the whole path in about two seconds.
    pub fn smoke() -> Plan {
        Plan {
            windows: 2,
            program: Duration::from_millis(500),
            reference: Duration::from_millis(250),
        }
    }
}

/// Runs the timed phase on `clients` closed-loop threads. With a trace,
/// odd windows record spans and even windows do not, so tracing overhead
/// is the ratio of two interleaved sets of windows.
pub fn run_windows(
    subject: &dyn Subject,
    requests: &[Request],
    clients: usize,
    plan: Plan,
    mut trace: Option<&mut Trace>,
) -> Vec<Window> {
    let barrier = Barrier::new(clients);
    let per_client: Vec<(Vec<WindowSamples>, Option<Trace>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let fork = trace.as_ref().map(|t| t.fork());
                let barrier = &barrier;
                s.spawn(move || {
                    client_loop(subject, requests, client, clients, plan, barrier, fork)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });

    let mut merged: Vec<WindowSamples> = (0..plan.windows)
        .map(|_| WindowSamples {
            rows_per_call: subject.rows_per_call(),
            ..WindowSamples::default()
        })
        .collect();
    for (windows, forked) in per_client {
        for (m, w) in merged.iter_mut().zip(windows) {
            m.traced = w.traced;
            m.call_us.extend(w.call_us);
            m.ref_us.extend(w.ref_us);
            m.block_s = m.block_s.max(w.block_s);
            m.attempted += w.attempted;
            m.failed += w.failed;
            m.write_ms = m.write_ms.or(w.write_ms);
        }
        if let (Some(t), Some(f)) = (trace.as_deref_mut(), forked) {
            t.absorb(f);
        }
    }
    merged.into_iter().map(WindowSamples::summarize).collect()
}

fn client_loop(
    subject: &dyn Subject,
    requests: &[Request],
    client: usize,
    clients: usize,
    plan: Plan,
    barrier: &Barrier,
    mut trace: Option<Trace>,
) -> (Vec<WindowSamples>, Option<Trace>) {
    let mut cursor = client;
    let mut issued: u64 = 0;
    let mut out = Vec::with_capacity(plan.windows);
    for window in 0..plan.windows {
        let mut tracing = trace.as_mut().filter(|_| window % 2 == 1);
        let mut w = WindowSamples {
            traced: tracing.is_some(),
            ..WindowSamples::default()
        };
        let mut to_check: Vec<(Request, Tensor<f32>)> = Vec::new();
        let first = cursor;

        barrier.wait();
        let block = Instant::now();
        if client == 0 {
            let t0 = Instant::now();
            if let Some(res) = subject.write(window) {
                w.write_ms = Some(t0.elapsed().as_secs_f64() * 1e3);
                w.attempted += 1;
                w.failed += u64::from(res.is_err());
            }
        }
        while block.elapsed() < plan.program {
            let request_id = issued * clients as u64 + client as u64;
            let root = tracing
                .as_mut()
                .map(|t| t.open("bench.request", None, request_id));
            let r = requests[cursor % requests.len()];
            cursor += clients;
            let (res, us) = match (tracing.as_mut(), root) {
                (Some(t), Some(root)) => {
                    let id = t.open(subject.call_span(), Some(root), request_id);
                    let res = subject.call(r);
                    (res, t.close(id) as f64 / 1e3)
                }
                _ => {
                    let t0 = Instant::now();
                    let res = subject.call(r);
                    (res, t0.elapsed().as_secs_f64() * 1e6)
                }
            };
            w.attempted += 1;
            match res {
                Ok(output) => {
                    w.call_us.push(us);
                    if issued.is_multiple_of(CHECK_EVERY) {
                        to_check.push((r, output));
                    }
                }
                Err(_) => w.failed += 1,
            }
            issued += 1;
            if let (Some(t), Some(root)) = (tracing.as_mut(), root) {
                t.close(root);
            }
        }
        w.block_s = block.elapsed().as_secs_f64();

        barrier.wait();
        let block = Instant::now();
        let mut replay = first;
        while block.elapsed() < plan.reference {
            let r = requests[replay % requests.len()];
            replay += clients;
            let t0 = Instant::now();
            let output = subject.reference(r);
            w.ref_us.push(t0.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(output);
        }

        // Outside both timed blocks.
        for (r, output) in to_check {
            if !allclose(&output, subject.expected(r), RTOL, ATOL) {
                w.failed += 1;
            }
        }
        out.push(w);
    }
    (out, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A program that answers `[request.input]`, except where told to
    /// answer wrongly or to fail.
    struct Fake {
        expected: Vec<Tensor<f32>>,
        calls: AtomicU64,
        wrong_on_call: Option<u64>,
        err_on_call: Option<u64>,
        write_fails: bool,
    }

    impl Fake {
        fn new() -> Fake {
            Fake {
                expected: (0..4)
                    .map(|i| Tensor::from_vec(vec![i as f32], &[1, 1]))
                    .collect(),
                calls: AtomicU64::new(0),
                wrong_on_call: None,
                err_on_call: None,
                write_fails: false,
            }
        }
    }

    impl Subject for Fake {
        fn call(&self, r: Request) -> Result<Tensor<f32>, String> {
            let n = self.calls.fetch_add(1, Ordering::SeqCst);
            if self.err_on_call == Some(n) {
                return Err("injected".into());
            }
            if self.wrong_on_call == Some(n) {
                return Ok(Tensor::from_vec(vec![r.input as f32 + 0.5], &[1, 1]));
            }
            Ok(self.expected[r.input].clone())
        }
        fn reference(&self, r: Request) -> Tensor<f32> {
            self.expected[r.input].clone()
        }
        fn expected(&self, r: Request) -> &Tensor<f32> {
            &self.expected[r.input]
        }
        fn rows_per_call(&self) -> usize {
            1
        }
        fn call_span(&self) -> &'static str {
            "fake.call"
        }
        fn write(&self, _window: usize) -> Option<Result<(), String>> {
            self.write_fails.then(|| Err("injected".into()))
        }
    }

    fn requests() -> Vec<Request> {
        (0..8)
            .map(|i| Request {
                model: 0,
                input: i % 4,
            })
            .collect()
    }

    fn tiny_plan() -> Plan {
        Plan {
            windows: 2,
            program: Duration::from_millis(30),
            reference: Duration::from_millis(10),
        }
    }

    fn totals(windows: &[Window]) -> (u64, u64) {
        windows
            .iter()
            .fold((0, 0), |(a, f), w| (a + w.attempted, f + w.failed))
    }

    #[test]
    fn clean_run_has_no_failures_and_fills_every_window() {
        let windows = run_windows(&Fake::new(), &requests(), 1, tiny_plan(), None);
        assert_eq!(windows.len(), 2);
        let (attempted, failed) = totals(&windows);
        assert!(attempted > 0);
        assert_eq!(failed, 0);
        for w in &windows {
            assert_eq!(w.calls as u64, w.attempted);
            assert!(w.ref_calls > 0 && w.rows_per_s > 0.0 && w.speedup_vs_ref > 0.0);
        }
    }

    #[test]
    fn injected_wrong_output_raises_fail_share() {
        // Call 0 is a checked call (every 64th, starting with the first).
        let fake = Fake {
            wrong_on_call: Some(0),
            ..Fake::new()
        };
        let (attempted, failed) = totals(&run_windows(&fake, &requests(), 1, tiny_plan(), None));
        assert_eq!(failed, 1);
        assert!(failed as f64 / attempted as f64 > 0.0);
    }

    #[test]
    fn injected_err_raises_fail_share_and_leaves_no_latency_sample() {
        let fake = Fake {
            err_on_call: Some(3),
            ..Fake::new()
        };
        let windows = run_windows(&fake, &requests(), 1, tiny_plan(), None);
        assert_eq!(totals(&windows).1, 1);
        assert_eq!(windows[0].calls as u64 + 1, windows[0].attempted);
    }

    #[test]
    fn failed_write_counts_once_per_window() {
        let fake = Fake {
            write_fails: true,
            ..Fake::new()
        };
        let windows = run_windows(&fake, &requests(), 2, tiny_plan(), None);
        assert_eq!(totals(&windows).1, 2);
        assert!(windows.iter().all(|w| w.write_ms.is_some()));
    }

    #[test]
    fn odd_windows_are_traced_with_nested_request_spans() {
        let mut trace = Trace::new(Instant::now());
        let windows = run_windows(&Fake::new(), &requests(), 2, tiny_plan(), Some(&mut trace));
        assert!(!windows[0].traced && windows[1].traced);
        let totals = trace.totals_by_name();
        assert_eq!(totals["bench.request"].count, windows[1].attempted);
        assert_eq!(totals["fake.call"].count, windows[1].attempted);
        for s in trace.spans.iter().filter(|s| s.name == "fake.call") {
            let parent = trace.spans[s.parent.unwrap()];
            assert_eq!(parent.name, "bench.request");
            assert_eq!(parent.request, s.request);
            assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
        }
    }
}
