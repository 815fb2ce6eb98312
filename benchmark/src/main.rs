//! The repo's benchmark. One workload per process:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The report goes to standard error; the last (and only) line on
//! standard output is the result as one JSON object. See README.md.

// The root clippy.toml bans `expect` on the library's input-driven paths.
// Here a probe that fails means the benchmark itself is broken, and the
// right outcome is to stop without printing a result.
#![allow(clippy::disallowed_methods)]

mod layers;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use hb_json::Json;

use layers::{metric, Metric};
use run::Plan;
use spans::Trace;
use stats::{median, spread, Window};
use workloads::{Workload, SPECS};

/// Set-ups per run; `setup_s` is their median. All but the last happen
/// in child processes, because autotuning and cost calibration happen
/// once per process and a second set-up in this one would skip them.
const SETUP_REPEATS: usize = 5;
/// Cold compiles per run; `compile_ms` is their median.
const COMPILE_REPEATS: usize = 51;
/// Spans written to the trace file; totals cover every span recorded.
const TRACE_FILE_SPANS: usize = 20_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    setup_only: bool,
}

fn usage() -> String {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: hb-benchmark --workload <{}> [--seed <n>] [--seconds <s>] [--trace [0|1]] [--smoke]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        setup_only: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            // `--trace` alone means on; the driver passes 0 or 1.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if workloads::spec(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Where this process may write: `benchmark/out/` of the checkout it is
/// run from, or of the checkout it was built in.
fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// Points the library's two machine-local disk caches at files of this
/// process's own, so no run inherits tuning state from another run or
/// another commit. `HB_TILE` and `HB_COST` stay at their defaults: the
/// autotuner and the calibration are measured, not bypassed.
fn isolate_caches(out: &Path) -> [PathBuf; 2] {
    let pid = std::process::id();
    let files = [
        ("HB_TILE_CACHE", out.join(format!("tile-cache-{pid}.txt"))),
        ("HB_COST_CACHE", out.join(format!("cost-cache-{pid}.txt"))),
    ];
    files.map(|(var, path)| {
        let _ = std::fs::remove_file(&path);
        std::env::set_var(var, &path);
        path
    })
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One set-up in a fresh process; returns its seconds.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--setup-only")
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("set-up child printed no time: {e}"))
}

fn of_windows(windows: &[Window], f: impl Fn(&Window) -> f64) -> Vec<f64> {
    windows.iter().map(f).collect()
}

fn report_windows(windows: &[Window]) {
    eprintln!(
        "window traced  calls  rows/s        p50_us     tail_us (q)      ref_calls ref_p50_us speedup  write_ms"
    );
    for (i, w) in windows.iter().enumerate() {
        eprintln!(
            "{i:>6} {:>6} {:>6} {:>13.1} {:>10.1} {:>10.1} (p{:02.0}) {:>9} {:>10.2} {:>7.4} {:>9}",
            u8::from(w.traced),
            w.calls,
            w.rows_per_s,
            w.p50_us,
            w.tail_us,
            w.tail_q * 100.0,
            w.ref_calls,
            w.ref_p50_us,
            w.speedup_vs_ref,
            w.write_ms.map_or("-".to_string(), |ms| format!("{ms:.2}")),
        );
    }
}

fn report_metrics(title: &str, metrics: &[Metric]) {
    eprintln!("{title}");
    for m in metrics {
        eprintln!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// The untraced run: every end-to-end metric.
fn end_to_end(args: &Args, nproc: usize) -> Result<(Vec<Metric>, u64, u64), String> {
    let spec = workloads::spec(&args.workload).expect("workload was checked");
    let repeats = if args.smoke { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    for _ in 1..repeats {
        setups.push(setup_in_child(args)?);
    }
    let t = Instant::now();
    let w = workloads::build(spec, args.seed, nproc)?;
    setups.push(t.elapsed().as_secs_f64());
    eprintln!("set-up stages of this process: {:?}", w.times);
    eprintln!("set-ups (s): {setups:?}");

    // A cold compile is sub-millisecond, so all of them in a row would
    // fit inside one burst of machine noise and move with it. They are
    // taken in three batches instead: before, between and after the two
    // halves of the timed phase.
    let per_batch = if args.smoke { 1 } else { COMPILE_REPEATS / 3 };
    let mut compile_ms = Vec::with_capacity(3 * per_batch);
    let mut compile_batch = |w: &Workload| -> Result<(), String> {
        for _ in 0..per_batch {
            compile_ms.push(workloads::compile_once(w)?.as_secs_f64() * 1e3);
        }
        Ok(())
    };
    compile_batch(&w)?;

    // Read before the timed phase, so the harness's own sample buffers,
    // which grow with throughput, are not in it.
    let peak_rss_mb = peak_rss_mb();

    let plan = if args.smoke {
        Plan::smoke()
    } else {
        Plan::for_seconds(args.seconds)
    };
    let mut windows = Vec::with_capacity(plan.windows);
    for half in [plan.windows / 2, plan.windows - plan.windows / 2] {
        let plan = Plan {
            windows: half,
            ..plan
        };
        windows.extend(run::run_windows(&w, &w.requests, w.clients, plan, None));
        compile_batch(&w)?;
    }
    report_windows(&windows);
    let thin = windows.iter().filter(|w| w.tail_q < stats::TAIL_Q).count();
    if thin > 0 {
        eprintln!("warning: {thin} windows hold under 200 calls; their tail is below p95");
    }

    let columns: [(&str, &'static str, Vec<f64>); 4] = [
        ("rows_per_s", "1/s", of_windows(&windows, |w| w.rows_per_s)),
        ("call_p50_us", "us", of_windows(&windows, |w| w.p50_us)),
        ("call_p95_us", "us", of_windows(&windows, |w| w.tail_us)),
        (
            "speedup_vs_ref",
            "ratio",
            of_windows(&windows, |w| w.speedup_vs_ref),
        ),
    ];
    let mut metrics = vec![
        metric("setup_s", median(&setups), "s"),
        metric("compile_ms", median(&compile_ms), "ms"),
    ];
    eprintln!("over {} windows: median [q1, q3] (min..max)", windows.len());
    for (name, unit, values) in columns {
        let s = spread(&values);
        eprintln!(
            "  {name:<16} {:>14.4} [{:.4}, {:.4}] ({:.4}..{:.4}) {unit}",
            s.median, s.q1, s.q3, s.min, s.max
        );
        metrics.push(metric(name, s.median, unit));
    }
    metrics.push(metric("peak_rss_mb", peak_rss_mb, "MB"));
    let writes: Vec<f64> = windows.iter().filter_map(|w| w.write_ms).collect();
    if !writes.is_empty() {
        eprintln!(
            "  write beside reads (deploy), median ms: {:.3}",
            median(&writes)
        );
    }
    let attempted = windows.iter().map(|w| w.attempted).sum();
    let failed = windows.iter().map(|w| w.failed).sum();
    Ok((metrics, attempted, failed))
}

/// The traced run: every per-layer metric, and the trace file.
fn per_layer(args: &Args, nproc: usize, out: &Path) -> Result<(Vec<Metric>, u64, u64), String> {
    let spec = workloads::spec(&args.workload).expect("workload was checked");
    let mut trace = Trace::new(Instant::now());
    let (w, id): (Result<Workload, String>, usize) = trace.time("bench.setup", None, 0, || {
        workloads::build(spec, args.seed, nproc)
    });
    let w = w?;
    let setup_s = trace.spans[id].duration_ns() as f64 / 1e9;

    // Half the run in windows, alternately traced and untraced; a
    // quarter in the layer ladder; the rest is fixed-count probes.
    let (plan, ladder) = if args.smoke {
        (Plan::smoke(), Duration::from_millis(200))
    } else {
        let mut plan = Plan::for_seconds(args.seconds / 2.0);
        plan.windows = plan.windows.max(4);
        (plan, Duration::from_secs_f64(args.seconds / 4.0))
    };
    let windows = run::run_windows(&w, &w.requests, w.clients, plan, Some(&mut trace));
    report_windows(&windows);
    let rows_per_s = |traced: bool| {
        let v: Vec<f64> = windows
            .iter()
            .filter(|w| w.traced == traced)
            .map(|w| w.rows_per_s)
            .collect();
        median(&v)
    };
    let mut metrics = vec![
        metric("trace.setup_s", setup_s, "s"),
        metric(
            "trace.overhead_share",
            1.0 - rows_per_s(true) / rows_per_s(false),
            "ratio",
        ),
    ];
    let request = trace.totals_by_name().get("bench.request").copied();
    metrics.push(metric(
        "trace.harness_self_us",
        request.map_or(0.0, |t| t.self_ns as f64 / t.count.max(1) as f64 / 1e3),
        "us",
    ));

    let layers = layers::measure(&w, nproc, ladder, &mut trace)?;
    metrics.extend(layers.metrics);

    // Mean self time of each ladder layer: by construction these sum to
    // the mean of the outermost call.
    let totals = trace.totals_by_name();
    eprintln!("ladder (per call): layer, mean us, mean self us");
    for name in layers::LADDER {
        let t = totals.get(name).copied().unwrap_or_default();
        let n = t.count.max(1) as f64;
        eprintln!(
            "  {name:<24} {:>12.2} {:>12.2}",
            t.total_ns as f64 / n / 1e3,
            t.self_ns as f64 / n / 1e3
        );
    }
    metrics.push(metric("trace.spans", trace.spans.len() as f64, "count"));

    report_metrics("per-layer metrics", &metrics);
    if !layers.tree_extras.is_empty() {
        report_metrics(
            "tree-ensemble layers (this workload has trees)",
            &layers.tree_extras,
        );
    }
    eprintln!("autotuned GEMM tiles: {:?}", layers.tiles);

    let as_json = |ms: &[Metric]| {
        Json::Obj(
            ms.iter()
                .map(|m| (m.name.clone(), Json::Num(m.value)))
                .collect(),
        )
    };
    let file = out.join(format!("trace_{}.json", args.workload));
    let doc = Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("nproc".into(), Json::Num(nproc as f64)),
        ("per_layer".into(), as_json(&metrics)),
        ("tree_extras".into(), as_json(&layers.tree_extras)),
        (
            "tiles".into(),
            Json::Arr(layers.tiles.into_iter().map(Json::Str).collect()),
        ),
        ("trace".into(), trace.to_json(TRACE_FILE_SPANS)),
    ]);
    std::fs::write(&file, hb_json::to_string(&doc))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    eprintln!("trace written to {}", file.display());

    let attempted = windows.iter().map(|w| w.attempted).sum();
    let failed = windows.iter().map(|w| w.failed).sum();
    Ok((metrics, attempted, failed))
}

fn result_line(metrics: &[Metric], attempted: u64, failed: u64) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("{}: {e}", out.display());
        return ExitCode::from(2);
    }
    let started = Instant::now();
    let caches = isolate_caches(&out);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    let outcome = if args.setup_only {
        let spec = workloads::spec(&args.workload).expect("workload was checked");
        workloads::build(spec, args.seed, nproc).map(|_| {
            println!("{}", started.elapsed().as_secs_f64());
            None
        })
    } else {
        eprintln!(
            "workload {} seed {} nproc {} trace {}",
            args.workload, args.seed, nproc, args.trace
        );
        if args.trace {
            per_layer(&args, nproc, &out)
        } else {
            end_to_end(&args, nproc)
        }
        .map(Some)
    };
    for path in caches {
        let _ = std::fs::remove_file(path);
    }
    match outcome {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some((metrics, attempted, failed))) => {
            println!("{}", result_line(&metrics, attempted, failed));
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("FAILED: {failed} of {attempted} operations failed or answered wrongly");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args("--workload serve_store --seed 7 --seconds 20 --trace 0").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_store", 7, 20.0, false)
        );
        assert!(args("--workload trees_batch --trace 1").unwrap().trace);
        assert!(
            args("--workload trees_batch --trace --smoke")
                .unwrap()
                .trace
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--workload trees_batch --seconds 0").is_err());
        assert!(args("--workload trees_batch --frobnicate").is_err());
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let line = result_line(&[metric("setup_s", 0.8127, "s")], 1000, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let parsed = hb_json::parse(&line).unwrap();
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert!(result_line(&[], 10, 1).starts_with("{\"correct\": false"));
    }

    /// `--smoke`: the whole untraced and traced path, in seconds.
    #[test]
    fn smoke_runs_every_workload_end_to_end() {
        let out = out_dir();
        std::fs::create_dir_all(&out).unwrap();
        let caches = isolate_caches(&out);
        for spec in &SPECS {
            let a = args(&format!("--workload {} --smoke", spec.name)).unwrap();
            let (metrics, attempted, failed) = end_to_end(&a, 2).unwrap();
            assert!(attempted > 0, "{}", spec.name);
            assert_eq!(failed, 0, "{}", spec.name);
            assert_eq!(metrics.len(), 7);
            assert!(metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0));
        }
        let a = args("--workload serve_store --smoke --trace 1").unwrap();
        let (metrics, _, failed) = per_layer(&a, 2, &out).unwrap();
        assert_eq!(failed, 0);
        assert!(metrics
            .iter()
            .any(|m| m.name == "backend.run_us" && m.value > 0.0));
        assert!(out.join("trace_serve_store.json").exists());
        for path in caches {
            let _ = std::fs::remove_file(path);
        }
    }
}
