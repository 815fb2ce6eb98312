//! Percentile and window arithmetic.
//!
//! Every end-to-end timing is computed per window and the run reports the
//! median over windows: a stall that lands in one window moves one of
//! the window values, not the reported number.

/// Samples a percentile must leave beyond itself to be reported.
pub const MIN_BEYOND: usize = 10;
/// The tail percentile reported when a window holds enough samples.
pub const TAIL_Q: f64 = 0.95;

/// Nearest-rank quantile of an ascending slice; `NaN` when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median by interpolation (mean of the two middle values for even
/// counts), like Python's `statistics.median`; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them. Needs two values or more.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        // Position i*(n+1)/4 in 1-based ranks, clamped like CPython.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// The highest percentile, capped at [`TAIL_Q`], that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it. `None` when even the median
/// cannot: such a window is too small to report a tail at all.
pub fn supported_tail(n: usize) -> Option<f64> {
    if n < 2 * MIN_BEYOND {
        return None;
    }
    Some(TAIL_Q.min(1.0 - MIN_BEYOND as f64 / n as f64))
}

/// What one window of the timed phase measured.
#[derive(Debug, Clone)]
pub struct Window {
    pub traced: bool,
    /// Calls that returned `Ok`, each with a latency sample.
    pub calls: usize,
    pub attempted: u64,
    pub failed: u64,
    pub rows_per_s: f64,
    pub p50_us: f64,
    pub tail_us: f64,
    /// The percentile `tail_us` is; below [`TAIL_Q`] in a thin window.
    pub tail_q: f64,
    pub ref_calls: usize,
    pub ref_p50_us: f64,
    /// `ref_p50 / call_p50` within this window, so machine drift between
    /// windows and between runs divides out.
    pub speedup_vs_ref: f64,
    /// Wall time of this window's write beside the reads, if it has one.
    pub write_ms: Option<f64>,
}

/// Raw samples of one window, all generator threads merged.
#[derive(Debug, Default)]
pub struct WindowSamples {
    pub traced: bool,
    pub call_us: Vec<f64>,
    pub ref_us: Vec<f64>,
    /// Longest program block of any client, seconds.
    pub block_s: f64,
    pub rows_per_call: usize,
    pub attempted: u64,
    pub failed: u64,
    pub write_ms: Option<f64>,
}

impl WindowSamples {
    pub fn summarize(mut self) -> Window {
        self.call_us.sort_by(f64::total_cmp);
        self.ref_us.sort_by(f64::total_cmp);
        let calls = self.call_us.len();
        let p50_us = quantile_sorted(&self.call_us, 0.5);
        let tail_q = supported_tail(calls).unwrap_or(0.5);
        let ref_p50_us = quantile_sorted(&self.ref_us, 0.5);
        Window {
            traced: self.traced,
            calls,
            attempted: self.attempted,
            failed: self.failed,
            rows_per_s: (calls * self.rows_per_call) as f64 / self.block_s,
            p50_us,
            tail_us: quantile_sorted(&self.call_us, tail_q),
            tail_q,
            ref_calls: self.ref_us.len(),
            ref_p50_us,
            speedup_vs_ref: ref_p50_us / p50_us,
            write_ms: self.write_ms,
        }
    }
}

/// Median, quartiles and extremes of one metric over the windows.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

pub fn spread(values: &[f64]) -> Spread {
    let med = median(values);
    let (q1, q3) = quartiles(values).unwrap_or((med, med));
    Spread {
        median: med,
        q1,
        q3,
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 100.0);
        assert_eq!(quantile_sorted(&v, 0.95), 190.0);
        assert_eq!(quantile_sorted(&v, 1.0), 200.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert!(quantile_sorted(&[], 0.5).is_nan());
    }

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 200 samples: p95 leaves exactly ten beyond it.
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(5000), Some(0.95));
        // 100 samples support p90 only, 40 support p75.
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(40), Some(0.75));
        assert_eq!(supported_tail(19), None);
    }

    #[test]
    fn window_summary_on_synthetic_latencies() {
        // 400 calls of 100..499 us, reference twice as fast.
        let w = WindowSamples {
            traced: false,
            call_us: (0..400).rev().map(|i| 100.0 + f64::from(i)).collect(),
            ref_us: (0..100).map(|i| 50.0 + f64::from(i)).collect(),
            block_s: 2.0,
            rows_per_call: 1000,
            attempted: 401,
            failed: 1,
            write_ms: None,
        }
        .summarize();
        assert_eq!(w.calls, 400);
        assert_eq!(w.rows_per_s, 200_000.0);
        assert_eq!(w.p50_us, 299.0);
        assert_eq!(w.tail_q, 0.95);
        assert_eq!(w.tail_us, 479.0);
        assert_eq!(w.ref_p50_us, 99.0);
        assert!((w.speedup_vs_ref - 99.0 / 299.0).abs() < 1e-12);
    }

    #[test]
    fn thin_window_reports_a_lower_tail() {
        let w = WindowSamples {
            call_us: (0..50).map(f64::from).collect(),
            ref_us: vec![1.0],
            block_s: 1.0,
            rows_per_call: 1,
            ..WindowSamples::default()
        }
        .summarize();
        assert_eq!(w.tail_q, 0.8);
        assert_eq!(w.tail_us, 39.0);
    }

    #[test]
    fn median_over_windows_ignores_one_stalled_window() {
        let mut p95 = vec![100.0; 7];
        p95.push(900.0);
        let s = spread(&p95);
        assert_eq!(s.median, 100.0);
        assert_eq!(s.max, 900.0);
    }
}
