//! Tensor allocation tracking.
//!
//! The paper's Table 9 reports peak memory consumption per framework. The
//! original artifact measured it with `memory_profiler`; here every tensor
//! storage registers its byte size on creation and deregisters on drop, so
//! the executor can read current and peak tensor memory directly.
//!
//! The counters are scoped to the calling thread: a thread sees only the
//! storages it created and dropped itself, so concurrent runs on other
//! threads never leak into its figures. Storage created on one thread and
//! dropped on another is charged to the first and released on the
//! second, which is why the live-byte count is signed. Readers take
//! differences over a region of their own thread (see [`measure_peak`]).
//! This relies on tensors being allocated on the thread that runs the
//! graph: the `rayon` workers that kernels fan out to write into buffers
//! allocated before the fan-out, never allocate tensors themselves.

use std::cell::Cell;

thread_local! {
    static CURRENT_BYTES: Cell<isize> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<isize> = const { Cell::new(0) };
    static ALLOC_COUNT: Cell<usize> = const { Cell::new(0) };
}

/// Records an allocation of `bytes` on this thread and updates its peak
/// watermark.
pub(crate) fn record_alloc(bytes: usize) {
    ALLOC_COUNT.with(|c| c.set(c.get() + 1));
    let cur = CURRENT_BYTES.with(|c| {
        let cur = c.get().wrapping_add_unsigned(bytes);
        c.set(cur);
        cur
    });
    PEAK_BYTES.with(|p| p.set(p.get().max(cur)));
}

/// Records the release of `bytes` of tensor storage on this thread.
pub(crate) fn record_dealloc(bytes: usize) {
    CURRENT_BYTES.with(|c| c.set(c.get().wrapping_sub_unsigned(bytes)));
}

/// Net tensor bytes this thread has allocated minus those it has freed.
/// Negative when the thread dropped storage that another thread created.
pub fn current_bytes() -> isize {
    CURRENT_BYTES.with(Cell::get)
}

/// This thread's high-water mark of [`current_bytes`] since its last
/// [`reset_peak`].
pub fn peak_bytes() -> isize {
    PEAK_BYTES.with(Cell::get)
}

/// Resets this thread's peak watermark to its current live byte count.
pub fn reset_peak() {
    PEAK_BYTES.with(|p| p.set(current_bytes()));
}

/// Cumulative number of tensor storage allocations this thread has made.
///
/// This counter never resets; callers snapshot it before and after a
/// region to count allocations inside (the memory planner's steady-state
/// zero-allocation assertion reads it this way).
pub fn alloc_count() -> usize {
    ALLOC_COUNT.with(Cell::get)
}

/// Runs `f` and returns `(result, peak_bytes_during_f)`: the most tensor
/// memory `f` held at once above what this thread held when it started.
///
/// Only allocations on the calling thread count, so tensor work that
/// other threads do concurrently is not attributed to `f`.
pub fn measure_peak<R>(f: impl FnOnce() -> R) -> (R, usize) {
    reset_peak();
    let before = current_bytes();
    let out = f();
    (out, usize::try_from(peak_bytes() - before).unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn alloc_tracking_counts_storage() {
        let before = current_bytes();
        let t = Tensor::<f32>::zeros(&[1024]);
        assert!(current_bytes() >= before + 4096);
        drop(t);
        assert_eq!(current_bytes(), before);
    }

    #[test]
    fn measure_peak_reports_transient_usage() {
        let ((), peak) = measure_peak(|| {
            let a = Tensor::<f32>::zeros(&[1 << 12]);
            let b = Tensor::<f32>::zeros(&[1 << 12]);
            drop((a, b));
        });
        assert_eq!(peak, 2 * 4 * (1 << 12));
    }

    #[test]
    fn views_do_not_allocate() {
        let t = Tensor::<f32>::zeros(&[64, 64]);
        let before = current_bytes();
        let v = t.reshape(&[4096]);
        let w = v.slice(0, 0, 128);
        assert_eq!(current_bytes(), before);
        drop((v, w));
    }

    #[test]
    fn counters_are_scoped_to_the_thread() {
        let (count, bytes) = (alloc_count(), current_bytes());
        let t = std::thread::spawn(|| {
            let t = Tensor::<f32>::zeros(&[256]);
            assert_eq!(current_bytes(), 1024);
            t
        })
        .join()
        .unwrap();
        assert_eq!((alloc_count(), current_bytes()), (count, bytes));
        // Freed here, created there: this thread's net count goes down.
        drop(t);
        assert_eq!(current_bytes(), bytes - 1024);
    }
}
