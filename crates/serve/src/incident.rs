//! Incident log: a bounded, monotonically-sequenced record of everything
//! the serving runtime survived.
//!
//! Worker panics, breaker transitions, canary divergences, watchdog
//! trips, and drains all land here with a strictly increasing sequence
//! number, so operators (and the chaos suite) can reconstruct what
//! happened under concurrency without a debugger attached. The log is a
//! ring buffer: old entries are dropped, sequence numbers never reset.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::Rung;

/// What kind of event an [`Incident`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentKind {
    /// A request panicked through every unwind boundary and was caught
    /// at the worker's top level; the worker survived.
    WorkerPanic,
    /// A rung's breaker tripped Closed → Open.
    BreakerOpened,
    /// A rung's breaker closed again (successful probe).
    BreakerClosed,
    /// The canary checker observed output divergence beyond tolerance.
    CanaryDivergence,
    /// A rung was quarantined (breaker forced Open by the canary).
    Quarantined,
    /// The watchdog tripped a rung for repeated deadline blows.
    WatchdogSlowTrip,
    /// A request was cancelled mid-graph after blowing its deadline.
    DeadlineCancelled,
    /// Sustained queue pressure put the coalescer into brownout mode
    /// (canary replay suspended, coalescing window widened).
    BrownoutEntered,
    /// Queue pressure subsided; the coalescer left brownout mode.
    BrownoutExited,
    /// The supervisor drained and shut down.
    Drained,
    /// A model (version) was registered with the store.
    Registered,
    /// A new model version entered its canary phase
    /// (`ModelStore::deploy`).
    Deployed,
    /// A canary version passed its divergence checks and atomically
    /// replaced the active version.
    Promoted,
    /// A canary version failed its divergence checks and was rolled
    /// back; the previous version kept serving throughout.
    RolledBack,
    /// A model was evicted from the store (budget and pool references
    /// released).
    Evicted,
    /// An admission was refused because the model's memory budget was
    /// exhausted.
    BudgetRejected,
}

impl IncidentKind {
    /// Short label for logs and JSON.
    pub fn label(self) -> &'static str {
        match self {
            IncidentKind::WorkerPanic => "worker-panic",
            IncidentKind::BreakerOpened => "breaker-opened",
            IncidentKind::BreakerClosed => "breaker-closed",
            IncidentKind::CanaryDivergence => "canary-divergence",
            IncidentKind::Quarantined => "quarantined",
            IncidentKind::WatchdogSlowTrip => "watchdog-slow-trip",
            IncidentKind::DeadlineCancelled => "deadline-cancelled",
            IncidentKind::BrownoutEntered => "brownout-entered",
            IncidentKind::BrownoutExited => "brownout-exited",
            IncidentKind::Drained => "drained",
            IncidentKind::Registered => "registered",
            IncidentKind::Deployed => "deployed",
            IncidentKind::Promoted => "promoted",
            IncidentKind::RolledBack => "rolled-back",
            IncidentKind::Evicted => "evicted",
            IncidentKind::BudgetRejected => "budget-rejected",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Strictly increasing sequence number (never resets, survives ring
    /// eviction).
    pub seq: u64,
    /// When the incident occurred, relative to log creation.
    pub at: Duration,
    /// The rung involved, if any.
    pub rung: Option<Rung>,
    /// The model (id@version tag) involved — `None` in single-model
    /// operation, where attribution is unambiguous.
    pub model: Option<String>,
    /// Event kind.
    pub kind: IncidentKind,
    /// Free-form context (panic message, divergence magnitude, ...).
    pub detail: String,
}

/// Bounded ring buffer of [`Incident`]s with a monotonic sequence.
#[derive(Debug)]
pub struct IncidentLog {
    seq: AtomicU64,
    epoch: Instant,
    cap: usize,
    /// Incidents evicted from the ring (recorded minus retained): silent
    /// incident loss made observable.
    dropped: AtomicU64,
    entries: Mutex<VecDeque<Incident>>,
}

impl IncidentLog {
    /// A log retaining the most recent `cap` incidents.
    pub fn new(cap: usize) -> IncidentLog {
        IncidentLog {
            seq: AtomicU64::new(0),
            epoch: Instant::now(),
            cap: cap.max(1),
            dropped: AtomicU64::new(0),
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// Records an incident, returning its sequence number.
    pub fn record(&self, kind: IncidentKind, rung: Option<Rung>, detail: impl Into<String>) -> u64 {
        self.record_for(kind, rung, None, detail)
    }

    /// Records an incident attributed to a model (a store's shared log
    /// carries every model's incidents in one monotonic sequence; the
    /// tag keeps them attributable).
    pub fn record_for(
        &self,
        kind: IncidentKind,
        rung: Option<Rung>,
        model: Option<&str>,
        detail: impl Into<String>,
    ) -> u64 {
        let model = model.map(str::to_string);
        let detail = detail.into();
        // Incidents are plain data; survive a poisoned lock.
        let mut entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        // Numbered under the lock, so entries sit in sequence order even
        // when threads record concurrently.
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        entries.push_back(Incident {
            seq,
            at: self.epoch.elapsed(),
            rung,
            model,
            kind,
            detail,
        });
        while entries.len() > self.cap {
            entries.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        seq
    }

    /// Total incidents ever recorded (not just retained).
    pub fn total(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Incidents lost to ring eviction. `total() - dropped()` entries
    /// are retained; a growing value says the ring is undersized for
    /// the incident rate.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Snapshot of the retained incidents, oldest first.
    pub fn snapshot(&self) -> Vec<Incident> {
        self.entries
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_is_monotonic_across_ring_eviction() {
        let log = IncidentLog::new(4);
        for i in 0..10 {
            let seq = log.record(IncidentKind::WorkerPanic, None, format!("p{i}"));
            assert_eq!(seq, i);
        }
        assert_eq!(log.total(), 10);
        assert_eq!(log.dropped(), 6);
        let snap = log.snapshot();
        assert_eq!(snap.len(), 4);
        let seqs: Vec<u64> = snap.iter().map(|i| i.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn record_for_tags_the_model() {
        let log = IncidentLog::new(8);
        log.record(IncidentKind::Drained, None, "bye");
        log.record_for(IncidentKind::Promoted, None, Some("fraud@v2"), "clean");
        let snap = log.snapshot();
        assert_eq!(snap[0].model, None);
        assert_eq!(snap[1].model.as_deref(), Some("fraud@v2"));
        assert_eq!(log.dropped(), 0);
    }
}
