//! The benchmark's own spans, recorded around calls into the library's
//! public functions. Nothing inside the library is instrumented: spans
//! inside the program are ROADMAP item 1.
//!
//! Spans stay in memory while the run measures and are written out at
//! exit.

use std::collections::BTreeMap;
use std::time::Instant;

use hb_json::Json;

/// One timed interval. `parent` indexes into the owning [`Trace`].
///
/// A child is either nested inside its parent's interval (the call ran
/// inside the parent) or *replayed*: the inner layer's public function
/// called on the same request right after the outer one, because from
/// outside the library the inner call cannot be seen while the outer one
/// runs. Both count the same way towards the parent's self time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one request share this.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a trace.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Signed: see [`Trace::self_times_ns`].
    pub self_ns: i64,
}

#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    /// A trace sharing this one's clock, for another thread to fill.
    pub fn fork(&self) -> Trace {
        Trace::new(self.epoch)
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a span now and returns its index; [`Trace::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Ends span `id` now and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration_ns()
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: its duration minus its direct children's
    /// durations. Signed, because a replayed child can, by noise, take
    /// longer than the call it stands for; clamping would bias the mean
    /// upwards, while signed self times along a chain always sum to the
    /// outermost span and their mean is the difference of the means.
    pub fn self_times_ns(&self) -> Vec<i64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns() as i64 - c as i64)
            .collect()
    }

    pub fn totals_by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// The first `limit` spans as JSON; the totals cover all of them.
    pub fn to_json(&self, limit: usize) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        let spans = self
            .spans
            .iter()
            .take(limit)
            .enumerate()
            .map(|(id, s)| {
                Json::Obj(vec![
                    ("id".into(), num(id as u64)),
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_ns".into(), num(s.start_ns)),
                    ("end_ns".into(), num(s.end_ns)),
                    (
                        "parent".into(),
                        // A parent past the limit is not in the file.
                        s.parent
                            .filter(|&p| p < limit)
                            .map_or(Json::Null, |p| num(p as u64)),
                    ),
                    ("request_id".into(), num(s.request)),
                ])
            })
            .collect();
        let totals = self
            .totals_by_name()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("count".into(), num(t.count)),
                        ("total_ns".into(), num(t.total_ns)),
                        ("self_ns".into(), Json::Num(t.self_ns as f64)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("spans_recorded".into(), num(self.spans.len() as u64)),
            (
                "spans_written".into(),
                num(self.spans.len().min(limit) as u64),
            ),
            ("totals_by_name".into(), Json::Obj(totals)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 7,
        }
    }

    fn trace(spans: Vec<Span>) -> Trace {
        Trace {
            epoch: Instant::now(),
            spans,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0,100] > store [10,90] > model [20,50]; model is the
        // store's child, not the request's.
        let t = trace(vec![
            span("request", 0, 100, None),
            span("store", 10, 90, Some(0)),
            span("model", 20, 50, Some(1)),
        ]);
        assert_eq!(t.self_times_ns(), vec![20, 50, 30]);
        // Self times of a chain sum to the root's duration.
        assert_eq!(t.self_times_ns().iter().sum::<i64>(), 100);
    }

    #[test]
    fn replayed_child_counts_like_a_nested_one_and_may_outlast_its_parent() {
        // The inner call is replayed after the outer one ended.
        let t = trace(vec![
            span("outer", 0, 100, None),
            span("inner", 100, 160, Some(0)),
            span("fast_outer", 0, 50, None),
            span("slower_replay", 50, 120, Some(2)),
        ]);
        assert_eq!(t.self_times_ns(), vec![40, 60, -20, 70]);
        // Each chain still sums to its outermost span.
        assert_eq!(-20 + 70, 50);
    }

    #[test]
    fn absorb_rebases_parents_and_totals_group_by_name() {
        let mut a = trace(vec![span("request", 0, 10, None)]);
        let b = trace(vec![
            span("request", 0, 30, None),
            span("call", 5, 25, Some(0)),
        ]);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        let totals = a.totals_by_name();
        assert_eq!(
            totals["request"],
            NameTotals {
                count: 2,
                total_ns: 40,
                self_ns: 20
            }
        );
        assert_eq!(totals["call"].self_ns, 20);
        assert_eq!(a.durations_us("call"), vec![0.02]);
    }

    #[test]
    fn json_keeps_the_five_span_fields() {
        let t = trace(vec![
            span("request", 0, 10, None),
            span("call", 2, 8, Some(0)),
        ]);
        let j = t.to_json(1);
        assert_eq!(j.get("spans_recorded"), Some(&Json::Num(2.0)));
        let spans = j.get("spans").unwrap().expect_arr("spans").unwrap();
        assert_eq!(spans.len(), 1);
        for key in ["name", "start_ns", "end_ns", "parent", "request_id"] {
            assert!(spans[0].get(key).is_some(), "missing {key}");
        }
    }
}
