//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start and end on the process clock, the span that
//! caused it, the cell it belongs to and the thread that ran it. Spans are
//! kept in memory while the run measures and written out when it ends, so
//! recording one costs a clock read and a short critical section.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use snicbench_core::json::Json;

/// One recorded span. Times are nanoseconds since the process epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run (0 is never used).
    pub id: u64,
    /// The enclosing span, 0 at the root.
    pub parent: u64,
    /// The layer boundary, e.g. `experiment.search`.
    pub name: &'static str,
    /// The simulation cell the span belongs to, if any.
    pub cell: Option<u32>,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// The thread that ran the span.
    pub thread: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn thread_tag() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static TAG: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    TAG.with(|t| *t)
}

/// Collects spans; a disabled tracer records nothing and costs nothing
/// beyond a branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span under `parent` (0 for a root span); `f`
    /// gets the span's id to parent nested spans (0 when disabled).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        cell: Option<u32>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = now_ns();
        let out = f(id);
        let span = Span {
            id,
            parent,
            name,
            cell,
            start,
            end: now_ns(),
            thread: thread_tag(),
        };
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .push(span);
        out
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .clone();
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }
}

/// Length of the union of `[start, end)` intervals.
fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time per layer, in seconds, and call counts: a span's duration
/// minus the part of its interval its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (f64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for s in spans {
        let kids = children.remove(&s.id).unwrap_or_default();
        let own = (s.end - s.start).saturating_sub(covered(kids));
        let e = out.entry(s.name).or_insert((0.0, 0));
        e.0 += own as f64 * 1e-9;
        e.1 += 1;
    }
    out
}

/// The spans as a JSON document (times in µs since the epoch).
pub fn to_json(spans: &[Span]) -> Json {
    Json::arr(spans.iter().map(|s| {
        Json::obj([
            ("id", Json::U64(s.id)),
            ("parent", Json::U64(s.parent)),
            ("name", Json::str(s.name)),
            (
                "cell",
                s.cell.map_or(Json::Null, |c| Json::U64(u64::from(c))),
            ),
            ("start_us", Json::Num(s.start as f64 * 1e-3)),
            ("end_us", Json::Num(s.end as f64 * 1e-3)),
            ("thread", Json::U64(u64::from(s.thread))),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            cell: None,
            start,
            end,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "pass", 0, 100),
            span(2, 1, "cell", 10, 50),
            span(3, 1, "cell", 30, 70),
            span(4, 1, "cell", 80, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t["pass"].1, 1);
        assert!((t["pass"].0 - 30e-9).abs() < 1e-15);
        assert_eq!(t["cell"].1, 3);
        assert!((t["cell"].0 - 90e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.span("pass", 0, None, |_| ());
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let parent = t.span("pass", 0, None, |id| {
            t.span("cell", id, Some(3), |_| ());
            id
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let cell = spans.iter().find(|s| s.name == "cell").expect("recorded");
        assert_eq!((cell.parent, cell.cell), (parent, Some(3)));
    }
}
