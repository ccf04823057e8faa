//! Single-layer kernels: each drives one module through its public API
//! and reports the host cost of one operation.
//!
//! Every kernel repeats a fixed amount of work a few rounds and keeps the
//! median round, so a stall in one round does not move the figure.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::{Rc, Weak};
use std::time::Instant;

use snicbench_core::admission::{AimdLimiter, AimdSettings};
use snicbench_core::loadbalancer::ring::{HashRing, DEFAULT_VNODES};
use snicbench_core::resilience::{HealthChecker, HealthSettings};
use snicbench_metrics::LatencyHistogram;
use snicbench_net::traffic::{Poisson, TenantMix, TrafficSpec};
use snicbench_sim::dist::{Distribution, Exponential, LogNormal};
use snicbench_sim::engine::{EventHandler, EventToken, Simulator};
use snicbench_sim::event::EventId;
use snicbench_sim::rng::{DrawStream, Rng};
use snicbench_sim::station::{Completion, CompletionHandler, StationHandle};
use snicbench_sim::{SimDuration, SimTime};

use crate::stats::median;

/// Rounds per kernel; the median round is reported.
const ROUNDS: usize = 3;

/// Median over [`ROUNDS`] of `f`'s wall seconds.
fn timed_rounds(mut f: impl FnMut(usize)) -> f64 {
    let mut secs: Vec<f64> = (0..ROUNDS)
        .map(|round| {
            let t = Instant::now();
            f(round);
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut secs)
}

/// Shape of an engine churn run.
#[derive(Debug, Clone, Copy)]
pub struct ChurnShape {
    /// Stations arrivals are spread over.
    pub stations: usize,
    /// Servers per station.
    pub servers: usize,
    /// Arrivals per run.
    pub arrivals: u64,
}

/// One station with eight servers: the single-pair runs of `fig4-search`.
pub const SMALL: ChurnShape = ChurnShape {
    stations: 1,
    servers: 8,
    arrivals: 200_000,
};

/// 128 stations plus one timer per request in flight: a pending set as
/// wide as `fleet-chaos`'s (64 host pools and 16 accelerator stations,
/// plus health-probe and hedge timers), rounded up.
pub const WIDE: ChurnShape = ChurnShape {
    stations: 128,
    servers: 4,
    arrivals: 200_000,
};

const CHURN_SERVICE_NS: f64 = 6_400.0;
const CHURN_TIMEOUT: SimDuration = SimDuration::from_micros(500);

struct TimeoutSink;

impl EventHandler for TimeoutSink {
    fn on_event(&self, _sim: &mut Simulator, _token: EventToken) {}
}

/// Poisson arrivals spread uniformly over the stations; each job arms a
/// timeout that its completion cancels, so every job exercises schedule,
/// dispatch and cancel.
struct ChurnSource {
    me: RefCell<Weak<ChurnSource>>,
    stations: Vec<StationHandle>,
    service: Exponential,
    gap: Exponential,
    rng: RefCell<DrawStream>,
    timeout_sink: Rc<TimeoutSink>,
    left: Cell<u64>,
}

impl EventHandler for ChurnSource {
    fn on_event(&self, sim: &mut Simulator, _token: EventToken) {
        if self.left.get() == 0 {
            return;
        }
        self.left.set(self.left.get() - 1);
        let (demand, gap, station) = {
            let mut rng = self.rng.borrow_mut();
            (
                SimDuration::from_nanos(self.service.sample_stream(&mut rng).round() as u64),
                SimDuration::from_nanos(self.gap.sample_stream(&mut rng).round() as u64)
                    .max(SimDuration::from_nanos(1)),
                (rng.next_u64() % self.stations.len() as u64) as usize,
            )
        };
        let timer =
            sim.schedule_event_in(CHURN_TIMEOUT, self.timeout_sink.clone(), EventToken::ZERO);
        self.stations[station].submit_tagged(sim, demand, timer.to_bits(), 0);
        let me = self
            .me
            .borrow()
            .upgrade()
            .expect("the churn source outlives the run");
        sim.schedule_event_in(gap, me, EventToken::ZERO);
    }
}

impl CompletionHandler for ChurnSource {
    fn on_complete(&self, sim: &mut Simulator, _done: Completion, a: u64, _b: u64) {
        sim.cancel(EventId::from_bits(a));
    }
}

/// Events executed per host second by the calendar-queue engine on a
/// churn of the given shape (utilization ~0.9 on every station).
pub fn engine_ev_per_s(shape: ChurnShape, seed: u64) -> f64 {
    let mut events = 0;
    let secs = timed_rounds(|round| {
        let mut sim = Simulator::new();
        let stations: Vec<StationHandle> = (0..shape.stations)
            .map(|i| StationHandle::new(format!("churn{i}"), shape.servers, Some(64)))
            .collect();
        let capacity = (shape.stations * shape.servers) as f64;
        let source = Rc::new(ChurnSource {
            me: RefCell::new(Weak::new()),
            stations: stations.clone(),
            service: Exponential::with_mean(CHURN_SERVICE_NS),
            gap: Exponential::with_mean(CHURN_SERVICE_NS / (0.9 * capacity)),
            rng: RefCell::new(DrawStream::new(Rng::new(seed ^ round as u64))),
            timeout_sink: Rc::new(TimeoutSink),
            left: Cell::new(shape.arrivals),
        });
        *source.me.borrow_mut() = Rc::downgrade(&source);
        for s in &stations {
            s.set_completion_handler(source.clone());
        }
        sim.schedule_event_in(SimDuration::ZERO, source.clone(), EventToken::ZERO);
        sim.run();
        events = sim.events_executed();
    });
    events as f64 / secs
}

/// Host ns per `sample_stream` draw of `dist`.
pub fn sample_ns(dist: &dyn Distribution, seed: u64) -> f64 {
    const DRAWS: u64 = 1_000_000;
    let secs = timed_rounds(|round| {
        let mut stream = DrawStream::new(Rng::new(seed ^ round as u64));
        let mut acc = 0.0;
        for _ in 0..DRAWS {
            acc += dist.sample_stream(&mut stream);
        }
        black_box(acc);
    });
    secs * 1e9 / DRAWS as f64
}

/// The two service laws the simulator draws most.
pub fn exponential() -> Exponential {
    Exponential::with_mean(1_000.0)
}

/// See [`exponential`].
pub fn lognormal() -> LogNormal {
    LogNormal::with_mean_cv(1_000.0, 0.3)
}

/// Host ns per Poisson arrival generated into a bare simulator.
pub fn poisson_ns(seed: u64) -> f64 {
    let mut sent = 0;
    let secs = timed_rounds(|round| {
        let mut sim = Simulator::new();
        let stats = TrafficSpec::new(Poisson::at_pps(10e6))
            .fixed_size(1500)
            .flows(1 << 21)
            .seed(seed ^ round as u64)
            .window(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(50))
            .launch(&mut sim, |_, p| {
                black_box(p.flow_hash());
            });
        sim.run();
        sent = stats.borrow().sent;
    });
    secs * 1e9 / sent.max(1) as f64
}

/// Host ns per arrival from [`TenantMix::launch`] of `mix` into a bare
/// simulator with a no-op sink.
pub fn tenant_ns(mix: &TenantMix) -> f64 {
    let mut sent = 0;
    let secs = timed_rounds(|_| {
        let mut sim = Simulator::new();
        let stop = SimTime::ZERO + mix.day;
        let handles = mix.launch(&mut sim, SimTime::ZERO, stop, |_, t, p| {
            black_box((t, p.size_bytes));
        });
        sim.run();
        sent = handles.iter().map(|h| h.stats.borrow().sent).sum();
    });
    secs * 1e9 / sent.max(1) as f64
}

/// Flow keys as the fleet front end hashes them.
fn keys(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Host ns per [`HashRing::route`] on `ring`, and per
/// [`HashRing::route_excluding_any`] with `excluded` (sorted) out.
pub fn ring_route_ns(ring: &HashRing, seed: u64, excluded: &[u32]) -> (f64, f64) {
    const LOOKUPS: usize = 1_000_000;
    let keys = keys(seed, LOOKUPS);
    let route = timed_rounds(|_| {
        let mut acc = 0u64;
        for &k in &keys {
            acc += u64::from(ring.route(black_box(k)));
        }
        black_box(acc);
    });
    let excl = timed_rounds(|_| {
        let mut acc = 0u64;
        for &k in &keys {
            acc += u64::from(
                ring.route_excluding_any(black_box(k), excluded)
                    .unwrap_or(0),
            );
        }
        black_box(acc);
    });
    (route * 1e9 / LOOKUPS as f64, excl * 1e9 / LOOKUPS as f64)
}

/// Host µs to build the 64-shard ring.
pub fn ring_build_us() -> f64 {
    const BUILDS: usize = 50;
    let secs = timed_rounds(|_| {
        for _ in 0..BUILDS {
            black_box(HashRing::new(0..black_box(64), DEFAULT_VNODES));
        }
    });
    secs * 1e6 / BUILDS as f64
}

/// Host ns per [`HealthChecker::observe`] over 64 shards, probing at the
/// standard cadence with one failure in sixteen.
pub fn health_observe_ns(seed: u64) -> f64 {
    const PROBES: u64 = 2_000_000;
    let settings = HealthSettings::standard();
    let step = settings.probe_interval.as_nanos() / 64;
    let secs = timed_rounds(|round| {
        let mut checker = HealthChecker::new(settings, 64);
        let mut rng = Rng::new(seed ^ round as u64);
        let mut ejections = 0u64;
        for i in 0..PROBES {
            let ok = !rng.next_u64().is_multiple_of(16);
            let now = SimTime::ZERO + SimDuration::from_nanos(i * step);
            let ev = checker.observe((i % 64) as u32, now, ok);
            ejections += u64::from(ev != snicbench_core::resilience::HealthEvent::None);
        }
        black_box(ejections);
    });
    secs * 1e9 / PROBES as f64
}

/// Host ns per AIMD `try_acquire` + `classify` + `release` cycle.
pub fn admission_cycle_ns(seed: u64) -> f64 {
    const CYCLES: u64 = 2_000_000;
    let secs = timed_rounds(|round| {
        let mut limiter = AimdLimiter::new(AimdSettings::standard(400.0));
        let mut rng = Rng::new(seed ^ round as u64);
        for _ in 0..CYCLES {
            if limiter.try_acquire() {
                let r = rng.next_u64();
                let rtt = SimDuration::from_nanos(r % 300_000);
                let outcome = limiter.classify(rtt, r.is_multiple_of(97));
                limiter.release(outcome);
            }
        }
        black_box(limiter.limit());
    });
    secs * 1e9 / CYCLES as f64
}

/// Host ns per [`LatencyHistogram::record`], and µs to merge 64 shard
/// histograms and take the p99.
pub fn histogram_ns_us(seed: u64) -> (f64, f64) {
    const RECORDS: u64 = 2_000_000;
    let mut rng = Rng::new(seed);
    let values: Vec<u64> = (0..4096)
        .map(|_| 2_000 + rng.next_u64() % 400_000)
        .collect();
    let record = timed_rounds(|_| {
        let mut h = LatencyHistogram::new();
        for i in 0..RECORDS {
            h.record(values[(i % 4096) as usize]);
        }
        black_box(h.count());
    });
    let shards: Vec<LatencyHistogram> = (0..64)
        .map(|s| {
            let mut h = LatencyHistogram::new();
            for v in values.iter().skip(s) {
                h.record(*v + s as u64 * 997);
            }
            h
        })
        .collect();
    const MERGES: usize = 20;
    let merge = timed_rounds(|_| {
        for _ in 0..MERGES {
            let mut all = LatencyHistogram::new();
            for h in &shards {
                all.merge(h);
            }
            black_box(all.p99());
        }
    });
    (record * 1e9 / RECORDS as f64, merge * 1e6 / MERGES as f64)
}
