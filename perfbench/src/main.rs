//! snicbench's benchmark: host wall time, simulated-request throughput
//! and per-layer attribution of the simulator over three workloads.
//!
//! ```text
//! cargo run --offline --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig4-search|fleet-chaos|diurnal-tenants --seed N --seconds S --trace 0|1
//! ```
//!
//! The run is a closed batch: one process runs one pass over a workload's
//! cells at a time, repeating passes for `--seconds` and reporting
//! medians. The modelled traffic is open-loop but runs in simulated time,
//! so no host-side arrival schedule can fall behind. A frozen reference
//! kernel runs between passes; `wall_rel` divides each pass by it, which
//! cancels drift in the host's speed.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced passes, covers the other two workloads once each,
//! times every single-layer kernel and prints the per-layer metrics. The
//! last line of standard output is the JSON result; the lines before it
//! give the host fingerprint and every metric by name with its unit.

mod layers;
mod reference;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use snicbench_core::experiment::{ComparisonRow, OperatingPoint};
use snicbench_core::json::Json;
use snicbench_core::loadbalancer::fleet::FleetReport;
use snicbench_core::runner::{run_in, OfferedLoad, RunConfig};
use snicbench_core::telemetry::RunScope;
use snicbench_sim::SimDuration;

use stats::{median, tail};
use trace::{Span, Tracer};
use workloads::{Books, Inputs, Kind, Pass, Shape, DIURNAL_CELLS, VARIANTS};

/// The benchmark's definition: the metrics each mode prints, in order.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// End-to-end figures printed with every run but not gated. Host-absolute
/// times move with the host's speed (30% between two sets of runs a
/// quarter-hour apart on the baseline host), which `wall_rel` cancels.
/// `fleet-chaos`'s memory high-water mark is bimodal in the seed (about
/// 40 MB or about 50 MB, repeating per seed), so its spread across seeds
/// reaches any bound a memory gate could have.
const UNGATED: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_host_s", "s"),
    ("sim_req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Shortest span of one set-up sample, seconds.
const SETUP_SAMPLE_S: f64 = 20e-3;

/// Host seconds of one reference-kernel run on the baseline host (see
/// BASELINE.md). `setup_s` is set-up time as a share of the reference
/// run next to it, times this: seconds on a host as fast as that one.
/// Never change it; recorded `setup_s` values would lose their meaning.
const REFERENCE_BASELINE_S: f64 = 0.135;
/// Passes timed per run at the least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Arrivals of one reference-kernel run between passes.
const REFERENCE_ARRIVALS: u64 = 400_000;
/// The committed digests: `workload seed digest` per line.
const DIGESTS: &str = include_str!("../digests.txt");

#[derive(Debug)]
struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The committed digest of `kind` at `seed`, if one is committed.
fn committed_digest(table: &str, kind: Kind, seed: u64) -> Option<u64> {
    table.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == kind.name() && s.parse() == Ok(seed))
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Counts attempted and failed cells across a run's passes. A cell fails
/// if it panicked or broke a check, if its pass broke a pass-wide check,
/// or if its digest differs from the same cell's first digest in the run;
/// at the end, the run digest over every cell's first digest must equal
/// the committed one, where one is committed.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    first: BTreeMap<u32, u64>,
    reasons: Vec<String>,
}

impl Ledger {
    fn fail(&mut self, n: u64, reason: String) {
        self.failed += n;
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }

    fn add(&mut self, pass: Pass) -> Pass {
        for (id, cell) in &pass.cells {
            self.attempted += 1;
            let reason = match cell {
                Err(e) => Some(e.clone()),
                Ok(_) if !pass.errors.is_empty() => Some(pass.errors.join("; ")),
                Ok(d) => match *self.first.entry(*id).or_insert(*d) {
                    d0 if d0 != *d => Some(format!(
                        "cell {id} digest {d:016x} differs from its first {d0:016x}"
                    )),
                    _ => None,
                },
            };
            if let Some(r) = reason {
                self.fail(1, r);
            }
        }
        pass
    }

    /// Checks the run digest against `committed` and returns it.
    fn finish(&mut self, committed: Option<u64>) -> u64 {
        let digest = workloads::run_digest(&self.first);
        eprintln!("# run digest: {digest:016x}");
        if let Some(want) = committed.filter(|&w| w != digest) {
            self.fail(
                self.first.len() as u64,
                format!("run digest {digest:016x} differs from the committed {want:016x}"),
            );
        }
        digest
    }

    fn merge(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons);
    }
}

/// Host seconds of one reference-kernel run.
fn reference_secs(seed: u64) -> f64 {
    let t = Instant::now();
    std::hint::black_box(reference::run(seed, REFERENCE_ARRIVALS));
    t.elapsed().as_secs_f64()
}

/// One workload's timed passes, each bracketed by reference runs.
#[derive(Debug, Default)]
struct Timings {
    walls: Vec<f64>,
    rel: Vec<f64>,
    req_rates: Vec<f64>,
    refs: Vec<f64>,
}

impl Timings {
    /// Host seconds of the latest reference run; the first one runs now.
    fn last_reference(&mut self, seed: u64) -> f64 {
        if self.refs.is_empty() {
            self.refs.push(reference_secs(seed));
        }
        self.refs[self.refs.len() - 1]
    }

    /// Runs and times one pass; the reference kernel runs after it, and
    /// the pass is divided by the mean of the reference runs around it.
    fn timed(&mut self, seed: u64, run: impl FnOnce() -> Pass) -> Pass {
        self.last_reference(seed);
        let t = Instant::now();
        let pass = run();
        let wall = t.elapsed().as_secs_f64();
        let r = reference_secs(seed ^ self.refs.len() as u64);
        let around = (self.refs[self.refs.len() - 1] + r) / 2.0;
        self.refs.push(r);
        self.walls.push(wall);
        self.rel.push(wall / around);
        self.req_rates.push(pass.requests as f64 / wall);
        pass
    }
}

/// High-water mark of resident memory, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Executor width of `fig4-search`: at most `min(2, nproc)` threads.
fn fig4_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The timed pass shape; only `fig4-search` fans out, and only it has a
/// front door to choose.
fn timed(front_door: bool) -> Shape {
    Shape::Timed {
        jobs: fig4_jobs(),
        front_door,
    }
}

fn host_fingerprint(args: &Args) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let jobs = Json::obj(Kind::ALL.map(|k| {
        let jobs = if k == Kind::Fig4 { fig4_jobs() } else { 1 };
        (k.name(), Json::U64(jobs as u64))
    }));
    Json::obj([(
        "host",
        Json::obj([
            ("nproc", Json::U64(nproc as u64)),
            ("rustc", Json::str(rustc)),
            ("cpu", Json::str(cpu)),
            ("workload", Json::str(args.workload.name())),
            ("seed", Json::U64(args.seed)),
            ("jobs", jobs),
            ("trace", Json::Bool(args.trace)),
        ]),
    )])
}

/// Set-ups per sample, so that one sample spans at least
/// [`SETUP_SAMPLE_S`] and a set-up far shorter than the clock's noise is
/// still timed to all its digits. Sized on warm set-ups: the first pays
/// first-touch costs that would make the samples far shorter than meant.
fn setup_reps(kind: Kind, seed: u64) -> u32 {
    std::hint::black_box(workloads::setup(kind, seed));
    let t = Instant::now();
    for _ in 0..10 {
        std::hint::black_box(workloads::setup(kind, std::hint::black_box(seed)));
    }
    let warm = t.elapsed().as_secs_f64() / 10.0;
    (SETUP_SAMPLE_S / warm.max(1e-9))
        .ceil()
        .clamp(1.0, 1_000_000.0) as u32
}

/// Host seconds per set-up, over one sample of `reps` set-ups.
fn setup_sample(kind: Kind, seed: u64, reps: u32) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(workloads::setup(kind, std::hint::black_box(seed)));
    }
    t.elapsed().as_secs_f64() / f64::from(reps)
}

/// Where the run writes its exports and spans.
struct Bench {
    args: Args,
    out: PathBuf,
}

impl Bench {
    fn pass(&self, inputs: &Inputs, shape: Shape, tracer: &Tracer, parent: u64) -> Option<Pass> {
        workloads::run_pass(inputs, shape, tracer, parent, &self.out)
    }

    /// The end-to-end metrics: untraced timed passes for `--seconds`,
    /// then the extra cells, after the memory high-water mark is read.
    /// Before each pass, next to the reference run before it, one sample
    /// of set-ups is timed; the set-up whose inputs the passes use is the
    /// first one.
    fn end_to_end(&self, ledger: &mut Ledger) -> BTreeMap<String, f64> {
        let (kind, seed) = (self.args.workload, self.args.seed);
        let inputs = workloads::setup(kind, seed);
        let reps = setup_reps(kind, seed);
        let off = Tracer::new(false);
        let mut timings = Timings::default();
        let (mut setup_host, mut setup_rel) = (Vec::new(), Vec::new());
        let started = Instant::now();
        let budget = Duration::from_secs_f64(self.args.seconds);
        while timings.walls.len() < MIN_PASSES || started.elapsed() < budget {
            let reference = timings.last_reference(seed);
            let secs = setup_sample(kind, seed, reps);
            setup_host.push(secs);
            setup_rel.push(secs / reference);
            let pass = timings.timed(seed, || {
                self.pass(&inputs, timed(true), &off, 0)
                    .expect("every workload has a timed pass")
            });
            ledger.add(pass);
        }
        let peak_rss_mb = peak_rss_mb();
        let t = Instant::now();
        if let Some(extra) = self.pass(&inputs, Shape::Extra, &off, 0) {
            ledger.add(extra);
            eprintln!("# extra cells: {:.6} s", t.elapsed().as_secs_f64());
        }
        ledger.finish(committed_digest(DIGESTS, kind, seed));
        eprintln!(
            "# {}: {} passes, wall_s {:?}, reference runs {:?} s, set-up samples {:?} s",
            kind.name(),
            timings.walls.len(),
            timings.walls,
            timings.refs,
            setup_host
        );
        BTreeMap::from([
            ("wall_s".to_string(), median(&mut timings.walls)),
            ("wall_rel".to_string(), median(&mut timings.rel)),
            ("sim_req_per_s".to_string(), median(&mut timings.req_rates)),
            (
                "setup_s".to_string(),
                median(&mut setup_rel) * REFERENCE_BASELINE_S,
            ),
            ("setup_host_s".to_string(), median(&mut setup_host)),
            ("peak_rss_mb".to_string(), peak_rss_mb),
        ])
    }

    /// The per-layer metrics: single-layer kernels, then untraced and
    /// traced timed passes alternating for `--seconds`, then one traced
    /// pass of each other workload so every layer is measured on the
    /// workload that exercises it.
    fn per_layer(&self, ledger: &mut Ledger) -> BTreeMap<String, f64> {
        let (kind, seed) = (self.args.workload, self.args.seed);
        let index = |k: Kind| Kind::ALL.iter().position(|&x| x == k).expect("listed");
        let tracers: Vec<Tracer> = Kind::ALL.iter().map(|_| Tracer::new(true)).collect();
        let inputs: Vec<Inputs> = Kind::ALL
            .iter()
            .map(|&k| tracers[index(k)].span("setup", 0, None, |_| workloads::setup(k, seed)))
            .collect();
        let mut m = BTreeMap::new();
        micro_layers(
            &mut m,
            seed,
            &inputs[index(Kind::Fleet)],
            &inputs[index(Kind::Diurnal)],
        );
        // Both sides of the overhead take the same path; on `fig4-search`
        // that is the call-by-call one the traced pass needs.
        let timed = timed(false);

        let mut last: BTreeMap<&'static str, Vec<Pass>> = BTreeMap::new();
        let mut keep = |k: Kind, pass: Pass| last.entry(k.name()).or_default().push(pass);
        for k in Kind::ALL {
            let (t, inp) = (&tracers[index(k)], &inputs[index(k)]);
            let mut own = Ledger::default();
            // `fig4-search`'s one-thread pass runs untraced: its spans
            // would not describe the timed shape.
            let off = Tracer::new(false);
            let tracer = if k == Kind::Fig4 { &off } else { t };
            if k == kind || k != Kind::Fig4 {
                if let Some(extra) = tracer.span("extra", 0, None, |id| {
                    self.pass(inp, Shape::Extra, tracer, id)
                }) {
                    keep(k, own.add(extra));
                }
            }
            if k == kind {
                // Untraced and traced passes alternate, so drift in host
                // speed hits both sides of the overhead alike.
                let off = Tracer::new(false);
                let (mut untraced, mut traced) = (Timings::default(), Timings::default());
                let started = Instant::now();
                let budget = Duration::from_secs_f64(self.args.seconds);
                while traced.walls.len() < MIN_PASSES || started.elapsed() < budget {
                    let pass = untraced.timed(seed, || {
                        self.pass(inp, timed, &off, 0)
                            .expect("every workload has a timed pass")
                    });
                    own.add(pass);
                    let pass = traced.timed(seed, || {
                        t.span("pass", 0, None, |id| self.pass(inp, timed, t, id))
                            .expect("every workload has a timed pass")
                    });
                    keep(k, own.add(pass));
                }
                m.insert(
                    "trace.overhead_frac".into(),
                    median(&mut traced.walls) / median(&mut untraced.walls) - 1.0,
                );
                let mut refs: Vec<f64> =
                    untraced.refs.iter().chain(&traced.refs).copied().collect();
                let events = reference::run(seed, REFERENCE_ARRIVALS).events as f64;
                m.insert("reference.ev_per_s".into(), events / median(&mut refs));
            } else {
                let pass = t
                    .span("pass", 0, None, |id| self.pass(inp, timed, t, id))
                    .expect("every workload has a timed pass");
                keep(k, own.add(pass));
            }
            own.finish(committed_digest(DIGESTS, k, seed));
            ledger.merge(own);
        }
        m.insert(
            "engine.rel".into(),
            m["engine.ev_per_s.small"] / m["reference.ev_per_s"],
        );
        let probe_sent = match last[Kind::Fig4.name()].last().map(|p| &p.books) {
            Some(Books::Fig4(rows)) => runner_probe(
                &tracers[index(Kind::Fig4)],
                rows,
                &inputs[index(Kind::Fig4)],
            ),
            _ => 0,
        };

        let spans: Vec<Vec<Span>> = tracers.iter().map(Tracer::spans).collect();
        let spans_of = |k: Kind| &spans[index(k)];
        layer_metrics(
            &mut m,
            kind,
            &spans_of,
            &last,
            &inputs[index(Kind::Fleet)],
            probe_sent,
        );
        let doc = Json::obj(
            Kind::ALL
                .iter()
                .map(|&k| (k.name(), trace::to_json(spans_of(k)))),
        );
        let path = self.out.join(format!("spans-{}.json", kind.name()));
        if let Err(e) = std::fs::write(&path, doc.to_compact()) {
            ledger.fail(1, format!("writing {}: {e}", path.display()));
        }
        m
    }
}

/// The single-layer kernels.
fn micro_layers(m: &mut BTreeMap<String, f64>, seed: u64, fleet: &Inputs, diurnal: &Inputs) {
    let (Inputs::Fleet(fleet), Inputs::Diurnal(diurnal)) = (fleet, diurnal) else {
        unreachable!("fleet and diurnal inputs")
    };
    // The ring and crash set of the `chaos-base` variant, and the tenant
    // mix of the first diurnal cell.
    let (ring, crashed) = workloads::fleet_ring(&fleet.configs[1]);
    let mix = workloads::tenant_mix(&diurnal.configs[0]);
    m.insert(
        "engine.ev_per_s.small".into(),
        layers::engine_ev_per_s(layers::SMALL, seed),
    );
    m.insert(
        "engine.ev_per_s.wide".into(),
        layers::engine_ev_per_s(layers::WIDE, seed),
    );
    m.insert(
        "dist.sample_ns.exponential".into(),
        layers::sample_ns(&layers::exponential(), seed),
    );
    m.insert(
        "dist.sample_ns.lognormal".into(),
        layers::sample_ns(&layers::lognormal(), seed),
    );
    m.insert("traffic.poisson_ns".into(), layers::poisson_ns(seed));
    m.insert("traffic.tenant_ns".into(), layers::tenant_ns(&mix));
    let (route, excl) = layers::ring_route_ns(&ring, seed, &crashed);
    m.insert("ring.route_ns".into(), route);
    m.insert("ring.route_excl_ns".into(), excl);
    m.insert("ring.build_us".into(), layers::ring_build_us());
    m.insert("health.observe_ns".into(), layers::health_observe_ns(seed));
    m.insert(
        "admission.cycle_ns".into(),
        layers::admission_cycle_ns(seed),
    );
    let (record, merge) = layers::histogram_ns_us(seed);
    m.insert("histogram.record_ns".into(), record);
    m.insert("histogram.merge_us".into(), merge);
}

/// One `runner::run_in` per operating point, one span each, in the shape
/// of `experiment::find_operating_point_in`'s measurement run; returns
/// the requests the probe runs sent. These are re-runs, not the program's
/// own runs: the searched rate is not public, so each runs at the rate its
/// point booked (`metrics.offered_ops`, sent per measured second) with the
/// first measurement's seed, whatever back-off the search took.
fn runner_probe(tracer: &Tracer, rows: &[ComparisonRow], fig4: &Inputs) -> u64 {
    let Inputs::Fig4(fig4) = fig4 else {
        unreachable!("fig4 inputs")
    };
    let points: Vec<&OperatingPoint> = rows.iter().flat_map(|r| [&r.host, &r.snic]).collect();
    let mut sent = 0;
    for (i, p) in (0u32..).zip(points) {
        let rate = p.metrics.offered_ops;
        let secs = (fig4.budget.measure_ops / rate.max(1.0)).clamp(0.005, 5.0);
        let mut cfg = RunConfig::new(p.workload, p.platform, OfferedLoad::OpsPerSec(rate));
        cfg.duration = SimDuration::from_secs_f64(secs * 1.1);
        cfg.warmup = SimDuration::from_secs_f64(secs * 0.1);
        cfg.seed = fig4.budget.seed.wrapping_add(0xF1A1);
        sent += tracer.span("runner.run", 0, Some(i), |_| {
            run_in(&cfg, &RunScope::disabled()).sent
        });
    }
    sent
}

/// Durations, seconds, of the spans named `name` (and in `cell`, if
/// given).
fn durations(spans: &[Span], name: &str, cell: Option<u32>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && (cell.is_none() || s.cell == cell))
        .map(Span::secs)
        .collect()
}

/// The spans inside timed `pass` spans, plus the root `runner.run` probe.
fn timed_spans(spans: &[Span]) -> Vec<Span> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let root = |s: &Span| {
        let (mut name, mut parent) = (s.name, s.parent);
        while let Some(p) = by_id.get(&parent) {
            (name, parent) = (p.name, p.parent);
        }
        name
    };
    spans
        .iter()
        .filter(|s| matches!(root(s), "pass" | "runner.run"))
        .cloned()
        .collect()
}

/// The per-layer metrics read from the spans and the passes of each
/// workload.
fn layer_metrics<'a>(
    m: &mut BTreeMap<String, f64>,
    kind: Kind,
    spans_of: &dyn Fn(Kind) -> &'a Vec<Span>,
    passes: &BTreeMap<&'static str, Vec<Pass>>,
    fleet_inputs: &Inputs,
    probe_sent: u64,
) {
    let ms = |v: &mut Vec<f64>| median(v) * 1e3;
    let pass_secs = |k: Kind| median(&mut durations(spans_of(k), "pass", None));
    let last = |k: Kind| passes[k.name()].last().map(|p| &p.books);

    // Self time and calls per timed pass, each layer read on the workload
    // that exercises it; the shared layers on the measured workload. The
    // runner probe runs once per run, outside the passes.
    for (name, owner) in [
        ("pass", kind),
        ("executor.map", kind),
        ("check", kind),
        ("experiment.search", Kind::Fig4),
        ("power.measure", Kind::Fig4),
        ("runner.run", Kind::Fig4),
        ("fleet.cell", Kind::Fleet),
        ("diurnal.cell", Kind::Diurnal),
        ("telemetry.drain", Kind::Diurnal),
        ("telemetry.export", Kind::Diurnal),
    ] {
        let spans = timed_spans(spans_of(owner));
        let passes = match name {
            "runner.run" => 1.0,
            _ => durations(&spans, "pass", None).len().max(1) as f64,
        };
        let (secs, calls) = trace::self_times(&spans)
            .get(name)
            .copied()
            .unwrap_or((0.0, 0));
        m.insert(format!("self_ms.{name}"), secs * 1e3 / passes);
        m.insert(format!("calls.{name}"), calls as f64 / passes);
    }

    // Executor: busy share of the workers and the straggler wait, over the
    // timed passes of the measured workload.
    let spans = timed_spans(spans_of(kind));
    let jobs = if kind == Kind::Fig4 { fig4_jobs() } else { 1 } as f64;
    let (mut busy, mut idle) = (Vec::new(), Vec::new());
    for map in spans.iter().filter(|s| s.name == "executor.map") {
        let kids: Vec<&Span> = spans.iter().filter(|s| s.parent == map.id).collect();
        let work: f64 = kids.iter().map(|s| s.secs()).sum();
        busy.push(work / (jobs * map.secs()));
        let mut last_end: BTreeMap<u32, u64> = BTreeMap::new();
        for k in &kids {
            let e = last_end.entry(k.thread).or_insert(0);
            *e = (*e).max(k.end);
        }
        let first_done = last_end.values().copied().min().unwrap_or(map.end);
        idle.push((map.end - first_done.min(map.end)) as f64 * 1e-9);
    }
    m.insert("executor.busy_frac".into(), median(&mut busy));
    m.insert("executor.tail_idle_ms".into(), ms(&mut idle));

    // fig4-search: searches, power and the runner probe.
    let f = spans_of(Kind::Fig4);
    m.insert(
        "experiment.search_ms.p50".into(),
        ms(&mut durations(f, "experiment.search", None)),
    );
    m.insert(
        "experiment.search_ms.tail".into(),
        tail(&mut durations(f, "experiment.search", None)) * 1e3,
    );
    m.insert(
        "power.measure_ms".into(),
        ms(&mut durations(f, "power.measure", None)),
    );
    let mut runs = durations(f, "runner.run", None);
    let run_total: f64 = runs.iter().sum();
    m.insert("runner.run_ms.p50".into(), ms(&mut runs));
    m.insert("runner.run_ms.tail".into(), tail(&mut runs) * 1e3);
    m.insert(
        "runner.req_per_s".into(),
        probe_sent as f64 / run_total.max(1e-12),
    );
    if let Some(Books::Fig4(rows)) = last(Kind::Fig4) {
        let sent: u64 = rows
            .iter()
            .map(|r| r.host.metrics.sent + r.snic.metrics.sent)
            .sum();
        // Two draws per request (gap and service); probe runs are not in
        // the books, so this share is a floor.
        let draw_ns = (m["dist.sample_ns.exponential"] + m["dist.sample_ns.lognormal"]) / 2.0;
        m.insert(
            "share.dist.sample".into(),
            2.0 * sent as f64 * draw_ns * 1e-9 / pass_secs(Kind::Fig4),
        );
    }

    // fleet-chaos: per-variant cost and modelled counts. The timed pass
    // runs the first three variants; `chaos-hedge` runs once per run.
    let fl = spans_of(Kind::Fleet);
    let Inputs::Fleet(fleet_inputs) = fleet_inputs else {
        unreachable!("fleet inputs")
    };
    let mut reports: BTreeMap<usize, &FleetReport> = BTreeMap::new();
    for pass in &passes[Kind::Fleet.name()] {
        if let Books::Fleet(rs) = &pass.books {
            reports.extend(rs.iter().map(|(v, r)| (*v, r)));
        }
    }
    let timed_variants = workloads::fleet_variants(timed(false));
    let (mut arrivals, mut excl_calls, mut completed) = (0.0, 0.0, 0.0);
    let (mut sent, mut spills) = (0u64, 0u64);
    let mut probes = 0.0;
    for (v, variant) in VARIANTS.iter().enumerate() {
        let cell_s = median(&mut durations(fl, "fleet.cell", Some(v as u32)));
        m.insert(format!("fleet.cell_ms.{variant}"), cell_s * 1e3);
        let Some(r) = reports.get(&v) else { continue };
        let c = &r.cluster;
        m.insert(format!("fleet.req_per_s.{variant}"), c.sent as f64 / cell_s);
        for (name, value) in [
            ("sent", c.sent as f64),
            ("dropped", c.dropped as f64),
            ("spills", c.spills as f64),
            ("remapped_in_flight", c.remapped_in_flight as f64),
            ("hedged", c.hedged as f64),
            ("hedge_wins", c.hedge_wins as f64),
            ("p99_us", c.p99_us),
            ("shards_meeting_slo", f64::from(c.shards_meeting_slo)),
        ] {
            m.insert(format!("fleet.sim.{variant}.{name}"), value);
        }
        if v == 3 {
            m.insert(
                "fleet.hedge_win_frac".into(),
                c.hedge_wins as f64 / c.hedged.max(1) as f64,
            );
        }
        if !timed_variants.contains(&v) {
            continue;
        }
        // Calls the timed pass's books imply: one route and one Poisson
        // draw per arrival (the books count measured arrivals only), one
        // exclusion route per spill or re-home, one histogram record per
        // completion, one health observation per shard per probe.
        let cfg = &fleet_inputs.configs[v];
        let per_sent = cfg.duration.as_secs_f64() / (cfg.duration - cfg.warmup).as_secs_f64();
        arrivals += c.sent as f64 * per_sent;
        excl_calls += (c.spills + c.remapped) as f64 * per_sent;
        completed += c.completed as f64;
        sent += c.sent;
        spills += c.spills;
        if let Some(ch) = cfg.chaos.as_ref().filter(|ch| ch.rebalance) {
            let rounds = cfg.duration.as_nanos() / ch.health.probe_interval.as_nanos().max(1);
            probes += f64::from(cfg.rack.servers) * rounds as f64;
        }
    }
    m.insert(
        "fleet.spill_frac".into(),
        spills as f64 / sent.max(1) as f64,
    );
    let wall = pass_secs(Kind::Fleet);
    for (name, calls, per_ns) in [
        ("ring.route", arrivals, m["ring.route_ns"]),
        ("ring.route_excl", excl_calls, m["ring.route_excl_ns"]),
        ("traffic.poisson", arrivals, m["traffic.poisson_ns"]),
        ("health.observe", probes, m["health.observe_ns"]),
        ("histogram.record", completed, m["histogram.record_ns"]),
    ] {
        m.insert(format!("share.{name}"), calls * per_ns * 1e-9 / wall);
    }

    // diurnal-tenants: per-cell cost, modelled books and export.
    let d = spans_of(Kind::Diurnal);
    if let Some(Books::Diurnal {
        reports,
        export_bytes,
    }) = last(Kind::Diurnal)
    {
        let mut cells_s = 0.0;
        let (mut offered, mut admitted, mut rejected, mut dropped) = (0u64, 0u64, 0u64, 0u64);
        let (mut violating, mut adaptive_offered) = (0.0, 0u64);
        for (i, (cell, r)) in (0u32..).zip(DIURNAL_CELLS.iter().zip(reports)) {
            let cell_s = median(&mut durations(d, "diurnal.cell", Some(i)));
            cells_s += cell_s;
            m.insert(format!("diurnal.cell_ms.{cell}"), cell_s * 1e3);
            let Some(r) = r else { continue };
            let o: u64 = r.hours.iter().map(|h| h.offered).sum();
            offered += o;
            admitted += r.hours.iter().map(|h| h.admitted).sum::<u64>();
            rejected += r.hours.iter().map(|h| h.rejected).sum::<u64>();
            dropped += r.hours.iter().map(|h| h.dropped).sum::<u64>();
            violating += r.hours.iter().filter(|h| !h.slo_met).count() as f64;
            if r.limiter.is_some() {
                adaptive_offered += o;
            }
        }
        m.insert("diurnal.req_per_s".into(), offered as f64 / cells_s);
        m.insert("diurnal.sim.violating_hours".into(), violating);
        m.insert(
            "diurnal.sim.rejected_share".into(),
            rejected as f64 / offered.max(1) as f64,
        );
        m.insert(
            "diurnal.sim.loss_rate".into(),
            dropped as f64 / admitted.max(1) as f64,
        );
        m.insert(
            "diurnal.sim.admit_frac".into(),
            admitted as f64 / offered.max(1) as f64,
        );
        m.insert(
            "telemetry.drain_ms".into(),
            ms(&mut durations(d, "telemetry.drain", None)),
        );
        m.insert(
            "telemetry.export_ms".into(),
            ms(&mut durations(d, "telemetry.export", None)),
        );
        m.insert("telemetry.export_bytes".into(), *export_bytes as f64);
        let wall = pass_secs(Kind::Diurnal);
        m.insert(
            "share.traffic.tenant".into(),
            offered as f64 * m["traffic.tenant_ns"] * 1e-9 / wall,
        );
        m.insert(
            "share.admission.cycle".into(),
            adaptive_offered as f64 * m["admission.cycle_ns"] * 1e-9 / wall,
        );
    }
}

/// The metrics `BENCHMARK.json` lists under `section`: name and unit.
///
/// # Panics
///
/// Panics if `BENCHMARK.json` does not parse or lacks the section.
fn listed(section: &str) -> Vec<(String, String)> {
    let doc = Json::parse(BENCHMARK).expect("BENCHMARK.json parses");
    let field = |e: &Json, key: &str| {
        e.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{section} entry without {key}"))
            .to_string()
    };
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload fig4-search|fleet-chaos|diurnal-tenants --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: creating {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("{}", host_fingerprint(&args).to_compact());
    let trace = args.trace;
    let bench = Bench { args, out };
    let mut ledger = Ledger::default();
    let table = listed(if trace { "per_layer" } else { "end_to_end" });
    let values = if trace {
        bench.per_layer(&mut ledger)
    } else {
        bench.end_to_end(&mut ledger)
    };
    let mut metrics = Vec::new();
    for (name, unit) in &table {
        // A layer whose pass failed leaves its metrics unmeasured; the
        // failure is already counted.
        let value = values.get(name).copied().unwrap_or(f64::NAN);
        println!("{name:<40} {value:>24} {unit}");
        metrics.push((
            name.clone(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        ));
    }
    for (name, unit) in UNGATED {
        if let Some(value) = values.get(name) {
            println!("{name:<40} {value:>24} {unit} (not gated)");
        }
    }
    for r in &ledger.reasons {
        eprintln!("perfbench: failed: {r}");
    }
    let result = Json::obj([
        ("correct", Json::Bool(ledger.failed == 0)),
        ("attempted", Json::U64(ledger.attempted)),
        ("failed", Json::U64(ledger.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.to_compact());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use snicbench_core::admission::AdmissionMode;
    use snicbench_core::benchmark::Workload;
    use snicbench_core::diurnal::{self, DiurnalConfig, DiurnalPlatform};
    use snicbench_core::loadbalancer::fleet::{self, ChaosConfig, FleetConfig};
    use snicbench_functions::rem::RemRuleset;
    use snicbench_hw::server::RackSpec;
    use snicbench_sim::fault::ChaosSpec;

    fn pass(cells: Vec<Result<u64, String>>) -> Pass {
        Pass {
            cells: (0u32..).zip(cells).collect(),
            errors: Vec::new(),
            requests: 1,
            books: Books::Fleet(Vec::new()),
        }
    }

    #[test]
    fn a_digest_off_the_committed_one_fails_every_cell() {
        let mut ledger = Ledger::default();
        ledger.add(pass(vec![Ok(1), Ok(2)]));
        let committed = ledger.finish(None);
        assert_eq!((ledger.attempted, ledger.failed), (2, 0));
        ledger.finish(Some(committed));
        assert_eq!(ledger.failed, 0);
        ledger.finish(Some(committed ^ 1));
        assert_eq!((ledger.attempted, ledger.failed), (2, 2));
    }

    #[test]
    fn a_cell_that_drifts_from_pass_one_fails() {
        let mut ledger = Ledger::default();
        ledger.add(pass(vec![Ok(1), Ok(2)]));
        ledger.add(pass(vec![Ok(1), Ok(3)]));
        ledger.add(pass(vec![Err("panicked".into()), Ok(2)]));
        let mut broken = pass(vec![Ok(1), Ok(2)]);
        broken.errors.push("O3 does not hold".into());
        ledger.add(broken);
        assert_eq!((ledger.attempted, ledger.failed), (8, 4));
    }

    #[test]
    fn committed_digests_are_looked_up_by_workload_and_seed() {
        let table = "# comment\nfleet-chaos 7 00ff\nfig4-search 7 0a\n";
        assert_eq!(committed_digest(table, Kind::Fleet, 7), Some(0xff));
        assert_eq!(committed_digest(table, Kind::Fig4, 7), Some(0x0a));
        assert_eq!(committed_digest(table, Kind::Fleet, 8), None);
        assert_eq!(committed_digest(table, Kind::Diurnal, 7), None);
    }

    #[test]
    fn a_tampered_fleet_report_breaks_conservation() {
        let mut cfg = FleetConfig::new(
            Workload::RemMtu(RemRuleset::FileExecutable),
            RackSpec::new(8, 2),
            65.0,
        );
        cfg.duration = SimDuration::from_micros(600);
        cfg.warmup = SimDuration::from_micros(200);
        cfg.chaos = Some(ChaosConfig::new(ChaosSpec::parse("crash1").expect("valid")));
        let report = fleet::simulate(&cfg);
        assert_eq!(workloads::fleet_check(&report, 8), None);
        let mut shard = report.clone();
        shard.shards[3].completed += 1;
        assert!(workloads::fleet_check(&shard, 8).is_some());
        let mut cluster = report.clone();
        cluster.cluster.hedged += 1;
        assert!(workloads::fleet_check(&cluster, 8).is_some());
        let mut missing = report.clone();
        missing.shards.pop();
        assert!(workloads::fleet_check(&missing, 8).is_some());
        assert_ne!(
            workloads::fleet_digest(&report),
            workloads::fleet_digest(&shard)
        );
    }

    #[test]
    fn a_tampered_diurnal_report_breaks_its_books() {
        let mut cfg = DiurnalConfig::new(
            Workload::RemMtu(RemRuleset::FileExecutable),
            DiurnalPlatform::Host,
            AdmissionMode::Adaptive,
        );
        cfg.day = SimDuration::from_micros(960);
        let report = diurnal::simulate(&cfg);
        assert_eq!(workloads::diurnal_check(&report), None);
        let mut hour = report.clone();
        hour.hours[5].rejected += 1;
        assert!(workloads::diurnal_check(&hour).is_some());
        let mut tenant = report.clone();
        tenant.tenants[0].dropped += 1;
        assert!(workloads::diurnal_check(&tenant).is_some());
        // A tampered latency leaves the books balanced; the digest, which
        // the committed table and the pass-to-pass check compare, moves.
        let mut shifted = report.clone();
        shifted.hours[1].p99_us += 1.0;
        assert_eq!(workloads::diurnal_check(&shifted), None);
        assert_ne!(
            workloads::diurnal_digest(&report),
            workloads::diurnal_digest(&shifted)
        );
    }

    #[test]
    fn a_truncated_fig4_matrix_fails() {
        assert!(!workloads::fig4_check(&[], 58).is_empty());
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload fleet-chaos --seed 3 --seconds 2 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Kind::Fleet, 3, 2.0, true)
        );
        for bad in [
            "--workload nope",
            "--seed 1",
            "--workload fig4-search --trace 2",
            "--workload fig4-search --seconds -1",
            "--workload fig4-search --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
