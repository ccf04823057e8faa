//! The three workloads: their inputs, one pass over their cells, the
//! checks every pass must satisfy, and the digest of what it simulated.
//!
//! The benchmark's `--seed` is XORed into each configuration's seed; the
//! simulator sees only the generated configurations.

use std::path::Path;

use snicbench_core::admission::AdmissionMode;
use snicbench_core::benchmark::Workload;
use snicbench_core::diurnal::{self, DiurnalConfig, DiurnalPlatform, DiurnalReport};
use snicbench_core::executor::Executor;
use snicbench_core::experiment::{
    find_operating_point_in, measure_power_in, snic_side, ComparisonRow, OperatingPoint,
    PowerReport, Scenario, SearchBudget,
};
use snicbench_core::json::Json;
use snicbench_core::loadbalancer::fleet::{self, ChaosConfig, FleetConfig, FleetReport};
use snicbench_core::loadbalancer::ring::HashRing;
use snicbench_core::observations;
use snicbench_core::telemetry::{
    chrome_trace_json, run_report_with_failures, RunContext, RunScope, ShardRollup,
};
use snicbench_functions::rem::RemRuleset;
use snicbench_hw::server::RackSpec;
use snicbench_hw::ExecutionPlatform;
use snicbench_net::traffic::TenantMix;
use snicbench_sim::fault::{self, ChaosSpec, FaultKind};
use snicbench_sim::SimDuration;

use crate::stats::Digest;
use crate::trace::Tracer;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Fig. 4 quick matrix: 58 operating-point searches plus power.
    Fig4,
    /// One 64 × 16 fleet cell under `crash4`, four mitigation variants.
    Fleet,
    /// The six quick diurnal cells with RunReport and Chrome-trace export.
    Diurnal,
}

impl Kind {
    /// Every workload, in the order the traced run covers them.
    pub const ALL: [Kind; 3] = [Kind::Fig4, Kind::Fleet, Kind::Diurnal];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig4 => "fig4-search",
            Kind::Fleet => "fleet-chaos",
            Kind::Diurnal => "diurnal-tenants",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// The fleet variants, in run order.
pub const VARIANTS: [&str; 4] = ["healthy", "chaos-base", "chaos-rebal", "chaos-hedge"];

/// The diurnal cells, in run order: `{platform}-{admission}`.
pub const DIURNAL_CELLS: [&str; 6] = [
    "host-static",
    "host-adaptive",
    "snic-static",
    "snic-adaptive",
    "fleet-static",
    "fleet-adaptive",
];

/// Inputs of `fig4-search`.
#[derive(Debug, Clone)]
pub struct Fig4Inputs {
    /// The quick search budget, its seed XORed with the benchmark seed.
    pub budget: SearchBudget,
    /// The 29 Table 3 configurations.
    pub workloads: Vec<Workload>,
    /// The 58 operating-point searches: each configuration on the host
    /// and on its SNIC side.
    pub units: Vec<(Workload, ExecutionPlatform)>,
}

/// Inputs of `fleet-chaos`.
#[derive(Debug, Clone)]
pub struct FleetInputs {
    /// One configuration per variant of [`VARIANTS`].
    pub configs: Vec<FleetConfig>,
}

/// Inputs of `diurnal-tenants`.
#[derive(Debug, Clone)]
pub struct DiurnalInputs {
    /// One configuration per cell of [`DIURNAL_CELLS`].
    pub configs: Vec<DiurnalConfig>,
}

/// A workload's inputs.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// See [`Fig4Inputs`].
    Fig4(Fig4Inputs),
    /// See [`FleetInputs`].
    Fleet(FleetInputs),
    /// See [`DiurnalInputs`].
    Diurnal(DiurnalInputs),
}

/// Builds a workload's inputs from the benchmark seed: the
/// configurations the program is handed, and nothing it rebuilds itself
/// (`fleet::simulate_in` derives its ring and fault plan, and
/// `diurnal::simulate_in` sizes its tenant mix, from the configuration).
///
/// # Panics
///
/// Panics if `crash4` stops parsing: that is a defect of the program.
pub fn setup(kind: Kind, seed: u64) -> Inputs {
    match kind {
        Kind::Fig4 => {
            let mut budget = SearchBudget::quick();
            budget.seed ^= seed;
            let workloads = Workload::figure4_set();
            let units = workloads
                .iter()
                .flat_map(|&w| [(w, ExecutionPlatform::HostCpu), (w, snic_side(w))])
                .collect();
            Inputs::Fig4(Fig4Inputs {
                budget,
                workloads,
                units,
            })
        }
        Kind::Fleet => {
            let (servers, snics, gbps) = (64u32, 16u32, 65.0);
            let mut base = FleetConfig::new(
                Workload::RemMtu(RemRuleset::FileExecutable),
                RackSpec::new(servers, snics),
                gbps,
            );
            base.duration = SimDuration::from_millis(3);
            base.warmup = SimDuration::from_millis(1);
            base.seed ^= (u64::from(snics) << 32) | gbps as u64;
            base.seed ^= seed;
            let spec = ChaosSpec::parse("crash4").expect("crash4 is valid chaos grammar");
            let configs = VARIANTS
                .iter()
                .map(|&v| {
                    let mut cfg = base.clone();
                    if v != "healthy" {
                        let mut chaos = ChaosConfig::new(spec);
                        chaos.rebalance = v != "chaos-base";
                        chaos.hedging = v == "chaos-hedge";
                        cfg.chaos = Some(chaos);
                    }
                    cfg
                })
                .collect();
            Inputs::Fleet(FleetInputs { configs })
        }
        Kind::Diurnal => {
            let mut configs = Vec::with_capacity(DIURNAL_CELLS.len());
            for (p, platform) in [
                DiurnalPlatform::Host,
                DiurnalPlatform::Snic,
                DiurnalPlatform::Fleet,
            ]
            .into_iter()
            .enumerate()
            {
                for (a, admission) in [AdmissionMode::Static, AdmissionMode::Adaptive]
                    .into_iter()
                    .enumerate()
                {
                    let mut cfg = DiurnalConfig::new(
                        Workload::RemMtu(RemRuleset::FileExecutable),
                        platform,
                        admission,
                    );
                    cfg.day = SimDuration::from_millis(16);
                    cfg.seed ^= ((p as u64 + 1) << 8) | (a as u64 + 1);
                    cfg.seed ^= seed;
                    configs.push(cfg);
                }
            }
            Inputs::Diurnal(DiurnalInputs { configs })
        }
    }
}

/// The front end's ring and the shards `crash4` crashes, sorted: the
/// ring's exclusion set mid-run. The single-layer ring kernels use them.
///
/// # Panics
///
/// Panics if `cfg` has no chaos or its plan does not crash four distinct
/// shards: that is a defect of the benchmark or of the program.
pub fn fleet_ring(cfg: &FleetConfig) -> (HashRing, Vec<u32>) {
    let servers = cfg.rack.servers;
    let spec = cfg.chaos.as_ref().expect("a chaos variant").spec;
    let plan = fault::chaos_plan(cfg.seed, spec, servers, cfg.duration);
    let mut crashed: Vec<u32> = plan
        .events
        .iter()
        .filter_map(|e| match e.kind {
            FaultKind::ServerCrash { shard } => Some(shard),
            _ => None,
        })
        .collect();
    crashed.sort_unstable();
    crashed.dedup();
    assert!(
        crashed.len() == 4 && crashed.iter().all(|&s| s < servers),
        "crash4 must crash four distinct shards of {servers}: {crashed:?}"
    );
    (HashRing::new(0..servers, cfg.vnodes), crashed)
}

/// A diurnal cell's tenant mix, sized to its target byte rate the way
/// `diurnal::simulate_in` sizes it. The single-layer tenant kernel uses it.
///
/// # Panics
///
/// Panics if the mix misses its target rate.
pub fn tenant_mix(cfg: &DiurnalConfig) -> TenantMix {
    let shards = match cfg.platform {
        DiurnalPlatform::Fleet => cfg.fleet_shards,
        _ => 1,
    };
    let target = cfg.per_shard_gbps * f64::from(shards);
    let unit = TenantMix::new(cfg.tenants, cfg.theta, 1e6, cfg.day, cfg.seed);
    let pps = 1e6 * target / unit.mean_gbps();
    let mix = TenantMix::new(cfg.tenants, cfg.theta, pps, cfg.day, cfg.seed);
    assert!(
        (mix.mean_gbps() / target - 1.0).abs() < 1e-9,
        "tenant mix misses its target rate"
    );
    mix
}

/// What a pass produced, by workload.
#[derive(Debug, Clone)]
pub enum Books {
    /// The 29 comparison rows (empty if the pass failed).
    Fig4(Vec<ComparisonRow>),
    /// One report per variant that ran, with its index in [`VARIANTS`].
    Fleet(Vec<(usize, FleetReport)>),
    /// One report per cell, plus the size of the exported documents.
    Diurnal {
        /// One report per cell.
        reports: Vec<Option<DiurnalReport>>,
        /// Bytes of the RunReport plus the Chrome trace.
        export_bytes: u64,
    },
}

/// One pass over a workload's cells.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Per cell, by cell id: the digest of what it simulated, or why it
    /// failed.
    pub cells: Vec<(u32, Result<u64, String>)>,
    /// Failures of checks over the whole pass; each fails every cell.
    pub errors: Vec<String>,
    /// Simulated requests the pass booked.
    pub requests: u64,
    /// The simulated results.
    pub books: Books,
}

/// Which cells a pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The timed pass: `fig4-search` on `jobs` threads, the `healthy`,
    /// `chaos-base` and `chaos-rebal` fleet variants, all diurnal cells.
    Timed {
        /// Executor width of `fig4-search`.
        jobs: usize,
        /// `fig4-search` goes through the `Scenario` front door; otherwise
        /// it makes the same calls one by one, each in a span of `tracer`.
        front_door: bool,
    },
    /// The untimed cells a run adds once: `fig4-search` on one thread
    /// through the front door (whose digest the timed passes must
    /// reproduce) and the
    /// `chaos-hedge` fleet variant, whose host cost swings threefold with
    /// the seed at an equal event count, too far for a timed pass.
    /// `diurnal-tenants` has none.
    Extra,
}

/// The fleet variants a pass of `shape` runs, by index into [`VARIANTS`].
pub fn fleet_variants(shape: Shape) -> std::ops::Range<usize> {
    match shape {
        Shape::Timed { .. } => 0..3,
        Shape::Extra => 3..4,
    }
}

/// Runs one pass of `shape`, or `None` when the workload has no cells of
/// that shape. With `tracer` enabled each public call is wrapped in a
/// span under `parent`.
pub fn run_pass(
    inputs: &Inputs,
    shape: Shape,
    tracer: &Tracer,
    parent: u64,
    out: &Path,
) -> Option<Pass> {
    match (inputs, shape) {
        (Inputs::Fig4(inp), Shape::Timed { jobs, front_door }) => {
            Some(fig4_pass(inp, jobs, front_door, tracer, parent))
        }
        (Inputs::Fig4(inp), Shape::Extra) => Some(fig4_pass(inp, 1, true, tracer, parent)),
        (Inputs::Fleet(inp), _) => Some(fleet_pass(inp, fleet_variants(shape), tracer, parent)),
        (Inputs::Diurnal(inp), Shape::Timed { .. }) => Some(diurnal_pass(inp, tracer, parent, out)),
        (Inputs::Diurnal(_), Shape::Extra) => None,
    }
}

/// Digest of a run: every cell's digest in cell-id order.
pub fn run_digest<'a>(cells: impl IntoIterator<Item = (&'a u32, &'a u64)>) -> u64 {
    let mut d = Digest::default();
    for (&id, &digest) in cells {
        d.u64(u64::from(id)).u64(digest);
    }
    d.finish()
}

/// Through the `Scenario` front door (which records no spans), or making
/// the same calls one by one so each gets its span in `tracer`. The two
/// must agree to the bit, which the pass-to-pass digest check enforces.
fn fig4_pass(
    inp: &Fig4Inputs,
    jobs: usize,
    front_door: bool,
    tracer: &Tracer,
    parent: u64,
) -> Pass {
    let budget = inp.budget;
    let rows: Result<Vec<ComparisonRow>, String> = if front_door {
        let mut out = Executor::serial().try_map(vec![()], |()| {
            Scenario::fig4()
                .budget(budget)
                .run_with(&RunContext::disabled(), &Executor::new(jobs))
        });
        out.pop().expect("one job in, one result out")
    } else {
        let units: Vec<(u32, (Workload, ExecutionPlatform))> =
            (0u32..).zip(inp.units.iter().copied()).collect();
        let points: Vec<Result<OperatingPoint, String>> =
            tracer.span("executor.map", parent, None, |map| {
                Executor::new(jobs).try_map(units, |(i, (w, p))| {
                    tracer.span("experiment.search", map, Some(i), |_| {
                        find_operating_point_in(
                            w,
                            p,
                            budget,
                            &Executor::serial(),
                            &RunContext::disabled(),
                        )
                    })
                })
            });
        let mut points = points.into_iter();
        let mut rows = Vec::new();
        let mut failure = None;
        for (i, &workload) in (0u32..).zip(&inp.workloads) {
            let (host, snic) = match (points.next(), points.next()) {
                (Some(Ok(h)), Some(Ok(s))) => (h, s),
                (Some(Err(e)), _) | (_, Some(Err(e))) => {
                    failure = Some(e);
                    break;
                }
                _ => unreachable!("two searches per configuration"),
            };
            let window = SimDuration::from_secs(60);
            let measure = |point: &OperatingPoint, seed: u64, cell: u32| {
                tracer.span("power.measure", parent, Some(cell), |_| {
                    measure_power_in(point, window, seed, &RunScope::disabled())
                })
            };
            let host_power = measure(&host, budget.seed, 2 * i);
            let snic_power = measure(&snic, budget.seed.wrapping_add(7), 2 * i + 1);
            rows.push(ComparisonRow {
                workload,
                snic_platform: snic.platform,
                host,
                snic,
                host_power,
                snic_power,
            });
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(rows),
        }
    };
    let cells = inp.units.len();
    match rows {
        Err(e) => Pass {
            cells: (0..cells as u32)
                .map(|i| (i, Err(format!("fig4 pass panicked: {e}"))))
                .collect(),
            errors: Vec::new(),
            requests: 0,
            books: Books::Fig4(Vec::new()),
        },
        Ok(rows) => {
            let errors = tracer.span("check", parent, None, |_| fig4_check(&rows, cells));
            let cells = (0u32..)
                .zip(rows.iter().flat_map(|r| {
                    [
                        Ok(point_digest(&r.host, &r.host_power)),
                        Ok(point_digest(&r.snic, &r.snic_power)),
                    ]
                }))
                .collect();
            Pass {
                cells,
                errors,
                requests: rows
                    .iter()
                    .map(|r| r.host.metrics.sent + r.snic.metrics.sent)
                    .sum(),
                books: Books::Fig4(rows),
            }
        }
    }
}

/// The Fig. 4 checks: every configuration measured on both sides, and
/// the paper's observations O1–O5 hold.
pub fn fig4_check(rows: &[ComparisonRow], units: usize) -> Vec<String> {
    let mut errors = Vec::new();
    if rows.len() * 2 != units {
        errors.push(format!("{} rows for {units} searches", rows.len()));
    }
    for o in observations::validate_all(rows) {
        if !o.holds {
            errors.push(format!("{} does not hold: {}", o.id, o.evidence));
        }
    }
    errors
}

fn point_digest(p: &OperatingPoint, power: &PowerReport) -> u64 {
    let m = &p.metrics;
    Digest::default()
        .str(&p.workload.name())
        .str(p.platform.code())
        .f64(p.max_ops)
        .f64(p.max_gbps)
        .f64(p.p99_us)
        .f64(m.offered_ops)
        .u64(m.sent)
        .u64(m.completed)
        .u64(m.dropped)
        .f64(m.achieved_ops)
        .f64(m.latency.mean_us)
        .f64(m.latency.p50_us)
        .f64(m.latency.p99_us)
        .f64(m.latency.max_us)
        .f64(power.system_w)
        .f64(power.snic_w)
        .f64(power.efficiency_gbps_per_w)
        .finish()
}

fn fleet_pass(
    inp: &FleetInputs,
    variants: std::ops::Range<usize>,
    tracer: &Tracer,
    parent: u64,
) -> Pass {
    let jobs: Vec<(u32, FleetConfig)> = variants
        .clone()
        .map(|v| (v as u32, inp.configs[v].clone()))
        .collect();
    let reports = tracer.span("executor.map", parent, None, |map| {
        Executor::serial().try_map(jobs, |(i, cfg)| {
            tracer.span("fleet.cell", map, Some(i), |_| {
                fleet::simulate_in(&cfg, &RunScope::disabled())
            })
        })
    });
    let cells = tracer.span("check", parent, None, |_| {
        variants
            .clone()
            .zip(&reports)
            .map(|(v, r)| {
                let cell = match r {
                    Err(e) => Err(format!("{} panicked: {e}", VARIANTS[v])),
                    Ok(r) => match fleet_check(r, inp.configs[v].rack.servers) {
                        Some(e) => Err(format!("{}: {e}", VARIANTS[v])),
                        None => Ok(fleet_digest(r)),
                    },
                };
                (v as u32, cell)
            })
            .collect()
    });
    let reports: Vec<(usize, FleetReport)> = variants
        .zip(reports)
        .filter_map(|(v, r)| Some((v, r.ok()?)))
        .collect();
    Pass {
        cells,
        errors: Vec::new(),
        requests: reports.iter().map(|(_, r)| r.cluster.sent).sum(),
        books: Books::Fleet(reports),
    }
}

/// The fleet's conservation laws: `sent == completed + dropped +
/// remapped_in_flight` on every shard and on the cluster, and every
/// cluster total equals the sum over shards.
pub fn fleet_check(r: &FleetReport, servers: u32) -> Option<String> {
    if r.shards.len() != servers as usize {
        return Some(format!(
            "{} shard roll-ups for {servers} servers",
            r.shards.len()
        ));
    }
    for s in &r.shards {
        if s.sent != s.completed + s.dropped + s.remapped_in_flight {
            return Some(format!(
                "shard {}: sent {} != completed {} + dropped {} + remapped_in_flight {}",
                s.shard, s.sent, s.completed, s.dropped, s.remapped_in_flight
            ));
        }
    }
    let c = &r.cluster;
    if c.sent != c.completed + c.dropped + c.remapped_in_flight {
        return Some(format!(
            "cluster: sent {} != completed {} + dropped {} + remapped_in_flight {}",
            c.sent, c.completed, c.dropped, c.remapped_in_flight
        ));
    }
    let sum = |f: fn(&ShardRollup) -> u64| r.shards.iter().map(f).sum::<u64>();
    for (name, total, shards) in [
        ("sent", c.sent, sum(|s| s.sent)),
        ("completed", c.completed, sum(|s| s.completed)),
        ("dropped", c.dropped, sum(|s| s.dropped)),
        ("spills", c.spills, sum(|s| s.spill_out)),
        ("remapped", c.remapped, sum(|s| s.remapped)),
        (
            "remapped_in_flight",
            c.remapped_in_flight,
            sum(|s| s.remapped_in_flight),
        ),
        ("hedged", c.hedged, sum(|s| s.hedged)),
        ("hedge_wins", c.hedge_wins, sum(|s| s.hedge_wins)),
        ("down_windows", c.down_windows, sum(|s| s.down_windows)),
    ] {
        if total != shards {
            return Some(format!(
                "cluster {name} {total} != sum over shards {shards}"
            ));
        }
    }
    None
}

fn shard_digest(d: &mut Digest, s: &ShardRollup) {
    d.u64(u64::from(s.shard))
        .u64(u64::from(s.has_snic))
        .u64(s.sent)
        .u64(s.completed)
        .u64(s.dropped)
        .u64(s.snic_completed)
        .u64(s.spill_in)
        .u64(s.spill_out)
        .u64(s.down_windows)
        .u64(s.remapped)
        .u64(s.remapped_in_flight)
        .u64(s.hedged)
        .u64(s.hedge_wins)
        .f64(s.achieved_gbps)
        .f64(s.p99_us)
        .f64(s.host_util)
        .f64(s.accel_util)
        .u64(u64::from(s.slo_met));
}

/// Digest of a fleet report's modelled values.
pub fn fleet_digest(r: &FleetReport) -> u64 {
    let mut d = Digest::default();
    let c = &r.cluster;
    d.f64(c.offered_gbps)
        .f64(c.achieved_gbps)
        .f64(c.loss_rate)
        .f64(c.mean_us)
        .f64(c.p99_us)
        .f64(c.snic_share)
        .u64(c.sent)
        .u64(c.completed)
        .u64(c.dropped)
        .u64(c.spills)
        .u64(u64::from(c.shards_meeting_slo))
        .u64(c.down_windows)
        .u64(c.remapped)
        .u64(c.remapped_in_flight)
        .u64(c.hedged)
        .u64(c.hedge_wins);
    for s in &r.shards {
        shard_digest(&mut d, s);
    }
    if let Some(t) = &r.tco {
        d.f64(t.capacity_ratio)
            .f64(t.break_even_ratio)
            .f64(t.savings)
            .u64(u64::from(t.nic_servers));
    }
    d.finish()
}

fn diurnal_pass(inp: &DiurnalInputs, tracer: &Tracer, parent: u64, out: &Path) -> Pass {
    let ctx = RunContext::collecting();
    let jobs: Vec<(u32, DiurnalConfig)> = (0u32..).zip(inp.configs.iter().cloned()).collect();
    let reports = tracer.span("executor.map", parent, None, |map| {
        Executor::serial().try_map(jobs, |(i, cfg)| {
            tracer.span("diurnal.cell", map, Some(i), |_| {
                diurnal::simulate_in(&cfg, &ctx.scope(label(i)))
            })
        })
    });
    for (i, r) in (0u32..).zip(&reports) {
        if let Err(e) = r {
            ctx.record_failed_job(label(i), e.clone());
        }
    }
    let runs = tracer.span("telemetry.drain", parent, None, |_| ctx.drain());
    let failed = ctx.drain_failed_jobs();
    let (report, trace) = tracer.span("telemetry.export", parent, None, |_| {
        let results = diurnal_results_json(&reports);
        (
            run_report_with_failures("diurnal", results, &runs, &failed).to_pretty(),
            chrome_trace_json(&runs).to_pretty(),
        )
    });
    let mut errors = Vec::new();
    for (name, text) in [
        ("diurnal-report.json", &report),
        ("diurnal-trace.json", &trace),
    ] {
        if let Err(e) = std::fs::write(out.join(name), text) {
            errors.push(format!("writing {name}: {e}"));
        }
    }
    let ok = reports.iter().filter(|r| r.is_ok()).count();
    if runs.len() != ok {
        errors.push(format!("{} telemetry runs for {ok} cells", runs.len()));
    }
    let cells = tracer.span("check", parent, None, |_| {
        (0u32..)
            .zip(reports.iter().zip(DIURNAL_CELLS))
            .map(|(i, (r, cell))| {
                let cell = match r {
                    Err(e) => Err(format!("{cell} panicked: {e}")),
                    Ok(r) => match diurnal_check(r) {
                        Some(e) => Err(format!("{cell}: {e}")),
                        None => Ok(diurnal_digest(r)),
                    },
                };
                (i, cell)
            })
            .collect()
    });
    let reports: Vec<Option<DiurnalReport>> = reports.into_iter().map(Result::ok).collect();
    Pass {
        cells,
        errors,
        requests: reports
            .iter()
            .flatten()
            .flat_map(|r| &r.hours)
            .map(|h| h.offered)
            .sum(),
        books: Books::Diurnal {
            reports,
            export_bytes: (report.len() + trace.len()) as u64,
        },
    }
}

fn label(cell: u32) -> String {
    format!("diurnal/{}", DIURNAL_CELLS[cell as usize])
}

fn diurnal_results_json(reports: &[Result<DiurnalReport, String>]) -> Json {
    Json::arr((0u32..).zip(reports).filter_map(|(i, r)| {
        let r = r.as_ref().ok()?;
        Some(Json::obj([
            ("label", Json::str(label(i))),
            ("violation_fraction", Json::Num(r.violation_fraction)),
            ("peak_hour", Json::U64(u64::from(r.peak_hour))),
            ("peak_p99_us", Json::Num(r.peak_p99_us)),
            ("offered_gbps", Json::Num(r.offered_gbps)),
            ("achieved_gbps", Json::Num(r.achieved_gbps)),
            ("p99_us", Json::Num(r.p99_us)),
            ("loss_rate", Json::Num(r.loss_rate)),
            ("rejected_share", Json::Num(r.rejected_share)),
            (
                "hours",
                Json::arr(r.hours.iter().map(|h| {
                    Json::obj([
                        ("hour", Json::U64(u64::from(h.hour))),
                        ("offered", Json::U64(h.offered)),
                        ("admitted", Json::U64(h.admitted)),
                        ("rejected", Json::U64(h.rejected)),
                        ("completed", Json::U64(h.completed)),
                        ("dropped", Json::U64(h.dropped)),
                        ("p99_us", Json::Num(h.p99_us)),
                        ("loss_rate", Json::Num(h.loss_rate)),
                        ("slo_met", Json::Bool(h.slo_met)),
                    ])
                })),
            ),
            (
                "tenants",
                Json::arr(r.tenants.iter().map(|t| {
                    Json::obj([
                        ("tenant", Json::U64(u64::from(t.tenant))),
                        ("share", Json::Num(t.share)),
                        ("offered", Json::U64(t.offered)),
                        ("admitted", Json::U64(t.admitted)),
                        ("rejected", Json::U64(t.rejected)),
                        ("completed", Json::U64(t.completed)),
                        ("dropped", Json::U64(t.dropped)),
                    ])
                })),
            ),
        ]))
    }))
}

/// The diurnal books: `offered == admitted + rejected` and `admitted ==
/// completed + dropped` for every hour and every tenant, and the two
/// ledgers agree on their totals.
pub fn diurnal_check(r: &DiurnalReport) -> Option<String> {
    if r.hours.len() != diurnal::HOURS as usize {
        return Some(format!("{} hourly buckets", r.hours.len()));
    }
    let rows = r
        .hours
        .iter()
        .map(|h| {
            (
                "hour",
                h.hour,
                [h.offered, h.admitted, h.rejected, h.completed, h.dropped],
            )
        })
        .chain(r.tenants.iter().map(|t| {
            (
                "tenant",
                t.tenant,
                [t.offered, t.admitted, t.rejected, t.completed, t.dropped],
            )
        }));
    let mut totals = [[0u64; 5]; 2];
    for (what, id, [offered, admitted, rejected, completed, dropped]) in rows {
        if offered != admitted + rejected {
            return Some(format!(
                "{what} {id}: offered {offered} != admitted {admitted} + rejected {rejected}"
            ));
        }
        if admitted != completed + dropped {
            return Some(format!(
                "{what} {id}: admitted {admitted} != completed {completed} + dropped {dropped}"
            ));
        }
        let t = &mut totals[usize::from(what == "tenant")];
        for (acc, v) in t
            .iter_mut()
            .zip([offered, admitted, rejected, completed, dropped])
        {
            *acc += v;
        }
    }
    if totals[0] != totals[1] {
        return Some(format!(
            "hour totals {:?} != tenant totals {:?}",
            totals[0], totals[1]
        ));
    }
    None
}

/// Digest of a diurnal report's modelled values.
pub fn diurnal_digest(r: &DiurnalReport) -> u64 {
    let mut d = Digest::default();
    d.f64(r.violation_fraction)
        .u64(u64::from(r.peak_hour))
        .f64(r.peak_p99_us)
        .f64(r.peak_loss)
        .f64(r.offered_gbps)
        .f64(r.achieved_gbps)
        .f64(r.p99_us)
        .f64(r.loss_rate)
        .f64(r.rejected_share);
    for h in &r.hours {
        d.u64(u64::from(h.hour))
            .u64(h.offered)
            .u64(h.offered_bytes)
            .u64(h.admitted)
            .u64(h.rejected)
            .u64(h.completed)
            .u64(h.dropped)
            .f64(h.achieved_gbps)
            .f64(h.offered_gbps)
            .f64(h.p99_us)
            .f64(h.loss_rate)
            .u64(u64::from(h.slo_met));
    }
    for t in &r.tenants {
        d.u64(u64::from(t.tenant))
            .f64(t.share)
            .u64(t.offered)
            .u64(t.admitted)
            .u64(t.rejected)
            .u64(t.completed)
            .u64(t.dropped)
            .u64(t.churn.opened)
            .u64(t.churn.closed)
            .u64(t.churn.live);
    }
    for s in &r.shards {
        shard_digest(&mut d, s);
    }
    if let Some(l) = &r.limiter {
        d.u64(l.final_limit as u64)
            .u64(l.peak_limit as u64)
            .u64(l.cuts);
    }
    d.finish()
}
