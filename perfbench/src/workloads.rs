//! The four workloads: what each sets up, what one checked verdict runs,
//! the pins a verdict must reproduce, and the layer counts its engine
//! calls return.

use std::path::{Path, PathBuf};
use std::time::Instant;

use detectable::{DetectableCas, ObjectKind, OpSpec, RecoverableObject};
use harness::process_crash::{default_factory, kind_name, run_cycle, CrashCycleConfig};
use harness::{
    build_kind, census_bfs_external_engine, explore_engine, BfsConfig, CensusReport, ExploreConfig,
    OpSource, Scenario, SchedStats, SpillStats, SymmetryMode, Verdict, Workload,
};
use nvm::{CrashPolicy, LayoutBuilder};

use crate::probes::{mixed_world, ProbeWorld};
use crate::stats::{median, quantile, tail_quantile};
use crate::trace::Tracer;
use crate::Rng;

/// The eight detectable kinds the crash fabric soaks.
pub const KINDS: [ObjectKind; 8] = [
    ObjectKind::Register,
    ObjectKind::Cas,
    ObjectKind::MaxRegister,
    ObjectKind::Counter,
    ObjectKind::Faa,
    ObjectKind::Swap,
    ObjectKind::Tas,
    ObjectKind::Queue,
];

/// Run-wide options every workload reads.
pub struct Opts {
    pub seed: u64,
    /// The self-test sizes: census at N = 2, explore with 2 processes,
    /// 2 soak cycles.
    pub tiny: bool,
    /// Shift every pin by one, so every verdict must fail its check.
    pub wrong_pin: bool,
    /// Scratch directory of this run (spill and crash files).
    pub dir: PathBuf,
}

/// What one verdict (or soak round) checked.
#[derive(Default)]
pub struct Checked {
    /// Checked units: verdicts, or soak cycles.
    pub attempted: u64,
    /// Units whose pins or checks failed.
    pub failed: u64,
}

/// One workload of the benchmark.
pub trait Bench {
    /// Builds everything a verdict needs. Called repeatedly; `setup_s` is
    /// the median call.
    fn setup(&mut self, tr: &mut Tracer);
    /// Runs and checks one verdict on the set-up input.
    fn verdict(&mut self, tr: &mut Tracer) -> Checked;
    /// Per-cycle wall times in seconds, for workloads whose verdict is made
    /// of cycles.
    fn cycle_times(&self) -> Option<&[f64]> {
        None
    }
    /// Fewest measured verdicts per run: five, so a run's median holds
    /// even when single verdicts of the same input vary by a fifth.
    fn min_verdicts(&self) -> usize {
        5
    }
    /// `verdict_s` from the measured verdict times: their median.
    fn verdict_s(&self, times: &[f64]) -> f64 {
        median(times)
    }
    /// Worker threads the engine runs on.
    fn workers(&self) -> usize {
        1
    }
    /// Layer counts from the engine reports of the traced verdicts.
    fn layer_counts(&self) -> Vec<(&'static str, f64)>;
    /// Counts worth printing next to the result (the census/disk-census
    /// agreement check reads them).
    fn info(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
    /// The worlds the per-layer probes run on.
    fn probe_worlds(&self) -> Vec<ProbeWorld>;
}

/// Builds the named workload.
pub fn build(name: &str, opts: &Opts) -> Option<Box<dyn Bench>> {
    Some(match name {
        "census" => Box::new(Census::new(opts, false)),
        "census-disk" => Box::new(Census::new(opts, true)),
        "explore" => Box::new(Explore::new(opts)),
        "crash-soak" => Box::new(CrashSoak::new(opts)),
        _ => return None,
    })
}

/// The census alphabet {CAS 0→1, CAS 1→0}, in a seed-chosen order (the
/// census explores every choice, so its counts do not depend on it).
fn census_alphabet(rng: &mut Rng) -> Vec<OpSpec> {
    let mut alphabet = vec![
        OpSpec::Cas { old: 0, new: 1 },
        OpSpec::Cas { old: 1, new: 0 },
    ];
    if rng.below(2) == 1 {
        alphabet.reverse();
    }
    alphabet
}

/// Pinned census counts.
#[derive(Copy, Clone)]
struct CensusPins {
    expansions: u64,
    distinct: u64,
}

/// What one census verdict reported.
struct Tally {
    expansions: u64,
    distinct: u64,
    steps: u64,
    /// Complete and at least 2^N − 1 configurations (Theorem 1).
    bound_met: bool,
    sched: SchedStats,
    spill: Option<SpillStats>,
}

impl Tally {
    fn of_report(r: CensusReport) -> Tally {
        Tally {
            expansions: r.work as u64,
            distinct: r.distinct_shared as u64,
            steps: r.steps,
            bound_met: !r.truncated && r.meets_bound(),
            sched: r.sched,
            spill: r.spill,
        }
    }

    fn of_verdict(v: Verdict) -> Tally {
        Tally {
            expansions: v.stats.executions,
            distinct: v.stats.distinct_configs,
            steps: v.stats.steps,
            bound_met: !v.stats.truncated && v.bound_met == Some(true),
            sched: v.stats.sched,
            spill: None,
        }
    }
}

/// Engine counts of the traced verdicts, medians where scheduling moves
/// them.
#[derive(Default)]
struct CensusCounts {
    expansions: u64,
    distinct: u64,
    steps: u64,
    engine_s: Vec<f64>,
    steals: Vec<f64>,
    steal_failures: Vec<f64>,
    parks: Vec<f64>,
    flush_batches: Vec<f64>,
    imbalance: Vec<f64>,
    spill: Option<SpillStats>,
}

/// `census` (in RAM, 2 workers, through `Scenario::census`) and
/// `census-disk` (the external engine, sequential, spilling under a small
/// RAM budget): the Theorem 1 census of detectable CAS.
struct Census {
    disk: bool,
    n: u32,
    workers: usize,
    pins: CensusPins,
    alphabet: Vec<OpSpec>,
    dir: PathBuf,
    scenario: Option<Scenario>,
    /// The disk census's world (the in-RAM census builds its own inside
    /// `Scenario::census`).
    world: Option<(Box<dyn RecoverableObject>, nvm::SimMemory)>,
    cfg: BfsConfig,
    counts: CensusCounts,
}

/// Operations any one census path may start.
const CENSUS_MAX_OPS: usize = 5;

/// RAM budget of the disk census: small enough that the arena, the sort
/// runs and the frontier generations spill.
const DISK_RAM_BUDGET: usize = 16 << 20;

/// Theorem 1 at N = 4: 2^4 configurations (at least 2^4 − 1).
const CENSUS_PINS: CensusPins = CensusPins {
    expansions: 647_456,
    distinct: 16,
};

/// N = 2: 2^2 configurations.
const TINY_CENSUS_PINS: CensusPins = CensusPins {
    expansions: 2_714,
    distinct: 4,
};

impl Census {
    fn new(opts: &Opts, disk: bool) -> Census {
        let (n, mut pins) = if opts.tiny {
            (2, TINY_CENSUS_PINS)
        } else {
            (4, CENSUS_PINS)
        };
        if opts.wrong_pin {
            pins.expansions += 1;
        }
        Census {
            disk,
            n,
            workers: if disk { 1 } else { 2 },
            pins,
            alphabet: census_alphabet(&mut Rng::new(opts.seed)),
            dir: opts.dir.join("census-spill"),
            scenario: None,
            world: None,
            cfg: BfsConfig::default(),
            counts: CensusCounts::default(),
        }
    }
}

impl Bench for Census {
    fn setup(&mut self, _tr: &mut Tracer) {
        let scenario = Scenario::object(ObjectKind::Cas)
            .processes(self.n)
            .workload(Workload::round_robin(self.alphabet.clone(), 8));
        self.cfg = BfsConfig {
            max_ops: CENSUS_MAX_OPS,
            max_states: 2_000_000,
            parallelism: self.workers,
            dominance: false,
            disk_dir: None,
            ram_budget: None,
        };
        if self.disk {
            self.cfg.disk_dir = Some(self.dir.clone());
            self.cfg.ram_budget = Some(DISK_RAM_BUDGET);
            self.world = Some(scenario.build());
        }
        self.scenario = Some(scenario);
    }

    fn verdict(&mut self, tr: &mut Tracer) -> Checked {
        let scenario = self.scenario.as_ref().expect("set up before the verdict");
        let name = if self.disk {
            "harness.census_bfs_external_engine"
        } else {
            "harness.Scenario::census"
        };
        let start = Instant::now();
        let t = tr.span(name, |tr| {
            let t = match &self.world {
                Some((obj, mem)) => Tally::of_report(census_bfs_external_engine(
                    &**obj,
                    mem,
                    &self.alphabet,
                    &self.cfg,
                )),
                None => Tally::of_verdict(scenario.census(&self.cfg)),
            };
            tr.count("expansions", t.expansions as f64);
            tr.count("distinct_shared", t.distinct as f64);
            t
        });
        let engine_s = start.elapsed().as_secs_f64();
        let ok =
            t.bound_met && t.expansions == self.pins.expansions && t.distinct == self.pins.distinct;
        if !ok {
            eprintln!(
                "census pin mismatch: {} expansions, {} configurations (pinned {} and {}), \
                 complete and bound met: {}",
                t.expansions, t.distinct, self.pins.expansions, self.pins.distinct, t.bound_met
            );
        }
        let c = &mut self.counts;
        c.expansions = t.expansions;
        c.distinct = t.distinct;
        c.steps = t.steps;
        if tr.on() {
            c.engine_s.push(engine_s);
            c.steals.push(t.sched.steals as f64);
            c.steal_failures.push(t.sched.steal_failures as f64);
            c.parks.push(t.sched.parks as f64);
            c.flush_batches.push(t.sched.flush_batches as f64);
            let per = &t.sched.per_worker_expansions;
            let total: u64 = per.iter().sum();
            if total > 0 {
                let max = *per.iter().max().expect("nonempty") as f64;
                c.imbalance.push(max / (total as f64 / per.len() as f64));
            }
            c.spill = t.spill.or(c.spill);
        }
        Checked {
            attempted: 1,
            failed: u64::from(!ok),
        }
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn layer_counts(&self) -> Vec<(&'static str, f64)> {
        let c = &self.counts;
        let engine_s = median(&c.engine_s);
        let mut out = vec![
            ("harness.census.expansions", c.expansions as f64),
            ("harness.census.distinct_shared", c.distinct as f64),
            ("harness.census.steps", c.steps as f64),
            ("harness.census.engine_s", engine_s),
            (
                "harness.census.expansions_per_s",
                if engine_s > 0.0 {
                    c.expansions as f64 / engine_s
                } else {
                    0.0
                },
            ),
            ("harness.sched.steals", median(&c.steals)),
            ("harness.sched.steal_failures", median(&c.steal_failures)),
            ("harness.sched.parks", median(&c.parks)),
            ("harness.sched.flush_batches", median(&c.flush_batches)),
            ("harness.sched.imbalance", median(&c.imbalance)),
        ];
        if let Some(s) = c.spill {
            out.extend([
                ("harness.external.bytes_spilled", s.bytes_spilled as f64),
                ("harness.external.sort_runs", s.sort_runs as f64),
                ("harness.external.merge_passes", s.merge_passes as f64),
                ("harness.external.generations", s.generations as f64),
                (
                    "harness.external.arena_segment_reads",
                    s.arena_segment_reads as f64,
                ),
                ("harness.external.engine_s", engine_s),
            ]);
        }
        out
    }

    fn info(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("expansions", self.counts.expansions),
            ("distinct_shared", self.counts.distinct),
        ]
    }

    fn probe_worlds(&self) -> Vec<ProbeWorld> {
        let alphabet = self.alphabet.clone();
        vec![ProbeWorld::new(
            ObjectKind::Cas,
            self.n,
            |b, n| Box::new(DetectableCas::new(b, n, 0)),
            Box::new(move |_, _, rng| alphabet[rng.below(alphabet.len() as u64) as usize]),
            2,
            0.0,
        )]
    }
}

/// Explorer counts; pinned exactly (`unique_nodes` and `memo_hits` are
/// thread-invariant at one worker only, which is what `explore` runs).
#[derive(Copy, Clone, Default, PartialEq, Debug)]
struct ExploreCounts {
    leaves: u64,
    unique_nodes: u64,
    memo_hits: u64,
}

const EXPLORE_PINS: ExploreCounts = ExploreCounts {
    leaves: 20_425_835_628,
    unique_nodes: 789_358,
    memo_hits: 386_504,
};

const TINY_EXPLORE_PINS: ExploreCounts = ExploreCounts {
    leaves: 321,
    unique_nodes: 256,
    memo_hits: 78,
};

/// `explore`: the exhaustive explorer on detectable CAS, every process
/// running one CAS, with one crash, one retry and symmetry reduction.
struct Explore {
    n: u32,
    pins: ExploreCounts,
    world: Option<(DetectableCas, nvm::SimMemory)>,
    ops: Vec<Vec<OpSpec>>,
    cfg: ExploreConfig,
    engine_s: Vec<f64>,
    last: ExploreCounts,
}

impl Explore {
    fn new(opts: &Opts) -> Explore {
        let (n, mut pins) = if opts.tiny {
            (2, TINY_EXPLORE_PINS)
        } else {
            (4, EXPLORE_PINS)
        };
        if opts.wrong_pin {
            pins.leaves += 1;
        }
        Explore {
            n,
            pins,
            world: None,
            ops: Vec::new(),
            cfg: ExploreConfig::default(),
            engine_s: Vec::new(),
            last: ExploreCounts::default(),
        }
    }
}

/// Process `p`'s operation list in `explore`: even pids CAS 0→1, odd
/// pids CAS 1→0.
fn explore_ops(n: u32) -> Vec<Vec<OpSpec>> {
    (0..n)
        .map(|p| {
            vec![if p % 2 == 0 {
                OpSpec::Cas { old: 0, new: 1 }
            } else {
                OpSpec::Cas { old: 1, new: 0 }
            }]
        })
        .collect()
}

impl Bench for Explore {
    fn setup(&mut self, _tr: &mut Tracer) {
        let mut b = LayoutBuilder::new();
        let obj = DetectableCas::new(&mut b, self.n, 0);
        self.world = Some((obj, nvm::SimMemory::new(b.finish())));
        self.ops = explore_ops(self.n);
        self.cfg = ExploreConfig {
            max_crashes: 1,
            retry_on_fail: true,
            max_retries: 1,
            max_leaves: usize::MAX,
            crash_policy: CrashPolicy::DropAll,
            prune: true,
            symmetry: SymmetryMode::On,
            parallelism: 1,
            ..ExploreConfig::default()
        };
    }

    fn verdict(&mut self, tr: &mut Tracer) -> Checked {
        let (obj, mem) = self.world.as_ref().expect("set up before the verdict");
        let start = Instant::now();
        let out = tr.span("harness.explore_engine", |tr| {
            let out = explore_engine(obj, mem, OpSource::PerProcess(&self.ops), &self.cfg);
            tr.count("leaves", out.leaves as f64);
            tr.count("unique_nodes", out.unique_nodes as f64);
            tr.count("memo_hits", out.memo_hits as f64);
            out
        });
        let engine_s = start.elapsed().as_secs_f64();
        self.last = ExploreCounts {
            leaves: out.leaves as u64,
            unique_nodes: out.unique_nodes as u64,
            memo_hits: out.memo_hits as u64,
        };
        let ok = out.violation.is_none() && !out.truncated && self.last == self.pins;
        if !ok {
            eprintln!(
                "explore pin mismatch: {:?}, pinned {:?}, violation {}, truncated {}",
                self.last,
                self.pins,
                out.violation.is_some(),
                out.truncated
            );
        }
        if tr.on() {
            self.engine_s.push(engine_s);
        }
        Checked {
            attempted: 1,
            failed: u64::from(!ok),
        }
    }

    fn layer_counts(&self) -> Vec<(&'static str, f64)> {
        let c = self.last;
        let seen = c.unique_nodes + c.memo_hits;
        vec![
            ("harness.explore.leaves", c.leaves as f64),
            ("harness.explore.unique_nodes", c.unique_nodes as f64),
            ("harness.explore.memo_hits", c.memo_hits as f64),
            (
                "harness.explore.memo_hit_ratio",
                c.memo_hits as f64 / seen.max(1) as f64,
            ),
            ("harness.explore.engine_s", median(&self.engine_s)),
        ]
    }

    fn info(&self) -> Vec<(&'static str, u64)> {
        let c = self.last;
        vec![
            ("leaves", c.leaves),
            ("unique_nodes", c.unique_nodes),
            ("memo_hits", c.memo_hits),
        ]
    }

    fn probe_worlds(&self) -> Vec<ProbeWorld> {
        let ops = explore_ops(self.n);
        vec![ProbeWorld::new(
            ObjectKind::Cas,
            self.n,
            |b, n| Box::new(DetectableCas::new(b, n, 0)),
            Box::new(move |p, i, _| ops[p as usize][i % ops[p as usize].len()]),
            1,
            0.02,
        )]
    }
}

/// Per-cycle fabric figures of the traced rounds.
#[derive(Default)]
struct SoakCounts {
    kill_ms: Vec<f64>,
    recovery_ms: Vec<f64>,
    worker_kills: u64,
    recovery_kills: u64,
    recovery_reentries: u64,
    survivor_ops: u64,
    in_flight: u64,
}

/// `crash-soak`: real-process kill/recover/check cycles over the eight
/// detectable kinds, one worker process per paper process, two of three
/// killed per cycle and up to two nested kills of each recoverer.
struct CrashSoak {
    kinds: Vec<ObjectKind>,
    seed: u64,
    wrong_pin: bool,
    dir: PathBuf,
    cfgs: Vec<CrashCycleConfig>,
    next_cycle: u64,
    cycle_s: Vec<f64>,
    counts: SoakCounts,
}

impl CrashSoak {
    fn new(opts: &Opts) -> CrashSoak {
        CrashSoak {
            kinds: if opts.tiny {
                vec![ObjectKind::Cas, ObjectKind::Register]
            } else {
                KINDS.to_vec()
            },
            seed: opts.seed,
            wrong_pin: opts.wrong_pin,
            dir: opts.dir.join("soak"),
            cfgs: Vec::new(),
            next_cycle: 0,
            cycle_s: Vec::new(),
            counts: SoakCounts::default(),
        }
    }
}

/// The fabric configuration of one kind, with its files under `dir`.
fn soak_config(kind: ObjectKind, seed: u64, dir: &Path) -> CrashCycleConfig {
    let mut cfg = CrashCycleConfig::new(kind);
    cfg.seed = seed;
    cfg.procs_as_processes = true;
    cfg.kill_subset = 2;
    cfg.recovery_kills = 2;
    cfg.dir = dir.join(kind_name(kind));
    cfg
}

impl Bench for CrashSoak {
    fn setup(&mut self, _tr: &mut Tracer) {
        self.cfgs = self
            .kinds
            .iter()
            .map(|&kind| {
                let cfg = soak_config(kind, self.seed, &self.dir);
                let mut b = LayoutBuilder::new();
                let obj = default_factory(&cfg.object, &mut b, cfg.procs, cfg.queue_capacity)
                    .expect("every soaked kind has a factory entry");
                assert!(obj.detectable(), "{} must be detectable", cfg.object);
                cfg
            })
            .collect();
    }

    fn verdict(&mut self, tr: &mut Tracer) -> Checked {
        let mut checked = Checked::default();
        let cycle = self.next_cycle;
        self.next_cycle += 1;
        let expected_extra = usize::from(self.wrong_pin);
        for cfg in &self.cfgs {
            let start = Instant::now();
            let result = tr.span("harness.run_cycle", |tr| {
                let result = run_cycle(cfg, default_factory, cycle);
                if let Ok(r) = &result {
                    tr.count("worker_kills", r.worker_kills as f64);
                    tr.count("recovery_kills", r.recovery_kills as f64);
                    tr.count("in_flight", r.in_flight as f64);
                }
                result
            });
            self.cycle_s.push(start.elapsed().as_secs_f64());
            checked.attempted += 1;
            let ok = match &result {
                Ok(r) => {
                    r.recovered_unresolved == 0
                        && r.check_ok
                        && r.recovery_reentries == r.recovery_kills + expected_extra
                }
                Err(e) => {
                    eprintln!("crash cycle {} of {}: {e}", cycle, cfg.object);
                    false
                }
            };
            if !ok {
                checked.failed += 1;
                if let Ok(r) = &result {
                    eprintln!(
                        "crash cycle {cycle} of {} failed: unresolved {}, check_ok {}, \
                         re-entries {} for {} recovery kills (pinned kills + {expected_extra}){}",
                        cfg.object,
                        r.recovered_unresolved,
                        r.check_ok,
                        r.recovery_reentries,
                        r.recovery_kills,
                        r.violation
                            .as_deref()
                            .map(|v| format!("\n{v}"))
                            .unwrap_or_default()
                    );
                }
            }
            if let (true, Ok(r)) = (tr.on(), &result) {
                let c = &mut self.counts;
                c.kill_ms.push(r.kill_latency_us as f64 / 1e3);
                c.recovery_ms.push(r.recovery_latency_us as f64 / 1e3);
                c.worker_kills += r.worker_kills as u64;
                c.recovery_kills += r.recovery_kills as u64;
                c.recovery_reentries += r.recovery_reentries as u64;
                c.survivor_ops += r.survivor_ops as u64;
                c.in_flight += r.in_flight as u64;
            }
        }
        checked
    }

    fn cycle_times(&self) -> Option<&[f64]> {
        Some(&self.cycle_s)
    }

    /// Enough rounds for a p95 with ten cycles beyond it.
    fn min_verdicts(&self) -> usize {
        200usize.div_ceil(self.kinds.len())
    }

    /// The mean round. Cycle times are bimodal (a slow mode about three
    /// times the fast one), so a round's time jumps by whole slow cycles
    /// and the median round moves in those steps; the mean is what a soak
    /// of many rounds costs per round.
    fn verdict_s(&self, times: &[f64]) -> f64 {
        times.iter().sum::<f64>() / times.len().max(1) as f64
    }

    fn layer_counts(&self) -> Vec<(&'static str, f64)> {
        let c = &self.counts;
        vec![
            (
                "harness.process_crash.kill_latency_ms_p50",
                quantile(&c.kill_ms, 0.5),
            ),
            (
                "harness.process_crash.kill_latency_ms_p95",
                quantile(&c.kill_ms, tail_quantile(c.kill_ms.len())),
            ),
            (
                "harness.process_crash.recovery_latency_ms_p50",
                quantile(&c.recovery_ms, 0.5),
            ),
            (
                "harness.process_crash.recovery_latency_ms_p95",
                quantile(&c.recovery_ms, tail_quantile(c.recovery_ms.len())),
            ),
            ("harness.process_crash.worker_kills", c.worker_kills as f64),
            (
                "harness.process_crash.recovery_kills",
                c.recovery_kills as f64,
            ),
            (
                "harness.process_crash.recovery_reentries",
                c.recovery_reentries as f64,
            ),
            ("harness.process_crash.survivor_ops", c.survivor_ops as f64),
            ("harness.process_crash.in_flight", c.in_flight as f64),
        ]
    }

    fn probe_worlds(&self) -> Vec<ProbeWorld> {
        self.kinds
            .iter()
            .map(|&kind| {
                let cfg = soak_config(kind, self.seed, &self.dir);
                let qcap = cfg.queue_capacity;
                mixed_world(kind, cfg.procs, move |b, n| build_kind(kind, b, n, qcap))
            })
            .collect()
    }
}
