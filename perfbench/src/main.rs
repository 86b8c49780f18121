//! The repository's benchmark: one workload per process, checked against
//! pinned counts, printing its metrics as one JSON line.
//!
//! ```text
//! perfbench --workload <census|census-disk|explore|crash-soak> --seed <n>
//!           --seconds <s> --trace <0|1> --work-dir <dir>
//!           [--tiny] [--wrong-pin]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones; `run.py` next to this crate builds it and is the command to run.
//! See `README.md` in this directory for what every metric means.

mod probes;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use stats::{median, peak_rss_mb, quantile, tail_quantile};
use trace::Tracer;
use workloads::{Bench, Checked, Opts};

#[global_allocator]
static ALLOC: stats::CountingAlloc = stats::CountingAlloc;

/// End-to-end metrics and their units, reported by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("cycle_p50_s", "s"),
    ("cycle_p95_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, reported by every `--trace 1` run.
/// A layer a workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("nvm.memory.checkpoint_rollback_ns_p50", "ns"),
    ("nvm.memory.checkpoint_rollback_ns_p95", "ns"),
    ("nvm.memory.logical_hash_ns_p50", "ns"),
    ("nvm.memory.logical_hash_ns_p95", "ns"),
    ("nvm.memory.logical_words_permuted_ns_p50", "ns"),
    ("nvm.memory.logical_words_permuted_ns_p95", "ns"),
    ("nvm.arena.intern_batch_ns_per_state_p50", "ns"),
    ("nvm.arena.intern_batch_ns_per_state_p95", "ns"),
    ("nvm.arena.read_into_ns_p50", "ns"),
    ("nvm.arena.read_into_ns_p95", "ns"),
    ("nvm.arena.bytes_per_distinct", "bytes"),
    ("nvm.external.intern128_batch_ns_per_state_p50", "ns"),
    ("nvm.external.intern128_batch_ns_per_state_p95", "ns"),
    ("nvm.external.read_into_ns_p50", "ns"),
    ("nvm.external.read_into_ns_p95", "ns"),
    ("nvm.mapped.create_ns_p50", "ns"),
    ("nvm.mapped.create_ns_p95", "ns"),
    ("nvm.mapped.sync_ns_p50", "ns"),
    ("nvm.mapped.sync_ns_p95", "ns"),
    ("harness.driver.step_ns_p50", "ns"),
    ("harness.driver.step_ns_p95", "ns"),
    ("harness.driver.encode_key_ns_p50", "ns"),
    ("harness.driver.encode_key_ns_p95", "ns"),
    ("harness.census.expansions", "count"),
    ("harness.census.distinct_shared", "count"),
    ("harness.census.steps", "count"),
    ("harness.census.engine_s", "s"),
    ("harness.census.expansions_per_s", "1/s"),
    ("harness.sched.steals", "count"),
    ("harness.sched.steal_failures", "count"),
    ("harness.sched.parks", "count"),
    ("harness.sched.flush_batches", "count"),
    ("harness.sched.imbalance", "ratio"),
    ("harness.external.bytes_spilled", "bytes"),
    ("harness.external.sort_runs", "count"),
    ("harness.external.merge_passes", "count"),
    ("harness.external.generations", "count"),
    ("harness.external.arena_segment_reads", "count"),
    ("harness.external.engine_s", "s"),
    ("harness.explore.leaves", "count"),
    ("harness.explore.unique_nodes", "count"),
    ("harness.explore.memo_hits", "count"),
    ("harness.explore.memo_hit_ratio", "ratio"),
    ("harness.explore.engine_s", "s"),
    ("harness.linearize.check_ns_per_op_p50", "ns"),
    ("harness.linearize.check_ns_per_op_p95", "ns"),
    ("harness.process_crash.kill_latency_ms_p50", "ms"),
    ("harness.process_crash.kill_latency_ms_p95", "ms"),
    ("harness.process_crash.recovery_latency_ms_p50", "ms"),
    ("harness.process_crash.recovery_latency_ms_p95", "ms"),
    ("harness.process_crash.worker_kills", "count"),
    ("harness.process_crash.recovery_kills", "count"),
    ("harness.process_crash.recovery_reentries", "count"),
    ("harness.process_crash.survivor_ops", "count"),
    ("harness.process_crash.in_flight", "count"),
    ("trace.verdict_untraced_s", "s"),
    ("trace.verdict_traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
];

/// Set-up is timed in blocks of this many calls, so a set-up of tens of
/// nanoseconds is not lost in the clock read; `setup_s` is the median
/// block's time per call.
const SETUP_BLOCK: usize = 64;
/// Set-up blocks per run.
const SETUP_BLOCKS: usize = 31;

/// A small deterministic generator (SplitMix64) for the benchmark's
/// seeded choices.
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a function of `seed` alone.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Shuffles `v` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    wrong_pin: bool,
    /// Scratch files go to `<work-dir>/<workload>-<pid>/` (removed at the
    /// end), traces to `<work-dir>/traces/`.
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut work_dir) =
        (None, None, None, None, None);
    let (mut tiny, mut wrong_pin) = (false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got {v:?}")),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            "--tiny" => tiny = true,
            "--wrong-pin" => wrong_pin = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let need = |name: &str| format!("missing {name}");
    Ok(Args {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?,
        trace: trace.ok_or_else(|| need("--trace"))?,
        tiny,
        wrong_pin,
        work_dir: work_dir.ok_or_else(|| need("--work-dir"))?,
    })
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The timings and checks of one run.
#[derive(Default)]
struct Measured {
    checked: Checked,
    setup_s: Vec<f64>,
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    /// Cycles of the workload's cycle log that belong to the warm-up.
    warmup_cycles: usize,
}

impl Measured {
    fn add(&mut self, c: Checked) {
        self.checked.attempted += c.attempted;
        self.checked.failed += c.failed;
    }
}

/// Sets up repeatedly, warms up with one verdict, then times verdicts
/// until `seconds` have passed and `min_verdicts` were measured. A traced
/// run alternates untraced and traced verdicts, so both medians come from
/// the same stretch of time.
fn measure(bench: &mut dyn Bench, tr: &mut Tracer, a: &Args) -> Measured {
    let mut m = Measured::default();
    let traced = tr.on();
    for _ in 0..SETUP_BLOCKS {
        let start = Instant::now();
        tr.span("setup", |tr| {
            for _ in 0..SETUP_BLOCK {
                bench.setup(tr);
            }
        });
        m.setup_s
            .push(start.elapsed().as_secs_f64() / SETUP_BLOCK as f64);
    }
    let min_verdicts = if a.tiny {
        1 + usize::from(traced)
    } else {
        // A traced run needs a few of each kind for the overhead; its
        // per-layer figures come from the probes.
        bench.min_verdicts().max(if traced { 6 } else { 0 })
    };
    if !a.tiny {
        tr.set_on(false);
        let c = bench.verdict(tr);
        m.add(c);
        m.warmup_cycles = bench.cycle_times().map_or(0, <[f64]>::len);
    }
    let start = Instant::now();
    let mut i = 0;
    loop {
        let traced_now = traced && i % 2 == 1;
        tr.set_on(traced_now);
        let t = Instant::now();
        let c = tr.span("verdict", |tr| bench.verdict(tr));
        let s = t.elapsed().as_secs_f64();
        if traced_now {
            m.traced_s.push(s);
        } else {
            m.untraced_s.push(s);
        }
        m.add(c);
        i += 1;
        if i >= min_verdicts && (a.tiny || start.elapsed().as_secs_f64() >= a.seconds) {
            break;
        }
    }
    tr.set_on(traced);
    m
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The tracing overhead: traced minus untraced median verdict.
fn trace_metrics(m: &Measured) -> [(&'static str, f64); 4] {
    let untraced = median(&m.untraced_s);
    let traced = median(&m.traced_s);
    [
        ("trace.verdict_untraced_s", untraced),
        ("trace.verdict_traced_s", traced),
        ("trace.overhead_s", traced - untraced),
        ("trace.overhead_share", (traced - untraced) / untraced),
    ]
}

/// Writes the spans and counts to `<work-dir>/traces/<workload>-seed<n>.json`.
fn write_trace(a: &Args, tr: &Tracer) {
    let dir = a.work_dir.join("traces");
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("{}-seed{}.json", a.workload, a.seed)),
            tr.to_json(&a.workload, a.seed),
        )
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write the trace: {e}");
    }
}

fn main() -> ExitCode {
    // Crash-fabric worker and recoverer children re-execute this binary.
    harness::maybe_run_worker(harness::default_factory);

    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cpus = host_cpus();
    let run_dir = a
        .work_dir
        .join(format!("{}-{}", a.workload, std::process::id()));
    let opts = Opts {
        seed: a.seed,
        tiny: a.tiny,
        wrong_pin: a.wrong_pin,
        dir: run_dir.clone(),
    };
    let Some(mut bench) = workloads::build(&a.workload, &opts) else {
        eprintln!(
            "perfbench: unknown workload {:?} (census, census-disk, explore, crash-soak)",
            a.workload
        );
        return ExitCode::from(2);
    };
    if bench.workers() > cpus {
        eprintln!(
            "perfbench: {} runs {} workers but this host has {cpus} CPUs; refusing to \
             measure an oversubscribed run",
            a.workload,
            bench.workers()
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    let _scratch = Scratch(run_dir.clone());

    let mut tr = Tracer::new(a.trace);
    let workload = a.workload.clone();
    let (mut m, probe) = tr.span(&workload, |tr| {
        let m = measure(&mut *bench, tr, &a);
        let probe = a.trace.then(|| {
            let worlds = bench.probe_worlds();
            tr.span("probes", |tr| {
                probes::run(&worlds, a.seed, &run_dir.join("probes"), tr)
            })
        });
        (m, probe)
    });

    let mut info = vec![
        ("host_cpus", cpus.to_string()),
        ("workers", bench.workers().to_string()),
        ("setup_blocks", m.setup_s.len().to_string()),
        (
            "verdicts",
            (m.untraced_s.len() + m.traced_s.len()).to_string(),
        ),
    ];
    let metrics = match probe {
        Some((probe_metrics, rejected)) => {
            // The recorded histories the checker probe ran are one more
            // checked unit.
            m.add(Checked {
                attempted: 1,
                failed: u64::from(rejected > 0),
            });
            let mut values = probe_metrics;
            values.extend(
                bench
                    .layer_counts()
                    .into_iter()
                    .chain(trace_metrics(&m))
                    .map(|(n, v)| (n.to_string(), v)),
            );
            write_trace(&a, &tr);
            for (name, _) in &values {
                assert!(
                    PER_LAYER.iter().any(|(n, _)| n == name),
                    "{name} is missing from PER_LAYER"
                );
            }
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let value = values.iter().find(|(n, _)| *n == name).map_or(0.0, |v| v.1);
                    (name, value, unit)
                })
                .collect()
        }
        None => {
            let verdict_s = bench.verdict_s(&m.untraced_s);
            let (p50, tail) = match bench.cycle_times() {
                Some(all) => {
                    let cycles = &all[m.warmup_cycles..];
                    let q = tail_quantile(cycles.len());
                    info.push(("cycles", cycles.len().to_string()));
                    info.push(("cycle_tail_quantile", q.to_string()));
                    (quantile(cycles, 0.5), quantile(cycles, q))
                }
                // A search verdict is one cycle; a run has too few of them
                // for any tail, so both figures are the median verdict.
                None => (verdict_s, verdict_s),
            };
            let values = [
                median(&m.setup_s),
                verdict_s,
                p50,
                tail,
                peak_rss_mb().unwrap_or(0.0),
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), value)| (name, value, unit))
                .collect::<Vec<_>>()
        }
    };
    let c = &m.checked;
    info.push((
        "failed_share",
        (c.failed as f64 / c.attempted.max(1) as f64).to_string(),
    ));
    info.extend(bench.info().into_iter().map(|(k, v)| (k, v.to_string())));
    let times: Vec<String> = m.untraced_s.iter().map(f64::to_string).collect();
    info.push(("verdict_times_s", format!("[{}]", times.join(", "))));
    let info: Vec<String> = info.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();

    for (name, value, unit) in &metrics {
        eprintln!(
            "{:<50} {value:>18.6} {unit}",
            format!("{}/{name}", a.workload)
        );
    }
    println!(
        "{{\"info\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {}}}}}",
        a.workload,
        a.seed,
        u8::from(a.trace),
        info.join(", ")
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        c.failed == 0,
        c.attempted.max(1),
        c.failed,
        json_metrics(&metrics)
    );
    if c.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
