//! **Experiment E16/E18** — real-process SIGKILL/recover soak.
//!
//! Unlike `soak_table` (which *simulates* crash storms inside one
//! process), every cycle here spawns real OS processes driving traffic
//! against file-mapped NVM, SIGKILLs at a randomized point, remaps the
//! files, recovers every in-flight operation, and checks the stitched
//! pre-crash + recovery history for durable linearizability and
//! detectability. Two topologies:
//!
//! * default: one child per cycle runs all paper processes as threads and
//!   the whole child dies (E16);
//! * `--procs-as-processes`: one child *per paper process* over the same
//!   files; the parent SIGKILLs a randomized `--kill-subset` of them while
//!   the survivors keep running, then runs each dead process's recovery in
//!   its own child — SIGKILLing that recoverer mid-recovery up to
//!   `--recovery-kills` nested times before the final re-entry converges
//!   (E18, the recovery-idempotence soak).
//!
//! The eight paper objects must come through with **zero unresolved
//! operations and zero check failures**; the two non-detectable baselines
//! are negative controls — their `fail`-for-everything recovery lies about
//! operations that did linearize, and the stitched-history check is
//! expected to catch them in the act.
//!
//! Run: `cargo run --release -p bench --bin soak -- \
//!     [--cycles N] [--ops N] [--procs N] [--kill-window US] [--seed S] \
//!     [--cache private|shared] [--procs-as-processes] [--kill-subset N] \
//!     [--recovery-kills K] [--json]`
//!
//! Exits nonzero if any *detectable* row leaves an operation unresolved,
//! fails a check, or errors.

use baselines::{NonDetectableCas, NonDetectableRegister};
use bench::{flag_present, flag_value, json_mode, markdown_table, reject_unknown_flags};
use detectable::{ObjectKind, RecoverableObject};
use harness::process_crash::{
    default_factory, kind_name, maybe_run_worker, run_cycle, CrashCycleConfig,
};
use nvm::{CacheMode, LayoutBuilder};

/// The soak's object universe: the eight paper-default implementations
/// plus the two non-detectable negative controls.
fn factory(
    name: &str,
    b: &mut LayoutBuilder,
    n: u32,
    qcap: u32,
) -> Option<Box<dyn RecoverableObject>> {
    match name {
        "nondetectable-register" => Some(Box::new(NonDetectableRegister::new(b, n))),
        "nondetectable-cas" => Some(Box::new(NonDetectableCas::new(b, n))),
        _ => default_factory(name, b, n, qcap),
    }
}

struct Row {
    object: String,
    kind: ObjectKind,
    detectable: bool,
    cycles: u64,
    crashed_cycles: u64,
    worker_kills: u64,
    survivor_ops: u64,
    ops_completed: u64,
    in_flight: u64,
    recovered_ok: u64,
    recovered_failed: u64,
    recovered_unresolved: u64,
    recovery_kills: u64,
    recovery_reentries: u64,
    check_failures: u64,
    errors: u64,
    kill_us_sum: u64,
    recovery_us_sum: u64,
}

impl Row {
    fn json(&self) -> String {
        format!(
            "{{\"object\":\"{}\",\"kind\":\"{}\",\"detectable\":{},\"cycles\":{},\
             \"crashed_cycles\":{},\"worker_kills\":{},\"survivor_ops\":{},\
             \"ops_completed\":{},\"in_flight\":{},\
             \"recovered_ok\":{},\"recovered_failed\":{},\
             \"recovered_unresolved\":{},\"recovery_kills\":{},\
             \"recovery_reentries\":{},\
             \"check_failures\":{},\"errors\":{},\"expected_failures\":{},\
             \"avg_kill_latency_us\":{},\"avg_recovery_latency_us\":{}}}",
            self.object,
            kind_name(self.kind),
            self.detectable,
            self.cycles,
            self.crashed_cycles,
            self.worker_kills,
            self.survivor_ops,
            self.ops_completed,
            self.in_flight,
            self.recovered_ok,
            self.recovered_failed,
            self.recovered_unresolved,
            self.recovery_kills,
            self.recovery_reentries,
            self.check_failures,
            self.errors,
            !self.detectable,
            self.kill_us_sum / self.cycles.max(1),
            self.recovery_us_sum / self.cycles.max(1),
        )
    }

    fn clean(&self) -> bool {
        self.recovered_unresolved == 0 && self.check_failures == 0 && self.errors == 0
    }
}

/// Parses `--{flag}` as a positive integer with `census_table`-style
/// diagnostics: a present-but-valueless flag already panics inside
/// [`flag_value`], a non-numeric value names the flag, and zero is
/// rejected outright instead of producing a degenerate run.
fn positive_flag(flag: &str, default: u64) -> u64 {
    match flag_value(flag) {
        None => default,
        Some(v) => {
            let n: u64 = v
                .parse()
                .unwrap_or_else(|_| panic!("--{flag} expects a positive integer, got {v:?}"));
            assert_ne!(n, 0, "--{flag} must be greater than zero");
            n
        }
    }
}

fn main() {
    maybe_run_worker(factory);
    reject_unknown_flags(
        &[
            "cycles",
            "ops",
            "procs",
            "kill-window",
            "seed",
            "cache",
            "kill-subset",
            "recovery-kills",
        ],
        &["procs-as-processes", "json"],
    );

    let cycles: u64 = positive_flag("cycles", 25);
    let total_ops: usize = positive_flag("ops", 900) as usize;
    let procs: u32 = positive_flag("procs", 3) as u32;
    let kill_window_us: u64 = positive_flag("kill-window", 3_000);
    let seed: u64 = flag_value("seed").map_or(1, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--seed expects an integer, got {v:?}"))
    });
    let cache = match flag_value("cache").as_deref() {
        Some("shared") => CacheMode::SharedCache,
        Some("private") | None => CacheMode::PrivateCache,
        Some(other) => panic!("--cache expects private|shared, got {other:?}"),
    };
    let fabric = flag_present("procs-as-processes");
    let kill_subset: u32 = positive_flag("kill-subset", 1) as u32;
    let recovery_kills: u32 = flag_value("recovery-kills").map_or(0, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--recovery-kills expects an integer, got {v:?}"))
    });
    if fabric {
        assert_eq!(
            cache,
            CacheMode::PrivateCache,
            "--procs-as-processes requires --cache private: the shared-cache overlay \
             is volatile per-address-space state and cannot stay coherent across \
             real worker processes"
        );
        assert!(
            kill_subset <= procs,
            "--kill-subset must be at most --procs ({procs}), got {kill_subset}"
        );
    }
    let ops_per_proc = (total_ops / procs as usize).max(1);

    let objects: Vec<(String, ObjectKind)> = [
        ObjectKind::Register,
        ObjectKind::Cas,
        ObjectKind::MaxRegister,
        ObjectKind::Counter,
        ObjectKind::Faa,
        ObjectKind::Swap,
        ObjectKind::Tas,
        ObjectKind::Queue,
    ]
    .into_iter()
    .map(|k| (kind_name(k).to_string(), k))
    .chain([
        ("nondetectable-register".to_string(), ObjectKind::Register),
        ("nondetectable-cas".to_string(), ObjectKind::Cas),
    ])
    .collect();

    let root = std::env::temp_dir().join(format!("soak-{}", std::process::id()));
    let mut rows = Vec::new();
    for (object, kind) in objects {
        // The queue arena never recycles nodes: capacity must cover every
        // enqueue a full cycle can attempt.
        let qcap = (procs as usize * ops_per_proc + 1) as u32;
        let detectable = {
            let mut b = LayoutBuilder::new();
            factory(&object, &mut b, procs, qcap)
                .expect("factory")
                .detectable()
        };
        let mut cfg = CrashCycleConfig::new(kind);
        cfg.object = object.clone();
        cfg.procs = procs;
        cfg.ops_per_proc = ops_per_proc;
        cfg.queue_capacity = qcap;
        cfg.cache_mode = cache;
        cfg.seed = seed;
        cfg.kill_window_us = kill_window_us;
        cfg.procs_as_processes = fabric;
        cfg.kill_subset = kill_subset;
        cfg.recovery_kills = recovery_kills;
        cfg.dir = root.join(&object);

        let mut row = Row {
            object,
            kind,
            detectable,
            cycles,
            crashed_cycles: 0,
            worker_kills: 0,
            survivor_ops: 0,
            ops_completed: 0,
            in_flight: 0,
            recovered_ok: 0,
            recovered_failed: 0,
            recovered_unresolved: 0,
            recovery_kills: 0,
            recovery_reentries: 0,
            check_failures: 0,
            errors: 0,
            kill_us_sum: 0,
            recovery_us_sum: 0,
        };
        for cycle in 0..cycles {
            match run_cycle(&cfg, factory, cycle) {
                Ok(r) => {
                    row.crashed_cycles += u64::from(r.crashed);
                    row.worker_kills += r.worker_kills as u64;
                    row.survivor_ops += r.survivor_ops as u64;
                    row.ops_completed += r.ops_completed as u64;
                    row.in_flight += r.in_flight as u64;
                    row.recovered_ok += r.recovered_ok as u64;
                    row.recovered_failed += r.recovered_failed as u64;
                    row.recovered_unresolved += r.recovered_unresolved as u64;
                    row.recovery_kills += r.recovery_kills as u64;
                    row.recovery_reentries += r.recovery_reentries as u64;
                    row.check_failures += u64::from(!r.check_ok);
                    row.kill_us_sum += r.kill_latency_us;
                    row.recovery_us_sum += r.recovery_latency_us;
                    if !r.check_ok && detectable {
                        eprintln!(
                            "VIOLATION: {} cycle {cycle}:\n{}",
                            row.object,
                            r.violation.as_deref().unwrap_or("(unrendered)")
                        );
                    }
                }
                Err(e) => {
                    row.errors += 1;
                    eprintln!("ERROR: {} cycle {cycle}: {e}", row.object);
                }
            }
        }
        rows.push(row);
    }
    let _ = std::fs::remove_dir_all(&root);

    let total_cycles: u64 = rows.iter().map(|r| r.cycles).sum();
    if json_mode() {
        let body: Vec<String> = rows.iter().map(Row::json).collect();
        println!(
            "{{\"kill_window_us\":{kill_window_us},\"procs\":{procs},\
             \"procs_as_processes\":{fabric},\"kill_subset\":{kill_subset},\
             \"recovery_kills\":{recovery_kills},\
             \"ops_per_cycle\":{},\"cycles_per_object\":{cycles},\
             \"total_cycles\":{total_cycles},\"cache\":\"{}\",\"rows\":[{}]}}",
            ops_per_proc * procs as usize,
            if cache == CacheMode::SharedCache {
                "shared"
            } else {
                "private"
            },
            body.join(",")
        );
    } else {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.object.clone(),
                    format!("{}/{}", r.worker_kills, r.recovery_kills),
                    format!("{}", r.ops_completed),
                    format!("{}", r.in_flight),
                    format!("{}/{}", r.recovered_ok, r.recovered_failed),
                    format!("{}", r.recovered_unresolved),
                    if r.detectable {
                        if r.clean() {
                            "0 (clean)".into()
                        } else {
                            format!(
                                "{} VIOLATIONS",
                                r.check_failures + r.recovered_unresolved + r.errors
                            )
                        }
                    } else {
                        format!("{} (expected)", r.check_failures)
                    },
                ]
            })
            .collect();
        println!(
            "# {} — real-process SIGKILL soak ({total_cycles} cycles, {procs} {}, \
             {}-op cycles, {kill_window_us}us kill window, {recovery_kills} recovery kills)\n",
            if fabric { "E18" } else { "E16" },
            if fabric {
                "worker processes"
            } else {
                "threads/child"
            },
            ops_per_proc * procs as usize
        );
        println!(
            "{}",
            markdown_table(
                &[
                    "object",
                    "kills (worker/recovery)",
                    "ops completed",
                    "in flight",
                    "recovered ok/fail",
                    "unresolved",
                    "check failures",
                ],
                &table,
            )
        );
        println!(
            "\nDetectable objects must lose nothing: every operation the durable log shows\n\
             in flight at the kill resolves through Recover with a definite verdict — even\n\
             when recovery itself is SIGKILLed and re-entered — and the stitched history\n\
             linearizes. The nondetectable baselines document the failure mode: their\n\
             recovery disclaims operations that really linearized, and the history check\n\
             catches the lie."
        );
    }

    let bad: Vec<&Row> = rows.iter().filter(|r| r.detectable && !r.clean()).collect();
    if !bad.is_empty() {
        for r in bad {
            eprintln!(
                "FAIL: {} left {} ops unresolved, {} check failures, {} errors",
                r.object, r.recovered_unresolved, r.check_failures, r.errors
            );
        }
        std::process::exit(1);
    }
}
