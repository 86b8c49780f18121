//! **Experiments E5 and E7** — crash-storm soak with full history checking.
//!
//! One [`Sweep`]: every object fanned across 300 seeds of randomized
//! crash-storm simulation on worker threads, each history checked for
//! durable linearizability + detectability (Lemmas 1 and 2 at random
//! scale). With `--cache shared` the same soak runs in the shared-cache
//! model with the adversarial `DropAll` line-loss policy — validating the
//! paper's Section 6 claim that the algorithms (with their persist
//! instructions) remain correct under the Izraelevitz transformation;
//! persist counts are reported.
//!
//! Run: `cargo run --release -p bench --bin soak_table [-- --cache private|shared] [--json]`

use baselines::{TaggedCas, TaggedRegister};
use bench::{flag_value, json_mode, markdown_table, reject_unknown_flags};
use detectable::ObjectKind;
use harness::{CrashModel, Scenario, SimConfig, Sweep, Workload};
use nvm::CacheMode;

fn main() {
    reject_unknown_flags(&["cache"], &["json"]);
    let mode = match flag_value("cache").as_deref() {
        Some("shared") => CacheMode::SharedCache,
        Some("private") | None => CacheMode::PrivateCache,
        Some(other) => panic!("--cache expects private|shared, got {other:?}"),
    };
    let seeds = 300u64;

    let kinds = [
        (ObjectKind::Register, "detectable-register (Alg 1)"),
        (ObjectKind::Cas, "detectable-cas (Alg 2)"),
        (ObjectKind::MaxRegister, "max-register (Alg 3)"),
        (ObjectKind::Counter, "detectable-counter"),
        (ObjectKind::Faa, "detectable-faa"),
        (ObjectKind::Swap, "detectable-swap"),
        (ObjectKind::Tas, "detectable-tas"),
        (ObjectKind::Queue, "detectable-queue"),
    ];
    let mut scenarios: Vec<Scenario> = kinds
        .iter()
        .map(|(kind, label)| Scenario::object(*kind).label(*label))
        .collect();
    scenarios.push(
        Scenario::custom(|b| Box::new(TaggedRegister::new(b, 3)))
            .label("tagged-register [3]-style"),
    );
    scenarios
        .push(Scenario::custom(|b| Box::new(TaggedCas::new(b, 3))).label("tagged-cas [4]-style"));

    let report = Sweep::over(scenarios.into_iter().map(|s| {
        s.processes(3)
            .memory(mode)
            .workload(Workload::mixed(3))
            .faults(CrashModel::storms(0.03))
    }))
    .seeds(0..seeds)
    .parallelism(8)
    .simulate(&SimConfig::default());

    if json_mode() {
        println!("{}", report.to_json());
        return;
    }

    let rows: Vec<Vec<String>> = report
        .by_object()
        .iter()
        .map(|r| {
            vec![
                r.object.clone(),
                r.runs.to_string(),
                r.stats.resolved_ops.to_string(),
                r.stats.crashes.to_string(),
                format!(
                    "{:.1}",
                    r.stats.persists as f64 / r.stats.resolved_ops.max(1) as f64
                ),
                if r.failures == 0 {
                    "0 (clean)".into()
                } else {
                    format!("{} VIOLATIONS", r.failures)
                },
            ]
        })
        .collect();

    println!(
        "# E5/E7 — crash-storm soak ({:?}, DropAll line loss, crash_prob 3%)\n",
        mode
    );
    println!(
        "{}",
        markdown_table(
            &[
                "object",
                "histories",
                "resolved ops",
                "crashes",
                "persists/op",
                "violations"
            ],
            &rows,
        )
    );
    println!(
        "\nEvery checked history must linearize durably with honest recovery verdicts;\n\
         in shared-cache mode correctness additionally survives adversarial loss of\n\
         every unpersisted cache line at each crash (paper §6)."
    );
}
