//! **Experiment E2** — Theorem 2 / Figure 2: detectability requires
//! auxiliary state.
//!
//! For every doubly-perturbing object we run the Figure 2-shaped script with
//! a system-wide crash allowed at every primitive step, twice:
//!
//! * with the honest caller protocol (auxiliary state provided) — every
//!   execution must be durably linearizable and detectably honest;
//! * wrapped in `WithoutPrepare` (auxiliary state withheld) — the explorer
//!   must find the adversarial execution the theorem constructs.
//!
//! The max register (not doubly-perturbing, Lemma 4) is probed with a
//! crash-heavy [`Scenario`] instead and must stay clean despite having no
//! auxiliary state at all — the other side of the classification boundary.
//!
//! Run: `cargo run --release -p bench --bin theorem2_demo`

use baselines::{TaggedCas, TaggedRegister, WithoutPrepare};
use bench::{markdown_table, reject_unknown_flags};
use detectable::{
    DetectableCas, DetectableCounter, DetectableFaa, DetectableQueue, DetectableRegister,
    DetectableSwap, DetectableTas, MaxRegister, OpSpec, RecoverableObject,
};
use harness::{build_world, probe_aux_state, CrashModel, ExploreConfig, Scenario, Workload};
use nvm::{Pid, SimMemory};

fn probe(name: &str, aux: bool, obj: &dyn RecoverableObject, mem: &SimMemory) -> Vec<String> {
    let out = probe_aux_state(obj, mem);
    vec![
        name.into(),
        if aux {
            "provided".into()
        } else {
            "withheld".into()
        },
        out.leaves.to_string(),
        match &out.violation {
            None => "clean".into(),
            Some(_) => "VIOLATION (as predicted)".into(),
        },
    ]
}

fn main() {
    reject_unknown_flags(&[], &[]);
    let mut rows = Vec::new();

    macro_rules! both {
        ($name:expr, $make:expr) => {{
            let (obj, mem) = build_world($make);
            rows.push(probe($name, true, &obj, &mem));
            let (obj, mem) = build_world(|b| WithoutPrepare::new($make(b)));
            rows.push(probe($name, false, &obj, &mem));
        }};
    }

    both!(
        "detectable-register (Alg 1)",
        |b: &mut nvm::LayoutBuilder| { DetectableRegister::new(b, 2, 0) }
    );
    both!("detectable-cas (Alg 2)", |b: &mut nvm::LayoutBuilder| {
        DetectableCas::new(b, 2, 0)
    });
    both!("detectable-counter", |b: &mut nvm::LayoutBuilder| {
        DetectableCounter::new(b, 2)
    });
    both!("detectable-faa", |b: &mut nvm::LayoutBuilder| {
        DetectableFaa::new(b, 2)
    });
    both!("detectable-swap", |b: &mut nvm::LayoutBuilder| {
        DetectableSwap::new(b, 2)
    });
    both!("detectable-tas", |b: &mut nvm::LayoutBuilder| {
        DetectableTas::new(b, 2)
    });
    both!("detectable-queue", |b: &mut nvm::LayoutBuilder| {
        DetectableQueue::new(b, 2, 64)
    });
    both!("tagged-register [3]-style", |b: &mut nvm::LayoutBuilder| {
        TaggedRegister::new(b, 2)
    });
    both!("tagged-cas [4]-style", |b: &mut nvm::LayoutBuilder| {
        TaggedCas::new(b, 2)
    });

    // The boundary case: Algorithm 3 receives no auxiliary state by design
    // and must survive the same adversarial exploration — as a Scenario.
    let boundary = Scenario::custom(|b| Box::new(MaxRegister::new(b, 2)))
        .label("max-register (Alg 3)")
        .workload(Workload::script(vec![
            (Pid::new(0), OpSpec::WriteMax(1)),
            (Pid::new(1), OpSpec::Read),
            (Pid::new(1), OpSpec::WriteMax(2)),
            (Pid::new(0), OpSpec::WriteMax(1)),
            (Pid::new(1), OpSpec::Read),
        ]))
        .faults(CrashModel::exhaustive(1))
        .explore(&ExploreConfig::default());
    rows.push(vec![
        boundary.object.clone(),
        "none exists".into(),
        boundary.stats.executions.to_string(),
        if boundary.passed {
            "clean (Lemma 4 boundary)".into()
        } else {
            "VIOLATION (unexpected!)".into()
        },
    ]);

    println!("# E2 — Theorem 2: auxiliary state is necessary for detectability\n");
    println!(
        "{}",
        markdown_table(
            &["object", "auxiliary state", "executions checked", "result"],
            &rows
        )
    );

    // Show one concrete Figure 2 execution for the deprived register.
    let (reg, mem) = build_world(|b| WithoutPrepare::new(DetectableRegister::new(b, 2, 0)));
    let out = probe_aux_state(&reg, &mem);
    if let Some(v) = out.violation {
        println!("\n## The Figure 2 execution found against the deprived register\n");
        println!("{v}");
    }
}
