//! **Experiment E4** — step complexity / wait-freedom (Lemmas 1 and 2).
//!
//! Measures primitive steps per operation under adversarial random
//! schedules (seeded, maximum over many runs). Worlds are built through the
//! [`Scenario`] vocabulary and stepped through the shared [`Driver`]
//! caller protocol; the all-processes-busy schedule itself is bespoke to
//! this experiment (it measures machine steps, not histories):
//!
//! * Algorithm 1 `Write` is wait-free with exactly `N + 10` steps — linear
//!   in N because of the toggle-bit loop, but independent of contention;
//! * Algorithm 2 `Cas` is wait-free with ≤ 5 steps, independent of both N
//!   and contention;
//! * Algorithm 3 `Read` is only obstruction-free: its max step count grows
//!   with contention (double-collect restarts), while `Write-Max` stays
//!   constant;
//! * the composed counter's `Inc` is lock-free: bounded only by retries.
//!
//! Run: `cargo run --release -p bench --bin steps_table [-- --json]`

use bench::{json_mode, markdown_table, reject_unknown_flags};
use detectable::{ObjectKind, OpSpec};
use harness::{Driver, RetryPolicy, Scenario, StepOutcome};
use nvm::Pid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `rounds` of an all-processes-busy random schedule through the
/// shared driver, returning the step count of each completed operation
/// together with the operation.
fn measure(
    scenario: &Scenario,
    workload: impl Fn(Pid, usize) -> OpSpec,
    rounds: usize,
    seed: u64,
) -> Vec<(OpSpec, usize)> {
    let (obj, mem) = scenario.build();
    let n = obj.processes() as usize;
    let retry = RetryPolicy {
        retry_on_fail: false,
        max_retries: 0,
        reset_per_op: false,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    // History-free: two events per op inside the measurement loop would be
    // measured as algorithm cost.
    let mut driver = Driver::without_history(obj.processes());
    let mut current: Vec<Option<OpSpec>> = vec![None; n];
    let mut steps: Vec<usize> = vec![0; n];
    let mut op_count: Vec<usize> = vec![0; n];
    let mut done = 0usize;
    let mut all = Vec::new();

    while done < rounds {
        let i = rng.gen_range(0..n);
        if current[i].is_none() {
            let op = workload(Pid::new(i as u32), op_count[i]);
            op_count[i] += 1;
            driver.invoke(&*obj, &mem, i, op, &retry);
            current[i] = Some(op);
            steps[i] = 0;
        }
        // Invocation and first machine step share a scheduler pick, matching
        // the schedule this table has always measured under.
        steps[i] += 1;
        if let StepOutcome::Returned(_) = driver.step(&*obj, &mem, i, &retry) {
            all.push((current[i].take().expect("op in flight"), steps[i]));
            done += 1;
        }
        assert!(
            steps[i] < 5_000_000,
            "operation starved beyond plausibility"
        );
    }
    all
}

fn row(
    name: &str,
    op: &str,
    n: u32,
    scenario: Scenario,
    workload: impl Fn(Pid, usize) -> OpSpec,
    filter: impl Fn(&OpSpec) -> bool,
) -> Vec<String> {
    let samples: Vec<usize> = measure(&scenario, workload, 2_000, 42)
        .into_iter()
        .filter(|(o, _)| filter(o))
        .map(|(_, s)| s)
        .collect();
    if samples.is_empty() {
        // No operation of this type completed within the round budget: the
        // operation was starved — the observable face of obstruction-freedom
        // (a solo run would finish; see the solo rows).
        return vec![
            name.into(),
            op.into(),
            n.to_string(),
            "starved".into(),
            "starved".into(),
            "starved".into(),
        ];
    }
    let min = samples.iter().copied().min().unwrap_or(0);
    let max = samples.iter().copied().max().unwrap_or(0);
    let mean = samples.iter().sum::<usize>() as f64 / samples.len().max(1) as f64;
    vec![
        name.into(),
        op.into(),
        n.to_string(),
        min.to_string(),
        format!("{mean:.1}"),
        max.to_string(),
    ]
}

fn main() {
    reject_unknown_flags(&[], &["json"]);
    let mut rows = Vec::new();
    for n in [2u32, 4, 8, 16] {
        rows.push(row(
            "detectable-register (Alg 1)",
            "Write",
            n,
            Scenario::object(ObjectKind::Register).processes(n),
            |pid, i| OpSpec::Write(pid.get() * 1000 + i as u32),
            |o| matches!(o, OpSpec::Write(_)),
        ));
    }
    for n in [2u32, 4, 8, 16] {
        rows.push(row(
            "detectable-register (Alg 1)",
            "Read",
            n,
            Scenario::object(ObjectKind::Register).processes(n),
            |pid, i| {
                if pid.get() == 0 {
                    OpSpec::Read
                } else {
                    OpSpec::Write(i as u32 % 7)
                }
            },
            |o| matches!(o, OpSpec::Read),
        ));
    }
    for n in [2u32, 4, 8, 16, 32] {
        rows.push(row(
            "detectable-cas (Alg 2)",
            "Cas",
            n,
            Scenario::object(ObjectKind::Cas).processes(n),
            |pid, i| OpSpec::Cas {
                old: i as u32 % 5,
                new: pid.get() + i as u32 % 5,
            },
            |o| matches!(o, OpSpec::Cas { .. }),
        ));
    }
    for n in [2u32, 4, 8, 16] {
        rows.push(row(
            "max-register (Alg 3)",
            "Read (contended)",
            n,
            Scenario::object(ObjectKind::MaxRegister).processes(n),
            |pid, i| {
                if pid.get() == 0 {
                    OpSpec::Read
                } else {
                    OpSpec::WriteMax(i as u32)
                }
            },
            |o| matches!(o, OpSpec::Read),
        ));
    }
    for n in [2u32, 4, 8] {
        rows.push(row(
            "max-register (Alg 3)",
            "WriteMax",
            n,
            Scenario::object(ObjectKind::MaxRegister).processes(n),
            |_pid, i| OpSpec::WriteMax(i as u32),
            |o| matches!(o, OpSpec::WriteMax(_)),
        ));
    }
    for n in [2u32, 4, 8] {
        rows.push(row(
            "detectable-counter (composed)",
            "Inc (contended)",
            n,
            Scenario::object(ObjectKind::Counter).processes(n),
            |_pid, _i| OpSpec::Inc,
            |o| matches!(o, OpSpec::Inc),
        ));
    }

    if json_mode() {
        // Steps rows are a bespoke measurement, not verdicts: emit the rows
        // as a JSON table with the same columns as the Markdown output.
        let cells: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"object\":\"{}\",\"operation\":\"{}\",\"n\":{},\
                     \"min\":\"{}\",\"mean\":\"{}\",\"max\":\"{}\"}}",
                    r[0], r[1], r[2], r[3], r[4], r[5]
                )
            })
            .collect();
        println!("[{}]", cells.join(","));
        return;
    }

    println!("# E4 — primitive steps per operation under random schedules\n");
    println!(
        "{}",
        markdown_table(&["object", "operation", "N", "min", "mean", "max"], &rows)
    );
    println!(
        "\nShape check: Alg 1 Write is exactly N + 10 steps at every contention level\n\
         (wait-free, Θ(N)); Alg 2 Cas is ≤ 5 steps independent of N (wait-free, O(1));\n\
         Alg 3 Read max grows with writers (obstruction-free only); the composed Inc\n\
         max grows with contention (lock-free)."
    );
}
