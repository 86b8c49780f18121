//! Per-layer probes: timed calls into each layer's public functions on
//! the workload's own world.
//!
//! A probe world is the object (or objects) a workload runs, driven
//! through seeded random executions by the harness `Driver`. The walks
//! yield the inputs the probes replay: memory images, the words one
//! driver action changes, driver states and recorded histories. Calls of
//! a few hundred nanoseconds are timed in batches and reported per call,
//! so the clock read does not dominate. Every probe takes [`SAMPLES`]
//! samples, enough for a p95 with ten samples beyond it (the permutation
//! probe skips worlds whose layout has no per-process correspondence).

use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Instant;

use detectable::{ObjectKind, OpSpec, RecoverableObject};
use harness::{check_records_windowed, mixed_op, Driver, OpRecord, RetryPolicy};
use nvm::{
    CompactState, CrashPolicy, InternStage, Layout, LayoutBuilder, Loc, MappedFile, Pid, SimMemory,
    SpillConfig, SpillableArena, StateArena, Word,
};

use crate::stats::{quantile, CountingAlloc};
use crate::trace::Tracer;
use crate::Rng;

/// Samples per probe, pooled over the workload's worlds.
pub const SAMPLES: usize = 240;
/// Calls per timed batch.
const BATCH: usize = 32;
/// Images per arena intern batch (the census flushes a whole expansion's
/// successors at once).
const INTERN_BATCH: usize = 64;
/// Driver states collected per world.
const STATES: usize = 3000;

/// Supplies process `p`'s `i`-th operation.
pub type OpGen = Box<dyn Fn(u32, usize, &mut Rng) -> OpSpec>;

/// One world the probes run on.
pub struct ProbeWorld {
    kind: ObjectKind,
    procs: u32,
    obj: Box<dyn RecoverableObject>,
    layout: Layout,
    op: OpGen,
    /// Operations per process between quiescent cuts.
    per_window: usize,
    /// Chance of a system-wide crash after each driver action.
    crash_prob: f64,
}

impl ProbeWorld {
    /// Builds `build`'s object for `procs` processes.
    pub fn new(
        kind: ObjectKind,
        procs: u32,
        build: impl FnOnce(&mut LayoutBuilder, u32) -> Box<dyn RecoverableObject>,
        op: OpGen,
        per_window: usize,
        crash_prob: f64,
    ) -> ProbeWorld {
        let mut b = LayoutBuilder::new();
        let obj = build(&mut b, procs);
        ProbeWorld {
            kind,
            procs,
            obj,
            layout: b.finish(),
            op,
            per_window,
            crash_prob,
        }
    }

    /// Cuts per recorded history: about 64 operations or more.
    fn windows(&self) -> usize {
        (64 / (self.procs as usize * self.per_window)).max(4)
    }
}

/// A world running the kind's canonical mixed workload with rare crashes,
/// the traffic the crash fabric's workers generate.
pub fn mixed_world(
    kind: ObjectKind,
    procs: u32,
    build: impl FnOnce(&mut LayoutBuilder, u32) -> Box<dyn RecoverableObject>,
) -> ProbeWorld {
    let op: OpGen = Box::new(move |p, i, _| mixed_op(kind, Pid::new(p), i));
    ProbeWorld::new(kind, procs, build, op, 16, 0.01)
}

/// Runs one random execution of `w` on `mem`: every process performs
/// `windows * per_window` operations, all processes idle at each window's
/// end. `visit` sees the driver and memory after every action. Returns the
/// driver and the number of driver calls made.
fn execute(
    w: &ProbeWorld,
    mem: &SimMemory,
    rng: &mut Rng,
    windows: usize,
    record: bool,
    mut visit: impl FnMut(&Driver, &SimMemory),
) -> (Driver, u64) {
    let mut d = if record {
        Driver::new(w.procs)
    } else {
        Driver::without_history(w.procs)
    };
    let retry = RetryPolicy {
        retry_on_fail: false,
        max_retries: 0,
        reset_per_op: true,
    };
    let n = w.procs as usize;
    let mut issued = vec![0usize; n];
    let mut ready = Vec::with_capacity(n);
    let mut calls = 0u64;
    for window in 1..=windows {
        let target = window * w.per_window;
        loop {
            ready.clear();
            ready.extend((0..n).filter(|&i| !d.state(i).is_idle() || issued[i] < target));
            if ready.is_empty() {
                break;
            }
            let i = ready[rng.below(ready.len() as u64) as usize];
            if d.state(i).is_idle() {
                let op = (w.op)(i as u32, issued[i], rng);
                issued[i] += 1;
                d.invoke(&*w.obj, mem, i, op, &retry);
            } else {
                d.step(&*w.obj, mem, i, &retry);
            }
            calls += 1;
            if w.crash_prob > 0.0 && d.any_in_flight() && rng.chance(w.crash_prob) {
                d.crash(mem, CrashPolicy::DropAll);
            }
            visit(&d, mem);
        }
    }
    (d, calls)
}

/// What the walks of one world collected.
struct Walked {
    mem: SimMemory,
    /// The world's initial memory image.
    init: Vec<Word>,
    locs: Vec<Loc>,
    /// Driver states with the memory image they were seen with.
    states: Vec<(Driver, Vec<Word>)>,
    /// One driver action each: the index of the image before it in
    /// `states`, and the words it changed.
    edges: Vec<(usize, Vec<(usize, Word)>)>,
}

fn walk(w: &ProbeWorld, rng: &mut Rng) -> Walked {
    let mem = SimMemory::new(w.layout.clone());
    let mut locs = vec![None; w.layout.total_words()];
    for r in w.layout.regions() {
        for k in 0..r.words() as usize {
            let loc = r.base().at(k);
            locs[loc.index()] = Some(loc);
        }
    }
    let locs: Vec<Loc> = locs
        .into_iter()
        .map(|l| l.expect("regions cover the layout"))
        .collect();
    let mut init = Vec::new();
    mem.logical_words_into(&mut init);
    let mut states: Vec<(Driver, Vec<Word>)> = Vec::new();
    let mut edges = Vec::new();
    while states.len() < STATES {
        let cp = mem.checkpoint();
        let mut prev: Option<usize> = None;
        execute(w, &mem, rng, w.windows(), false, |d, m| {
            if states.len() >= STATES {
                return;
            }
            let mut image = Vec::new();
            m.logical_words_into(&mut image);
            if let Some(p) = prev {
                let delta: Vec<(usize, Word)> = image
                    .iter()
                    .zip(&states[p].1)
                    .enumerate()
                    .filter(|(_, (a, b))| a != b)
                    .map(|(i, (&a, _))| (i, a))
                    .collect();
                if !delta.is_empty() {
                    edges.push((p, delta));
                }
            }
            prev = Some(states.len());
            states.push((d.clone(), image));
        });
        mem.rollback(cp);
    }
    Walked {
        mem,
        init,
        locs,
        states,
        edges,
    }
}

/// Every permutation of `0..n`.
fn permutations(n: u32) -> Vec<Vec<u32>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for rest in permutations(n - 1) {
        for at in 0..=rest.len() {
            let mut p = rest.clone();
            p.insert(at, n - 1);
            out.push(p);
        }
    }
    out
}

/// Nanoseconds per call, for an `f` that makes `calls` calls.
fn per_call_ns(calls: usize, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// The two salted halves of a 128-bit image hash.
fn hash128(image: &[Word]) -> (u64, u64) {
    let half = |salt: u64| {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        salt.hash(&mut h);
        image.hash(&mut h);
        h.finish()
    };
    (half(0), half(1))
}

/// Timing samples of every probe, pooled over worlds.
#[derive(Default)]
struct Samples {
    checkpoint_rollback: Vec<f64>,
    logical_hash: Vec<f64>,
    permuted: Vec<f64>,
    intern_batch: Vec<f64>,
    arena_read: Vec<f64>,
    arena_bytes: f64,
    arena_distinct: f64,
    intern128_batch: Vec<f64>,
    external_read: Vec<f64>,
    mapped_create: Vec<f64>,
    mapped_sync: Vec<f64>,
    step: Vec<f64>,
    encode_key: Vec<f64>,
    check_per_op: Vec<f64>,
}

/// Runs every probe on `worlds` (scratch files under `dir`) and returns
/// the per-layer metrics, plus the number of recorded histories the
/// checker rejected (zero for detectable objects).
pub fn run(
    worlds: &[ProbeWorld],
    seed: u64,
    dir: &Path,
    tr: &mut Tracer,
) -> (Vec<(String, f64)>, u64) {
    let mut rng = Rng::new(seed ^ 0x9E0B);
    let mut s = Samples::default();
    let mut check_failures = 0;
    let per_world = SAMPLES.div_ceil(worlds.len());
    std::fs::create_dir_all(dir).expect("create the probe directory");
    for w in worlds {
        let walked = tr.span("probe.walk", |_| walk(w, &mut rng));
        tr.span("probe.nvm.memory", |_| {
            memory_probes(w, &walked, per_world, &mut rng, &mut s)
        });
        tr.span("probe.nvm.arena", |_| {
            arena_probes(&walked, per_world, &mut rng, &mut s)
        });
        tr.span("probe.nvm.external", |_| {
            external_probes(&walked, per_world, &mut rng, dir, &mut s)
        });
        tr.span("probe.nvm.mapped", |_| {
            mapped_probes(w, per_world, dir, &mut s)
        });
        tr.span("probe.harness.driver", |_| {
            driver_probes(w, &walked, per_world, &mut rng, &mut s)
        });
        check_failures += tr.span("probe.harness.linearize", |_| {
            linearize_probes(w, per_world, &mut rng, &mut s)
        });
    }
    let _ = std::fs::remove_dir_all(dir);
    let series: [(&str, &[f64]); 12] = [
        ("nvm.memory.checkpoint_rollback_ns", &s.checkpoint_rollback),
        ("nvm.memory.logical_hash_ns", &s.logical_hash),
        ("nvm.memory.logical_words_permuted_ns", &s.permuted),
        ("nvm.arena.intern_batch_ns_per_state", &s.intern_batch),
        ("nvm.arena.read_into_ns", &s.arena_read),
        (
            "nvm.external.intern128_batch_ns_per_state",
            &s.intern128_batch,
        ),
        ("nvm.external.read_into_ns", &s.external_read),
        ("nvm.mapped.create_ns", &s.mapped_create),
        ("nvm.mapped.sync_ns", &s.mapped_sync),
        ("harness.driver.step_ns", &s.step),
        ("harness.driver.encode_key_ns", &s.encode_key),
        ("harness.linearize.check_ns_per_op", &s.check_per_op),
    ];
    let mut out = Vec::new();
    for (name, v) in series {
        out.push((format!("{name}_p50"), quantile(v, 0.5)));
        out.push((format!("{name}_p95"), quantile(v, 0.95)));
    }
    out.push((
        "nvm.arena.bytes_per_distinct".to_string(),
        s.arena_bytes / s.arena_distinct.max(1.0),
    ));
    (out, check_failures)
}

fn memory_probes(w: &ProbeWorld, walked: &Walked, n: usize, rng: &mut Rng, s: &mut Samples) {
    let mem = &walked.mem;
    let pick = |rng: &mut Rng| &walked.states[rng.below(walked.states.len() as u64) as usize].1;
    for _ in 0..n {
        mem.load_words(pick(rng));
        s.logical_hash.push(per_call_ns(BATCH, || {
            for salt in 0..BATCH as u64 {
                std::hint::black_box(mem.logical_hash(salt));
            }
        }));
    }
    let perms = permutations(w.procs);
    let mut out = Vec::new();
    if mem.logical_words_permuted(&perms[0], true, &mut out) {
        for _ in 0..n {
            mem.load_words(pick(rng));
            s.permuted.push(per_call_ns(BATCH, || {
                for k in 0..BATCH {
                    let perm = &perms[k % perms.len()];
                    std::hint::black_box(mem.logical_words_permuted(perm, true, &mut out));
                }
            }));
        }
    }
    for _ in 0..n {
        let (before, delta) = &walked.edges[rng.below(walked.edges.len() as u64) as usize];
        mem.load_words(&walked.states[*before].1);
        s.checkpoint_rollback.push(per_call_ns(BATCH, || {
            for _ in 0..BATCH {
                let cp = mem.checkpoint();
                for &(idx, val) in delta {
                    mem.poke(walked.locs[idx], val);
                }
                mem.rollback(cp);
            }
        }));
    }
}

/// The walk's images in a seeded order, cycled to `len`.
fn image_stream<'a>(walked: &'a Walked, len: usize, rng: &mut Rng) -> Vec<&'a [Word]> {
    let mut order: Vec<&[Word]> = walked.states.iter().map(|(_, i)| i.as_slice()).collect();
    rng.shuffle(&mut order);
    order.iter().copied().cycle().take(len).collect()
}

fn arena_probes(walked: &Walked, n: usize, rng: &mut Rng, s: &mut Samples) {
    let stride = walked.locs.len();
    let images = image_stream(walked, n * INTERN_BATCH, rng);
    CountingAlloc::start();
    let arena = StateArena::new(stride);
    let mut stage = InternStage::new(stride);
    let mut handles = Vec::new();
    let mut all = Vec::new();
    for chunk in images.chunks(INTERN_BATCH) {
        for img in chunk {
            stage.push(img, StateArena::hash_image(img));
        }
        s.intern_batch.push(per_call_ns(chunk.len(), || {
            arena.intern_batch(&mut stage, &mut handles)
        }));
        all.extend_from_slice(&handles);
    }
    let bytes = CountingAlloc::stop();
    // The handles and stage are the probe's own; the rest is the arena.
    let own =
        ((all.capacity() + handles.capacity()) * std::mem::size_of::<CompactState>()) as isize;
    s.arena_bytes += (bytes - own).max(0) as f64;
    s.arena_distinct += arena.distinct() as f64;
    let mut out = Vec::with_capacity(stride);
    for _ in 0..n {
        let picks: Vec<_> = (0..BATCH)
            .map(|_| all[rng.below(all.len() as u64) as usize])
            .collect();
        s.arena_read.push(per_call_ns(BATCH, || {
            for &h in &picks {
                arena.read_into(h, &mut out);
            }
        }));
    }
}

/// Images per spilled segment in the external-arena probe: small, so the
/// walk's images fill dozens of segments and reads go to their files.
const PROBE_SEG_SLOTS: usize = 64;

fn external_probes(walked: &Walked, n: usize, rng: &mut Rng, dir: &Path, s: &mut Samples) {
    let stride = walked.locs.len();
    let spill = dir.join("arena");
    std::fs::create_dir_all(&spill).expect("create the probe spill directory");
    let arena = SpillableArena::new(
        stride,
        SpillConfig {
            seg_slots: PROBE_SEG_SLOTS,
            hot_segments: 2,
            disk_dir: Some(spill.clone()),
        },
    );
    let images = image_stream(walked, n * INTERN_BATCH, rng);
    let mut flat = Vec::with_capacity(INTERN_BATCH * stride);
    let mut hashes = Vec::with_capacity(INTERN_BATCH);
    let mut handles = Vec::new();
    let mut all = Vec::new();
    for chunk in images.chunks(INTERN_BATCH) {
        flat.clear();
        hashes.clear();
        for img in chunk {
            flat.extend_from_slice(img);
            hashes.push(hash128(img));
        }
        s.intern128_batch.push(per_call_ns(chunk.len(), || {
            arena.intern128_batch(&flat, &hashes, &mut handles)
        }));
        all.extend_from_slice(&handles);
    }
    let mut out = Vec::with_capacity(stride);
    for _ in 0..n {
        let picks: Vec<u64> = (0..BATCH)
            .map(|_| all[rng.below(all.len() as u64) as usize])
            .collect();
        s.external_read.push(per_call_ns(BATCH, || {
            for &h in &picks {
                arena.read_into(h, &mut out);
            }
        }));
    }
    drop(arena);
    let _ = std::fs::remove_dir_all(&spill);
}

fn mapped_probes(w: &ProbeWorld, n: usize, dir: &Path, s: &mut Samples) {
    let path = dir.join("probe.nvm");
    let words = w.layout.total_words();
    for k in 0..n {
        let start = Instant::now();
        let file = MappedFile::create(&path, words).expect("create a mapped file");
        s.mapped_create.push(start.elapsed().as_nanos() as f64);
        for i in 0..words {
            file.word(i)
                .store((k + i) as u64, std::sync::atomic::Ordering::SeqCst);
        }
        let start = Instant::now();
        file.sync();
        s.mapped_sync.push(start.elapsed().as_nanos() as f64);
    }
    let _ = std::fs::remove_file(&path);
}

fn driver_probes(w: &ProbeWorld, walked: &Walked, n: usize, rng: &mut Rng, s: &mut Samples) {
    let mem = &walked.mem;
    mem.load_words(&walked.init);
    for _ in 0..n {
        let cp = mem.checkpoint();
        let start = Instant::now();
        let (_, calls) = execute(w, mem, rng, 1, false, |_, _| {});
        let ns = start.elapsed().as_nanos() as f64;
        mem.rollback(cp);
        s.step.push(ns / calls.max(1) as f64);
    }
    let mut out = Vec::new();
    for _ in 0..n {
        let (d, _) = &walked.states[rng.below(walked.states.len() as u64) as usize];
        s.encode_key.push(per_call_ns(BATCH, || {
            for _ in 0..BATCH {
                out.clear();
                d.encode_key(&mut out);
            }
        }));
    }
}

/// Records `n` histories of the world and times the windowed checker on
/// each. Returns how many it rejected.
fn linearize_probes(w: &ProbeWorld, n: usize, rng: &mut Rng, s: &mut Samples) -> u64 {
    let mem = SimMemory::new(w.layout.clone());
    let mut rejected = 0;
    for _ in 0..n {
        let cp = mem.checkpoint();
        let (d, _) = execute(w, &mem, rng, w.windows(), true, |_, _| {});
        mem.rollback(cp);
        let records: Vec<OpRecord> = d.history().to_records();
        let start = Instant::now();
        let verdict = check_records_windowed(w.kind, &records);
        s.check_per_op
            .push(start.elapsed().as_nanos() as f64 / records.len().max(1) as f64);
        if let Err(v) = verdict {
            eprintln!("checker rejected a recorded {:?} history:\n{v:?}", w.kind);
            rejected += 1;
        }
    }
    rejected
}
