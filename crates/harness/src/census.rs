//! The reachable-configuration census — Theorem 1 as an experiment.
//!
//! Theorem 1: every obstruction-free detectable CAS implementation over a
//! domain of size ≥ N has at least `2^N − 1` reachable configurations, no
//! two of which are memory-equivalent (equal shared-memory contents). This
//! module measures reachable shared-memory configurations empirically:
//!
//! * [`census_drive_engine`] runs a prescribed operation sequence solo-op-by-op and
//!   counts distinct shared states — with [`gray_code_cas_ops`] it follows
//!   the constructive witness (flip one process's vector bit at a time, in
//!   Gray-code order, visiting all `2^N` vectors), demonstrating that
//!   Algorithm 2 indeed *realizes* the exponential configuration count that
//!   the theorem proves necessary;
//! * [`census_bfs_engine`] breadth-first-explores every reachable configuration of
//!   a small world (all interleavings of a bounded operation budget) and
//!   counts distinct shared states — the exhaustive version, good to N = 5
//!   exactly and N = 6 under dominance pruning on the standard 2-op CAS
//!   alphabet;
//! * running either against the **non-detectable** recoverable CAS baseline
//!   shows its configuration count stays at the domain size, isolating
//!   detectability as the cause of the space blow-up.
//!
//! # Engine
//!
//! The exhaustive census is a **work-stealing parallel BFS** over system
//! configurations (memory contents + driver volatile state + remaining
//! operation budget), built from three pieces:
//!
//! * **Arena-backed states.** The census is crash-free, so a
//!   configuration's memory half is fully determined by its *logical* word
//!   image ([`SimMemory::logical_hash`] already keys on exactly that).
//!   Frontier nodes therefore carry an 8-byte [`nvm::CompactState`] handle
//!   into a shared append-only [`nvm::StateArena`] — each distinct image is
//!   stored once, however many nodes (different in-flight machines, same
//!   memory) share it — instead of a per-node
//!   [`MemSnapshot`](nvm::MemSnapshot). Peak memory drops from
//!   O(nodes × memory) toward O(nodes + distinct images), and handing a
//!   node to another worker moves one word, not a heap. **Expansion** is
//!   checkpoint-based as before: a worker installs a node's image once onto
//!   its own scratch [`fork`](SimMemory::fork) via
//!   [`load_words`](SimMemory::load_words), then enters every successor
//!   under a [`checkpoint`](SimMemory::checkpoint) and leaves via
//!   [`rollback`](SimMemory::rollback) — O(writes of one step) per
//!   successor.
//! * **Work-stealing scheduling** on the shared [`crate::sched`]
//!   substrate: each worker owns a deque (Chase-Lev discipline — the owner
//!   pushes and pops its own back, idle workers steal chunks from victims'
//!   fronts, randomized victim order, exponential backoff, parking), and
//!   termination is detected by sharded per-worker created/finished
//!   counters with a quiescence sweep — no shared frontier lock, no
//!   global pending count on a contended cache line, no wave barrier. The
//!   visited set (sharded 128-bit configuration fingerprints) and the
//!   shared-configuration set (sharded **exact** logical shared-memory
//!   keys — the quantity Theorem 1 bounds is never approximated) are
//!   unchanged.
//! * **Batched interning**: a worker stages the admitted successors of
//!   each expansion in a local [`InternStage`] and flushes them to the
//!   sharded arena in one [`StateArena::intern_batch`] call — one lock
//!   acquisition per distinct shard per flush instead of one per
//!   successor, same exact-dedup contract, same handles.
//! * **Dominance pruning** ([`BfsConfig::dominance`]) — see below.
//!
//! `visited` admission is capped at [`BfsConfig::max_states`]: a node
//! enters the frontier (and is later expanded) only if it wins one of
//! exactly `max_states` admission slots, so peak memory is O(`max_states`)
//! nodes no matter how large the reachable space is, and hitting the cap
//! sets [`CensusReport::truncated`].
//!
//! On runs that complete within `max_states`, the visited set, the
//! shared-configuration set and the expansion count are each determined by
//! the reachable state space alone — set unions are order-independent — so
//! **every parallelism level reports identical counts**. When the cap
//! truncates a parallel run, *which* configurations won admission slots is
//! scheduling-dependent (sequential truncated runs remain deterministic:
//! admission order is canonical BFS order).
//!
//! # Dominance pruning
//!
//! Two frontier nodes that agree on memory and driver state but differ in
//! consumed operation budget have nested futures: everything reachable
//! from the higher-`ops_used` copy is reachable from the lower one
//! (invocations only *gain* legality as budget frees up; machine steps are
//! budget-blind). [`BfsConfig::dominance`] exploits this quotient: the
//! budget leaves the visited fingerprint, and a configuration is
//! (re-)expanded only when seen with a strictly lower `ops_used` than any
//! admission before it — so each configuration is expanded at most a
//! handful of times instead of once per distinct budget, cutting the
//! explored node count by up to the `max_ops` factor.
//!
//! The mode is **explicitly non-count-preserving**: `work` (expansions) and
//! the number of visited nodes shrink, and under parallelism the exact
//! expansion count depends on discovery order (a configuration found at
//! budget 3 then 2 is expanded twice; found at 2 first, once). What is
//! preserved — and pinned by differential tests against the exact engine —
//! is the **verdict**: on complete runs the set of *configurations*
//! expanded is exactly the reachable set, every configuration's final
//! expansion happens at its minimal reachable budget (which generates the
//! maximal successor set), and therefore `distinct_shared`, bound
//! satisfaction and truncation match the exact engine at every thread
//! level.
//!
//! [`census_bfs_snapshot_engine`] preserves the original single-threaded
//! full-snapshot engine (exact node keys, one `restore` per successor, no
//! dominance) as the differential-testing reference and benchmark baseline.

use std::collections::hash_map::DefaultHasher;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use detectable::{OpSpec, RecoverableObject};
use nvm::{InternStage, Memory, Pid, SimMemory, StateArena, Word};

use crate::driver::{Driver, RetryPolicy};
use crate::external::SpillStats;
use crate::sched::{SchedStats, Scheduler};

/// Result of a census run.
#[derive(Clone, Debug)]
pub struct CensusReport {
    /// Distinct shared-memory configurations observed.
    pub distinct_shared: usize,
    /// The Theorem 1 lower bound `2^N − 1` for the world's process count.
    pub theorem_bound: u64,
    /// Operations completed (census_drive) or configurations expanded
    /// (census_bfs).
    pub work: usize,
    /// Scheduler actions driven: machine steps for the solo drive,
    /// successor generations (one invoke or step each) for the BFS.
    pub steps: u64,
    /// Operations that resolved (returned a response) during the run.
    pub resolved_ops: u64,
    /// Explicit persist instructions executed while driving.
    pub persists: u64,
    /// Whether a budget cut coverage short: the BFS ran out of
    /// [`BfsConfig::max_states`] admission slots with unexplored
    /// configurations remaining, or a solo drive's operation exhausted its
    /// step budget. A truncated census that misses the bound is a coverage
    /// artifact, not a refutation — see [`bound_failed`](Self::bound_failed).
    pub truncated: bool,
    /// Estimated peak resident bytes of the engine's own data structures
    /// (visited/shared sets, arena, frontier — not process RSS). In-RAM
    /// engines derive it from final set sizes (their sets only grow);
    /// the external engine tracks its bounded buffers generation by
    /// generation. `0` means the engine predates the accounting (none do
    /// today) — the solo drive reports its seen-set footprint.
    pub peak_resident_bytes: u64,
    /// Disk-tier counters when the external engine ran; `None` for the
    /// in-RAM engines.
    pub spill: Option<SpillStats>,
    /// Scheduler-action counters (steals, parks, per-worker expansions,
    /// intern-flush batches). All-zero for engines that neither schedule
    /// nor batch-intern (the solo drive and the snapshot reference).
    pub sched: SchedStats,
}

impl CensusReport {
    /// Whether the observed count meets the Theorem 1 bound.
    pub fn meets_bound(&self) -> bool {
        self.distinct_shared as u64 >= self.theorem_bound
    }

    /// Whether this run *conclusively* fails the Theorem 1 bound: the count
    /// falls short **and** coverage was complete. A truncated run below the
    /// bound is indeterminate (the missing configurations may simply not
    /// have been reached) and returns `false` here.
    pub fn bound_failed(&self) -> bool {
        !self.meets_bound() && !self.truncated
    }
}

/// Per-operation step budget for the solo drive. The paper's algorithms are
/// wait-free, so an honest implementation finishes in far fewer steps; an
/// operation still pending after this many is a model violation.
const SOLO_STEP_LIMIT: usize = 1_000_000;

/// Solo-drive census engine: runs `ops` one at a time (each to
/// completion, crash-free) and counts the distinct shared-memory
/// configurations observed after each operation (plus the initial one).
/// [`Scenario::census`](crate::Scenario::census) selects it for script
/// workloads; public for engine-level equivalence tests.
///
/// An operation that exhausts its step budget is a model violation
/// (wait-freedom says solo runs terminate): the engine `debug_assert`s,
/// stops driving — a half-executed operation would contribute a
/// partial-state configuration to the count — and reports the run as
/// [`truncated`](CensusReport::truncated).
pub fn census_drive_engine(
    obj: &dyn RecoverableObject,
    mem: &SimMemory,
    ops: &[(Pid, OpSpec)],
) -> CensusReport {
    let mut seen: HashSet<Vec<Word>> = HashSet::new();
    let mut driver = Driver::for_object(obj);
    let persists_before = mem.stats().persists;
    let mut completed = 0usize;
    let mut steps = 0u64;
    let mut truncated = false;
    seen.insert(mem.shared_key());
    for (pid, op) in ops {
        let (resp, used) = driver.try_run_solo_counted(obj, mem, pid.idx(), *op, SOLO_STEP_LIMIT);
        steps += used as u64;
        match resp {
            Some(_) => {
                completed += 1;
                seen.insert(mem.shared_key());
            }
            None => {
                debug_assert!(
                    false,
                    "census_drive: solo {op} by {pid} did not complete within \
                     {SOLO_STEP_LIMIT} steps (wait-freedom violated)"
                );
                truncated = true;
                break;
            }
        }
    }
    CensusReport {
        distinct_shared: seen.len(),
        theorem_bound: (1u64 << obj.processes()) - 1,
        work: completed,
        steps,
        resolved_ops: completed as u64,
        persists: mem.stats().persists - persists_before,
        truncated,
        peak_resident_bytes: set_bytes(seen.len(), mem.shared_key().len() * 8),
        spill: None,
        sched: SchedStats::default(),
    }
}

/// Estimated resident bytes of a hash set holding `len` entries of
/// `entry_bytes` payload each: payload plus ~32 bytes of table overhead
/// per entry (bucket word, hash, capacity headroom). All census peak
/// estimates are built from this — they account the engine's own data
/// structures, not allocator slack or process RSS.
fn set_bytes(len: usize, entry_bytes: usize) -> u64 {
    (len as u64) * (entry_bytes as u64 + 32)
}

/// The constructive Theorem 1 witness: a Gray-code walk over all `2^N`
/// toggle vectors. Step `k` has process `ctz(k)` perform one successful CAS,
/// flipping exactly its own vector bit.
///
/// Values alternate `0 → 1 → 0 → …` so each CAS's `old` argument matches the
/// current object value.
pub fn gray_code_cas_ops(n: u32) -> Vec<(Pid, OpSpec)> {
    let mut ops = Vec::new();
    let mut val = 0u32;
    for k in 1u64..(1 << n) {
        let p = k.trailing_zeros().min(n - 1);
        let new = 1 - val;
        ops.push((Pid::new(p), OpSpec::Cas { old: val, new }));
        val = new;
    }
    ops
}

/// Limits, parallelism and pruning for [`census_bfs_engine`].
#[derive(Clone, Debug)]
pub struct BfsConfig {
    /// Total operations any single execution path may start.
    pub max_ops: usize,
    /// Admission cap on the visited set: at most this many configurations
    /// are ever admitted for expansion, so peak memory is O(`max_states`)
    /// nodes (plus the per-successor shared keys they generate, bounded by
    /// the branching factor). Exactly `max_states` nodes are expanded when
    /// the cap binds, and the report is flagged
    /// [`truncated`](CensusReport::truncated).
    pub max_states: usize,
    /// Worker threads for frontier expansion; `0` is treated as `1`, and
    /// both mean sequential search (the default). Every entry point,
    /// [`Scenario`](crate::Scenario) included, passes it through
    /// unchanged. Runs that complete within `max_states` report identical
    /// counts at every setting (see the [module docs](self) for the
    /// truncation caveat).
    pub parallelism: usize,
    /// ops_used-dominance pruning: expand only the lowest-remaining-budget
    /// copy of each configuration. **Non-count-preserving** — `work`
    /// shrinks and (under parallelism) becomes scheduling-dependent — but
    /// the verdict (`distinct_shared`, bound satisfaction, truncation) is
    /// provably identical to the exact engine on complete runs; see the
    /// [module docs](self). Off by default; the exact engine remains the
    /// reference.
    pub dominance: bool,
    /// Directory for the external-memory engine's spill files (arena
    /// segments, frontier generations, sort runs, the visited-fingerprint
    /// file). `Some` routes [`Scenario::census`](crate::Scenario::census)
    /// BFS runs through [`census_bfs_external_engine`] when the object
    /// supports machine decoding
    /// ([`RecoverableObject::decodable`]); `None` (the default) keeps
    /// everything in RAM.
    ///
    /// [`census_bfs_external_engine`]: crate::external::census_bfs_external_engine
    pub disk_dir: Option<std::path::PathBuf>,
    /// Soft RAM target in bytes for the external engine's bounded buffers
    /// (arena segment + hot cache, sort chunks, admission bitmaps). `None`
    /// picks a default sized for the host; small values force multi-segment
    /// arena spill and multi-run external sorts (the differential tests use
    /// this). Advisory for the in-RAM engines (they ignore it).
    pub ram_budget: Option<usize>,
}

impl Default for BfsConfig {
    fn default() -> Self {
        BfsConfig {
            max_ops: 6,
            max_states: 2_000_000,
            parallelism: 1,
            dominance: false,
            disk_dir: None,
            ram_budget: None,
        }
    }
}

/// One frontier entry: an arena handle to the node's logical memory image,
/// the driver's volatile state, and the operation budget consumed so far.
/// Everything a worker needs to resume the configuration, at 8 bytes plus
/// the driver.
struct BfsNode {
    state: nvm::CompactState,
    driver: Driver,
    ops_used: usize,
}

/// Node key for the reference engine: operation budget, the driver's
/// volatile state (machine encodings included), and full NVM contents
/// (shared + private). Two nodes with equal keys have identical future
/// behaviour. The driver's *history* is deliberately not part of the key —
/// the census counts configurations, not paths.
fn encode_node(mem: &SimMemory, driver: &Driver, ops_used: usize) -> Vec<Word> {
    let mut key: Vec<Word> = vec![ops_used as Word];
    driver.encode_key(&mut key);
    key.extend(mem.full_key());
    key
}

/// Two independently salted 64-bit hashes of the logical image alone —
/// the memory component of the configuration fingerprint, computed in one
/// place so a generated successor pays exactly two full-image passes: the
/// halves feed [`fingerprint_image`], and the first half doubles as the
/// arena's routing/index hash on admission (a pure function of the image,
/// as [`StateArena::intern`] requires — no third pass to re-hash the same
/// words).
pub(crate) fn image_hashes(image: &[Word]) -> (u64, u64) {
    let mut halves = [0u64; 2];
    for (salt, half) in halves.iter_mut().enumerate() {
        let mut h = DefaultHasher::new();
        (salt as u64).hash(&mut h);
        image.hash(&mut h);
        *half = h.finish();
    }
    (halves[0], halves[1])
}

/// 128-bit fingerprint of the configuration [`encode_node`] keys exactly:
/// the *logical* memory image (the same identification
/// [`logical_hash`](SimMemory::logical_hash) makes — not
/// [`state_hash`](SimMemory::state_hash), whose dirty-set and crash-ordinal
/// sensitivity would split states the full-key reference engine merges),
/// driver volatile state, and — unless dominance pruning quotients it
/// away — the operation budget. Collisions (vanishingly unlikely) could
/// merge two distinct configurations — the same trade-off the explorer's
/// pruning memo makes, bought because a 16-byte fingerprint keeps a
/// multi-million-state visited set in cache where exact full-memory keys
/// thrash. Each half folds its own independently salted full-image hash
/// (from [`image_hashes`]) with the driver key, so the two halves collide
/// independently on the memory component (true 128-bit resistance, not
/// one 64-bit hash copied twice).
pub(crate) fn fingerprint_image(
    image_hashes: (u64, u64),
    driver: &Driver,
    ops_used: usize,
    dominance: bool,
    scratch: &mut Vec<Word>,
) -> (u64, u64) {
    scratch.clear();
    if !dominance {
        scratch.push(ops_used as Word);
    }
    driver.encode_key(scratch);
    let combine = |image_hash: u64| {
        let mut h = DefaultHasher::new();
        image_hash.hash(&mut h);
        scratch.hash(&mut h);
        h.finish()
    };
    (combine(image_hashes.0), combine(image_hashes.1))
}

const SHARDS: usize = 64;

/// One visited-set shard: a plain fingerprint set in exact mode (the
/// budget is already folded into the fingerprint, so storing it again
/// would spend ~8 bytes per entry on a value no one reads — real money at
/// the 20M-entry default cap), a fingerprint → lowest-admitted-budget map
/// in dominance mode.
enum VisitedShard {
    Exact(HashSet<(u64, u64)>),
    Dominance(HashMap<(u64, u64), u32>),
}

/// The visited set: sharded configuration fingerprints behind an exact
/// admission counter. [`try_admit`](Self::try_admit) hands out at most
/// `cap` slots across all threads (a reservation CAS loop, so the cap is
/// exact even under parallel insertion); a rejected-for-capacity admission
/// marks the census truncated. In dominance mode each fingerprint carries
/// the lowest `ops_used` admitted so far and re-admits when seen with a
/// strictly lower budget (consuming a fresh slot — every expansion is
/// bounded by the cap).
struct VisitedSet {
    shards: Vec<Mutex<VisitedShard>>,
    admitted: AtomicUsize,
    cap: usize,
    truncated: AtomicBool,
}

impl VisitedSet {
    fn new(cap: usize, dominance: bool) -> Self {
        VisitedSet {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(if dominance {
                        VisitedShard::Dominance(HashMap::new())
                    } else {
                        VisitedShard::Exact(HashSet::new())
                    })
                })
                .collect(),
            admitted: AtomicUsize::new(0),
            cap,
            truncated: AtomicBool::new(false),
        }
    }

    /// Reserves an admission slot before inserting, keeping the cap exact
    /// under concurrent admission from every shard.
    fn reserve_slot(&self) -> bool {
        loop {
            let c = self.admitted.load(Ordering::Relaxed);
            if c >= self.cap {
                self.truncated.store(true, Ordering::Relaxed);
                return false;
            }
            if self
                .admitted
                .compare_exchange(c, c + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
    }

    /// Admits `key` at budget `ops_used` if it warrants an expansion (novel
    /// fingerprint, or — dominance mode — strictly lower budget than every
    /// prior admission) and a slot remains; returns whether the caller now
    /// owns the expansion.
    fn try_admit(&self, key: (u64, u64), ops_used: usize) -> bool {
        let mut shard = self.shards[(key.0 as usize) % SHARDS]
            .lock()
            .expect("visited shard poisoned");
        match &mut *shard {
            VisitedShard::Exact(set) => {
                if set.contains(&key) {
                    return false;
                }
                if !self.reserve_slot() {
                    return false;
                }
                set.insert(key);
                true
            }
            VisitedShard::Dominance(map) => match map.entry(key) {
                Entry::Occupied(mut e) => {
                    if (ops_used as u32) < *e.get() {
                        if !self.reserve_slot() {
                            return false;
                        }
                        *e.get_mut() = ops_used as u32;
                        true
                    } else {
                        false
                    }
                }
                Entry::Vacant(v) => {
                    if !self.reserve_slot() {
                        return false;
                    }
                    v.insert(ops_used as u32);
                    true
                }
            },
        }
    }
}

/// The shared-configuration census set: exact logical shared-memory keys
/// (Theorem 1's memory-equivalence classes are never approximated by a
/// hash), sharded for low-contention parallel insertion.
struct SharedSeen {
    shards: Vec<Mutex<HashSet<Vec<Word>>>>,
}

impl SharedSeen {
    fn new() -> Self {
        SharedSeen {
            shards: (0..SHARDS).map(|_| Mutex::new(HashSet::new())).collect(),
        }
    }

    fn insert(&self, key: Vec<Word>) {
        // Shard selection only needs dispersion, not a full second hash of
        // the key (the shard's HashSet hashes it again on insert): a cheap
        // multiply-rotate mix of the few shared words is plenty.
        let mix = key
            .iter()
            .fold(0u64, |a, &w| (a ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.shards[(mix as usize) % SHARDS]
            .lock()
            .expect("shared-seen shard poisoned")
            .insert(key);
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shared-seen shard poisoned").len())
            .sum()
    }
}

/// The crash-free retry policy every census engine drives under.
pub(crate) const CENSUS_RETRY: RetryPolicy = RetryPolicy {
    retry_on_fail: false,
    max_retries: 0,
    reset_per_op: false,
};

/// Per-worker scratch buffers, reused across every successor.
#[derive(Default)]
struct Scratch {
    /// Logical image of the node being expanded.
    node_image: Vec<Word>,
    /// Logical image of the successor just generated.
    image: Vec<Word>,
    /// Driver-key encoding buffer for fingerprints.
    key: Vec<Word>,
}

/// A worker-local batch of admitted-but-not-yet-interned successors: one
/// expansion's worth of images staged for [`StateArena::intern_batch`],
/// with the non-image node halves kept alongside in staging order.
/// Flushing interns the whole batch (one lock per distinct shard) and
/// emits the finished [`BfsNode`]s — in generation order, so the
/// sequential engine's canonical FIFO admission order is untouched.
struct PendingBatch {
    stage: InternStage,
    /// `(driver, ops_used)` per staged image, same order.
    meta: Vec<(Driver, u32)>,
    handles: Vec<nvm::CompactState>,
}

impl PendingBatch {
    fn new(stride: usize) -> Self {
        PendingBatch {
            stage: InternStage::new(stride),
            meta: Vec::new(),
            handles: Vec::new(),
        }
    }

    /// Interns every staged image and appends the finished nodes to `out`
    /// in staging order. Returns whether anything was flushed (the
    /// scheduler's `flush_batches` stat counts non-empty flushes only).
    fn flush(&mut self, arena: &StateArena, out: &mut Vec<BfsNode>) -> bool {
        if self.stage.is_empty() {
            return false;
        }
        arena.intern_batch(&mut self.stage, &mut self.handles);
        for (&state, (driver, ops_used)) in self.handles.iter().zip(self.meta.drain(..)) {
            out.push(BfsNode {
                state,
                driver,
                ops_used: ops_used as usize,
            });
        }
        true
    }
}

/// Per-worker scheduler-action tallies, summed into the report.
#[derive(Default)]
struct Tally {
    steps: u64,
    resolved: u64,
}

/// Everything expansion needs, shared (immutably) across workers.
struct Census<'a> {
    obj: &'a dyn RecoverableObject,
    alphabet: &'a [OpSpec],
    cfg: &'a BfsConfig,
    arena: &'a StateArena,
    visited: &'a VisitedSet,
    shared_seen: &'a SharedSeen,
}

impl Census<'_> {
    /// Observes one generated successor: its shared key always, and — if it
    /// wins admission — stages its image and node halves in `batch` for
    /// the end-of-expansion flush. Admission order (the thing sequential
    /// determinism rests on) is decided here, per successor; only the
    /// interning is deferred.
    fn successor(
        &self,
        mem: &SimMemory,
        batch: &mut PendingBatch,
        scratch: &mut Scratch,
        driver: Driver,
        ops_used: usize,
    ) {
        mem.logical_words_into(&mut scratch.image);
        self.shared_seen
            .insert(mem.layout().shared_words(&scratch.image));
        let hashes = image_hashes(&scratch.image);
        let fp = fingerprint_image(
            hashes,
            &driver,
            ops_used,
            self.cfg.dominance,
            &mut scratch.key,
        );
        if self.visited.try_admit(fp, ops_used) {
            batch.stage.push(&scratch.image, hashes.0);
            batch.meta.push((driver, ops_used as u32));
        }
    }

    /// Expands one node on a scratch memory: install its image once, then
    /// enter every successor under a checkpoint and roll it back — O(writes
    /// of one step) per successor. Admitted successors are staged in
    /// `batch`; the caller flushes it ([`PendingBatch::flush`]) after the
    /// expansion.
    fn expand(
        &self,
        mem: &SimMemory,
        node: &BfsNode,
        batch: &mut PendingBatch,
        scratch: &mut Scratch,
        tally: &mut Tally,
    ) {
        self.arena.read_into(node.state, &mut scratch.node_image);
        mem.load_words(&scratch.node_image);
        for i in 0..self.obj.processes() as usize {
            if node.driver.state(i).in_flight() {
                // Step the in-flight machine.
                let cp = mem.checkpoint();
                let mut driver = node.driver.clone();
                let outcome = driver.step(self.obj, mem, i, &CENSUS_RETRY);
                tally.steps += 1;
                tally.resolved += u64::from(outcome.resolved());
                self.successor(mem, batch, scratch, driver, node.ops_used);
                mem.rollback(cp);
            } else if node.ops_used < self.cfg.max_ops {
                for op in self.alphabet {
                    let cp = mem.checkpoint();
                    let mut driver = node.driver.clone();
                    driver.invoke(self.obj, mem, i, *op, &CENSUS_RETRY);
                    tally.steps += 1;
                    self.successor(mem, batch, scratch, driver, node.ops_used + 1);
                    mem.rollback(cp);
                }
            }
        }
    }
}

/// Exhaustive crash-free reachability engine: explores every interleaving of up to
/// `cfg.max_ops` operations drawn from `alphabet` (any process, any time)
/// and counts the distinct shared-memory configurations of all reachable
/// states. See the [module docs](self) for the arena / work-stealing /
/// dominance design; `mem` itself is only read and forked, never mutated.
pub fn census_bfs_engine(
    obj: &dyn RecoverableObject,
    mem: &SimMemory,
    alphabet: &[OpSpec],
    cfg: &BfsConfig,
) -> CensusReport {
    let workers = cfg.parallelism.max(1);
    let arena = StateArena::new(mem.layout().total_words());
    let visited = VisitedSet::new(cfg.max_states, cfg.dominance);
    let shared_seen = SharedSeen::new();
    let census = Census {
        obj,
        alphabet,
        cfg,
        arena: &arena,
        visited: &visited,
        shared_seen: &shared_seen,
    };

    // Root admission: the initial configuration observes its shared key
    // unconditionally but competes for an expansion slot like any other.
    let root_driver = Driver::without_history(obj.processes());
    shared_seen.insert(mem.shared_key());
    let mut scratch = Scratch::default();
    mem.logical_words_into(&mut scratch.image);
    let root_hashes = image_hashes(&scratch.image);
    let root_fp = fingerprint_image(
        root_hashes,
        &root_driver,
        0,
        cfg.dominance,
        &mut scratch.key,
    );
    let root = visited.try_admit(root_fp, 0).then(|| BfsNode {
        state: arena.intern(&scratch.image, root_hashes.0),
        driver: root_driver,
        ops_used: 0,
    });

    let steps = AtomicU64::new(0);
    let resolved = AtomicU64::new(0);
    let persists = AtomicU64::new(0);
    let stride = mem.layout().total_words();

    let sched_stats = if workers <= 1 {
        // Sequential path: a plain FIFO keeps admission in canonical BFS
        // order, so truncated sequential runs stay deterministic (and,
        // without dominance, match the snapshot reference engine's
        // admissions exactly — the reference never prunes). Interning is
        // still batched per expansion; the flush preserves staging order,
        // so the queue order is exactly the old per-successor order.
        let fork = mem.fork();
        let mut tally = Tally::default();
        let mut batch = PendingBatch::new(stride);
        let mut queue: VecDeque<BfsNode> = VecDeque::new();
        let mut out = Vec::new();
        let mut expanded = 0u64;
        let mut flushes = 0u64;
        queue.extend(root);
        while let Some(node) = queue.pop_front() {
            census.expand(&fork, &node, &mut batch, &mut scratch, &mut tally);
            expanded += 1;
            flushes += u64::from(batch.flush(&arena, &mut out));
            queue.extend(out.drain(..));
        }
        steps.store(tally.steps, Ordering::Relaxed);
        resolved.store(tally.resolved, Ordering::Relaxed);
        persists.store(fork.stats().persists, Ordering::Relaxed);
        SchedStats {
            workers: 1,
            flush_batches: flushes,
            per_worker_expansions: vec![expanded],
            ..SchedStats::default()
        }
    } else {
        let sched: Scheduler<BfsNode> = Scheduler::new(workers);
        sched.seed(root);
        std::thread::scope(|s| {
            for id in 0..workers {
                let census = &census;
                let sched = &sched;
                let steps = &steps;
                let resolved = &resolved;
                let persists = &persists;
                let fork = mem.fork();
                s.spawn(move || {
                    // The worker handle doubles as the panic guard: its
                    // drop (normal or unwinding) aborts the scheduler, so
                    // a panicking sibling can never leave the others
                    // parked while the scope waits to join.
                    let mut worker = sched.worker(id);
                    let mut scratch = Scratch::default();
                    let mut tally = Tally::default();
                    let mut batch = PendingBatch::new(stride);
                    let mut out = Vec::new();
                    while let Some(node) = worker.next() {
                        census.expand(&fork, &node, &mut batch, &mut scratch, &mut tally);
                        if batch.flush(census.arena, &mut out) {
                            worker.note_flush();
                        }
                        // Push the successors before releasing the node:
                        // the quiescence sweep must never see created
                        // work it has not counted.
                        worker.push(&mut out);
                        worker.complete();
                    }
                    steps.fetch_add(tally.steps, Ordering::Relaxed);
                    resolved.fetch_add(tally.resolved, Ordering::Relaxed);
                    persists.fetch_add(fork.stats().persists, Ordering::Relaxed);
                });
            }
        });
        sched.stats()
    };

    let admitted = visited.admitted.load(Ordering::Relaxed);
    // Peak estimate from final sizes: the arena, the visited set and the
    // shared-configuration set only grow, and the frontier never holds
    // more than the admitted node count.
    let shared_entry = mem.shared_key().len() * 8;
    let node_bytes = std::mem::size_of::<BfsNode>() + obj.processes() as usize * 48;
    let peak = arena.stored_words() as u64 * 8
        + set_bytes(admitted, 24)
        + set_bytes(shared_seen.len(), shared_entry)
        + (admitted * node_bytes) as u64;

    CensusReport {
        distinct_shared: shared_seen.len(),
        theorem_bound: (1u64 << obj.processes()) - 1,
        // Every admitted node is expanded exactly once before the search
        // drains, so admissions are the expansion count.
        work: admitted,
        steps: steps.into_inner(),
        resolved_ops: resolved.into_inner(),
        persists: persists.into_inner(),
        truncated: visited.truncated.load(Ordering::Relaxed),
        peak_resident_bytes: peak,
        spill: None,
        sched: sched_stats,
    }
}

/// The original single-threaded full-snapshot census engine, kept as the
/// differential-testing reference for [`census_bfs_engine`]'s arena engine and as
/// the benchmark baseline (`census_throughput` / `BENCH_census.json`).
///
/// Node identity uses exact full-memory keys (no fingerprint hashing) and
/// every successor is entered by a full [`SimMemory::restore`]. Limit
/// semantics match the arena engine — `max_states` caps visited-set
/// admissions, exactly that many nodes are expanded, truncation is
/// reported — so on any world the two engines agree on every count
/// (sequentially, even under truncation: both admit in canonical BFS
/// order). `cfg.parallelism` and `cfg.dominance` are ignored: this engine
/// is always sequential and exact.
pub fn census_bfs_snapshot_engine(
    obj: &dyn RecoverableObject,
    mem: &SimMemory,
    alphabet: &[OpSpec],
    cfg: &BfsConfig,
) -> CensusReport {
    /// Reference-engine frontier entry: a full memory snapshot.
    struct SnapNode {
        snap: nvm::MemSnapshot,
        driver: Driver,
        ops_used: usize,
    }

    let n = obj.processes() as usize;
    let mut shared_seen: HashSet<Vec<Word>> = HashSet::new();
    let mut visited: HashSet<Vec<Word>> = HashSet::new();
    let mut queue: VecDeque<SnapNode> = VecDeque::new();
    let mut truncated = false;
    let persists_before = mem.stats().persists;
    let start = mem.snapshot();

    let root = SnapNode {
        snap: mem.snapshot(),
        // History-free: BFS nodes are cloned per successor and the census
        // counts configurations, never paths.
        driver: Driver::without_history(obj.processes()),
        ops_used: 0,
    };
    shared_seen.insert(mem.shared_key());
    if cfg.max_states > 0 {
        visited.insert(encode_node(mem, &root.driver, 0));
        queue.push_back(root);
    } else {
        truncated = true;
    }

    let mut expanded = 0usize;
    let mut steps = 0u64;
    let mut resolved = 0u64;
    while let Some(node) = queue.pop_front() {
        expanded += 1;
        let mut successor = |mem: &SimMemory, driver: Driver, ops_used: usize| {
            shared_seen.insert(mem.shared_key());
            let key = encode_node(mem, &driver, ops_used);
            if !visited.contains(&key) {
                if visited.len() >= cfg.max_states {
                    truncated = true;
                } else {
                    visited.insert(key);
                    queue.push_back(SnapNode {
                        snap: mem.snapshot(),
                        driver,
                        ops_used,
                    });
                }
            }
        };
        for i in 0..n {
            if node.driver.state(i).in_flight() {
                mem.restore(&node.snap);
                let mut driver = node.driver.clone();
                let outcome = driver.step(obj, mem, i, &CENSUS_RETRY);
                steps += 1;
                resolved += u64::from(outcome.resolved());
                successor(mem, driver, node.ops_used);
            } else if node.ops_used < cfg.max_ops {
                for op in alphabet {
                    mem.restore(&node.snap);
                    let mut driver = node.driver.clone();
                    driver.invoke(obj, mem, i, *op, &CENSUS_RETRY);
                    steps += 1;
                    successor(mem, driver, node.ops_used + 1);
                }
            }
        }
    }

    mem.restore(&start);
    let full_entry = mem.layout().total_words() * 8;
    let peak = set_bytes(visited.len(), full_entry)
        + set_bytes(shared_seen.len(), mem.shared_key().len() * 8)
        + (visited.len() * (full_entry + obj.processes() as usize * 48)) as u64;
    CensusReport {
        distinct_shared: shared_seen.len(),
        theorem_bound: (1u64 << obj.processes()) - 1,
        work: expanded,
        steps,
        resolved_ops: resolved,
        persists: mem.stats().persists - persists_before,
        truncated,
        peak_resident_bytes: peak,
        spill: None,
        sched: SchedStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::build_world;
    use detectable::DetectableCas;

    fn cas_alphabet() -> [OpSpec; 2] {
        [
            OpSpec::Cas { old: 0, new: 1 },
            OpSpec::Cas { old: 1, new: 0 },
        ]
    }

    #[test]
    fn gray_code_covers_all_vectors() {
        for n in 1..=4u32 {
            let ops = gray_code_cas_ops(n);
            assert_eq!(ops.len(), (1 << n) - 1);
            // Simulate the flips abstractly.
            let mut vec = 0u64;
            let mut seen = std::collections::HashSet::new();
            seen.insert(vec);
            for (pid, _) in &ops {
                vec ^= 1 << pid.get();
                seen.insert(vec);
            }
            assert_eq!(seen.len(), 1 << n, "n={n}");
        }
    }

    #[test]
    fn witness_census_meets_theorem_bound() {
        for n in 1..=6u32 {
            let (cas, mem) = build_world(|b| DetectableCas::new(b, n, 0));
            let ops = gray_code_cas_ops(n);
            let report = census_drive_engine(&cas, &mem, &ops);
            assert!(
                report.meets_bound(),
                "n={n}: {} < {}",
                report.distinct_shared,
                report.theorem_bound
            );
            assert!(!report.truncated);
            assert_eq!(report.work, ops.len());
            assert_eq!(report.resolved_ops, ops.len() as u64);
            assert!(
                report.steps >= report.resolved_ops,
                "every op takes at least one step"
            );
            // Exactly 2^N: every vector appears with a value determined by
            // the walk, so the count equals the number of vectors.
            assert_eq!(report.distinct_shared as u64, 1u64 << n);
        }
    }

    #[test]
    fn bfs_census_small_n_meets_bound() {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
        let cfg = BfsConfig {
            max_ops: 4,
            max_states: 200_000,
            ..Default::default()
        };
        let report = census_bfs_engine(&cas, &mem, &cas_alphabet(), &cfg);
        assert!(report.meets_bound(), "{report:?}");
        assert!(!report.truncated);
    }

    #[test]
    fn bfs_engine_leaves_the_input_memory_untouched() {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
        let before = mem.snapshot();
        let _ = census_bfs_engine(&cas, &mem, &cas_alphabet(), &BfsConfig::default());
        assert_eq!(mem.snapshot(), before);
    }

    #[test]
    fn max_states_one_expands_exactly_the_root() {
        // Regression: the old engine broke *before* expanding the popped
        // node, so `max_states: 1` expanded nothing yet counted one unit of
        // work. The cap now bounds admissions: the root is admitted, fully
        // expanded, and its successors are observed but not expanded.
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
        let cfg = BfsConfig {
            max_ops: 4,
            max_states: 1,
            ..Default::default()
        };
        for report in [
            census_bfs_engine(&cas, &mem, &cas_alphabet(), &cfg),
            census_bfs_snapshot_engine(&cas, &mem, &cas_alphabet(), &cfg),
        ] {
            assert_eq!(report.work, 1, "exactly max_states nodes expanded");
            assert!(report.truncated, "the cap must be reported");
        }
        // The cap bounds expansions exactly at every setting, not one off.
        for max_states in [2, 3, 10] {
            let report = census_bfs_engine(
                &cas,
                &mem,
                &cas_alphabet(),
                &BfsConfig {
                    max_states,
                    ..cfg.clone()
                },
            );
            assert_eq!(report.work, max_states, "cap {max_states}");
            assert!(report.truncated);
        }
    }

    #[test]
    fn truncation_is_flagged_and_memory_bounded() {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 3, 0));
        let cfg = BfsConfig {
            max_ops: 6,
            max_states: 100,
            ..Default::default()
        };
        let report = census_bfs_engine(&cas, &mem, &cas_alphabet(), &cfg);
        assert!(report.truncated);
        assert_eq!(report.work, 100, "admissions (hence expansions) are capped");
        // Below the bound *because* coverage was cut — not a refutation.
        assert!(!report.bound_failed());
        // A complete run of the same world is conclusive.
        let full = census_bfs_engine(
            &cas,
            &mem,
            &cas_alphabet(),
            &BfsConfig {
                max_ops: 6,
                ..Default::default()
            },
        );
        assert!(!full.truncated);
        assert!(full.meets_bound() && !full.bound_failed());
    }

    #[test]
    fn fork_engine_matches_snapshot_reference() {
        // Differential test: the parallel arena/checkpoint engine and the
        // original full-snapshot engine agree on every count, complete or
        // truncated (sequentially both admit in canonical BFS order).
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
        for (max_ops, max_states) in [(2, 200_000), (4, 200_000), (4, 37), (3, 1)] {
            let cfg = BfsConfig {
                max_ops,
                max_states,
                ..Default::default()
            };
            let fork = census_bfs_engine(&cas, &mem, &cas_alphabet(), &cfg);
            let snap = census_bfs_snapshot_engine(&cas, &mem, &cas_alphabet(), &cfg);
            assert_eq!(fork.distinct_shared, snap.distinct_shared, "{cfg:?}");
            assert_eq!(fork.work, snap.work, "{cfg:?}");
            assert_eq!(fork.truncated, snap.truncated, "{cfg:?}");
            assert_eq!(fork.steps, snap.steps, "{cfg:?}");
            assert_eq!(fork.resolved_ops, snap.resolved_ops, "{cfg:?}");
            assert_eq!(fork.persists, snap.persists, "{cfg:?}");
        }
    }

    #[test]
    fn parallel_census_counts_are_deterministic() {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 3, 0));
        let base = BfsConfig {
            max_ops: 4,
            max_states: 2_000_000,
            ..Default::default()
        };
        let seq = census_bfs_engine(&cas, &mem, &cas_alphabet(), &base);
        assert!(!seq.truncated);
        for parallelism in [2, 8] {
            let par = census_bfs_engine(
                &cas,
                &mem,
                &cas_alphabet(),
                &BfsConfig {
                    parallelism,
                    ..base.clone()
                },
            );
            assert_eq!(par.distinct_shared, seq.distinct_shared, "p={parallelism}");
            assert_eq!(par.work, seq.work, "p={parallelism}");
            assert_eq!(par.truncated, seq.truncated, "p={parallelism}");
            assert_eq!(par.steps, seq.steps, "p={parallelism}");
            assert_eq!(par.resolved_ops, seq.resolved_ops, "p={parallelism}");
            assert_eq!(par.persists, seq.persists, "p={parallelism}");
        }
    }

    #[test]
    fn dominance_preserves_the_verdict_but_not_the_work() {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 3, 0));
        let exact_cfg = BfsConfig {
            max_ops: 4,
            max_states: 2_000_000,
            ..Default::default()
        };
        let exact = census_bfs_engine(&cas, &mem, &cas_alphabet(), &exact_cfg);
        let dom = census_bfs_engine(
            &cas,
            &mem,
            &cas_alphabet(),
            &BfsConfig {
                dominance: true,
                ..exact_cfg
            },
        );
        assert!(!exact.truncated && !dom.truncated);
        assert_eq!(dom.distinct_shared, exact.distinct_shared);
        assert_eq!(dom.meets_bound(), exact.meets_bound());
        assert!(
            dom.work < exact.work,
            "dominance must actually prune ({} vs {})",
            dom.work,
            exact.work
        );
    }

    #[test]
    fn dominance_verdict_is_thread_invariant() {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 3, 0));
        let base = BfsConfig {
            max_ops: 4,
            max_states: 2_000_000,
            dominance: true,
            ..Default::default()
        };
        let seq = census_bfs_engine(&cas, &mem, &cas_alphabet(), &base);
        for parallelism in [2, 8] {
            let par = census_bfs_engine(
                &cas,
                &mem,
                &cas_alphabet(),
                &BfsConfig {
                    parallelism,
                    ..base.clone()
                },
            );
            // The verdict is canonical; `work` is scheduling-dependent in
            // dominance mode and deliberately not compared.
            assert_eq!(par.distinct_shared, seq.distinct_shared, "p={parallelism}");
            assert_eq!(par.truncated, seq.truncated, "p={parallelism}");
        }
    }
}
