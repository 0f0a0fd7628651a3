//! Reverse sweeps over the segmented tape: serial and parallel, always
//! bit-identical.
//!
//! A reverse sweep visits nodes in decreasing id order; node `i`'s adjoint
//! is complete only after every node `j > i` has contributed, so the sweep
//! is sequential *across* segments. The parallelism here is in the
//! **merge**: while the single sweep thread walks segment `s`, its adjoint
//! contributions to earlier segments are not scattered into a huge adjoint
//! vector (a cache-miss per contribution on NPB-sized tapes) but appended
//! to per-target *frontier buffers* — ordered lists of
//! `(offset, contribution)` pairs. Worker threads own disjoint target
//! segments and replay those buffers into the per-segment adjoint chunks
//! concurrently with the sweep of later segments.
//!
//! **Determinism.** Floating-point addition is not associative, so
//! bit-identity with the serial sweep requires that every adjoint slot
//! receive *the same contributions in the same order*. The serial order
//! for slot `k` is decreasing contributor id: all contributions from
//! segment `N`, then all from `N−1`, … each group internally in decreasing
//! id. The parallel sweep preserves exactly that order: frontier buffers
//! are emitted in decreasing-id order within a segment, each `(source s,
//! target t)` buffer is sent at most once, sources sweep in decreasing
//! order, and the worker owning `t` replays its queue FIFO — so slot `k`'s
//! additions happen in serial order even though *different* slots merge
//! concurrently. That schedule lives in one place — the private
//! `run_frontier_sweep` — shared by both sweeps; a private `SweepKernel`
//! supplies the per-segment math. The property suite (`crates/ad/tests/segmented.rs`) checks
//! `to_bits`-equality on random tapes; the root
//! `tests/sweep_equivalence.rs` checks it on real NPB recordings.
//!
//! Structural reachability uses the same schedule with per-segment
//! **bitsets**: reachability is a monotone OR, so its merge order could
//! not matter — the deterministic schedule is shared anyway.
//!
//! **Bounded memory.** Under a [`crate::TapeCheckpointConfig`] the sweep
//! thread fetches each segment through [`crate::segment`]'s windowed
//! `view` instead of a resident slice: evicted segments are re-recorded
//! (and digest-verified) on demand through the replay context, and
//! segments behind the sweep are demoted again, so tape residency stays at
//! `O(ncheckpoints · segment)` for the whole walk. Only the single sweep
//! thread touches segment columns — the merge workers operate on adjoint
//! chunks alone — so the frontier schedule (and its bit-identity argument)
//! is untouched by eviction.

use crate::error::AdError;
use crate::replay::{ReplayCtx, TapeReplay};
use crate::segment::{Dir, Segment, NONE};
use crate::tape::Tape;
use scrutiny_obs::Recorder;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};

/// How a reverse sweep should run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepConfig {
    /// Total threads the sweep may use (the sweep thread itself plus merge
    /// workers). `0` means one thread per available core; `1` forces the
    /// serial sweep. Results are bit-identical for every value.
    pub threads: usize,
}

impl SweepConfig {
    /// Force the serial (seed-equivalent) sweep.
    pub fn serial() -> SweepConfig {
        SweepConfig { threads: 1 }
    }

    /// Use exactly `threads` threads (sweep thread + `threads − 1` merge
    /// workers).
    pub fn with_threads(threads: usize) -> SweepConfig {
        SweepConfig { threads }
    }

    fn resolve(self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        }
    }
}

/// Everything one sweep call takes besides its seed: the [`SweepConfig`],
/// the replayer a checkpointed tape re-records evicted segments through,
/// and the recorder the sweep reports to. A bare [`SweepConfig`] converts
/// into options with no replayer and a disabled recorder.
#[derive(Clone, Default)]
pub struct SweepOptions<'a> {
    /// Threads for the sweep.
    pub config: SweepConfig,
    /// Deterministic re-run of the recorded computation, used to
    /// re-record evicted segments of a tape recorded under a
    /// [`crate::TapeCheckpointConfig`]; results stay bit-identical to the
    /// unbounded sweep and a diverging replay is
    /// [`AdError::ReplayDivergence`]. `None` makes any evicted segment an
    /// [`AdError::SegmentEvicted`].
    pub replay: Option<&'a dyn TapeReplay>,
    /// Obs sink: the sweep runs under an `ad.sweep.<kind>` span (fields
    /// `nodes`, `segments`), exports its [`SweepStats`] as
    /// `ad.sweep.<kind>.*` gauges, and reports each re-recorded window as
    /// an `ad.replay` span. Disabled by default, which costs one branch.
    pub recorder: Recorder,
}

impl From<SweepConfig> for SweepOptions<'_> {
    fn from(config: SweepConfig) -> Self {
        SweepOptions {
            config,
            ..SweepOptions::default()
        }
    }
}

/// What a reverse sweep did, for the analysis report and the benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Segments the sweep visited (those at or below the seed node).
    pub segments: usize,
    /// Threads used: `1` for the serial sweep, sweep thread + merge
    /// workers for the parallel sweep.
    pub threads: usize,
    /// Adjoint (or reachability) contributions that crossed a segment
    /// boundary and were routed through frontier buffers. `0` for serial
    /// sweeps, which scatter directly.
    pub cross_contribs: u64,
    /// True when the frontier-merge workers ran.
    pub parallel: bool,
    /// Segments re-recorded by replay during this sweep; `0` when every
    /// segment was resident.
    pub replayed_segments: u64,
    /// High-water mark of resident tape-arena bytes over the tape's
    /// lifetime so far (recording included). Under a
    /// [`crate::TapeCheckpointConfig`] this is the measurable
    /// bounded-memory guarantee: it stays within
    /// `ncheckpoints × segment bytes` however long the tape is.
    pub peak_resident_bytes: usize,
}

impl SweepStats {
    /// Exports the stats as obs gauges `ad.sweep.<which>.*` (gauge *set*
    /// semantics: the most recent sweep of a given kind wins, so the
    /// gauges are a log, never the source of a report). `which` is one of
    /// the sweep kinds: `value`, `reach`, or `datadep`.
    pub fn emit(&self, rec: &scrutiny_obs::Recorder, which: &str) {
        if !rec.is_enabled() {
            return;
        }
        rec.set_gauge(&format!("ad.sweep.{which}.segments"), self.segments as i64);
        rec.set_gauge(&format!("ad.sweep.{which}.threads"), self.threads as i64);
        rec.set_gauge(
            &format!("ad.sweep.{which}.cross_contribs"),
            self.cross_contribs as i64,
        );
        rec.set_gauge(
            &format!("ad.sweep.{which}.parallel"),
            i64::from(self.parallel),
        );
        rec.set_gauge(
            &format!("ad.sweep.{which}.replayed_segments"),
            self.replayed_segments as i64,
        );
        rec.set_gauge(
            &format!("ad.sweep.{which}.peak_resident_bytes"),
            self.peak_resident_bytes as i64,
        );
    }

    /// Merges stats from repeated sweeps over the same tape (burn-in
    /// aggregation): structural fields (`segments`, `threads`,
    /// `peak_resident_bytes`) take the maximum, traffic counters
    /// (`cross_contribs`, `replayed_segments`) **sum**, `parallel` ORs.
    pub fn merged_with(&self, other: &SweepStats) -> SweepStats {
        SweepStats {
            segments: self.segments.max(other.segments),
            threads: self.threads.max(other.threads),
            cross_contribs: self.cross_contribs + other.cross_contribs,
            parallel: self.parallel || other.parallel,
            replayed_segments: self.replayed_segments + other.replayed_segments,
            peak_resident_bytes: self.peak_resident_bytes.max(other.peak_resident_bytes),
        }
    }
}

/// Result of a value reverse sweep: the adjoint of every tape node.
#[derive(Debug)]
pub struct Gradient {
    pub(crate) adj: Vec<f64>,
}

impl Gradient {
    /// Derivative of the output with respect to the value `x`.
    ///
    /// Constants have zero derivative by definition.
    pub fn wrt(&self, x: crate::Adj) -> f64 {
        match x.index() {
            Some(idx) => self.adj[idx as usize],
            None => 0.0,
        }
    }

    /// Derivative of the output with respect to tape node `idx`.
    pub fn of_node(&self, idx: u64) -> f64 {
        self.adj[idx as usize]
    }

    /// Adjoints for a contiguous range of node ids (as produced when a
    /// whole checkpointed array is turned into leaves).
    pub fn of_range(&self, start: u64, len: usize) -> &[f64] {
        &self.adj[start as usize..start as usize + len]
    }

    /// Total number of adjoints (== tape length).
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when the sweep covered an empty tape.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }
}

/// Reject sweeps on poisoned tapes and out-of-range seeds.
pub(crate) fn check_seed(tape: &Tape, out: u64) -> Result<(), AdError> {
    tape.check_not_overflowed()?;
    if out >= tape.len() as u64 {
        return Err(AdError::NodeOutOfRange {
            node: out,
            len: tape.len() as u64,
        });
    }
    Ok(())
}

/// Sweeps seeded by a constant output touch nothing; report them as such.
pub(crate) fn constant_stats() -> SweepStats {
    SweepStats {
        segments: 0,
        threads: 1,
        cross_contribs: 0,
        parallel: false,
        replayed_segments: 0,
        peak_resident_bytes: 0,
    }
}

/// Fill in the replay/residency fields once a sweep finished: how many
/// segments this context re-recorded, and the tape's resident high-water
/// mark (which the sweep may just have raised).
fn finalize_stats(mut stats: SweepStats, tape: &Tape, ctx: &ReplayCtx<'_>) -> SweepStats {
    stats.replayed_segments = ctx.replayed_count();
    stats.peak_resident_bytes = tape.store().peak_resident_bytes();
    stats
}

// ---- the shared deterministic schedule -----------------------------------

/// The per-segment math of one sweep; [`run_frontier_sweep`] supplies the
/// deterministic schedule (segment order, frontier routing, merge waits)
/// around it, once, for both sweeps.
trait SweepKernel: Sync {
    /// Per-segment accumulator: an adjoint chunk or a bitset.
    type Chunk: Send;
    /// One cross-segment frontier contribution.
    type Item: Send;

    /// A zeroed accumulator for a segment holding `nodes` nodes.
    fn new_chunk(&self, nodes: usize) -> Self::Chunk;

    /// Plant the sweep seed at `off` in the seed segment's chunk.
    fn seed(&self, chunk: &mut Self::Chunk, off: usize);

    /// Sweep one segment in decreasing offset order: apply same-segment
    /// contributions directly to `chunk`, push cross-segment ones onto
    /// `frontier[target]` in emission order.
    fn sweep_segment(
        &self,
        seg: &Segment,
        s: usize,
        shift: u32,
        mask: u64,
        chunk: &mut Self::Chunk,
        frontier: &mut [Vec<Self::Item>],
    );

    /// Replay one frontier buffer into a target segment's chunk.
    fn merge(&self, chunk: &mut Self::Chunk, list: &[Self::Item]);
}

/// Coordination state shared between the sweep thread and merge workers.
struct Gate {
    lock: Mutex<()>,
    cvar: Condvar,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            lock: Mutex::new(()),
            cvar: Condvar::new(),
        }
    }

    /// Block until `applied` reaches `expected`.
    fn wait_for(&self, applied: &AtomicU64, expected: u64) {
        let mut guard = self.lock.lock().unwrap();
        while applied.load(Ordering::Acquire) < expected {
            guard = self.cvar.wait(guard).unwrap();
        }
    }

    /// Record one applied buffer and wake the sweep thread.
    fn bump(&self, applied: &AtomicU64) {
        let _guard = self.lock.lock().unwrap();
        applied.fetch_add(1, Ordering::Release);
        self.cvar.notify_all();
    }
}

/// Run `kernel` under the deterministic frontier-merge schedule and return
/// the per-segment chunks (for segments `0..=seed segment`) plus stats.
///
/// Worker `w` owns every target segment `t` with `t % workers == w`, so
/// chunk access is disjoint; the sweep thread sends each `(source,
/// target)` buffer at most once, in decreasing source order, and waits for
/// `applied[s] == sent[s]` before sweeping segment `s` — at which point no
/// later source can send to `s` again, so per-slot merge order equals the
/// serial contribution order.
///
/// Segment columns are fetched through windowed views — only this thread
/// touches them, so eviction/replay composes with the merge schedule
/// without changing it. A replay failure aborts the sweep with its typed
/// error once the workers have drained.
fn run_frontier_sweep<K: SweepKernel>(
    tape: &Tape,
    out: u64,
    workers: usize,
    kernel: &K,
    ctx: &ReplayCtx<'_>,
) -> Result<(Vec<K::Chunk>, SweepStats), AdError> {
    let store = tape.store();
    let shift = store.shift();
    let mask = store.mask();
    let last_seg = (out >> shift) as usize;

    let chunks: Vec<Mutex<K::Chunk>> = (0..=last_seg)
        .map(|s| Mutex::new(kernel.new_chunk(store.seg_nodes(s))))
        .collect();
    kernel.seed(&mut chunks[last_seg].lock().unwrap(), (out & mask) as usize);
    let applied: Vec<AtomicU64> = (0..=last_seg).map(|_| AtomicU64::new(0)).collect();
    let gate = Gate::new();
    let mut cross = 0u64;
    let mut failed = None;

    let mut txs = Vec::with_capacity(workers);
    let mut rxs = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (tx, rx) = mpsc::channel::<(usize, Vec<K::Item>)>();
        txs.push(tx);
        rxs.push(rx);
    }

    std::thread::scope(|scope| {
        for rx in rxs {
            let chunks = &chunks;
            let applied = &applied;
            let gate = &gate;
            scope.spawn(move || {
                // FIFO replay of this worker's queue preserves the
                // decreasing-source order the sweep thread sends in.
                while let Ok((t, list)) = rx.recv() {
                    kernel.merge(&mut chunks[t].lock().unwrap(), &list);
                    gate.bump(&applied[t]);
                }
            });
        }

        // The sweep itself, on this thread: decreasing segment order.
        let mut sent = vec![0u64; last_seg + 1];
        for s in (0..=last_seg).rev() {
            // Segment `s` may be swept once every frontier buffer sent to
            // it (all from segments > s, all already swept) is merged.
            gate.wait_for(&applied[s], sent[s]);
            let seg = match store.view(s, Dir::Rev, ctx) {
                Ok(seg) => seg,
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            };
            let mut frontier: Vec<Vec<K::Item>> = (0..s).map(|_| Vec::new()).collect();
            kernel.sweep_segment(
                &seg,
                s,
                shift,
                mask,
                &mut chunks[s].lock().unwrap(),
                &mut frontier,
            );
            for (t, list) in frontier.into_iter().enumerate() {
                if list.is_empty() {
                    continue;
                }
                cross += list.len() as u64;
                sent[t] += 1;
                txs[t % workers]
                    .send((t, list))
                    .expect("merge worker exited before the sweep finished");
            }
        }
        drop(txs);
    });
    if let Some(e) = failed {
        return Err(e);
    }

    let stats = SweepStats {
        segments: last_seg + 1,
        threads: workers + 1,
        cross_contribs: cross,
        parallel: true,
        ..constant_stats()
    };
    Ok((
        chunks
            .into_iter()
            .map(|c| c.into_inner().unwrap())
            .collect(),
        stats,
    ))
}

// ---- value sweep ---------------------------------------------------------

/// Serial value sweep: the seed algorithm, walked segment by segment.
pub(crate) fn gradient_serial(
    tape: &Tape,
    out: u64,
    ctx: &ReplayCtx<'_>,
) -> Result<(Gradient, SweepStats), AdError> {
    check_seed(tape, out)?;
    let store = tape.store();
    let shift = store.shift();
    let mut adj = vec![0.0f64; tape.len()];
    adj[out as usize] = 1.0;
    let last_seg = (out >> shift) as usize;
    for s in (0..=last_seg).rev() {
        let seg = store.view(s, Dir::Rev, ctx)?;
        let base = s << shift;
        let top = if s == last_seg {
            out as usize - base
        } else {
            seg.len() - 1
        };
        for off in (0..=top).rev() {
            let a = adj[base + off];
            if a == 0.0 {
                continue;
            }
            let p1 = seg.p1[off];
            if p1 != NONE {
                adj[p1 as usize] += a * seg.d1[off];
            }
            let p2 = seg.p2[off];
            if p2 != NONE {
                adj[p2 as usize] += a * seg.d2[off];
            }
        }
    }
    let stats = SweepStats {
        segments: last_seg + 1,
        threads: 1,
        cross_contribs: 0,
        parallel: false,
        ..constant_stats()
    };
    Ok((Gradient { adj }, stats))
}

/// Adjoint multiply-add over `f64` chunks.
struct GradientKernel;

impl SweepKernel for GradientKernel {
    type Chunk = Vec<f64>;
    type Item = (u32, f64);

    fn new_chunk(&self, nodes: usize) -> Vec<f64> {
        vec![0.0; nodes]
    }

    fn seed(&self, chunk: &mut Vec<f64>, off: usize) {
        chunk[off] = 1.0;
    }

    fn sweep_segment(
        &self,
        seg: &Segment,
        s: usize,
        shift: u32,
        mask: u64,
        chunk: &mut Vec<f64>,
        frontier: &mut [Vec<(u32, f64)>],
    ) {
        // Offsets above the seed (in the seed segment) hold 0 and are
        // skipped, matching the serial sweep's `top` bound.
        for off in (0..chunk.len()).rev() {
            let a = chunk[off];
            if a == 0.0 {
                continue;
            }
            for (p, d) in [(seg.p1[off], seg.d1[off]), (seg.p2[off], seg.d2[off])] {
                if p == NONE {
                    continue;
                }
                let ps = (p >> shift) as usize;
                if ps == s {
                    chunk[(p & mask) as usize] += a * d;
                } else {
                    frontier[ps].push(((p & mask) as u32, a * d));
                }
            }
        }
    }

    fn merge(&self, chunk: &mut Vec<f64>, list: &[(u32, f64)]) {
        for &(off, v) in list {
            chunk[off as usize] += v;
        }
    }
}

/// Parallel value sweep: the shared schedule with the adjoint kernel —
/// bit-identical to [`gradient_serial`].
pub(crate) fn gradient_parallel(
    tape: &Tape,
    out: u64,
    threads: usize,
    ctx: &ReplayCtx<'_>,
) -> Result<(Gradient, SweepStats), AdError> {
    check_seed(tape, out)?;
    let last_seg = (out >> tape.store().shift()) as usize;
    // A single segment has no cross-segment frontier; nothing to merge.
    let workers = threads.saturating_sub(1).min(last_seg);
    if workers == 0 {
        return gradient_serial(tape, out, ctx);
    }
    let (chunks, stats) = run_frontier_sweep(tape, out, workers, &GradientKernel, ctx)?;
    let mut adj = Vec::with_capacity(tape.len());
    for chunk in chunks {
        adj.extend(chunk);
    }
    adj.resize(tape.len(), 0.0);
    Ok((Gradient { adj }, stats))
}

/// Value sweep with automatic serial/parallel choice. Bit-identical either
/// way; parallel only pays off when several segments and cores exist.
pub(crate) fn gradient_auto(
    tape: &Tape,
    out: u64,
    cfg: SweepConfig,
    ctx: &ReplayCtx<'_>,
) -> Result<(Gradient, SweepStats), AdError> {
    let threads = cfg.resolve();
    let (g, stats) = if threads >= 2 && (out >> tape.store().shift()) >= 1 {
        gradient_parallel(tape, out, threads, ctx)?
    } else {
        gradient_serial(tape, out, ctx)?
    };
    Ok((g, finalize_stats(stats, tape, ctx)))
}

// ---- structural sweep ----------------------------------------------------

#[inline]
fn bit_set(words: &mut [u64], off: usize) {
    words[off >> 6] |= 1u64 << (off & 63);
}

#[inline]
fn bit_get(words: &[u64], off: usize) -> bool {
    words[off >> 6] & (1u64 << (off & 63)) != 0
}

/// Serial structural sweep (seed algorithm over segments).
pub(crate) fn reachable_serial(
    tape: &Tape,
    out: u64,
    ctx: &ReplayCtx<'_>,
) -> Result<(Vec<bool>, SweepStats), AdError> {
    check_seed(tape, out)?;
    let store = tape.store();
    let shift = store.shift();
    let mut reach = vec![false; tape.len()];
    reach[out as usize] = true;
    let last_seg = (out >> shift) as usize;
    for s in (0..=last_seg).rev() {
        let seg = store.view(s, Dir::Rev, ctx)?;
        let base = s << shift;
        let top = if s == last_seg {
            out as usize - base
        } else {
            seg.len() - 1
        };
        for off in (0..=top).rev() {
            if !reach[base + off] {
                continue;
            }
            let p1 = seg.p1[off];
            if p1 != NONE {
                reach[p1 as usize] = true;
            }
            let p2 = seg.p2[off];
            if p2 != NONE {
                reach[p2 as usize] = true;
            }
        }
    }
    let stats = SweepStats {
        segments: last_seg + 1,
        threads: 1,
        cross_contribs: 0,
        parallel: false,
        ..constant_stats()
    };
    Ok((reach, stats))
}

/// Monotone OR over per-segment bitset chunks (one bit per node).
struct ReachKernel;

impl SweepKernel for ReachKernel {
    type Chunk = Vec<u64>;
    type Item = u32;

    fn new_chunk(&self, nodes: usize) -> Vec<u64> {
        vec![0u64; nodes.div_ceil(64)]
    }

    fn seed(&self, chunk: &mut Vec<u64>, off: usize) {
        bit_set(chunk, off);
    }

    fn sweep_segment(
        &self,
        seg: &Segment,
        s: usize,
        shift: u32,
        mask: u64,
        chunk: &mut Vec<u64>,
        frontier: &mut [Vec<u32>],
    ) {
        for off in (0..seg.len()).rev() {
            if !bit_get(chunk, off) {
                continue;
            }
            for p in [seg.p1[off], seg.p2[off]] {
                if p == NONE {
                    continue;
                }
                let ps = (p >> shift) as usize;
                if ps == s {
                    bit_set(chunk, (p & mask) as usize);
                } else {
                    frontier[ps].push((p & mask) as u32);
                }
            }
        }
    }

    fn merge(&self, chunk: &mut Vec<u64>, list: &[u32]) {
        for &off in list {
            bit_set(chunk, off as usize);
        }
    }
}

/// Parallel structural sweep: the shared schedule with the bitset kernel.
/// Reachability is a monotone OR, so any merge order gives the same bits;
/// the deterministic schedule of the value sweep is reused regardless.
pub(crate) fn reachable_parallel(
    tape: &Tape,
    out: u64,
    threads: usize,
    ctx: &ReplayCtx<'_>,
) -> Result<(Vec<bool>, SweepStats), AdError> {
    check_seed(tape, out)?;
    let store = tape.store();
    let last_seg = (out >> store.shift()) as usize;
    let workers = threads.saturating_sub(1).min(last_seg);
    if workers == 0 {
        return reachable_serial(tape, out, ctx);
    }
    let (chunks, stats) = run_frontier_sweep(tape, out, workers, &ReachKernel, ctx)?;
    let mut reach = Vec::with_capacity(tape.len());
    for (s, words) in chunks.into_iter().enumerate() {
        let n = store.seg_nodes(s);
        reach.extend((0..n).map(|off| bit_get(&words, off)));
    }
    reach.resize(tape.len(), false);
    Ok((reach, stats))
}

/// Structural sweep with automatic serial/parallel choice.
pub(crate) fn reachable_auto(
    tape: &Tape,
    out: u64,
    cfg: SweepConfig,
    ctx: &ReplayCtx<'_>,
) -> Result<(Vec<bool>, SweepStats), AdError> {
    let threads = cfg.resolve();
    let (r, stats) = if threads >= 2 && (out >> tape.store().shift()) >= 1 {
        reachable_parallel(tape, out, threads, ctx)?
    } else {
        reachable_serial(tape, out, ctx)?
    };
    Ok((r, finalize_stats(stats, tape, ctx)))
}
