//! Deterministic re-recording of evicted tape segments.
//!
//! Under a [`crate::TapeCheckpointConfig`] most of the tape is not kept in
//! memory: evicted segments survive only as `(len, digest)` summaries (see
//! [`crate::segment`]). When a sweep needs one, the *same computation that
//! produced the tape* is run again with a replay sink installed in
//! place of the recording tape: the sink counts every node so ids come out
//! identical, but materializes columns only for the window of segments the
//! sweep asked for. The re-recorded bytes are then checked against the
//! stored digests — any nondeterminism in the replayed computation is a
//! typed [`crate::AdError::ReplayDivergence`], never a silently wrong
//! gradient.

use crate::segment::Segment;
use scrutiny_obs::Recorder;
use std::sync::atomic::AtomicU64;

/// A deterministic re-run of the computation that recorded the tape.
///
/// The contract is strict determinism: called any number of times, the
/// closure must perform the *exact same* sequence of tracked operations
/// (same order, same operands, same partials) as the original recording.
/// Every re-recorded segment is digest-verified, so a violation surfaces
/// as [`crate::AdError::ReplayDivergence`] rather than a wrong result.
///
/// Any `Fn()` closure implements this; it is invoked with a replay sink
/// installed on the thread, so the tracked arithmetic inside needs no
/// changes — and must *not* open its own [`crate::TapeSession`].
pub trait TapeReplay {
    /// Re-run the recorded computation once.
    fn replay(&self);
}

impl<F: Fn()> TapeReplay for F {
    fn replay(&self) {
        self()
    }
}

/// The thread-local recording target during a replay: assigns ids by
/// counting (so they match the original recording) and stores columns only
/// for segments inside the requested window.
pub(crate) struct ReplaySink {
    /// Next node id (== nodes replayed so far).
    next: u64,
    shift: u32,
    win_start: usize,
    segs: Vec<Segment>,
}

impl ReplaySink {
    fn new(shift: u32, win_start: usize, win_len: usize, seg_len: usize) -> ReplaySink {
        ReplaySink {
            next: 0,
            shift,
            win_start,
            segs: (0..win_len)
                .map(|_| Segment::with_capacity(seg_len))
                .collect(),
        }
    }

    /// Counterpart of the tape's push: always advances the id counter,
    /// materializes only inside the window.
    #[inline]
    pub(crate) fn push(&mut self, p1: u64, d1: f64, p2: u64, d2: f64) -> u64 {
        let idx = self.next;
        self.next += 1;
        let s = (idx >> self.shift) as usize;
        if let Some(local) = s.checked_sub(self.win_start) {
            if let Some(seg) = self.segs.get_mut(local) {
                seg.p1.push(p1);
                seg.p2.push(p2);
                seg.d1.push(d1);
                seg.d2.push(d2);
            }
        }
        idx
    }
}

/// Re-record the window `[win_start, win_start + win_len)` of segments by
/// running `replayer` against a [`ReplaySink`], returning the materialized
/// segments and the *total* number of nodes the replay pushed (the
/// whole-tape divergence check). The sink is installed on this thread for
/// the duration and removed again even if the replayer panics.
pub(crate) fn rerecord(
    replayer: &dyn TapeReplay,
    shift: u32,
    win_start: usize,
    win_len: usize,
    seg_len: usize,
) -> (Vec<Segment>, u64) {
    crate::tape::begin_replay(ReplaySink::new(shift, win_start, win_len, seg_len));
    // Clear the thread-local sink even on unwind, so a panicking replay
    // closure cannot leave a poisoned recording slot behind.
    struct Cleanup;
    impl Drop for Cleanup {
        fn drop(&mut self) {
            crate::tape::abort_replay();
        }
    }
    let cleanup = Cleanup;
    replayer.replay();
    std::mem::forget(cleanup);
    let sink = crate::tape::take_replay();
    (sink.segs, sink.next)
}

/// Sweep-side replay context: the registered replayer (if any), the obs
/// recorder `ad.replay` spans go to, and a counter of segments re-recorded
/// during this sweep (reported in [`crate::SweepStats`]).
pub(crate) struct ReplayCtx<'a> {
    pub(crate) replayer: Option<&'a dyn TapeReplay>,
    pub(crate) rec: Recorder,
    pub(crate) replayed: AtomicU64,
}

impl<'a> ReplayCtx<'a> {
    /// No replayer: sweeps fail with a typed error on any evicted segment.
    pub(crate) fn none() -> ReplayCtx<'static> {
        ReplayCtx {
            replayer: None,
            rec: Recorder::disabled(),
            replayed: AtomicU64::new(0),
        }
    }

    /// Replay through `replayer` (if any), reporting spans to `rec`.
    pub(crate) fn new(replayer: Option<&'a dyn TapeReplay>, rec: Recorder) -> ReplayCtx<'a> {
        ReplayCtx {
            replayer,
            rec,
            replayed: AtomicU64::new(0),
        }
    }

    /// Segments re-recorded so far under this context.
    pub(crate) fn replayed_count(&self) -> u64 {
        self.replayed.load(std::sync::atomic::Ordering::Relaxed)
    }
}
