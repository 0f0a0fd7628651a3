//! Outside-in tracing: spans around the benchmark's calls into each layer,
//! recorded into one benchmark-owned [`Recorder`], and the per-layer
//! self-time ledger computed from them.
//!
//! The recorder is active only while a `--trace 1` run traces; otherwise
//! every helper here is a single atomic load, so untraced epochs — the ones
//! the end-to-end metrics come from — run the same code without recording.

use scrutiny_core::ScrutinyOptions;
use scrutiny_obs::{FieldValue, Recorder, SpanGuard, SpanView};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static RECORDER: OnceLock<Recorder> = OnceLock::new();
/// Relaxed is enough: the `OnceLock` publishes the recorder, and a worker
/// thread reading a stale flag only records or skips one span at a cycle
/// boundary.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Ring capacity of the traced recorder. A traced run's epochs (15 s of
/// ~8 ms `delta_recover` epochs at ~40 events each) stay well below it;
/// [`Ledger::dropped_events`] reports it if that ever stops being true.
const RING_EVENTS: usize = 1 << 20;

/// Start or pause recording spans (creating the recorder on first use).
pub fn set_active(on: bool) {
    RECORDER.get_or_init(|| Recorder::with_capacity(RING_EVENTS));
    ACTIVE.store(on, Ordering::Relaxed);
}

fn active() -> Option<&'static Recorder> {
    if ACTIVE.load(Ordering::Relaxed) {
        RECORDER.get()
    } else {
        None
    }
}

/// Open a span that closes when the guard drops; `None` while untraced.
pub fn span(name: &str) -> Option<SpanGuard> {
    active().map(|r| r.span(name))
}

/// Analysis options for the calls the benchmark traces: the defaults, with
/// the traced recorder handed to the analysis through its own options
/// field, so the value and reach sweeps — which `scrutinize_with` runs
/// inside one call — show as the program's `ad.sweep.*` spans. These are
/// the only program-emitted spans the ledger uses.
pub fn analysis_options() -> ScrutinyOptions {
    ScrutinyOptions {
        recorder: active().cloned().unwrap_or_default(),
        ..ScrutinyOptions::default()
    }
}

/// Run `f` as a leaf span carrying its duration in nanoseconds (field
/// `ns`), for calls too short for the recorder's microsecond clock.
/// The span parents to whatever span is open on the calling thread; on an
/// engine worker thread that is none, and [`Ledger::build`] attaches it by
/// time instead.
pub fn leaf<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let Some(rec) = active() else {
        return f();
    };
    let start_us = rec.now_us();
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    rec.closed_span(name, start_us, &[("ns", FieldValue::U64(ns))]);
    out
}

/// The layers the ledger attributes self time to, in report order.
/// `residual` is epoch time no child span covers: the benchmark's own
/// bookkeeping and anything uninstrumented.
pub const LAYERS: [&str; 8] = [
    "npb", "ad", "core", "engine", "ckpt", "backend", "faultinj", "residual",
];

/// Spans the driving thread opens with no parent. Any other parentless
/// span was recorded on another thread.
const ROOTS: [&str; 3] = ["epoch", "probe", "finish"];

/// Which layer a span's self time belongs to.
///
/// * `ad.record` is the kernel running on `Adj`: every arithmetic
///   operation pushes a tape node, so it is the AD layer's recording cost.
///   `ad.sweep.value` and `ad.sweep.reach` are the analysis's own sweep
///   spans; what is left of `core.scrutinize` is core's classification.
/// * `engine.recover` (`RecoveryManager::recover_latest`) spends its self
///   time — everything but backend reads — in `scrutiny_ckpt`: CRC checks,
///   decompression, delta-chain rebuild and parsing. Its self time is
///   `ckpt.recover_cpu_ms`.
/// * `engine.wait` self time is the engine's publish CPU: serializing and
///   compressing on the workers, minus the backend writes.
fn layer_of(name: &str) -> &'static str {
    match name {
        "epoch" => "residual",
        "engine.recover" => "ckpt",
        _ => {
            let module = name.split('.').next().unwrap_or(name);
            LAYERS
                .iter()
                .copied()
                .find(|l| *l == module)
                .unwrap_or("residual")
        }
    }
}

/// Span duration in milliseconds: the `ns` field of a [`leaf`] span when
/// present, else the microsecond timestamps.
fn dur_ms(s: &SpanView) -> f64 {
    match s.field_u64("ns") {
        Some(ns) => ns as f64 / 1e6,
        None => s.duration_us().unwrap_or(0) as f64 / 1e3,
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`, µs.
fn covered_us(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain(|&(s, e)| e > lo && s < hi);
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// The traced epochs' span tree, reduced to what the per-layer metrics need.
pub struct Ledger {
    spans: Vec<SpanView>,
    children: Vec<Vec<usize>>,
    /// Indices of the `epoch` root spans.
    epochs: Vec<usize>,
    /// Events the recorder's ring evicted (0 unless the ring overflowed).
    pub dropped_events: u64,
    /// Backend spans from worker threads that fell inside no traced span.
    pub unattached: usize,
}

impl Ledger {
    /// Snapshot the traced recorder and build the span tree. Spans recorded
    /// on other threads — backend operations on engine workers and restore
    /// threads, the reach sweep on its scoped thread — have no parent; each
    /// is attached to the deepest driving-thread span open when it started,
    /// which is the call that was waiting for it.
    pub fn build() -> Ledger {
        let snap = RECORDER
            .get()
            .expect("the ledger is built only after tracing was active")
            .snapshot();
        let mut spans: Vec<SpanView> = snap
            .spans()
            .into_iter()
            .filter(|s| s.end_us.is_some())
            .collect();
        spans.sort_by_key(|s| (s.start_us, s.id));
        let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut children = vec![Vec::new(); spans.len()];
        let mut orphans = Vec::new();
        let mut roots = Vec::new();
        let mut orphan = vec![false; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            match index.get(&s.parent) {
                Some(&p) => children[p].push(i),
                None if ROOTS.contains(&s.name.as_str()) => roots.push(i),
                None => {
                    orphan[i] = true;
                    orphans.push(i);
                }
            }
        }
        let end = |i: usize| spans[i].end_us.unwrap_or(spans[i].start_us);
        let contains = |i: usize, t: u64| spans[i].start_us <= t && t <= end(i);
        let mut unattached = 0;
        for o in orphans {
            let t = spans[o].start_us;
            let Some(mut at) = roots.iter().copied().find(|&r| contains(r, t)) else {
                unattached += 1;
                continue;
            };
            while let Some(c) = children[at]
                .iter()
                .copied()
                .find(|&c| !orphan[c] && contains(c, t))
            {
                at = c;
            }
            children[at].push(o);
        }
        let epochs = roots
            .iter()
            .copied()
            .filter(|&r| spans[r].name == "epoch")
            .collect();
        Ledger {
            spans,
            children,
            epochs,
            dropped_events: snap.dropped_events,
            unattached,
        }
    }

    /// Traced epochs.
    pub fn epoch_count(&self) -> usize {
        self.epochs.len()
    }

    fn end(&self, i: usize) -> u64 {
        self.spans[i].end_us.unwrap_or(self.spans[i].start_us)
    }

    /// Self time of span `i` in µs: its duration minus the part of it its
    /// children cover.
    fn self_us(&self, i: usize) -> u64 {
        let (lo, hi) = (self.spans[i].start_us, self.end(i));
        let kids = self.children[i]
            .iter()
            .map(|&c| (self.spans[c].start_us, self.end(c)))
            .collect();
        (hi - lo) - covered_us(kids, lo, hi)
    }

    /// Every span under (and including) `i`.
    fn subtree(&self, i: usize) -> Vec<usize> {
        let mut out = vec![i];
        let mut k = 0;
        while k < out.len() {
            out.extend(self.children[out[k]].iter().copied());
            k += 1;
        }
        out
    }

    /// Self time per layer summed over every traced epoch, and the summed
    /// epoch time they partition, both in ms. The layer totals add up to the
    /// epoch total exactly; `residual` is the epoch spans' own self time.
    pub fn layer_totals(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let mut totals: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
        let mut epoch_ms = 0.0;
        for &e in &self.epochs {
            epoch_ms += (self.end(e) - self.spans[e].start_us) as f64 / 1e3;
            for i in self.subtree(e) {
                *totals.entry(layer_of(&self.spans[i].name)).or_default() +=
                    self.self_us(i) as f64 / 1e3;
            }
        }
        (totals, epoch_ms)
    }

    /// Durations (ms) of every span named `name`, epochs and probe alike.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(dur_ms)
            .collect()
    }

    /// Durations (ms) of every backend operation.
    pub fn backend_durations(&self) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with("backend."))
            .map(dur_ms)
            .collect()
    }

    /// Self time (ms) of every span named `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_us(i) as f64 / 1e3)
            .collect()
    }

    /// Per epoch: the commit window (`engine.submit` start to `engine.wait`
    /// end) minus the part of it backend operations cover, in ms. This is
    /// the engine's own publish CPU: staging, serializing, diffing and
    /// compressing.
    pub fn publish_cpu_ms(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for &e in &self.epochs {
            let kids = &self.children[e];
            let find = |n: &str| kids.iter().copied().find(|&c| self.spans[c].name == n);
            let (Some(s), Some(w)) = (find("engine.submit"), find("engine.wait")) else {
                continue;
            };
            let (lo, hi) = (self.spans[s].start_us, self.end(w));
            let backend = [s, w]
                .iter()
                .flat_map(|&i| self.subtree(i))
                .filter(|&i| self.spans[i].name.starts_with("backend."))
                .map(|i| (self.spans[i].start_us, self.end(i)))
                .collect();
            out.push((hi - lo - covered_us(backend, lo, hi)) as f64 / 1e3);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::covered_us;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(covered_us(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered_us(vec![(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(covered_us(vec![(0, 10), (10, 20)], 0, 100), 20);
        assert_eq!(covered_us(vec![], 0, 100), 0);
    }
}
