//! Outside-in adapters: a [`ScrutinyApp`] wrapper and a [`StorageBackend`]
//! wrapper that count every kernel run and every backend operation, and —
//! in traced cycles only — record each as a leaf span.
//!
//! Counts are plain relaxed atomics that do not depend on tracing. With one
//! driving client they are exact: every operation the engine, the recovery
//! scan and the fault injector make passes through these wrappers.

use crate::trace;
use scrutiny_ckpt::names::{classify, CkptName};
use scrutiny_ckpt::CkptError;
use scrutiny_core::{Adj, AppSpec, CkptSite, RunOutcome, ScrutinyApp};
use scrutiny_engine::StorageBackend;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// A kernel with run counters. `run_f64` is traced as `npb.f64_run` and
/// `run_ad` as `ad.record` (the kernel on `Adj` is the tape recording).
pub struct CountingApp {
    inner: Box<dyn ScrutinyApp>,
    f64_runs: AtomicU64,
    ad_runs: AtomicU64,
}

impl CountingApp {
    pub fn new(inner: Box<dyn ScrutinyApp>) -> Self {
        CountingApp {
            inner,
            f64_runs: AtomicU64::new(0),
            ad_runs: AtomicU64::new(0),
        }
    }

    /// The wrapped kernel, for probes that must not count as epoch runs.
    pub fn inner(&self) -> &dyn ScrutinyApp {
        self.inner.as_ref()
    }

    /// `(f64 runs, AD runs)` so far.
    pub fn runs(&self) -> (u64, u64) {
        (self.f64_runs.load(Relaxed), self.ad_runs.load(Relaxed))
    }
}

impl ScrutinyApp for CountingApp {
    fn spec(&self) -> AppSpec {
        self.inner.spec()
    }

    fn checkpoint_iter(&self) -> usize {
        self.inner.checkpoint_iter()
    }

    fn run_f64(&self, site: &mut dyn CkptSite<f64>) -> RunOutcome<f64> {
        self.f64_runs.fetch_add(1, Relaxed);
        trace::leaf("npb.f64_run", || self.inner.run_f64(site))
    }

    fn run_ad(&self, site: &mut dyn CkptSite<Adj>) -> RunOutcome<Adj> {
        self.ad_runs.fetch_add(1, Relaxed);
        trace::leaf("ad.record", || self.inner.run_ad(site))
    }

    fn tape_capacity_hint(&self) -> usize {
        self.inner.tape_capacity_hint()
    }

    fn tolerance(&self) -> f64 {
        self.inner.tolerance()
    }
}

/// Backend operation counts; see [`IoCounters::counts`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendCounts {
    pub puts: u64,
    pub gets: u64,
    pub lists: u64,
    pub deletes: u64,
    pub put_bytes: u64,
    pub get_bytes: u64,
    /// Versions published as delta-chain objects (`ckpt_v.delta`): one
    /// per delta epoch.
    pub delta_puts: u64,
}

impl BackendCounts {
    pub fn ops(&self) -> u64 {
        self.puts + self.gets + self.lists + self.deletes
    }

    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &BackendCounts) -> BackendCounts {
        BackendCounts {
            puts: self.puts - earlier.puts,
            gets: self.gets - earlier.gets,
            lists: self.lists - earlier.lists,
            deletes: self.deletes - earlier.deletes,
            put_bytes: self.put_bytes - earlier.put_bytes,
            get_bytes: self.get_bytes - earlier.get_bytes,
            delta_puts: self.delta_puts - earlier.delta_puts,
        }
    }
}

/// Backend operation counters, shared by every store a run opens (on
/// `delta_recover` each job starts a new one).
#[derive(Default)]
pub struct IoCounters {
    puts: AtomicU64,
    gets: AtomicU64,
    lists: AtomicU64,
    deletes: AtomicU64,
    put_bytes: AtomicU64,
    get_bytes: AtomicU64,
    delta_puts: AtomicU64,
}

impl IoCounters {
    pub fn counts(&self) -> BackendCounts {
        BackendCounts {
            puts: self.puts.load(Relaxed),
            gets: self.gets.load(Relaxed),
            lists: self.lists.load(Relaxed),
            deletes: self.deletes.load(Relaxed),
            put_bytes: self.put_bytes.load(Relaxed),
            get_bytes: self.get_bytes.load(Relaxed),
            delta_puts: self.delta_puts.load(Relaxed),
        }
    }
}

/// The `engine::backend` boundary with counters: what the engine, the
/// recovery scan and the fault injector see as their storage. It wraps
/// `RemoteBackend` (and so `scrutinyd`) on `remote_tcp`, and the local
/// backend elsewhere.
pub struct CountingBackend {
    inner: Arc<dyn StorageBackend>,
    io: Arc<IoCounters>,
    /// One past the newest delta version put into this store so far.
    delta_end: AtomicU64,
}

impl CountingBackend {
    pub fn new(inner: Arc<dyn StorageBackend>, io: Arc<IoCounters>) -> Self {
        CountingBackend {
            inner,
            io,
            delta_end: AtomicU64::new(0),
        }
    }
}

impl StorageBackend for CountingBackend {
    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
        self.io.puts.fetch_add(1, Relaxed);
        self.io.put_bytes.fetch_add(bytes.len() as u64, Relaxed);
        // Each delta version counts once: the engine publishes them in
        // version order, and the fault injector re-puts a damaged one.
        if let CkptName::Delta(v) = classify(name) {
            if self.delta_end.fetch_max(v + 1, Relaxed) <= v {
                self.io.delta_puts.fetch_add(1, Relaxed);
            }
        }
        trace::leaf("backend.put", || self.inner.put(name, bytes))
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, CkptError> {
        self.io.gets.fetch_add(1, Relaxed);
        let out = trace::leaf("backend.get", || self.inner.get(name));
        if let Ok(bytes) = &out {
            self.io.get_bytes.fetch_add(bytes.len() as u64, Relaxed);
        }
        out
    }

    fn list(&self) -> Result<Vec<String>, CkptError> {
        self.io.lists.fetch_add(1, Relaxed);
        trace::leaf("backend.list", || self.inner.list())
    }

    fn delete(&self, name: &str) -> Result<(), CkptError> {
        self.io.deletes.fetch_add(1, Relaxed);
        trace::leaf("backend.delete", || self.inner.delete(name))
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}
