//! The three workloads: one checkpoint epoch each, driven through the
//! public API of `npb`, `core`, `engine`, `ckpt`, `scrutinyd` and
//! `faultinj`, with every output checked.

use crate::adapters::{CountingApp, CountingBackend, IoCounters};
use crate::trace;
use scrutiny_ad::{SweepConfig, TapeConfig, TapeSession};
use scrutiny_ckpt::names::Tenant;
use scrutiny_ckpt::writer::serialize;
use scrutiny_ckpt::{AtRest, Checkpoint, CkptError, CodecConfig, FillPolicy};
use scrutiny_core::plan::plans_for;
use scrutiny_core::restart::{capture_state, materialize_all};
use scrutiny_core::site::NoopSite;
use scrutiny_core::{
    scrutinize_with, verify_restart_from, AnalysisReport, DeltaPolicy, EngineConfig, EngineHandle,
    LeafSite, MemBackend, Policy, Recovered, RecoveryConfig, RecoveryManager, RestartConfig,
    ScrutinyApp, ScrutinyOptions, StorageBackend, VarData, VarPlan, VarRecord,
};
use scrutiny_faultinj::StorageScenario;
use scrutiny_npb::{perturb_localized, perturb_uncritical, Bt, Mg};
use scrutinyd::{Daemon, DaemonConfig, RemoteBackend};
use std::cell::Cell;
use std::fmt::Display;
use std::sync::Arc;
use std::time::Instant;

/// Retention on the `analyze_epoch` and `remote_tcp` engines. Once KEEP
/// versions exist every commit also prunes, which on `remote_tcp` adds
/// stalled requests; warm-up runs past that point.
const KEEP: usize = 2;
/// Retention on `delta_recover`, in versions: three fault cycles.
const DELTA_KEEP: usize = 12;
/// `delta_recover` injects a fault, recovers and reopens every this many
/// epochs, so each chain is a full base and three deltas.
const FAULT_EVERY: usize = 4;
/// Timed fault cycles per `delta_recover` job. Each job starts on a fresh
/// store, so every job does the same work whatever a run's length.
const JOB_CYCLES: usize = 32;
/// Distinct windows `perturb_localized` / `perturb_uncritical` cycle
/// through (each perturbs 1/16 of every variable).
const WINDOWS: u64 = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    AnalyzeEpoch,
    RemoteTcp,
    DeltaRecover,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::AnalyzeEpoch, Kind::RemoteTcp, Kind::DeltaRecover];

    pub fn name(self) -> &'static str {
        match self {
            Kind::AnalyzeEpoch => "analyze_epoch",
            Kind::RemoteTcp => "remote_tcp",
            Kind::DeltaRecover => "delta_recover",
        }
    }

    /// Epochs per sample. `delta_recover` repeats a four-epoch cycle — a
    /// base, two deltas, and a delta followed by fault, recovery and
    /// reopen — so each of its samples is one whole cycle, reported per
    /// epoch; a per-epoch median would fall between the cycle's modes.
    pub fn cycle_epochs(self) -> usize {
        match self {
            Kind::DeltaRecover => FAULT_EVERY,
            _ => 1,
        }
    }

    /// Percentile `_tail` metrics are read at: the highest that kept at
    /// least ten samples beyond it in a 30 s run at the commit that defined
    /// the benchmark (about 200, 30 and 900 samples). Fixed per workload so
    /// that two commits compare the same percentile.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Kind::AnalyzeEpoch => 90.0,
            Kind::RemoteTcp => 50.0,
            Kind::DeltaRecover => 95.0,
        }
    }

    /// Timed cycles per job, or `None` when the whole run is one job.
    /// `delta_recover` runs fixed-size jobs, each on a fresh store: its
    /// store keeps every object (retention never prunes once a damaged
    /// delta is among the newest versions), so in one long job the work
    /// per epoch would grow with the number of epochs a run completes.
    pub fn job_cycles(self) -> Option<usize> {
        match self {
            Kind::DeltaRecover => Some(JOB_CYCLES),
            _ => None,
        }
    }

    /// Versions the engine's retention keeps.
    pub fn keep(self) -> usize {
        match self {
            Kind::DeltaRecover => DELTA_KEEP,
            _ => KEEP,
        }
    }

    /// Untimed epochs before measuring: enough that retention is pruning
    /// on every commit, and on `delta_recover` whole fault cycles, so the
    /// first timed epoch starts a fresh chain.
    pub fn warmup_epochs(self) -> usize {
        match self {
            Kind::DeltaRecover => DELTA_KEEP.div_ceil(FAULT_EVERY) * FAULT_EVERY + FAULT_EVERY,
            _ => KEEP + 1,
        }
    }
}

/// Operations and checks attempted and missed in one run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one check; report a miss on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Count one operation; report an error on stderr.
    pub fn op<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("{what} failed: {e}");
                None
            }
        }
    }
}

/// What one epoch measured.
pub struct EpochSample {
    /// `submit` until `wait` returns durable.
    pub commit_ms: f64,
    /// `recover_latest`, when the epoch recovered.
    pub recover_ms: Option<f64>,
    /// Bytes the engine stored, aux and headers included.
    pub stored_bytes: u64,
    /// Bytes a full checkpoint of the same state takes.
    pub full_bytes: u64,
}

/// The `ad` layer probe, outside any timed epoch.
pub struct Probe {
    pub f64_ms: f64,
    pub record_ms: f64,
    pub nodes: u64,
    pub tape_bytes: u64,
    pub sweep_value_ms: f64,
    pub sweep_reach_ms: f64,
    pub sweep_threads: u64,
}

/// Recovery outcomes summed over a run.
#[derive(Clone, Copy, Default)]
pub struct RecoveryCounts {
    pub recovers: u64,
    pub scanned: u64,
    pub rejected: u64,
}

/// One workload's live state: kernel, analysis, engine and storage.
pub struct Rig {
    kind: Kind,
    pub app: CountingApp,
    analysis: AnalysisReport,
    /// Uncritical elements found by the setup analysis.
    pub uncritical: usize,
    plans: Vec<VarPlan>,
    /// The state `remote_tcp` and `delta_recover` perturb and publish.
    vars: Vec<VarRecord>,
    /// `delta_recover`: the state submitted one epoch before a fault.
    before_fault: Vec<VarRecord>,
    full_bytes: u64,
    backend: Arc<CountingBackend>,
    /// Counters shared by every store the run opens.
    pub io: Arc<IoCounters>,
    /// The in-process store, when it is local.
    mem: Option<Arc<MemBackend>>,
    engine: Option<EngineHandle>,
    engine_cfg: EngineConfig,
    daemon: Option<Daemon>,
    /// Seed-chosen offset of the perturbation window.
    offset: usize,
    pub faults: u64,
    pub recovery: Cell<RecoveryCounts>,
}

fn err<E: Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// SplitMix64 finalizer: spreads consecutive seeds over the window range.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rig {
    /// Build the workload from nothing: kernel, one analysis,
    /// captured state, storage (a daemon on loopback for `remote_tcp`)
    /// and an engine. This is what `setup_s` times.
    pub fn setup(kind: Kind, seed: u64) -> Result<Rig, String> {
        let kernel: Box<dyn ScrutinyApp> = match kind {
            Kind::AnalyzeEpoch | Kind::RemoteTcp => Box::new(Bt::mini()),
            Kind::DeltaRecover => Box::new(Mg::class_s()),
        };
        let app = CountingApp::new(kernel);
        let analysis =
            scrutinize_with(&app, &ScrutinyOptions::default()).map_err(err("scrutinize"))?;
        let plans = plans_for(&analysis, Policy::PrunedValue);
        let vars = capture_state(&app);
        let full_plans = vec![VarPlan::Full; vars.len()];
        let full_bytes = serialize(&vars, &full_plans)
            .map_err(err("full serialize"))?
            .breakdown
            .total() as u64;

        // In-memory storage everywhere: on this benchmark's VM, fsync made
        // `DirBackend` commit times spread by a quarter between runs, which
        // would measure the disk instead of the program.
        let (mut daemon, mut mem) = (None, None);
        let storage: Arc<dyn StorageBackend> = match kind {
            Kind::AnalyzeEpoch | Kind::DeltaRecover => {
                let m = Arc::new(MemBackend::new());
                mem = Some(m.clone());
                m
            }
            Kind::RemoteTcp => {
                let pool = Arc::new(MemBackend::new());
                let d = Daemon::spawn_tcp("127.0.0.1:0", pool, DaemonConfig::default())
                    .map_err(err("spawn scrutinyd"))?;
                let tenant = Tenant::new("bench").map_err(err("tenant"))?;
                let remote =
                    RemoteBackend::connect(d.endpoint(), Some(tenant)).map_err(err("connect"))?;
                daemon = Some(d);
                Arc::new(remote)
            }
        };
        let engine_cfg = match kind {
            Kind::AnalyzeEpoch | Kind::RemoteTcp => EngineConfig {
                keep: Some(kind.keep()),
                ..EngineConfig::default()
            },
            Kind::DeltaRecover => EngineConfig {
                keep: Some(kind.keep()),
                delta: Some(DeltaPolicy {
                    page_bytes: 4096,
                    rebase_every: 8,
                }),
                codec: CodecConfig {
                    at_rest: AtRest::Auto,
                    ..CodecConfig::default()
                },
                ..EngineConfig::default()
            },
        };
        let io = Arc::new(IoCounters::default());
        let backend = Arc::new(CountingBackend::new(storage, io.clone()));
        let engine =
            EngineHandle::open(backend.clone(), engine_cfg.clone()).map_err(err("engine open"))?;
        Ok(Rig {
            kind,
            uncritical: analysis.total_uncritical(),
            app,
            analysis,
            plans,
            before_fault: Vec::new(),
            vars,
            full_bytes,
            backend,
            io,
            mem,
            engine: Some(engine),
            engine_cfg,
            daemon,
            offset: (mix(seed) % WINDOWS) as usize,
            faults: 0,
            recovery: Cell::default(),
        })
    }

    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// Checkpointed elements in all.
    pub fn total_elems(&self) -> usize {
        self.analysis.total_elems()
    }

    /// Objects and bytes in the local store; `None` on `remote_tcp`.
    pub fn store_size(&self) -> Option<(usize, usize)> {
        self.mem
            .as_ref()
            .map(|m| (m.object_count(), m.total_bytes()))
    }

    /// Begin a job, then run its untimed warm-up epochs. On
    /// `delta_recover` every job but the first also gets a fresh store
    /// and engine, as a new job would.
    pub fn start_job(&mut self, next: &mut usize, tally: &mut Tally) -> Option<()> {
        if self.kind.job_cycles().is_some() && *next > 0 {
            drop(self.engine.take());
            let mem = Arc::new(MemBackend::new());
            self.backend = Arc::new(CountingBackend::new(mem.clone(), self.io.clone()));
            self.mem = Some(mem);
            let engine = EngineHandle::open(self.backend.clone(), self.engine_cfg.clone());
            self.engine = Some(tally.op("open", engine)?);
        }
        for _ in 0..self.kind.warmup_epochs() {
            self.epoch(*next, tally)?;
            *next += 1;
        }
        Some(())
    }

    fn engine(&self) -> &EngineHandle {
        self.engine
            .as_ref()
            .expect("the engine is open between epochs")
    }

    /// One checkpoint epoch (epoch index `i`, counting warm-up epochs).
    /// `None` when an operation failed; every check is counted in `tally`.
    pub fn epoch(&mut self, i: usize, tally: &mut Tally) -> Option<EpochSample> {
        match self.kind {
            Kind::AnalyzeEpoch => self.analyze_epoch(tally),
            Kind::RemoteTcp => self.remote_epoch(i, tally),
            Kind::DeltaRecover => self.delta_epoch(i, tally),
        }
    }

    /// Scrutinize → plan → capture → commit → recover → §IV.C verify.
    fn analyze_epoch(&mut self, tally: &mut Tally) -> Option<EpochSample> {
        let analysis = {
            let _s = trace::span("core.scrutinize");
            scrutinize_with(&self.app, &trace::analysis_options())
        };
        let analysis = tally.op("scrutinize", analysis)?;
        self.check_uncritical(&analysis, tally);
        let plans = {
            let _s = trace::span("core.plan");
            plans_for(&analysis, Policy::PrunedValue)
        };
        let vars = {
            let _s = trace::span("core.capture");
            capture_state(&self.app)
        };
        self.round_trip(&analysis, &vars, &plans, tally)
    }

    /// Perturb uncritical elements → commit through `scrutinyd` → recover
    /// through it → §IV.C verify.
    fn remote_epoch(&mut self, i: usize, tally: &mut Tally) -> Option<EpochSample> {
        trace::leaf("npb.perturb", || {
            perturb_uncritical(&mut self.vars, &self.analysis, self.offset + i)
        });
        self.round_trip(&self.analysis, &self.vars, &self.plans, tally)
    }

    /// Perturb a localized window → commit a delta (or a base). Every
    /// `FAULT_EVERY`th epoch: flip a payload byte of the newest version,
    /// recover (must land on newest − 1 with bit-identical critical
    /// elements) and reopen the engine as a restarted job would.
    fn delta_epoch(&mut self, i: usize, tally: &mut Tally) -> Option<EpochSample> {
        trace::leaf("npb.perturb", || {
            perturb_localized(&mut self.vars, self.offset + i)
        });
        let (version, storage, commit_ms) = self.commit(&self.vars, &self.plans, tally)?;
        let mut recover_ms = None;
        match i % FAULT_EVERY {
            // The snapshot the fault will force recovery back to.
            r if r == FAULT_EVERY - 2 => self.before_fault = self.vars.clone(),
            r if r == FAULT_EVERY - 1 => {
                let injected = {
                    let _s = trace::span("faultinj.inject");
                    StorageScenario::FlippedPayloadByte.inject(self.backend.as_ref(), version)
                };
                tally.op("inject", injected)?;
                self.faults += 1;
                let (recovered, ms) = self.recover(tally)?;
                recover_ms = Some(ms);
                let rejected = recovered.report.rejected_versions();
                tally.check(
                    version > 0 && recovered.version == version - 1 && rejected == [version],
                    || {
                        format!(
                            "damaged v{version}: recovered v{} rejecting {rejected:?}",
                            recovered.version
                        )
                    },
                );
                let same = {
                    let _s = trace::span("core.materialize");
                    critical_identical(&self.analysis, &recovered.checkpoint, &self.before_fault)
                };
                let same = tally.op("materialize", same)?;
                tally.check(same, || {
                    format!(
                        "v{} critical elements differ from the snapshot",
                        version - 1
                    )
                });
                self.reopen(tally)?;
            }
            _ => {}
        }
        Some(EpochSample {
            commit_ms,
            recover_ms,
            stored_bytes: storage.total() as u64,
            full_bytes: self.full_bytes,
        })
    }

    /// After the timed epochs: reopen the engine (timed as
    /// `engine.reopen` on every workload) and, on `delta_recover`, run the
    /// run's one §IV.C check on a pristine-state epoch — its perturbed
    /// epochs change critical elements, so they cannot pass it.
    pub fn finish(&mut self, tally: &mut Tally) -> Option<()> {
        self.reopen(tally)?;
        if self.kind == Kind::DeltaRecover {
            let pristine = capture_state(&self.app);
            self.round_trip(&self.analysis, &pristine, &self.plans, tally)?;
        }
        Some(())
    }

    /// The traced-run probe, outside any timed epoch: the `core` calls a
    /// workload makes only at setup, and the `ad` layer on its own —
    /// record through `LeafSite` with `ScrutinyOptions::default()`'s
    /// segment length and node limit, then both sweeps with its threads,
    /// against the same kernel's plain f64 run.
    pub fn probe(&mut self, repeats: usize, tally: &mut Tally) -> Option<Probe> {
        let _p = trace::span("probe");
        let analysis = {
            let _s = trace::span("core.scrutinize");
            scrutinize_with(&self.app, &trace::analysis_options())
        };
        let analysis = tally.op("scrutinize", analysis)?;
        self.check_uncritical(&analysis, tally);
        {
            let _s = trace::span("core.plan");
            std::hint::black_box(plans_for(&analysis, Policy::PrunedValue));
        }
        {
            let _s = trace::span("core.capture");
            std::hint::black_box(capture_state(&self.app));
        }
        drop(analysis);

        let opts = ScrutinyOptions::default();
        let app = self.app.inner();
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
        let (mut f64_ms, mut record_ms, mut value_ms, mut reach_ms) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut nodes, mut bytes, mut threads) = (0, 0, 0);
        for _ in 0..repeats {
            let t = Instant::now();
            std::hint::black_box(app.run_f64(&mut NoopSite));
            f64_ms.push(ms(t));

            let t = Instant::now();
            let session = TapeSession::with_config(TapeConfig {
                capacity: app.tape_capacity_hint(),
                segment_len: opts.segment_len,
                node_limit: opts.node_limit,
                checkpoint: None,
            });
            let mut site = LeafSite::new();
            let out = app.run_ad(&mut site);
            let tape = session.finish();
            record_ms.push(ms(t));
            let stats = tape.stats();
            (nodes, bytes) = (stats.nodes as u64, stats.bytes as u64);

            let cfg = SweepConfig {
                threads: opts.threads,
            };
            let t = Instant::now();
            let (grad, st) = tally.op("value sweep", tape.gradient_sweep(out.output, cfg))?;
            value_ms.push(ms(t));
            threads = st.threads as u64;
            std::hint::black_box(grad);
            let t = Instant::now();
            let reach = tally.op("reach sweep", tape.reachable_sweep(out.output, cfg))?;
            reach_ms.push(ms(t));
            std::hint::black_box(reach);
        }
        use crate::stats::median;
        Some(Probe {
            f64_ms: median(&f64_ms),
            record_ms: median(&record_ms),
            nodes,
            tape_bytes: bytes,
            sweep_value_ms: median(&value_ms),
            sweep_reach_ms: median(&reach_ms),
            sweep_threads: threads,
        })
    }

    fn check_uncritical(&self, analysis: &AnalysisReport, tally: &mut Tally) {
        tally.check(analysis.total_uncritical() == self.uncritical, || {
            format!(
                "uncritical elements {} != setup value {}",
                analysis.total_uncritical(),
                self.uncritical
            )
        });
    }

    /// Commit `vars`, recover the newest version — which must be the one
    /// just committed — and run the §IV.C restart check from it.
    fn round_trip(
        &self,
        analysis: &AnalysisReport,
        vars: &[VarRecord],
        plans: &[VarPlan],
        tally: &mut Tally,
    ) -> Option<EpochSample> {
        let (version, storage, commit_ms) = self.commit(vars, plans, tally)?;
        let (recovered, recover_ms) = self.recover(tally)?;
        tally.check(recovered.version == version, || {
            format!(
                "recovered v{} after committing v{version}",
                recovered.version
            )
        });
        self.verify(analysis, &recovered.checkpoint, storage, tally)?;
        Some(EpochSample {
            commit_ms,
            recover_ms: Some(recover_ms),
            stored_bytes: storage.total() as u64,
            full_bytes: self.full_bytes,
        })
    }

    /// `submit` + `wait`: the version, its stored bytes and the commit time.
    fn commit(
        &self,
        vars: &[VarRecord],
        plans: &[VarPlan],
        tally: &mut Tally,
    ) -> Option<(u64, scrutiny_ckpt::StorageBreakdown, f64)> {
        let t = Instant::now();
        let ticket = {
            let _s = trace::span("engine.submit");
            self.engine().submit(vars, plans)
        };
        let ticket = tally.op("submit", ticket)?;
        let version = ticket.version();
        let storage = {
            let _s = trace::span("engine.wait");
            self.engine().wait(ticket)
        };
        let storage = tally.op("wait", storage)?;
        Some((version, storage, t.elapsed().as_secs_f64() * 1e3))
    }

    /// `RecoveryManager::recover_latest`, fallback scan included.
    fn recover(&self, tally: &mut Tally) -> Option<(Recovered, f64)> {
        let t = Instant::now();
        let recovered = {
            let _s = trace::span("engine.recover");
            RecoveryManager::new(self.engine().backend(), RecoveryConfig::default())
                .recover_latest()
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let recovered = tally.op("recover", recovered)?;
        let counts = self.recovery.get();
        self.recovery.set(RecoveryCounts {
            recovers: counts.recovers + 1,
            scanned: counts.scanned + recovered.report.scanned as u64,
            rejected: counts.rejected + recovered.report.rejected.len() as u64,
        });
        Some((recovered, ms))
    }

    /// The §IV.C restart check from a recovered checkpoint.
    fn verify(
        &self,
        analysis: &AnalysisReport,
        checkpoint: &Checkpoint,
        storage: scrutiny_ckpt::StorageBreakdown,
        tally: &mut Tally,
    ) -> Option<()> {
        let report = {
            let _s = trace::span("core.verify");
            verify_restart_from(
                &self.app,
                analysis,
                &RestartConfig::default(),
                checkpoint,
                storage,
            )
        };
        let report = tally.op("verify", report)?;
        tally.check(report.verified, || {
            format!("restart not verified: rel_err {:e}", report.rel_err)
        });
        Some(())
    }

    /// Close the engine (draining it) and open a new one on the same
    /// backend, as a restarted job would; a delta engine starts a new chain.
    fn reopen(&mut self, tally: &mut Tally) -> Option<()> {
        let _s = trace::span("engine.reopen");
        drop(self.engine.take());
        let engine = EngineHandle::open(self.backend.clone(), self.engine_cfg.clone());
        self.engine = Some(tally.op("reopen", engine)?);
        Some(())
    }
}

impl Drop for Rig {
    /// Stop the engine before the daemon it talks to, and wait for both.
    fn drop(&mut self) {
        drop(self.engine.take());
        if let Some(d) = self.daemon.take() {
            if let Err(e) = d.join() {
                eprintln!("scrutinyd shutdown: {e}");
            }
        }
    }
}

/// Whether every critical element of `checkpoint` is bit-identical to
/// `snapshot` (integer state: every element).
fn critical_identical(
    analysis: &AnalysisReport,
    checkpoint: &Checkpoint,
    snapshot: &[VarRecord],
) -> Result<bool, CkptError> {
    let restored = materialize_all(checkpoint, analysis, FillPolicy::Zero)?;
    Ok(snapshot
        .iter()
        .zip(&analysis.vars)
        .zip(&restored)
        .all(|((var, crit), got)| match (&var.data, got) {
            (VarData::F64(a), VarData::F64(b)) => crit
                .value_map
                .ones()
                .all(|i| a[i].to_bits() == b[i].to_bits()),
            (VarData::C128(a), VarData::C128(b)) => crit.value_map.ones().all(|i| {
                (a[i].0.to_bits(), a[i].1.to_bits()) == (b[i].0.to_bits(), b[i].1.to_bits())
            }),
            (VarData::I64(a), VarData::I64(b)) => a == b,
            _ => false,
        }))
}
