//! Long-running NPB driver with asynchronous checkpointing: the burn-in
//! wiring of the async engine into the NPB benchmarks.
//!
//! HPC production runs checkpoint *periodically* inside a long main loop;
//! the paper's single-boundary experiment is one period of that loop.
//! [`burn_in`] replays the period `epochs` times against a live
//! [`EngineHandle`]: each epoch captures the app's checkpoint state and
//! `submit`s it — the next epoch's compute then overlaps the previous
//! epoch's serialization and storage, exactly the overlap the engine
//! exists for — and the run ends with a restart-verification from the
//! newest engine-written checkpoint.
//!
//! [`burn_in_recover`] closes the lifecycle loop: burn in, damage the
//! newest checkpoint on the storage tier
//! ([`scrutiny_faultinj::StorageScenario`]), recover the newest version
//! that still verifies, and restart the benchmark trajectory from it.

use crate::{Cg, Ft};
use scrutiny_core::restart::capture_state;
use scrutiny_core::{
    checkpoint_recover_cycle_async, checkpoint_restart_cycle_async, point, scrutinize_with,
    submit_checkpoint, AnalysisReport, EngineError, EngineHandle, Policy, RecoveryConfig,
    RestartConfig, ScrutinyApp, ScrutinyOptions, StorageBreakdown, TapeCheckpointConfig, Ticket,
    VarData, VarRecord,
};
use scrutiny_faultinj::StorageScenario;

/// Outcome of one [`burn_in`] run.
#[derive(Clone, Debug)]
pub struct BurnInReport {
    /// Benchmark name (from its spec).
    pub app: String,
    /// Checkpoints submitted (one per epoch) — all resolved.
    pub epochs: usize,
    /// Segments of the analysis tape the burn-in's criticality maps came
    /// from (the record ran through the segmented tape).
    pub tape_segments: usize,
    /// What the analysis sweeps did, **aggregated across both sweeps**
    /// (value + reachability): frontier traffic sums, thread/segment
    /// counts take the maximum. Earlier versions overwrote this with the
    /// value sweep alone, silently dropping the reachability sweep's
    /// share of the analysis cost.
    pub sweep: scrutiny_core::SweepStats,
    /// Stored payload bytes of each epoch, in submission order.
    pub epoch_payload_bytes: Vec<usize>,
    /// Sum of stored payload bytes across all epochs.
    pub payload_bytes: usize,
    /// Did a restart from the newest engine-written checkpoint reproduce
    /// the golden output within the app's tolerance?
    pub verified: bool,
    /// Relative error of that restart.
    pub rel_err: f64,
}

/// Run `epochs` checkpoint periods of `app` through `engine`, then verify
/// by restarting from the engine's newest checkpoint.
///
/// Each resolved epoch emits an `npb.epoch` event on the engine's
/// recorder ([`scrutiny_core::EngineConfig::recorder`]), so with an
/// enabled recorder the per-epoch trajectory interleaves with the
/// engine's submit/publish/commit spans in one log.
pub fn burn_in(
    app: &dyn ScrutinyApp,
    analysis: &AnalysisReport,
    engine: &EngineHandle,
    epochs: usize,
    policy: Policy,
) -> Result<BurnInReport, EngineError> {
    if epochs == 0 {
        return Err(EngineError::InvalidConfig(
            "a burn-in needs at least one epoch".into(),
        ));
    }
    let mut tickets = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        // submit returns as soon as the snapshot is staged; the next
        // epoch's capture run below is the compute that overlaps this
        // epoch's serialization and storage.
        tickets.push(submit_checkpoint(app, analysis, policy, engine)?);
    }
    let mut epoch_payload_bytes = Vec::with_capacity(epochs);
    for (epoch, t) in tickets.into_iter().enumerate() {
        epoch_payload_bytes.push(wait_epoch(engine, epoch, t)?.payload_bytes);
    }
    let cfg = RestartConfig {
        policy,
        ..Default::default()
    };
    let report = checkpoint_restart_cycle_async(app, analysis, &cfg, engine)?;
    Ok(BurnInReport {
        app: app.spec().name,
        epochs,
        tape_segments: analysis.tape_stats.segments,
        // Sum, don't overwrite: both sweeps contributed to the maps.
        sweep: analysis.sweep.merged_with(&analysis.reach_sweep),
        payload_bytes: epoch_payload_bytes.iter().sum(),
        epoch_payload_bytes,
        verified: report.verified,
        rel_err: report.rel_err,
    })
}

/// Wait for epoch `epoch`'s `ticket` to publish and emit its `npb.epoch`
/// event (`epoch`, `version`, `payload_bytes`, `total_bytes`, `wait_us`)
/// on the engine's recorder.
fn wait_epoch(
    engine: &EngineHandle,
    epoch: usize,
    ticket: Ticket,
) -> Result<StorageBreakdown, EngineError> {
    let rec = engine.recorder();
    let version = ticket.version();
    let t0 = rec.now_us();
    let storage = engine.wait(ticket)?;
    point!(
        rec,
        "npb.epoch",
        epoch = epoch,
        version = version,
        payload_bytes = storage.payload_bytes,
        total_bytes = storage.total(),
        wait_us = rec.now_us().saturating_sub(t0),
    );
    Ok(storage)
}

/// Outcome of one [`burn_in_delta`] run.
#[derive(Clone, Debug)]
pub struct DeltaBurnInReport {
    /// Benchmark name (from its spec).
    pub app: String,
    /// Epochs submitted (base + deltas + rebases) — all resolved.
    pub epochs: usize,
    /// Bytes written by the first (base) epoch.
    pub base_bytes: usize,
    /// Bytes written by each epoch in order (index 0 is the base; rebase
    /// epochs show up as full-sized entries between runs of small
    /// deltas).
    pub epoch_bytes: Vec<usize>,
    /// Total bytes written across all epochs.
    pub total_bytes: usize,
    /// Did a restart from the newest engine-written checkpoint reproduce
    /// the golden output within the app's tolerance?
    pub verified: bool,
    /// Relative error of that restart.
    pub rel_err: f64,
}

/// Apply a small localized update to every variable, the slowly-changing
/// long-loop state delta checkpoints exist for: each epoch perturbs a
/// different 1/16th window of each array (deterministically by epoch), so
/// most pages of the serialized state survive unchanged between epochs.
pub fn perturb_localized(vars: &mut [VarRecord], epoch: usize) {
    for var in vars.iter_mut() {
        let n = var.data.len();
        if n == 0 {
            continue;
        }
        let window = (n / 16).max(1);
        let start = (epoch * window) % n;
        let end = (start + window).min(n);
        match &mut var.data {
            VarData::F64(v) => {
                for x in &mut v[start..end] {
                    *x += 1e-3;
                }
            }
            VarData::C128(v) => {
                for (re, _) in &mut v[start..end] {
                    *re += 1e-3;
                }
            }
            VarData::I64(v) => {
                for x in &mut v[start..end] {
                    *x = x.wrapping_add(1);
                }
            }
        }
    }
}

/// Multi-epoch burn-in against a **delta-enabled** engine (one opened
/// with [`scrutiny_core::EngineConfig::delta`] set): epoch 0 publishes a
/// full base, later epochs perturb a localized window of every variable
/// ([`perturb_localized`]) and publish only the dirty pages — crossing a
/// rebase whenever the configured chain length is reached — and the run
/// ends with a restart-verification from the newest engine-written
/// checkpoint, which restores base → deltas through the standard reader.
/// Epochs emit `npb.epoch` events like [`burn_in`]'s.
pub fn burn_in_delta(
    app: &dyn ScrutinyApp,
    analysis: &AnalysisReport,
    engine: &EngineHandle,
    epochs: usize,
    policy: Policy,
) -> Result<DeltaBurnInReport, EngineError> {
    if epochs < 2 {
        return Err(EngineError::InvalidConfig(
            "a delta burn-in needs a base epoch and at least one delta epoch".into(),
        ));
    }
    let mut vars = capture_state(app);
    let plans = scrutiny_core::plan::plans_for(analysis, policy);
    let mut bytes = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        if epoch > 0 {
            perturb_localized(&mut vars, epoch);
        }
        let ticket = engine.submit(&vars, &plans)?;
        bytes.push(wait_epoch(engine, epoch, ticket)?.total());
    }
    let cfg = RestartConfig {
        policy,
        ..Default::default()
    };
    let report = checkpoint_restart_cycle_async(app, analysis, &cfg, engine)?;
    Ok(DeltaBurnInReport {
        app: app.spec().name,
        epochs,
        base_bytes: bytes[0],
        total_bytes: bytes.iter().sum(),
        epoch_bytes: bytes,
        verified: report.verified,
        rel_err: report.rel_err,
    })
}

/// Outcome of one [`burn_in_recover`] run.
#[derive(Clone, Debug)]
pub struct RecoveryBurnInReport {
    /// Benchmark name (from its spec).
    pub app: String,
    /// Checkpoint epochs submitted before the fault — all resolved.
    pub epochs: usize,
    /// Name of the object the storage fault damaged.
    pub damaged: String,
    /// Newest version on the backend when the fault struck.
    pub newest_version: u64,
    /// Version the recovery scan actually restored.
    pub recovered_version: u64,
    /// Versions the scan rejected (newest first), from the
    /// [`scrutiny_core::RecoveryReport`].
    pub rejected_versions: Vec<u64>,
    /// Did the restart from the recovered checkpoint reproduce the
    /// golden output within the app's tolerance?
    pub verified: bool,
    /// Relative error of that restart.
    pub rel_err: f64,
}

/// Perturb only elements the analysis proved **uncritical** (per-epoch
/// moving window, like [`perturb_localized`]). This is the §IV.C
/// argument driving the recovery burn-in: epochs differ on disk (real
/// dirty pages under `Policy::Full`), yet *any* epoch restores a
/// verifying state, because the critical elements are bit-identical
/// across all of them — so falling back to an older checkpoint after
/// corruption must still pass verification.
pub fn perturb_uncritical(vars: &mut [VarRecord], analysis: &AnalysisReport, epoch: usize) {
    for (var, crit) in vars.iter_mut().zip(&analysis.vars) {
        let n = var.data.len();
        if n == 0 {
            continue;
        }
        let window = (n / 16).max(1);
        let start = (epoch * window) % n;
        let end = (start + window).min(n);
        let in_window = |i: usize| i >= start && i < end;
        match &mut var.data {
            VarData::F64(v) => {
                for i in crit.value_map.zeros().filter(|&i| in_window(i)) {
                    v[i] += 1e-3 * (epoch as f64 + 1.0);
                }
            }
            VarData::C128(v) => {
                for i in crit.value_map.zeros().filter(|&i| in_window(i)) {
                    v[i].0 += 1e-3 * (epoch as f64 + 1.0);
                }
            }
            // Integer control state is analyzed by liveness, not AD;
            // leave it alone.
            VarData::I64(_) => {}
        }
    }
}

/// Burn-in → corrupt → recover → verify: run `epochs` checkpoint
/// periods through `engine` (each epoch perturbs a fresh window of
/// *uncritical* elements via [`perturb_uncritical`], so epochs differ
/// on disk while every epoch's critical state stays bit-identical),
/// inject `scenario` against the newest version on the backend, then
/// recover the newest fully-verifiable checkpoint and restart-verify
/// the resumed trajectory from it. The report names the damaged object,
/// the rejected versions, and the version the run actually resumed
/// from.
///
/// Everything reports into the engine's recorder: per-epoch `npb.epoch`
/// events, the fault injection as a `faultinj.inject` event, and the
/// recovery scan's candidate/reject/recovered events. With an enabled
/// recorder the resulting JSONL dump is a complete record of the
/// lifecycle — every submit, publish, commit, the injected damage, and
/// the fallback walk — with no other output needed
/// (`tests/obs_lifecycle.rs` holds that contract).
pub fn burn_in_recover(
    app: &dyn ScrutinyApp,
    analysis: &AnalysisReport,
    engine: &EngineHandle,
    epochs: usize,
    policy: Policy,
    scenario: StorageScenario,
) -> Result<RecoveryBurnInReport, EngineError> {
    if epochs < 2 {
        return Err(EngineError::InvalidConfig(
            "a recovery burn-in needs a victim epoch and at least one fallback epoch".into(),
        ));
    }
    let mut vars = capture_state(app);
    let plans = scrutiny_core::plan::plans_for(analysis, policy);
    let mut newest = 0;
    for epoch in 0..epochs {
        if epoch > 0 {
            perturb_uncritical(&mut vars, analysis, epoch);
        }
        let ticket = engine.submit(&vars, &plans)?;
        newest = ticket.version();
        wait_epoch(engine, epoch, ticket)?;
    }
    let damaged = scenario
        .inject_obs(engine.backend().as_ref(), newest, engine.recorder())
        .map_err(EngineError::from)?;
    let cfg = RestartConfig {
        policy,
        ..Default::default()
    };
    let recovery = RecoveryConfig {
        recorder: engine.recorder().clone(),
        ..Default::default()
    };
    let report = checkpoint_recover_cycle_async(app, analysis, &cfg, engine, &recovery)?;
    let recovered_version = report
        .recovery
        .recovered
        .expect("checkpoint_recover_cycle_async succeeded, so a version recovered");
    Ok(RecoveryBurnInReport {
        app: app.spec().name,
        epochs,
        damaged,
        newest_version: newest,
        recovered_version,
        rejected_versions: report.recovery.rejected_versions(),
        verified: report.restart.verified,
        rel_err: report.restart.rel_err,
    })
}

/// Outcome of one [`burn_in_bounded`] run: a burn-in whose criticality
/// maps came from a **bounded-memory** analysis tape, cross-checked
/// bit-for-bit against the unbounded analysis of the same run.
#[derive(Clone, Debug)]
pub struct BoundedBurnInReport {
    /// The burn-in itself (driven by the *bounded* analysis).
    pub burn_in: BurnInReport,
    /// Full logical tape footprint of the unbounded recording, bytes.
    pub unbounded_tape_bytes: usize,
    /// Residency budget the bounded analysis ran under, bytes.
    pub budget_bytes: usize,
    /// Highest tape residency the bounded analysis ever reached, bytes.
    pub peak_resident_bytes: usize,
    /// Segments the bounded sweeps re-recorded on demand.
    pub replayed_segments: u64,
    /// Did the bounded analysis reproduce the unbounded one bit-for-bit
    /// (criticality maps, every gradient bit, the primal output)?
    pub bit_identical: bool,
}

/// Scrutinize `app` twice — once unbounded, once under `ckpt`'s tape
/// residency budget — and verify the two analyses agree **bit for bit**:
/// same criticality maps, same gradient bits, same primal output. The
/// bounded report is returned for downstream use; divergence is an
/// [`EngineError::InvalidConfig`] naming the first mismatching variable.
pub fn scrutinize_bounded_vs_unbounded(
    app: &dyn ScrutinyApp,
    opts: &ScrutinyOptions,
    ckpt: TapeCheckpointConfig,
) -> Result<(AnalysisReport, AnalysisReport), EngineError> {
    let unbounded = scrutinize_with(app, opts)
        .map_err(|e| EngineError::InvalidConfig(format!("unbounded analysis failed: {e}")))?;
    let bounded = scrutinize_with(
        app,
        &ScrutinyOptions {
            tape_checkpoints: Some(ckpt),
            ..opts.clone()
        },
    )
    .map_err(|e| EngineError::InvalidConfig(format!("bounded analysis failed: {e}")))?;
    if let Some(name) = first_divergence(&unbounded, &bounded) {
        return Err(EngineError::InvalidConfig(format!(
            "bounded analysis diverged from unbounded on {name}"
        )));
    }
    Ok((unbounded, bounded))
}

/// First variable (or pseudo-field) on which two analyses disagree at
/// the bit level, if any.
fn first_divergence(a: &AnalysisReport, b: &AnalysisReport) -> Option<String> {
    if a.output_value.to_bits() != b.output_value.to_bits() {
        return Some("output_value".into());
    }
    for (va, vb) in a.vars.iter().zip(&b.vars) {
        if va.value_map != vb.value_map || va.structural_map != vb.structural_map {
            return Some(va.spec.name.clone());
        }
        for (ga, gb) in va.grad_mag.iter().zip(&vb.grad_mag) {
            if ga.to_bits() != gb.to_bits() {
                return Some(format!("{}.grad_mag", va.spec.name));
            }
        }
    }
    None
}

/// A burn-in whose analysis ran under **forced tape eviction**: the
/// residency budget is `ncheckpoints` segments of `segment_len` nodes —
/// callers pick values that make the full recording many times the
/// budget — so the sweeps must re-record evicted segments through the
/// replay closure. The bounded maps are verified bit-identical to the
/// unbounded analysis first, then drive the ordinary multi-epoch
/// engine burn-in with restart verification.
pub fn burn_in_bounded(
    app: &dyn ScrutinyApp,
    engine: &EngineHandle,
    epochs: usize,
    policy: Policy,
    segment_len: usize,
    ncheckpoints: usize,
) -> Result<BoundedBurnInReport, EngineError> {
    let opts = ScrutinyOptions {
        segment_len,
        ..ScrutinyOptions::default()
    };
    let ckpt = TapeCheckpointConfig::with_ncheckpoints(ncheckpoints);
    let (unbounded, bounded) = scrutinize_bounded_vs_unbounded(app, &opts, ckpt)?;
    let burn_in = burn_in(app, &bounded, engine, epochs, policy)?;
    Ok(BoundedBurnInReport {
        burn_in,
        unbounded_tape_bytes: unbounded.tape_stats.bytes,
        budget_bytes: ckpt.budget_bytes(segment_len, bounded.tape_stats.segments),
        peak_resident_bytes: bounded.tape_stats.peak_resident_bytes,
        replayed_segments: bounded.tape_stats.replayed_segments,
        // scrutinize_bounded_vs_unbounded already errored otherwise.
        bit_identical: true,
    })
}

/// The two benchmarks wired into the engine burn-in by default: CG (the
/// classic pruned float vector + integer control state) and FT (the large
/// complex-typed state that exercises sharded serialization hardest).
pub fn burn_in_suite() -> Vec<Box<dyn ScrutinyApp>> {
    vec![Box::new(Cg::class_s()), Box::new(Ft::class_s())]
}

/// Reduced instances of the same two apps, for fast tests.
pub fn burn_in_suite_mini() -> Vec<Box<dyn ScrutinyApp>> {
    vec![Box::new(Cg::mini()), Box::new(Ft::mini())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutiny_core::{scrutinize, EngineConfig, EngineHandle, MemBackend};
    use std::sync::Arc;

    #[test]
    fn delta_burn_in_cg_and_ft_base_to_delta_to_rebase() {
        use scrutiny_core::DeltaPolicy;
        for app in burn_in_suite_mini() {
            let analysis = scrutinize(app.as_ref()).unwrap();
            let engine = EngineHandle::open(
                Arc::new(MemBackend::new()),
                EngineConfig {
                    delta: Some(DeltaPolicy {
                        page_bytes: 128,
                        rebase_every: 3,
                    }),
                    ..Default::default()
                },
            )
            .unwrap();
            // 6 epochs with rebase_every = 3: base, 3 deltas, a rebase
            // (epoch 4), another delta — the full chain lifecycle.
            let report =
                burn_in_delta(app.as_ref(), &analysis, &engine, 6, Policy::PrunedValue).unwrap();
            assert_eq!(report.epochs, 6);
            assert!(
                report.verified,
                "{}: delta-chain restart failed (rel err {})",
                report.app, report.rel_err
            );
            for delta_epoch in [1, 2, 3, 5] {
                assert!(
                    report.epoch_bytes[delta_epoch] < report.base_bytes,
                    "{} epoch {delta_epoch}: delta ({}) must write less than the base ({})",
                    report.app,
                    report.epoch_bytes[delta_epoch],
                    report.base_bytes
                );
            }
            assert_eq!(engine.pending(), 0);
        }
    }

    #[test]
    fn recovery_burn_in_survives_a_flipped_byte_in_a_delta_chain() {
        use scrutiny_core::DeltaPolicy;
        for app in burn_in_suite_mini() {
            let analysis = scrutinize(app.as_ref()).unwrap();
            let engine = EngineHandle::open(
                Arc::new(MemBackend::new()),
                EngineConfig {
                    delta: Some(DeltaPolicy {
                        page_bytes: 128,
                        rebase_every: 3,
                    }),
                    ..Default::default()
                },
            )
            .unwrap();
            // Full plans so the uncritical perturbations produce real
            // dirty pages between epochs.
            let report = burn_in_recover(
                app.as_ref(),
                &analysis,
                &engine,
                4,
                Policy::Full,
                StorageScenario::FlippedPayloadByte,
            )
            .unwrap();
            assert_eq!(report.newest_version, 3);
            assert_eq!(
                report.recovered_version, 2,
                "{}: expected fallback to the previous epoch",
                report.app
            );
            assert_eq!(report.rejected_versions, vec![3], "{}", report.app);
            assert!(
                report.verified,
                "{}: resumed trajectory failed verification (rel err {})",
                report.app, report.rel_err
            );
        }
    }

    #[test]
    fn recovery_burn_in_survives_a_missing_commit_marker() {
        for app in burn_in_suite_mini() {
            let analysis = scrutinize(app.as_ref()).unwrap();
            let engine =
                EngineHandle::open(Arc::new(MemBackend::new()), EngineConfig::default()).unwrap();
            let report = burn_in_recover(
                app.as_ref(),
                &analysis,
                &engine,
                3,
                Policy::PrunedValue,
                StorageScenario::MissingCommitMarker,
            )
            .unwrap();
            assert_eq!(report.recovered_version, 1, "{}", report.app);
            assert_eq!(report.rejected_versions, vec![2], "{}", report.app);
            assert!(
                report.verified,
                "{}: resumed trajectory failed verification (rel err {})",
                report.app, report.rel_err
            );
        }
    }

    #[test]
    fn burn_in_cg_and_ft_through_the_engine() {
        for app in burn_in_suite_mini() {
            let analysis = scrutinize(app.as_ref()).unwrap();
            let engine =
                EngineHandle::open(Arc::new(MemBackend::new()), EngineConfig::default()).unwrap();
            let report = burn_in(app.as_ref(), &analysis, &engine, 3, Policy::PrunedValue).unwrap();
            assert_eq!(report.epochs, 3);
            assert!(report.payload_bytes > 0);
            assert!(report.tape_segments > 0);
            assert!(
                report.verified,
                "{}: engine restart failed (rel err {})",
                report.app, report.rel_err
            );
            assert_eq!(engine.pending(), 0);
        }
    }

    #[test]
    fn burn_in_with_forced_segmentation_and_parallel_sweeps() {
        // Drive the whole analyze→burn-in→restart pipeline with the tape
        // split into many small segments and the sweeps running parallel:
        // results (criticality, restart verification) must be unaffected,
        // and the report must surface the segmentation it ran with.
        use scrutiny_core::{scrutinize_with, ScrutinyOptions};
        for app in burn_in_suite_mini() {
            let analysis = scrutinize_with(
                app.as_ref(),
                &ScrutinyOptions {
                    segment_len: 4096,
                    threads: 4,
                    ..ScrutinyOptions::default()
                },
            )
            .unwrap();
            let engine =
                EngineHandle::open(Arc::new(MemBackend::new()), EngineConfig::default()).unwrap();
            let report = burn_in(app.as_ref(), &analysis, &engine, 2, Policy::PrunedValue).unwrap();
            assert!(
                report.tape_segments > 1,
                "{}: expected a segmented tape",
                report.app
            );
            assert!(
                report.sweep.parallel,
                "{}: expected a parallel sweep",
                report.app
            );
            assert!(report.sweep.cross_contribs > 0);
            assert!(
                report.verified,
                "{}: restart from segmented-analysis maps failed (rel err {})",
                report.app, report.rel_err
            );
        }
    }
}
