//! Acceptance test for the segmented-tape refactor: on real NPB kernel
//! recordings (CG and FT at minimum), the parallel reverse sweeps produce
//! **bit-identical** gradients and reachability to the serial seed sweep,
//! and the whole-pipeline criticality maps are unchanged by segmentation.
//!
//! CI runs this in release next to the engine stress suite: frontier-merge
//! ordering races would hide behind debug-mode timing otherwise.

use scrutiny_ad::{
    Adj, SweepConfig, SweepOptions, Tape, TapeCheckpointConfig, TapeConfig, TapeReplay, TapeSession,
};
use scrutiny_core::{scrutinize, scrutinize_with, LeafSite, ScrutinyApp, ScrutinyOptions};
use scrutiny_npb::{Bt, Cg, Ft};

/// Sweep options re-recording evicted segments through `replay`.
fn replaying(config: SweepConfig, replay: &dyn TapeReplay) -> SweepOptions<'_> {
    SweepOptions {
        config,
        replay: Some(replay),
        ..SweepOptions::default()
    }
}

/// Record one AD run of `app` through the checkpoint boundary, the way
/// `scrutinize` does, on a tape with the given segment length.
fn record(app: &dyn ScrutinyApp, segment_len: usize) -> (Adj, Tape) {
    record_with(app, segment_len, None)
}

/// [`record`] with an optional tape residency budget.
fn record_with(
    app: &dyn ScrutinyApp,
    segment_len: usize,
    checkpoint: Option<TapeCheckpointConfig>,
) -> (Adj, Tape) {
    let session = TapeSession::with_config(TapeConfig {
        capacity: app.tape_capacity_hint(),
        segment_len,
        checkpoint,
        ..TapeConfig::default()
    });
    let mut site = LeafSite::new();
    let out = app.run_ad(&mut site);
    (out.output, session.finish())
}

fn check_kernel(app: &dyn ScrutinyApp) {
    let (out, tape) = record(app, 1 << 12);
    assert!(
        tape.segment_count() > 1,
        "{}: tape too small to exercise segmentation",
        app.spec().name
    );
    let (serial, sstats) = tape.gradient_sweep(out, SweepConfig::serial()).unwrap();
    let (reach_serial, _) = tape.reachable_sweep(out, SweepConfig::serial()).unwrap();
    assert!(!sstats.parallel);
    for threads in [2usize, 4] {
        let cfg = SweepConfig::with_threads(threads);
        let (par, pstats) = tape.gradient_sweep(out, cfg).unwrap();
        assert!(
            pstats.parallel,
            "{}: sweep did not parallelize",
            app.spec().name
        );
        assert_eq!(pstats.threads, threads);
        assert_eq!(serial.len(), par.len());
        for i in 0..serial.len() {
            assert_eq!(
                serial.of_node(i as u64).to_bits(),
                par.of_node(i as u64).to_bits(),
                "{}: gradient of node {i} diverged with {threads} threads",
                app.spec().name
            );
        }
        let (reach_par, _) = tape.reachable_sweep(out, cfg).unwrap();
        assert_eq!(
            reach_serial,
            reach_par,
            "{}: reachability diverged with {threads} threads",
            app.spec().name
        );
    }
}

#[test]
fn cg_parallel_sweep_bit_identical_to_serial() {
    check_kernel(&Cg::mini());
}

#[test]
fn ft_parallel_sweep_bit_identical_to_serial() {
    check_kernel(&Ft::mini());
}

#[test]
fn bt_parallel_sweep_bit_identical_to_serial() {
    check_kernel(&Bt::mini());
}

/// The bounded-memory matrix: for each residency budget — one segment,
/// two segments, the auto ⌈log2⌉ policy, and "everything fits" — and
/// each sweep-thread count, the checkpointed tape's value gradients,
/// reachability, and datadep liveness must be bit-identical to the
/// unbounded recording of the same run, and the datadep analyzer must
/// still agree with the structural sweep under replay.
fn check_checkpointed(app: &dyn ScrutinyApp) {
    const SEG: usize = 1 << 12;
    let name = app.spec().name;
    let (out, full) = record(app, SEG);
    let segments = full.segment_count();
    assert!(segments > 1, "{name}: tape too small to exercise eviction");
    let (base_grads, _) = full.gradient_sweep(out, SweepConfig::serial()).unwrap();
    let (base_reach, _) = full.reachable_sweep(out, SweepConfig::serial()).unwrap();
    let replay = || {
        let mut site = LeafSite::new();
        let _ = app.run_ad(&mut site);
    };
    let budgets = [
        TapeCheckpointConfig::with_ncheckpoints(1),
        TapeCheckpointConfig::with_ncheckpoints(2),
        TapeCheckpointConfig::auto(),
        TapeCheckpointConfig::with_ncheckpoints(segments),
    ];
    for ckpt in budgets {
        let n = ckpt.ncheckpoints;
        let (out_b, bounded) = record_with(app, SEG, Some(ckpt));
        assert_eq!(
            out_b.index(),
            out.index(),
            "{name}: checkpointed recording drifted (ncheckpoints={n})"
        );
        let budget = ckpt.budget_bytes(SEG, segments);
        for threads in [1usize, 2, 4] {
            let cfg = if threads == 1 {
                SweepConfig::serial()
            } else {
                SweepConfig::with_threads(threads)
            };
            let (grads, gstats) = bounded
                .gradient_sweep(out_b, replaying(cfg, &replay))
                .unwrap();
            assert!(
                gstats.peak_resident_bytes <= budget,
                "{name}: value sweep peak {} over budget {budget} \
                 (ncheckpoints={n}, threads={threads})",
                gstats.peak_resident_bytes
            );
            for i in 0..base_grads.len() {
                assert_eq!(
                    base_grads.of_node(i as u64).to_bits(),
                    grads.of_node(i as u64).to_bits(),
                    "{name}: gradient of node {i} diverged under replay \
                     (ncheckpoints={n}, threads={threads})"
                );
            }
            let (reach, _) = bounded
                .reachable_sweep(out_b, replaying(cfg, &replay))
                .unwrap();
            assert_eq!(
                base_reach, reach,
                "{name}: reachability diverged under replay \
                 (ncheckpoints={n}, threads={threads})"
            );
            let dd = bounded
                .datadep_sweep(out_b, replaying(cfg, &replay))
                .unwrap();
            assert_eq!(
                dd.live_bits(),
                &reach[..],
                "{name}: datadep must agree with the structural sweep under \
                 replay (ncheckpoints={n}, threads={threads})"
            );
        }
        if n <= 2 {
            assert!(
                bounded.stats().replayed_segments > 0,
                "{name}: a {n}-segment budget over {segments} segments must \
                 have forced replays"
            );
        }
    }
}

// The matrix re-records the whole app once per evicted window — tens of
// full AD re-runs per sweep at the one-segment budget. CI runs these in
// release (where the matrix takes seconds per app); under a debug build
// they are ignored, like the rest of this suite's raison d'être says:
// debug-mode timing is not what these tests exist to check.
#[cfg_attr(debug_assertions, ignore = "replay matrix runs in release CI")]
#[test]
fn cg_checkpointed_sweeps_bit_identical_across_budgets_and_threads() {
    check_checkpointed(&Cg::mini());
}

#[cfg_attr(debug_assertions, ignore = "replay matrix runs in release CI")]
#[test]
fn ft_checkpointed_sweeps_bit_identical_across_budgets_and_threads() {
    check_checkpointed(&Ft::mini());
}

#[cfg_attr(debug_assertions, ignore = "replay matrix runs in release CI")]
#[test]
fn bt_checkpointed_sweeps_bit_identical_across_budgets_and_threads() {
    check_checkpointed(&Bt::mini());
}

/// End-to-end: the criticality maps and gradient magnitudes the storage
/// planner consumes are bit-identical whether the analysis ran serial on
/// a monolithic tape or parallel on a finely segmented one.
#[test]
fn scrutinize_maps_unchanged_by_segmentation_cg_ft() {
    let apps: [Box<dyn ScrutinyApp>; 2] = [Box::new(Cg::mini()), Box::new(Ft::mini())];
    for app in apps {
        let base = scrutinize(app.as_ref()).unwrap();
        let seg = scrutinize_with(
            app.as_ref(),
            &ScrutinyOptions {
                segment_len: 4096,
                threads: 4,
                ..ScrutinyOptions::default()
            },
        )
        .unwrap();
        assert!(seg.tape_stats.segments > 1);
        assert!(seg.sweep.parallel);
        assert_eq!(base.vars.len(), seg.vars.len());
        for (a, b) in base.vars.iter().zip(&seg.vars) {
            assert_eq!(a.value_map, b.value_map, "{}: value map", a.spec.name);
            assert_eq!(
                a.structural_map, b.structural_map,
                "{}: structural map",
                a.spec.name
            );
            for (ga, gb) in a.grad_mag.iter().zip(&b.grad_mag) {
                assert_eq!(
                    ga.to_bits(),
                    gb.to_bits(),
                    "{}: grad magnitude",
                    a.spec.name
                );
            }
        }
    }
}
