//! Concurrent analyses sharing one enabled recorder report their own
//! sweep stats.
//!
//! Each `AnalysisReport` carries the `SweepStats` its own sweeps
//! returned. The recorder only receives them afterwards, as
//! `ad.sweep.<kind>.*` gauges where the last writer wins, so a report
//! built by reading those gauges back would pick up whichever kernel
//! swept last. Here CG mini and FT mini are analysed concurrently, twenty
//! times over, into one shared recorder; every report must match its
//! kernel's solo run, and the solo stats must not depend on whether a
//! recorder is attached at all.

use scrutiny_core::{
    scrutinize_with, AnalysisReport, Recorder, ScrutinyApp, ScrutinyOptions, SweepStats,
};
use scrutiny_npb::{Cg, Ft};

const ITERATIONS: usize = 20;

fn analyze(app: &dyn ScrutinyApp, recorder: &Recorder) -> AnalysisReport {
    let opts = ScrutinyOptions {
        segment_len: 1 << 10,
        recorder: recorder.clone(),
        ..ScrutinyOptions::default()
    };
    scrutinize_with(app, &opts).unwrap()
}

fn stats(report: &AnalysisReport) -> (SweepStats, SweepStats) {
    (report.sweep, report.reach_sweep)
}

#[test]
fn concurrent_analyses_sharing_a_recorder_report_their_own_sweeps() {
    let (cg, ft) = (Cg::mini(), Ft::mini());
    let apps: [&(dyn ScrutinyApp + Sync); 2] = [&cg, &ft];

    let solo: Vec<(SweepStats, SweepStats)> = apps
        .iter()
        .map(|&app| {
            let enabled = stats(&analyze(app, &Recorder::new()));
            let disabled = stats(&analyze(app, &Recorder::disabled()));
            assert_eq!(
                enabled,
                disabled,
                "{}: sweep stats depend on the recorder",
                app.spec().name
            );
            enabled
        })
        .collect();
    assert_ne!(solo[0], solo[1], "the two kernels must sweep differently");

    let shared = Recorder::new();
    for iteration in 0..ITERATIONS {
        let reports: Vec<AnalysisReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = apps
                .iter()
                .map(|&app| scope.spawn(|| analyze(app, &shared)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (report, expected) in reports.iter().zip(&solo) {
            assert_eq!(
                stats(report),
                *expected,
                "{} (iteration {iteration}): report carries another sweep's stats",
                report.app.name
            );
        }
    }

    // The shared recorder still received every sweep.
    let snap = shared.snapshot();
    for kind in ["ad.sweep.value", "ad.sweep.reach"] {
        let spans = snap.spans().iter().filter(|s| s.name == kind).count();
        assert_eq!(spans, 2 * ITERATIONS, "{kind} spans");
    }
}
