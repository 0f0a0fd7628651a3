//! A1/A2 benches: value vs structural sweep cost on one recorded tape,
//! and tiered vs pruned serialization cost.

use criterion::{criterion_group, Criterion};
use scrutiny_ad::{SweepConfig, TapeSession};
use scrutiny_ckpt::writer::{serialize, serialize_with};
use scrutiny_core::plan::{codec_for, plans_for};
use scrutiny_core::restart::capture_state;
use scrutiny_core::{scrutinize, LeafSite, Policy, ScrutinyApp};
use scrutiny_npb::Bt;

fn bench(c: &mut Criterion) {
    // Record one BT tape, then time the two reverse analyses on it.
    let bt = Bt::mini();
    let session = TapeSession::with_capacity(bt.tape_capacity_hint());
    let mut site = LeafSite::new();
    let out = bt.run_ad(&mut site);
    let tape = session.finish();
    println!("\nablation tape: {} nodes", tape.len());

    let mut g = c.benchmark_group("ablation");
    g.bench_function("value_gradient_sweep", |b| {
        b.iter(|| tape.gradient(out.output).unwrap().len())
    });
    g.bench_function("structural_reachability_sweep", |b| {
        b.iter(|| {
            tape.reachable_sweep(out.output, SweepConfig::default())
                .unwrap()
                .0
                .len()
        })
    });
    g.finish();

    let analysis = scrutinize(&bt).unwrap();
    let captured = capture_state(&bt);
    let pruned = plans_for(&analysis, Policy::PrunedValue);
    let tiered = plans_for(&analysis, Policy::Tiered { hi_threshold: 1e-3 });
    let compressed = Policy::TieredCompressed {
        hi_threshold: 1e-3,
        keep: 5,
    };
    let zplans = plans_for(&analysis, compressed);
    let zcodec = codec_for(compressed);
    let mut g = c.benchmark_group("tiering");
    g.bench_function("serialize_pruned", |b| {
        b.iter(|| serialize(&captured, &pruned).unwrap().breakdown)
    });
    g.bench_function("serialize_tiered", |b| {
        b.iter(|| serialize(&captured, &tiered).unwrap().breakdown)
    });
    g.bench_function("serialize_tiered_compressed", |b| {
        b.iter(|| {
            serialize_with(&captured, &zplans, zcodec.lo)
                .unwrap()
                .breakdown
        })
    });
    g.finish();
}

/// The canonical meta fields for the tiering ablation: serialization
/// rate (payload bytes per second) for the pruned baseline, plus the
/// payload shrink of the real tiered-compressed format (`LoCodec::Trunc`
/// via the v2 data header) over prune-only.
fn tiering_summary(summary: &mut scrutiny_bench::BenchSummary) {
    use std::time::Instant;
    let bt = Bt::mini();
    let analysis = scrutinize(&bt).unwrap();
    let captured = capture_state(&bt);
    let pruned = plans_for(&analysis, Policy::PrunedValue);
    let compressed = Policy::TieredCompressed {
        hi_threshold: 1e-3,
        keep: 5,
    };
    let zplans = plans_for(&analysis, compressed);
    let zcodec = codec_for(compressed);

    const REPS: u32 = 20;
    let t0 = Instant::now();
    let mut pruned_bytes = 0usize;
    for _ in 0..REPS {
        pruned_bytes = serialize(&captured, &pruned).unwrap().data.len();
    }
    summary.set_bytes_per_sec(
        "serialize.pruned",
        pruned_bytes * REPS as usize,
        t0.elapsed(),
    );

    let zbytes = serialize_with(&captured, &zplans, zcodec.lo)
        .unwrap()
        .data
        .len();
    summary.set_compression_ratio("tiered", pruned_bytes, zbytes);
    println!(
        "tiering: pruned image {pruned_bytes} B, tiered-compressed (keep=5) {zbytes} B \
         (ratio {:.3}) {}",
        zbytes as f64 / pruned_bytes.max(1) as f64,
        if zbytes < pruned_bytes { "OK" } else { "FAIL" }
    );
}

criterion_group!(benches, bench);
fn main() {
    benches();
    let mut summary = scrutiny_bench::BenchSummary::new("ablation_tiering");
    summary.absorb_criterion();
    tiering_summary(&mut summary);
    summary.write_and_report();
}
