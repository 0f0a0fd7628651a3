//! Restore-side performance: parallel vs serial image reconstruction,
//! and the cost of a recovery scan across damaged versions.
//!
//! The write path's numbers live in `engine_submit`/`delta_submit`;
//! this bench is their §IV.C mirror. It builds realistic layouts from
//! an NPB FT snapshot (the large complex-typed state that stresses
//! sharding hardest):
//!
//! * `restore/*` — reconstruct one sharded checkpoint image, serial
//!   reader (`read_data_image`) vs the parallel pipeline
//!   (`read_data_image_parallel`) at 2 and 4 threads. On a single-core
//!   container the parallel rows measure pure pipeline overhead; on
//!   real cores they report the speedup.
//! * `recovery_scan/*` — `RecoveryManager::recover_latest` over a
//!   backend whose newest versions are damaged: the price of walking
//!   back `k` corrupt versions before finding an intact one.
//!
//! Run with: `cargo bench -p scrutiny-bench --bench restore_recovery`

use criterion::{black_box, criterion_group, Criterion};
use scrutiny_ckpt::delta::read_data_image;
use scrutiny_ckpt::restore::{read_data_image_parallel, RestoreOptions};
use scrutiny_core::restart::capture_state;
use scrutiny_core::{plan::plans_for, scrutinize, Policy};
use scrutiny_engine::{
    EngineConfig, EngineHandle, Layout, MemBackend, RecoveryConfig, RecoveryManager, StorageBackend,
};
use scrutiny_faultinj::StorageScenario;
use scrutiny_npb::{perturb_localized, Ft};
use std::sync::Arc;

/// A backend holding `epochs` sharded FT checkpoints.
fn sharded_backend(epochs: usize) -> Arc<MemBackend> {
    sharded_backend_with(epochs, scrutiny_ckpt::CodecConfig::default())
}

fn sharded_backend_with(epochs: usize, codec: scrutiny_ckpt::CodecConfig) -> Arc<MemBackend> {
    let app = Ft::class_s();
    let analysis = scrutinize(&app).unwrap();
    let mut vars = capture_state(&app);
    let plans = plans_for(&analysis, Policy::PrunedValue);
    let mem = Arc::new(MemBackend::new());
    let engine = EngineHandle::open(
        mem.clone(),
        EngineConfig {
            workers: 4,
            target_shards: 8,
            layout: Layout::Sharded,
            codec,
            ..Default::default()
        },
    )
    .unwrap();
    for epoch in 0..epochs {
        if epoch > 0 {
            perturb_localized(&mut vars, epoch);
        }
        let t = engine.submit(&vars, &plans).unwrap();
        engine.wait(t).unwrap();
    }
    mem
}

fn bench_restore(c: &mut Criterion) {
    let mem = sharded_backend(1);
    let fetch = |name: &str| mem.get(name);
    let mut g = c.benchmark_group("restore");
    g.sample_size(20);
    g.bench_function("serial", |b| {
        b.iter(|| black_box(read_data_image(0, fetch).unwrap()))
    });
    for threads in [2usize, 4] {
        g.bench_function(&format!("parallel_{threads}"), |b| {
            b.iter(|| {
                black_box(
                    read_data_image_parallel(
                        0,
                        &fetch,
                        &RestoreOptions {
                            threads,
                            ..Default::default()
                        },
                    )
                    .unwrap(),
                )
            })
        });
    }
    g.finish();
}

fn bench_recovery_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("recovery_scan");
    g.sample_size(10);
    for corrupt in [0usize, 1, 3] {
        // 5 epochs; damage the newest `corrupt` of them, so every
        // recover_latest walks back `corrupt` rejections. The scan only
        // reads, so injecting once outside the timing loop is sound.
        let mem = sharded_backend(5);
        for v in (5 - corrupt as u64)..5 {
            StorageScenario::TruncatedShard
                .inject(mem.as_ref(), v)
                .unwrap();
        }
        let mgr = RecoveryManager::new(mem, RecoveryConfig::default());
        g.bench_function(&format!("fallback_depth_{corrupt}"), |b| {
            b.iter(|| {
                let r = mgr.recover_latest().unwrap();
                assert_eq!(r.report.rejected.len(), corrupt);
                black_box(r.version)
            })
        });
    }
    g.finish();
}

/// Headline numbers printed after the criterion groups: measured
/// parallel-vs-serial restore ratio (also recorded as the canonical
/// `restore.*.bytes_per_sec` meta fields, in reconstructed image bytes
/// per second), the at-rest footprint ratio of the same checkpoint
/// published compressed (`at_rest.compression_ratio`), and the restore
/// rate through the decompression path.
fn restore_summary(summary: &mut scrutiny_bench::BenchSummary) {
    use std::time::Instant;
    let mem = sharded_backend(1);
    let fetch = |name: &str| mem.get(name);
    const REPS: u32 = 20;

    let t0 = Instant::now();
    let mut image_bytes = 0usize;
    for _ in 0..REPS {
        image_bytes = black_box(read_data_image(0, fetch).unwrap()).len();
    }
    let serial = t0.elapsed() / REPS;
    summary.set_bytes_per_sec("restore.serial", image_bytes, serial);

    println!("\nFT class S sharded restore (image reconstruction + CRC verify):");
    println!("  serial      {serial:>10.1?}");
    for threads in [2usize, 4] {
        let t0 = Instant::now();
        for _ in 0..REPS {
            black_box(
                read_data_image_parallel(
                    0,
                    &fetch,
                    &RestoreOptions {
                        threads,
                        ..Default::default()
                    },
                )
                .unwrap(),
            );
        }
        let par = t0.elapsed() / REPS;
        summary.set_bytes_per_sec(&format!("restore.parallel_{threads}"), image_bytes, par);
        println!(
            "  parallel x{threads} {par:>10.1?}   ({:.2}x vs serial)",
            serial.as_secs_f64() / par.as_secs_f64().max(1e-12)
        );
    }

    // The same checkpoint published with the SCRUTCZB at-rest codec:
    // footprint ratio, plus restore throughput through the decode path
    // (the image that comes back is bit-identical either way).
    let raw_total = mem.total_bytes();
    let zmem = sharded_backend_with(
        1,
        scrutiny_ckpt::CodecConfig {
            at_rest: scrutiny_ckpt::AtRest::Auto,
            ..Default::default()
        },
    );
    let zfetch = |name: &str| zmem.get(name);
    let t0 = Instant::now();
    for _ in 0..REPS {
        let img = black_box(
            read_data_image_parallel(
                0,
                &zfetch,
                &RestoreOptions {
                    threads: 4,
                    ..Default::default()
                },
            )
            .unwrap(),
        )
        .0;
        assert_eq!(img.len(), image_bytes, "compressed restore must match");
    }
    let zpar = t0.elapsed() / REPS;
    summary.set_bytes_per_sec("restore.compressed_parallel_4", image_bytes, zpar);
    summary.set_compression_ratio("at_rest", raw_total, zmem.total_bytes());
    println!(
        "  compressed x4 {zpar:>8.1?}   (backend {} B raw vs {} B compressed, ratio {:.3})",
        raw_total,
        zmem.total_bytes(),
        zmem.total_bytes() as f64 / raw_total.max(1) as f64
    );
}

criterion_group!(benches, bench_restore, bench_recovery_scan);

fn main() {
    benches();
    let mut summary = scrutiny_bench::BenchSummary::new("restore_recovery");
    summary.absorb_criterion();
    restore_summary(&mut summary);
    summary.write_and_report();
}
