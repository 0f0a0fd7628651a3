//! Wire overhead of the checkpoint service: `EngineHandle::submit` +
//! `wait` against a local `DirBackend` vs the same engine speaking to a
//! live `scrutinyd` over a loopback socket (`RemoteBackend` → daemon →
//! the same `DirBackend` layout).
//!
//! The daemon adds framing, one request/response round trip per object,
//! and one copy of every payload into its PUT frame — the explicit
//! section at the end reports the per-epoch latency ratio and the raw
//! PUT throughput so regressions in the protocol path are visible as
//! numbers, not vibes.
//!
//! Run with: `cargo bench -p scrutiny-bench --bench remote_submit`

use criterion::{black_box, criterion_group, Criterion};
use scrutiny_ckpt::names::Tenant;
use scrutiny_ckpt::{VarPlan, VarRecord};
use scrutiny_core::restart::capture_state;
use scrutiny_core::{plan::plans_for, scrutinize, Policy, ScrutinyApp};
use scrutiny_engine::{DirBackend, EngineConfig, EngineHandle, StorageBackend};
use scrutiny_npb::Cg;
use scrutinyd::{Daemon, DaemonConfig, RemoteBackend};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn snapshot_of(app: &dyn ScrutinyApp) -> (Vec<VarRecord>, Vec<VarPlan>) {
    let analysis = scrutinize(app).unwrap();
    let vars = capture_state(app);
    let plans = plans_for(&analysis, Policy::PrunedValue);
    (vars, plans)
}

fn bench_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "scrutiny_bench_remote_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A daemon on loopback TCP over a fresh `DirBackend` pool, plus a
/// connected tenant backend.
fn daemon_rig(tag: &str) -> (Daemon, Arc<RemoteBackend>, std::path::PathBuf) {
    let dir = bench_dir(tag);
    let pool = Arc::new(DirBackend::open(&dir).unwrap());
    let daemon = Daemon::spawn_tcp("127.0.0.1:0", pool, DaemonConfig::default()).unwrap();
    let remote = Arc::new(
        RemoteBackend::connect(daemon.endpoint(), Some(Tenant::new("bench").unwrap())).unwrap(),
    );
    (daemon, remote, dir)
}

fn bench_remote_submit(c: &mut Criterion) {
    let (vars, plans) = snapshot_of(&Cg::class_s());
    let mut group = c.benchmark_group("remote_submit/cg");
    group.sample_size(20);

    let dir = bench_dir("direct");
    let engine = EngineHandle::open(
        Arc::new(DirBackend::open(&dir).unwrap()),
        EngineConfig {
            keep: Some(4),
            ..Default::default()
        },
    )
    .unwrap();
    group.bench_function("direct_dir", |b| {
        b.iter(|| {
            let t = engine.submit(&vars, &plans).unwrap();
            black_box(engine.wait(t).unwrap())
        })
    });
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);

    let (daemon, remote, pool_dir) = daemon_rig("daemon");
    let engine = EngineHandle::open(
        remote,
        EngineConfig {
            keep: Some(4),
            ..Default::default()
        },
    )
    .unwrap();
    group.bench_function("via_scrutinyd", |b| {
        b.iter(|| {
            let t = engine.submit(&vars, &plans).unwrap();
            black_box(engine.wait(t).unwrap())
        })
    });
    group.finish();
    drop(engine);
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&pool_dir);
}

/// The headline numbers: per-epoch latency direct vs over the wire, and
/// raw object PUT throughput through the daemon.
fn wire_overhead_demo(summary: &mut scrutiny_bench::BenchSummary) {
    const SAMPLES: u32 = 20;
    let (vars, plans) = snapshot_of(&Cg::class_s());
    println!();
    println!("checkpoint epoch latency: direct DirBackend vs scrutinyd over loopback");

    let epoch_mean = |engine: &EngineHandle| {
        let t = engine.submit(&vars, &plans).unwrap();
        engine.wait(t).unwrap(); // warm-up epoch
        let t0 = Instant::now();
        for _ in 0..SAMPLES {
            let t = engine.submit(&vars, &plans).unwrap();
            black_box(engine.wait(t).unwrap());
        }
        t0.elapsed() / SAMPLES
    };

    let dir = bench_dir("ratio_direct");
    let engine = EngineHandle::open(
        Arc::new(DirBackend::open(&dir).unwrap()),
        EngineConfig {
            keep: Some(4),
            ..Default::default()
        },
    )
    .unwrap();
    let direct_mean = epoch_mean(&engine);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);

    let (daemon, remote, pool_dir) = daemon_rig("ratio_daemon");
    let engine = EngineHandle::open(
        remote.clone(),
        EngineConfig {
            keep: Some(4),
            ..Default::default()
        },
    )
    .unwrap();
    let remote_mean = epoch_mean(&engine);
    drop(engine);

    // Raw wire throughput: one 4 MiB object PUT, round-tripped.
    let payload = vec![0xA5u8; 4 << 20];
    let mut put_total = Duration::ZERO;
    for i in 0..SAMPLES {
        let name = format!("blob_{:03}.aux.tmp", i);
        let t0 = Instant::now();
        remote.put(&name, &payload).unwrap();
        put_total += t0.elapsed();
        remote.delete(&name).unwrap();
    }
    let put_mean = put_total / SAMPLES;
    let mb_per_s = (payload.len() as f64 / (1 << 20) as f64) / put_mean.as_secs_f64().max(1e-12);
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&pool_dir);

    let overhead = 100.0 * remote_mean.as_secs_f64() / direct_mean.as_secs_f64().max(1e-12);
    summary.set_mean_us("epoch.direct_dir_us", direct_mean);
    summary.set_mean_us("epoch.via_scrutinyd_us", remote_mean);
    summary.set_mean_us("put_4mib_us", put_mean);
    summary.set_meta("remote_epoch_pct_of_direct", overhead);
    summary.set_meta("put_throughput_mib_s", mb_per_s);
    println!(
        "  cg   direct {direct_mean:>10.2?}   via scrutinyd {remote_mean:>10.2?}   \
         remote/direct {overhead:5.1}%"
    );
    println!("  raw PUT 4 MiB {put_mean:>10.2?}   ({mb_per_s:.1} MiB/s over loopback)");
}

criterion_group!(benches, bench_remote_submit);

fn main() {
    benches();
    let mut summary = scrutiny_bench::BenchSummary::new("remote_submit");
    summary.absorb_criterion();
    wire_overhead_demo(&mut summary);
    summary.write_and_report();
}
