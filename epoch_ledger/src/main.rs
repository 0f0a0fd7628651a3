//! Epoch ledger: the repository's benchmark.
//!
//! One closed loop on one driving thread runs whole checkpoint epochs of an
//! NPB kernel — the paper's cost unit: scrutinize with AD, store only the
//! critical elements, recover and restart — through the workspace's public
//! API, and checks every output. The only other threads are the program's
//! own: engine workers at their default `min(cores, 4)`, the analysis's
//! sweep threads and, on `remote_tcp`, the in-process `scrutinyd`'s
//! connection threads. The run pins itself to one CPU first (see
//! [`pin_to_one_cpu`]), so those defaults take their one-core values.
//!
//! ```text
//! epoch-ledger --workload <analyze_epoch|remote_tcp|delta_recover>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` traces every
//! second cycle of epochs and prints the per-layer metrics: spans recorded
//! around each call into a layer, their self times, the residual no span
//! covers, and the tracing overhead of the traced cycles over the untraced
//! ones in between. The last line of standard output is one JSON object;
//! the lines before it give each metric with its unit, base and sample
//! count. A failed operation or check makes the exit code 1.

mod adapters;
mod stats;
mod trace;
mod workloads;

use stats::{median, tail, Tail};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Kind, Rig, Tally};

/// Set-ups per run; `setup_s` is the median of their CPU time (all
/// threads). CPU time, because on the 2-vCPU VM the benchmark was defined
/// on the host took 14-21% of it as steal: before runs were pinned to one
/// CPU, the eleven `analyze_epoch` set-ups of one run took 0.12-0.25 s of
/// wall time but 0.13-0.15 s of CPU time, and two sets of runs 45 minutes
/// apart had set-up wall-time medians 26-31% apart. The wall time is
/// printed beside it.
const SETUP_REPEATS: usize = 11;
/// Record-and-sweep repeats in the traced run's `ad` probe.
const PROBE_REPEATS: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let kind = Kind::ALL
        .into_iter()
        .find(|k| k.name() == workload)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    Ok(Args {
        kind,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One sample: a cycle of [`Kind::cycle_epochs`] epochs, with its
/// times given per epoch and its bytes summed.
#[derive(Default)]
struct Timed {
    traced: bool,
    epoch_ms: f64,
    commit_ms: f64,
    recover_ms: Option<f64>,
    stored_bytes: u64,
    full_bytes: u64,
}

/// Run jobs of whole cycles until `seconds` have passed; stops early on a
/// failure. A job is a warm-up and then [`Kind::job_cycles`] timed cycles
/// (`None`: cycles until the deadline); only whole jobs run, so every
/// sample comes from the same point of some job. With `alternate`, every
/// second cycle is traced, so traced and untraced cycles see the same
/// machine and the same program state. Also returns the store's size at
/// the end of the last job.
fn run_epochs(
    rig: &mut Rig,
    next: &mut usize,
    seconds: f64,
    alternate: bool,
    tally: &mut Tally,
) -> (Vec<Timed>, Option<(usize, usize)>) {
    let per = rig.kind().cycle_epochs();
    let job = rig.kind().job_cycles();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = Vec::new();
    let mut store = None;
    while Instant::now() < deadline && tally.failed == 0 {
        if alternate {
            trace::set_active(false);
        }
        if rig.start_job(next, tally).is_none() {
            break;
        }
        let mut cycles = 0;
        while tally.failed == 0 && job.map_or(Instant::now() < deadline, |n| cycles < n) {
            let traced = alternate && out.len() % 2 == 1;
            if alternate {
                trace::set_active(traced);
            }
            let mut cycle = Timed {
                traced,
                ..Timed::default()
            };
            for _ in 0..per {
                let t = Instant::now();
                let sample = {
                    let _e = trace::span("epoch");
                    rig.epoch(*next, tally)
                };
                let epoch_ms = t.elapsed().as_secs_f64() * 1e3;
                *next += 1;
                let Some(s) = sample else {
                    return (out, store);
                };
                cycle.epoch_ms += epoch_ms / per as f64;
                cycle.commit_ms += s.commit_ms / per as f64;
                // Every workload recovers once per cycle.
                cycle.recover_ms = cycle.recover_ms.or(s.recover_ms);
                cycle.stored_bytes += s.stored_bytes;
                cycle.full_bytes += s.full_bytes;
            }
            out.push(cycle);
            cycles += 1;
        }
        store = rig.store_size();
    }
    (out, store)
}

/// CPU time this process has used, all threads, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`).
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (64-bit Linux
    // layout) and the clock id is a constant the C library accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Confine this thread, and so every thread the run starts later, to one
/// CPU: the highest of those it may use. Returns `(cpu, cpus allowed)`.
///
/// On the 2-vCPU VM the benchmark was defined on (14-21% of CPU time taken
/// by the host as steal), a run on both vCPUs spent much of an epoch
/// waiting for threads to wake on the other one: `delta_recover` used a
/// steady 5.2-5.6 ms of CPU per epoch while one-second stretches of the
/// same run took 5.5-10.8 ms of wall time, and `analyze_epoch`'s epoch
/// medians spread by 18% between runs. On one CPU the wall time tracks the
/// CPU time, and the program's defaults that follow
/// `available_parallelism` (engine workers, sweep and restore threads)
/// take their one-core values.
fn pin_to_one_cpu() -> Result<(usize, usize), String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    // A `cpu_set_t`: one bit per CPU, 1024 CPUs.
    let mut mask = [0u8; 128];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let allowed = |c: usize| mask[c / 8] >> (c % 8) & 1 == 1;
    let count = (0..mask.len() * 8).filter(|&c| allowed(c)).count();
    let cpu = (0..mask.len() * 8)
        .rev()
        .find(|&c| allowed(c))
        .ok_or("the affinity mask allows no CPU")?;
    let mut one = [0u8; 128];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of the size passed.
    if unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((cpu, count))
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn print_tail(name: &str, t: Tail) {
    println!(
        "  {name}: {} ms at p{} of {} samples ({} beyond)",
        t.value,
        t.percentile,
        t.samples,
        t.beyond()
    );
}

/// Metrics in output order: name, value, unit.
#[derive(Default)]
struct Report(Vec<(String, f64, &'static str)>);

impl Report {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The result line: every metric must be a finite number.
    fn json(&self, correct: bool, tally: &Tally) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, value, unit) in &self.0 {
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}: too few samples"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.attempted,
            tally.failed,
            metrics.join(", ")
        ))
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let (cpu, cpus) = pin_to_one_cpu()?;
    let mut tally = Tally::default();

    // Set-up, repeated: each builds the workload from nothing.
    let (mut setup_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut rig: Option<Rig> = None;
    for _ in 0..SETUP_REPEATS {
        let prev = rig.take().map(|r| r.uncritical);
        let (t, cpu_s) = (Instant::now(), process_cpu_s());
        let r = Rig::setup(args.kind, args.seed)?;
        setup_s.push(process_cpu_s() - cpu_s);
        setup_wall_s.push(t.elapsed().as_secs_f64());
        if let Some(a) = prev {
            // `core.uncritical_frac` is a correctness guard: it must repeat.
            let b = r.uncritical;
            tally.check(a == b, || {
                format!("uncritical count {b} != setup value {a}")
            });
        }
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one set-up ran");
    let (uncritical, elems) = (rig.uncritical, rig.total_elems());
    let setup_rss_mb = peak_rss_mib()?;

    let mut next = 0;
    let probe = if args.trace {
        trace::set_active(true);
        rig.probe(PROBE_REPEATS, &mut tally)
    } else {
        None
    };
    // Kernel runs, backend operations and faults over the timed epochs
    // and their warm-ups.
    let (runs0, io0, faults0) = (rig.app.runs(), rig.io.counts(), rig.faults);
    let (timed, store) = run_epochs(&mut rig, &mut next, args.seconds, args.trace, &mut tally);
    let (runs1, io) = (rig.app.runs(), rig.io.counts().since(&io0));
    let faults = rig.faults - faults0;
    if args.trace {
        trace::set_active(true);
    }
    {
        let _f = trace::span("finish");
        rig.finish(&mut tally);
    }
    let recovery = rig.recovery.get();
    drop(rig);

    let (traced, untraced): (Vec<&Timed>, Vec<&Timed>) = timed.iter().partition(|t| t.traced);
    let per = args.kind.cycle_epochs();
    let (untraced_epochs, traced_epochs) = (per * untraced.len(), per * traced.len());
    let epochs = (untraced_epochs + traced_epochs) as f64;
    // Counts are over every epoch `run_epochs` ran, warm-ups included.
    let all_epochs = next as f64;
    let stored: u64 = timed.iter().map(|t| t.stored_bytes).sum();
    let full: u64 = timed.iter().map(|t| t.full_bytes).sum();
    let fail_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    let correct = tally.failed == 0 && !timed.is_empty();

    println!(
        "workload {} seed {} seconds {} trace {}: {epochs} timed epochs \
         ({untraced_epochs} untraced, {traced_epochs} traced) in {} samples of {per}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        timed.len(),
    );
    println!("  pinned to CPU {cpu} of {cpus} allowed");
    if let (Some((objects, bytes)), Some(n)) = (store, args.kind.job_cycles()) {
        println!(
            "  store: {objects} objects, {bytes} bytes at the end of each job of \
             {} epochs (retention keeps {} versions)",
            args.kind.warmup_epochs() + n * per,
            args.kind.keep()
        );
    } else if let Some((objects, bytes)) = store {
        println!("  store: {objects} objects, {bytes} bytes at the end of the run");
    }
    println!(
        "  fail_frac: {fail_frac} ratio ({} failed of {} operations and checks)",
        tally.failed, tally.attempted
    );

    let mut report = Report::default();
    if !args.trace {
        let epoch_ms: Vec<f64> = untraced.iter().map(|t| t.epoch_ms).collect();
        let commit_ms: Vec<f64> = untraced.iter().map(|t| t.commit_ms).collect();
        let recover_ms: Vec<f64> = untraced.iter().filter_map(|t| t.recover_ms).collect();
        let p = args.kind.tail_percentile();
        report.add("epoch_ms_p50", median(&epoch_ms), "ms");
        report.add("commit_ms_p50", median(&commit_ms), "ms");
        report.add("recover_ms_p50", median(&recover_ms), "ms");
        // Tails are printed, not in the result. On the 2-vCPU VM the
        // benchmark was defined on, the host took 14-21% of CPU time, and
        // between runs `analyze_epoch`'s epoch p90 moved by 17-26%, p99 by
        // 50%, and its sub-millisecond commit and recovery tails by 30-100%:
        // wider than the largest bound a gate may use.
        print_tail("epoch_ms_tail", tail(&epoch_ms, p));
        print_tail("commit_ms_tail", tail(&commit_ms, p));
        print_tail("recover_ms_tail", tail(&recover_ms, p));
        println!("  stored_ratio: {stored} stored bytes over {full} full-checkpoint bytes");
        report.add("stored_ratio", stored as f64 / full as f64, "ratio");
        println!("  setup_s: median CPU time of {SETUP_REPEATS} set-ups {setup_s:?}");
        println!(
            "  setup wall time: median {} s of {setup_wall_s:?}",
            median(&setup_wall_s)
        );
        report.add("setup_s", median(&setup_s), "s");
        println!("  peak_rss_mb: {setup_rss_mb} MiB after set-up");
        report.add("peak_rss_mb", peak_rss_mib()?, "MiB");
    } else {
        let probe = probe.ok_or("the ad probe failed")?;
        let ledger = trace::Ledger::build();
        if ledger.dropped_events > 0 || ledger.epoch_count() == 0 {
            return Err(format!(
                "trace incomplete: {} traced epochs, {} events dropped",
                ledger.epoch_count(),
                ledger.dropped_events
            ));
        }
        if ledger.unattached > 0 {
            println!(
                "  note: {} backend spans fell outside every traced span",
                ledger.unattached
            );
        }
        let m = |name: &str| median(&ledger.durations(name));

        report.add("npb.f64_run_ms", m("npb.f64_run"), "ms");
        report.add(
            "npb.f64_runs_per_epoch",
            (runs1.0 - runs0.0) as f64 / all_epochs,
            "count",
        );
        report.add(
            "npb.ad_runs_per_epoch",
            (runs1.1 - runs0.1) as f64 / all_epochs,
            "count",
        );

        println!(
            "  ad probe: record {} ms over f64 run {} ms; {} nodes",
            probe.record_ms, probe.f64_ms, probe.nodes
        );
        report.add("ad.record_ms", probe.record_ms, "ms");
        report.add("ad.record_nodes", probe.nodes as f64, "count");
        report.add(
            "ad.record_ns_per_node",
            probe.record_ms * 1e6 / probe.nodes as f64,
            "ns",
        );
        report.add(
            "ad.record_over_f64",
            probe.record_ms / probe.f64_ms,
            "ratio",
        );
        report.add("ad.sweep_value_ms", probe.sweep_value_ms, "ms");
        report.add("ad.sweep_reach_ms", probe.sweep_reach_ms, "ms");
        report.add("ad.sweep_threads", probe.sweep_threads as f64, "count");
        report.add("ad.tape_bytes", probe.tape_bytes as f64, "B");

        report.add("core.scrutinize_ms", m("core.scrutinize"), "ms");
        report.add("core.capture_ms", m("core.capture"), "ms");
        report.add("core.plan_ms", m("core.plan"), "ms");
        report.add("core.verify_ms", m("core.verify"), "ms");
        println!("  core.uncritical_frac: {uncritical} uncritical of {elems} elements");
        report.add(
            "core.uncritical_frac",
            uncritical as f64 / elems as f64,
            "ratio",
        );

        report.add("engine.submit_ms", m("engine.submit"), "ms");
        report.add("engine.wait_ms", m("engine.wait"), "ms");
        report.add(
            "engine.publish_cpu_ms",
            median(&ledger.publish_cpu_ms()),
            "ms",
        );
        report.add("engine.recover_ms", m("engine.recover"), "ms");
        let per_recover = |n: u64| n as f64 / recovery.recovers.max(1) as f64;
        report.add(
            "engine.recover_scanned",
            per_recover(recovery.scanned),
            "count",
        );
        report.add(
            "engine.recover_rejected",
            per_recover(recovery.rejected),
            "count",
        );
        report.add("engine.reopen_ms", m("engine.reopen"), "ms");

        report.add("backend.put_ms", m("backend.put"), "ms");
        report.add("backend.get_ms", m("backend.get"), "ms");
        report.add("backend.list_ms", m("backend.list"), "ms");
        report.add(
            "backend.ops_per_epoch",
            io.ops() as f64 / all_epochs,
            "count",
        );
        report.add(
            "backend.put_bytes_per_epoch",
            io.put_bytes as f64 / all_epochs,
            "B",
        );
        report.add(
            "backend.get_bytes_per_epoch",
            io.get_bytes as f64 / all_epochs,
            "B",
        );
        report.add(
            "backend.request_ms_p50",
            median(&ledger.backend_durations()),
            "ms",
        );

        report.add("ckpt.stored_bytes_per_epoch", stored as f64 / epochs, "B");
        report.add("ckpt.full_bytes_per_epoch", full as f64 / epochs, "B");
        println!(
            "  ckpt.delta_epoch_frac: {} delta epochs of {all_epochs}",
            io.delta_puts
        );
        report.add(
            "ckpt.delta_epoch_frac",
            io.delta_puts as f64 / all_epochs,
            "ratio",
        );
        report.add(
            "ckpt.recover_cpu_ms",
            median(&ledger.self_times("engine.recover")),
            "ms",
        );

        println!("  faultinj.faults_injected: over {all_epochs} epochs");
        report.add("faultinj.faults_injected", faults as f64, "count");

        let (layers, epoch_total) = ledger.layer_totals();
        println!(
            "  layer self time over {} traced epochs ({epoch_total:.3} ms in all):",
            ledger.epoch_count()
        );
        for (layer, ms) in &layers {
            println!("    {layer:<9} {ms:>12.3} ms  {:.4}", ms / epoch_total);
        }
        for layer in trace::LAYERS {
            report.add(
                format!("trace.{layer}_frac"),
                layers[layer] / epoch_total,
                "ratio",
            );
        }
        let untraced_p50 = median(&untraced.iter().map(|t| t.epoch_ms).collect::<Vec<_>>());
        let traced_p50 = median(&traced.iter().map(|t| t.epoch_ms).collect::<Vec<_>>());
        println!(
            "  trace.overhead_frac: traced epoch p50 {traced_p50} ms over untraced p50 \
             {untraced_p50} ms, minus 1"
        );
        report.add(
            "trace.overhead_frac",
            traced_p50 / untraced_p50 - 1.0,
            "ratio",
        );
    }

    for (name, value, unit) in &report.0 {
        println!("  {name} = {value} {unit}");
    }
    println!("{}", report.json(correct, &tally)?);
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "epoch-ledger: {e}\nusage: epoch-ledger --workload \
                 <analyze_epoch|remote_tcp|delta_recover> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("epoch-ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
