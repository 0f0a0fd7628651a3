//! The memory-budget harness for divide-and-conquer tape checkpointing:
//! on randomly generated recordings, a checkpointed tape must (a) never
//! let resident arena bytes exceed the configured budget — during
//! recording *or* while the sweeps replay evicted segments — and (b)
//! produce gradients, reachability, and datadep liveness **bit-identical**
//! to the same program recorded unbounded. Violations of either property
//! are exactly the silent failure modes eviction could introduce, so both
//! are checked on every case.
//!
//! The error-path tests pin down the typed-error contract: an impossible
//! budget is [`AdError::InvalidConfig`], sweeping an evicted tape without
//! a replay closure is [`AdError::SegmentEvicted`], a non-deterministic
//! replay closure is [`AdError::ReplayDivergence`], and a poisoned
//! (overflowed) tape keeps reporting [`AdError::TapeOverflow`] — never a
//! panic.

use proptest::prelude::*;
use scrutiny_ad::{
    AdError, Adj, SweepConfig, SweepOptions, Tape, TapeCheckpointConfig, TapeConfig, TapeReplay,
    TapeSession, NODE_BYTES,
};

/// Sweep options re-recording evicted segments through `replay`.
fn replaying(config: SweepConfig, replay: &dyn TapeReplay) -> SweepOptions<'_> {
    SweepOptions {
        config,
        replay: Some(replay),
        ..SweepOptions::default()
    }
}

/// One deterministic straight-line program: fold `ops` over a two-leaf
/// seed state. Each op byte picks the arithmetic, so the recording is a
/// pure function of `(ops, x0, y0)` — exactly what a replay closure
/// needs to be.
fn run_program(ops: &[u8], x0: f64, y0: f64) -> Adj {
    let x = Adj::leaf(x0);
    let y = Adj::leaf(y0);
    let mut acc = x * y;
    for (i, &op) in ops.iter().enumerate() {
        acc = match op % 5 {
            0 => acc + x,
            1 => acc * y,
            2 => acc - x * 0.5,
            3 => (acc * acc + 1.0).sqrt(),
            _ => acc / (y * y + 2.0),
        };
        // Touch both leaves periodically so liveness stays interesting.
        if i % 7 == 0 {
            acc += x * y;
        }
    }
    acc
}

/// Record `ops` on a tape with the given segment length and optional
/// residency budget.
fn record(
    ops: &[u8],
    x0: f64,
    y0: f64,
    segment_len: usize,
    checkpoint: Option<TapeCheckpointConfig>,
) -> (Adj, Tape) {
    let session = TapeSession::with_config(TapeConfig {
        segment_len,
        checkpoint,
        ..TapeConfig::default()
    });
    let out = run_program(ops, x0, y0);
    (out, session.finish())
}

const SEG: usize = 32;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random programs, random budgets: peak residency stays under the
    /// budget and every sweep result is bit-identical to the unbounded
    /// recording.
    #[test]
    fn residency_bounded_and_sweeps_bit_identical(
        ops in proptest::collection::vec(0u8..255, 64..512),
        n in 1usize..6,
        x0 in 0.5f64..2.0,
        y0 in 0.5f64..2.0,
    ) {
        let (out, full) = record(&ops, x0, y0, SEG, None);
        let segments = full.segment_count();
        prop_assume!(segments > 2);
        let (base, _) = full.gradient_sweep(out, SweepConfig::serial()).unwrap();
        let (base_reach, _) = full.reachable_sweep(out, SweepConfig::serial()).unwrap();

        let ckpt = TapeCheckpointConfig::with_ncheckpoints(n);
        let budget = ckpt.budget_bytes(SEG, segments);
        let (out_b, bounded) = record(&ops, x0, y0, SEG, Some(ckpt));
        prop_assert!(
            bounded.peak_resident_bytes() <= budget,
            "recording peak {} over budget {budget} (ncheckpoints={n})",
            bounded.peak_resident_bytes()
        );

        let replay = || { let _ = run_program(&ops, x0, y0); };
        let (grads, stats) = bounded
            .gradient_sweep(out_b, replaying(SweepConfig::serial(), &replay))
            .unwrap();
        prop_assert!(
            stats.peak_resident_bytes <= budget,
            "sweep peak {} over budget {budget} (ncheckpoints={n})",
            stats.peak_resident_bytes
        );
        for i in 0..base.len() {
            prop_assert_eq!(
                base.of_node(i as u64).to_bits(),
                grads.of_node(i as u64).to_bits()
            );
        }
        let (reach, _) = bounded
            .reachable_sweep(out_b, replaying(SweepConfig::serial(), &replay))
            .unwrap();
        prop_assert_eq!(&base_reach, &reach);
        let dd = bounded
            .datadep_sweep(out_b, replaying(SweepConfig::serial(), &replay))
            .unwrap();
        prop_assert_eq!(dd.live_bits(), &reach[..]);
        if n < segments {
            prop_assert!(
                bounded.stats().replayed_segments > 0,
                "budget {n} < {segments} segments must have forced replays"
            );
        }
    }

    /// The budget really is a *byte* contract: `for_budget_bytes` resolves
    /// to a segment count whose residency never exceeds the raw byte
    /// figure it was asked for.
    #[test]
    fn byte_budget_is_respected(
        ops in proptest::collection::vec(0u8..255, 64..256),
        budget_segs in 1usize..5,
    ) {
        let budget = budget_segs * SEG * NODE_BYTES;
        let ckpt = TapeCheckpointConfig::for_budget_bytes(budget, SEG).unwrap();
        let (out, tape) = record(&ops, 1.25, 0.75, SEG, Some(ckpt));
        let replay = || { let _ = run_program(&ops, 1.25, 0.75); };
        let (_, stats) = tape
            .gradient_sweep(out, replaying(SweepConfig::serial(), &replay))
            .unwrap();
        prop_assert!(tape.peak_resident_bytes() <= budget);
        prop_assert!(stats.peak_resident_bytes <= budget);
    }
}

#[test]
fn budget_below_one_segment_is_invalid_config() {
    let err = TapeCheckpointConfig::for_budget_bytes(SEG * NODE_BYTES - 1, SEG).unwrap_err();
    assert!(matches!(err, AdError::InvalidConfig { .. }), "{err}");
}

#[test]
fn evicted_sweep_without_replayer_is_segment_evicted() {
    let ops = vec![1u8; 256];
    let (out, tape) = record(
        &ops,
        1.5,
        0.5,
        SEG,
        Some(TapeCheckpointConfig::with_ncheckpoints(1)),
    );
    assert!(tape.stats().evicted_segments > 0);
    let err = tape.gradient_sweep(out, SweepConfig::serial()).unwrap_err();
    assert!(matches!(err, AdError::SegmentEvicted { .. }), "{err}");
}

#[test]
fn divergent_replay_is_replay_divergence() {
    let ops = vec![3u8; 256];
    let (out, tape) = record(
        &ops,
        1.5,
        0.5,
        SEG,
        Some(TapeCheckpointConfig::with_ncheckpoints(1)),
    );
    // Same node count, different arithmetic: the digest check must
    // refuse the re-recorded bytes.
    let bad = || {
        let _ = run_program(&ops, 1.5, 0.625);
    };
    let err = tape
        .gradient_sweep(out, replaying(SweepConfig::serial(), &bad))
        .unwrap_err();
    assert!(matches!(err, AdError::ReplayDivergence { .. }), "{err}");
}

#[test]
fn overflowed_checkpointed_tape_stays_a_typed_error() {
    let session = TapeSession::with_config(TapeConfig {
        segment_len: SEG,
        node_limit: 64,
        checkpoint: Some(TapeCheckpointConfig::with_ncheckpoints(1)),
        ..TapeConfig::default()
    });
    let out = run_program(&vec![0u8; 256], 1.0, 2.0);
    let tape = session.finish();
    let replay = || {
        let _ = run_program(&vec![0u8; 256], 1.0, 2.0);
    };
    let err = tape
        .gradient_sweep(out, replaying(SweepConfig::serial(), &replay))
        .unwrap_err();
    assert_eq!(err, AdError::TapeOverflow { limit: 64 });
}
