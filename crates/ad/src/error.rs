//! Typed errors for tape recording and reverse sweeps.
//!
//! The seed tape `assert!`ed on overflow and on out-of-range sweep seeds,
//! aborting whatever long NPB record was in flight. Both conditions are now
//! ordinary values: recording past the node budget *poisons* the tape (the
//! run keeps going, arithmetic folds to constants) and every sweep entry
//! point reports the poisoning — or a bad seed — as an [`AdError`] that
//! `scrutiny-core` surfaces to its callers.

use std::fmt;

/// Failure modes of recording onto or sweeping a [`crate::Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AdError {
    /// Recording hit the configured node budget
    /// ([`crate::TapeConfig::node_limit`]). The tape is poisoned: nodes
    /// past the budget were dropped, so any gradient computed from it
    /// would silently be wrong.
    TapeOverflow {
        /// The node budget that was exhausted.
        limit: u64,
    },
    /// A sweep was seeded at a node id that is not on the tape.
    NodeOutOfRange {
        /// The requested seed node.
        node: u64,
        /// Nodes actually recorded.
        len: u64,
    },
    /// A configuration knob was self-contradictory — e.g. a tape
    /// checkpoint byte budget smaller than a single segment, which could
    /// not hold even the open recording segment.
    InvalidConfig {
        /// What was wrong with the configuration.
        reason: &'static str,
    },
    /// A sweep reached a segment that was evicted under a
    /// [`crate::TapeCheckpointConfig`] but no replay closure was
    /// registered to re-record it (set [`crate::SweepOptions::replay`]
    /// when sweeping a checkpointed tape).
    SegmentEvicted {
        /// The evicted segment the sweep needed.
        segment: u64,
    },
    /// Re-recording an evicted segment produced different bytes than the
    /// original recording: the replay closure is not deterministic (or
    /// not the closure that produced the tape). `segment == u64::MAX`
    /// means the *total* replayed node count diverged; otherwise
    /// `expected`/`actual` are the recorded and re-recorded segment
    /// digests (or lengths) for `segment`.
    ReplayDivergence {
        /// Segment whose re-recording diverged (`u64::MAX`: whole-tape
        /// node count mismatch).
        segment: u64,
        /// Recorded digest / length / node count.
        expected: u64,
        /// Re-recorded digest / length / node count.
        actual: u64,
    },
}

impl fmt::Display for AdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdError::TapeOverflow { limit } => {
                write!(
                    f,
                    "tape overflow: recording exceeded the {limit}-node budget"
                )
            }
            AdError::NodeOutOfRange { node, len } => {
                write!(f, "sweep seed node {node} is not on the tape (len {len})")
            }
            AdError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
            AdError::SegmentEvicted { segment } => {
                write!(
                    f,
                    "segment {segment} was evicted under the tape checkpoint \
                     policy and no replay closure is registered"
                )
            }
            AdError::ReplayDivergence {
                segment,
                expected,
                actual,
            } => {
                if *segment == u64::MAX {
                    write!(
                        f,
                        "replay divergence: re-recording produced {actual} nodes \
                         where the original recording produced {expected}"
                    )
                } else {
                    write!(
                        f,
                        "replay divergence in segment {segment}: re-recorded \
                         content {actual:#018x} != recorded {expected:#018x}"
                    )
                }
            }
        }
    }
}

impl std::error::Error for AdError {}
