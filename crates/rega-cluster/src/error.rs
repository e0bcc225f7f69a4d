//! The cluster's typed failure taxonomy.
//!
//! Every way the cluster can refuse or lose work has a variant here, each
//! with a stable kebab-case wire code — the cluster analogue of
//! `rega-serve`'s `AdmissionError`. The two load-bearing ones:
//!
//! * [`ClusterError::Rebalancing`] — the graceful-degradation contract: a
//!   shard range in mid-migration answers with a suggested retry delay
//!   instead of stalling the caller or silently dropping the event.
//! * [`ClusterError::StaleEpoch`] — the at-most-once fence: any request
//!   stamped with an assignment epoch other than the node's current one
//!   is rejected before touching session state, so a slow old owner (or a
//!   slow old controller) can never double-apply.

use rega_stream::{SnapshotError, SubmitError};
use serde_json::{json, Value as Json};
use std::fmt;

/// Why the cluster rejected a request or lost a worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterError {
    /// The virtual shard is mid-migration: its state has left the old
    /// owner and has not yet been installed on the new one. Retry after
    /// the suggested delay; nothing was applied.
    Rebalancing {
        /// The virtual shard in flight.
        vshard: usize,
        /// Suggested client back-off before retrying.
        retry_after_ms: u64,
    },
    /// The node does not own the event's virtual shard under the epoch
    /// both sides agree on — the caller's routing table is stale.
    NotOwner {
        /// The virtual shard the request targeted.
        vshard: usize,
    },
    /// The request's assignment epoch does not match the node's. Applied
    /// state is never touched on this path.
    StaleEpoch {
        /// Epoch the request was stamped with.
        sent: u64,
        /// Epoch the node currently holds.
        held: u64,
    },
    /// A worker is down. From a transport: the worker did not answer and
    /// is being recovered. From the supervisor: every worker has exhausted
    /// its respawn budget.
    WorkerDown {
        /// Node index of the dead worker.
        node: usize,
    },
    /// Routing could not converge within the retry budget — every retry
    /// path (rebalancing waits, respawn waits, re-routing) was exhausted.
    Unavailable {
        /// The virtual shard that could not be served.
        vshard: usize,
        /// Delivery attempts made before giving up.
        attempts: u64,
    },
    /// A per-vshard sequence number arrived out of order (a gap). The
    /// journal protocol delivers in order, so this is a protocol bug on
    /// the sending side, surfaced loudly instead of silently reordering.
    SequenceGap {
        /// The virtual shard concerned.
        vshard: usize,
        /// Highest sequence number applied so far.
        applied: u64,
        /// The sequence number that arrived.
        got: u64,
    },
    /// The node's engine rejected the event (arity, dead workers).
    Submit(SubmitError),
    /// A migration bundle or durable checkpoint failed to decode.
    Snapshot(SnapshotError),
    /// The wire protocol broke: unreadable frame, unexpected reply shape,
    /// or a transport error mid-conversation.
    Wire(String),
    /// A worker process could not be spawned or completed its handshake.
    Spawn(String),
}

impl ClusterError {
    /// Stable kebab-case code for wire serialization and metrics.
    pub fn code(&self) -> &'static str {
        match self {
            ClusterError::Rebalancing { .. } => "rebalancing",
            ClusterError::NotOwner { .. } => "not-owner",
            ClusterError::StaleEpoch { .. } => "stale-epoch",
            ClusterError::WorkerDown { .. } => "worker-down",
            ClusterError::Unavailable { .. } => "unavailable",
            ClusterError::SequenceGap { .. } => "sequence-gap",
            ClusterError::Submit(_) => "submit-failed",
            ClusterError::Snapshot(_) => "bad-snapshot",
            ClusterError::Wire(_) => "wire",
            ClusterError::Spawn(_) => "spawn",
        }
    }

    /// Serializes the error for the worker wire protocol. Everything the
    /// typed variants carry survives the round trip through
    /// [`ClusterError::from_json`].
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(&str, u64)> = Vec::new();
        match self {
            ClusterError::Rebalancing {
                vshard,
                retry_after_ms,
            } => {
                fields.push(("vshard", *vshard as u64));
                fields.push(("retry_after_ms", *retry_after_ms));
            }
            ClusterError::NotOwner { vshard } => {
                fields.push(("vshard", *vshard as u64));
            }
            ClusterError::StaleEpoch { sent, held } => {
                fields.push(("sent", *sent));
                fields.push(("held", *held));
            }
            ClusterError::WorkerDown { node } => {
                fields.push(("node", *node as u64));
            }
            ClusterError::Unavailable { vshard, attempts } => {
                fields.push(("vshard", *vshard as u64));
                fields.push(("attempts", *attempts));
            }
            ClusterError::SequenceGap {
                vshard,
                applied,
                got,
            } => {
                fields.push(("vshard", *vshard as u64));
                fields.push(("applied", *applied));
                fields.push(("got", *got));
            }
            _ => {}
        }
        let mut obj = std::collections::BTreeMap::new();
        obj.insert("code".to_string(), json!(self.code()));
        obj.insert("message".to_string(), json!(self.to_string()));
        for (k, v) in fields {
            obj.insert(k.to_string(), json!(v));
        }
        Json::Object(obj)
    }

    /// Decodes a wire error produced by [`ClusterError::to_json`].
    /// Unknown codes decode as [`ClusterError::Wire`] so a version-skewed
    /// worker degrades to a typed transport error, not a panic.
    pub fn from_json(j: &Json) -> ClusterError {
        let num = |field: &str| j[field].as_u64().unwrap_or(0);
        match j["code"].as_str().unwrap_or("") {
            "rebalancing" => ClusterError::Rebalancing {
                vshard: num("vshard") as usize,
                retry_after_ms: num("retry_after_ms"),
            },
            "not-owner" => ClusterError::NotOwner {
                vshard: num("vshard") as usize,
            },
            "stale-epoch" => ClusterError::StaleEpoch {
                sent: num("sent"),
                held: num("held"),
            },
            "worker-down" => ClusterError::WorkerDown {
                node: num("node") as usize,
            },
            "unavailable" => ClusterError::Unavailable {
                vshard: num("vshard") as usize,
                attempts: num("attempts"),
            },
            "sequence-gap" => ClusterError::SequenceGap {
                vshard: num("vshard") as usize,
                applied: num("applied"),
                got: num("got"),
            },
            _ => ClusterError::Wire(
                j["message"]
                    .as_str()
                    .unwrap_or("unrecognized worker error")
                    .to_string(),
            ),
        }
    }
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Rebalancing {
                vshard,
                retry_after_ms,
            } => write!(
                f,
                "vshard {vshard} is rebalancing; retry after {retry_after_ms} ms"
            ),
            ClusterError::NotOwner { vshard } => {
                write!(f, "this node does not own vshard {vshard}")
            }
            ClusterError::StaleEpoch { sent, held } => {
                write!(f, "assignment epoch {sent} is stale (node holds {held})")
            }
            ClusterError::WorkerDown { node } => write!(f, "worker {node} is down"),
            ClusterError::Unavailable { vshard, attempts } => write!(
                f,
                "vshard {vshard} unavailable after {attempts} delivery attempts"
            ),
            ClusterError::SequenceGap {
                vshard,
                applied,
                got,
            } => write!(
                f,
                "sequence gap on vshard {vshard}: applied {applied}, got {got}"
            ),
            ClusterError::Submit(e) => write!(f, "engine rejected event: {e}"),
            ClusterError::Snapshot(e) => write!(f, "{e}"),
            ClusterError::Wire(msg) => write!(f, "wire protocol error: {msg}"),
            ClusterError::Spawn(msg) => write!(f, "worker spawn failed: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<SubmitError> for ClusterError {
    fn from(e: SubmitError) -> Self {
        ClusterError::Submit(e)
    }
}

impl From<SnapshotError> for ClusterError {
    fn from(e: SnapshotError) -> Self {
        ClusterError::Snapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_variants_round_trip_the_wire() {
        let errors = [
            ClusterError::Rebalancing {
                vshard: 17,
                retry_after_ms: 5,
            },
            ClusterError::NotOwner { vshard: 3 },
            ClusterError::StaleEpoch { sent: 4, held: 9 },
            ClusterError::WorkerDown { node: 2 },
            ClusterError::Unavailable {
                vshard: 63,
                attempts: 1000,
            },
            ClusterError::SequenceGap {
                vshard: 0,
                applied: 7,
                got: 9,
            },
        ];
        for e in errors {
            let back = ClusterError::from_json(&e.to_json());
            assert_eq!(back, e, "round trip changed {e:?}");
        }
    }

    #[test]
    fn unknown_code_degrades_to_wire() {
        let j = json!({"code": "from-the-future", "message": "hi"});
        assert_eq!(
            ClusterError::from_json(&j),
            ClusterError::Wire("hi".to_string())
        );
    }
}
