//! The node agent: one engine wrapped in cluster membership.
//!
//! A [`NodeAgent`] owns a deterministic [`SimScheduler`] plus the three
//! pieces of cluster state that make cross-process migration sound:
//!
//! * the **assignment epoch** it currently holds — every request is
//!   stamped with the sender's epoch and anything else is rejected as
//!   [`ClusterError::StaleEpoch`] *before* touching session state, which
//!   is what makes a slow old owner (or old controller) harmless;
//! * the **owned vshard set** — events for anything else are
//!   [`ClusterError::NotOwner`] (stale routing) or
//!   [`ClusterError::Rebalancing`] (assigned here but the migrated state
//!   has not been installed yet — the graceful-degradation window);
//! * **per-vshard applied sequence numbers** — the ingress stamps every
//!   event with a per-vshard sequence, and the agent drops anything at or
//!   below the applied watermark as a [`Applied::Duplicate`]. Redelivery
//!   after a lost ack or a crash replay is therefore exactly-once *in
//!   effect* on top of an at-most-once apply rule.
//!
//! The agent runs the deterministic scheduler ([`SimScheduler`]):
//! within a node, event application is single-threaded and reproducible;
//! cluster-level parallelism comes from running many node processes.
//! That is also what makes migration possible at all — the deterministic
//! scheduler is the one that can checkpoint and extract mid-stream.

use crate::assign::vshard;
use crate::error::ClusterError;
use rega_stream::event::Event;
use rega_stream::{CompiledSpec, EngineConfig, EngineReport, SimScheduler};
use serde_json::{json, Value as Json};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Suggested client back-off carried by [`ClusterError::Rebalancing`].
pub const REBALANCE_RETRY_MS: u64 = 5;

/// Format version of node checkpoint / migration bundles.
pub const BUNDLE_VERSION: u64 = 1;

/// What happened to a submitted event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Applied {
    /// First delivery: applied to the engine.
    Fresh,
    /// At or below the applied watermark: dropped without touching state.
    Duplicate,
}

/// One engine plus its cluster membership state. See the module docs.
pub struct NodeAgent {
    engine: SimScheduler,
    node: usize,
    epoch: u64,
    owned: BTreeSet<usize>,
    incoming: BTreeSet<usize>,
    seqs: BTreeMap<usize, u64>,
}

impl NodeAgent {
    /// A fresh agent owning nothing, at epoch 0, awaiting its first
    /// assignment.
    pub fn new(spec: Arc<CompiledSpec>, config: EngineConfig, seed: u64, node: usize) -> NodeAgent {
        NodeAgent {
            engine: SimScheduler::start(spec, config, seed),
            node,
            epoch: 0,
            owned: BTreeSet::new(),
            incoming: BTreeSet::new(),
            seqs: BTreeMap::new(),
        }
    }

    /// The assignment epoch the agent currently holds.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The vshards this agent owns and can serve.
    pub fn owned(&self) -> &BTreeSet<usize> {
        &self.owned
    }

    /// Applied sequence watermark for `v` (0 when nothing applied).
    pub fn applied_seq(&self, v: usize) -> u64 {
        self.seqs.get(&v).copied().unwrap_or(0)
    }

    /// Accepts an assignment from the controller: the epoch and the full
    /// owned set. Fenced: an epoch older than the agent's is rejected (a
    /// slow old controller cannot roll membership back).
    pub fn reassign(&mut self, epoch: u64, owned: BTreeSet<usize>) -> Result<(), ClusterError> {
        if epoch < self.epoch {
            return Err(ClusterError::StaleEpoch {
                sent: epoch,
                held: self.epoch,
            });
        }
        self.epoch = epoch;
        self.owned = owned;
        // `incoming` is deliberately left alone: a reassign that lands
        // mid-migration (an epoch resync) must not open the door to a
        // vshard whose state has not been installed yet — only
        // [`NodeAgent::install`] clears the rebalancing window.
        Ok(())
    }

    /// Marks vshards as assigned-but-not-yet-installed: events for them
    /// answer [`ClusterError::Rebalancing`] until [`NodeAgent::install`]
    /// lands the migrated state.
    pub fn begin_incoming(&mut self, epoch: u64, vshards: &[usize]) -> Result<(), ClusterError> {
        if epoch < self.epoch {
            return Err(ClusterError::StaleEpoch {
                sent: epoch,
                held: self.epoch,
            });
        }
        self.epoch = epoch;
        self.incoming.extend(vshards.iter().copied());
        Ok(())
    }

    /// Applies one event. The full gauntlet, in order: epoch fence,
    /// rebalancing window, ownership, sequence watermark — only then does
    /// the engine see the event.
    pub fn submit(
        &mut self,
        epoch: u64,
        v: usize,
        seq: u64,
        event: Event,
    ) -> Result<Applied, ClusterError> {
        debug_assert_eq!(vshard(event.session()), v, "event routed to wrong vshard");
        if epoch != self.epoch {
            return Err(ClusterError::StaleEpoch {
                sent: epoch,
                held: self.epoch,
            });
        }
        if self.incoming.contains(&v) {
            return Err(ClusterError::Rebalancing {
                vshard: v,
                retry_after_ms: REBALANCE_RETRY_MS,
            });
        }
        if !self.owned.contains(&v) {
            return Err(ClusterError::NotOwner { vshard: v });
        }
        let applied = self.applied_seq(v);
        if seq <= applied {
            return Ok(Applied::Duplicate);
        }
        if seq != applied + 1 {
            return Err(ClusterError::SequenceGap {
                vshard: v,
                applied,
                got: seq,
            });
        }
        self.engine.submit(event)?;
        self.seqs.insert(v, seq);
        Ok(Applied::Fresh)
    }

    /// Migration donor half. `new_epoch` must be strictly newer than the
    /// held epoch (the fence against a replayed old extract); on success
    /// the agent has advanced to `new_epoch`, no longer owns `vshards`,
    /// and the returned bundle carries their sessions and sequence
    /// watermarks for [`NodeAgent::install`] on the recipient.
    pub fn extract(&mut self, new_epoch: u64, vshards: &[usize]) -> Result<Json, ClusterError> {
        if new_epoch <= self.epoch {
            return Err(ClusterError::StaleEpoch {
                sent: new_epoch,
                held: self.epoch,
            });
        }
        let moving: BTreeSet<usize> = vshards.iter().copied().collect();
        let snapshot = self.engine.extract(&|name| moving.contains(&vshard(name)));
        self.epoch = new_epoch;
        self.owned.retain(|v| !moving.contains(v));
        let seqs = moving
            .iter()
            .filter_map(|v| Some((*v, self.seqs.remove(v)?)))
            .collect();
        Ok(bundle(new_epoch, &moving, &seqs, snapshot))
    }

    /// Migration recipient half: absorbs an extracted bundle (or a
    /// filtered checkpoint). Fenced against old epochs; on success the
    /// agent owns the bundle's vshards and serves them immediately.
    /// Returns the number of sessions absorbed.
    pub fn install(&mut self, epoch: u64, bundle: &Json) -> Result<usize, ClusterError> {
        if epoch < self.epoch {
            return Err(ClusterError::StaleEpoch {
                sent: epoch,
                held: self.epoch,
            });
        }
        let vshards: Vec<usize> = bundle["vshards"]
            .as_array()
            .ok_or_else(|| ClusterError::Wire("bundle lacks vshards".into()))?
            .iter()
            .filter_map(|v| v.as_u64().map(|v| v as usize))
            .collect();
        let seqs = seqs_from_json(&bundle["seqs"])
            .ok_or_else(|| ClusterError::Wire("bundle lacks seqs".into()))?;
        let absorbed = self.engine.absorb(&bundle["engine"])?;
        self.epoch = epoch;
        for v in &vshards {
            self.owned.insert(*v);
            self.incoming.remove(v);
        }
        for (v, seq) in seqs {
            let entry = self.seqs.entry(v).or_insert(0);
            *entry = (*entry).max(seq);
        }
        Ok(absorbed)
    }

    /// Serializes the agent's complete durable state — engine checkpoint
    /// plus membership and sequence watermarks — as one bundle suitable
    /// for [`rega_stream::persist::save`]; [`filter_bundle`] turns it into
    /// what [`NodeAgent::install`] restores.
    pub fn checkpoint(&mut self) -> Json {
        let mut bundle = bundle(
            self.epoch,
            &self.owned,
            &self.seqs,
            self.engine.checkpoint(),
        );
        if let Json::Object(fields) = &mut bundle {
            fields.insert("node".into(), json!(self.node as u64));
        }
        bundle
    }

    /// Drains the engine and reports every session this node ended up
    /// owning.
    pub fn finish(self) -> EngineReport {
        self.engine.finish()
    }
}

/// The one bundle shape, written by [`NodeAgent::checkpoint`] and
/// [`NodeAgent::extract`] alike: an engine snapshot, the vshards it
/// covers, and their sequence watermarks.
fn bundle(
    epoch: u64,
    vshards: &BTreeSet<usize>,
    seqs: &BTreeMap<usize, u64>,
    engine: Json,
) -> Json {
    json!({
        "format_version": BUNDLE_VERSION,
        "epoch": epoch,
        "vshards": vshards.iter().map(|&v| v as u64).collect::<Vec<u64>>(),
        "seqs": seqs_to_json(seqs),
        "engine": engine,
    })
}

/// Restricts a checkpoint bundle to the vshards in `keep`: sessions,
/// closed outcomes, sequence watermarks, and the `vshards` an
/// [`NodeAgent::install`] of the result claims are all filtered. Used on
/// respawn, when the durable checkpoint may predate migrations that moved
/// vshards away — restoring the stale extra state would resurrect
/// sessions another node now owns.
pub fn filter_bundle(bundle: &Json, keep: &BTreeSet<usize>) -> Json {
    let keep_session = |entry: &Json| -> bool {
        entry["session"]
            .as_str()
            .is_some_and(|name| keep.contains(&vshard(name)))
    };
    let Some(top) = bundle.as_object() else {
        return bundle.clone();
    };
    let mut top = top.clone();
    if let Some(engine) = top.get("engine").and_then(|e| e.as_object()) {
        let mut engine = engine.clone();
        for field in ["live", "closed"] {
            if let Some(entries) = engine.get(field).and_then(|a| a.as_array()) {
                let kept: Vec<Json> = entries
                    .iter()
                    .filter(|e| keep_session(e))
                    .cloned()
                    .collect();
                engine.insert(field.to_string(), Json::Array(kept));
            }
        }
        top.insert("engine".to_string(), Json::Object(engine));
    }
    if let Some(Json::Array(vshards)) = top.remove("vshards") {
        let kept: Vec<Json> = vshards
            .into_iter()
            .filter(|v| v.as_u64().is_some_and(|v| keep.contains(&(v as usize))))
            .collect();
        top.insert("vshards".to_string(), Json::Array(kept));
    }
    if let Some(seqs) = seqs_from_json(&bundle["seqs"]) {
        let kept: BTreeMap<usize, u64> =
            seqs.into_iter().filter(|(v, _)| keep.contains(v)).collect();
        top.insert("seqs".to_string(), seqs_to_json(&kept));
    }
    Json::Object(top)
}

fn seqs_to_json(seqs: &BTreeMap<usize, u64>) -> Json {
    Json::Object(
        seqs.iter()
            .map(|(v, seq)| (v.to_string(), json!(*seq)))
            .collect(),
    )
}

pub(crate) fn seqs_from_json(j: &Json) -> Option<BTreeMap<usize, u64>> {
    let obj = j.as_object()?;
    let mut seqs = BTreeMap::new();
    for (k, v) in obj {
        seqs.insert(k.parse::<usize>().ok()?, v.as_u64()?);
    }
    Some(seqs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rega_core::spec::parse_spec;
    use rega_data::{Database, Schema, Value};

    fn spec() -> Arc<CompiledSpec> {
        let ext = parse_spec(
            "\
registers 1
state p init accept
trans p -> p : x1 = x1
",
        )
        .unwrap();
        Arc::new(CompiledSpec::compile(ext, Database::new(Schema::empty()), None).unwrap())
    }

    fn step(session: &str, value: u64) -> Event {
        Event::Step {
            session: session.into(),
            state: "p".into(),
            regs: vec![Value(value)],
        }
    }

    fn agent_owning_everything() -> NodeAgent {
        let mut agent = NodeAgent::new(spec(), EngineConfig::default(), 7, 0);
        agent
            .reassign(1, (0..crate::assign::VSHARDS).collect())
            .unwrap();
        agent
    }

    #[test]
    fn epoch_fence_precedes_everything() {
        let mut agent = agent_owning_everything();
        let v = vshard("alice");
        assert_eq!(
            agent.submit(2, v, 1, step("alice", 1)),
            Err(ClusterError::StaleEpoch { sent: 2, held: 1 })
        );
        assert_eq!(
            agent.submit(0, v, 1, step("alice", 1)),
            Err(ClusterError::StaleEpoch { sent: 0, held: 1 })
        );
        assert_eq!(agent.submit(1, v, 1, step("alice", 1)), Ok(Applied::Fresh));
    }

    #[test]
    fn duplicates_drop_and_gaps_are_loud() {
        let mut agent = agent_owning_everything();
        let v = vshard("alice");
        assert_eq!(agent.submit(1, v, 1, step("alice", 1)), Ok(Applied::Fresh));
        // Redelivery (lost ack): dropped, watermark unchanged.
        assert_eq!(
            agent.submit(1, v, 1, step("alice", 1)),
            Ok(Applied::Duplicate)
        );
        assert_eq!(agent.applied_seq(v), 1);
        // A gap is a protocol bug, not something to paper over.
        assert_eq!(
            agent.submit(1, v, 3, step("alice", 2)),
            Err(ClusterError::SequenceGap {
                vshard: v,
                applied: 1,
                got: 3
            })
        );
        assert_eq!(agent.submit(1, v, 2, step("alice", 2)), Ok(Applied::Fresh));
    }

    #[test]
    fn extract_install_moves_sessions_and_fences_the_old_owner() {
        let mut donor = agent_owning_everything();
        let v = vshard("alice");
        donor.submit(1, v, 1, step("alice", 1)).unwrap();
        donor.submit(1, v, 2, step("alice", 2)).unwrap();

        let bundle = donor.extract(2, &[v]).unwrap();
        assert_eq!(donor.epoch(), 2);
        assert!(!donor.owned().contains(&v));
        // The slow-old-owner scenario: an event stamped with the old
        // epoch hits the donor after handover → typed fence, not a
        // double apply.
        assert_eq!(
            donor.submit(1, v, 3, step("alice", 3)),
            Err(ClusterError::StaleEpoch { sent: 1, held: 2 })
        );
        // Even with a refreshed epoch, the donor no longer owns it.
        assert_eq!(
            donor.submit(2, v, 3, step("alice", 3)),
            Err(ClusterError::NotOwner { vshard: v })
        );
        // A replayed extract (same epoch again) is fenced too.
        assert_eq!(
            donor.extract(2, &[v]),
            Err(ClusterError::StaleEpoch { sent: 2, held: 2 })
        );

        let mut recipient = NodeAgent::new(spec(), EngineConfig::default(), 8, 1);
        recipient.begin_incoming(2, &[v]).unwrap();
        // The graceful-degradation window: assigned but not installed.
        assert_eq!(
            recipient.submit(2, v, 3, step("alice", 3)),
            Err(ClusterError::Rebalancing {
                vshard: v,
                retry_after_ms: REBALANCE_RETRY_MS
            })
        );
        let sessions = recipient.install(2, &bundle).unwrap();
        assert_eq!(sessions, 1);
        // The watermark travelled with the bundle: the recipient picks up
        // at seq 3 and dedups a replay of seq 2.
        assert_eq!(
            recipient.submit(2, v, 2, step("alice", 2)),
            Ok(Applied::Duplicate)
        );
        assert_eq!(
            recipient.submit(2, v, 3, step("alice", 3)),
            Ok(Applied::Fresh)
        );
        let report = recipient.finish();
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].events, 3, "all three steps counted");
    }

    #[test]
    fn checkpoint_restore_round_trips_and_filtering_prunes() {
        let mut agent = agent_owning_everything();
        let (va, vb) = (vshard("alice"), vshard("bob"));
        agent.submit(1, va, 1, step("alice", 1)).unwrap();
        agent.submit(1, vb, 1, step("bob", 1)).unwrap();
        let bundle = agent.checkpoint();

        let keep: BTreeSet<usize> = [va].into_iter().collect();
        let filtered = filter_bundle(&bundle, &keep);
        let mut restored = NodeAgent::new(spec(), EngineConfig::default(), 9, 0);
        restored.install(1, &filtered).unwrap();
        assert_eq!(restored.applied_seq(va), 1);
        assert_eq!(restored.applied_seq(vb), 0, "bob's watermark pruned");
        assert!(restored.owned().contains(&va));
        assert!(!restored.owned().contains(&vb), "bob's vshard pruned");
        let report = restored.finish();
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].session, "alice");
    }
}
