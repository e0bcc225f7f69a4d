//! Virtual-shard assignment: who owns which slice of the session space.
//!
//! Sessions hash onto a fixed space of [`VSHARDS`] *virtual shards* with
//! the same pinned FNV-1a the engine uses for its internal shard routing
//! ([`rega_stream::fnv1a`]); an [`Assignment`] maps every virtual shard
//! to a worker node and carries a monotonically increasing **epoch**.
//! Virtual shards decouple placement from both the session population and
//! each engine's internal shard count: moving a session set between
//! processes is expressible as "re-own vshards 17–24", and a node's
//! engine re-routes the restored sessions internally by the same hash.
//!
//! The epoch is the fencing token for at-most-once migration: every
//! owner-changing commit bumps it, every request between cluster members
//! is stamped with it, and nodes reject any request from another epoch
//! (see [`ClusterError::StaleEpoch`](crate::error::ClusterError)).

/// Number of virtual shards. Fixed for the life of a cluster: assignment
/// ranges, journals, and checkpoint bundles are all keyed by vshard.
pub const VSHARDS: usize = 64;

/// The virtual shard `session` lives on — FNV-1a of the session name,
/// reduced mod [`VSHARDS`]. Pinned exactly like the engine's internal
/// routing: a change here strands every persisted bundle.
pub fn vshard(session: &str) -> usize {
    (rega_stream::fnv1a(session.as_bytes()) % VSHARDS as u64) as usize
}

/// A total map from virtual shard to owning node, plus the epoch fencing
/// all changes to it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// Monotonically increasing; bumped by every owner-changing commit.
    pub epoch: u64,
    owner: Vec<usize>,
}

/// One planned ownership transfer: `vshards` move `from` → `to`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Migration {
    /// The virtual shards changing hands (sorted, not necessarily
    /// contiguous).
    pub vshards: Vec<usize>,
    /// Current owner.
    pub from: usize,
    /// Desired owner.
    pub to: usize,
}

impl Assignment {
    /// Contiguous balanced split of the vshard space over `nodes` workers
    /// (node 0 gets the first ⌈V/n⌉ shards, and so on).
    pub fn balanced(epoch: u64, nodes: usize) -> Assignment {
        let nodes = nodes.max(1);
        let per = VSHARDS.div_ceil(nodes);
        Assignment {
            epoch,
            owner: (0..VSHARDS).map(|v| (v / per).min(nodes - 1)).collect(),
        }
    }

    /// The node owning virtual shard `v`.
    pub fn owner_of(&self, v: usize) -> usize {
        self.owner[v]
    }

    /// All virtual shards owned by `node`, sorted.
    pub fn owned_by(&self, node: usize) -> Vec<usize> {
        (0..VSHARDS).filter(|&v| self.owner[v] == node).collect()
    }

    /// Reassigns a set of vshards to `to`, bumping the epoch. No-op
    /// vshards (already owned by `to`) are fine; the epoch still bumps if
    /// anything changed.
    pub fn retarget(&mut self, vshards: &[usize], to: usize) {
        let mut changed = false;
        for &v in vshards {
            if self.owner[v] != to {
                self.owner[v] = to;
                changed = true;
            }
        }
        if changed {
            self.epoch += 1;
        }
    }

    /// The migrations that would turn `self` into `desired`, grouped by
    /// (from, to) pair and sorted for determinism.
    pub fn diff(&self, desired: &Assignment) -> Vec<Migration> {
        let mut by_pair: std::collections::BTreeMap<(usize, usize), Vec<usize>> =
            std::collections::BTreeMap::new();
        for v in 0..VSHARDS {
            let (from, to) = (self.owner[v], desired.owner[v]);
            if from != to {
                by_pair.entry((from, to)).or_default().push(v);
            }
        }
        by_pair
            .into_iter()
            .map(|((from, to), vshards)| Migration { vshards, from, to })
            .collect()
    }

    /// Applies one migration's ownership change and bumps the epoch —
    /// the commit half of a completed transfer.
    pub fn commit(&mut self, m: &Migration) {
        for &v in &m.vshards {
            self.owner[v] = m.to;
        }
        self.epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Session → vshard routing is part of every persisted bundle, so it
    /// is pinned the same way the engine's shard routing is.
    #[test]
    fn vshard_routing_is_pinned() {
        let pinned: &[(&str, usize)] = &[
            ("", 37),
            ("alice", 7),
            ("bob", 20),
            ("carol", 50),
            ("session-0", 26),
            ("session-1", 13),
        ];
        for &(name, want) in pinned {
            assert_eq!(vshard(name), want, "vshard for {name:?} drifted");
        }
        for name in ["alice", "bob", "x", "session-42"] {
            assert_eq!(
                vshard(name),
                (rega_stream::fnv1a(name.as_bytes()) % VSHARDS as u64) as usize
            );
        }
    }

    #[test]
    fn balanced_covers_everything_and_diff_is_exact() {
        for nodes in [1usize, 2, 3, 4, 7] {
            let a = Assignment::balanced(1, nodes);
            let total: usize = (0..nodes).map(|n| a.owned_by(n).len()).sum();
            assert_eq!(total, VSHARDS, "{nodes} nodes must cover the space");
            assert!(a.diff(&a).is_empty());
        }
        let a = Assignment::balanced(1, 2);
        let mut b = a.clone();
        b.retarget(&[0, 1, 2], 1);
        assert_eq!(b.epoch, 2, "retarget bumps the epoch");
        let migs = a.diff(&b);
        assert_eq!(migs.len(), 1);
        assert_eq!(
            migs[0],
            Migration {
                vshards: vec![0, 1, 2],
                from: 0,
                to: 1
            }
        );
        let mut committed = a.clone();
        committed.commit(&migs[0]);
        assert_eq!(committed.owner, b.owner);
        assert!(committed.diff(&b).is_empty());
    }
}
