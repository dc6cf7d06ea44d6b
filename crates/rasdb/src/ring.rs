//! Consistent-hash token ring with virtual nodes and simple replication.
//!
//! Mirrors Cassandra's masterless design: each physical node owns several
//! vnode tokens; a partition's replicas are the first `rf` *distinct* nodes
//! found walking clockwise from the partition token.
//!
//! Membership is explicit: a ring is built from a member list, and
//! [`Ring::with_member`] / [`Ring::without_member`] derive the ring a live
//! join or decommission converges to. Because every node's vnode tokens
//! are a pure function of its id, membership changes move only the ranges
//! adjacent to the added/removed tokens — the consistent-hashing minimal
//! movement property the paper's Cassandra deployment relies on when
//! scaling the ring under live ingest.
//!
//! A ring never changes once built, so the replica set of every range is
//! worked out once, in [`Ring::from_members`]: a lookup is a binary search
//! and a slice.

use crate::partitioner::{murmur3_x64_128, Token};

/// Identifies a cluster node (dense indices `0..n`; ids are stable for the
/// cluster's lifetime — a decommissioned node's id is never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// The token ring.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(token, owner)` sorted by token.
    entries: Vec<(Token, NodeId)>,
    /// The replica set of the range ending at `entries[i]`, at
    /// `replica_sets[i * rf..(i + 1) * rf]`.
    replica_sets: Vec<NodeId>,
    /// Current members, sorted by id.
    members: Vec<NodeId>,
    vnodes: usize,
    replication_factor: usize,
}

impl Ring {
    /// Builds a ring of `nodes` physical nodes (`NodeId(0..nodes)`) with
    /// `vnodes` tokens each. Tokens are derived deterministically from
    /// `(node, vnode)` so cluster layouts are reproducible.
    pub fn new(nodes: usize, vnodes: usize, replication_factor: usize) -> Ring {
        Ring::from_members((0..nodes).map(NodeId).collect(), vnodes, replication_factor)
    }

    /// Builds a ring from an explicit member list. Panics when the member
    /// list is empty, `vnodes` is zero, or the replication factor does not
    /// fit the membership.
    pub fn from_members(
        mut members: Vec<NodeId>,
        vnodes: usize,
        replication_factor: usize,
    ) -> Ring {
        members.sort_unstable();
        members.dedup();
        assert!(!members.is_empty(), "ring needs at least one node");
        assert!(vnodes > 0, "each node needs at least one vnode");
        assert!(
            replication_factor >= 1 && replication_factor <= members.len(),
            "replication factor must be in 1..=nodes"
        );
        let mut entries = Vec::with_capacity(members.len() * vnodes);
        for node in &members {
            for v in 0..vnodes {
                // Tokens depend only on (node id, vnode), never on the
                // membership: adding or removing a member leaves every
                // other member's tokens in place, so only the ranges next
                // to the changed tokens move owners.
                let seed = ((node.0 as u64) << 32) | v as u64;
                let (h, _) = murmur3_x64_128(&seed.to_le_bytes(), 0x5ca1ab1e);
                entries.push((Token(h as i64), *node));
            }
        }
        entries.sort_unstable();
        entries.dedup_by_key(|e| e.0);
        // The first `rf` distinct nodes walking clockwise from each entry.
        let mut replica_sets = Vec::with_capacity(entries.len() * replication_factor);
        for start in 0..entries.len() {
            let set = replica_sets.len();
            for i in 0..entries.len() {
                let (_, node) = entries[(start + i) % entries.len()];
                if !replica_sets[set..].contains(&node) {
                    replica_sets.push(node);
                    if replica_sets.len() - set == replication_factor {
                        break;
                    }
                }
            }
        }
        debug_assert_eq!(replica_sets.len(), entries.len() * replication_factor);
        Ring {
            entries,
            replica_sets,
            members,
            vnodes,
            replication_factor,
        }
    }

    /// The ring this one becomes when `node` joins.
    pub fn with_member(&self, node: NodeId) -> Ring {
        let mut members = self.members.clone();
        members.push(node);
        Ring::from_members(members, self.vnodes, self.replication_factor)
    }

    /// The ring this one becomes when `node` leaves. Panics when the
    /// remaining membership no longer fits the replication factor.
    pub fn without_member(&self, node: NodeId) -> Ring {
        let members: Vec<NodeId> = self
            .members
            .iter()
            .copied()
            .filter(|m| *m != node)
            .collect();
        Ring::from_members(members, self.vnodes, self.replication_factor)
    }

    /// Current members, sorted by id.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Whether `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.binary_search(&node).is_ok()
    }

    /// Number of member nodes.
    pub fn node_count(&self) -> usize {
        self.members.len()
    }

    /// Virtual nodes per member.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Configured replication factor.
    pub fn replication_factor(&self) -> usize {
        self.replication_factor
    }

    /// The primary replica for a token (first owner clockwise).
    pub fn primary(&self, token: Token) -> NodeId {
        self.replicas(token)[0]
    }

    /// The ordered replica set for a token: the first `rf` distinct nodes
    /// walking clockwise, as precomputed for its range.
    pub fn replicas(&self, token: Token) -> &[NodeId] {
        let start = self
            .entries
            .partition_point(|(t, _)| *t < token)
            // Wrap past the last token back to the ring start.
            % self.entries.len();
        let rf = self.replication_factor;
        &self.replica_sets[start * rf..(start + 1) * rf]
    }

    /// All vnode tokens owned by `node`, used for token-range scans.
    pub fn tokens_of(&self, node: NodeId) -> Vec<Token> {
        self.entries
            .iter()
            .filter(|(_, n)| *n == node)
            .map(|(t, _)| *t)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::token_for;
    use crate::types::{Key, Value};
    use proptest::prelude::*;

    #[test]
    fn replicas_are_distinct_and_sized_rf() {
        let ring = Ring::new(8, 16, 3);
        for h in 0..200i64 {
            let t = token_for(&Key::from(vec![Value::BigInt(h)]));
            let reps = ring.replicas(t);
            assert_eq!(reps.len(), 3);
            let set: std::collections::HashSet<_> = reps.iter().collect();
            assert_eq!(set.len(), 3, "replicas must be distinct nodes");
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let r1 = Ring::new(8, 16, 3);
        let r2 = Ring::new(8, 16, 3);
        let t = Token(42);
        assert_eq!(r1.replicas(t), r2.replicas(t));
    }

    #[test]
    fn rf_one_single_replica() {
        let ring = Ring::new(4, 8, 1);
        let t = Token(-7);
        assert_eq!(ring.replicas(t).len(), 1);
        assert_eq!(ring.primary(t), ring.replicas(t)[0]);
    }

    #[test]
    fn wraparound_at_ring_end() {
        let ring = Ring::new(4, 8, 2);
        // A token beyond the maximum entry must wrap to the ring start.
        let reps = ring.replicas(Token(i64::MAX));
        assert_eq!(reps.len(), 2);
    }

    #[test]
    fn vnodes_spread_load() {
        // With vnodes, per-node primary ownership of many random keys
        // should be roughly balanced (coefficient of variation < 0.5).
        let ring = Ring::new(8, 64, 1);
        let mut counts = vec![0usize; 8];
        for i in 0..20_000i64 {
            let t = token_for(&Key::from(vec![Value::BigInt(i)]));
            counts[ring.primary(t).0] += 1;
        }
        let mean = 20_000.0 / 8.0;
        let var = counts
            .iter()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / 8.0;
        let cv = var.sqrt() / mean;
        assert!(cv < 0.5, "cv = {cv}, counts = {counts:?}");
    }

    #[test]
    fn tokens_of_partitions_the_ring() {
        let ring = Ring::new(4, 8, 2);
        let total: usize = (0..4).map(|n| ring.tokens_of(NodeId(n)).len()).sum();
        assert_eq!(total, ring.entries.len());
    }

    #[test]
    #[should_panic(expected = "replication factor")]
    fn rf_larger_than_nodes_panics() {
        Ring::new(2, 4, 3);
    }

    #[test]
    fn membership_ops_roundtrip() {
        let ring = Ring::new(4, 8, 2);
        assert_eq!(
            ring.members(),
            &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        let grown = ring.with_member(NodeId(4));
        assert_eq!(grown.node_count(), 5);
        assert!(grown.contains(NodeId(4)));
        let shrunk = grown.without_member(NodeId(4));
        assert_eq!(shrunk.members(), ring.members());
        // Identical membership ⇒ identical placement.
        for h in 0..50i64 {
            let t = token_for(&Key::from(vec![Value::BigInt(h)]));
            assert_eq!(shrunk.replicas(t), ring.replicas(t));
        }
    }

    #[test]
    fn sparse_membership_matches_dense_equivalent() {
        // A ring with a decommissioned middle node behaves exactly like a
        // ring built directly from the surviving members.
        let survivors = vec![NodeId(0), NodeId(2), NodeId(3)];
        let direct = Ring::from_members(survivors, 8, 2);
        let derived = Ring::new(4, 8, 2).without_member(NodeId(1));
        for h in 0..100i64 {
            let t = token_for(&Key::from(vec![Value::BigInt(h)]));
            assert_eq!(direct.replicas(t), derived.replicas(t));
        }
    }

    #[test]
    fn join_moves_only_ranges_gained_by_the_joiner() {
        // Consistent hashing: adding a member must never reshuffle ranges
        // between existing members — every replica-set change involves the
        // joiner gaining a slot.
        let old = Ring::new(6, 16, 3);
        let new = old.with_member(NodeId(6));
        let mut moved = 0;
        for h in 0..2_000i64 {
            let t = token_for(&Key::from(vec![Value::BigInt(h)]));
            let before = old.replicas(t);
            let after = new.replicas(t);
            if before != after {
                moved += 1;
                assert!(
                    after.contains(&NodeId(6)),
                    "changed replica set must include the joiner: {before:?} -> {after:?}"
                );
            }
        }
        // Roughly rf/n of the keyspace should move — never most of it.
        assert!(moved > 0, "the joiner must gain some ranges");
        assert!(moved < 2_000 / 2, "minimal movement violated: {moved}/2000");
    }

    #[test]
    #[should_panic(expected = "replication factor")]
    fn without_member_below_rf_panics() {
        Ring::new(3, 8, 3).without_member(NodeId(0));
    }

    /// What `replicas` did on every call before the replica table: walk
    /// clockwise from the first entry at or after `token`, keeping the first
    /// `rf` distinct owners.
    fn walked_replicas(ring: &Ring, token: Token) -> Vec<NodeId> {
        let n = ring.entries.len();
        let start = ring.entries.partition_point(|(t, _)| *t < token) % n;
        let mut out = Vec::with_capacity(ring.replication_factor);
        for i in 0..n {
            let (_, node) = ring.entries[(start + i) % n];
            if !out.contains(&node) {
                out.push(node);
                if out.len() == ring.replication_factor {
                    break;
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The precomputed replica sets are the walk, for every replication
        /// factor, on rings built directly, grown and shrunk: at random
        /// tokens, at every vnode token and on either side of it, and past
        /// both ends of the ring.
        #[test]
        fn the_replica_table_is_the_clockwise_walk(
            nodes in 1..7usize,
            vnodes in 1..9usize,
            random in prop::collection::vec(any::<i64>(), 16),
            leaver in 0..7usize,
        ) {
            for rf in 1..=nodes {
                let base = Ring::new(nodes, vnodes, rf);
                let mut rings = vec![base.with_member(NodeId(nodes))];
                if nodes > rf {
                    rings.push(base.without_member(NodeId(leaver % nodes)));
                }
                rings.push(base);
                for ring in &rings {
                    let mut tokens: Vec<Token> = random.iter().map(|&t| Token(t)).collect();
                    for &(t, _) in &ring.entries {
                        tokens.extend([t.0.wrapping_sub(1), t.0, t.0.wrapping_add(1)].map(Token));
                    }
                    tokens.extend([Token(i64::MIN), Token(i64::MAX)]);
                    for t in tokens {
                        prop_assert_eq!(ring.replicas(t), &walked_replicas(ring, t)[..]);
                    }
                }
            }
        }
    }
}
