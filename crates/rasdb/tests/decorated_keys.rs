//! A partition key is hashed once, at the coordinator, into a
//! `DecoratedKey`, and everything below orders, places and filters by the
//! stored hash. That must change nothing anyone can observe except the
//! order partitions are iterated in: the token is the one the ring always
//! computed, a bloom filter holds the bits it always held, equality is key
//! equality, and replicas are where they always were.

use proptest::prelude::*;
use rasdb::bloom::BloomFilter;
use rasdb::cluster::{Cluster, ClusterConfig};
use rasdb::node::{NodeConfig, StorageNode};
use rasdb::partitioner::{murmur3_x64_128, Token};
use rasdb::query::Consistency;
use rasdb::ring::NodeId;
use rasdb::schema::{ColumnType, TableSchema};
use rasdb::types::{Key, Value};
use rasdb::DecoratedKey;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashSet};

/// Text parts: empty, ASCII, Titan names, and multi-byte characters.
const TEXTS: [&str; 8] = ["", "a", "MCE", "c0-0c0s0n0", "é", "日本語", "🚀x", "ab"];

/// Double parts: both zeros, NaN, infinities and plain values.
const DOUBLES: [f64; 7] = [0.0, -0.0, f64::NAN, f64::INFINITY, -1.5, 2.25, 1e-300];

fn arb_part() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-3..4i64).prop_map(Value::BigInt),
        any::<i64>().prop_map(Value::BigInt),
        (0..TEXTS.len()).prop_map(|i| Value::text(TEXTS[i])),
        (0..DOUBLES.len()).prop_map(|i| Value::Double(DOUBLES[i])),
        any::<f64>().prop_map(Value::Double),
    ]
}

/// Keys of one to three parts; small domains, so equal keys built
/// separately are common.
fn arb_key() -> impl Strategy<Value = Key> {
    prop::collection::vec(arb_part(), 1..4).prop_map(Key::from)
}

/// The token and hash as they were computed before keys were decorated:
/// murmur3 x64/128, seed 0, over `Key::encode`.
fn reference_hash(key: &Key) -> (u64, u64) {
    murmur3_x64_128(&key.encode(), 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decoration_is_the_hash_the_ring_and_the_bloom_filter_always_used(
        keys in prop::collection::vec(arb_key(), 1..24),
    ) {
        let mut buf = b"stale bytes from an earlier key".to_vec();
        let mut by_decoration = BloomFilter::new(keys.len(), 0.01);
        let mut by_encoding = BloomFilter::new(keys.len(), 0.01);
        for key in &keys {
            let decorated = DecoratedKey::new(key.clone());
            let reference = reference_hash(key);
            prop_assert_eq!(decorated.token(), Token(reference.0 as i64), "{}", key);
            prop_assert_eq!(decorated.hash128(), reference, "{}", key);
            prop_assert_eq!(&DecoratedKey::with_buffer(key.clone(), &mut buf), &decorated);
            prop_assert_eq!(decorated.key(), key);
            by_decoration.insert(decorated.hash128());
            by_encoding.insert(reference);
        }
        prop_assert_eq!(by_decoration, by_encoding);
    }

    #[test]
    fn decorated_keys_are_equal_exactly_when_their_keys_are_and_sort_by_token(
        left in prop::collection::vec(arb_key(), 1..16),
        right in prop::collection::vec(arb_key(), 1..16),
    ) {
        for a in &left {
            for b in &right {
                let (da, db) = (DecoratedKey::new(a.clone()), DecoratedKey::new(b.clone()));
                let ordering = da.cmp(&db);
                prop_assert_eq!(ordering == Ordering::Equal, da == db, "{} vs {}", a, b);
                prop_assert_eq!(da == db, a == b, "{} vs {}", a, b);
                prop_assert_eq!(db.cmp(&da), ordering.reverse());
                if da.token() != db.token() {
                    prop_assert_eq!(ordering, da.token().cmp(&db.token()), "ring order");
                } else {
                    prop_assert_eq!(ordering, a.cmp(b), "the key breaks a token tie");
                }
            }
        }
        // A hashed and a sorted collection agree on which keys are one key.
        let all = || left.iter().chain(&right).cloned().map(DecoratedKey::new);
        let hashed: HashSet<DecoratedKey> = all().collect();
        let sorted: BTreeSet<DecoratedKey> = all().collect();
        let keys: BTreeSet<Key> = left.iter().chain(&right).cloned().collect();
        prop_assert_eq!(hashed.len(), keys.len());
        prop_assert_eq!(sorted.len(), keys.len());
        prop_assert_eq!(hashed.into_iter().collect::<BTreeSet<_>>(), sorted);
    }

    /// A node stores, flushes and lists its partitions in ring order, and
    /// finds each of them again through its SSTables' bloom filters.
    #[test]
    fn a_node_holds_its_partitions_in_ring_order(
        hours in prop::collection::vec(-20..20i64, 1..40),
        flush_threshold in 4..40usize,
    ) {
        let node = StorageNode::new(NodeId(0), NodeConfig { flush_threshold, ..Default::default() });
        node.create_table("t");
        for (ts, &hour) in hours.iter().enumerate() {
            let partition = DecoratedKey::new(Key::from(vec![Value::BigInt(hour)]));
            let clustering = Key::from(vec![Value::Timestamp(ts as i64)]);
            let m = rasdb::commitlog::Mutation::upsert(
                "t",
                partition,
                clustering,
                vec![("v".into(), Value::Int(1))],
                ts as u64 + 1,
            );
            prop_assert!(node.apply(&std::sync::Arc::new(m)));
        }
        let listed = node.local_partition_keys("t");
        prop_assert!(listed.windows(2).all(|w| w[0].token() < w[1].token()), "ring order");
        let distinct: BTreeSet<i64> = hours.iter().copied().collect();
        prop_assert_eq!(listed.len(), distinct.len());
        // Every row is found: no SSTable's filter turns away a partition it
        // holds.
        node.flush("t");
        for partition in &listed {
            let rows = node.read("t", partition, &rasdb::memtable::full_range()).unwrap();
            let hour = partition.key().0[0].as_i64().unwrap();
            prop_assert_eq!(rows.len(), hours.iter().filter(|&&h| h == hour).count());
        }
    }
}

/// Tokens and replicas of Titan-day `(hour, type)` and `(hour, source)`
/// keys on an eight-node ring (RF 3, 16 vnodes), computed before partition
/// keys were decorated: placement did not move.
#[test]
fn titan_keys_keep_their_tokens_and_replicas() {
    const GOLDEN: [((i64, &str), i64, [usize; 3]); 8] = [
        ((417_000, "MCE"), 3_583_180_814_830_205_766, [7, 0, 5]),
        (
            (417_001, "LUSTRE_ERR"),
            -2_672_083_785_539_700_186,
            [2, 3, 1],
        ),
        ((417_012, "GPU_DBE"), -223_989_093_990_075_807, [5, 6, 7]),
        (
            (417_023, "KERNEL_PANIC"),
            -4_600_517_353_628_640_993,
            [5, 3, 7],
        ),
        (
            (417_000, "c0-0c0s0n0"),
            -2_526_609_869_423_867_678,
            [1, 5, 4],
        ),
        (
            (417_005, "c12-3c2s7n3"),
            -252_777_025_931_082_802,
            [0, 5, 6],
        ),
        (
            (417_017, "c24-7c1s4n1"),
            -2_346_934_505_118_504_411,
            [2, 1, 4],
        ),
        (
            (417_023, "c3-2c0s0n2"),
            -1_681_990_980_365_963_840,
            [4, 0, 6],
        ),
    ];
    let c = Cluster::new(ClusterConfig {
        nodes: 8,
        replication_factor: 3,
        vnodes: 16,
    });
    c.create_table(
        TableSchema::builder("event_by_time")
            .partition_key("hour", ColumnType::BigInt)
            .partition_key("type", ColumnType::Text)
            .clustering_key("ts", ColumnType::Timestamp)
            .build()
            .unwrap(),
    )
    .unwrap();
    for ((hour, part), token, replicas) in GOLDEN {
        let key = Key::from(vec![Value::BigInt(hour), Value::text(part)]);
        let decorated = DecoratedKey::new(key.clone());
        assert_eq!(decorated.token(), Token(token), "{key}");
        let owners: Vec<usize> = c.owners(&key).iter().map(|n| n.0).collect();
        assert_eq!(owners, replicas, "{key}");
        assert_eq!(c.ring().replicas(decorated.token()), c.owners(&key));
    }
    // A write lands on exactly those replicas.
    let ((hour, part), _, replicas) = GOLDEN[0];
    c.insert(
        "event_by_time",
        vec![
            ("hour", Value::BigInt(hour)),
            ("type", Value::text(part)),
            ("ts", Value::Timestamp(1)),
        ],
        Consistency::All,
    )
    .unwrap();
    let holders: Vec<usize> = (0..8)
        .filter(|&n| c.node(NodeId(n)).stats().writes > 0)
        .collect();
    let mut expected = replicas.to_vec();
    expected.sort_unstable();
    assert_eq!(holders, expected);
}
