//! The reference coordinator read, kept apart from the code under test.
//!
//! `Cluster::read` and `Cluster::read_multi` run one read path, so comparing
//! them with each other checks nothing. This is the coordinator read as it
//! was before the one-pass merge: a read consults the first `required`
//! owners that are up, in ring order; every response is inserted into one
//! map, and every replica is compared against the map again to decide read
//! repair. `read_merge.rs` and `scatter_gather.rs` pull it in by `#[path]`.

#![allow(dead_code)]

use rasdb::cluster::Cluster;
use rasdb::error::DbError;
use rasdb::memtable::RowEntry;
use rasdb::query::{Consistency, ReadPlan};
use rasdb::ring::NodeId;
use rasdb::types::{Key, Row};
use rasdb::DecoratedKey;
use std::collections::{BTreeMap, HashMap};

/// One replica's raw partition slice.
pub type Raw = Vec<(Key, RowEntry)>;

/// The replicas a read of `partition` consults: the first `required` that
/// are up, in ring order; `Err` is the `Unavailable` the read returns
/// instead.
pub fn consulted(
    c: &Cluster,
    partition: &DecoratedKey,
    consistency: Consistency,
) -> Result<Vec<NodeId>, DbError> {
    let owners = c.owners(partition.key());
    let required = consistency.required(owners.len());
    let up: Vec<NodeId> = owners
        .into_iter()
        .filter(|id| c.node(*id).is_up())
        .take(required)
        .collect();
    if up.len() < required {
        return Err(DbError::Unavailable {
            required,
            received: up.len(),
        });
    }
    Ok(up)
}

/// The down owners a successful read of `partition` passes over before it
/// has consulted its replicas.
pub fn passed_over(c: &Cluster, partition: &DecoratedKey, consulted: &[NodeId]) -> u64 {
    let last = consulted.last().expect("a read consults a replica");
    c.owners(partition.key())
        .into_iter()
        .take_while(|id| id != last)
        .filter(|id| !c.node(*id).is_up())
        .count() as u64
}

/// The coordinator read as it was: every response inserted into one map,
/// every replica compared against the map again, the map filtered into
/// rows. Returns the rows and, per response, the rows it is sent as repair.
pub fn model_read(responses: &[(NodeId, Raw)], plan: &ReadPlan) -> (Vec<Row>, Vec<Raw>) {
    let mut merged: BTreeMap<Key, RowEntry> = BTreeMap::new();
    for (_, raw) in responses {
        for (ck, entry) in raw {
            match merged.remove(ck) {
                None => {
                    merged.insert(ck.clone(), entry.clone());
                }
                Some(existing) => {
                    merged.insert(ck.clone(), RowEntry::merge(existing, entry.clone()));
                }
            }
        }
    }
    let repairs: Vec<Raw> = responses
        .iter()
        .map(|(_, raw)| {
            if responses.len() < 2 {
                return Vec::new();
            }
            let theirs: HashMap<&Key, &RowEntry> = raw.iter().map(|(k, e)| (k, e)).collect();
            merged
                .iter()
                .filter(|(ck, entry)| theirs.get(ck).is_none_or(|have| have != entry))
                .map(|(ck, entry)| (ck.clone(), entry.clone()))
                .collect()
        })
        .collect();
    let mut rows: Vec<Row> = merged
        .into_iter()
        .filter_map(|(ck, e)| e.visible(ck))
        .collect();
    if plan.descending {
        rows.reverse();
    }
    if let Some(limit) = plan.limit {
        rows.truncate(limit);
    }
    (rows, repairs)
}

/// The rows a read of `plan` returns, predicted from what its consulted
/// replicas hold now.
pub fn expected_rows(
    c: &Cluster,
    plan: &ReadPlan,
    consistency: Consistency,
) -> Result<Vec<Row>, DbError> {
    let responses: Vec<(NodeId, Raw)> = consulted(c, &plan.partition, consistency)?
        .into_iter()
        .map(|id| {
            let raw = c
                .node(id)
                .read_raw(&plan.table, &plan.partition, &plan.range)
                .expect("consulted replicas are up");
            (id, raw)
        })
        .collect();
    Ok(model_read(&responses, plan).0)
}
