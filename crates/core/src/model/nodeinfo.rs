//! Loading and querying the `nodeinfos` table.

use loggen::topology::{NodeInfo, Topology};
use rasdb::cluster::Cluster;
use rasdb::error::DbError;
use rasdb::query::Consistency;
use rasdb::types::Value;

/// Writes one row per node into `nodeinfos`. "The nodeinfo enables spatial
/// correlation and analysis of events in the system."
pub fn populate(cluster: &Cluster, topo: &Topology) -> Result<usize, DbError> {
    let batch: Vec<Vec<(&str, Value)>> = topo
        .nodes()
        .map(|info| {
            vec![
                ("cname", Value::text(&info.cname)),
                ("idx", Value::BigInt(info.index as i64)),
                ("row", Value::Int(info.row as i32)),
                ("col", Value::Int(info.col as i32)),
                ("cage", Value::Int(info.cage as i32)),
                ("slot", Value::Int(info.slot as i32)),
                ("node", Value::Int(info.node as i32)),
                ("gemini", Value::BigInt(info.gemini as i64)),
            ]
        })
        .collect();
    cluster.insert_batch("nodeinfos", batch, Consistency::Quorum)
}

/// Looks up one node by cname.
pub fn lookup(cluster: &Cluster, cname: &str) -> Result<Option<NodeInfo>, DbError> {
    let rows = cluster
        .select("nodeinfos")
        .partition(vec![Value::text(cname)])
        .run(Consistency::Quorum)?;
    let Some(row) = rows.first() else {
        return Ok(None);
    };
    let get = |name: &str| row.cell(name).and_then(|v| v.as_i64()).unwrap_or(0);
    Ok(Some(NodeInfo {
        index: get("idx") as usize,
        row: get("row") as usize,
        col: get("col") as usize,
        cage: get("cage") as usize,
        slot: get("slot") as usize,
        node: get("node") as usize,
        cname: cname.to_owned(),
        gemini: get("gemini") as usize,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tables;
    use rasdb::cluster::ClusterConfig;

    #[test]
    fn populate_and_lookup_roundtrip() {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 3,
            replication_factor: 2,
            vnodes: 8,
        });
        tables::create_all(&cluster).unwrap();
        let topo = Topology::scaled(2, 2);
        let n = populate(&cluster, &topo).unwrap();
        assert_eq!(n, topo.node_count());

        let want = topo.node(137);
        let got = lookup(&cluster, &want.cname).unwrap().unwrap();
        assert_eq!(got, want);
        assert!(lookup(&cluster, "c9-9c9s9n9").unwrap().is_none());
    }
}
