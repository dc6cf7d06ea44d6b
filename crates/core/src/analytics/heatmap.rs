//! Heat maps over the physical system map (paper Fig 5): per-cabinet and
//! per-node event counts for a type over a selected interval, computed by
//! a columnar window scan with dictionary-id pushdown: each hour's block
//! resolves each *distinct* source cname to a node index once for the
//! block's life, rows fold into per-cabinet or per-node slots by a table
//! lookup, and blocks outside the window are zone-map-skipped.

use crate::columnar::{ColumnBlock, Slots};
use crate::framework::Framework;
use loggen::topology::{Topology, NODES_PER_CABINET};
use rasdb::error::DbError;
use std::ops::Range;

/// Per-cabinet counts plus summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatMap {
    /// Event count per cabinet (row-major floor order).
    pub cabinets: Vec<f64>,
    /// Total events.
    pub total: f64,
    /// Index of the hottest cabinet.
    pub hottest: usize,
    /// Mean per-cabinet count.
    pub mean: f64,
    /// Standard deviation of per-cabinet counts.
    pub stddev: f64,
}

impl HeatMap {
    /// Cabinets whose count exceeds `mean + k·stddev` — the "unusually
    /// higher ... in some parts of the system" detector.
    pub fn outliers(&self, k: f64) -> Vec<usize> {
        let limit = self.mean + k * self.stddev;
        self.cabinets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > limit)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Folds the listed row runs of each block (a scan's window range, or a
/// context's selection) into `size` slots, where `group` maps a source's
/// node index to its slot: the one grouping kernel of both heat-map
/// granularities and of the cabinet / blade distributions. Each block's
/// sources resolve to node indices once per block (`ColumnBlock::nodes`),
/// so a row costs a table lookup and an add. Rows whose source names no
/// node are summed as unattributed.
pub(crate) fn grouped_counts<'a, R: IntoIterator<Item = Range<usize>>>(
    parts: impl IntoIterator<Item = (&'a ColumnBlock, R)>,
    topo: &Topology,
    size: usize,
    group: impl Fn(usize) -> usize,
) -> Slots {
    let mut slots = Slots::new(size);
    for (b, runs) in parts {
        let nodes = b.nodes(topo);
        slots.fold(b, runs, |i| {
            nodes[b.source_ids[i] as usize].map(|n| group(n as usize))
        });
    }
    slots
}

/// Computes the cabinet heat map for one event type over `[from, to)`
/// as a columnar window scan grouped per cabinet.
pub fn cabinet_heatmap(
    fw: &Framework,
    event_type: &str,
    from_ms: i64,
    to_ms: i64,
) -> Result<HeatMap, DbError> {
    let topo = fw.topology();
    let scan = fw.scan_window(event_type, from_ms, to_ms)?;
    let rows = scan.parts.iter().map(|b| (&**b, [b.range(from_ms, to_ms)]));
    let cabinets = grouped_counts(rows, topo, topo.cabinet_count(), |idx| {
        idx / NODES_PER_CABINET
    });
    Ok(summarize(cabinets.sums))
}

/// Computes per-node counts for one event type (node-level heat map).
pub fn node_heatmap(
    fw: &Framework,
    event_type: &str,
    from_ms: i64,
    to_ms: i64,
) -> Result<Vec<f64>, DbError> {
    let topo = fw.topology();
    let scan = fw.scan_window(event_type, from_ms, to_ms)?;
    let rows = scan.parts.iter().map(|b| (&**b, [b.range(from_ms, to_ms)]));
    Ok(grouped_counts(rows, topo, topo.node_count(), |idx| idx).sums)
}

fn summarize(cabinets: Vec<f64>) -> HeatMap {
    let total: f64 = cabinets.iter().sum();
    let n = cabinets.len().max(1) as f64;
    let mean = total / n;
    let var = cabinets.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / n;
    let hottest = cabinets
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    HeatMap {
        cabinets,
        total,
        hottest,
        mean,
        stddev: var.sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FrameworkConfig;
    use crate::model::event::EventRecord;
    use crate::model::keys::HOUR_MS;

    fn fw() -> Framework {
        Framework::new(FrameworkConfig {
            db_nodes: 4,
            replication_factor: 2,
            vnodes: 8,
            topology: Topology::scaled(2, 2),
            ..Default::default()
        })
        .unwrap()
    }

    fn seed(fw: &Framework, cab: usize, n: usize) {
        let topo = fw.topology();
        for i in 0..n {
            let node = cab * NODES_PER_CABINET + (i % NODES_PER_CABINET);
            fw.insert_event(&EventRecord {
                ts_ms: (i as i64) * 1000,
                event_type: "MCE".into(),
                source: topo.node(node).cname.into(),
                amount: 1,
                raw: "".into(),
            })
            .unwrap();
        }
    }

    #[test]
    fn hotspot_cabinet_dominates() {
        let fw = fw();
        seed(&fw, 2, 50);
        seed(&fw, 0, 5);
        let hm = cabinet_heatmap(&fw, "MCE", 0, HOUR_MS).unwrap();
        assert_eq!(hm.cabinets.len(), 4);
        assert_eq!(hm.hottest, 2);
        assert_eq!(hm.total, 55.0);
        assert_eq!(hm.cabinets[2], 50.0);
        assert_eq!(hm.outliers(1.0), vec![2]);
    }

    #[test]
    fn empty_interval_is_flat() {
        let fw = fw();
        let hm = cabinet_heatmap(&fw, "MCE", 0, HOUR_MS).unwrap();
        assert_eq!(hm.total, 0.0);
        assert!(hm.outliers(1.0).is_empty());
    }

    #[test]
    fn node_heatmap_localizes_to_exact_nodes() {
        let fw = fw();
        let cname = fw.topology().node(7).cname;
        for i in 0..10 {
            fw.insert_event(&EventRecord {
                ts_ms: i * 100,
                event_type: "GPU_DBE".into(),
                source: cname.as_str().into(),
                amount: 2,
                raw: "".into(),
            })
            .unwrap();
        }
        let nodes = node_heatmap(&fw, "GPU_DBE", 0, HOUR_MS).unwrap();
        assert_eq!(nodes[7], 20.0);
        assert_eq!(nodes.iter().sum::<f64>(), 20.0);
    }

    #[test]
    fn amounts_weight_the_map() {
        let fw = fw();
        fw.insert_event(&EventRecord {
            ts_ms: 0,
            event_type: "MCE".into(),
            source: fw.topology().node(0).cname.into(),
            amount: 7,
            raw: "".into(),
        })
        .unwrap();
        let hm = cabinet_heatmap(&fw, "MCE", 0, HOUR_MS).unwrap();
        assert_eq!(hm.cabinets[0], 7.0);
    }
}
