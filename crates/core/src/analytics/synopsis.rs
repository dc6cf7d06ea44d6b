//! Event synopses: per-day, per-type, per-hour summary rows that power the
//! temporal map without re-scanning full event partitions.

use crate::framework::Framework;
use crate::model::keys::{DAY_MS, HOUR_MS};
use rasdb::error::DbError;
use rasdb::types::Value;

/// One synopsis row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynopsisRow {
    /// Hour bucket (hours since epoch).
    pub hour: i64,
    /// Event type.
    pub event_type: String,
    /// Total occurrences (amount-weighted).
    pub events: i64,
    /// Distinct source nodes.
    pub nodes: i64,
}

/// Computes and stores synopses for every catalog type over whole days
/// covering `[from_ms, to_ms)`. Returns rows written.
///
/// Each scan part covers exactly one hour partition, so the per-hour
/// aggregate falls out of the block itself: sum the amount column and
/// count distinct dictionary ids (set-bitmap over the block dictionary,
/// no string hashing).
pub fn build_synopsis(fw: &Framework, from_ms: i64, to_ms: i64) -> Result<usize, DbError> {
    let mut written = 0;
    for etype in loggen::events::EVENT_CATALOG {
        let scan = fw.scan_window(etype.name, from_ms, to_ms)?;
        for b in &scan.parts {
            let r = b.range(from_ms, to_ms);
            if r.is_empty() {
                continue;
            }
            let mut seen = vec![false; b.dict.len()];
            let mut count = 0i64;
            for i in r {
                count += b.amounts[i] as i64;
                seen[b.source_ids[i] as usize] = true;
            }
            let nodes = seen.iter().filter(|s| **s).count() as i64;
            fw.cluster().insert(
                "eventsynopsis",
                vec![
                    ("day", Value::BigInt(b.hour * HOUR_MS / DAY_MS)),
                    ("type", Value::text(etype.name)),
                    ("hour", Value::BigInt(b.hour)),
                    ("events", Value::BigInt(count)),
                    ("nodes", Value::BigInt(nodes)),
                ],
                fw.consistency(),
            )?;
            written += 1;
        }
    }
    Ok(written)
}

/// Reads one day's synopsis rows (all types, hour-ordered per type).
pub fn read_synopsis(fw: &Framework, day: i64) -> Result<Vec<SynopsisRow>, DbError> {
    let rows = fw
        .cluster()
        .select("eventsynopsis")
        .partition(vec![Value::BigInt(day)])
        .run(fw.consistency())?;
    Ok(rows
        .iter()
        .filter_map(|r| {
            Some(SynopsisRow {
                event_type: r.clustering.0.first()?.as_text()?.to_owned(),
                hour: r.clustering.0.get(1)?.as_i64()?,
                events: r.cell("events")?.as_i64()?,
                nodes: r.cell("nodes")?.as_i64()?,
            })
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FrameworkConfig;
    use crate::model::event::EventRecord;
    use loggen::topology::Topology;

    #[test]
    fn synopsis_counts_events_and_distinct_nodes() {
        let fw = Framework::new(FrameworkConfig {
            db_nodes: 3,
            replication_factor: 2,
            vnodes: 8,
            topology: Topology::scaled(2, 2),
            ..Default::default()
        })
        .unwrap();
        // Hour 0: 3 events on 2 nodes; hour 1: 1 event.
        for (ts, src, amount) in [
            (100, "c0-0c0s0n0", 1),
            (200, "c0-0c0s0n0", 2),
            (300, "c0-0c0s1n0", 1),
            (HOUR_MS + 50, "c0-0c0s0n0", 1),
        ] {
            fw.insert_event(&EventRecord {
                ts_ms: ts,
                event_type: "MCE".into(),
                source: src.into(),
                amount,
                raw: "".into(),
            })
            .unwrap();
        }
        let written = build_synopsis(&fw, 0, DAY_MS).unwrap();
        assert_eq!(written, 2);
        let rows = read_synopsis(&fw, 0).unwrap();
        assert_eq!(rows.len(), 2);
        let h0 = rows.iter().find(|r| r.hour == 0).unwrap();
        assert_eq!(h0.events, 4, "amount-weighted");
        assert_eq!(h0.nodes, 2);
        assert_eq!(h0.event_type, "MCE");
        let h1 = rows.iter().find(|r| r.hour == 1).unwrap();
        assert_eq!(h1.events, 1);
    }

    #[test]
    fn empty_day_reads_empty() {
        let fw = Framework::new(FrameworkConfig {
            db_nodes: 2,
            replication_factor: 1,
            vnodes: 4,
            topology: Topology::scaled(1, 1),
            ..Default::default()
        })
        .unwrap();
        assert_eq!(build_synopsis(&fw, 0, DAY_MS).unwrap(), 0);
        assert!(read_synopsis(&fw, 0).unwrap().is_empty());
    }
}
