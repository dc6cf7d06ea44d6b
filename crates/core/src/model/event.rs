//! Event records and their mapping onto the dual event tables.

use crate::model::keys::hour_of;
use rasdb::types::{Row, Value};
use std::sync::Arc;

/// One system event as the analytics layer sees it.
///
/// The text fields are shared: both table views of the event — keys and
/// cells, on every replica — point at the record's one copy of each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Occurrence time, ms since epoch.
    pub ts_ms: i64,
    /// Event-type name (catalog key).
    pub event_type: Arc<str>,
    /// Source component cname.
    pub source: Arc<str>,
    /// Occurrence multiplicity (coalesced count).
    pub amount: i32,
    /// Raw log message, retained "in a semi-structured format" for text
    /// analytics.
    pub raw: Arc<str>,
}

impl EventRecord {
    /// Column values for `event_by_time`. The names are literals: the
    /// database resolves them against its schema and stores none of them.
    pub fn to_time_row(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("hour", Value::BigInt(hour_of(self.ts_ms))),
            ("type", Value::Text(Arc::clone(&self.event_type))),
            ("ts", Value::Timestamp(self.ts_ms)),
            ("source", Value::Text(Arc::clone(&self.source))),
            ("amount", Value::Int(self.amount)),
            ("raw", Value::Text(Arc::clone(&self.raw))),
        ]
    }

    /// Column values for `event_by_location`.
    pub fn to_location_row(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("hour", Value::BigInt(hour_of(self.ts_ms))),
            ("source", Value::Text(Arc::clone(&self.source))),
            ("ts", Value::Timestamp(self.ts_ms)),
            ("type", Value::Text(Arc::clone(&self.event_type))),
            ("amount", Value::Int(self.amount)),
            ("raw", Value::Text(Arc::clone(&self.raw))),
        ]
    }

    /// Rebuilds a record from an `event_by_time` row (partition key parts
    /// supplied by the caller, clustering/cells from the row).
    pub fn from_time_row(event_type: &str, row: &Row) -> Option<EventRecord> {
        let ts = row.clustering.0.first()?.as_i64()?;
        let source = row.clustering.0.get(1)?.as_text()?.into();
        Some(EventRecord {
            ts_ms: ts,
            event_type: event_type.into(),
            source,
            amount: row.cell("amount").and_then(|v| v.as_i64()).unwrap_or(1) as i32,
            raw: row
                .cell("raw")
                .and_then(|v| v.as_text())
                .unwrap_or_default()
                .into(),
        })
    }

    /// Rebuilds a record from an `event_by_location` row.
    pub fn from_location_row(source: &str, row: &Row) -> Option<EventRecord> {
        let ts = row.clustering.0.first()?.as_i64()?;
        let event_type = row.clustering.0.get(1)?.as_text()?.into();
        Some(EventRecord {
            ts_ms: ts,
            event_type,
            source: source.into(),
            amount: row.cell("amount").and_then(|v| v.as_i64()).unwrap_or(1) as i32,
            raw: row
                .cell("raw")
                .and_then(|v| v.as_text())
                .unwrap_or_default()
                .into(),
        })
    }

    /// Serialization size proxy: encodes every cell value (used to model
    /// marshalling cost on non-local reads).
    pub fn marshalled_size(&self) -> usize {
        let mut buf = Vec::new();
        for (_, v) in self.to_time_row() {
            v.encode_into(&mut buf);
        }
        buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::keys::HOUR_MS;

    fn sample() -> EventRecord {
        EventRecord {
            ts_ms: 3 * HOUR_MS + 1234,
            event_type: "MCE".into(),
            source: "c0-0c0s0n0".into(),
            amount: 2,
            raw: "Machine Check Exception: bank 1".into(),
        }
    }

    #[test]
    fn time_row_keys_by_hour_and_type() {
        let row = sample().to_time_row();
        assert_eq!(row[0], ("hour", Value::BigInt(3)));
        assert_eq!(row[1], ("type", Value::text("MCE")));
        assert_eq!(row[2], ("ts", Value::Timestamp(3 * HOUR_MS + 1234)));
    }

    #[test]
    fn location_row_keys_by_hour_and_source() {
        let row = sample().to_location_row();
        assert_eq!(row[1], ("source", Value::text("c0-0c0s0n0")));
        assert_eq!(row[3], ("type", Value::text("MCE")));
    }

    #[test]
    fn roundtrip_through_db_rows() {
        use rasdb::types::Key;
        let ev = sample();
        let row = Row::new(
            Key::from(vec![Value::Timestamp(ev.ts_ms), Value::text(&ev.source)]),
            [
                ("amount".into(), Value::Int(ev.amount)),
                ("raw".into(), Value::text(&ev.raw)),
            ],
        );
        assert_eq!(EventRecord::from_time_row("MCE", &row).unwrap(), ev);

        let loc_row = Row::new(
            Key::from(vec![
                Value::Timestamp(ev.ts_ms),
                Value::text(&ev.event_type),
            ]),
            row.cells().iter().cloned(),
        );
        assert_eq!(
            EventRecord::from_location_row("c0-0c0s0n0", &loc_row).unwrap(),
            ev
        );
    }

    #[test]
    fn missing_cells_default() {
        use rasdb::types::Key;
        let row = Row::new(Key::from(vec![Value::Timestamp(5), Value::text("n")]), []);
        let ev = EventRecord::from_time_row("MCE", &row).unwrap();
        assert_eq!(ev.amount, 1);
        assert_eq!(&*ev.raw, "");
    }

    #[test]
    fn malformed_rows_return_none() {
        use rasdb::types::Key;
        let row = Row::new(Key::default(), []);
        assert!(EventRecord::from_time_row("MCE", &row).is_none());
    }

    #[test]
    fn marshalled_size_is_positive_and_tracks_payload() {
        let small = sample();
        let mut big = sample();
        big.raw = "x".repeat(1000).into();
        assert!(small.marshalled_size() > 0);
        assert!(big.marshalled_size() > small.marshalled_size() + 900);
    }
}
