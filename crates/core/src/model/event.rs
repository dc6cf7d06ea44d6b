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
    /// supplied by the caller, clustering/cells from the row). The record
    /// shares the row's text and the caller's `event_type`; nothing is
    /// copied.
    pub fn from_time_row(event_type: &Arc<str>, row: &Row) -> Option<EventRecord> {
        let ts = row.clustering.0.first()?.as_i64()?;
        let source = shared_text(row.clustering.0.get(1)?)?;
        Some(EventRecord {
            ts_ms: ts,
            event_type: Arc::clone(event_type),
            source,
            amount: row.cell("amount").and_then(|v| v.as_i64()).unwrap_or(1) as i32,
            raw: raw_of(row),
        })
    }

    /// Rebuilds a record from an `event_by_location` row, sharing its text
    /// and the caller's `source` as [`EventRecord::from_time_row`] does.
    pub fn from_location_row(source: &Arc<str>, row: &Row) -> Option<EventRecord> {
        let ts = row.clustering.0.first()?.as_i64()?;
        let event_type = shared_text(row.clustering.0.get(1)?)?;
        Some(EventRecord {
            ts_ms: ts,
            event_type,
            source: Arc::clone(source),
            amount: row.cell("amount").and_then(|v| v.as_i64()).unwrap_or(1) as i32,
            raw: raw_of(row),
        })
    }
}

/// Another pointer to a text value's string.
fn shared_text(v: &Value) -> Option<Arc<str>> {
    match v {
        Value::Text(s) => Some(Arc::clone(s)),
        _ => None,
    }
}

/// A row's raw message, shared; the empty string when it has none.
fn raw_of(row: &Row) -> Arc<str> {
    row.cell("raw")
        .and_then(shared_text)
        .unwrap_or_else(|| "".into())
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
        assert_eq!(EventRecord::from_time_row(&"MCE".into(), &row).unwrap(), ev);

        let loc_row = Row::new(
            Key::from(vec![
                Value::Timestamp(ev.ts_ms),
                Value::text(&ev.event_type),
            ]),
            row.cells().map(|(n, v)| (Arc::clone(n), v.clone())),
        );
        assert_eq!(
            EventRecord::from_location_row(&"c0-0c0s0n0".into(), &loc_row).unwrap(),
            ev
        );
    }

    #[test]
    fn records_share_the_text_of_the_rows_they_are_read_from() {
        use rasdb::types::Key;
        let ev = sample();
        let (source, raw) = (
            Value::Text(Arc::clone(&ev.source)),
            Value::Text(ev.raw.clone()),
        );
        let cells = [("amount".into(), Value::Int(2)), ("raw".into(), raw)];
        let row = Row::new(Key::from(vec![Value::Timestamp(ev.ts_ms), source]), cells);
        let by_time = EventRecord::from_time_row(&ev.event_type, &row).unwrap();
        assert!(Arc::ptr_eq(&by_time.raw, &ev.raw), "raw is the stored copy");
        assert!(Arc::ptr_eq(&by_time.source, &ev.source));
        assert!(Arc::ptr_eq(&by_time.event_type, &ev.event_type));
        let by_location = EventRecord::from_location_row(&ev.source, &row);
        assert!(Arc::ptr_eq(&by_location.unwrap().raw, &ev.raw));
    }

    #[test]
    fn missing_cells_default() {
        use rasdb::types::Key;
        let row = Row::new(Key::from(vec![Value::Timestamp(5), Value::text("n")]), []);
        let ev = EventRecord::from_time_row(&"MCE".into(), &row).unwrap();
        assert_eq!(ev.amount, 1);
        assert_eq!(&*ev.raw, "");
    }

    #[test]
    fn malformed_rows_return_none() {
        use rasdb::types::Key;
        let row = Row::new(Key::default(), []);
        assert!(EventRecord::from_time_row(&"MCE".into(), &row).is_none());
    }
}
