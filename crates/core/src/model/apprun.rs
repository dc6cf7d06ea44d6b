//! Application runs and their denormalized views (paper Fig 2: "a set of
//! denormalized views on application runs").

use crate::model::keys::hour_of;
use loggen::topology::NODES_PER_CABINET;
use rasdb::types::{Row, Value};
use std::collections::BTreeMap;

/// One application run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppRun {
    /// ALPS application id.
    pub apid: i64,
    /// Owning user.
    pub user: String,
    /// Application name.
    pub app: String,
    /// Start time, ms.
    pub start_ms: i64,
    /// End time, ms.
    pub end_ms: i64,
    /// First allocated node (dense index).
    pub node_first: i64,
    /// Last allocated node (inclusive).
    pub node_last: i64,
    /// Exit code (0 = success).
    pub exit_code: i32,
    /// Free-form per-run extras ("Other Info" in Fig 2).
    pub other_info: BTreeMap<String, Value>,
}

impl AppRun {
    /// Cabinet of the allocation head (the `application_by_location` key).
    pub fn head_cabinet(&self) -> i64 {
        self.node_first / NODES_PER_CABINET as i64
    }

    /// Whether the run was active at `ts_ms`.
    pub fn running_at(&self, ts_ms: i64) -> bool {
        self.start_ms <= ts_ms && ts_ms < self.end_ms
    }

    /// Allocated node count.
    pub fn width(&self) -> i64 {
        self.node_last - self.node_first + 1
    }

    fn shared_cells(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("start_ts", Value::Timestamp(self.start_ms)),
            ("apid", Value::BigInt(self.apid)),
            ("end_ts", Value::Timestamp(self.end_ms)),
            ("node_first", Value::BigInt(self.node_first)),
            ("node_last", Value::BigInt(self.node_last)),
            ("exit_code", Value::Int(self.exit_code)),
            ("other_info", Value::Map(self.other_info.clone())),
        ]
    }

    /// Row for `application_by_time`.
    pub fn to_time_row(&self) -> Vec<(&'static str, Value)> {
        let mut row = self.shared_cells();
        row.push(("hour", Value::BigInt(hour_of(self.start_ms))));
        row.push(("userid", Value::text(&self.user)));
        row.push(("appname", Value::text(&self.app)));
        row
    }

    /// Row for `application_by_name`.
    pub fn to_name_row(&self) -> Vec<(&'static str, Value)> {
        let mut row = self.shared_cells();
        row.push(("appname", Value::text(&self.app)));
        row.push(("userid", Value::text(&self.user)));
        row
    }

    /// Row for `application_by_user`.
    pub fn to_user_row(&self) -> Vec<(&'static str, Value)> {
        let mut row = self.shared_cells();
        row.push(("userid", Value::text(&self.user)));
        row.push(("appname", Value::text(&self.app)));
        row
    }

    /// Row for `application_by_location`.
    pub fn to_location_row(&self) -> Vec<(&'static str, Value)> {
        let mut row = self.shared_cells();
        row.push(("cabinet", Value::BigInt(self.head_cabinet())));
        row.push(("userid", Value::text(&self.user)));
        row.push(("appname", Value::text(&self.app)));
        row
    }

    /// Rebuilds a run from any of the four views. Fields missing from the
    /// view's key are read from cells; `user`/`app` fall back to the
    /// provided defaults when the view's partition key carries them.
    pub fn from_row(row: &Row, user: Option<&str>, app: Option<&str>) -> Option<AppRun> {
        let start_ms = row.clustering.0.first()?.as_i64()?;
        let apid = row.clustering.0.get(1)?.as_i64()?;
        let cell_text = |name: &str| row.cell(name).and_then(|v| v.as_text()).map(str::to_owned);
        let other_info = match row.cell("other_info") {
            Some(Value::Map(m)) => m.clone(),
            _ => BTreeMap::new(),
        };
        Some(AppRun {
            apid,
            user: cell_text("userid").or_else(|| user.map(str::to_owned))?,
            app: cell_text("appname").or_else(|| app.map(str::to_owned))?,
            start_ms,
            end_ms: row
                .cell("end_ts")
                .and_then(|v| v.as_i64())
                .unwrap_or(start_ms),
            node_first: row.cell("node_first").and_then(|v| v.as_i64()).unwrap_or(0),
            node_last: row.cell("node_last").and_then(|v| v.as_i64()).unwrap_or(0),
            exit_code: row.cell("exit_code").and_then(|v| v.as_i64()).unwrap_or(0) as i32,
            other_info,
        })
    }
}

/// Converts a generated ground-truth job into an [`AppRun`].
impl From<&loggen::jobs::JobRecord> for AppRun {
    fn from(j: &loggen::jobs::JobRecord) -> AppRun {
        AppRun {
            apid: j.apid as i64,
            user: j.user.clone(),
            app: j.app.clone(),
            start_ms: j.start_ms,
            end_ms: j.end_ms,
            node_first: j.node_first as i64,
            node_last: j.node_last as i64,
            exit_code: j.exit.code(),
            other_info: BTreeMap::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasdb::types::Key;

    fn sample() -> AppRun {
        AppRun {
            apid: 1_000_001,
            user: "usr0042".to_owned(),
            app: "VASP".to_owned(),
            start_ms: 7_200_000,
            end_ms: 10_800_000,
            node_first: 192,
            node_last: 319,
            exit_code: 0,
            other_info: [("queue".to_owned(), Value::text("batch"))]
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn head_cabinet_and_width() {
        let run = sample();
        assert_eq!(run.head_cabinet(), 2); // 192 / 96
        assert_eq!(run.width(), 128);
        assert!(run.running_at(7_200_000));
        assert!(!run.running_at(10_800_000));
    }

    #[test]
    fn views_carry_their_partition_keys() {
        let run = sample();
        let time_row = run.to_time_row();
        assert!(time_row
            .iter()
            .any(|(n, v)| *n == "hour" && *v == Value::BigInt(2)));
        let loc_row = run.to_location_row();
        assert!(loc_row
            .iter()
            .any(|(n, v)| *n == "cabinet" && *v == Value::BigInt(2)));
        let name_row = run.to_name_row();
        assert!(name_row
            .iter()
            .any(|(n, v)| *n == "appname" && *v == Value::text("VASP")));
    }

    #[test]
    fn roundtrip_from_row() {
        let run = sample();
        let row = Row::new(
            Key::from(vec![
                Value::Timestamp(run.start_ms),
                Value::BigInt(run.apid),
            ]),
            run.to_time_row()
                .into_iter()
                .filter(|(n, _)| !matches!(*n, "hour" | "start_ts" | "apid"))
                .map(|(n, v)| (n.into(), v)),
        );
        assert_eq!(AppRun::from_row(&row, None, None).unwrap(), run);
    }

    #[test]
    fn from_row_uses_fallbacks_when_cells_missing() {
        let row = Row::new(Key::from(vec![Value::Timestamp(5), Value::BigInt(1)]), []);
        let run = AppRun::from_row(&row, Some("u"), Some("a")).unwrap();
        assert_eq!(run.user, "u");
        assert_eq!(run.app, "a");
        assert!(AppRun::from_row(&row, None, Some("a")).is_none());
    }

    #[test]
    fn job_record_conversion() {
        let job = loggen::jobs::JobRecord {
            apid: 5,
            user: "u".into(),
            app: "LAMMPS".into(),
            start_ms: 1,
            end_ms: 2,
            node_first: 0,
            node_last: 3,
            exit: loggen::jobs::ExitStatus::Failed(134),
        };
        let run = AppRun::from(&job);
        assert_eq!(run.exit_code, 134);
        assert_eq!(run.width(), 4);
    }
}
