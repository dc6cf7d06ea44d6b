//! User contexts: "a context is selected on the basis of event type,
//! application, location, user, time period, or a combination of these,
//! over which the system status is defined and examined" (paper §III-B).
//!
//! A context resolves once per request into the rows it selects from column
//! blocks ([`Context::select`]); no op that takes one reads rows.

use crate::analytics::distribution::find_run;
use crate::columnar::ColumnBlock;
use crate::framework::Framework;
use crate::model::event::EventRecord;
use loggen::topology::NODES_PER_CABINET;
use rasdb::error::DbError;
use rasdb::types::{Key, Value};
use rasdb::DecoratedKey;
use std::ops::Range;
use std::sync::Arc;

/// The rows a context selects: each block holding one, with its selected
/// row indices as ascending, disjoint runs.
pub type Selection = Vec<(Arc<ColumnBlock>, Vec<Range<usize>>)>;

/// A spatio-temporal selection over the event space.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Context {
    /// Restrict to one event type.
    pub event_type: Option<String>,
    /// Restrict to one source component (cname).
    pub source: Option<String>,
    /// Restrict to one cabinet (floor-grid index).
    pub cabinet: Option<usize>,
    /// Restrict to events overlapping one user's runs.
    pub user: Option<String>,
    /// Restrict to events overlapping one application's runs.
    pub app: Option<String>,
    /// Window start (ms, inclusive).
    pub from_ms: i64,
    /// Window end (ms, exclusive).
    pub to_ms: i64,
}

impl Context {
    /// A context over a time window.
    pub fn window(from_ms: i64, to_ms: i64) -> Context {
        Context {
            from_ms,
            to_ms,
            ..Default::default()
        }
    }

    /// Restricts to an event type.
    pub fn with_type(mut self, event_type: impl Into<String>) -> Context {
        self.event_type = Some(event_type.into());
        self
    }

    /// Restricts to a source component.
    pub fn with_source(mut self, source: impl Into<String>) -> Context {
        self.source = Some(source.into());
        self
    }

    /// Restricts to a cabinet.
    pub fn with_cabinet(mut self, cabinet: usize) -> Context {
        self.cabinet = Some(cabinet);
        self
    }

    /// Restricts to a user's runs.
    pub fn with_user(mut self, user: impl Into<String>) -> Context {
        self.user = Some(user.into());
        self
    }

    /// Restricts to an application's runs.
    pub fn with_app(mut self, app: impl Into<String>) -> Context {
        self.app = Some(app.into());
        self
    }

    /// Narrows to a sub-interval ("users can repeatedly select
    /// sub-intervals of interest for narrowed investigations").
    pub fn narrow(&self, from_ms: i64, to_ms: i64) -> Context {
        let mut c = self.clone();
        c.from_ms = from_ms.max(self.from_ms);
        c.to_ms = to_ms.min(self.to_ms);
        c
    }

    /// The event types the context reads: the pinned one, or the catalog.
    fn types(&self) -> Vec<&str> {
        let catalog = loggen::events::EVENT_CATALOG.iter().map(|t| t.name);
        self.event_type
            .as_deref()
            .map_or_else(|| catalog.collect(), |t| vec![t])
    }

    /// The `(table, partition)` pairs [`Context::select`] reads, which an
    /// answer memoised over the context depends on: each read type's hours,
    /// and a user's run partition (all their apps) or else an app's.
    pub(crate) fn deps(&self) -> Vec<(String, DecoratedKey)> {
        let mut deps = Framework::event_deps(&self.types(), self.from_ms, self.to_ms);
        let (table, name) = match (&self.user, &self.app) {
            (Some(user), _) => ("application_by_user", user),
            (None, Some(app)) => ("application_by_name", app),
            (None, None) => return deps,
        };
        let partition = DecoratedKey::new(Key::from(vec![Value::text(name)]));
        deps.push((table.to_owned(), partition));
        deps
    }

    /// Resolves the context into runs of the rows of its window, in the
    /// blocks of each type it reads ([`Framework::scan_window`]), that pass
    /// `source` (one dictionary id, matched by string), `cabinet` and `user`
    /// / `app` (runs read once: intervals × node ranges). Only the last three
    /// read a block's node index; they pass no row whose source names no node.
    pub fn select(&self, fw: &Framework) -> Result<Selection, DbError> {
        let mut runs = match (&self.user, &self.app) {
            (Some(user), _) => Some(fw.apps_by_user(user)?),
            (None, Some(app)) => Some(fw.apps_by_name(app)?),
            (None, None) => None,
        };
        if let (Some(runs), Some(app)) = (&mut runs, &self.app) {
            runs.retain(|r| &r.app == app);
        }
        let located = self.cabinet.is_some() || runs.is_some();
        let mut parts = Vec::new();
        for t in self.types() {
            for b in fw.scan_window(t, self.from_ms, self.to_ms)?.parts {
                let window = b.range(self.from_ms, self.to_ms);
                let id_of = |s: &String| b.dict.iter().position(|d| **d == **s);
                let source = self.source.as_ref().map(id_of);
                if window.is_empty() || source == Some(None) {
                    continue;
                } else if source.is_none() && !located {
                    parts.push((b, vec![window]));
                    continue;
                }
                let nodes = if located { b.nodes(fw.topology()) } else { &[] };
                let pass = |&i: &usize| {
                    let sid = b.source_ids[i] as usize;
                    let node = || nodes[sid].map(|n| n as usize);
                    let in_cabinet = |c| node().is_some_and(|n| n / NODES_PER_CABINET == c);
                    let in_run = |rs| node().is_some_and(|n| find_run(rs, b.ts[i], n).is_some());
                    source.is_none_or(|id| id == Some(sid))
                        && self.cabinet.is_none_or(in_cabinet)
                        && runs.as_deref().is_none_or(in_run)
                };
                let mut rows: Vec<Range<usize>> = Vec::new();
                for i in window.filter(pass) {
                    match rows.last_mut() {
                        Some(run) if run.end == i => run.end += 1,
                        _ => rows.push(i..i + 1),
                    }
                }
                if !rows.is_empty() {
                    parts.push((b, rows));
                }
            }
        }
        Ok(parts)
    }

    /// Fetches the events this context selects: the records of
    /// [`Context::select`], sharing their blocks' text, in catalog type
    /// order and time order within a type (callers sort across types).
    pub fn fetch_events(&self, fw: &Framework) -> Result<Vec<EventRecord>, DbError> {
        let parts = self.select(fw)?;
        let rows = parts
            .iter()
            .flat_map(|(b, rows)| rows.iter().cloned().flatten().map(|i| b.record(i)));
        Ok(rows.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FrameworkConfig;
    use crate::model::apprun::AppRun;
    use crate::model::keys::HOUR_MS;
    use loggen::topology::Topology;

    fn fw() -> Framework {
        Framework::new(FrameworkConfig {
            db_nodes: 3,
            replication_factor: 2,
            vnodes: 8,
            topology: Topology::scaled(2, 2),
            ..Default::default()
        })
        .unwrap()
    }

    fn ev(fw: &Framework, ts: i64, t: &str, src: &str) {
        fw.insert_event(&EventRecord {
            ts_ms: ts,
            event_type: t.into(),
            source: src.into(),
            amount: 1,
            raw: "".into(),
        })
        .unwrap();
    }

    #[test]
    fn type_and_window_selection() {
        let fw = fw();
        ev(&fw, 100, "MCE", "c0-0c0s0n0");
        ev(&fw, 200, "GPU_DBE", "c0-0c0s0n0");
        ev(&fw, HOUR_MS + 100, "MCE", "c0-0c0s0n0");
        let got = Context::window(0, HOUR_MS)
            .with_type("MCE")
            .fetch_events(&fw)
            .unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].ts_ms, 100);
    }

    #[test]
    fn untyped_context_scans_all_types() {
        let fw = fw();
        ev(&fw, 100, "MCE", "c0-0c0s0n0");
        ev(&fw, 200, "GPU_DBE", "c0-0c0s0n0");
        let got = Context::window(0, HOUR_MS).fetch_events(&fw).unwrap();
        assert_eq!(got.len(), 2);
        assert!(got[0].ts_ms <= got[1].ts_ms);
    }

    #[test]
    fn source_context_reads_location_table() {
        let fw = fw();
        ev(&fw, 100, "MCE", "c0-0c0s0n0");
        ev(&fw, 150, "LUSTRE_ERR", "c0-0c0s0n0");
        ev(&fw, 200, "MCE", "c1-0c0s0n0");
        let got = Context::window(0, HOUR_MS)
            .with_source("c0-0c0s0n0")
            .fetch_events(&fw)
            .unwrap();
        assert_eq!(got.len(), 2);
        // Type + source narrows further.
        let got = Context::window(0, HOUR_MS)
            .with_source("c0-0c0s0n0")
            .with_type("MCE")
            .fetch_events(&fw)
            .unwrap();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn cabinet_filter_uses_topology() {
        let fw = fw();
        ev(&fw, 100, "MCE", "c0-0c0s0n0"); // cabinet 0
        ev(&fw, 110, "MCE", "c1-0c0s0n0"); // cabinet 1
        let got = Context::window(0, HOUR_MS)
            .with_type("MCE")
            .with_cabinet(1)
            .fetch_events(&fw)
            .unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(&*got[0].source, "c1-0c0s0n0");
    }

    #[test]
    fn user_context_selects_overlapping_events() {
        let fw = fw();
        // usr1 ran on nodes 0..=95 (cabinet 0) during [1000, 2000).
        fw.insert_app_run(&AppRun {
            apid: 1,
            user: "usr1".into(),
            app: "VASP".into(),
            start_ms: 1000,
            end_ms: 2000,
            node_first: 0,
            node_last: 95,
            exit_code: 0,
            other_info: Default::default(),
        })
        .unwrap();
        ev(&fw, 1500, "LUSTRE_ERR", "c0-0c0s0n0"); // inside run, inside alloc
        ev(&fw, 2500, "LUSTRE_ERR", "c0-0c0s0n0"); // after run
        ev(&fw, 1500, "LUSTRE_ERR", "c0-1c0s0n0"); // other cabinet (node 96+)
        let got = Context::window(0, HOUR_MS)
            .with_user("usr1")
            .fetch_events(&fw)
            .unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].ts_ms, 1500);
        assert_eq!(&*got[0].source, "c0-0c0s0n0");
    }

    #[test]
    fn narrow_clamps_to_parent_window() {
        let ctx = Context::window(100, 1000).with_type("MCE");
        let sub = ctx.narrow(50, 500);
        assert_eq!(sub.from_ms, 100);
        assert_eq!(sub.to_ms, 500);
        assert_eq!(sub.event_type.as_deref(), Some("MCE"));
    }
}
