//! User contexts: "a context is selected on the basis of event type,
//! application, location, user, time period, or a combination of these,
//! over which the system status is defined and examined" (paper §III-B).

use crate::framework::Framework;
use crate::model::event::EventRecord;
use rasdb::error::DbError;

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

    /// Fetches the events selected by this context.
    ///
    /// Table choice follows the partition design: a pinned source uses
    /// `event_by_location`; otherwise a pinned type uses `event_by_time`;
    /// with neither pinned, every catalog type is scanned. Cabinet, user,
    /// and app restrictions filter the fetched stream (user/app via the
    /// run tables' node allocations and time spans).
    pub fn fetch_events(&self, fw: &Framework) -> Result<Vec<EventRecord>, DbError> {
        let mut events = if let Some(source) = &self.source {
            fw.events_by_source(source, self.from_ms, self.to_ms)?
        } else if let Some(t) = &self.event_type {
            fw.events_by_type(t, self.from_ms, self.to_ms)?
        } else {
            let mut all = Vec::new();
            for etype in loggen::events::EVENT_CATALOG {
                all.extend(fw.events_by_type(etype.name, self.from_ms, self.to_ms)?);
            }
            all.sort_by_key(|e| e.ts_ms);
            all
        };
        if let (Some(t), Some(_)) = (&self.event_type, &self.source) {
            // Both pinned: the by-location fetch needs a type filter.
            events.retain(|e| *e.event_type == **t);
        }
        if let Some(cabinet) = self.cabinet {
            let topo = fw.topology();
            events.retain(|e| {
                topo.parse_cname(&e.source)
                    .map(|idx| idx / loggen::topology::NODES_PER_CABINET == cabinet)
                    .unwrap_or(false)
            });
        }
        if self.user.is_some() || self.app.is_some() {
            let runs = match (&self.user, &self.app) {
                (Some(u), _) => {
                    let mut rs = fw.apps_by_user(u)?;
                    if let Some(a) = &self.app {
                        rs.retain(|r| &r.app == a);
                    }
                    rs
                }
                (None, Some(a)) => fw.apps_by_name(a)?,
                (None, None) => unreachable!(),
            };
            let topo = fw.topology();
            events.retain(|e| {
                let Some(idx) = topo.parse_cname(&e.source) else {
                    return false;
                };
                runs.iter().any(|r| {
                    r.running_at(e.ts_ms)
                        && (r.node_first as usize) <= idx
                        && idx <= r.node_last as usize
                })
            });
        }
        Ok(events)
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
