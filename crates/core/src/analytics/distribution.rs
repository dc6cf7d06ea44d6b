//! Distributions of event occurrences "over cabinets, blades, nodes, and
//! applications" (paper §III-B) — the complementary view to the heat map.
//! [`distribution`] folds the column-block rows a context selects;
//! [`distribution_of`], its reference, groups already-fetched rows.

use crate::analytics::heatmap::grouped_counts;
use crate::columnar::Slots;
use crate::context::Context;
use crate::framework::Framework;
use crate::model::apprun::AppRun;
use crate::model::event::EventRecord;
use crate::model::keys::HOUR_MS;
use loggen::topology::{NODES_PER_BLADE, NODES_PER_CABINET};
use rasdb::error::DbError;
use std::collections::HashMap;

/// What to group occurrence counts by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupBy {
    /// Per cabinet.
    Cabinet,
    /// Per blade.
    Blade,
    /// Per node.
    Node,
    /// Per application that was running on the source node at the time.
    Application,
}

/// A labeled distribution, sorted by descending count.
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    /// `(label, count)` pairs, heaviest first.
    pub entries: Vec<(String, f64)>,
    /// Events that matched no group (e.g. no app running there).
    pub unattributed: f64,
}

impl Distribution {
    /// The top-k entries.
    pub fn top(&self, k: usize) -> &[(String, f64)] {
        &self.entries[..k.min(self.entries.len())]
    }
}

/// Computes the distribution of the rows a context selects
/// ([`Context::select`]). Rows fold into slots through each block's node
/// index (`ColumnBlock::nodes`, resolved once per block), and no label is
/// built or hashed per row:
///
/// - cabinet and blade: one slot per cabinet / blade of the topology, each
///   present slot labelled once at the end;
/// - node: one slot per dictionary id of each block, labelled by its
///   source string, so two spellings of one node stay apart as they do in
///   the row path;
/// - application: one slot per run, found per row since it depends on the
///   row's timestamp.
///
/// The sums are of integer amounts, hence exact, so the result is
/// byte-identical to [`distribution_of`] over the selected rows.
pub fn distribution(
    fw: &Framework,
    ctx: &Context,
    group_by: GroupBy,
) -> Result<Distribution, DbError> {
    let topo = fw.topology();
    let parts = ctx.select(fw)?;
    let rows = || parts.iter().map(|(b, runs)| (&**b, runs.iter().cloned()));
    match group_by {
        GroupBy::Cabinet => {
            let slots = grouped_counts(rows(), topo, topo.cabinet_count(), |n| {
                n / NODES_PER_CABINET
            });
            Ok(labelled(slots, |c| format!("cab{c}")))
        }
        GroupBy::Blade => {
            let slots = grouped_counts(rows(), topo, topo.blade_count(), |n| n / NODES_PER_BLADE);
            Ok(labelled(slots, |b| format!("blade{b}")))
        }
        GroupBy::Node => {
            let mut counts: HashMap<&str, f64> = HashMap::new();
            let mut unattributed = 0.0;
            for (b, rows) in &parts {
                let nodes = b.nodes(topo);
                let mut slots = Slots::new(b.dict.len());
                slots.fold(b, rows.iter().cloned(), |i| {
                    let sid = b.source_ids[i] as usize;
                    nodes[sid].map(|_| sid)
                });
                for (sid, sum) in slots.iter_present() {
                    *counts.entry(&b.dict[sid]).or_default() += sum;
                }
                unattributed += slots.unattributed;
            }
            Ok(finish(counts, unattributed))
        }
        GroupBy::Application => {
            // The runs active in the selected rows' span, derived from
            // their min/max timestamps exactly as `distribution_of` derives
            // them from its rows.
            let (mut lo, mut hi) = (i64::MAX, i64::MIN);
            for (b, rows) in &parts {
                lo = lo.min(b.ts[rows[0].start]);
                hi = hi.max(b.ts[rows[rows.len() - 1].end - 1]);
            }
            let runs = runs_between(fw, lo, hi)?;
            let mut slots = Slots::new(runs.len());
            for (b, rows) in &parts {
                let nodes = b.nodes(topo);
                slots.fold(b, rows.iter().cloned(), |i| {
                    let node = nodes[b.source_ids[i] as usize]?;
                    find_run(&runs, b.ts[i], node as usize)
                });
            }
            let mut counts: HashMap<&str, f64> = HashMap::new();
            for (run, sum) in slots.iter_present() {
                *counts.entry(&runs[run].app).or_default() += sum;
            }
            Ok(finish(counts, slots.unattributed))
        }
    }
}

/// How long before an event a run attribution reads may have started.
pub(crate) const ATTRIBUTION_LOOKBACK_MS: i64 = 24 * HOUR_MS;

/// The application runs that may cover an event in `[lo, hi]`: runs may
/// have started up to [`ATTRIBUTION_LOOKBACK_MS`] before the first event.
/// Empty when `lo > hi` (no events).
fn runs_between(fw: &Framework, lo: i64, hi: i64) -> Result<Vec<AppRun>, DbError> {
    if lo <= hi {
        fw.apps_by_time(lo - ATTRIBUTION_LOOKBACK_MS, hi + 1)
    } else {
        Ok(Vec::new())
    }
}

/// The position of the first run covering `(ts, node idx)`, shared by the
/// block scan, [`distribution_of`] and a context's user / app filter, so
/// attribution order is identical everywhere.
pub(crate) fn find_run(runs: &[AppRun], ts_ms: i64, idx: usize) -> Option<usize> {
    runs.iter().position(|r| {
        r.running_at(ts_ms) && (r.node_first as usize) <= idx && idx <= r.node_last as usize
    })
}

/// The distribution of the present `slots`, each labelled once.
fn labelled(slots: Slots, label: impl Fn(usize) -> String) -> Distribution {
    let entries = slots.iter_present().map(|(s, sum)| (label(s), sum));
    finish(entries, slots.unattributed)
}

/// Sorts the accumulated counts into the canonical heaviest-first order.
fn finish<L: Into<String>>(
    counts: impl IntoIterator<Item = (L, f64)>,
    unattributed: f64,
) -> Distribution {
    let mut entries: Vec<(String, f64)> = counts.into_iter().map(|(l, c)| (l.into(), c)).collect();
    entries.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    Distribution {
        entries,
        unattributed,
    }
}

/// Groups already-fetched rows: the row-side reference that
/// [`distribution`] must equal, kept for the tests that compare them.
pub fn distribution_of(
    fw: &Framework,
    events: &[EventRecord],
    group_by: GroupBy,
) -> Result<Distribution, DbError> {
    let topo = fw.topology();
    let mut counts: HashMap<String, f64> = HashMap::new();
    let mut unattributed = 0.0;

    // Application grouping needs the runs active in the events' span.
    let runs = if group_by == GroupBy::Application {
        let (lo, hi) = events.iter().fold((i64::MAX, i64::MIN), |(lo, hi), e| {
            (lo.min(e.ts_ms), hi.max(e.ts_ms))
        });
        runs_between(fw, lo, hi)?
    } else {
        Vec::new()
    };

    for e in events {
        let Some(idx) = topo.parse_cname(&e.source) else {
            unattributed += e.amount as f64;
            continue;
        };
        match group_by {
            GroupBy::Cabinet => {
                let cab = idx / NODES_PER_CABINET;
                *counts.entry(format!("cab{cab}")).or_default() += e.amount as f64;
            }
            GroupBy::Blade => {
                let blade = idx / NODES_PER_BLADE;
                *counts.entry(format!("blade{blade}")).or_default() += e.amount as f64;
            }
            GroupBy::Node => {
                *counts.entry(e.source.to_string()).or_default() += e.amount as f64;
            }
            GroupBy::Application => match find_run(&runs, e.ts_ms, idx) {
                Some(r) => *counts.entry(runs[r].app.clone()).or_default() += e.amount as f64,
                None => unattributed += e.amount as f64,
            },
        }
    }
    Ok(finish(counts, unattributed))
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

    fn window(event_type: &str) -> Context {
        Context::window(0, HOUR_MS).with_type(event_type)
    }

    fn ev(fw: &Framework, ts: i64, node: usize, amount: i32) {
        fw.insert_event(&EventRecord {
            ts_ms: ts,
            event_type: "LUSTRE_ERR".into(),
            source: fw.topology().node(node).cname.into(),
            amount,
            raw: "".into(),
        })
        .unwrap();
    }

    #[test]
    fn cabinet_blade_node_groupings() {
        let fw = fw();
        ev(&fw, 0, 0, 1); // cab0 blade0
        ev(&fw, 1, 1, 1); // cab0 blade0
        ev(&fw, 2, 4, 1); // cab0 blade1
        ev(&fw, 3, 96, 1); // cab1 blade24

        let d = distribution(&fw, &window("LUSTRE_ERR"), GroupBy::Cabinet).unwrap();
        assert_eq!(d.entries[0], ("cab0".to_owned(), 3.0));
        assert_eq!(d.entries[1], ("cab1".to_owned(), 1.0));

        let d = distribution(&fw, &window("LUSTRE_ERR"), GroupBy::Blade).unwrap();
        assert_eq!(d.entries[0], ("blade0".to_owned(), 2.0));
        assert_eq!(d.entries.len(), 3);

        let d = distribution(&fw, &window("LUSTRE_ERR"), GroupBy::Node).unwrap();
        assert_eq!(d.entries.len(), 4);
        assert_eq!(d.top(2).len(), 2);
        assert_eq!(d.unattributed, 0.0);
    }

    #[test]
    fn application_grouping_attributes_by_allocation_and_time() {
        let fw = fw();
        fw.insert_app_run(&AppRun {
            apid: 1,
            user: "u".into(),
            app: "VASP".into(),
            start_ms: 0,
            end_ms: 10_000,
            node_first: 0,
            node_last: 47,
            exit_code: 0,
            other_info: Default::default(),
        })
        .unwrap();
        ev(&fw, 5_000, 10, 1); // inside VASP
        ev(&fw, 5_000, 90, 1); // outside allocation
        ev(&fw, 20_000, 10, 1); // after the run
        let d = distribution(&fw, &window("LUSTRE_ERR"), GroupBy::Application).unwrap();
        assert_eq!(d.entries, vec![("VASP".to_owned(), 1.0)]);
        assert_eq!(d.unattributed, 2.0);
    }

    #[test]
    fn unknown_sources_are_unattributed() {
        let fw = fw();
        fw.insert_event(&EventRecord {
            ts_ms: 0,
            event_type: "LUSTRE_ERR".into(),
            source: "mds01".into(), // not a compute node
            amount: 3,
            raw: "".into(),
        })
        .unwrap();
        let d = distribution(&fw, &window("LUSTRE_ERR"), GroupBy::Cabinet).unwrap();
        assert!(d.entries.is_empty());
        assert_eq!(d.unattributed, 3.0);
    }

    #[test]
    fn empty_stream_is_empty() {
        let fw = fw();
        let d = distribution(&fw, &window("MCE"), GroupBy::Node).unwrap();
        assert!(d.entries.is_empty());
        assert_eq!(d.unattributed, 0.0);
    }
}
