//! The row-side reference for `Context::fetch_events`.
//!
//! The library resolves a context into rows of the column blocks; this
//! reads the rows themselves, as the library did before it had blocks, so
//! the two can be compared: a pinned source reads its `event_by_location`
//! partitions, else a pinned type its `event_by_time` ones, else every
//! catalog type's; cabinet, user and app filters then parse each row's
//! source and keep what matches.

use hpclog_core::context::Context;
use hpclog_core::framework::Framework;
use hpclog_core::model::event::EventRecord;
use loggen::topology::NODES_PER_CABINET;
use rasdb::error::DbError;

/// The events `ctx` selects, read as rows and filtered one by one.
pub fn fetch_events_reference(ctx: &Context, fw: &Framework) -> Result<Vec<EventRecord>, DbError> {
    let mut events = if let Some(source) = &ctx.source {
        fw.events_by_source(source, ctx.from_ms, ctx.to_ms)?
    } else if let Some(t) = &ctx.event_type {
        fw.events_by_type(t, ctx.from_ms, ctx.to_ms)?
    } else {
        let mut all = Vec::new();
        for etype in loggen::events::EVENT_CATALOG {
            all.extend(fw.events_by_type(etype.name, ctx.from_ms, ctx.to_ms)?);
        }
        all.sort_by_key(|e| e.ts_ms);
        all
    };
    if let (Some(t), Some(_)) = (&ctx.event_type, &ctx.source) {
        // Both pinned: the by-location fetch needs a type filter.
        events.retain(|e| *e.event_type == **t);
    }
    let topo = fw.topology();
    if let Some(cabinet) = ctx.cabinet {
        events.retain(|e| {
            topo.parse_cname(&e.source)
                .is_some_and(|idx| idx / NODES_PER_CABINET == cabinet)
        });
    }
    if ctx.user.is_some() || ctx.app.is_some() {
        let runs = match (&ctx.user, &ctx.app) {
            (Some(u), _) => {
                let mut rs = fw.apps_by_user(u)?;
                if let Some(a) = &ctx.app {
                    rs.retain(|r| &r.app == a);
                }
                rs
            }
            (None, Some(a)) => fw.apps_by_name(a)?,
            (None, None) => unreachable!(),
        };
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
