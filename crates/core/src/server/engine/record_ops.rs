//! The ops forwarded to the database: listings, node lookups and raw CQL.

use super::QueryEngine;
use crate::model::nodeinfo;
use crate::server::request::{ApiError, Cursor, ErrorCode, OpOutput, Page, QueryRequest};
use jsonlite::{json_array, json_object, Value as Json};
use rasdb::cluster::ExecResult;
use std::cmp::Ordering;

impl QueryEngine {
    pub(super) fn op_events(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let ctx = req.context()?;
        let mut events = ctx.fetch_events(&self.fw)?;
        let page = paginate(
            req,
            "events",
            &mut events,
            |a, b| (a.ts_ms, &a.source, &a.event_type).cmp(&(b.ts_ms, &b.source, &b.event_type)),
            |e| Cursor::Event {
                ts_ms: e.ts_ms,
                source: e.source.to_string(),
                event_type: e.event_type.to_string(),
            },
        )?;
        let rows = json_array(events.iter().map(|e| {
            json_object([
                ("ts", Json::from(e.ts_ms)),
                ("type", Json::from(&*e.event_type)),
                ("source", Json::from(&*e.source)),
                ("amount", Json::from(e.amount)),
                ("raw", Json::from(&*e.raw)),
            ])
        }));
        Ok(OpOutput::data([("rows", rows)]).with_page(page))
    }

    pub(super) fn op_apps(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let mut runs = if let Some(user) = &req.user {
            self.fw.apps_by_user(user)
        } else if let Some(app) = &req.app {
            self.fw.apps_by_name(app)
        } else if let Some(cab) = req.cabinet {
            self.fw.apps_by_location(cab)
        } else {
            let (from, to) = req.window()?;
            self.fw.apps_by_time(from, to)
        }?;
        let page = paginate(
            req,
            "apps",
            &mut runs,
            |a, b| (a.start_ms, a.apid).cmp(&(b.start_ms, b.apid)),
            |r| Cursor::App {
                start_ms: r.start_ms,
                apid: r.apid,
            },
        )?;
        let rows = json_array(runs.iter().map(|r| {
            json_object([
                ("apid", Json::from(r.apid)),
                ("user", Json::from(r.user.as_str())),
                ("app", Json::from(r.app.as_str())),
                ("start", Json::from(r.start_ms)),
                ("end", Json::from(r.end_ms)),
                ("node_first", Json::from(r.node_first)),
                ("node_last", Json::from(r.node_last)),
                ("exit_code", Json::from(r.exit_code)),
            ])
        }));
        Ok(OpOutput::data([("runs", rows)]).with_page(page))
    }

    pub(super) fn op_nodeinfo(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let cname = req.str_field("cname")?;
        match nodeinfo::lookup(self.fw.cluster(), cname)? {
            None => Err(ApiError::new(
                ErrorCode::NotFound,
                format!("unknown node '{cname}'"),
            )),
            Some(info) => Ok(OpOutput::data([
                ("cname", Json::from(info.cname.as_str())),
                ("index", Json::from(info.index)),
                ("row", Json::from(info.row)),
                ("col", Json::from(info.col)),
                ("cage", Json::from(info.cage)),
                ("slot", Json::from(info.slot)),
                ("node", Json::from(info.node)),
                ("gemini", Json::from(info.gemini)),
            ])),
        }
    }

    /// Simple queries go "directly handled by the query engine" — raw CQL
    /// pass-through to the backend.
    pub(super) fn op_cql(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let q = req.str_field("q")?;
        match self.fw.cluster().execute(q, self.fw.consistency())? {
            ExecResult::Applied => Ok(OpOutput::data([("applied", Json::from(true))])),
            ExecResult::Rows(rows) => Ok(OpOutput::data([(
                "rows",
                json_array(rows.iter().map(|r| {
                    let mut obj =
                        json_object(r.cells().map(|(k, v)| (k.to_string(), db_value_to_json(v))));
                    obj.insert(
                        "_key",
                        json_array(r.clustering.0.iter().map(db_value_to_json)),
                    );
                    obj
                })),
            )])),
        }
    }
}

/// Cuts one page of a cursor-driven op's `items`: sorts them by `order`,
/// drops every item up to and including the request's cursor, which must
/// be one of `op`'s, and keeps the request's `limit`. `cursor` encodes an
/// item as the cursor resuming after it; items must sort as their cursors
/// do. Returns the `page` object when the request has a limit or a cursor.
fn paginate<T>(
    req: &QueryRequest,
    op: &str,
    items: &mut Vec<T>,
    order: impl FnMut(&T, &T) -> Ordering,
    cursor: impl Fn(&T) -> Cursor,
) -> Result<Option<Page>, ApiError> {
    items.sort_by(order);
    if let Some(after) = &req.cursor {
        if after.op() != op {
            return Err(ApiError::new(
                ErrorCode::BadCursor,
                format!("cursor is not an '{op}' cursor"),
            ));
        }
        let seen = items.partition_point(|t| cursor(t) <= *after);
        items.drain(..seen);
    }
    Ok(match req.limit {
        Some(limit) => {
            let has_more = items.len() > limit;
            items.truncate(limit);
            let cursor = items
                .last()
                .filter(|_| has_more)
                .map(|t| cursor(t).encode());
            Some(Page { cursor, has_more })
        }
        None => req.cursor.is_some().then_some(Page {
            cursor: None,
            has_more: false,
        }),
    })
}

fn db_value_to_json(v: &rasdb::types::Value) -> Json {
    use rasdb::types::Value as V;
    match v {
        V::Text(s) => Json::from(&**s),
        V::Int(n) => Json::from(*n),
        V::BigInt(n) | V::Timestamp(n) => Json::from(*n),
        V::Double(f) => Json::from(*f),
        V::Bool(b) => Json::from(*b),
        V::Blob(b) => Json::from(format!(
            "0x{}",
            b.iter().map(|x| format!("{x:02x}")).collect::<String>()
        )),
        V::List(items) => json_array(items.iter().map(db_value_to_json)),
        V::Map(m) => json_object(m.iter().map(|(k, v)| (k.clone(), db_value_to_json(v)))),
    }
}
