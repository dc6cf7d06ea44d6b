//! Typed query-protocol layer: one parse step shared by every op, a
//! uniform response envelope, machine-readable error codes, and opaque
//! pagination cursors.
//!
//! Request shape (all fields beyond `op` optional; ops validate what they
//! need):
//!
//! ```json
//! {"op": "events", "from": 0, "to": 3600000, "type": "MCE",
//!  "limit": 100, "cursor": "ev:120000:c0-0c0s1n0:MCE"}
//! ```
//!
//! Response envelope (v2):
//!
//! ```json
//! {"v": 2, "status": "ok", "data": {...},
//!  "page": {"cursor": "...", "has_more": true}}
//! {"v": 2, "status": "error",
//!  "error": {"code": "BAD_WINDOW", "message": "..."}}
//! ```
//!
//! Responses are envelope-only: clients read `data` / `error` (plus
//! `page` and `trace_id`). The pre-v1 flat mirrors and the v1-era
//! opt-in mirror flag were removed at the envelope-v2 cut, along with
//! the legacy unversioned HTTP routes (see [`crate::server::http`]).
//!
//! The envelope is also the cache boundary: analytics result-cache keys
//! derive from the parsed [`QueryRequest`] (the canonical form of a
//! request). An op's `data` object is encoded once, where
//! [`OpOutput::data`] builds it; the result cache keeps those bytes and
//! [`write_envelope`] splices them, cached or fresh, between the keys it
//! encodes around them.

use crate::context::Context;
use crate::model::keys::DAY_MS;
use jsonlite::{json_object, Value as Json};
use rasdb::error::DbError;
use std::fmt::Write as _;
use std::sync::Arc;

/// Widest accepted window: 366 days, 8,784 hour partitions. Wider is
/// `BAD_WINDOW`, before any op plans a partition for it.
pub const MAX_WINDOW_MS: i64 = 366 * DAY_MS;

/// Most bins a binned op may split its window into (more is
/// `BAD_REQUEST`); a day at one-second bins fits.
pub const MAX_BINS: i64 = 100_000;

/// Machine-readable error classification carried in `error.code`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request body was not valid JSON.
    BadJson,
    /// A required field is missing or has the wrong shape.
    BadRequest,
    /// Unknown `op`.
    UnknownOp,
    /// `to` precedes `from`, or the window is wider than
    /// [`MAX_WINDOW_MS`].
    BadWindow,
    /// `to == from`: a half-open window `[from, from)` selects nothing.
    EmptyWindow,
    /// `limit` present but not a positive integer.
    BadLimit,
    /// `cursor` present but unparseable or from another op.
    BadCursor,
    /// A named entity (node, view, ...) does not exist.
    NotFound,
    /// The HTTP method is not supported on the requested path.
    MethodNotAllowed,
    /// The request body exceeds the frontend's byte cap.
    PayloadTooLarge,
    /// The client exceeded its per-client token-bucket rate; retry after
    /// `error.retry_after_ms`.
    RateLimited,
    /// The server's global in-flight cap is saturated; retry after
    /// `error.retry_after_ms`.
    Overloaded,
    /// The storage layer could not reach enough replicas.
    Unavailable,
    /// A topology transition (join/decommission) is in flight; retry the
    /// admin op after `error.retry_after_ms`.
    TopologyChanging,
    /// Anything else (storage faults, analytics failures).
    Internal,
}

impl ErrorCode {
    /// The wire form, e.g. `"EMPTY_WINDOW"`.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "BAD_JSON",
            ErrorCode::BadRequest => "BAD_REQUEST",
            ErrorCode::UnknownOp => "UNKNOWN_OP",
            ErrorCode::BadWindow => "BAD_WINDOW",
            ErrorCode::EmptyWindow => "EMPTY_WINDOW",
            ErrorCode::BadLimit => "BAD_LIMIT",
            ErrorCode::BadCursor => "BAD_CURSOR",
            ErrorCode::NotFound => "NOT_FOUND",
            ErrorCode::MethodNotAllowed => "METHOD_NOT_ALLOWED",
            ErrorCode::PayloadTooLarge => "PAYLOAD_TOO_LARGE",
            ErrorCode::RateLimited => "RATE_LIMITED",
            ErrorCode::Overloaded => "OVERLOADED",
            ErrorCode::Unavailable => "UNAVAILABLE",
            ErrorCode::TopologyChanging => "TOPOLOGY_CHANGING",
            ErrorCode::Internal => "INTERNAL",
        }
    }

    /// The HTTP status a response carrying this code must use. This is the
    /// single source of truth for the code → status table documented in
    /// the README: client-shape errors are 400s, absent things are 404,
    /// wrong verbs are 405, oversized bodies are 413, shed load is 429
    /// (per-client) or 503 (global), transient backend states are 503, and
    /// everything else is a 500.
    pub fn http_status(self) -> u16 {
        match self {
            ErrorCode::BadJson
            | ErrorCode::BadRequest
            | ErrorCode::UnknownOp
            | ErrorCode::BadWindow
            | ErrorCode::EmptyWindow
            | ErrorCode::BadLimit
            | ErrorCode::BadCursor => 400,
            ErrorCode::NotFound => 404,
            ErrorCode::MethodNotAllowed => 405,
            ErrorCode::PayloadTooLarge => 413,
            ErrorCode::RateLimited => 429,
            ErrorCode::Overloaded | ErrorCode::Unavailable | ErrorCode::TopologyChanging => 503,
            ErrorCode::Internal => 500,
        }
    }
}

/// A typed error: code + human-readable message, plus an optional retry
/// hint for transient conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// Machine-readable classification.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// Client back-off hint, emitted as `error.retry_after_ms` when set
    /// (currently only on [`ErrorCode::TopologyChanging`]).
    pub retry_after_ms: Option<u64>,
}

impl ApiError {
    /// Builds an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ApiError {
        ApiError {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Shorthand for [`ErrorCode::BadRequest`].
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError::new(ErrorCode::BadRequest, message)
    }

    /// Attaches a retry hint, surfaced as `error.retry_after_ms`.
    pub fn with_retry_after(mut self, ms: u64) -> ApiError {
        self.retry_after_ms = Some(ms);
        self
    }
}

impl From<DbError> for ApiError {
    fn from(e: DbError) -> ApiError {
        let code = match &e {
            DbError::Unavailable { .. } | DbError::StreamAborted(_) => ErrorCode::Unavailable,
            DbError::TopologyChanging { .. } => ErrorCode::TopologyChanging,
            DbError::NoSuchTable(_)
            | DbError::BadQuery(_)
            | DbError::SchemaViolation(_)
            | DbError::Parse(_) => ErrorCode::BadRequest,
            _ => ErrorCode::Internal,
        };
        let retry = match &e {
            DbError::TopologyChanging { retry_after_ms } => Some(*retry_after_ms),
            _ => None,
        };
        let err = ApiError::new(code, e.to_string());
        match retry {
            Some(ms) => err.with_retry_after(ms),
            None => err,
        }
    }
}

/// An opaque pagination cursor. Encodes the sort key of the last item the
/// previous page returned; the next page resumes strictly after it. Cursors
/// of one op order as their items sort.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cursor {
    /// `events` pages sort by `(ts_ms, source, type)`.
    Event {
        /// Timestamp of the last emitted event.
        ts_ms: i64,
        /// Source of the last emitted event.
        source: String,
        /// Type of the last emitted event.
        event_type: String,
    },
    /// `apps` pages sort by `(start_ms, apid)`.
    App {
        /// Start time of the last emitted run.
        start_ms: i64,
        /// Apid of the last emitted run.
        apid: i64,
    },
}

impl Cursor {
    /// The op whose pages this cursor resumes.
    pub fn op(&self) -> &'static str {
        match self {
            Cursor::Event { .. } => "events",
            Cursor::App { .. } => "apps",
        }
    }

    /// The wire form handed back under `page.cursor`.
    pub fn encode(&self) -> String {
        match self {
            Cursor::Event {
                ts_ms,
                source,
                event_type,
            } => format!("ev:{ts_ms}:{source}:{event_type}"),
            Cursor::App { start_ms, apid } => format!("ap:{start_ms}:{apid}"),
        }
    }

    /// Parses a wire cursor; `None` on any malformed input.
    pub fn decode(s: &str) -> Option<Cursor> {
        let rest = s.strip_prefix("ev:").map(|r| ("ev", r));
        let rest = rest.or_else(|| s.strip_prefix("ap:").map(|r| ("ap", r)));
        match rest? {
            ("ev", r) => {
                let mut it = r.splitn(3, ':');
                let ts_ms = it.next()?.parse().ok()?;
                let source = it.next()?.to_owned();
                let event_type = it.next()?.to_owned();
                Some(Cursor::Event {
                    ts_ms,
                    source,
                    event_type,
                })
            }
            ("ap", r) => {
                let (start, apid) = r.split_once(':')?;
                Some(Cursor::App {
                    start_ms: start.parse().ok()?,
                    apid: apid.parse().ok()?,
                })
            }
            _ => None,
        }
    }
}

/// Pagination state of a response page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    /// Cursor resuming after this page, when `has_more`.
    pub cursor: Option<String>,
    /// Whether further items exist past this page.
    pub has_more: bool,
}

impl Page {
    /// The `page` envelope object.
    pub fn to_json(&self) -> Json {
        json_object([
            (
                "cursor",
                self.cursor.as_deref().map(Json::from).unwrap_or(Json::Null),
            ),
            ("has_more", Json::from(self.has_more)),
        ])
    }
}

/// The parsed common request fields. Op-specific extras (`x`, `y`,
/// `bin_ms`, `view`, ...) stay in [`QueryRequest::raw`] and are read
/// through the typed accessors.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The operation name.
    pub op: String,
    /// Half-open time window `[from, to)`, when both bounds were given.
    pub window: Option<(i64, i64)>,
    /// Event-type filter.
    pub event_type: Option<String>,
    /// Source (node cname) filter.
    pub source: Option<String>,
    /// Cabinet filter.
    pub cabinet: Option<i64>,
    /// User filter.
    pub user: Option<String>,
    /// Application-name filter.
    pub app: Option<String>,
    /// Page size, validated positive.
    pub limit: Option<usize>,
    /// Decoded pagination cursor.
    pub cursor: Option<Cursor>,
    /// The full request body, for op-specific fields.
    pub raw: Json,
}

impl QueryRequest {
    /// Parses and validates the common fields of a request body.
    pub fn parse(req: &Json) -> Result<QueryRequest, ApiError> {
        let op = req["op"]
            .as_str()
            .ok_or_else(|| ApiError::bad_request("missing 'op' field"))?
            .to_owned();

        let from = req["from"].as_i64();
        let to = req["to"].as_i64();
        let window = match (from, to) {
            (Some(from), Some(to)) => {
                if to < from {
                    return Err(ApiError::new(ErrorCode::BadWindow, "'to' before 'from'"));
                }
                if to == from {
                    return Err(ApiError::new(
                        ErrorCode::EmptyWindow,
                        "'to' equals 'from': the half-open window [from, to) is empty",
                    ));
                }
                if to.saturating_sub(from) > MAX_WINDOW_MS {
                    return Err(ApiError::new(
                        ErrorCode::BadWindow,
                        format!("the window spans more than {} days", MAX_WINDOW_MS / DAY_MS),
                    ));
                }
                Some((from, to))
            }
            _ => None,
        };

        let limit = match req.get("limit") {
            None => None,
            Some(v) => match v.as_i64() {
                Some(n) if n > 0 => Some(n as usize),
                _ => {
                    return Err(ApiError::new(
                        ErrorCode::BadLimit,
                        "'limit' must be a positive integer",
                    ))
                }
            },
        };

        let cursor = match req["cursor"].as_str() {
            None => None,
            Some(s) => Some(Cursor::decode(s).ok_or_else(|| {
                ApiError::new(ErrorCode::BadCursor, format!("unparseable cursor '{s}'"))
            })?),
        };

        Ok(QueryRequest {
            op,
            window,
            event_type: req["type"].as_str().map(str::to_owned),
            source: req["source"].as_str().map(str::to_owned),
            cabinet: req["cabinet"].as_i64(),
            user: req["user"].as_str().map(str::to_owned),
            app: req["app"].as_str().map(str::to_owned),
            limit,
            cursor,
            raw: req.clone(),
        })
    }

    /// The time window; errors when either bound is missing.
    pub fn window(&self) -> Result<(i64, i64), ApiError> {
        self.window.ok_or_else(|| {
            ApiError::bad_request("missing 'from'/'to': this op needs a time window")
        })
    }

    /// Builds an analytics [`Context`] from the window + filters.
    pub fn context(&self) -> Result<Context, ApiError> {
        let (from, to) = self.window()?;
        let mut ctx = Context::window(from, to);
        if let Some(t) = &self.event_type {
            ctx = ctx.with_type(t);
        }
        if let Some(s) = &self.source {
            ctx = ctx.with_source(s);
        }
        if let Some(c) = self.cabinet {
            ctx = ctx.with_cabinet(c as usize);
        }
        if let Some(u) = &self.user {
            ctx = ctx.with_user(u);
        }
        if let Some(a) = &self.app {
            ctx = ctx.with_app(a);
        }
        Ok(ctx)
    }

    /// A required op-specific string field.
    pub fn str_field(&self, name: &str) -> Result<&str, ApiError> {
        self.raw[name]
            .as_str()
            .ok_or_else(|| ApiError::bad_request(format!("missing '{name}'")))
    }

    /// An optional op-specific string field.
    pub fn opt_str(&self, name: &str) -> Option<&str> {
        self.raw[name].as_str()
    }

    /// A required op-specific integer field.
    pub fn i64_field(&self, name: &str) -> Result<i64, ApiError> {
        self.raw[name]
            .as_i64()
            .ok_or_else(|| ApiError::bad_request(format!("missing '{name}'")))
    }

    /// An optional op-specific integer field with a default. Unlike a
    /// silent `unwrap_or`, a field that is *present* but not an integer is
    /// a typed `BAD_REQUEST` — it would otherwise change the result while
    /// looking accepted.
    pub fn i64_or(&self, name: &str, default: i64) -> Result<i64, ApiError> {
        match self.raw.get(name) {
            None => Ok(default),
            Some(v) => v
                .as_i64()
                .ok_or_else(|| ApiError::bad_request(format!("'{name}' must be an integer"))),
        }
    }

    /// An optional op-specific *positive* integer field with a default; a
    /// present field that is zero, negative, or not an integer is a typed
    /// `BAD_REQUEST`.
    pub fn pos_i64_or(&self, name: &str, default: i64) -> Result<i64, ApiError> {
        let v = self.i64_or(name, default)?;
        if v <= 0 {
            return Err(ApiError::bad_request(format!("'{name}' must be positive")));
        }
        Ok(v)
    }

    /// `bin_ms` (default `default`) of an op that bins its window:
    /// positive, and at most [`MAX_BINS`] bins over the window.
    pub fn bin_ms_or(&self, default: i64) -> Result<i64, ApiError> {
        let bin = self.pos_i64_or("bin_ms", default)?;
        let (from, to) = self.window()?;
        if (to - from) / bin > MAX_BINS {
            return Err(ApiError::bad_request(format!(
                "'bin_ms' {bin} splits the window into more than {MAX_BINS} bins"
            )));
        }
        Ok(bin)
    }
}

/// Envelope protocol version carried as `"v"` in every response.
pub const ENVELOPE_VERSION: i64 = 2;

/// The result an op hands back to the dispatcher: its encoded `data`
/// object plus optional pagination, assembled into the envelope in one
/// place.
pub struct OpOutput {
    /// The `data` object, encoded: the bytes every response carrying this
    /// answer splices in, and the bytes the result cache keeps.
    pub data: Arc<str>,
    /// Pagination, for cursor-driven ops.
    pub page: Option<Page>,
}

impl OpOutput {
    /// Output with data fields only, encoded here as one object.
    pub fn data<const N: usize>(fields: [(&str, Json); N]) -> OpOutput {
        OpOutput {
            data: json_object(fields).to_string().into(),
            page: None,
        }
    }

    /// Attaches pagination state.
    pub fn with_page(mut self, page: Page) -> OpOutput {
        self.page = Some(page);
        self
    }
}

/// Writes the v2 envelope of `answer` into `out`, the encoded `data` spliced
/// in as is. Keys go in the order the object encoder sorts them — `data` |
/// `error`, `page`, `profile`, `status`, `trace_id`, `v` — so the bytes are
/// those of the envelope encoded as one object.
pub fn write_envelope(
    out: &mut String,
    answer: Result<&OpOutput, &ApiError>,
    profile: Option<&Json>,
    trace_id: &str,
) {
    let status = match answer {
        Ok(ok) => {
            out.push_str(r#"{"data":"#);
            out.push_str(&ok.data);
            if let Some(page) = &ok.page {
                out.push_str(r#","page":"#);
                jsonlite::write_into(out, &page.to_json());
            }
            "ok"
        }
        Err(e) => {
            let mut error = json_object([
                ("code", Json::from(e.code.as_str())),
                ("message", Json::from(e.message.as_str())),
            ]);
            if let Some(ms) = e.retry_after_ms {
                error.insert("retry_after_ms", Json::from(ms as i64));
            }
            out.push_str(r#"{"error":"#);
            jsonlite::write_into(out, &error);
            "error"
        }
    };
    if let Some(profile) = profile {
        out.push_str(r#","profile":"#);
        jsonlite::write_into(out, profile);
    }
    let _ = write!(out, r#","status":"{status}","trace_id":"#);
    jsonlite::write_into(out, &Json::from(trace_id));
    let _ = write!(out, r#","v":{ENVELOPE_VERSION}}}"#);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(body: &str) -> Result<QueryRequest, ApiError> {
        QueryRequest::parse(&jsonlite::parse(body).unwrap())
    }

    #[test]
    fn window_validation_is_typed() {
        assert!(parse(r#"{"op":"events","from":0,"to":10}"#).is_ok());
        let e = parse(r#"{"op":"events","from":10,"to":0}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadWindow);
        let e = parse(r#"{"op":"events","from":5,"to":5}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::EmptyWindow);
    }

    #[test]
    fn limit_must_be_positive() {
        assert_eq!(
            parse(r#"{"op":"events","limit":3}"#).unwrap().limit,
            Some(3)
        );
        for bad in [r#"{"op":"e","limit":0}"#, r#"{"op":"e","limit":-2}"#] {
            assert_eq!(parse(bad).unwrap_err().code, ErrorCode::BadLimit);
        }
    }

    #[test]
    fn cursors_roundtrip() {
        let ev = Cursor::Event {
            ts_ms: 120_000,
            source: "c0-0c0s1n0".into(),
            event_type: "MCE".into(),
        };
        assert_eq!(Cursor::decode(&ev.encode()), Some(ev));
        let ap = Cursor::App {
            start_ms: 7,
            apid: 42,
        };
        assert_eq!(Cursor::decode(&ap.encode()), Some(ap));
        assert_eq!(Cursor::decode("garbage"), None);
        assert_eq!(Cursor::decode("ev:notanumber:a:b"), None);
        let e = parse(r#"{"op":"events","cursor":"zzz"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadCursor);
    }

    #[test]
    fn windows_and_bins_are_bounded() {
        let widest = MAX_WINDOW_MS;
        assert!(parse(&format!(r#"{{"op":"events","from":0,"to":{widest}}}"#)).is_ok());
        for to in [widest + 1, 1 << 53] {
            let e = parse(&format!(r#"{{"op":"events","from":0,"to":{to}}}"#)).unwrap_err();
            assert_eq!(e.code, ErrorCode::BadWindow, "to {to}");
        }
        let binned = |bin: i64| {
            parse(&format!(
                r#"{{"op":"histogram","from":0,"to":{DAY_MS},"bin_ms":{bin}}}"#
            ))
            .unwrap()
            .bin_ms_or(60_000)
        };
        assert_eq!(binned(1_000).unwrap(), 1_000, "a day at one-second bins");
        let e = binned(1).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        assert!(e.message.contains("bin_ms"), "{}", e.message);
    }

    /// The envelope's bytes, parsed back.
    fn envelope(answer: Result<&OpOutput, &ApiError>) -> Json {
        let mut out = String::new();
        write_envelope(&mut out, answer, None, "00000000deadbeef");
        jsonlite::parse(&out).unwrap()
    }

    #[test]
    fn envelope_is_versioned_and_flat_free() {
        let out = OpOutput::data([("rows", Json::from(3i64))]).with_page(Page {
            cursor: Some("ev:1:a:b".into()),
            has_more: true,
        });
        let env = envelope(Ok(&out));
        assert_eq!(env["v"].as_i64(), Some(2), "the envelope-v2 cut");
        assert_eq!(env["status"].as_str(), Some("ok"));
        assert_eq!(env["data"]["rows"].as_i64(), Some(3));
        assert_eq!(env["page"]["has_more"].as_bool(), Some(true));
        assert_eq!(env["trace_id"].as_str(), Some("00000000deadbeef"));
        assert!(env["rows"].is_null(), "flat mirrors are gone since v2");
        assert!(env["deprecated"].is_null(), "so is the deprecated list");

        let err = envelope(Err(&ApiError::new(
            ErrorCode::EmptyWindow,
            "nothing to see",
        )));
        assert_eq!(err["v"].as_i64(), Some(ENVELOPE_VERSION));
        assert_eq!(err["status"].as_str(), Some("error"));
        assert_eq!(err["error"]["code"].as_str(), Some("EMPTY_WINDOW"));
        assert_eq!(err["error"]["message"].as_str(), Some("nothing to see"));
        assert!(err["message"].is_null(), "flat error mirror is gone too");
    }

    /// With every optional key present, the written envelope is byte for
    /// byte the one object the encoder would write: keys sorted, `profile`
    /// between `page` and `status`, `data` spliced in unchanged.
    #[test]
    fn envelope_keys_come_in_encoder_order() {
        let out =
            OpOutput::data([("b", Json::from("x\"y")), ("a", Json::from(1.5))]).with_page(Page {
                cursor: None,
                has_more: false,
            });
        let profile = json_object([("total_us", Json::from(2.0))]);
        let mut body = String::new();
        write_envelope(&mut body, Ok(&out), Some(&profile), "00000000deadbeef");
        assert_eq!(
            body,
            concat!(
                r#"{"data":{"a":1.5,"b":"x\"y"},"page":{"cursor":null,"has_more":false},"#,
                r#""profile":{"total_us":2},"status":"ok","trace_id":"00000000deadbeef","v":2}"#
            )
        );
        assert_eq!(jsonlite::parse(&body).unwrap().to_string(), body);

        let err = ApiError::new(ErrorCode::Overloaded, "busy").with_retry_after(100);
        body.clear();
        write_envelope(&mut body, Err(&err), Some(&profile), "00000000deadbeef");
        assert_eq!(jsonlite::parse(&body).unwrap().to_string(), body);
    }

    #[test]
    fn topology_changing_maps_to_typed_retry_envelope() {
        let api: ApiError = DbError::TopologyChanging {
            retry_after_ms: 250,
        }
        .into();
        assert_eq!(api.code, ErrorCode::TopologyChanging);
        assert_eq!(api.retry_after_ms, Some(250));
        let env = envelope(Err(&api));
        assert_eq!(env["error"]["code"].as_str(), Some("TOPOLOGY_CHANGING"));
        assert_eq!(env["error"]["retry_after_ms"].as_i64(), Some(250));
        // Non-retryable errors never carry the hint.
        let env = envelope(Err(&ApiError::bad_request("nope")));
        assert!(env["error"]["retry_after_ms"].is_null());
        // Stream aborts surface as UNAVAILABLE (the transition rolled
        // back; the client may retry the whole admin op).
        let api: ApiError = DbError::StreamAborted("x".into()).into();
        assert_eq!(api.code, ErrorCode::Unavailable);
    }

    #[test]
    fn every_error_code_maps_to_its_documented_http_status() {
        for (code, status) in [
            (ErrorCode::BadJson, 400),
            (ErrorCode::BadRequest, 400),
            (ErrorCode::UnknownOp, 400),
            (ErrorCode::BadWindow, 400),
            (ErrorCode::EmptyWindow, 400),
            (ErrorCode::BadLimit, 400),
            (ErrorCode::BadCursor, 400),
            (ErrorCode::NotFound, 404),
            (ErrorCode::MethodNotAllowed, 405),
            (ErrorCode::PayloadTooLarge, 413),
            (ErrorCode::RateLimited, 429),
            (ErrorCode::Overloaded, 503),
            (ErrorCode::Unavailable, 503),
            (ErrorCode::TopologyChanging, 503),
            (ErrorCode::Internal, 500),
        ] {
            assert_eq!(code.http_status(), status, "{}", code.as_str());
        }
    }

    #[test]
    fn optional_int_accessors_reject_wrong_shapes() {
        let req = parse(r#"{"op":"histogram","bin_ms":600,"top":"five"}"#).unwrap();
        assert_eq!(req.i64_or("bin_ms", 1).unwrap(), 600);
        assert_eq!(req.i64_or("missing", 7).unwrap(), 7);
        assert_eq!(
            req.i64_or("top", 1).unwrap_err().code,
            ErrorCode::BadRequest
        );
        assert_eq!(req.pos_i64_or("missing", 9).unwrap(), 9);
        let req = parse(r#"{"op":"histogram","bin_ms":-5}"#).unwrap();
        assert_eq!(
            req.pos_i64_or("bin_ms", 1).unwrap_err().code,
            ErrorCode::BadRequest
        );
        assert_eq!(req.i64_field("bin_ms").unwrap(), -5);
        assert_eq!(
            req.i64_field("day").unwrap_err().code,
            ErrorCode::BadRequest
        );
    }
}
