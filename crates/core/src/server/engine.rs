//! The query engine: JSON requests in, JSON responses out.
//!
//! "The user queries are received by the web server, translated by the
//! query engine, and either forwarded to the backend database, or the big
//! data processing unit depending on the type of a user query."
//!
//! Every op runs one skeleton: validate (one [`QueryRequest`] parse step for
//! the window, context filters, `limit` and `cursor`, then typed accessors
//! for the op's own fields), memoise (`cached`, keyed on the validated
//! parameters, where the answer is a function of stored rows), run, and
//! encode its `data` once, into the envelope [`write_envelope`] writes (see
//! [`crate::server::request`] for the wire format). The op bodies live in
//! `record_ops` (database reads; `events` and `apps` paginate with opaque
//! cursors), `analytics_ops` (the kernels) and `admin_ops`; this module
//! keeps dispatch, `cached`, and the profile, recorder and SLO plumbing.

use crate::framework::Framework;
use crate::server::recorder::{FlightRecorder, RecordedQuery};
use crate::server::request::{
    envelope_fields, write_envelope, ApiError, ErrorCode, OpOutput, QueryRequest,
};
use crate::server::slo::SloRegistry;
use jsonlite::{json_array, json_object, Value as Json};
use rasdb::cache::Stamp;
use rasdb::DecoratedKey;
use std::fmt::Debug;
use std::sync::Arc;
use std::time::Instant;
use telemetry::{Span, SpanRecord, TraceContext};

mod admin_ops;
mod analytics_ops;
mod record_ops;

/// The analytics server's query dispatcher.
pub struct QueryEngine {
    fw: Arc<Framework>,
    recorder: FlightRecorder,
    slo: SloRegistry,
    /// `server.engine.request` (tagged with the op), `cache.result.probe`.
    request_span: Span,
    probe_span: Span,
}

/// One handled request with the transport-level facts the HTTP frontend
/// needs: the envelope body, the HTTP status implied by the typed error
/// code (200 on success), and the retry hint to mirror into a
/// `Retry-After` header when present.
pub struct EngineResponse {
    /// The v2 envelope, serialized.
    pub body: String,
    /// [`ErrorCode::http_status`] of the error, or 200.
    pub status: u16,
    /// `error.retry_after_ms`, when the error carries one.
    pub retry_after_ms: Option<u64>,
}

/// The request phases reported in profiles and flight-recorder entries,
/// in pipeline order. They partition the end-to-end latency: `parse` +
/// `serialize` are measured directly, and the execute interval splits
/// into `cache_probe` / `plan` / `fan_out` / `merge` (from the request's
/// coordinator spans) with the remainder attributed to `analyze`.
const PHASES: [&str; 7] = [
    "parse",
    "cache_probe",
    "plan",
    "fan_out",
    "merge",
    "analyze",
    "serialize",
];

impl QueryEngine {
    /// Wraps a framework.
    pub fn new(fw: Arc<Framework>) -> QueryEngine {
        let telemetry = fw.telemetry();
        QueryEngine {
            recorder: FlightRecorder::new(telemetry),
            slo: SloRegistry::new(),
            request_span: telemetry.span("server.engine.request"),
            probe_span: telemetry.span("cache.result.probe"),
            fw,
        }
    }

    /// The wrapped framework.
    pub fn framework(&self) -> &Arc<Framework> {
        &self.fw
    }

    /// The slow-query flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The per-op SLO accounting behind the `health` op.
    pub fn slo(&self) -> &SloRegistry {
        &self.slo
    }

    /// Handles one JSON request string; always returns a JSON response
    /// in the v2 envelope format (`v`, `status`, `data`/`error`, `page`,
    /// `trace_id`).
    pub fn handle(&self, request: &str) -> String {
        self.handle_http(request, None).body
    }

    /// [`QueryEngine::handle`] with an optional caller-supplied trace id
    /// (e.g. from an `X-Trace-Id` header), returning the transport view:
    /// the body plus the HTTP status and retry hint the frontend maps the
    /// typed error code to (see [`ErrorCode::http_status`]). Trace id
    /// precedence: a `"trace_id"` request field wins, then `adopted`, else
    /// a fresh id is minted — so the envelope always carries one.
    /// `"profile": true` additionally collects every span of the request
    /// and returns a per-phase breakdown under `profile`. A `trace_id` or
    /// `profile` of the wrong type, or a `trace_id` that is not hex, is
    /// `BAD_REQUEST`, answered unprofiled under `adopted` or a fresh id.
    pub fn handle_http(&self, request: &str, adopted: Option<u64>) -> EngineResponse {
        let t_start = Instant::now();
        let parsed = jsonlite::parse(request)
            .map_err(|e| ApiError::new(ErrorCode::BadJson, format!("bad JSON: {e}")))
            .and_then(|body| Ok((envelope_fields(&body)?, body)));
        let parse_ns = elapsed_ns(t_start);

        let (trace, profiled) = match &parsed {
            Ok(((trace, profile), _)) => (trace.or(adopted), *profile),
            Err(_) => (adopted, false),
        };
        let ctx = match trace {
            Some(t) => TraceContext::adopt(t),
            None => TraceContext::root(),
        };
        if profiled {
            self.fw.telemetry().begin_profile(ctx.trace_id);
        }
        let engine_thread = telemetry::current_thread();

        let t_exec = Instant::now();
        let mut op = String::new();
        // Only requests that reached an op feed SLO accounting: a parse
        // failure or a typo'd op name cannot page anyone.
        let mut dispatched = false;
        let answer = {
            let mut span = self.request_span.enter_in(&ctx);
            parsed.and_then(|(_, body)| {
                let req = QueryRequest::parse(&body)?;
                op = req.op.clone();
                span.tag("op", &req.op);
                let out = self.dispatch(&req);
                dispatched = !matches!(&out, Err(e) if e.code == ErrorCode::UnknownOp);
                out
            })
            // Request span closes here so its duration (and its trace's
            // profile) covers exactly the execute interval.
        };
        let exec_ns = elapsed_ns(t_exec);
        let ok = answer.is_ok();

        let trace_id = ctx.hex();
        let t_ser = Instant::now();
        let data_len = answer.as_ref().map_or(0, |out| out.data.len());
        let mut text = String::with_capacity(data_len + 256);
        write_envelope(&mut text, answer.as_ref(), None, &trace_id);
        let serialize_ns = elapsed_ns(t_ser);
        let total_us = (parse_ns + exec_ns + serialize_ns) as f64 / 1_000.0;

        let spans = if profiled {
            self.fw.telemetry().take_profile(ctx.trace_id)
        } else {
            Vec::new()
        };
        let phases = phase_breakdown(parse_ns, exec_ns, serialize_ns, &spans, engine_thread);
        if profiled {
            // Written again with the profile in place: `data` is copied,
            // not re-encoded.
            let profile = profile_json(&ctx, total_us, &phases, &spans);
            text.clear();
            write_envelope(&mut text, answer.as_ref(), Some(&profile), &trace_id);
        }

        self.recorder.observe(RecordedQuery {
            trace_id: ctx.trace_id,
            op: op.clone(),
            status: if ok { "ok" } else { "error" },
            total_us,
            phases: phases.clone(),
            profiled,
        });
        if dispatched {
            self.slo.record(&op, ok, total_us as u64);
        }
        let error = answer.err();
        EngineResponse {
            body: text,
            status: error.as_ref().map_or(200, |e| e.code.http_status()),
            retry_after_ms: error.and_then(|e| e.retry_after_ms),
        }
    }

    /// Runs `compute` through the result cache, keyed on `op` and the
    /// op's validated parameters: `params`' derived `Debug` form, which
    /// names or places every field and escapes strings. The key never
    /// reads the raw body, so requests that produce one answer share one
    /// entry whatever their field order, whitespace or spelled-out
    /// defaults. A validated hit returns the memoized `data` bytes as they
    /// are — the entry's own stamp is what validates it, so `deps` runs
    /// only on a miss. A miss stamps the topology epoch and every
    /// dependency's data version *before* computing (so a write racing the
    /// compute can only make the stored entry stale, never silently
    /// current), then stores the result. Errors are never cached.
    fn cached(
        &self,
        op: &str,
        params: impl Debug,
        deps: impl FnOnce() -> Vec<(String, DecoratedKey)>,
        compute: impl FnOnce() -> Result<OpOutput, ApiError>,
    ) -> Result<OpOutput, ApiError> {
        let key = format!("{op} {params:?}").into_bytes();
        let cache = self.fw.result_cache();
        let cluster = self.fw.cluster();
        {
            let mut probe = self.probe_span.enter();
            if let Some(data) = cache.lookup(cluster, &key) {
                probe.tag("outcome", "hit");
                return Ok(OpOutput { data, page: None });
            }
            probe.tag("outcome", "miss");
        }
        let stamp = Stamp::take(cluster, deps());
        let out = compute()?;
        cache.store(key, Arc::clone(&out.data), stamp);
        Ok(out)
    }

    fn dispatch(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        match req.op.as_str() {
            "events" => self.op_events(req),
            "heatmap" => self.op_heatmap(req),
            "distribution" => self.op_distribution(req),
            "histogram" => self.op_histogram(req),
            "transfer_entropy" => self.op_transfer_entropy(req),
            "cross_correlation" => self.op_cross_correlation(req),
            "wordcount" => self.op_wordcount(req),
            "apps" => self.op_apps(req),
            "nodeinfo" => self.op_nodeinfo(req),
            "synopsis" => self.op_synopsis(req),
            "rules" => self.op_rules(req),
            "profile" => self.op_profile(req),
            "predict" => self.op_predict(req),
            "render" => self.op_render(req),
            "cql" => self.op_cql(req),
            "topology" => self.op_topology(req),
            "dlq" => self.op_dlq(req),
            "dlq_requeue" => self.op_dlq_requeue(req),
            "metrics" => self.op_metrics(req),
            "storage" => self.op_storage(req),
            "slow_queries" => self.op_slow_queries(req),
            "health" => self.op_health(req),
            "trace" => Ok(OpOutput::data([(
                "spans",
                crate::server::telemetry_export::trace_json(&self.fw),
            )])),
            other => Err(ApiError::new(
                ErrorCode::UnknownOp,
                format!("unknown op '{other}'"),
            )),
        }
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Splits a request's wall clock across [`PHASES`]. `parse` and
/// `serialize` come from direct timestamps; within the execute interval,
/// `cache_probe` / `plan` / `merge` are the summed durations of the
/// request's same-named spans **on the dispatch thread**, where its
/// coordinator reads run (spans of other threads, such as parallel scan
/// tasks, overlap the request's own time and would double-bill it);
/// `fan_out` is the coordinator's `read_multi` time not spent planning or
/// merging: the replica reads and the simulated replica latency the call
/// waits out. `analyze` is whatever execute time remains.
/// Without a profile (`spans` empty) the span-derived phases are 0 and
/// the whole execute interval lands in `analyze`.
fn phase_breakdown(
    parse_ns: u64,
    exec_ns: u64,
    serialize_ns: u64,
    spans: &[SpanRecord],
    engine_thread: u64,
) -> Vec<(&'static str, f64)> {
    let sum = |name: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.thread == engine_thread && s.name == name)
            .map(|s| s.duration_ns)
            .sum()
    };
    let probe = sum("cache.result.probe");
    let plan = sum("rasdb.coordinator.plan");
    let merge = sum("rasdb.coordinator.merge");
    let read_multi = sum("rasdb.coordinator.read_multi");
    let fan_out = read_multi.saturating_sub(plan).saturating_sub(merge);
    let analyze = exec_ns.saturating_sub(probe).saturating_sub(read_multi);
    let vals = [parse_ns, probe, plan, fan_out, merge, analyze, serialize_ns];
    PHASES
        .iter()
        .zip(vals)
        .map(|(name, ns)| (*name, ns as f64 / 1_000.0))
        .collect()
}

/// The `profile` envelope section for `"profile": true` requests: the
/// phase breakdown, the result-cache outcome, coordinator fan-out stats
/// (scatter/retry/hedge counts from the `read_multi` span tags), and the
/// trace's full span list (ids in the same hex form as `trace_id`).
fn profile_json(
    ctx: &TraceContext,
    total_us: f64,
    phases: &[(&'static str, f64)],
    spans: &[SpanRecord],
) -> Json {
    let mut profile = json_object([
        (
            "phases",
            json_object(
                phases
                    .iter()
                    .map(|(name, us)| (name.to_string(), Json::from(*us))),
            ),
        ),
        ("span_count", Json::from(spans.len())),
        ("total_us", Json::from(total_us)),
        ("trace_id", Json::from(ctx.hex())),
    ]);
    if let Some(probe) = spans.iter().find(|s| s.name == "cache.result.probe") {
        if let Some((_, outcome)) = probe.tags.iter().find(|(k, _)| *k == "outcome") {
            profile.insert(
                "cache",
                json_object([("result", Json::from(outcome.as_str()))]),
            );
        }
    }
    if let Some(rm) = spans
        .iter()
        .find(|s| s.name == "rasdb.coordinator.read_multi")
    {
        profile.insert(
            "fan_out",
            json_object(rm.tags.iter().map(|(k, v)| {
                let val = v
                    .parse::<i64>()
                    .map(Json::from)
                    .unwrap_or_else(|_| Json::from(v.as_str()));
                (k.to_string(), val)
            })),
        );
    }
    profile.insert(
        "spans",
        json_array(spans.iter().map(|s| {
            json_object([
                ("duration_us", Json::from(s.duration_ns as f64 / 1_000.0)),
                ("id", Json::from(telemetry::trace_hex(s.id))),
                ("name", Json::from(s.name)),
                (
                    "parent",
                    s.parent
                        .map(|p| Json::from(telemetry::trace_hex(p)))
                        .unwrap_or(Json::Null),
                ),
                (
                    "tags",
                    json_object(
                        s.tags
                            .iter()
                            .map(|(k, v)| (k.to_string(), Json::from(v.as_str()))),
                    ),
                ),
                ("thread", Json::from(s.thread)),
            ])
        })),
    );
    profile
}

mod tests;
