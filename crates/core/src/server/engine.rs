//! The query engine: JSON requests in, JSON responses out.
//!
//! "The user queries are received by the web server, translated by the
//! query engine, and either forwarded to the backend database, or the big
//! data processing unit depending on the type of a user query."
//!
//! Every op goes through one [`QueryRequest`] parse step (window, context
//! filters, `limit`, `cursor`) and answers in the uniform envelope written
//! by [`write_envelope`] — see [`crate::server::request`] for the wire
//! format. `events` and `apps` paginate with opaque cursors
//! backed by the coordinator's scatter-gather `read_multi`.

use crate::analytics::distribution::{distribution, GroupBy};
use crate::analytics::{correlation, heatmap, histogram, synopsis, text, transfer_entropy};
use crate::framework::Framework;
use crate::model::keys::HOUR_MS;
use crate::model::nodeinfo;
use crate::server::recorder::{FlightRecorder, RecordedQuery};
use crate::server::request::{
    write_envelope, ApiError, Cursor, ErrorCode, OpOutput, Page, QueryRequest,
};
use crate::server::slo::SloRegistry;
use jsonlite::{json_array, json_object, Value as Json};
use rasdb::cache::Stamp;
use rasdb::cluster::ExecResult;
use rasdb::types::Key;
use rasdb::DecoratedKey;
use std::cmp::Ordering;
use std::sync::Arc;
use std::time::Instant;
use telemetry::{SpanRecord, TraceContext};

/// The analytics server's query dispatcher.
pub struct QueryEngine {
    fw: Arc<Framework>,
    recorder: FlightRecorder,
    slo: SloRegistry,
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
        QueryEngine {
            fw,
            recorder: FlightRecorder::new(),
            slo: SloRegistry::new(),
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
        self.handle_traced(request, None)
    }

    /// [`QueryEngine::handle`] with an optional caller-supplied trace id
    /// (e.g. from an `X-Trace-Id` header). Precedence: a `"trace_id"`
    /// request field wins, then `adopted`, else a fresh id is minted — so
    /// the envelope always carries one. `"profile": true` additionally
    /// collects every span of the request and returns a per-phase
    /// breakdown under `profile`.
    pub fn handle_traced(&self, request: &str, adopted: Option<u64>) -> String {
        self.handle_http(request, adopted).body
    }

    /// [`QueryEngine::handle_traced`] returning the transport view: the
    /// body plus the HTTP status and retry hint the frontend maps the
    /// typed error code to (see [`ErrorCode::http_status`]).
    pub fn handle_http(&self, request: &str, adopted: Option<u64>) -> EngineResponse {
        let t_start = Instant::now();
        let parsed = jsonlite::parse(request);
        let parse_ns = elapsed_ns(t_start);

        let (trace, profiled) = match &parsed {
            Ok(body) => (
                body["trace_id"]
                    .as_str()
                    .and_then(TraceContext::parse_hex)
                    .or(adopted),
                body["profile"].as_bool() == Some(true),
            ),
            Err(_) => (adopted, false),
        };
        let ctx = match trace {
            Some(t) => TraceContext::adopt(t),
            None => TraceContext::root(),
        };
        if profiled {
            telemetry::begin_profile(ctx.trace_id);
        }
        let engine_thread = telemetry::current_thread();

        let t_exec = Instant::now();
        let mut op = String::new();
        // Only requests that reached an op feed SLO accounting: a parse
        // failure or a typo'd op name cannot page anyone.
        let mut dispatched = false;
        let answer = {
            let mut span = telemetry::SpanGuard::enter_in("server.engine.request", &ctx);
            match &parsed {
                Err(e) => Err(ApiError::new(ErrorCode::BadJson, format!("bad JSON: {e}"))),
                Ok(body) => QueryRequest::parse(body).and_then(|req| {
                    op = req.op.clone();
                    span.tag("op", &req.op);
                    let out = self.dispatch(&req);
                    dispatched = !matches!(&out, Err(e) if e.code == ErrorCode::UnknownOp);
                    out
                }),
            }
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
            telemetry::take_profile(ctx.trace_id)
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

    /// Runs `compute` through the result cache. A validated hit returns
    /// the memoized `data` bytes as they are — the entry's own stamp is
    /// what validates it, so `deps` runs only on a miss. A miss stamps
    /// the topology epoch and every dependency's data version *before*
    /// computing (so a write racing the compute can only make the stored
    /// entry stale, never silently current), then stores the result.
    /// Errors are never cached.
    fn cached(
        &self,
        key: Vec<u8>,
        deps: impl FnOnce() -> Vec<(String, DecoratedKey)>,
        compute: impl FnOnce() -> Result<OpOutput, ApiError>,
    ) -> Result<OpOutput, ApiError> {
        let cache = self.fw.result_cache();
        let cluster = self.fw.cluster();
        {
            let mut probe = telemetry::span!("cache.result.probe");
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
                crate::server::telemetry_export::trace_json(),
            )])),
            other => Err(ApiError::new(
                ErrorCode::UnknownOp,
                format!("unknown op '{other}'"),
            )),
        }
    }

    fn op_events(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
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
        Ok(OpOutput {
            page,
            ..OpOutput::data([("rows", rows)])
        })
    }

    fn op_heatmap(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let (from, to) = req.window()?;
        let t = req.str_field("type")?.to_owned();
        let key = cache_key(&["heatmap", &t, &from.to_string(), &to.to_string()]);
        let deps = || Framework::window_deps("event_by_time", Some(&t), from, to);
        self.cached(key, deps, || {
            let hm = heatmap::cabinet_heatmap(&self.fw, &t, from, to)?;
            Ok(OpOutput::data([
                ("cabinets", json_array(hm.cabinets.clone())),
                ("total", Json::from(hm.total)),
                ("hottest", Json::from(hm.hottest)),
                ("mean", Json::from(hm.mean)),
                ("stddev", Json::from(hm.stddev)),
                (
                    "outliers",
                    json_array(hm.outliers(2.0).into_iter().map(Json::from)),
                ),
            ]))
        })
    }

    fn op_distribution(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let ctx = req.context()?;
        let by = match req.opt_str("by").unwrap_or("cabinet") {
            "cabinet" => GroupBy::Cabinet,
            "blade" => GroupBy::Blade,
            "node" => GroupBy::Node,
            "application" | "app" => GroupBy::Application,
            other => return Err(ApiError::bad_request(format!("unknown grouping '{other}'"))),
        };
        // Keyed on the grouping, not its spelling (`app` and `application`
        // share one entry), and on every field of the context: their derived
        // `Debug` forms name each one, strings escaped.
        let key = cache_key(&["distribution", &format!("{by:?} {ctx:?}")]);
        let deps = || {
            let mut deps = ctx.deps();
            if by == GroupBy::Application {
                // Attribution joins runs started up to a day earlier, too.
                deps.extend(Framework::window_deps(
                    "application_by_time",
                    None,
                    ctx.from_ms.saturating_sub(24 * HOUR_MS),
                    ctx.to_ms,
                ));
            }
            deps
        };
        self.cached(key, deps, || {
            let d = distribution(&self.fw, &ctx, by)?;
            let entry =
                |(l, c): &(String, f64)| json_array([Json::from(l.as_str()), Json::from(*c)]);
            let entries = json_array(d.entries.iter().map(entry));
            Ok(OpOutput::data([
                ("entries", entries),
                ("unattributed", Json::from(d.unattributed)),
            ]))
        })
    }

    fn op_histogram(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let (from, to) = req.window()?;
        let t = req.str_field("type")?.to_owned();
        let bin = req.bin_ms_or(3_600_000)?;
        let key = cache_key(&[
            "histogram",
            &t,
            &from.to_string(),
            &to.to_string(),
            &bin.to_string(),
        ]);
        let deps = || Framework::window_deps("event_by_time", Some(&t), from, to);
        self.cached(key, deps, || {
            let h = histogram::event_histogram(&self.fw, &t, from, to, bin)?;
            Ok(OpOutput::data([
                ("from", Json::from(h.from_ms)),
                ("bin_ms", Json::from(h.bin_ms)),
                ("bins", json_array(h.bins.clone())),
            ]))
        })
    }

    fn op_transfer_entropy(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let (from, to) = req.window()?;
        let x = req.str_field("x")?.to_owned();
        let y = req.str_field("y")?.to_owned();
        let bin = req.bin_ms_or(60_000)?;
        let max_lag = req.pos_i64_or("max_lag", 10)? as usize;
        let key = cache_key(&[
            "transfer_entropy",
            &x,
            &y,
            &from.to_string(),
            &to.to_string(),
            &bin.to_string(),
            &max_lag.to_string(),
        ]);
        let deps = || {
            let mut deps = Framework::window_deps("event_by_time", Some(&x), from, to);
            deps.extend(Framework::window_deps("event_by_time", Some(&y), from, to));
            deps
        };
        self.cached(key, deps, || {
            let sweep = transfer_entropy::te_lag_sweep(&self.fw, &x, &y, from, to, bin, max_lag)?;
            Ok(OpOutput::data([(
                "lags",
                json_array(sweep.iter().map(|(lag, te)| {
                    json_object([
                        ("lag", Json::from(*lag)),
                        ("x_to_y", Json::from(te.x_to_y)),
                        ("y_to_x", Json::from(te.y_to_x)),
                    ])
                })),
            )]))
        })
    }

    fn op_cross_correlation(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let (from, to) = req.window()?;
        let a = req.str_field("x")?.to_owned();
        let b = req.str_field("y")?.to_owned();
        let bin = req.bin_ms_or(60_000)?;
        let max_lag = req.i64_or("max_lag", 10)?;
        if max_lag < 0 {
            return Err(ApiError::bad_request("'max_lag' must be non-negative"));
        }
        let max_lag = max_lag as usize;
        let key = cache_key(&[
            "cross_correlation",
            &a,
            &b,
            &from.to_string(),
            &to.to_string(),
            &bin.to_string(),
            &max_lag.to_string(),
        ]);
        let deps = || {
            let mut deps = Framework::window_deps("event_by_time", Some(&a), from, to);
            deps.extend(Framework::window_deps("event_by_time", Some(&b), from, to));
            deps
        };
        self.cached(key, deps, || {
            let xc =
                correlation::event_cross_correlation(&self.fw, &a, &b, from, to, bin, max_lag)?;
            Ok(OpOutput::data([(
                "correlations",
                json_array(
                    xc.iter()
                        .map(|(lag, r)| json_array([Json::from(*lag), Json::from(*r)])),
                ),
            )]))
        })
    }

    fn op_wordcount(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let (from, to) = req.window()?;
        let t = req.event_type.as_deref().unwrap_or("LUSTRE_ERR").to_owned();
        let k = req.pos_i64_or("top", 20)? as usize;
        let key = cache_key(&[
            "wordcount",
            &t,
            &from.to_string(),
            &to.to_string(),
            &k.to_string(),
        ]);
        let deps = || Framework::window_deps("event_by_time", Some(&t), from, to);
        self.cached(key, deps, || {
            let counts = text::word_count_events(&self.fw, &t, from, to)?;
            let top = text::top_k(&counts, k);
            Ok(OpOutput::data([(
                "terms",
                json_array(
                    top.iter()
                        .map(|(w, c)| json_array([Json::from(w.as_str()), Json::from(*c)])),
                ),
            )]))
        })
    }

    fn op_apps(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
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
        Ok(OpOutput {
            page,
            ..OpOutput::data([("runs", rows)])
        })
    }

    fn op_nodeinfo(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
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

    /// Topology admin and status. `action` defaults to `"status"`; `"join"`
    /// adds a new node and streams its ranges in, `"decommission"` drains
    /// the named node's ranges and retires it. A concurrent transition
    /// surfaces as `TOPOLOGY_CHANGING` with a retry hint.
    fn op_topology(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let cluster = self.fw.cluster();
        match req.opt_str("action").unwrap_or("status") {
            "status" => {
                let s = cluster.topology_status();
                Ok(OpOutput::data([
                    ("epoch", Json::from(s.epoch as i64)),
                    (
                        "replication_factor",
                        Json::from(s.replication_factor as i64),
                    ),
                    ("state", Json::from(s.state.as_str())),
                    (
                        "members",
                        json_array(s.members.iter().map(|m| {
                            json_object([
                                ("id", Json::from(m.id.0 as i64)),
                                ("up", Json::from(m.up)),
                                ("in_ring", Json::from(m.in_ring)),
                            ])
                        })),
                    ),
                ]))
            }
            "join" => {
                let report = cluster.join_node()?;
                Ok(transition_json(&report))
            }
            "decommission" => {
                let id = req.i64_field("node")?;
                if id < 0 {
                    return Err(ApiError::bad_request("'node' must be non-negative"));
                }
                let report = cluster.decommission_node(rasdb::ring::NodeId(id as usize))?;
                Ok(transition_json(&report))
            }
            other => Err(ApiError::bad_request(format!(
                "unknown topology action '{other}'"
            ))),
        }
    }

    fn op_synopsis(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let day = req.i64_field("day")?;
        let key = cache_key(&["synopsis", &day.to_string()]);
        let deps = || {
            let day = Key::from(vec![rasdb::types::Value::BigInt(day)]);
            vec![("eventsynopsis".to_owned(), DecoratedKey::new(day))]
        };
        self.cached(key, deps, || {
            let rows = synopsis::read_synopsis(&self.fw, day)?;
            Ok(OpOutput::data([(
                "rows",
                json_array(rows.iter().map(|r| {
                    json_object([
                        ("hour", Json::from(r.hour)),
                        ("type", Json::from(r.event_type.as_str())),
                        ("events", Json::from(r.events)),
                        ("nodes", Json::from(r.nodes)),
                    ])
                })),
            )]))
        })
    }

    fn op_rules(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        use crate::analytics::composite::{mine_from_store, Scope};
        let (from, to) = req.window()?;
        let window_ms = req.pos_i64_or("window_ms", 60_000)?;
        let min_support = req.pos_i64_or("min_support", 3)? as u64;
        let scope = match req.opt_str("scope").unwrap_or("node") {
            "node" => Scope::Node,
            "cabinet" => Scope::Cabinet,
            "system" => Scope::System,
            other => return Err(ApiError::bad_request(format!("unknown scope '{other}'"))),
        };
        let rules = mine_from_store(&self.fw, from, to, window_ms, scope, min_support)?;
        Ok(OpOutput::data([(
            "rules",
            json_array(rules.iter().take(50).map(|r| {
                json_object([
                    ("antecedent", Json::from(r.antecedent.as_str())),
                    ("consequent", Json::from(r.consequent.as_str())),
                    ("support", Json::from(r.support)),
                    ("confidence", Json::from(r.confidence)),
                    ("lift", Json::from(r.lift)),
                ])
            })),
        )]))
    }

    fn op_profile(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        use crate::analytics::profiles::application_profile;
        let app = req
            .app
            .as_deref()
            .ok_or_else(|| ApiError::bad_request("missing 'app'"))?;
        let p = application_profile(&self.fw, app)?;
        Ok(OpOutput::data([
            ("app", Json::from(p.app.as_str())),
            ("runs", Json::from(p.runs)),
            ("node_hours", Json::from(p.node_hours)),
            (
                "rates",
                json_object(p.rates.iter().map(|(t, r)| (t.clone(), Json::from(*r)))),
            ),
        ]))
    }

    fn op_predict(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        use crate::analytics::prediction::{train_and_evaluate, PredictorConfig};
        let (from, to) = req.window()?;
        let target = req.str_field("target")?;
        let cfg = PredictorConfig {
            bin_ms: req.bin_ms_or(60_000)?,
            lead_bins: req.pos_i64_or("lead_bins", 5)? as usize,
            horizon_bins: req.pos_i64_or("horizon_bins", 5)? as usize,
        };
        let (predictor, metrics) = train_and_evaluate(&self.fw, target, from, to, cfg, 0.7)?;
        Ok(OpOutput::data([
            ("target", Json::from(target)),
            ("precision", Json::from(metrics.precision)),
            ("recall", Json::from(metrics.recall)),
            ("alarms", Json::from(metrics.alarms)),
            ("failures", Json::from(metrics.failures)),
            (
                "weights",
                json_object(
                    predictor
                        .weights
                        .iter()
                        .map(|(t, w)| (t.clone(), Json::from(*w))),
                ),
            ),
        ]))
    }

    /// Server-side rendering: the named view as an SVG document.
    fn op_render(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        use crate::server::views;
        let (from, to) = req.window()?;
        let view = req.str_field("view")?;
        let etype = req.event_type.as_deref().unwrap_or("LUSTRE_ERR");
        let svg = match view {
            "heatmap" => views::heatmap_svg(&self.fw, etype, from, to),
            "node_heatmap" => views::node_heatmap_svg(&self.fw, etype, from, to),
            "histogram" => {
                views::histogram_svg(&self.fw, etype, from, to, req.bin_ms_or(3_600_000)?)
            }
            "te" => views::te_plot_svg(
                &self.fw,
                req.str_field("x")?,
                req.str_field("y")?,
                from,
                to,
                req.bin_ms_or(60_000)?,
                req.pos_i64_or("max_lag", 10)? as usize,
            ),
            "bubbles" => views::word_bubbles_svg(
                &self.fw,
                etype,
                from,
                to,
                req.pos_i64_or("top", 15)? as usize,
            ),
            other => {
                return Err(ApiError::new(
                    ErrorCode::NotFound,
                    format!("unknown view '{other}'"),
                ))
            }
        }?;
        Ok(OpOutput::data([
            ("view", Json::from(view)),
            ("svg", Json::from(svg)),
        ]))
    }

    /// Inspects the ingestion dead-letter queue: current depth plus up to
    /// `max` entries (default 20), without consuming anything.
    fn op_dlq(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        use crate::etl::stream::{dlq_depth, dlq_peek};
        let max = req.pos_i64_or("max", 20)? as usize;
        let depth = dlq_depth(&self.fw).map_err(bus_err)?;
        let entries = dlq_peek(&self.fw, max).map_err(bus_err)?;
        Ok(OpOutput::data([
            ("depth", Json::from(depth as i64)),
            (
                "entries",
                json_array(entries.iter().map(|r| {
                    json_object([
                        ("partition", Json::from(r.partition as i64)),
                        ("offset", Json::from(r.offset as i64)),
                        (
                            "key",
                            match &r.key {
                                Some(k) => Json::from(k.as_str()),
                                None => Json::Null,
                            },
                        ),
                        ("value", Json::from(r.value.as_str())),
                    ])
                })),
            ),
        ]))
    }

    /// Replays up to `max` dead-letter entries (default 100): serialized
    /// events re-insert into the event tables, raw lines republish to the
    /// ingest topic. Entries that fail to replay stay queued.
    fn op_dlq_requeue(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        use crate::etl::stream::dlq_requeue;
        let max = req.pos_i64_or("max", 100)? as usize;
        let r = dlq_requeue(&self.fw, max)?;
        Ok(OpOutput::data([
            ("events_reinserted", Json::from(r.events_reinserted as i64)),
            ("lines_republished", Json::from(r.lines_republished as i64)),
            ("poison_dropped", Json::from(r.poison_dropped as i64)),
            ("remaining", Json::from(r.remaining as i64)),
        ]))
    }

    /// The global telemetry registry: counters, gauges, and latency
    /// histograms. Pass `"reset": true` to zero everything after reading.
    fn op_metrics(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let snap = crate::server::telemetry_export::metrics_json();
        let out = OpOutput::data([
            ("enabled", Json::from(telemetry::enabled())),
            ("counters", snap["counters"].clone()),
            ("gauges", snap["gauges"].clone()),
            ("histograms", snap["histograms"].clone()),
        ]);
        if req.raw["reset"].as_bool() == Some(true) {
            telemetry::global().reset();
        }
        Ok(out)
    }

    /// Columnar analytics storage stats: blocks built/resident/evicted,
    /// byte residency against the budget, dictionary compression, and
    /// zone-map skip counts. Never cached — it *is* the cache readout.
    fn op_storage(&self, _req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let s = self.fw.columnar().stats();
        Ok(OpOutput::data([
            ("blocks_built", Json::from(s.blocks_built as i64)),
            ("blocks_evicted", Json::from(s.blocks_evicted as i64)),
            ("blocks_resident", Json::from(s.blocks_resident as i64)),
            ("bytes_budget", Json::from(s.bytes_budget as i64)),
            ("bytes_resident", Json::from(s.bytes_resident as i64)),
            ("dict_compression", Json::from(s.dict_compression())),
            (
                "dict_encoded_bytes",
                Json::from(s.dict_encoded_bytes as i64),
            ),
            ("dict_raw_bytes", Json::from(s.dict_raw_bytes as i64)),
            ("hits", Json::from(s.hits as i64)),
            ("invalidations", Json::from(s.invalidations as i64)),
            ("misses", Json::from(s.misses as i64)),
            ("zone_skips", Json::from(s.zone_skips as i64)),
        ]))
    }

    /// Flight-recorder readout: the most recent slow queries, newest
    /// first. An optional `threshold_ms` field re-arms the recorder (0
    /// captures every request); `max` caps the returned rows (default 32).
    fn op_slow_queries(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        if !req.raw["threshold_ms"].is_null() {
            let Some(ms) = req.raw["threshold_ms"].as_i64().filter(|ms| *ms >= 0) else {
                return Err(ApiError::bad_request(
                    "threshold_ms must be a non-negative integer".to_owned(),
                ));
            };
            self.recorder.set_threshold_ms(ms as u64);
        }
        let max = match req.raw["max"].as_i64() {
            None => 32,
            Some(n) if n >= 1 => n as usize,
            Some(_) => {
                return Err(ApiError::bad_request(
                    "max must be a positive integer".to_owned(),
                ))
            }
        };
        let mut queries = self.recorder.snapshot();
        queries.truncate(max);
        Ok(OpOutput::data([
            ("count", Json::from(queries.len())),
            (
                "queries",
                json_array(queries.iter().map(|q| {
                    json_object([
                        ("op", Json::from(q.op.as_str())),
                        (
                            "phases",
                            json_object(
                                q.phases
                                    .iter()
                                    .map(|(name, us)| (name.to_string(), Json::from(*us))),
                            ),
                        ),
                        ("profiled", Json::from(q.profiled)),
                        ("status", Json::from(q.status)),
                        ("total_us", Json::from(q.total_us)),
                        ("trace_id", Json::from(telemetry::trace_hex(q.trace_id))),
                    ])
                })),
            ),
            (
                "threshold_ms",
                Json::from(self.recorder.threshold_ms() as i64),
            ),
        ]))
    }

    /// Per-op SLO health rows plus the overall status (the worst row).
    fn op_health(&self, _req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let (status, rows) = self.slo.health();
        Ok(OpOutput::data([
            (
                "ops",
                json_array(rows.iter().map(|h| {
                    json_object([
                        ("burn_rate", Json::from(h.burn_rate)),
                        ("good", Json::from(h.good as i64)),
                        ("latency_ms", Json::from(h.policy.latency_ms as i64)),
                        ("objective", Json::from(h.policy.objective)),
                        ("op", Json::from(h.op.as_str())),
                        ("status", Json::from(h.status)),
                        ("total", Json::from(h.total as i64)),
                    ])
                })),
            ),
            // `overall`, not `status`: the envelope already owns that
            // name.
            ("overall", Json::from(status)),
            (
                "window_ms",
                Json::from((crate::server::slo::WINDOW_SECS * 1_000) as i64),
            ),
        ]))
    }

    /// Simple queries go "directly handled by the query engine" — raw CQL
    /// pass-through to the backend.
    fn op_cql(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
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

/// Canonical result-cache key: the op name plus every validated request
/// field that can change the answer, joined with an unprintable separator
/// (so `("a", "b\x1fc")` and `("a\x1fb", "c")` cannot collide on any
/// realistic field value). Keys are built *after* validation, from the
/// typed [`QueryRequest`] fields — never from the raw body — so requests
/// that produce identical answers share one entry regardless of field
/// order or whitespace.
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

fn cache_key(parts: &[&str]) -> Vec<u8> {
    parts.join("\x1f").into_bytes()
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

/// Shared shape for committed join/decommission reports.
fn transition_json(r: &rasdb::TransitionReport) -> OpOutput {
    OpOutput::data([
        ("action", Json::from(r.kind.as_str())),
        ("node", Json::from(r.node.0 as i64)),
        ("epoch", Json::from(r.epoch as i64)),
        (
            "partitions_streamed",
            Json::from(r.partitions_streamed as i64),
        ),
        ("rows_streamed", Json::from(r.rows_streamed as i64)),
        ("chunks_streamed", Json::from(r.chunks_streamed as i64)),
        ("chunk_retries", Json::from(r.chunk_retries as i64)),
        ("stream_resumes", Json::from(r.stream_resumes as i64)),
        ("hints_rerouted", Json::from(r.hints_rerouted as i64)),
    ])
}

fn bus_err(e: logbus::BusError) -> ApiError {
    ApiError::new(ErrorCode::Internal, format!("bus error: {e}"))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytics::distribution::distribution_of;
    use crate::framework::FrameworkConfig;
    use crate::model::apprun::AppRun;
    use crate::model::event::EventRecord;
    use crate::model::keys::HOUR_MS;
    use loggen::topology::Topology;

    fn engine() -> QueryEngine {
        let fw = Framework::new(FrameworkConfig {
            db_nodes: 3,
            replication_factor: 2,
            vnodes: 8,
            topology: Topology::scaled(2, 2),
            ..Default::default()
        })
        .unwrap();
        for i in 0..10i64 {
            fw.insert_event(&EventRecord {
                ts_ms: i * 60_000,
                event_type: "MCE".into(),
                source: format!("c0-0c0s{}n0", i % 4).into(),
                amount: 1,
                raw: format!("Machine Check Exception: bank {i}").into(),
            })
            .unwrap();
        }
        QueryEngine::new(Arc::new(fw))
    }

    fn call(e: &QueryEngine, req: &str) -> Json {
        let resp = e.handle(req);
        jsonlite::parse(&resp).expect("valid response JSON")
    }

    #[test]
    fn events_roundtrip_through_json() {
        let e = engine();
        let resp = call(&e, r#"{"op":"events","type":"MCE","from":0,"to":3600000}"#);
        assert_eq!(resp["v"].as_i64(), Some(2), "the envelope-v2 cut");
        assert_eq!(resp["status"].as_str(), Some("ok"));
        assert_eq!(resp["data"]["rows"].as_array().unwrap().len(), 10);
        assert_eq!(resp["data"]["rows"][0]["type"].as_str(), Some("MCE"));
        assert!(resp["data"]["rows"][0]["raw"]
            .as_str()
            .unwrap()
            .contains("bank"));
        assert!(resp["rows"].is_null(), "flat mirrors are gone since v2");
        assert!(resp["deprecated"].is_null(), "so is the deprecated list");
    }

    #[test]
    fn events_paginate_to_exhaustion() {
        let e = engine();
        let mut seen = Vec::new();
        let mut cursor: Option<String> = None;
        let mut pages = 0;
        loop {
            let req = match &cursor {
                None => {
                    r#"{"op":"events","type":"MCE","from":0,"to":3600000,"limit":3}"#.to_owned()
                }
                Some(c) => format!(
                    r#"{{"op":"events","type":"MCE","from":0,"to":3600000,"limit":3,"cursor":"{c}"}}"#
                ),
            };
            let resp = call(&e, &req);
            assert_eq!(resp["status"].as_str(), Some("ok"), "{req}");
            let rows = resp["data"]["rows"].as_array().unwrap();
            assert!(rows.len() <= 3);
            seen.extend(rows.iter().map(|r| r["ts"].as_i64().unwrap()));
            pages += 1;
            if resp["page"]["has_more"].as_bool() == Some(true) {
                cursor = Some(resp["page"]["cursor"].as_str().unwrap().to_owned());
            } else {
                break;
            }
        }
        assert_eq!(pages, 4, "10 events at limit 3");
        assert_eq!(seen.len(), 10);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "no duplicates or gaps across pages");
    }

    #[test]
    fn apps_paginate_with_cursor() {
        let e = engine();
        for apid in 0..7i64 {
            e.framework()
                .insert_app_run(&AppRun {
                    apid,
                    user: "usr0001".into(),
                    app: "VASP".into(),
                    start_ms: apid * 1000,
                    end_ms: HOUR_MS,
                    node_first: 0,
                    node_last: 3,
                    exit_code: 0,
                    other_info: Default::default(),
                })
                .unwrap();
        }
        let resp = call(&e, r#"{"op":"apps","from":0,"to":3600000,"limit":4}"#);
        assert_eq!(resp["data"]["runs"].as_array().unwrap().len(), 4);
        assert_eq!(resp["page"]["has_more"].as_bool(), Some(true));
        let cursor = resp["page"]["cursor"].as_str().unwrap().to_owned();
        let resp = call(
            &e,
            &format!(r#"{{"op":"apps","from":0,"to":3600000,"limit":4,"cursor":"{cursor}"}}"#),
        );
        assert_eq!(resp["data"]["runs"].as_array().unwrap().len(), 3);
        assert_eq!(resp["page"]["has_more"].as_bool(), Some(false));
        assert!(resp["page"]["cursor"].is_null());
    }

    #[test]
    fn typed_error_codes_on_bad_requests() {
        let e = engine();
        for (req, code) in [
            ("not json at all", "BAD_JSON"),
            (r#"{"no_op":1}"#, "BAD_REQUEST"),
            (r#"{"op":"zap"}"#, "UNKNOWN_OP"),
            (r#"{"op":"events","from":100,"to":0}"#, "BAD_WINDOW"),
            (r#"{"op":"events","from":100,"to":100}"#, "EMPTY_WINDOW"),
            (r#"{"op":"events","from":0,"to":1,"limit":0}"#, "BAD_LIMIT"),
            (
                r#"{"op":"events","from":0,"to":1,"cursor":"junk"}"#,
                "BAD_CURSOR",
            ),
            (
                r#"{"op":"events","from":0,"to":1,"cursor":"ap:1:2"}"#,
                "BAD_CURSOR",
            ),
            (r#"{"op":"nodeinfo","cname":"c9-9c9s9n9"}"#, "NOT_FOUND"),
        ] {
            let resp = call(&e, req);
            assert_eq!(resp["status"].as_str(), Some("error"), "{req}");
            assert_eq!(resp["error"]["code"].as_str(), Some(code), "{req}");
            assert!(!resp["error"]["message"].as_str().unwrap().is_empty());
            assert!(resp["message"].is_null(), "flat error mirror gone in v2");
        }
    }

    #[test]
    fn only_dispatched_ops_feed_slo_accounting() {
        let e = engine();
        for req in ["not json at all", r#"{"no_op":1}"#, r#"{"op":"nope"}"#] {
            call(&e, req);
            assert!(e.slo().health().1.is_empty(), "{req}");
        }
        call(&e, r#"{"op":"metrics"}"#);
        let (_, rows) = e.slo().health();
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].op.as_str(), rows[0].total), ("metrics", 1));
    }

    #[test]
    fn heatmap_and_histogram_ops() {
        let e = engine();
        let resp = call(&e, r#"{"op":"heatmap","type":"MCE","from":0,"to":3600000}"#);
        assert_eq!(resp["status"].as_str(), Some("ok"));
        assert_eq!(resp["data"]["cabinets"].as_array().unwrap().len(), 4);
        assert_eq!(resp["data"]["total"].as_f64(), Some(10.0));

        let resp = call(
            &e,
            r#"{"op":"histogram","type":"MCE","from":0,"to":3600000,"bin_ms":600000}"#,
        );
        assert_eq!(resp["data"]["bins"].as_array().unwrap().len(), 6);
    }

    #[test]
    fn distribution_op_groups() {
        let e = engine();
        let resp = call(
            &e,
            r#"{"op":"distribution","type":"MCE","from":0,"to":3600000,"by":"node"}"#,
        );
        assert_eq!(resp["status"].as_str(), Some("ok"));
        assert_eq!(resp["data"]["entries"].as_array().unwrap().len(), 4);
    }

    /// The two spellings of the application grouping name one answer, so
    /// they share one result-cache entry.
    #[test]
    fn distribution_cache_key_is_the_grouping_not_its_spelling() {
        let e = engine();
        let cache = e.framework().result_cache();
        let req = |by: &str| {
            format!(r#"{{"op":"distribution","type":"MCE","from":0,"to":3600000,"by":"{by}"}}"#)
        };
        let first = call(&e, &req("app"));
        let (entries, hits) = (cache.len(), cache.stats().hits());
        let second = call(&e, &req("application"));
        assert_eq!(cache.stats().hits(), hits + 1, "the other spelling hits");
        assert_eq!(cache.len(), entries, "and stores nothing new");
        assert_eq!(second["data"], first["data"]);
    }

    /// `distribution` answers from column blocks what the row path answers,
    /// the still-filling hour included, and memoises the answer with the
    /// hours it read. Filtered contexts are held to their row-side
    /// reference in `tests/filtered_distribution.rs`.
    #[test]
    fn distribution_on_column_blocks_is_the_row_path_byte_for_byte() {
        let fw = Framework::new(FrameworkConfig {
            db_nodes: 3,
            replication_factor: 2,
            vnodes: 8,
            topology: Topology::scaled(2, 2),
            ..Default::default()
        })
        .unwrap();
        let event = |ts_ms: i64, source: String, amount: i32| EventRecord {
            ts_ms,
            event_type: "LUSTRE_ERR".into(),
            source: source.into(),
            amount,
            raw: "LustreError: 11-0: an error".into(),
        };
        // Three hours of events over both cabinets, and in each hour one
        // from a source that is no compute node.
        for h in 0..3i64 {
            for i in 0..12i64 {
                let node = fw.topology().node((i * 17 % 192) as usize).cname;
                fw.insert_event(&event(
                    h * HOUR_MS + i * 4 * 60_000,
                    node,
                    1 + (i % 3) as i32,
                ))
                .unwrap();
            }
            fw.insert_event(&event(h * HOUR_MS + 7, "mds01".into(), 5))
                .unwrap();
        }
        fw.insert_app_run(&AppRun {
            apid: 1,
            user: "usr1".into(),
            app: "VASP".into(),
            start_ms: 0,
            end_ms: 2 * HOUR_MS + 30 * 60_000,
            node_first: 0,
            node_last: 95,
            exit_code: 0,
            other_info: Default::default(),
        })
        .unwrap();
        // The stream has committed through hour 1; hour 2 is still open.
        fw.note_ingest_commit(2 * HOUR_MS);
        let e = QueryEngine::new(Arc::new(fw));
        let fw = &e.fw;
        let (from, to) = (30 * 60_000, 3 * HOUR_MS);

        let data = |resp: String| {
            let resp = jsonlite::parse(&resp).expect("valid response JSON");
            assert_eq!(resp["status"].as_str(), Some("ok"), "{resp}");
            resp["data"].to_string()
        };
        let row_path = |by: GroupBy| {
            let rows = fw.events_by_type("LUSTRE_ERR", from, to).unwrap();
            let d = distribution_of(fw, &rows, by).unwrap();
            let entries = d
                .entries
                .iter()
                .map(|(l, c)| json_array([Json::from(l.as_str()), Json::from(*c)]));
            json_object([
                ("entries".to_owned(), json_array(entries)),
                ("unattributed".to_owned(), Json::from(d.unattributed)),
            ])
            .to_string()
        };

        for (name, by) in [
            ("cabinet", GroupBy::Cabinet),
            ("blade", GroupBy::Blade),
            ("node", GroupBy::Node),
            ("application", GroupBy::Application),
        ] {
            let req = format!(
                r#"{{"op":"distribution","type":"LUSTRE_ERR","from":{from},"to":{to},"by":"{name}"}}"#
            );
            let (entries, hits) = (fw.result_cache().len(), fw.result_cache().stats().hits());
            let uncached = data(e.handle(&req));
            assert_eq!(uncached, row_path(by), "by {name}");
            assert!(!uncached.contains(r#""unattributed":0"#), "{uncached}");
            assert_eq!(fw.result_cache().len(), entries + 1, "by {name}: memoised");
            assert_eq!(data(e.handle(&req)), uncached, "by {name}: cached");
            assert_eq!(fw.result_cache().stats().hits(), hits + 1);
        }
        let blocks = fw.columnar().stats();
        assert_eq!(blocks.blocks_built, 3, "one per hour, the open one too");

        // A write into the open hour makes the memoised answer stale.
        let req = format!(
            r#"{{"op":"distribution","type":"LUSTRE_ERR","from":{from},"to":{to},"by":"cabinet"}}"#
        );
        let before = data(e.handle(&req));
        fw.insert_event(&event(2 * HOUR_MS + 50 * 60_000, "c1-0c0s0n0".into(), 9))
            .unwrap();
        fw.note_ingest_commit(2 * HOUR_MS + 50 * 60_000);
        let after = data(e.handle(&req));
        assert_ne!(after, before);
        assert_eq!(after, row_path(GroupBy::Cabinet));
    }

    #[test]
    fn te_and_correlation_ops_return_curves() {
        let e = engine();
        let resp = call(
            &e,
            r#"{"op":"transfer_entropy","x":"MCE","y":"GPU_DBE","from":0,"to":3600000,"bin_ms":60000,"max_lag":5}"#,
        );
        assert_eq!(resp["data"]["lags"].as_array().unwrap().len(), 5);
        let resp = call(
            &e,
            r#"{"op":"cross_correlation","x":"MCE","y":"GPU_DBE","from":0,"to":3600000,"bin_ms":60000,"max_lag":3}"#,
        );
        assert_eq!(resp["data"]["correlations"].as_array().unwrap().len(), 7);
    }

    #[test]
    fn wordcount_op_counts_terms() {
        let e = engine();
        let resp = call(
            &e,
            r#"{"op":"wordcount","type":"MCE","from":0,"to":3600000,"top":5}"#,
        );
        let terms = resp["data"]["terms"].as_array().unwrap();
        assert!(!terms.is_empty());
        // "Machine" appears in every raw message.
        assert!(terms.iter().any(|t| t[0].as_str() == Some("Machine")));
    }

    #[test]
    fn nodeinfo_and_cql_ops() {
        let e = engine();
        let resp = call(&e, r#"{"op":"nodeinfo","cname":"c1-1c2s7n3"}"#);
        assert_eq!(resp["status"].as_str(), Some("ok"));
        assert_eq!(resp["data"]["row"].as_i64(), Some(1));

        let resp = call(
            &e,
            r#"{"op":"cql","q":"SELECT * FROM event_by_time WHERE hour = 0 AND type = 'MCE' LIMIT 3"}"#,
        );
        assert_eq!(resp["status"].as_str(), Some("ok"));
        assert_eq!(resp["data"]["rows"].as_array().unwrap().len(), 3);
    }

    #[test]
    fn rules_profile_predict_ops() {
        let e = engine();
        // Seed a causal pair so `rules` finds something.
        for i in 0..20i64 {
            for (t, at) in [
                ("NET_LINK", i * 120_000),
                ("LUSTRE_ERR", i * 120_000 + 5_000),
            ] {
                e.framework()
                    .insert_event(&EventRecord {
                        ts_ms: at,
                        event_type: t.into(),
                        source: "c0-0c0s0n0".into(),
                        amount: 1,
                        raw: "".into(),
                    })
                    .unwrap();
            }
        }
        let resp = call(
            &e,
            r#"{"op":"rules","from":0,"to":3600000,"window_ms":10000,"scope":"node","min_support":5}"#,
        );
        assert_eq!(resp["status"].as_str(), Some("ok"));
        let rules = resp["data"]["rules"].as_array().unwrap();
        assert!(rules
            .iter()
            .any(|r| r["antecedent"].as_str() == Some("NET_LINK")
                && r["consequent"].as_str() == Some("LUSTRE_ERR")));

        let resp = call(&e, r#"{"op":"profile","app":"VASP"}"#);
        assert_eq!(resp["status"].as_str(), Some("ok"));
        assert_eq!(resp["data"]["runs"].as_i64(), Some(0));

        let resp = call(
            &e,
            r#"{"op":"predict","target":"LUSTRE_ERR","from":0,"to":3600000,"bin_ms":60000}"#,
        );
        assert_eq!(resp["status"].as_str(), Some("ok"));
        assert!(resp["data"]["weights"].as_object().is_some());
    }

    #[test]
    fn render_op_returns_svg() {
        let e = engine();
        let resp = call(
            &e,
            r#"{"op":"render","view":"heatmap","type":"MCE","from":0,"to":3600000}"#,
        );
        assert_eq!(resp["status"].as_str(), Some("ok"));
        let svg = resp["data"]["svg"].as_str().unwrap();
        assert!(svg.starts_with("<svg"));
        let resp = call(&e, r#"{"op":"render","view":"nope","from":0,"to":1}"#);
        assert_eq!(resp["status"].as_str(), Some("error"));
    }

    #[test]
    fn dlq_ops_inspect_and_requeue() {
        use crate::etl::stream::{publish_lines, StreamIngester};
        use loggen::trace::{Facility, RawLine};
        let e = engine();
        // An empty DLQ reports zero depth.
        let resp = call(&e, r#"{"op":"dlq"}"#);
        assert_eq!(resp["status"].as_str(), Some("ok"));
        assert_eq!(resp["data"]["depth"].as_i64(), Some(0));
        // Ingest a poison line: it dead-letters.
        publish_lines(
            e.framework(),
            &[RawLine {
                ts_ms: 0,
                facility: Facility::Console,
                source: "c0-0c0s0n0".to_owned(),
                text: "~~~ unparseable gibberish ~~~".to_owned(),
            }],
        )
        .unwrap();
        StreamIngester::new(e.framework(), "g", 0)
            .unwrap()
            .run_to_completion(16)
            .unwrap();
        let resp = call(&e, r#"{"op":"dlq","max":5}"#);
        assert_eq!(resp["data"]["depth"].as_i64(), Some(1));
        let entries = resp["data"]["entries"].as_array().unwrap();
        assert_eq!(entries.len(), 1);
        assert!(entries[0]["value"]
            .as_str()
            .unwrap()
            .contains("unparseable gibberish"));
        // Requeue republishes the line and empties the queue.
        let resp = call(&e, r#"{"op":"dlq_requeue"}"#);
        assert_eq!(resp["status"].as_str(), Some("ok"));
        assert_eq!(resp["data"]["lines_republished"].as_i64(), Some(1));
        assert_eq!(resp["data"]["remaining"].as_i64(), Some(0));
        let resp = call(&e, r#"{"op":"dlq"}"#);
        assert_eq!(resp["data"]["depth"].as_i64(), Some(0));
    }

    #[test]
    fn topology_op_status_join_decommission() {
        let e = engine();
        let resp = call(&e, r#"{"op":"topology"}"#);
        assert_eq!(resp["status"].as_str(), Some("ok"));
        assert_eq!(resp["data"]["state"].as_str(), Some("stable"));
        assert_eq!(resp["data"]["members"].as_array().unwrap().len(), 3);
        let epoch0 = resp["data"]["epoch"].as_i64().unwrap();

        // Join a fourth node: ranges stream in, epoch bumps once.
        let resp = call(&e, r#"{"op":"topology","action":"join"}"#);
        assert_eq!(resp["status"].as_str(), Some("ok"), "{resp}");
        assert_eq!(resp["data"]["action"].as_str(), Some("join"));
        assert_eq!(resp["data"]["node"].as_i64(), Some(3));
        assert_eq!(resp["data"]["epoch"].as_i64(), Some(epoch0 + 1));
        let resp = call(&e, r#"{"op":"topology"}"#);
        assert_eq!(resp["data"]["members"].as_array().unwrap().len(), 4);

        // Decommission it again: back to three ring members, retired slot
        // stays listed.
        let resp = call(&e, r#"{"op":"topology","action":"decommission","node":3}"#);
        assert_eq!(resp["status"].as_str(), Some("ok"), "{resp}");
        assert_eq!(resp["data"]["action"].as_str(), Some("decommission"));
        let resp = call(&e, r#"{"op":"topology"}"#);
        let members = resp["data"]["members"].as_array().unwrap();
        assert_eq!(members.len(), 4);
        assert_eq!(members[3]["in_ring"].as_bool(), Some(false));
        assert_eq!(members[3]["up"].as_bool(), Some(false));

        // Bad actions and bad targets are typed errors.
        let resp = call(&e, r#"{"op":"topology","action":"warp"}"#);
        assert_eq!(resp["error"]["code"].as_str(), Some("BAD_REQUEST"));
        let resp = call(&e, r#"{"op":"topology","action":"decommission"}"#);
        assert_eq!(resp["error"]["code"].as_str(), Some("BAD_REQUEST"));
        let resp = call(&e, r#"{"op":"topology","action":"decommission","node":3}"#);
        assert_eq!(resp["error"]["code"].as_str(), Some("BAD_REQUEST"));
    }

    #[test]
    fn errors_are_structured_not_panics() {
        let e = engine();
        for bad in [
            "not json at all",
            r#"{"no_op":1}"#,
            r#"{"op":"zap"}"#,
            r#"{"op":"events","from":100,"to":0}"#,
            r#"{"op":"heatmap","from":0,"to":1}"#,
            r#"{"op":"nodeinfo","cname":"c9-9c9s9n9"}"#,
            r#"{"op":"cql","q":"DROP TABLE x"}"#,
            r#"{"op":"histogram","type":"MCE","from":0,"to":1,"bin_ms":-5}"#,
        ] {
            let resp = call(&e, bad);
            assert_eq!(resp["status"].as_str(), Some("error"), "{bad}");
            assert!(!resp["error"]["message"].as_str().unwrap().is_empty());
            assert!(!resp["error"]["code"].as_str().unwrap().is_empty());
        }
    }

    #[test]
    fn repeated_queries_hit_the_result_cache_until_new_data_lands() {
        let e = engine();
        let req = r#"{"op":"heatmap","type":"MCE","from":0,"to":3600000}"#;
        // Each response carries its own trace id; strip it before the
        // byte-identical comparison.
        let strip_trace = |resp: &str| {
            let mut v = jsonlite::parse(resp).unwrap();
            assert!(v["trace_id"].as_str().is_some(), "trace_id on envelope");
            v.remove("trace_id");
            v.to_string()
        };
        let first = strip_trace(&e.handle(req));
        let hits0 = e.framework().result_cache().stats().hits();
        let second = strip_trace(&e.handle(req));
        assert_eq!(first, second, "cached response is byte-identical");
        assert_eq!(e.framework().result_cache().stats().hits(), hits0 + 1);
        // An equivalent request with different field order shares the
        // entry (canonical keys)...
        let reordered = e.handle(r#"{"to":3600000,"from":0,"type":"MCE","op":"heatmap"}"#);
        assert_eq!(e.framework().result_cache().stats().hits(), hits0 + 2);
        let reordered = jsonlite::parse(&reordered).unwrap();
        assert_eq!(reordered["data"]["total"].as_f64(), Some(10.0));
        assert!(reordered["total"].is_null(), "flat mirrors gone in v2");
        // ...and new data in the window invalidates lazily.
        e.framework()
            .insert_event(&EventRecord {
                ts_ms: 30_000,
                event_type: "MCE".into(),
                source: "c0-0c0s1n0".into(),
                amount: 1,
                raw: "one more".into(),
            })
            .unwrap();
        let third = strip_trace(&e.handle(req));
        assert_ne!(second, third);
        let parsed = jsonlite::parse(&third).unwrap();
        assert_eq!(parsed["data"]["total"].as_f64(), Some(11.0));
        assert!(e.framework().result_cache().stats().invalidations() >= 1);
    }

    /// The open hour is a partition whose version moves, nothing more: a
    /// streaming commit that wrote nothing leaves an answer over it a hit,
    /// and a write into one of its hours makes it a miss.
    #[test]
    fn an_open_window_entry_lives_until_a_write_not_a_commit() {
        let e = engine();
        let fw = e.framework();
        let req = r#"{"op":"heatmap","type":"MCE","from":0,"to":7200000}"#;
        let first = call(&e, req);
        let stats = fw.result_cache().stats();
        for watermark in [i64::MIN, 30 * 60_000, HOUR_MS + 1, 2 * HOUR_MS] {
            fw.note_ingest_commit(watermark);
            let hits = stats.hits();
            assert_eq!(call(&e, req)["data"], first["data"], "after {watermark}");
            assert_eq!(stats.hits(), hits + 1, "a commit drops nothing");
        }
        assert_eq!(stats.invalidations(), 0);
        fw.insert_event(&EventRecord {
            ts_ms: HOUR_MS + 5,
            event_type: "MCE".into(),
            source: "c0-0c0s1n0".into(),
            amount: 1,
            raw: "written into the second hour".into(),
        })
        .unwrap();
        let (hits, misses) = (stats.hits(), stats.misses());
        let after = call(&e, req);
        assert_eq!((stats.hits(), stats.misses()), (hits, misses + 1));
        assert_eq!(stats.invalidations(), 1);
        assert_eq!(after["data"]["total"].as_f64(), Some(11.0));
    }
}
