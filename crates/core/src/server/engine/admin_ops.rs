//! The admin and observability ops: topology, dead letters and telemetry.

use super::QueryEngine;
use crate::server::request::{ApiError, ErrorCode, OpOutput, QueryRequest};
use jsonlite::{json_array, json_object, Value as Json};

impl QueryEngine {
    /// Topology admin and status. `action` defaults to `"status"`; `"join"`
    /// adds a new node and streams its ranges in, `"decommission"` drains
    /// the named node's ranges and retires it. A concurrent transition
    /// surfaces as `TOPOLOGY_CHANGING` with a retry hint.
    pub(super) fn op_topology(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let cluster = self.fw.cluster();
        match req.str_or("action", "status")? {
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
            "join" => Ok(transition_json(&cluster.join_node()?)),
            "decommission" => {
                let id = req.i64_field("node")?;
                if id < 0 {
                    return Err(ApiError::bad_request("'node' must be non-negative"));
                }
                let node = rasdb::ring::NodeId(id as usize);
                Ok(transition_json(&cluster.decommission_node(node)?))
            }
            other => Err(ApiError::bad_request(format!(
                "unknown topology action '{other}'"
            ))),
        }
    }

    /// Inspects the ingestion dead-letter queue: current depth plus up to
    /// `max` entries (default 20), without consuming anything.
    pub(super) fn op_dlq(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
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
                        ("key", r.key.as_deref().map_or(Json::Null, Json::from)),
                        ("value", Json::from(r.value.as_str())),
                    ])
                })),
            ),
        ]))
    }

    /// Replays up to `max` dead-letter entries (default 100): serialized
    /// events re-insert into the event tables, raw lines republish to the
    /// ingest topic. Entries that fail to replay stay queued.
    pub(super) fn op_dlq_requeue(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
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

    /// The framework's counters, gauges and span histograms (its
    /// registry's, plus `rasdb.storage.*` summed over the nodes). Counters
    /// and gauges count whether or not spans are enabled; `enabled` says
    /// whether the framework's spans and histograms record. Pass
    /// `"reset": true` to zero every count reported here, node counts and
    /// histograms included, after reading (the framework's trace ring is
    /// cleared too); gauges are levels and keep their value. No other
    /// framework's instruments are read or reset.
    pub(super) fn op_metrics(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        use crate::server::telemetry_export;
        let reset = req.bool_or("reset", false)?;
        let snap = telemetry_export::metrics_json(&self.fw);
        let out = OpOutput::data([
            ("enabled", Json::from(self.fw.telemetry().enabled())),
            ("counters", snap["counters"].clone()),
            ("gauges", snap["gauges"].clone()),
            ("histograms", snap["histograms"].clone()),
        ]);
        if reset {
            telemetry_export::reset(&self.fw);
        }
        Ok(out)
    }

    /// Columnar analytics storage stats: blocks built/resident/evicted,
    /// byte residency against the budget, dictionary compression, and
    /// zone-map skip counts. Never cached — it *is* the cache readout.
    pub(super) fn op_storage(&self, _req: &QueryRequest) -> Result<OpOutput, ApiError> {
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
    pub(super) fn op_slow_queries(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let threshold = &req.raw["threshold_ms"];
        let threshold = match threshold.as_i64() {
            Some(ms) if ms >= 0 => Some(ms as u64),
            _ if threshold.is_null() => None,
            _ => {
                let msg = "threshold_ms must be a non-negative integer";
                return Err(ApiError::bad_request(msg));
            }
        };
        let max = req.i64_or("max", 32)?;
        if max < 1 {
            return Err(ApiError::bad_request("max must be a positive integer"));
        }
        if let Some(ms) = threshold {
            self.recorder.set_threshold_ms(ms);
        }
        let mut queries = self.recorder.snapshot();
        queries.truncate(max as usize);
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
    pub(super) fn op_health(&self, _req: &QueryRequest) -> Result<OpOutput, ApiError> {
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
