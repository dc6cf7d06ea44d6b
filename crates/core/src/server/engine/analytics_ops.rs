//! The ops the analytics kernels answer, most of them memoised.

use super::QueryEngine;
use crate::analytics::distribution::{distribution, GroupBy, ATTRIBUTION_LOOKBACK_MS};
use crate::analytics::{correlation, heatmap, histogram, synopsis, text, transfer_entropy};
use crate::framework::Framework;
use crate::server::request::{ApiError, ErrorCode, OpOutput, QueryRequest};
use jsonlite::{json_array, json_object, Value as Json};
use rasdb::types::Key;
use rasdb::DecoratedKey;

impl QueryEngine {
    pub(super) fn op_heatmap(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let (from, to) = req.window()?;
        let t = req.str_field("type")?;
        let deps = || Framework::event_deps(&[t], from, to);
        self.cached("heatmap", (t, from, to), deps, || {
            let hm = heatmap::cabinet_heatmap(&self.fw, t, from, to)?;
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

    pub(super) fn op_distribution(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let ctx = req.context()?;
        let by = match req.str_or("by", "cabinet")? {
            "cabinet" => GroupBy::Cabinet,
            "blade" => GroupBy::Blade,
            "node" => GroupBy::Node,
            "application" | "app" => GroupBy::Application,
            other => return Err(ApiError::bad_request(format!("unknown grouping '{other}'"))),
        };
        let deps = || {
            let mut deps = ctx.deps();
            if by == GroupBy::Application {
                let since = ctx.from_ms.saturating_sub(ATTRIBUTION_LOOKBACK_MS);
                deps.extend(Framework::window_deps(
                    "application_by_time",
                    None,
                    since,
                    ctx.to_ms,
                ));
            }
            deps
        };
        // Keyed on the grouping, not its spelling: `app` and `application`
        // share one entry.
        self.cached("distribution", (by, &ctx), deps, || {
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

    pub(super) fn op_histogram(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let (from, to) = req.window()?;
        let t = req.str_field("type")?;
        let bin = req.bin_ms_or(3_600_000)?;
        let deps = || Framework::event_deps(&[t], from, to);
        self.cached("histogram", (t, from, to, bin), deps, || {
            let h = histogram::event_histogram(&self.fw, t, from, to, bin)?;
            Ok(OpOutput::data([
                ("from", Json::from(h.from_ms)),
                ("bin_ms", Json::from(h.bin_ms)),
                ("bins", json_array(h.bins.clone())),
            ]))
        })
    }

    pub(super) fn op_transfer_entropy(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let (from, to) = req.window()?;
        let x = req.str_field("x")?;
        let y = req.str_field("y")?;
        let (bin, max_lag) = req.lag_sweep(1)?;
        let deps = || Framework::event_deps(&[x, y], from, to);
        let params = (x, y, from, to, bin, max_lag);
        self.cached("transfer_entropy", params, deps, || {
            let sweep = transfer_entropy::te_lag_sweep(&self.fw, x, y, from, to, bin, max_lag)?;
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

    pub(super) fn op_cross_correlation(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let (from, to) = req.window()?;
        let a = req.str_field("x")?;
        let b = req.str_field("y")?;
        let (bin, max_lag) = req.lag_sweep(0)?;
        let deps = || Framework::event_deps(&[a, b], from, to);
        let params = (a, b, from, to, bin, max_lag);
        self.cached("cross_correlation", params, deps, || {
            let xc = correlation::event_cross_correlation(&self.fw, a, b, from, to, bin, max_lag)?;
            Ok(OpOutput::data([(
                "correlations",
                json_array(
                    xc.iter()
                        .map(|(lag, r)| json_array([Json::from(*lag), Json::from(*r)])),
                ),
            )]))
        })
    }

    pub(super) fn op_wordcount(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let (from, to) = req.window()?;
        let t = req.event_type.as_deref().unwrap_or("LUSTRE_ERR");
        let k = req.pos_i64_or("top", 20)? as usize;
        let deps = || Framework::event_deps(&[t], from, to);
        self.cached("wordcount", (t, from, to, k), deps, || {
            let counts = text::word_count_events(&self.fw, t, from, to)?;
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

    pub(super) fn op_synopsis(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        let day = req.i64_field("day")?;
        let deps = || {
            let day = Key::from(vec![rasdb::types::Value::BigInt(day)]);
            vec![("eventsynopsis".to_owned(), DecoratedKey::new(day))]
        };
        self.cached("synopsis", day, deps, || {
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

    pub(super) fn op_rules(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
        use crate::analytics::composite::{mine_from_store, Scope};
        let (from, to) = req.window()?;
        let window_ms = req.pos_i64_or("window_ms", 60_000)?;
        let min_support = req.pos_i64_or("min_support", 3)? as u64;
        let scope = match req.str_or("scope", "node")? {
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

    pub(super) fn op_profile(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
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

    pub(super) fn op_predict(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
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
    pub(super) fn op_render(&self, req: &QueryRequest) -> Result<OpOutput, ApiError> {
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
            "te" => {
                let (x, y) = (req.str_field("x")?, req.str_field("y")?);
                let (bin, max_lag) = req.lag_sweep(1)?;
                views::te_plot_svg(&self.fw, x, y, from, to, bin, max_lag)
            }
            "bubbles" => {
                let top = req.pos_i64_or("top", 15)? as usize;
                views::word_bubbles_svg(&self.fw, etype, from, to, top)
            }
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
}
