//! Server-side rendering of the frontend's views: each function turns a
//! framework query into a complete SVG document (the D3 substitute).

use crate::analytics::heatmap::{cabinet_heatmap, node_heatmap};
use crate::analytics::histogram::event_histogram;
use crate::analytics::text::{top_k, word_count_events};
use crate::analytics::transfer_entropy::te_lag_sweep;
use crate::framework::Framework;
use loggen::topology::NODES_PER_CABINET;
use rasdb::error::DbError;
use viz::sysmap::SystemMapSpec;

fn map_spec(fw: &Framework, title: String) -> SystemMapSpec {
    SystemMapSpec {
        rows: fw.topology().rows,
        cols: fw.topology().cols,
        title,
    }
}

/// The Fig 5 cabinet heat map as SVG.
pub fn heatmap_svg(
    fw: &Framework,
    event_type: &str,
    from_ms: i64,
    to_ms: i64,
) -> Result<String, DbError> {
    let hm = cabinet_heatmap(fw, event_type, from_ms, to_ms)?;
    Ok(viz::render_cabinet_heatmap(
        &map_spec(fw, format!("{event_type} occurrences per cabinet")),
        &hm.cabinets,
    ))
}

/// The node-level heat map as SVG.
pub fn node_heatmap_svg(
    fw: &Framework,
    event_type: &str,
    from_ms: i64,
    to_ms: i64,
) -> Result<String, DbError> {
    let nodes = node_heatmap(fw, event_type, from_ms, to_ms)?;
    Ok(viz::render_node_heatmap(
        &map_spec(fw, format!("{event_type} occurrences per node")),
        &nodes,
        NODES_PER_CABINET,
    ))
}

/// The temporal map (hourly histogram) as SVG.
pub fn histogram_svg(
    fw: &Framework,
    event_type: &str,
    from_ms: i64,
    to_ms: i64,
    bin_ms: i64,
) -> Result<String, DbError> {
    let h = event_histogram(fw, event_type, from_ms, to_ms, bin_ms)?;
    let labels: Vec<String> = (0..h.bins.len()).map(|i| i.to_string()).collect();
    Ok(viz::render_histogram(
        &format!("{event_type} per bin ({} s)", bin_ms / 1000),
        &labels,
        &h.bins,
    ))
}

/// The Fig 7 transfer-entropy plot as SVG.
pub fn te_plot_svg(
    fw: &Framework,
    type_x: &str,
    type_y: &str,
    from_ms: i64,
    to_ms: i64,
    bin_ms: i64,
    max_lag: usize,
) -> Result<String, DbError> {
    let sweep = te_lag_sweep(fw, type_x, type_y, from_ms, to_ms, bin_ms, max_lag)?;
    let triples: Vec<(usize, f64, f64)> = sweep
        .iter()
        .map(|(lag, te)| (*lag, te.x_to_y, te.y_to_x))
        .collect();
    Ok(viz::teplot::render_te_plot(type_x, type_y, &triples))
}

/// The Fig 7 word bubbles as SVG.
pub fn word_bubbles_svg(
    fw: &Framework,
    event_type: &str,
    from_ms: i64,
    to_ms: i64,
    top: usize,
) -> Result<String, DbError> {
    let counts = word_count_events(fw, event_type, from_ms, to_ms)?;
    let terms: Vec<(String, f64)> = top_k(&counts, top)
        .into_iter()
        .map(|(w, c)| (w, c as f64))
        .collect();
    Ok(viz::render_word_bubbles(
        &format!("Top terms in raw {event_type} messages"),
        &terms,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FrameworkConfig;
    use crate::model::event::EventRecord;
    use crate::model::keys::HOUR_MS;
    use loggen::topology::Topology;

    fn fw() -> Framework {
        let fw = Framework::new(FrameworkConfig {
            db_nodes: 3,
            replication_factor: 2,
            vnodes: 8,
            topology: Topology::scaled(2, 2),
            ..Default::default()
        })
        .unwrap();
        for i in 0..30i64 {
            fw.insert_event(&EventRecord {
                ts_ms: i * 60_000,
                event_type: "LUSTRE_ERR".into(),
                source: fw.topology().node((i as usize * 7) % 384).cname.into(),
                amount: 1,
                raw: format!("LustreError: OST0041 timeout attempt {i}").into(),
            })
            .unwrap();
        }
        fw
    }

    #[test]
    fn every_view_renders_valid_svg() {
        let fw = fw();
        for svg in [
            heatmap_svg(&fw, "LUSTRE_ERR", 0, HOUR_MS).unwrap(),
            node_heatmap_svg(&fw, "LUSTRE_ERR", 0, HOUR_MS).unwrap(),
            histogram_svg(&fw, "LUSTRE_ERR", 0, HOUR_MS, 600_000).unwrap(),
            te_plot_svg(&fw, "LUSTRE_ERR", "MCE", 0, HOUR_MS, 60_000, 4).unwrap(),
            word_bubbles_svg(&fw, "LUSTRE_ERR", 0, HOUR_MS, 8).unwrap(),
        ] {
            assert!(svg.starts_with("<svg"), "{}", &svg[..40.min(svg.len())]);
            assert!(svg.ends_with("</svg>"));
        }
    }

    #[test]
    fn bubbles_surface_the_ost() {
        let fw = fw();
        let svg = word_bubbles_svg(&fw, "LUSTRE_ERR", 0, HOUR_MS, 5).unwrap();
        assert!(svg.contains("OST0041"));
    }
}
