//! `viz` — deterministic SVG/ASCII renderers for the frontend's views.
//!
//! The paper's frontend (D3 + HTML5 canvas) draws the physical system map,
//! the temporal map, heat maps, event histograms, transfer-entropy plots,
//! and word bubbles (Figs 5–7). This crate reproduces each view as a pure
//! function from data to an SVG document (plus ASCII variants for
//! terminals), so every figure becomes a reproducible artifact.

#![forbid(unsafe_code)]

pub mod bubbles;
pub mod color;
pub mod histogram;
pub mod svg;
pub mod sysmap;
pub mod teplot;
pub mod timeseries;

pub use bubbles::render_word_bubbles;
pub use histogram::{ascii_histogram, render_histogram};
pub use sysmap::{
    ascii_cabinet_heatmap, render_cabinet_heatmap, render_node_heatmap, SystemMapSpec,
};
pub use timeseries::{render_timeseries, Series};
