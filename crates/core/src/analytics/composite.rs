//! Composite-event mining (paper §V future work: "new and composite event
//! types will need to be defined ... this will involve event mining
//! techniques rather than text pattern matching").
//!
//! Mines sequential association rules `A ⇒ B within Δt` from the event
//! stream: how often does type B follow type A within a window, at a given
//! spatial scope? Rules carry support, confidence, and lift so spurious
//! co-occurrence (both types merely being frequent) is filtered out.

use crate::context::Context;
use crate::framework::Framework;
use crate::model::event::EventRecord;
use loggen::topology::{Topology, NODES_PER_CABINET};
use rasdb::error::DbError;
use std::collections::{BTreeMap, HashMap};

/// Spatial scope at which a follow-up counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// B must occur on the same node as A.
    Node,
    /// B must occur in the same cabinet.
    Cabinet,
    /// Anywhere in the system.
    System,
}

/// One mined rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Antecedent event type (A).
    pub antecedent: String,
    /// Consequent event type (B).
    pub consequent: String,
    /// Follow-up window.
    pub window_ms: i64,
    /// Count of A occurrences followed by a B within the window/scope.
    pub support: u64,
    /// `support / count(A)`.
    pub confidence: f64,
    /// Confidence relative to B's base probability of appearing in any
    /// window of the same length (how surprising the rule is).
    pub lift: f64,
}

/// Mines rules from an explicit event stream (sorted or not).
pub fn mine_rules(
    events: &[EventRecord],
    topo: &Topology,
    window_ms: i64,
    scope: Scope,
    min_support: u64,
) -> Vec<Rule> {
    assert!(window_ms > 0, "window must be positive");
    let mut sorted: Vec<&EventRecord> = events.iter().collect();
    sorted.sort_by_key(|e| e.ts_ms);
    if sorted.is_empty() {
        return Vec::new();
    }
    let span_ms = (sorted.last().expect("nonempty").ts_ms - sorted[0].ts_ms).max(window_ms);

    let node_of = |e: &EventRecord| topo.parse_cname(&e.source);
    let in_scope = |a: &EventRecord, b: &EventRecord| match scope {
        Scope::System => true,
        Scope::Node => match (node_of(a), node_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        },
        Scope::Cabinet => match (node_of(a), node_of(b)) {
            (Some(x), Some(y)) => x / NODES_PER_CABINET == y / NODES_PER_CABINET,
            _ => false,
        },
    };

    let mut type_counts: HashMap<&str, u64> = HashMap::new();
    for e in &sorted {
        *type_counts.entry(&*e.event_type).or_default() += 1;
    }

    // For each A occurrence, which B types appear within the window? Count
    // each (A-occurrence, B-type) pair at most once (existential rule).
    let mut pair_support: BTreeMap<(String, String), u64> = BTreeMap::new();
    for (i, a) in sorted.iter().enumerate() {
        let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for b in sorted[i + 1..].iter() {
            if b.ts_ms - a.ts_ms > window_ms {
                break;
            }
            if b.event_type == a.event_type || !in_scope(a, b) {
                continue;
            }
            if seen.insert(&*b.event_type) {
                *pair_support
                    .entry((a.event_type.to_string(), b.event_type.to_string()))
                    .or_default() += 1;
            }
        }
    }

    let mut rules: Vec<Rule> = pair_support
        .into_iter()
        .filter(|(_, s)| *s >= min_support)
        .map(|((a, b), support)| {
            let count_a = type_counts[a.as_str()] as f64;
            let confidence = support as f64 / count_a;
            // Base probability that at least one B lands in a random window
            // of this length (Poisson approximation over the whole span).
            let rate_b = type_counts[b.as_str()] as f64 / span_ms as f64;
            let base = 1.0 - (-rate_b * window_ms as f64).exp();
            let lift = if base > 0.0 { confidence / base } else { 0.0 };
            Rule {
                antecedent: a,
                consequent: b,
                window_ms,
                support,
                confidence,
                lift,
            }
        })
        .collect();
    rules.sort_by(|a, b| {
        b.lift
            .total_cmp(&a.lift)
            .then_with(|| b.support.cmp(&a.support))
    });
    rules
}

/// Mines rules straight from the store: every catalog type over `[from, to)`.
pub fn mine_from_store(
    fw: &Framework,
    from_ms: i64,
    to_ms: i64,
    window_ms: i64,
    scope: Scope,
    min_support: u64,
) -> Result<Vec<Rule>, DbError> {
    let events = Context::window(from_ms, to_ms).fetch_events(fw)?;
    let topo = fw.topology();
    Ok(mine_rules(&events, topo, window_ms, scope, min_support))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::scaled(2, 2)
    }

    fn ev(ts: i64, t: &str, node: usize, topo: &Topology) -> EventRecord {
        EventRecord {
            ts_ms: ts,
            event_type: t.into(),
            source: topo.node(node).cname.into(),
            amount: 1,
            raw: "".into(),
        }
    }

    #[test]
    fn causal_pair_mines_with_high_lift() {
        let topo = topo();
        let mut events = Vec::new();
        // 50 NET_LINK each followed by LUSTRE_ERR 5s later on the same node,
        // spread over a long span so the base rate stays low.
        for i in 0..50i64 {
            events.push(ev(i * 600_000, "NET_LINK", (i % 8) as usize, &topo));
            events.push(ev(
                i * 600_000 + 5_000,
                "LUSTRE_ERR",
                (i % 8) as usize,
                &topo,
            ));
        }
        let rules = mine_rules(&events, &topo, 10_000, Scope::Node, 5);
        let top = &rules[0];
        assert_eq!(top.antecedent, "NET_LINK");
        assert_eq!(top.consequent, "LUSTRE_ERR");
        assert_eq!(top.support, 50);
        assert!((top.confidence - 1.0).abs() < 1e-9);
        assert!(top.lift > 10.0, "lift {}", top.lift);
        // The reverse rule has no support at this window.
        assert!(!rules
            .iter()
            .any(|r| r.antecedent == "LUSTRE_ERR" && r.consequent == "NET_LINK"));
    }

    #[test]
    fn scope_restricts_matches() {
        let topo = topo();
        // A on node 0 (cabinet 0), B on node 96 (cabinet 1): only System
        // scope should connect them.
        let events = vec![ev(0, "MCE", 0, &topo), ev(1_000, "KERNEL_PANIC", 96, &topo)];
        assert!(mine_rules(&events, &topo, 5_000, Scope::Node, 1).is_empty());
        assert!(mine_rules(&events, &topo, 5_000, Scope::Cabinet, 1).is_empty());
        let rules = mine_rules(&events, &topo, 5_000, Scope::System, 1);
        assert_eq!(rules.len(), 1);
        // Same cabinet, different node: cabinet scope matches, node doesn't.
        let events = vec![ev(0, "MCE", 0, &topo), ev(1_000, "KERNEL_PANIC", 5, &topo)];
        assert_eq!(
            mine_rules(&events, &topo, 5_000, Scope::Cabinet, 1).len(),
            1
        );
        assert!(mine_rules(&events, &topo, 5_000, Scope::Node, 1).is_empty());
    }

    #[test]
    fn existential_counting_ignores_duplicates_in_window() {
        let topo = topo();
        // One A followed by three Bs in-window: support must be 1.
        let events = vec![
            ev(0, "MCE", 0, &topo),
            ev(100, "MEM_ECC", 0, &topo),
            ev(200, "MEM_ECC", 0, &topo),
            ev(300, "MEM_ECC", 0, &topo),
        ];
        let rules = mine_rules(&events, &topo, 1_000, Scope::Node, 1);
        let rule = rules
            .iter()
            .find(|r| r.antecedent == "MCE")
            .expect("rule mined");
        assert_eq!(rule.support, 1);
    }

    #[test]
    fn min_support_filters_noise() {
        let topo = topo();
        let events = vec![ev(0, "MCE", 0, &topo), ev(10, "DVS_ERR", 0, &topo)];
        assert!(mine_rules(&events, &topo, 100, Scope::Node, 2).is_empty());
        assert_eq!(mine_rules(&events, &topo, 100, Scope::Node, 1).len(), 1);
    }

    #[test]
    fn window_boundary_is_inclusive() {
        let topo = topo();
        let events = vec![ev(0, "MCE", 0, &topo), ev(1_000, "DVS_ERR", 0, &topo)];
        assert_eq!(mine_rules(&events, &topo, 1_000, Scope::Node, 1).len(), 1);
        assert!(mine_rules(&events, &topo, 999, Scope::Node, 1).is_empty());
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(mine_rules(&[], &topo(), 1_000, Scope::System, 1).is_empty());
    }
}
