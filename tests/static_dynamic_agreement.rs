//! Tier-1 gate: the static source auditor (`leakcheck`) and the dynamic
//! differential scanner (`leakscan::CrossValidator`) must reach the same
//! verdict on every modeled channel, modulo the documented allowlist.
//!
//! The two analyses share no code path: one tokenizes handler sources,
//! the other renders files through two views and diffs bytes. Agreement
//! is therefore real cross-validation — a classifier regression on
//! either side breaks this test.

use containerleaks::leakcheck;
use containerleaks::leakscan::agreement;
use containerleaks::leakscan::{ChannelClass, Lab};
use containerleaks::pseudofs::ROUTES;

fn joined_rows() -> Vec<agreement::Agreement> {
    let report = leakcheck::audit().expect("static audit succeeds");
    let lab = Lab::new(1, 97);
    let h = lab.host(0);
    agreement::check(&h.kernel, &h.container_view(), &report)
}

/// The nine hot channels, whose renderers write straight into the read
/// buffer (`_into`), are the paper's highest-rate probes; all nine must
/// be statically classified as unrouted and dynamically observed leaking.
#[test]
fn hot_probe_channels_agree_as_leaking() {
    let report = leakcheck::audit().expect("static audit succeeds");
    let rows = joined_rows();
    let fast: Vec<&str> = ROUTES
        .iter()
        .filter(|r| r.handler.ends_with("_into"))
        .map(|r| r.probe)
        .collect();
    assert_eq!(fast.len(), 9, "nine buffer-writing renderers");
    for probe in fast {
        let ch = report
            .channels
            .iter()
            .find(|c| c.pattern == probe)
            .unwrap_or_else(|| panic!("{probe} not audited"));
        assert_ne!(
            ch.verdict, "view-routed",
            "{probe} must be statically unrouted"
        );
        let row = rows
            .iter()
            .find(|r| r.path == probe)
            .unwrap_or_else(|| panic!("{probe} not scanned"));
        assert_eq!(row.dynamic, ChannelClass::Leaking, "{probe}");
        assert!(row.agrees, "{probe}");
    }
}

/// Full-tree agreement: every path the scanner classifies joins a
/// registry channel whose static verdict predicts the dynamic class.
#[test]
fn full_tree_static_dynamic_agreement() {
    let rows = joined_rows();
    assert!(
        rows.len() > 60,
        "join covers the modeled tree, got {} rows",
        rows.len()
    );
    let bad = agreement::disagreements(&rows);
    assert!(
        bad.is_empty(),
        "static/dynamic disagreements:\n{}",
        bad.iter()
            .map(|r| {
                format!(
                    "  {} ({}): static {} predicts {:?}, scanner saw {:?}",
                    r.path, r.handler, r.static_verdict, r.predicted, r.dynamic
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The allowlist stays minimal and exercised.
    assert_eq!(agreement::ALLOWLIST.len(), 1);
    assert!(rows
        .iter()
        .any(|r| r.allowlisted && r.predicted != r.dynamic));
}

/// Registry completeness, from the static side: every audited channel
/// resolved to a handler, and the audit's channel count matches the
/// route table every read goes through.
#[test]
fn audit_covers_the_whole_registry() {
    let report = leakcheck::audit().expect("static audit succeeds");
    assert_eq!(report.channels.len(), ROUTES.len());
    for c in &report.channels {
        assert!(
            !c.verdict.is_empty() && c.handler.contains("::"),
            "{c:?} malformed"
        );
    }
    // Determinism lint: the committed accept list is the only finding set.
    for h in &report.hazards {
        assert!(
            h.accepted,
            "unreviewed determinism hazard in {} ({}): {}",
            h.file, h.function, h.detail
        );
    }
}
