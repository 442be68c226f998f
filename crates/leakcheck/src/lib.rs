//! Static leakage auditor for the modeled pseudo-filesystem.
//!
//! The dynamic scanner ([`leakscan`]'s cross-validator) detects
//! namespace-blind channels by *reading* every file from a host view and
//! a container view and diffing. This crate reaches the same verdicts
//! without executing a kernel: it tokenizes the handler sources under
//! `crates/pseudofs/src/render/`, extracts per-function kernel/view
//! accesses, and classifies each registered channel on the
//! [`Verdict`] lattice. A second pass lints the
//! simulation crates for determinism hazards (hash-order iteration
//! feeding output, shared state inside `par_for_each_mut` partitions).
//!
//! The channels come from [`pseudofs::ROUTES`], the table every read
//! routes through: each row's `handler` string is built from the same
//! tokens as its renderer call, so the audited function is the one that
//! renders. An integration test cross-validates the two analyses: static
//! verdicts must agree with the dynamic scanner on every channel (modulo
//! a documented allowlist).
//!
//! [`leakscan`]: https://docs.rs/leakscan

pub mod callgraph;
pub mod classify;
pub mod determinism;
pub mod extract;
pub mod flow;
pub mod lexer;
pub mod report;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub use classify::{analyze_module, Facts, FnAnalysis, Verdict};
pub use determinism::{lint_file, Hazard};
pub use report::{
    diff_lines, ChannelReport, FlowReport, FlowRow, HazardReport, MaskFindingReport, Report,
};

/// The render modules the route table calls, mirroring
/// `pseudofs/src/render/mod.rs`.
pub const RENDER_MODULES: &[&str] = &[
    "proc_basic",
    "proc_irq",
    "proc_kernel",
    "proc_misc",
    "proc_pid",
    "proc_sched",
    "proc_vm",
    "sys_cgroup",
    "sys_node",
    "sys_power",
];

/// Crates whose sources the determinism lint covers: everything that can
/// influence rendered bytes or the parallel stepping path.
pub const LINTED_CRATES: &[&str] = &[
    "cloudsim",
    "container",
    "core",
    "leakcheck",
    "leakscan",
    "pseudofs",
    "simkernel",
];

/// The workspace root, derived from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/leakcheck sits two levels below the workspace root")
        .to_path_buf()
}

/// Runs the full audit against the workspace sources on disk.
///
/// Classifies every [`pseudofs::ROUTES`] channel, derives each route's
/// dependency mask, and lints the simulation crates for determinism
/// hazards. Errors describe unresolvable handlers or unreadable sources;
/// they are audit *failures*, not findings.
pub fn audit() -> Result<Report, String> {
    audit_at(&workspace_root())
}

/// [`audit`] against an explicit workspace root (testable entry point).
pub fn audit_at(root: &Path) -> Result<Report, String> {
    let render_dir = root.join("crates/pseudofs/src/render");
    let fs_src = read(&root.join("crates/pseudofs/src/fs.rs"))?;
    let mod_src = read(&render_dir.join("mod.rs"))?;
    let mut modules: BTreeMap<String, BTreeMap<String, FnAnalysis>> = BTreeMap::new();
    let mut graph_modules = Vec::new();
    for m in RENDER_MODULES {
        let src = read(&render_dir.join(format!("{m}.rs")))?;
        modules.insert((*m).to_string(), analyze_module(&src));
        graph_modules.push(callgraph::parse_module(m, Some("render"), &src));
    }
    graph_modules.push(callgraph::parse_module("render", None, &mod_src));
    graph_modules.push(callgraph::parse_module("fs", None, &fs_src));
    // Classify fs.rs too so the listing row gets a verdict.
    modules.insert("fs".to_string(), analyze_module(&fs_src));

    let mut channels = Vec::new();
    for r in pseudofs::ROUTES {
        channels.push(channel_report(&modules, r)?);
    }

    let flow = flow_report(&graph_modules, &modules)?;

    let mut hazards = Vec::new();
    for c in LINTED_CRATES {
        let dir = root.join("crates").join(c).join("src");
        for file in rust_files(&dir)? {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let src = read(&file)?;
            hazards.extend(
                determinism::lint_file(&rel, &src)
                    .into_iter()
                    .map(Into::into),
            );
        }
    }

    Ok(Report {
        channels,
        flow,
        hazards,
    })
}

/// Resolves the route's handler to its analysis and builds the row,
/// including the declared dirty-epoch dependencies and the handler's
/// kernel reads the cache-coherence lint checks them against.
fn channel_report(
    modules: &BTreeMap<String, BTreeMap<String, FnAnalysis>>,
    route: &pseudofs::Route,
) -> Result<ChannelReport, String> {
    let analysis = lookup(modules, route.handler)?;
    let deps = dep_names(route.deps);
    Ok(ChannelReport::new(
        route.pattern,
        route.handler,
        analysis,
        deps,
        analysis.facts.kernel_reads.iter().cloned().collect(),
    ))
}

/// Subsystem names for the set bits of `mask`, in bit order.
fn dep_names(mask: u32) -> Vec<String> {
    simkernel::dep::BITS
        .iter()
        .filter(|b| mask & **b != 0)
        .map(|b| simkernel::dep::name(*b).to_string())
        .collect()
}

/// Runs the interprocedural flow analysis over the parsed modules and
/// checks every registered route — plus the listing path, whose cache
/// rests on [`pseudofs::LIST_DEPS`] — against its declared mask. This
/// supersedes the old module-local cache-coherence lint: the derived
/// masks here cross module boundaries and value returns, so a declared
/// mask missing a derived bit is a *proved* stale-cache bug, reported
/// in [`FlowReport::missing`] for the bin/CI to enforce.
fn flow_report(
    graph_modules: &[callgraph::Module],
    modules: &BTreeMap<String, BTreeMap<String, FnAnalysis>>,
) -> Result<FlowReport, String> {
    let graph = callgraph::build(graph_modules);
    let flows = flow::analyze(&graph);
    let mut specs: Vec<flow::RouteSpec> = pseudofs::ROUTES
        .iter()
        .map(|r| flow::RouteSpec {
            pattern: r.pattern.to_string(),
            handler: r.handler.to_string(),
            declared: r.deps,
        })
        .collect();
    // The listing renders bytes too: the set of visible paths.
    specs.push(flow::RouteSpec {
        pattern: "(list)".to_string(),
        handler: "fs::list_uncached".to_string(),
        declared: pseudofs::LIST_DEPS,
    });
    let check = flow::check_routes(&flows, &specs)?;

    let rows = check
        .routes
        .iter()
        .map(|r| FlowRow {
            pattern: r.pattern.clone(),
            handler: r.handler.clone(),
            verdict: lookup(modules, &r.handler)
                .map(|a| a.verdict.to_string())
                .unwrap_or_else(|_| "unclassified".to_string()),
            derived: dep_names(r.derived),
            hot: dep_names(r.hot),
            declared: dep_names(r.declared),
        })
        .collect();
    let finding = |m: &flow::MaskFinding| MaskFindingReport {
        pattern: m.pattern.clone(),
        handler: m.handler.clone(),
        bits: dep_names(m.bits),
        allowed: m.allowed.clone(),
    };
    Ok(FlowReport {
        subsystems: simkernel::dep::BITS
            .iter()
            .map(|b| simkernel::dep::name(*b).to_string())
            .collect(),
        rows,
        missing: check.missing.iter().map(finding).collect(),
        extra: check.extra.iter().map(finding).collect(),
    })
}

fn lookup<'a>(
    modules: &'a BTreeMap<String, BTreeMap<String, FnAnalysis>>,
    handler: &str,
) -> Result<&'a FnAnalysis, String> {
    let (m, f) = handler
        .split_once("::")
        .ok_or_else(|| format!("`{handler}` is not module::function"))?;
    modules
        .get(m)
        .and_then(|fns| fns.get(f))
        .ok_or_else(|| format!("`{handler}` not found in render sources"))
}

/// `.rs` files under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            out.extend(rust_files(&p)?);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    Ok(out)
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_runs_against_the_workspace() {
        let report = audit().expect("audit succeeds");
        assert_eq!(report.channels.len(), pseudofs::ROUTES.len());
        // Case Study I: net_prio.ifpriomap is the paper's mixed channel.
        let ifprio = report
            .channels
            .iter()
            .find(|c| c.pattern.ends_with("net_prio.ifpriomap"))
            .expect("ifpriomap audited");
        assert_eq!(ifprio.verdict, "namespace-blind-mixed");
        // The pid channels route through the reader's namespace.
        let self_status = report
            .channels
            .iter()
            .find(|c| c.pattern == "/proc/self/status")
            .unwrap();
        assert_eq!(self_status.verdict, "view-routed");
        // Masking is policy, not isolation.
        let cpuinfo = report
            .channels
            .iter()
            .find(|c| c.pattern == "/proc/cpuinfo")
            .unwrap();
        assert_eq!(cpuinfo.verdict, "masked-only");
    }

    #[test]
    fn every_hazard_is_reviewed() {
        let report = audit().expect("audit succeeds");
        let unreviewed: Vec<_> = report.hazards.iter().filter(|h| !h.accepted).collect();
        assert!(
            unreviewed.is_empty(),
            "unreviewed determinism hazards: {unreviewed:?}"
        );
    }

    #[test]
    fn derived_masks_cover_every_declared_mask() {
        let report = audit().expect("audit succeeds");
        // One row per registered route plus the listing path.
        assert_eq!(report.flow.rows.len(), pseudofs::ROUTES.len() + 1);
        assert!(
            report.flow.missing.is_empty(),
            "declared masks missing derived bits (stale-cache bugs): {:?}",
            report.flow.missing
        );
        let unreviewed: Vec<_> = report
            .flow
            .extra
            .iter()
            .filter(|x| x.allowed.is_none())
            .collect();
        assert!(
            unreviewed.is_empty(),
            "declared masks with underived bits — tighten the registry or \
             allowlist with a reason: {unreviewed:?}"
        );
    }

    #[test]
    fn flow_matrix_matches_the_paper_case_studies() {
        let report = audit().expect("audit succeeds");
        let row = |p: &str| {
            report
                .flow
                .rows
                .iter()
                .find(|r| r.pattern == p)
                .unwrap_or_else(|| panic!("{p} has a flow row"))
        };
        // Case Study I: ifpriomap leaks host net + cgroup state unrouted.
        let ifprio = row("/sys/fs/cgroup/net_prio/net_prio.ifpriomap");
        assert_eq!(ifprio.hot, ["net", "cgroup"]);
        // Uptime is host-global boot time through a neutral accessor.
        assert!(row("/proc/uptime").hot.contains(&"clock".to_string()));
        // Pid channels route every read through the viewer's namespace.
        let status = row("/proc/self/status");
        assert!(status.hot.is_empty(), "{:?}", status.hot);
        assert!(status.derived.contains(&"ns".to_string()));
        // The listing's pid sweep is routed; its topology reads are not.
        let list = row("(list)");
        assert!(!list.hot.contains(&"process".to_string()));
        assert!(list.hot.contains(&"hw".to_string()));
    }

    #[test]
    fn allowlist_entries_match_current_hazards() {
        // Satellite of the panic-surface re-audit: a stale allowlist
        // entry (its site refactored away) would silently re-arm if the
        // function name ever came back, so prune aggressively.
        let report = audit().expect("audit succeeds");
        let live = |file: &str, func: &str| {
            report
                .hazards
                .iter()
                .any(|h| h.file.ends_with(file) && h.function == func)
        };
        for (file, func, _) in determinism::ACCEPTED
            .iter()
            .chain(determinism::ACCEPTED_PANICS)
        {
            assert!(
                live(file, func),
                "stale allowlist entry {file}::{func} matches no current \
                 hazard — prune it"
            );
        }
    }
}
