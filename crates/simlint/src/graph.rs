//! The workspace call graph and the `panic-reach` analysis.
//!
//! Nodes are the non-test function items from every sim/lib/bin file;
//! edges come from the call sites the parser extracted, resolved by
//! name. Resolution is deliberately an **over-approximation** (no type
//! inference): a method call `.record(…)` edges to every known method
//! named `record`, a path call `geo::score(…)` to every `score` whose
//! qualifier, module, file stem, or crate matches `geo`. Sound for a
//! deny-lint — false edges can only make the lint stricter, and a waiver
//! with a reason is the documented escape hatch.
//!
//! `panic-reach` then runs a multi-source BFS from every **unwaived**
//! panic site backwards over the call graph, and flags public functions
//! in reach-enforced tiers (Sim/Lib) at distance ≥ 1. Distance-0 sites
//! are excluded on purpose: the function containing the panic already
//! gets a `panic-path` diagnostic, and repeating it as reachability
//! would be noise. The BFS records a parent pointer per node, so every
//! diagnostic renders the *shortest witness call path* down to the
//! concrete panic site. All iteration orders are fixed (node ids follow
//! file/source order, adjacency lists are sorted), so diagnostics are
//! byte-stable across runs — the same property the simulator itself is
//! held to.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::parse::{CallKind, FileFacts};
use crate::rules::{tier_of, LocalOutcome, Rule, Violation};

/// One flagged (or waived) reachability finding, for the JSON artifact.
#[derive(Debug, Clone)]
pub struct ReachEntry {
    /// Qualified function name (`World::step`).
    pub function: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based `fn` declaration line.
    pub line: usize,
    /// Rendered shortest witness path down to the panic site.
    pub witness: String,
    /// Suppressed by an `allow(panic-reach)` waiver.
    pub waived: bool,
}

/// Call-graph shape and reachability results, for the JSON artifact.
#[derive(Debug, Clone, Default)]
pub struct GraphStats {
    /// Non-test function items in the graph.
    pub functions: usize,
    /// Distinct resolved call edges.
    pub edges: usize,
    /// Nodes declared with a bare `pub`.
    pub public_functions: usize,
    /// Functions containing at least one unwaived panic site.
    pub panic_sources: usize,
    /// Flagged public functions (including waived ones, for transparency).
    pub flagged: Vec<ReachEntry>,
}

/// The graph phase's output: `panic-reach` violations (plus unused
/// reach-waiver diagnostics) and the artifact stats.
#[derive(Debug, Clone, Default)]
pub struct GraphAnalysis {
    /// Violations to merge into the per-file results.
    pub violations: Vec<Violation>,
    /// Shape + reachability summary for `SIMLINT.json`.
    pub stats: GraphStats,
}

struct Node {
    file: usize,
    name: String,
    qualifier: Option<String>,
    module_last: String,
    file_stem: String,
    crate_norm: String,
    line: usize,
    is_pub: bool,
    reach_enforced: bool,
}

/// The crate a workspace-relative path belongs to, hyphens normalized.
fn crate_norm(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    let name = match parts.first() {
        Some(&"crates") if parts.len() >= 2 => parts[1],
        // Its own package, so bare calls from the root facade never
        // resolve into it.
        Some(&"perfbench") => "perfbench",
        _ => "spider_repro",
    };
    name.replace('-', "_")
}

/// The file's stem (`contention` for `crates/geo/src/contention.rs`) —
/// usually the module name the file is mounted as.
fn file_stem(rel: &str) -> String {
    rel.rsplit('/')
        .next()
        .unwrap_or("")
        .trim_end_matches(".rs")
        .to_string()
}

/// How a panic site renders at the end of a witness path.
fn site_render(detail: &str) -> String {
    match detail {
        "unwrap" | "expect" => format!("{detail}()"),
        other => format!("{other}!"),
    }
}

/// Build the graph over `files` and run the reachability analysis.
/// `outcomes` must be parallel to `files` (it carries which panic sites
/// were waived locally, and the `panic-reach` waivers to resolve here).
pub fn analyze(files: &[FileFacts], outcomes: &[LocalOutcome]) -> GraphAnalysis {
    debug_assert_eq!(files.len(), outcomes.len());
    let mut nodes: Vec<Node> = Vec::new();
    // (file index, function index within file) -> node id.
    let mut node_of: BTreeMap<(usize, usize), usize> = BTreeMap::new();

    for (fx, facts) in files.iter().enumerate() {
        let tier = tier_of(&facts.rel);
        if tier == crate::rules::Tier::Test {
            continue;
        }
        let cn = crate_norm(&facts.rel);
        let stem = file_stem(&facts.rel);
        for (ix, f) in facts.functions.iter().enumerate() {
            if f.test {
                continue;
            }
            node_of.insert((fx, ix), nodes.len());
            nodes.push(Node {
                file: fx,
                name: f.name.clone(),
                qualifier: f.qualifier.clone(),
                module_last: f.module.rsplit("::").next().unwrap_or("").to_string(),
                file_stem: stem.clone(),
                crate_norm: cn.clone(),
                line: f.line,
                is_pub: f.is_pub,
                reach_enforced: tier.reach_enforced(),
            });
        }
    }

    // Name index for resolution.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (nx, n) in nodes.iter().enumerate() {
        by_name.entry(n.name.as_str()).or_default().push(nx);
    }

    // Resolve call sites to edges (deduplicated, deterministic order).
    let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (fx, facts) in files.iter().enumerate() {
        for call in &facts.calls {
            let Some(&caller) = node_of.get(&(fx, call.caller)) else {
                continue; // test function or test-tier file
            };
            let Some(last) = call.segs.last() else {
                continue;
            };
            let Some(cands) = by_name.get(last.as_str()) else {
                continue;
            };
            match call.kind {
                CallKind::Method => {
                    for &cx in cands {
                        if nodes[cx].qualifier.is_some() {
                            edges.insert((caller, cx));
                        }
                    }
                }
                CallKind::Path if call.segs.len() == 1 => {
                    // Bare call: free functions in the caller's crate.
                    for &cx in cands {
                        if nodes[cx].qualifier.is_none()
                            && nodes[cx].crate_norm == nodes[caller].crate_norm
                        {
                            edges.insert((caller, cx));
                        }
                    }
                }
                CallKind::Path => {
                    let q = &call.segs[call.segs.len() - 2];
                    let q = if q == "Self" {
                        match &nodes[caller].qualifier {
                            Some(s) => s.clone(),
                            None => continue,
                        }
                    } else {
                        q.clone()
                    };
                    let qn = q.replace('-', "_");
                    for &cx in cands {
                        let n = &nodes[cx];
                        if n.qualifier.as_deref() == Some(q.as_str())
                            || n.module_last == q
                            || n.file_stem == q
                            || n.crate_norm == qn
                        {
                            edges.insert((caller, cx));
                        }
                    }
                }
            }
        }
    }

    // Reverse adjacency (callee -> callers), sorted by construction.
    let mut radj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for &(a, b) in &edges {
        radj[b].push(a);
    }
    for list in &mut radj {
        list.sort_unstable();
        list.dedup();
    }

    // Panic sources: nodes containing an unwaived, non-test panic site in
    // a reach-enforced file. Remember the first site per node for the
    // witness tail.
    let mut source_site: BTreeMap<usize, (usize, String)> = BTreeMap::new();
    for (fx, facts) in files.iter().enumerate() {
        if !tier_of(&facts.rel).reach_enforced() {
            continue;
        }
        for (sx, site) in facts.sites.iter().enumerate() {
            if site.rule != Rule::PanicPath || site.test {
                continue;
            }
            if outcomes[fx].waived_panic_sites.contains(&sx) {
                continue;
            }
            let Some(func) = site.func else { continue };
            let Some(&nx) = node_of.get(&(fx, func)) else {
                continue;
            };
            source_site
                .entry(nx)
                .or_insert((site.line, site_render(&site.detail)));
        }
    }

    // Multi-source BFS toward callers; `hop[n]` points one step closer to
    // the panic. Seeds and neighbors are visited in sorted order, so ties
    // resolve deterministically.
    let mut dist: Vec<Option<u32>> = vec![None; nodes.len()];
    let mut hop: Vec<usize> = vec![usize::MAX; nodes.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &nx in source_site.keys() {
        dist[nx] = Some(0);
        queue.push_back(nx);
    }
    while let Some(nx) = queue.pop_front() {
        let d = match dist[nx] {
            Some(d) => d,
            None => continue,
        };
        for &caller in &radj[nx] {
            if dist[caller].is_none() {
                dist[caller] = Some(d + 1);
                hop[caller] = nx;
                queue.push_back(caller);
            }
        }
    }

    let qname = |n: &Node| match &n.qualifier {
        Some(q) => format!("{q}::{}", n.name),
        None => n.name.clone(),
    };
    let witness = |start: usize| -> String {
        let mut parts: Vec<String> = Vec::new();
        let mut cur = start;
        loop {
            let n = &nodes[cur];
            parts.push(format!("{} ({}:{})", qname(n), files[n.file].rel, n.line));
            if dist[cur] == Some(0) {
                break;
            }
            let next = hop[cur];
            if next == usize::MAX {
                break; // unreachable by construction
            }
            cur = next;
        }
        let tail = match source_site.get(&cur) {
            Some((line, what)) => {
                format!(" -> {} at {}:{}", what, files[nodes[cur].file].rel, line)
            }
            None => String::new(),
        };
        format!("{}{}", parts.join(" -> "), tail)
    };

    let mut out = GraphAnalysis {
        stats: GraphStats {
            functions: nodes.len(),
            edges: edges.len(),
            public_functions: nodes.iter().filter(|n| n.is_pub).count(),
            panic_sources: source_site.len(),
            flagged: Vec::new(),
        },
        ..GraphAnalysis::default()
    };

    // Flag public functions at distance >= 1, honoring reach waivers on
    // the declaration line (trailing) or the line directly above.
    let mut waiver_used: Vec<Vec<bool>> = outcomes
        .iter()
        .map(|o| vec![false; o.reach_waivers.len()])
        .collect();
    for (nx, n) in nodes.iter().enumerate() {
        if !n.is_pub || !n.reach_enforced {
            continue;
        }
        let Some(d) = dist[nx] else { continue };
        if d < 1 {
            continue;
        }
        let waiver = outcomes[n.file]
            .reach_waivers
            .iter()
            .position(|w| w.line + 1 == n.line || (w.standalone && w.line + 2 == n.line));
        let path = witness(nx);
        if let Some(wx) = waiver {
            waiver_used[n.file][wx] = true;
            out.stats.flagged.push(ReachEntry {
                function: qname(n),
                file: files[n.file].rel.clone(),
                line: n.line,
                witness: path,
                waived: true,
            });
            continue;
        }
        out.stats.flagged.push(ReachEntry {
            function: qname(n),
            file: files[n.file].rel.clone(),
            line: n.line,
            witness: path.clone(),
            waived: false,
        });
        out.violations.push(Violation {
            file: files[n.file].rel.clone(),
            line: n.line,
            code: Rule::PanicReach.name().to_string(),
            message: format!(
                "pub fn `{}` can transitively reach an unwaived panic path: {} \
                 (fix the panic, or justify with `// simlint: allow(panic-reach) — <reason>`)",
                qname(n),
                path
            ),
        });
    }

    // Reach waivers that shielded nothing are stale, like any other
    // waiver.
    for (fx, outcome) in outcomes.iter().enumerate() {
        for (wx, w) in outcome.reach_waivers.iter().enumerate() {
            if !waiver_used[fx][wx] {
                out.violations.push(Violation {
                    file: files[fx].rel.clone(),
                    line: w.line + 1,
                    code: "waiver-unused".to_string(),
                    message: "waiver for `panic-reach` suppresses nothing (no reachable \
                              panic from the next `fn`); remove it"
                        .to_string(),
                });
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::extract;
    use crate::rules::lint_local;

    fn analyze_srcs(srcs: &[(&str, &str)]) -> GraphAnalysis {
        let files: Vec<FileFacts> = srcs.iter().map(|(rel, src)| extract(rel, src)).collect();
        let outcomes: Vec<_> = files.iter().map(lint_local).collect();
        analyze(&files, &outcomes)
    }

    #[test]
    fn cross_file_reachability_with_witness() {
        let g = analyze_srcs(&[
            (
                "crates/spider-core/src/world.rs",
                "pub fn drive() { geo::rank::pick(0); }\n",
            ),
            (
                "crates/geo/src/rank.rs",
                "pub fn pick(i: usize) -> u8 { TABLE.get(i).copied().unwrap() }\n",
            ),
        ]);
        // Both pub fns are flagged: `pick` holds the site (distance 0 — a
        // panic-path violation, not panic-reach) and `drive` reaches it.
        let flagged: Vec<&ReachEntry> = g.stats.flagged.iter().filter(|e| !e.waived).collect();
        assert_eq!(flagged.len(), 1, "{:?}", g.stats.flagged);
        assert_eq!(flagged[0].function, "drive");
        assert!(
            flagged[0]
                .witness
                .contains("drive (crates/spider-core/src/world.rs:1)")
                && flagged[0]
                    .witness
                    .contains("pick (crates/geo/src/rank.rs:1)")
                && flagged[0]
                    .witness
                    .contains("unwrap() at crates/geo/src/rank.rs:1"),
            "{}",
            flagged[0].witness
        );
        assert_eq!(g.stats.panic_sources, 1);
        assert_eq!(g.violations.len(), 1);
    }

    #[test]
    fn method_calls_resolve_to_impl_methods() {
        let g = analyze_srcs(&[(
            "crates/spider-core/src/world.rs",
            "pub struct W;\n\
             impl W {\n\
                 pub fn step(&mut self) { self.advance(); }\n\
                 fn advance(&mut self) { panic!(\"boom\") }\n\
             }\n",
        )]);
        assert_eq!(g.violations.len(), 1, "{:?}", g.violations);
        assert!(g.violations[0].message.contains("W::step"));
        assert!(g.violations[0].message.contains("panic! at"));
    }

    #[test]
    fn bin_tier_panics_are_not_sources() {
        let g = analyze_srcs(&[
            (
                "crates/spider-core/src/world.rs",
                "pub fn run() { experiments_helper(); }\n",
            ),
            (
                "crates/experiments/src/main.rs",
                "pub fn experiments_helper() { x.unwrap(); }\n",
            ),
        ]);
        assert!(g.violations.is_empty(), "{:?}", g.violations);
        assert_eq!(g.stats.panic_sources, 0);
    }

    #[test]
    fn perfbench_is_neither_a_source_nor_a_bare_call_target() {
        let g = analyze_srcs(&[
            (
                "crates/sim-engine/src/time.rs",
                "pub fn from_secs_f64(x: f64) -> u64 { x.round() as u64 }\n",
            ),
            ("src/lib.rs", "pub fn facade() { helper(); }\n"),
            (
                "perfbench/src/measure.rs",
                "pub struct Rounds;\n\
                 impl Rounds {\n\
                     pub fn round(&mut self) { take().expect(\"calibrated\"); }\n\
                 }\n\
                 pub fn helper() { geo::rank::pick(0); }\n",
            ),
            (
                "crates/geo/src/rank.rs",
                "pub fn pick(i: usize) -> u8 { TABLE.get(i).copied().unwrap() }\n",
            ),
        ]);
        // `x.round()` still resolves to `Rounds::round` by name, but a
        // benchmark-harness expect() is not a panic source; and the root
        // facade's bare `helper()` is not perfbench's `helper`.
        let reach: Vec<&Violation> = g
            .violations
            .iter()
            .filter(|v| v.code == "panic-reach")
            .collect();
        assert!(reach.is_empty(), "{reach:?}");
        assert_eq!(g.stats.panic_sources, 1, "only geo's unwrap");
    }

    #[test]
    fn waived_panic_site_is_not_a_source() {
        let g = analyze_srcs(&[(
            "crates/spider-core/src/world.rs",
            "pub fn entry() { deep(None); }\n\
             fn deep(v: Option<u8>) -> u8 {\n\
                 // simlint: allow(panic-path) — invariant: callers pass Some\n\
                 v.unwrap()\n\
             }\n",
        )]);
        assert!(g.violations.is_empty(), "{:?}", g.violations);
    }

    #[test]
    fn shortest_path_is_chosen() {
        let g = analyze_srcs(&[(
            "crates/spider-core/src/world.rs",
            "pub fn entry() { long_a(); short(); }\n\
             fn long_a() { long_b(); }\n\
             fn long_b() { short(); }\n\
             fn short() { panic!(\"x\") }\n",
        )]);
        let v: Vec<&Violation> = g
            .violations
            .iter()
            .filter(|v| v.code == "panic-reach")
            .collect();
        assert_eq!(v.len(), 1);
        // entry -> short -> panic, not entry -> long_a -> long_b -> short.
        assert!(
            v[0].message.contains("entry")
                && v[0].message.contains("short")
                && !v[0].message.contains("long_a"),
            "{}",
            v[0].message
        );
    }
}
