//! The machine-readable summary written to `target/SIMLINT.json`.
//!
//! Written in a fixed layout with strings escaped by the workspace's
//! `json` crate; the schema is small and stable:
//!
//! ```json
//! {
//!   "files_checked": 115,
//!   "errors": 0,
//!   "violations": [
//!     {"file": "…", "line": 12, "rule": "unordered-map", "message": "…"}
//!   ],
//!   "cache": {"enabled": true, "hits": 115, "misses": 0, "warm": true},
//!   "call_graph": {"functions": 2481, "edges": 7010, "public_functions": 1024},
//!   "reachability": {
//!     "panic_sources": 0,
//!     "flagged": [
//!       {"function": "World::step", "file": "…", "line": 40,
//!        "witness": "World::step (…:40) -> … -> unwrap() at …:97",
//!        "waived": true}
//!     ]
//!   }
//! }
//! ```
//!
//! `reachability.flagged` includes **waived** findings on purpose: the
//! artifact is the audit trail for exceptions, not just failures.

use crate::graph::GraphStats;
use crate::rules::Violation;

/// Cache effectiveness for one run.
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// False when `--no-cache` disabled it.
    pub enabled: bool,
    /// Files whose facts came from the cache.
    pub hits: usize,
    /// Files lexed + parsed fresh.
    pub misses: usize,
}

impl CacheStats {
    /// True when every file hit the cache.
    pub fn warm(&self) -> bool {
        self.misses == 0 && self.hits > 0
    }
}

/// Aggregate lint outcome for one run.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Number of `.rs` files scanned.
    pub files_checked: usize,
    /// Everything flagged, sorted by file then line.
    pub violations: Vec<Violation>,
    /// Incremental-cache effectiveness.
    pub cache: CacheStats,
    /// Call-graph shape + reachability findings.
    pub graph: GraphStats,
}

impl Summary {
    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Render `summary` as the `target/SIMLINT.json` document.
pub fn json_summary(summary: &Summary) -> String {
    let mut out = String::with_capacity(1024 + summary.violations.len() * 128);
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"files_checked\": {},\n  \"errors\": {},\n  \"violations\": [",
        summary.files_checked,
        summary.violations.len()
    ));
    for (i, v) in summary.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
            json::string(&v.file),
            v.line,
            json::string(&v.code),
            json::string(&v.message)
        ));
    }
    if !summary.violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str(&format!(
        "  \"cache\": {{\"enabled\": {}, \"hits\": {}, \"misses\": {}, \"warm\": {}}},\n",
        summary.cache.enabled,
        summary.cache.hits,
        summary.cache.misses,
        summary.cache.warm()
    ));
    out.push_str(&format!(
        "  \"call_graph\": {{\"functions\": {}, \"edges\": {}, \"public_functions\": {}}},\n",
        summary.graph.functions, summary.graph.edges, summary.graph.public_functions
    ));
    out.push_str(&format!(
        "  \"reachability\": {{\"panic_sources\": {}, \"flagged\": [",
        summary.graph.panic_sources
    ));
    for (i, e) in summary.graph.flagged.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"function\": {}, \"file\": {}, \"line\": {}, \"witness\": {}, \"waived\": {}}}",
            json::string(&e.function),
            json::string(&e.file),
            e.line,
            json::string(&e.witness),
            e.waived
        ));
    }
    if !summary.graph.flagged.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]}\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ReachEntry;
    use crate::rules::Violation;

    #[test]
    fn clean_summary_serializes() {
        let s = Summary {
            files_checked: 3,
            cache: CacheStats {
                enabled: true,
                hits: 3,
                misses: 0,
            },
            ..Summary::default()
        };
        let json = json_summary(&s);
        assert!(json.contains("\"files_checked\": 3"));
        assert!(json.contains("\"errors\": 0"));
        assert!(json.contains("\"violations\": []"));
        assert!(json.contains(
            "\"cache\": {\"enabled\": true, \"hits\": 3, \"misses\": 0, \"warm\": true}"
        ));
        assert!(json.contains("\"call_graph\""));
        assert!(json.contains("\"reachability\""));
    }

    #[test]
    fn cold_run_is_not_warm() {
        let s = CacheStats {
            enabled: true,
            hits: 0,
            misses: 5,
        };
        assert!(!s.warm());
        let mixed = CacheStats {
            enabled: true,
            hits: 4,
            misses: 1,
        };
        assert!(!mixed.warm());
    }

    #[test]
    fn violations_escape_cleanly() {
        let s = Summary {
            files_checked: 1,
            violations: vec![Violation {
                file: "a.rs".to_string(),
                line: 9,
                code: "panic-path".to_string(),
                message: "uses `unwrap()` on \"stuff\"".to_string(),
            }],
            ..Summary::default()
        };
        let json = json_summary(&s);
        assert!(json.contains("\"errors\": 1"));
        assert!(json.contains("\\\"stuff\\\""));
        assert!(json.contains("\"line\": 9"));
    }

    #[test]
    fn flagged_entries_serialize_with_witness() {
        let s = Summary {
            files_checked: 1,
            graph: GraphStats {
                functions: 2,
                edges: 1,
                public_functions: 1,
                panic_sources: 1,
                flagged: vec![ReachEntry {
                    function: "World::step".to_string(),
                    file: "crates/spider-core/src/world.rs".to_string(),
                    line: 40,
                    witness: "World::step (w.rs:40) -> unwrap() at w.rs:97".to_string(),
                    waived: true,
                }],
            },
            ..Summary::default()
        };
        let json = json_summary(&s);
        assert!(json.contains("\"panic_sources\": 1"));
        assert!(json.contains("\"function\": \"World::step\""));
        assert!(json.contains("\"waived\": true"));
        assert!(json.contains("unwrap() at w.rs:97"));
    }
}
