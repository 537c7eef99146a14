//! The incremental fact cache (`target/simlint-cache.json`).
//!
//! [`crate::parse::FileFacts`] is a pure function of a file's bytes, so
//! it is cached per **content hash** (FNV-1a 64): a warm run re-hashes
//! every file (cheap) and skips lexing + parsing for unchanged ones
//! (the expensive part). Only the *syntax facts* are cached — the rule
//! matching and the call-graph/reachability phases re-run every time,
//! which is what keeps cross-file diagnostics (`panic-reach`,
//! workspace-wide `waiver-unused`) correct when one file changes out
//! from under its unchanged neighbors.
//!
//! The cache document embeds a fingerprint derived from
//! [`crate::rules::RULES_REVISION`]; bumping that constant (any change
//! to parsing or rule semantics) invalidates every entry at once. Any
//! read failure — missing file, malformed JSON, wrong fingerprint,
//! wrong shape — degrades silently to a cold run: the cache can slow
//! simlint down, never wrong it.
//!
//! The document is read with the workspace's strict `json` reader; the
//! schema on top accepts only the shapes the writer emits (integers must
//! be non-negative and fit `usize`), and every surprise returns `None`.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use json::Value;

use crate::parse::{CallFact, CallKind, FileFacts, FnFact, SiteFact, WaiverDiag, WaiverFact};
use crate::rules::{Rule, RULES_REVISION};

/// FNV-1a 64-bit over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fingerprint() -> String {
    format!("simlint-facts-r{RULES_REVISION}")
}

/// A loaded cache: content-hash-keyed facts per workspace-relative path.
#[derive(Debug, Default)]
pub struct Cache {
    entries: BTreeMap<String, (u64, FileFacts)>,
}

impl Cache {
    /// Load from `path`. Any failure (missing, corrupt, stale
    /// fingerprint) yields an empty cache — a cold run, never an error.
    pub fn load(path: &Path) -> Cache {
        let Ok(text) = fs::read_to_string(path) else {
            return Cache::default();
        };
        parse_cache(&text).unwrap_or_default()
    }

    /// The cached facts for `rel`, iff its content hash still matches.
    pub fn lookup(&self, rel: &str, hash: u64) -> Option<&FileFacts> {
        match self.entries.get(rel) {
            Some((h, facts)) if *h == hash => Some(facts),
            _ => None,
        }
    }
}

/// Write the cache document for this run's `(rel, hash, facts)` set.
pub fn store(path: &Path, entries: &[(String, u64, &FileFacts)]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut out = String::with_capacity(entries.len() * 512);
    out.push_str("{\"fingerprint\": ");
    out.push_str(&json::string(&fingerprint()));
    out.push_str(", \"files\": [");
    for (i, (rel, hash, facts)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n {\"path\": ");
        out.push_str(&json::string(rel));
        out.push_str(&format!(", \"hash\": \"{hash:016x}\", \"facts\": "));
        write_facts(&mut out, facts);
        out.push('}');
    }
    out.push_str("\n]}\n");
    fs::write(path, out)
}

// ---------------------------------------------------------------------
// Facts -> JSON

fn write_facts(out: &mut String, f: &FileFacts) {
    out.push_str("{\"rel\": ");
    out.push_str(&json::string(&f.rel));
    out.push_str(", \"fns\": [");
    for (i, x) in f.functions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\": {}, \"qual\": {}, \"mod\": {}, \"line\": {}, \"end\": {}, \
             \"pub\": {}, \"test\": {}}}",
            json::string(&x.name),
            match &x.qualifier {
                Some(q) => json::string(q),
                None => "null".to_string(),
            },
            json::string(&x.module),
            x.line,
            x.end_line,
            x.is_pub,
            x.test
        ));
    }
    out.push_str("], \"calls\": [");
    for (i, x) in f.calls.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let segs: Vec<String> = x.segs.iter().map(|s| json::string(s)).collect();
        out.push_str(&format!(
            "{{\"caller\": {}, \"kind\": \"{}\", \"segs\": [{}], \"line\": {}}}",
            x.caller,
            match x.kind {
                CallKind::Method => "m",
                CallKind::Path => "p",
            },
            segs.join(","),
            x.line
        ));
    }
    out.push_str("], \"sites\": [");
    for (i, x) in f.sites.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\": {}, \"detail\": {}, \"line\": {}, \"func\": {}, \"test\": {}}}",
            json::string(x.rule.name()),
            json::string(&x.detail),
            x.line,
            match x.func {
                Some(n) => n.to_string(),
                None => "null".to_string(),
            },
            x.test
        ));
    }
    out.push_str("], \"waivers\": [");
    for (i, x) in f.waivers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"line\": {}, \"rule\": {}, \"standalone\": {}}}",
            x.line,
            json::string(x.rule.name()),
            x.standalone
        ));
    }
    out.push_str("], \"diags\": [");
    for (i, x) in f.waiver_diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"line\": {}, \"code\": {}, \"msg\": {}}}",
            x.line,
            json::string(&x.code),
            json::string(&x.message)
        ));
    }
    out.push_str("]}");
}

// ---------------------------------------------------------------------
// JSON -> Facts

/// A non-negative integer that fits `usize` (line numbers, indices).
fn num(v: &Value<'_>) -> Option<usize> {
    usize::try_from(v.as_u64()?).ok()
}

fn parse_cache(text: &str) -> Option<Cache> {
    let root = json::parse(text).ok()?;
    if root.get("fingerprint")?.as_str()? != fingerprint() {
        return None;
    }
    let mut entries = BTreeMap::new();
    for item in root.get("files")?.as_array()? {
        let rel = item.get("path")?.as_str()?.to_string();
        let hash = u64::from_str_radix(item.get("hash")?.as_str()?, 16).ok()?;
        let facts = parse_facts(item.get("facts")?)?;
        entries.insert(rel, (hash, facts));
    }
    Some(Cache { entries })
}

fn parse_facts(v: &Value<'_>) -> Option<FileFacts> {
    let mut facts = FileFacts {
        rel: v.get("rel")?.as_str()?.to_string(),
        ..FileFacts::default()
    };
    for x in v.get("fns")?.as_array()? {
        facts.functions.push(FnFact {
            name: x.get("name")?.as_str()?.to_string(),
            qualifier: match x.get("qual")? {
                Value::Null => None,
                other => Some(other.as_str()?.to_string()),
            },
            module: x.get("mod")?.as_str()?.to_string(),
            line: num(x.get("line")?)?,
            end_line: num(x.get("end")?)?,
            is_pub: x.get("pub")?.as_bool()?,
            test: x.get("test")?.as_bool()?,
        });
    }
    for x in v.get("calls")?.as_array()? {
        let mut segs = Vec::new();
        for s in x.get("segs")?.as_array()? {
            segs.push(s.as_str()?.to_string());
        }
        facts.calls.push(CallFact {
            caller: num(x.get("caller")?)?,
            kind: match x.get("kind")?.as_str()? {
                "m" => CallKind::Method,
                "p" => CallKind::Path,
                _ => return None,
            },
            segs,
            line: num(x.get("line")?)?,
        });
    }
    for x in v.get("sites")?.as_array()? {
        facts.sites.push(SiteFact {
            rule: Rule::from_name(x.get("rule")?.as_str()?)?,
            detail: x.get("detail")?.as_str()?.to_string(),
            line: num(x.get("line")?)?,
            func: match x.get("func")? {
                Value::Null => None,
                other => Some(num(other)?),
            },
            test: x.get("test")?.as_bool()?,
        });
    }
    for x in v.get("waivers")?.as_array()? {
        facts.waivers.push(WaiverFact {
            line: num(x.get("line")?)?,
            rule: Rule::from_name(x.get("rule")?.as_str()?)?,
            standalone: x.get("standalone")?.as_bool()?,
        });
    }
    for x in v.get("diags")?.as_array()? {
        facts.waiver_diags.push(WaiverDiag {
            line: num(x.get("line")?)?,
            code: x.get("code")?.as_str()?.to_string(),
            message: x.get("msg")?.as_str()?.to_string(),
        });
    }
    Some(facts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::extract;

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"acb"));
    }

    #[test]
    fn facts_roundtrip_through_cache_file() {
        let src = "use std::collections::HashMap; // simlint: allow(unordered-map) — docs\n\
                   pub fn entry() { mid(); }\n\
                   fn mid(v: Option<u8>) -> u8 { v.unwrap() }\n\
                   // simlint: allow(bogus) — not a rule\n";
        let facts = extract("crates/spider-core/src/x.rs", src);
        assert!(!facts.functions.is_empty());
        assert!(!facts.calls.is_empty());
        assert!(!facts.sites.is_empty());
        assert!(!facts.waivers.is_empty());
        assert!(!facts.waiver_diags.is_empty());

        let dir = std::env::temp_dir().join(format!("simlint-cache-test-{}", std::process::id()));
        let path = dir.join("cache.json");
        let hash = fnv1a64(src.as_bytes());
        store(
            &path,
            &[("crates/spider-core/src/x.rs".to_string(), hash, &facts)],
        )
        .unwrap();

        let cache = Cache::load(&path);
        let loaded = cache.lookup("crates/spider-core/src/x.rs", hash).unwrap();
        assert_eq!(loaded, &facts);
        // Stale hash misses.
        assert!(cache
            .lookup("crates/spider-core/src/x.rs", hash ^ 1)
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_or_stale_cache_degrades_to_cold() {
        let dir = std::env::temp_dir().join(format!("simlint-cache-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");

        std::fs::write(&path, "{not json").unwrap();
        assert!(Cache::load(&path).entries.is_empty());

        std::fs::write(
            &path,
            "{\"fingerprint\": \"simlint-facts-r0\", \"files\": []}",
        )
        .unwrap();
        assert!(Cache::load(&path).entries.is_empty());

        // Missing file entirely.
        assert!(Cache::load(&dir.join("nope.json")).entries.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_documents_reject_trailing_garbage_and_non_integers() {
        // The facts carry every literal the writer emits: `true`/`false`
        // for `pub`/`test`, `null` for an absent qualifier or function.
        let src = "pub fn a() { b(); }\nfn b() -> u8 { None::<u8>.unwrap() }\n";
        let facts = extract("crates/spider-core/src/y.rs", src);
        let hash = fnv1a64(src.as_bytes());
        let dir = std::env::temp_dir().join(format!("simlint-cache-strict-{}", std::process::id()));
        let path = dir.join("cache.json");
        store(
            &path,
            &[("crates/spider-core/src/y.rs".to_string(), hash, &facts)],
        )
        .unwrap();
        let good = std::fs::read_to_string(&path).unwrap();
        for literal in ["true", "false", "null"] {
            assert!(good.contains(literal), "{literal} missing from {good}");
        }
        let load = |text: &str| {
            std::fs::write(&path, text).unwrap();
            Cache::load(&path)
        };
        assert_eq!(
            load(&good).lookup("crates/spider-core/src/y.rs", hash),
            Some(&facts)
        );
        // A `\u0041`-style escape decodes: the key is the unescaped path.
        let escaped = good.replacen(
            "\"path\": \"crates/spider-core/src/y.rs\"",
            "\"path\": \"crates/spider-core/src/\\u0079.rs\"",
            1,
        );
        assert_ne!(escaped, good);
        assert_eq!(
            load(&escaped).lookup("crates/spider-core/src/y.rs", hash),
            Some(&facts)
        );
        // Trailing garbage, and a float or negative number where an
        // integer is expected, each degrade to a cold run.
        let line = good.find("\"line\": ").unwrap() + "\"line\": ".len();
        let digits = good[line..].find(|c: char| !c.is_ascii_digit()).unwrap();
        for bad in [
            format!("{good} extra"),
            format!("{}1.5{}", &good[..line], &good[line + digits..]),
            format!("{}-1{}", &good[..line], &good[line + digits..]),
        ] {
            assert!(load(&bad).entries.is_empty(), "accepted: {bad}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
