//! The append-only campaign manifest.
//!
//! One JSON object per line, written as each shard finishes:
//!
//! ```text
//! {"shard":"(1) Channel 1, Multi-AP","hash":"9f…","wall_ms":412,"cache":"miss","path":"reports/9f….json"}
//! ```
//!
//! The manifest is the campaign's durable progress log. Replay is
//! deliberately forgiving: a process killed mid-append leaves a
//! truncated final line, which replay skips — the corresponding shard
//! simply re-runs. Replayed hashes are only trusted when the record
//! file they point at actually exists, so deleting a record (or the
//! whole `reports/` directory) also re-runs those shards.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// One completed shard, as logged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The shard's human-readable key (the experiment label).
    pub shard: String,
    /// The shard's content hash.
    pub hash: String,
    /// Wall-clock time the shard took, milliseconds (0 for cache hits).
    pub wall_ms: u64,
    /// Whether the shard was served from cache.
    pub cache_hit: bool,
    /// Record path relative to the cache directory.
    pub path: String,
}

impl ManifestEntry {
    /// Render as one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        format!(
            r#"{{"shard":{},"hash":{},"wall_ms":{},"cache":{},"path":{}}}"#,
            json::string(&self.shard),
            json::string(&self.hash),
            self.wall_ms,
            if self.cache_hit {
                "\"hit\""
            } else {
                "\"miss\""
            },
            json::string(&self.path),
        )
    }

    /// Parse one line; `None` for anything malformed (corrupt tail).
    pub fn parse_line(line: &str) -> Option<ManifestEntry> {
        let root = parse_flat(line, &["shard", "hash", "wall_ms", "cache", "path"])?;
        let text = |key: &str| Some(root.get(key)?.as_str()?.to_string());
        let cache_hit = match root.get("cache")?.as_str()? {
            "hit" => true,
            "miss" => false,
            _ => return None,
        };
        Some(ManifestEntry {
            shard: text("shard")?,
            hash: text("hash")?,
            wall_ms: root.get("wall_ms")?.as_u64()?,
            cache_hit,
            path: text("path")?,
        })
    }
}

/// One fleet scheduling event (assignment, completion, crash, retry,
/// respawn), as logged by multi-process campaigns.
///
/// Fleet notes share the manifest file with [`ManifestEntry`] lines but
/// lead with a `"fleet"` key, which [`ManifestEntry::parse_line`] rejects
/// — so [`Manifest::replay`] (the resume path) skips them untouched and an
/// interrupted campaign resumes exactly as before. They are the forensic
/// record: [`Manifest::replay_fleet`] reconstructs what the fleet did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetNote {
    /// Event kind: `"assigned"`, `"completed"`, `"worker-died"`,
    /// `"requeued"`, `"respawned"`, `"worker-ready"`.
    pub kind: String,
    /// The shard involved, when the event concerns one.
    pub shard: Option<String>,
    /// The worker slot involved, when the event concerns one.
    pub worker: Option<u64>,
    /// 1-based attempt number, for assignments and requeues.
    pub attempt: Option<u64>,
    /// Free-form cause or context (crash reasons, backoff).
    pub detail: Option<String>,
}

impl FleetNote {
    /// Render as one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = format!(r#"{{"fleet":{}"#, json::string(&self.kind));
        if let Some(shard) = &self.shard {
            out.push_str(&format!(r#","shard":{}"#, json::string(shard)));
        }
        if let Some(worker) = self.worker {
            out.push_str(&format!(r#","worker":{worker}"#));
        }
        if let Some(attempt) = self.attempt {
            out.push_str(&format!(r#","attempt":{attempt}"#));
        }
        if let Some(detail) = &self.detail {
            out.push_str(&format!(r#","detail":{}"#, json::string(detail)));
        }
        out.push('}');
        out
    }

    /// Parse one line; `None` for non-fleet or malformed lines.
    pub fn parse_line(line: &str) -> Option<FleetNote> {
        let root = parse_flat(line, &["fleet", "shard", "worker", "attempt", "detail"])?;
        // An optional key may be absent, but not present with a wrong type.
        let text = |key: &str| match root.get(key) {
            None => Some(None),
            Some(v) => Some(Some(v.as_str()?.to_string())),
        };
        let int = |key: &str| match root.get(key) {
            None => Some(None),
            Some(v) => Some(Some(v.as_u64()?)),
        };
        Some(FleetNote {
            kind: root.get("fleet")?.as_str()?.to_string(),
            shard: text("shard")?,
            worker: int("worker")?,
            attempt: int("attempt")?,
            detail: text("detail")?,
        })
    }
}

/// Parse one manifest line as an object whose keys all come from
/// `allowed` — so a shard entry and a fleet note never parse as each
/// other.
fn parse_flat<'a>(line: &'a str, allowed: &[&str]) -> Option<json::Value<'a>> {
    let root = json::parse(line).ok()?;
    let known = root
        .as_object()?
        .iter()
        .all(|(key, _)| allowed.contains(&key.as_ref()));
    known.then_some(root)
}

/// An open manifest, appendable from any worker thread.
#[derive(Debug)]
pub struct Manifest {
    file: Mutex<File>,
}

/// The manifest's file name inside a campaign cache directory.
pub const MANIFEST_FILE: &str = "manifest.jsonl";

impl Manifest {
    /// The manifest path for a cache directory.
    pub fn path_in(cache_dir: &Path) -> PathBuf {
        cache_dir.join(MANIFEST_FILE)
    }

    /// Open (creating if needed) for appending.
    pub fn open(cache_dir: &Path) -> io::Result<Manifest> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(Self::path_in(cache_dir))?;
        Ok(Manifest {
            file: Mutex::new(file),
        })
    }

    /// Append one entry and flush, so a kill right after a shard
    /// completes still finds it logged on resume.
    pub fn append(&self, entry: &ManifestEntry) -> io::Result<()> {
        // Poison recovery: a worker that panicked mid-append leaves at
        // worst a truncated line, which `replay` already skips — keep
        // logging the shards that do finish.
        let mut file = self.file.lock().unwrap_or_else(|p| p.into_inner());
        writeln!(file, "{}", entry.to_line())?;
        file.flush()
    }

    /// Append one fleet scheduling note and flush.
    pub fn append_fleet(&self, note: &FleetNote) -> io::Result<()> {
        // Same poison recovery as `append`: a torn line is skipped on replay.
        let mut file = self.file.lock().unwrap_or_else(|p| p.into_inner());
        writeln!(file, "{}", note.to_line())?;
        file.flush()
    }

    /// Replay only the fleet scheduling notes (crash forensics; the
    /// resume path uses [`Manifest::replay`], which skips these lines).
    pub fn replay_fleet(cache_dir: &Path) -> io::Result<Vec<FleetNote>> {
        let file = match File::open(Self::path_in(cache_dir)) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut notes = Vec::new();
        for line in BufReader::new(file).lines() {
            let line = line?;
            if let Some(note) = FleetNote::parse_line(&line) {
                notes.push(note);
            }
        }
        Ok(notes)
    }

    /// Replay a manifest, skipping unparsable (truncated) lines. A
    /// missing manifest is an empty campaign, not an error.
    pub fn replay(cache_dir: &Path) -> io::Result<Vec<ManifestEntry>> {
        let file = match File::open(Self::path_in(cache_dir)) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut entries = Vec::new();
        for line in BufReader::new(file).lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            if let Some(entry) = ManifestEntry::parse_line(&line) {
                entries.push(entry);
            }
        }
        Ok(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(shard: &str, hash: &str, hit: bool) -> ManifestEntry {
        ManifestEntry {
            shard: shard.to_string(),
            hash: hash.to_string(),
            wall_ms: 412,
            cache_hit: hit,
            path: format!("reports/{hash}.json"),
        }
    }

    #[test]
    fn lines_roundtrip() {
        for e in [
            entry("(1) Channel 1, Multi-AP", "9f00aa", false),
            entry(
                "weird \"label\" with \\ and \n newline — ünïcode",
                "00",
                true,
            ),
        ] {
            let line = e.to_line();
            assert_eq!(ManifestEntry::parse_line(&line), Some(e), "line: {line}");
        }
        // Lines written before the shared escaper spelled a newline
        // `\u000a`; they still load.
        let legacy = r#"{"shard":"a\u000ab","hash":"00","wall_ms":1,"cache":"hit","path":"p"}"#;
        assert_eq!(
            ManifestEntry::parse_line(legacy).map(|e| e.shard),
            Some("a\nb".to_string())
        );
        // A repeated key is damage, not "the last one wins".
        let line = entry("a", "h1", false).to_line();
        let dup = line.replacen("{\"shard\":\"a\"", "{\"shard\":\"a\",\"shard\":\"b\"", 1);
        assert_ne!(dup, line);
        assert_eq!(ManifestEntry::parse_line(&dup), None, "line: {dup}");
    }

    #[test]
    fn truncated_lines_are_skipped_not_fatal() {
        let dir = std::env::temp_dir().join(format!(
            "campaign-manifest-test-{}-truncated",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let m = Manifest::open(&dir).unwrap();
        m.append(&entry("a", "h1", false)).unwrap();
        m.append(&entry("b", "h2", true)).unwrap();
        drop(m);
        // Simulate a kill mid-append: a torn final line.
        let path = Manifest::path_in(&dir);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"shard\":\"c\",\"hash\":\"h3\",\"wall");
        std::fs::write(&path, text).unwrap();
        let replayed = Manifest::replay(&dir).unwrap();
        assert_eq!(
            replayed,
            vec![entry("a", "h1", false), entry("b", "h2", true)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn note(kind: &str) -> FleetNote {
        FleetNote {
            kind: kind.to_string(),
            shard: Some("f6 = \"50%\"".to_string()),
            worker: Some(3),
            attempt: Some(2),
            detail: Some("worker died mid-shard: clean EOF (exit status: 86)".to_string()),
        }
    }

    #[test]
    fn fleet_notes_roundtrip() {
        for n in [
            note("worker-died"),
            FleetNote {
                kind: "worker-ready".to_string(),
                shard: None,
                worker: Some(0),
                attempt: None,
                detail: None,
            },
        ] {
            let line = n.to_line();
            assert_eq!(FleetNote::parse_line(&line), Some(n), "line: {line}");
        }
        let line = note("requeued").to_line();
        let dup = line.replacen(",\"worker\":3", ",\"worker\":3,\"worker\":4", 1);
        assert_ne!(dup, line);
        assert_eq!(FleetNote::parse_line(&dup), None, "line: {dup}");
    }

    #[test]
    fn fleet_notes_are_invisible_to_resume_replay() {
        let dir = std::env::temp_dir().join(format!(
            "campaign-manifest-test-{}-fleet",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let m = Manifest::open(&dir).unwrap();
        m.append_fleet(&note("assigned")).unwrap();
        m.append(&entry("a", "h1", false)).unwrap();
        m.append_fleet(&note("worker-died")).unwrap();
        m.append_fleet(&note("requeued")).unwrap();
        m.append(&entry("b", "h2", true)).unwrap();
        drop(m);
        // Resume sees only the shard entries…
        assert_eq!(
            Manifest::replay(&dir).unwrap(),
            vec![entry("a", "h1", false), entry("b", "h2", true)]
        );
        // …while forensics sees only the fleet notes, in order.
        let kinds: Vec<String> = Manifest::replay_fleet(&dir)
            .unwrap()
            .into_iter()
            .map(|n| n.kind)
            .collect();
        assert_eq!(kinds, vec!["assigned", "worker-died", "requeued"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_is_empty() {
        let dir = std::env::temp_dir().join(format!(
            "campaign-manifest-test-{}-missing",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(Manifest::replay(&dir).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
