//! Machine-readable run reports.
//!
//! [`RunResult`] holds raw sample sets; a
//! [`Report`] flattens it into the summary numbers the experiments print.
//! Serialization is fully in-tree: [`Report::to_json`] emits a stable
//! flat object and [`Report::from_json`] reads it back through the
//! workspace's strict `json` reader, so downstream tooling can consume
//! run output without any external JSON crate.
//!
//! Two serialization fidelities share that reader:
//!
//! * [`Report`] — the flattened *summary* (quantiles only), rounded to six
//!   decimals for stable, diff-friendly artifact files.
//! * [`RunRecord`] — the *full* run: every retained sample value at exact
//!   (shortest-roundtrip) precision, so a `RunResult` reconstructed from
//!   its record is bit-identical to the original and regenerates every
//!   figure byte-for-byte. This is what the campaign cache stores.

use json::Value;
use sim_engine::stats::Samples;
use sim_engine::time::Duration;

use crate::fleet::ClientCounters;
use crate::world::RunResult;

/// A five-number summary of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Sample count.
    pub n: usize,
    /// 10th percentile.
    pub p10: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Maximum.
    pub max: f64,
}

impl Quantiles {
    fn of(samples: &Samples) -> Quantiles {
        let mut s = samples.clone();
        Quantiles {
            n: s.count(),
            p10: s.quantile(0.10),
            p50: s.quantile(0.50),
            p90: s.quantile(0.90),
            max: if s.is_empty() { 0.0 } else { s.quantile(1.0) },
        }
    }

    fn json(&self) -> String {
        format!(
            r#"{{"n":{},"p10":{},"p50":{},"p90":{},"max":{}}}"#,
            self.n,
            fmt_f64(self.p10),
            fmt_f64(self.p50),
            fmt_f64(self.p90),
            fmt_f64(self.max)
        )
    }
}

/// The flattened summary of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Experiment length, seconds.
    pub duration_secs: f64,
    /// Bytes delivered to the sink.
    pub total_bytes: u64,
    /// Average throughput, KB/s (the paper's unit).
    pub avg_throughput_kbps: f64,
    /// Fraction of seconds with non-zero transfer.
    pub connectivity: f64,
    /// Successful joins.
    pub joins: usize,
    /// Association attempts / failures.
    pub assoc_attempts: u64,
    /// See `assoc_attempts`.
    pub assoc_failures: u64,
    /// DHCP attempts / failures.
    pub dhcp_attempts: u64,
    /// See `dhcp_attempts`.
    pub dhcp_failures: u64,
    /// Channel switches performed.
    pub switch_count: u64,
    /// Peak simultaneous associations.
    pub max_concurrent_aps: usize,
    /// TCP retransmission timeouts.
    pub tcp_rtos: u64,
    /// Join-time distribution, seconds.
    pub join_times_s: Quantiles,
    /// Connection-run distribution, seconds (Fig. 10a).
    pub connections_s: Quantiles,
    /// Disruption-run distribution, seconds (Fig. 10b).
    pub disruptions_s: Quantiles,
    /// Instantaneous bandwidth, bytes per connected second (Fig. 10c).
    pub instantaneous_bps: Quantiles,
    /// Per-client counters, indexed by client slot (client 0 first).
    /// Empty when parsed from a pre-fleet report, which predates the key.
    pub per_client: Vec<ClientCounters>,
}

impl Report {
    /// Flatten a [`RunResult`].
    pub fn from_run(result: &RunResult) -> Report {
        Report {
            duration_secs: result.duration.as_secs_f64(),
            total_bytes: result.total_bytes,
            avg_throughput_kbps: result.avg_throughput_kbps(),
            connectivity: result.connectivity,
            joins: result.join_times.count(),
            assoc_attempts: result.assoc_attempts,
            assoc_failures: result.assoc_failures,
            dhcp_attempts: result.dhcp_attempts,
            dhcp_failures: result.dhcp_failures,
            switch_count: result.switch_count,
            max_concurrent_aps: result.max_concurrent_aps,
            tcp_rtos: result.tcp_rtos,
            join_times_s: Quantiles::of(&result.join_times),
            connections_s: Quantiles::of(&result.connection_durations),
            disruptions_s: Quantiles::of(&result.disruption_durations),
            instantaneous_bps: Quantiles::of(&result.instantaneous_bandwidth),
            per_client: result.per_client.clone(),
        }
    }

    /// Serialize to a single JSON object (stable key order, no external
    /// JSON dependency).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            concat!(
                r#"{{"duration_secs":{},"total_bytes":{},"avg_throughput_kbps":{},"#,
                r#""connectivity":{},"joins":{},"assoc_attempts":{},"assoc_failures":{},"#,
                r#""dhcp_attempts":{},"dhcp_failures":{},"switch_count":{},"#,
                r#""max_concurrent_aps":{},"tcp_rtos":{},"join_times_s":{},"#,
                r#""connections_s":{},"disruptions_s":{},"instantaneous_bps":{}"#
            ),
            fmt_f64(self.duration_secs),
            self.total_bytes,
            fmt_f64(self.avg_throughput_kbps),
            fmt_f64(self.connectivity),
            self.joins,
            self.assoc_attempts,
            self.assoc_failures,
            self.dhcp_attempts,
            self.dhcp_failures,
            self.switch_count,
            self.max_concurrent_aps,
            self.tcp_rtos,
            self.join_times_s.json(),
            self.connections_s.json(),
            self.disruptions_s.json(),
            self.instantaneous_bps.json(),
        );
        push_per_client(&mut out, &self.per_client);
        out.push('}');
        out
    }

    /// Parse a report previously emitted by [`Report::to_json`].
    ///
    /// Accepts any whitespace layout, so hand-edited or pretty-printed
    /// variants of the same flat schema also load. Unknown keys are
    /// ignored; a missing key is an error.
    pub fn from_json(json: &str) -> Result<Report, ReportParseError> {
        let root = parse_object(json)?;
        let quantiles = |key: &'static str| -> Result<Quantiles, ReportParseError> {
            let inner = field(&root, key)?;
            if inner.as_object().is_none() {
                return Err(ReportParseError::WrongType(key));
            }
            Ok(Quantiles {
                n: uint(inner, "n")? as usize,
                p10: num(inner, "p10")?,
                p50: num(inner, "p50")?,
                p90: num(inner, "p90")?,
                max: num(inner, "max")?,
            })
        };
        Ok(Report {
            duration_secs: num(&root, "duration_secs")?,
            total_bytes: uint(&root, "total_bytes")?,
            avg_throughput_kbps: num(&root, "avg_throughput_kbps")?,
            connectivity: num(&root, "connectivity")?,
            joins: uint(&root, "joins")? as usize,
            assoc_attempts: uint(&root, "assoc_attempts")?,
            assoc_failures: uint(&root, "assoc_failures")?,
            dhcp_attempts: uint(&root, "dhcp_attempts")?,
            dhcp_failures: uint(&root, "dhcp_failures")?,
            switch_count: uint(&root, "switch_count")?,
            max_concurrent_aps: uint(&root, "max_concurrent_aps")? as usize,
            tcp_rtos: uint(&root, "tcp_rtos")?,
            join_times_s: quantiles("join_times_s")?,
            connections_s: quantiles("connections_s")?,
            disruptions_s: quantiles("disruptions_s")?,
            instantaneous_bps: quantiles("instantaneous_bps")?,
            per_client: per_client_field(&root)?,
        })
    }
}

/// Parse `text` with the shared reader and require an object root.
fn parse_object(text: &str) -> Result<Value<'_>, ReportParseError> {
    let root = json::parse(text).map_err(|e| match e.kind {
        json::ErrorKind::NonFinite => ReportParseError::NonFinite,
        kind => ReportParseError::Malformed(kind.message()),
    })?;
    if root.as_object().is_none() {
        return Err(ReportParseError::Malformed("expected an object"));
    }
    Ok(root)
}

fn field<'v, 'a>(obj: &'v Value<'a>, key: &'static str) -> Result<&'v Value<'a>, ReportParseError> {
    obj.get(key).ok_or(ReportParseError::MissingKey(key))
}

fn num(obj: &Value<'_>, key: &'static str) -> Result<f64, ReportParseError> {
    field(obj, key)?
        .as_f64()
        .ok_or(ReportParseError::WrongType(key))
}

/// A counter, read exactly — `as f64` would round above 2^53.
fn uint(obj: &Value<'_>, key: &'static str) -> Result<u64, ReportParseError> {
    field(obj, key)?
        .as_u64()
        .ok_or(ReportParseError::WrongType(key))
}

fn array<'v, 'a>(
    obj: &'v Value<'a>,
    key: &'static str,
) -> Result<&'v [Value<'a>], ReportParseError> {
    field(obj, key)?
        .as_array()
        .ok_or(ReportParseError::WrongType(key))
}

/// Serialize `per_client` as an object keyed by decimal client slot —
/// `"per_client":{"0":{"joins":…,"bytes":…,"cell_crossings":…},…}` —
/// appended after the legacy keys so pre-fleet parsers (which ignore
/// unknown keys) still read everything they understand.
fn push_per_client(out: &mut String, per_client: &[ClientCounters]) {
    out.push_str(",\"per_client\":{");
    for (slot, c) in per_client.iter().enumerate() {
        if slot > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{slot}\":{{\"joins\":{},\"bytes\":{},\"cell_crossings\":{}}}",
            c.joins, c.bytes, c.cell_crossings
        ));
    }
    out.push('}');
}

/// Read the optional `per_client` object. Absent key — a record written
/// before the fleet subsystem — parses as an empty vector; counters come
/// back u64-exact. Slots are canonical decimals (no sign, no leading
/// zero), so the reader's unique keys make every slot appear once.
fn per_client_field(root: &Value<'_>) -> Result<Vec<ClientCounters>, ReportParseError> {
    let Some(outer) = root.get("per_client") else {
        return Ok(Vec::new());
    };
    let outer = outer
        .as_object()
        .ok_or(ReportParseError::WrongType("per_client"))?;
    let mut out = vec![ClientCounters::default(); outer.len()];
    for (slot, counters) in outer {
        let canonical =
            slot.bytes().all(|b| b.is_ascii_digit()) && (slot == "0" || !slot.starts_with('0'));
        let idx: usize =
            slot.parse()
                .ok()
                .filter(|_| canonical)
                .ok_or(ReportParseError::Malformed(
                    "per_client slot is not an index",
                ))?;
        let entry = out
            .get_mut(idx)
            .ok_or(ReportParseError::Malformed("per_client slot out of range"))?;
        if counters.as_object().is_none() {
            return Err(ReportParseError::WrongType("per_client"));
        }
        *entry = ClientCounters {
            joins: uint(counters, "joins")?,
            bytes: uint(counters, "bytes")?,
            cell_crossings: uint(counters, "cell_crossings")?,
        };
    }
    Ok(out)
}

/// Why [`Report::from_json`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportParseError {
    /// The text is not the flat numeric-object schema `to_json` emits.
    Malformed(&'static str),
    /// A required key was absent.
    MissingKey(&'static str),
    /// A key held a nested object where a number was expected (or vice
    /// versa).
    WrongType(&'static str),
    /// A numeric token parsed to NaN or ±infinity (e.g. `1e999`); reports
    /// are finite by construction, so such input is corrupt.
    NonFinite,
}

impl core::fmt::Display for ReportParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReportParseError::Malformed(what) => write!(f, "malformed report JSON: {what}"),
            ReportParseError::MissingKey(key) => write!(f, "report JSON missing key {key:?}"),
            ReportParseError::WrongType(key) => write!(f, "report JSON key {key:?} has wrong type"),
            ReportParseError::NonFinite => write!(f, "report JSON contains a non-finite number"),
        }
    }
}

impl std::error::Error for ReportParseError {}

/// A non-finite value encountered while *writing* a record: the named
/// field held NaN or ±infinity, which the JSON schema cannot represent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonFiniteField(pub &'static str);

impl core::fmt::Display for NonFiniteField {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "run record field {:?} is not finite", self.0)
    }
}

impl std::error::Error for NonFiniteField {}

/// Full-fidelity serialization of a [`RunResult`].
///
/// Unlike [`Report`] (a rounded summary), a record retains **every sample
/// value at exact precision**: floats are written in Rust's
/// shortest-roundtrip decimal form and the duration as integer
/// nanoseconds, so `from_json(to_json(r))` reconstructs a `RunResult`
/// whose every statistic — quantiles, CDFs, means — is bit-identical to
/// the original's. The campaign cache relies on this: a cache *hit* must
/// regenerate a figure's text byte-for-byte as if the run had executed.
pub struct RunRecord;

/// Schema version stamped into every record (`"v"` key); bump when the
/// field set changes so stale cache entries are rejected, not misread.
pub const RUN_RECORD_VERSION: u64 = 1;

impl RunRecord {
    /// Serialize `result` losslessly.
    ///
    /// Errors if any float in the result is NaN or infinite (the
    /// simulator never produces one; hitting this means corrupt state
    /// that must not be cached).
    pub fn to_json(result: &RunResult) -> Result<String, NonFiniteField> {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\"v\":{RUN_RECORD_VERSION},\"duration_ns\":{}",
            result.duration.as_nanos()
        ));
        for (key, value) in [
            ("total_bytes", result.total_bytes),
            ("dhcp_attempts", result.dhcp_attempts),
            ("dhcp_failures", result.dhcp_failures),
            ("assoc_attempts", result.assoc_attempts),
            ("assoc_failures", result.assoc_failures),
            ("switch_count", result.switch_count),
            ("tcp_rtos", result.tcp_rtos),
            ("backhaul_drops", result.backhaul_drops),
            ("psm_drops", result.psm_drops),
            ("unassociated_drops", result.unassociated_drops),
            ("air_drops", result.air_drops),
            ("max_concurrent_aps", result.max_concurrent_aps as u64),
        ] {
            out.push_str(&format!(",\"{key}\":{value}"));
        }
        out.push_str(",\"avg_throughput_bps\":");
        out.push_str(&fmt_f64_exact(
            result.avg_throughput_bps,
            "avg_throughput_bps",
        )?);
        out.push_str(",\"connectivity\":");
        out.push_str(&fmt_f64_exact(result.connectivity, "connectivity")?);
        out.push_str(",\"concurrency_seconds\":");
        push_array(&mut out, &result.concurrency_seconds, "concurrency_seconds")?;
        for (key, samples) in [
            ("connection_durations", &result.connection_durations),
            ("disruption_durations", &result.disruption_durations),
            ("instantaneous_bandwidth", &result.instantaneous_bandwidth),
            ("assoc_times", &result.assoc_times),
            ("join_times", &result.join_times),
            ("switch_latencies", &result.switch_latencies),
        ] {
            out.push_str(&format!(",\"{key}\":"));
            push_array(&mut out, samples.values(), key)?;
        }
        push_per_client(&mut out, &result.per_client);
        out.push('}');
        Ok(out)
    }

    /// Reconstruct a [`RunResult`] from [`RunRecord::to_json`] output.
    pub fn from_json(json: &str) -> Result<RunResult, ReportParseError> {
        let root = parse_object(json)?;
        let samples = |key: &'static str| -> Result<Samples, ReportParseError> {
            let mut s = Samples::new();
            for v in array(&root, key)? {
                s.record(v.as_f64().ok_or(ReportParseError::WrongType(key))?);
            }
            Ok(s)
        };
        if uint(&root, "v")? != RUN_RECORD_VERSION {
            return Err(ReportParseError::Malformed("unsupported record version"));
        }
        Ok(RunResult {
            duration: Duration::from_nanos(uint(&root, "duration_ns")?),
            total_bytes: uint(&root, "total_bytes")?,
            avg_throughput_bps: num(&root, "avg_throughput_bps")?,
            connectivity: num(&root, "connectivity")?,
            connection_durations: samples("connection_durations")?,
            disruption_durations: samples("disruption_durations")?,
            instantaneous_bandwidth: samples("instantaneous_bandwidth")?,
            assoc_times: samples("assoc_times")?,
            join_times: samples("join_times")?,
            switch_latencies: samples("switch_latencies")?,
            dhcp_attempts: uint(&root, "dhcp_attempts")?,
            dhcp_failures: uint(&root, "dhcp_failures")?,
            assoc_attempts: uint(&root, "assoc_attempts")?,
            assoc_failures: uint(&root, "assoc_failures")?,
            switch_count: uint(&root, "switch_count")?,
            max_concurrent_aps: uint(&root, "max_concurrent_aps")? as usize,
            concurrency_seconds: array(&root, "concurrency_seconds")?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or(ReportParseError::WrongType("concurrency_seconds"))
                })
                .collect::<Result<_, _>>()?,
            tcp_rtos: uint(&root, "tcp_rtos")?,
            backhaul_drops: uint(&root, "backhaul_drops")?,
            psm_drops: uint(&root, "psm_drops")?,
            unassociated_drops: uint(&root, "unassociated_drops")?,
            air_drops: uint(&root, "air_drops")?,
            per_client: per_client_field(&root)?,
        })
    }
}

/// Exact (shortest-roundtrip) float formatting; errors on non-finite.
fn fmt_f64_exact(v: f64, field: &'static str) -> Result<String, NonFiniteField> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(NonFiniteField(field))
    }
}

/// Append `values` as a JSON array at exact precision.
fn push_array(out: &mut String, values: &[f64], field: &'static str) -> Result<(), NonFiniteField> {
    out.push('[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&fmt_f64_exact(v, field)?);
    }
    out.push(']');
    Ok(())
}

/// JSON-safe float formatting (no NaN/inf; finite shortest-ish form).
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    // Limit precision for stable, diff-friendly output.
    let s = format!("{v:.6}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() {
        "0".to_string()
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpiderConfig;
    use crate::world::{run, ClientMotion, WorldConfig};
    use mobility::deployment::ApSite;
    use mobility::geometry::Point;
    use sim_engine::time::Duration;
    use wifi_mac::channel::Channel;

    fn sample_run() -> RunResult {
        let site = ApSite {
            id: 1,
            position: Point::new(0.0, 0.0),
            channel: Channel::CH1,
            backhaul_bps: 2_000_000,
            dhcp_delay_min: Duration::from_millis(100),
            dhcp_delay_max: Duration::from_millis(300),
        };
        run(WorldConfig::new(
            5,
            vec![site],
            ClientMotion::Fixed(Point::new(0.0, 10.0)),
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
            Duration::from_secs(15),
        ))
    }

    #[test]
    fn report_reflects_the_run() {
        let result = sample_run();
        let report = Report::from_run(&result);
        assert_eq!(report.total_bytes, result.total_bytes);
        assert_eq!(report.joins, result.join_times.count());
        assert!((report.duration_secs - 15.0).abs() < 1e-9);
        assert!(report.avg_throughput_kbps > 0.0);
    }

    #[test]
    fn json_is_wellformed_enough_to_roundtrip_keys() {
        let report = Report::from_run(&sample_run());
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "total_bytes",
            "avg_throughput_kbps",
            "connectivity",
            "join_times_s",
            "instantaneous_bps",
        ] {
            assert!(
                json.contains(&format!("\"{key}\"")),
                "missing key {key} in {json}"
            );
        }
        // Balanced braces and no NaN/inf tokens.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn json_roundtrips_through_from_json() {
        // `to_json` rounds floats to six decimals, so the roundtrip
        // invariant is a serialization fixpoint, not bit-equality with the
        // in-memory report.
        let json = Report::from_run(&sample_run()).to_json();
        let parsed = Report::from_json(&json).expect("parse");
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn from_json_accepts_whitespace_and_ignores_unknown_keys() {
        let json = Report::from_run(&sample_run()).to_json();
        let pretty = json.replace(',', ",\n  ").replace('{', "{ ").replacen(
            '{',
            "{\"schema_version\": 1,",
            1,
        );
        let parsed = Report::from_json(&pretty).expect("parse pretty variant");
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(matches!(
            Report::from_json("not json"),
            Err(ReportParseError::Malformed(_))
        ));
        assert!(matches!(
            Report::from_json("{\"duration_secs\":1}"),
            Err(ReportParseError::MissingKey(_))
        ));
        let truncated = Report::from_run(&sample_run()).to_json();
        let duplicated =
            truncated.replacen("{\"duration_secs\":", "{\"joins\":0,\"duration_secs\":", 1);
        assert_eq!(
            Report::from_json(&duplicated),
            Err(ReportParseError::Malformed("duplicate object key"))
        );
        let truncated = &truncated[..truncated.len() - 2];
        assert!(Report::from_json(truncated).is_err());
    }

    #[test]
    fn from_json_rejects_wrong_types() {
        let swapped = Report::from_run(&sample_run())
            .to_json()
            .replace("\"total_bytes\":", "\"total_bytes\":{\"n\":0,\"p10\":0,\"p50\":0,\"p90\":0,\"max\":0},\"was_total_bytes\":");
        assert_eq!(
            Report::from_json(&swapped),
            Err(ReportParseError::WrongType("total_bytes"))
        );
    }

    #[test]
    fn nonfinite_numeric_tokens_get_the_typed_error() {
        let json = Report::from_run(&sample_run()).to_json();
        let poisoned = json.replacen("\"duration_secs\":", "\"duration_secs\":1e999,\"was\":", 1);
        assert_eq!(
            Report::from_json(&poisoned),
            Err(ReportParseError::NonFinite)
        );
    }

    #[test]
    fn run_record_roundtrip_is_exact() {
        let result = sample_run();
        let json = RunRecord::to_json(&result).expect("serialize");
        let back = RunRecord::from_json(&json).expect("parse");
        // Fixpoint: re-serializing the reconstruction is byte-identical.
        assert_eq!(RunRecord::to_json(&back).expect("serialize"), json);
        // Bit-exact sample values and scalars, so every derived statistic
        // (quantiles, CDFs) matches the fresh run exactly.
        assert_eq!(back.duration, result.duration);
        assert_eq!(back.total_bytes, result.total_bytes);
        assert_eq!(
            back.avg_throughput_bps.to_bits(),
            result.avg_throughput_bps.to_bits()
        );
        assert_eq!(back.connectivity.to_bits(), result.connectivity.to_bits());
        assert_eq!(back.join_times.values(), result.join_times.values());
        assert_eq!(back.assoc_times.values(), result.assoc_times.values());
        assert_eq!(
            back.instantaneous_bandwidth.values(),
            result.instantaneous_bandwidth.values()
        );
        assert_eq!(back.concurrency_seconds, result.concurrency_seconds);
        // The flattened summary agrees too.
        assert_eq!(Report::from_run(&back), Report::from_run(&result));
    }

    #[test]
    fn run_record_rejects_version_drift_and_truncation() {
        let json = RunRecord::to_json(&sample_run()).expect("serialize");
        let newer = json.replacen("{\"v\":1,", "{\"v\":2,", 1);
        assert!(matches!(
            RunRecord::from_json(&newer),
            Err(ReportParseError::Malformed("unsupported record version"))
        ));
        for cut in [json.len() / 4, json.len() / 2, json.len() - 1] {
            assert!(
                RunRecord::from_json(&json[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
    }

    #[test]
    fn run_record_refuses_to_serialize_nonfinite_state() {
        let mut result = sample_run();
        result.avg_throughput_bps = f64::INFINITY;
        assert_eq!(
            RunRecord::to_json(&result),
            Err(NonFiniteField("avg_throughput_bps"))
        );
    }

    #[test]
    fn per_client_counters_roundtrip_u64_exact() {
        let mut result = sample_run();
        // Above 2^53 so the f64 path would silently round — must stay exact.
        result.per_client = vec![
            ClientCounters {
                joins: 3,
                bytes: u64::MAX - 7,
                cell_crossings: 12,
            },
            ClientCounters::default(),
        ];
        let json = RunRecord::to_json(&result).expect("serialize");
        let back = RunRecord::from_json(&json).expect("parse");
        assert_eq!(back.per_client, result.per_client);
        assert_eq!(RunRecord::to_json(&back).expect("serialize"), json);
        let report_json = Report::from_run(&result).to_json();
        let parsed = Report::from_json(&report_json).expect("parse");
        assert_eq!(parsed.per_client, result.per_client);
        // The summary's own counters are exact too: 2^53 + 1 has no f64.
        result.total_bytes = 9_007_199_254_740_993;
        result.tcp_rtos = u64::MAX;
        let report_json = Report::from_run(&result).to_json();
        let parsed = Report::from_json(&report_json).expect("parse");
        assert_eq!(parsed.total_bytes, 9_007_199_254_740_993);
        assert_eq!(parsed.tcp_rtos, u64::MAX);
        assert_eq!(parsed.to_json(), report_json);
    }

    #[test]
    fn pre_fleet_json_without_per_client_still_parses() {
        let result = sample_run();
        let strip = |json: &str| {
            let start = json.find(",\"per_client\":").expect("per_client emitted");
            format!("{}}}", &json[..start])
        };
        let record = RunRecord::to_json(&result).expect("serialize");
        let back = RunRecord::from_json(&strip(&record)).expect("legacy record parses");
        assert!(back.per_client.is_empty());
        assert_eq!(back.total_bytes, result.total_bytes);
        assert_eq!(back.join_times.values(), result.join_times.values());
        let report = Report::from_run(&result).to_json();
        let parsed = Report::from_json(&strip(&report)).expect("legacy report parses");
        assert!(parsed.per_client.is_empty());
        assert_eq!(parsed.total_bytes, result.total_bytes);
    }

    #[test]
    fn per_client_rejects_bad_slots_and_types() {
        let mut result = sample_run();
        result.per_client = vec![ClientCounters::default()];
        let json = RunRecord::to_json(&result).expect("serialize");
        let bad_slot = json.replacen("\"per_client\":{\"0\":", "\"per_client\":{\"9\":", 1);
        assert!(matches!(
            RunRecord::from_json(&bad_slot),
            Err(ReportParseError::Malformed("per_client slot out of range"))
        ));
        let bad_type = json.replacen("\"per_client\":{\"0\":", "\"per_client\":{\"x\":", 1);
        assert!(matches!(
            RunRecord::from_json(&bad_type),
            Err(ReportParseError::Malformed(_))
        ));
        // A repeated slot used to parse as two clients, the second all
        // zero; a non-canonical spelling of a slot is the same mistake.
        let zero = "{\"joins\":0,\"bytes\":0,\"cell_crossings\":0}";
        for slots in [
            format!("\"per_client\":{{\"0\":{zero},\"0\":"),
            format!("\"per_client\":{{\"00\":{zero},\"0\":"),
            format!("\"per_client\":{{\"+0\":{zero},\"1\":"),
        ] {
            let dup = json.replacen("\"per_client\":{\"0\":", &slots, 1);
            assert!(
                matches!(
                    RunRecord::from_json(&dup),
                    Err(ReportParseError::Malformed(_))
                ),
                "{slots}"
            );
        }
    }

    #[test]
    fn float_formatting_is_json_safe() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(2.0), "2");
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(f64::INFINITY), "0");
        assert_eq!(fmt_f64(0.333333333), "0.333333");
    }
}
