//! The repository benchmark: runs one named workload as real campaigns,
//! checks every record it produced, and prints its metrics.
//!
//! ```text
//! perfbench --workload <drive-sweep|metro-convoy|lab-tcp> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! perfbench --worker        # fleet worker mode (stdin/stdout protocol)
//! ```
//!
//! `--trace 0` measures the end-to-end metrics from untraced runs;
//! `--trace 1` makes a separate traced run and prints the per-layer
//! metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The line before it carries the same metrics with sample counts, the
//! host fingerprint, `ops_failed_frac` and `record_digest`. See README.md.

mod calibrate;
mod host;
mod measure;
mod stats;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Workload;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub samples: usize,
    pub note: Option<String>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
            note: None,
        }
    }

    pub fn with_note(mut self, note: String) -> Metric {
        self.note = Some(note);
        self
    }
}

/// Output checks: every shard attempted, and those failing any check.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report line.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one checked shard: each verdict is `(passed, what failing
    /// it means)`.
    pub fn record<const N: usize>(&mut self, shard: &str, verdicts: [(bool, &str); N]) {
        self.attempted += 1;
        let failures: Vec<&str> = verdicts
            .iter()
            .filter(|(passed, _)| !passed)
            .map(|(_, why)| *why)
            .collect();
        if !failures.is_empty() {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures
                    .push(format!("{shard}: {}", failures.join("; ")));
            }
        }
    }
}

/// What a run measured and checked.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub checks: Checks,
    /// `record_digest`: one hash over round 0's records in submit order.
    pub digest: String,
    /// Rounds an untraced run made, its repeat of round 0 included.
    pub rounds: Option<u64>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    host::single_malloc_arena();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--worker") {
        let fingerprint = campaign::hash::code_fingerprint();
        return match fleet::worker::serve(std::io::stdin(), std::io::stdout(), &fingerprint) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Cache directories live under the build directory of the checkout
    // the benchmark runs from, one per process, removed on the way out.
    let work_dir = PathBuf::from(".bench_build")
        .join("perfbench-runs")
        .join(format!("{}-{}", args.workload.name(), std::process::id()));
    let outcome = run(&args, &work_dir);
    let cleanup = std::fs::remove_dir_all(&work_dir);
    match outcome.and_then(|out| cleanup.map(|()| out)) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Run the workload and render both output lines.
fn run(args: &Args, work_dir: &std::path::Path) -> std::io::Result<String> {
    // A directory left by an earlier process with the same id would
    // turn cold passes into cache hits.
    if work_dir.exists() {
        std::fs::remove_dir_all(work_dir)?;
    }
    std::fs::create_dir_all(work_dir)?;
    let Outcome {
        metrics,
        checks,
        digest,
        rounds,
    } = if args.trace {
        traced::run(args.workload, args.seed, work_dir)?
    } else {
        measure::run(args.workload, args.seed, args.seconds, work_dir)?
    };
    let extra = rounds.map_or(String::new(), |r| format!(",\"rounds\":{r}"));
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(std::io::Error::other(format!(
            "metric {} is not finite",
            bad.name
        )));
    }

    let ops_failed_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    let host: Vec<String> = host::fingerprint()
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    let detailed: Vec<String> = metrics
        .iter()
        .map(|m| {
            let note = m
                .note
                .as_ref()
                .map(|n| format!(",\"note\":{}", json_str(n)))
                .unwrap_or_default();
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"samples\":{}{note}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit),
                m.samples
            )
        })
        .collect();
    let failures: Vec<String> = checks.failures.iter().map(|f| json_str(f)).collect();
    let detail_line = format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"host\":{{{}}},\"record_digest\":{},\
         \"ops_failed_frac\":{{\"value\":{ops_failed_frac},\"unit\":\"ratio\",\"samples\":{}}},\
         \"failures\":[{}]{extra},\"metrics\":{{{}}}}}",
        json_str(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        host.join(","),
        json_str(&digest),
        checks.attempted,
        failures.join(","),
        detailed.join(","),
    );
    let short: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    let result_line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        short.join(",")
    );
    Ok(format!("{detail_line}\n{result_line}\n"))
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
