//! A std-only micro-benchmark harness for `harness = false` bench targets
//! and the `bench` regression-gate binary.
//!
//! The harness times whole-iteration batches and keeps **every per-batch
//! sample**, not just a min/median/mean summary: uncertainty is part of
//! the measurement. From the samples it reports a percentile-bootstrap
//! confidence interval for the median ([`crate::stats`]), and two
//! comparison modes build on that:
//!
//! * **Interleaved A/B** ([`Harness::bench_pair`]): two closures
//!   alternate batch-by-batch inside one run, so machine drift (thermal,
//!   scheduler) hits both sides equally and cancels out of the
//!   difference instead of biasing one side.
//! * **Compare-vs-baseline** (`--compare <baseline.json>`): re-measure
//!   each bench and compare its samples against a committed baseline's
//!   samples. Each bench's own batches are also split first-half vs
//!   second-half as an A/A stationarity check — a drifting machine
//!   reports [`stats::Verdict::Inconclusive`] loudly instead of
//!   fabricating a pass or a regression.
//!
//! Exit codes from [`Harness::finish`] (callers `std::process::exit`
//! with the return value): `0` no regression, `2` regression confirmed
//! at the configured confidence, `3` measurement inconclusive. ci.sh
//! gates on `2`, reports `3`, and treats anything else as a harness
//! failure.
//!
//! CLI (works both under `cargo bench -- <args>` and the `bench` bin):
//! the first bare argument is a substring filter on bench names;
//! `--budget-ms N`, `--compare <path>`, `--capture <path>` (write a
//! sample-bearing artifact usable as a committed baseline), `--json
//! <path>`, `--confidence <pct>`, `--min-effect <pct>`, `--resamples N`,
//! `--trajectory <path>` (append one JSONL line per bench), `--commit
//! <label>`. Environment defaults: `SPIDER_BENCH_BUDGET_MS`,
//! `SPIDER_BENCH_JSON`, `SPIDER_BENCH_TRAJECTORY`, `SPIDER_BENCH_COMMIT`.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::baseline::Baseline;
use crate::stats::{self, Ci, CompareConfig, Comparison, Verdict};

/// Default per-bench measurement budget.
const DEFAULT_BUDGET_MS: u64 = 2_000;

/// Warm-up share of the budget (the warm-up window is `budget / this`).
const WARMUP_DIVISOR: u32 = 10;

/// Warm-up takes at least this many observations even past its window,
/// so batch sizing comes from a median that can see beyond a slow first
/// call (lazy init, cold caches).
const MIN_WARMUP_OBS: usize = 3;

/// Warm-up stops recording after this many observations (nanosecond
/// bodies would otherwise log millions of identical points).
const MAX_WARMUP_OBS: usize = 4_096;

/// Batches the measurement loop aims for within the budget; each batch
/// is sized to take roughly `budget / this`. ~40 per-batch samples keep
/// bootstrap intervals meaningful without timer overhead mattering.
const BATCHES_TARGET: u32 = 40;

/// Hard cap on recorded batches, bounding the sample vector (and the
/// artifact) even when warm-up mis-sizes batches far too small.
const MAX_BATCHES: usize = 256;

/// Process exit code for a confirmed regression.
pub const EXIT_REGRESSION: i32 = 2;

/// Process exit code for an inconclusive measurement (noisy or drifting
/// machine, too few samples): report, don't gate.
pub const EXIT_INCONCLUSIVE: i32 = 3;

/// Parsed harness options, from CLI args layered over environment
/// defaults.
#[derive(Debug, Clone)]
pub struct Options {
    /// Per-bench measurement budget.
    pub budget: Duration,
    /// Substring filter on bench names.
    pub filter: Option<String>,
    /// Artifact path (`--json`/`--capture`/`SPIDER_BENCH_JSON`).
    pub json_path: Option<PathBuf>,
    /// Baseline to compare against (`--compare`); enables compare mode.
    pub baseline_path: Option<PathBuf>,
    /// Two-sided confidence level in (0, 1).
    pub confidence: f64,
    /// Relative guard band for verdicts (0.05 = 5 %).
    pub min_effect: f64,
    /// Bootstrap resample count.
    pub resamples: u32,
    /// Trajectory JSONL path to append per-bench lines to.
    pub trajectory: Option<PathBuf>,
    /// Commit label stamped into trajectory lines.
    pub commit: Option<String>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            budget: Duration::from_millis(DEFAULT_BUDGET_MS),
            filter: None,
            json_path: None,
            baseline_path: None,
            confidence: stats::DEFAULT_CONFIDENCE,
            min_effect: 0.0,
            resamples: stats::DEFAULT_RESAMPLES,
            trajectory: None,
            commit: None,
        }
    }
}

impl Options {
    /// Defaults with environment overlays (`SPIDER_BENCH_*`).
    pub fn from_env() -> Options {
        let mut opts = Options::default();
        if let Some(ms) = std::env::var("SPIDER_BENCH_BUDGET_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            opts.budget = Duration::from_millis(ms);
        }
        opts.json_path = std::env::var_os("SPIDER_BENCH_JSON").map(PathBuf::from);
        opts.trajectory = std::env::var_os("SPIDER_BENCH_TRAJECTORY").map(PathBuf::from);
        opts.commit = std::env::var("SPIDER_BENCH_COMMIT").ok();
        opts
    }

    /// Layer CLI arguments on top. Unknown `--flags` are ignored (cargo
    /// passes its own); the first bare argument is the name filter.
    pub fn apply_args(&mut self, args: impl Iterator<Item = String>) -> Result<(), String> {
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let mut value_for = |flag: &str| -> Result<String, String> {
                args.next().ok_or_else(|| format!("{flag} needs a value"))
            };
            match arg.as_str() {
                "--budget-ms" => {
                    let v = value_for("--budget-ms")?;
                    let ms = v
                        .parse::<u64>()
                        .map_err(|_| format!("--budget-ms: not an integer: {v:?}"))?;
                    self.budget = Duration::from_millis(ms);
                }
                "--json" | "--capture" => self.json_path = Some(PathBuf::from(value_for(&arg)?)),
                "--compare" => self.baseline_path = Some(PathBuf::from(value_for("--compare")?)),
                "--confidence" => {
                    let v = value_for("--confidence")?;
                    let pct = v
                        .parse::<f64>()
                        .map_err(|_| format!("--confidence: not a number: {v:?}"))?;
                    if !(50.0 < pct && pct < 100.0) {
                        return Err(format!("--confidence: want percent in (50, 100), got {v}"));
                    }
                    self.confidence = pct / 100.0;
                }
                "--min-effect" => {
                    let v = value_for("--min-effect")?;
                    let pct = v
                        .parse::<f64>()
                        .map_err(|_| format!("--min-effect: not a number: {v:?}"))?;
                    if !(0.0..100.0).contains(&pct) {
                        return Err(format!("--min-effect: want percent in [0, 100), got {v}"));
                    }
                    self.min_effect = pct / 100.0;
                }
                "--resamples" => {
                    let v = value_for("--resamples")?;
                    self.resamples =
                        v.parse::<u32>().ok().filter(|&n| n >= 100).ok_or_else(|| {
                            format!("--resamples: want an integer ≥ 100, got {v:?}")
                        })?;
                }
                "--trajectory" => self.trajectory = Some(PathBuf::from(value_for("--trajectory")?)),
                "--commit" => self.commit = Some(value_for("--commit")?),
                other if other.starts_with('-') => {} // cargo's own flags
                bare => {
                    if self.filter.is_none() {
                        self.filter = Some(bare.to_string());
                    }
                }
            }
        }
        Ok(())
    }

    fn compare_config(&self) -> CompareConfig {
        CompareConfig {
            confidence: self.confidence,
            resamples: self.resamples,
            min_effect: self.min_effect,
            ..CompareConfig::default()
        }
    }
}

/// One bench's measured record: summary statistics, the bootstrap CI of
/// the median, the raw per-batch samples, and (in compare mode) the
/// comparison outcome.
#[derive(Debug, Clone)]
struct BenchStat {
    name: String,
    min_ns: f64,
    median_ns: f64,
    mean_ns: f64,
    /// Bootstrap CI of the median (ns/iter).
    ci: Ci,
    iters: u64,
    /// Per-batch ns/iter samples, ascending.
    samples_ns: Vec<f64>,
    /// First-half vs second-half A/A stationarity check (compare mode).
    split: Option<Comparison>,
    /// Comparison against the committed baseline (compare mode, when the
    /// baseline has this bench).
    vs_baseline: Option<Comparison>,
    /// Final per-bench verdict in compare mode (`None` in run mode).
    verdict: Option<Verdict>,
}

/// One bench target's runner: times each registered closure, optionally
/// comparing against a committed baseline.
pub struct Harness {
    target: String,
    opts: Options,
    baseline: Option<Baseline>,
    ran: usize,
    stats: Vec<BenchStat>,
    extras: Vec<(String, String)>,
}

impl Harness {
    /// Build from `std::env::args` and `SPIDER_BENCH_*` environment
    /// variables; prints the configuration line. Exits the process with
    /// code 1 on unusable arguments or an unreadable baseline — for a
    /// gating harness, "failed to start" must be distinct from any
    /// measurement outcome.
    pub fn from_env(target: &str) -> Harness {
        let mut opts = Options::from_env();
        if let Err(e) = opts.apply_args(std::env::args().skip(1)) {
            eprintln!("{target}: bad arguments: {e}");
            std::process::exit(1);
        }
        match Harness::with_options(target, opts) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("{target}: {e}");
                std::process::exit(1);
            }
        }
    }

    /// Build from explicit options (the `bench` bin's entry). Fails when
    /// the baseline file is missing or malformed.
    pub fn with_options(target: &str, opts: Options) -> Result<Harness, String> {
        let baseline = match &opts.baseline_path {
            Some(path) => {
                let b = Baseline::load(path)?;
                if b.target != target {
                    return Err(format!(
                        "baseline {} was captured from target {:?}, not {target:?}",
                        path.display(),
                        b.target
                    ));
                }
                Some(b)
            }
            None => None,
        };
        println!(
            "{target}: {} ms budget per bench{}",
            opts.budget.as_millis(),
            match &opts.baseline_path {
                Some(p) => format!(
                    ", comparing against {} @{:.1}% confidence, ±{:.1}% guard band",
                    p.display(),
                    opts.confidence * 100.0,
                    opts.min_effect * 100.0
                ),
                None => String::new(),
            }
        );
        Ok(Harness {
            target: target.to_string(),
            opts,
            baseline,
            ran: 0,
            stats: Vec::new(),
            extras: Vec::new(),
        })
    }

    /// True when a baseline is loaded and every bench is being gated.
    pub fn compare_mode(&self) -> bool {
        self.baseline.is_some()
    }

    /// Median ns/iteration of the most recently completed bench, `None`
    /// when nothing has run yet (filtered out or no `bench` call). Lets a
    /// bench target derive headline numbers (events/sec) from a timing it
    /// just took without re-measuring.
    pub fn last_median_ns(&self) -> Option<f64> {
        self.stats.last().map(|s| s.median_ns)
    }

    /// Attach an extra top-level field to the JSON artifact. `value` must
    /// already be valid JSON (a number, string literal, or object) — it is
    /// spliced in verbatim. Benches use this to record derived headline
    /// numbers (e.g. events/sec) next to the raw per-bench timings.
    pub fn annotate(&mut self, key: &str, value: impl Into<String>) {
        self.extras.push((key.to_string(), value.into()));
    }

    /// Warm `f` up and return the median ns of its warm-up observations.
    fn warmup<T, F: FnMut() -> T>(&self, f: &mut F) -> f64 {
        let deadline = Instant::now() + self.opts.budget / WARMUP_DIVISOR;
        let mut obs: Vec<f64> = Vec::new();
        loop {
            let start = Instant::now();
            black_box(f());
            if obs.len() < MAX_WARMUP_OBS {
                obs.push(start.elapsed().as_nanos() as f64);
            }
            if obs.len() >= MIN_WARMUP_OBS
                && (Instant::now() >= deadline || obs.len() >= MAX_WARMUP_OBS)
            {
                break;
            }
        }
        stats::median(&obs).max(1.0)
    }

    /// Iterations per batch so one batch takes ~`budget / batches_target`
    /// at `warm_median_ns` per call.
    fn iters_per_batch(&self, warm_median_ns: f64, batches_target: u32) -> u64 {
        let target_ns = (self.opts.budget / batches_target).as_nanos().max(1) as f64;
        (target_ns / warm_median_ns).clamp(1.0, (1u64 << 20) as f64) as u64
    }

    /// One timed batch: ns/iteration over `iters` calls.
    fn run_batch<T, F: FnMut() -> T>(f: &mut F, iters: u64) -> f64 {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    }

    /// Time `f`, printing one summary line (plus a comparison line in
    /// compare mode). The closure's return value passes through
    /// [`black_box`] so the work is not optimized away.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) {
        if let Some(filter) = &self.opts.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        self.ran += 1;

        // Warm-up sizes batches from the *median* observation: robust
        // both to one scheduling hiccup (which must not collapse batches
        // to single calls) and to a slow first call / bimodal body
        // (where the fastest observation over-sizes batches and starves
        // the sample count).
        let warm_median = self.warmup(&mut f);
        let iters_per_batch = self.iters_per_batch(warm_median, BATCHES_TARGET);

        let mut samples: Vec<f64> = Vec::new(); // ns per iteration, per batch
        let mut total_iters = 0u64;
        let deadline = Instant::now() + self.opts.budget;
        while (Instant::now() < deadline && samples.len() < MAX_BATCHES) || samples.is_empty() {
            samples.push(Self::run_batch(&mut f, iters_per_batch));
            total_iters += iters_per_batch;
        }
        self.record(name, samples, total_iters);
    }

    /// Everything downstream of measurement: the stationarity split,
    /// summary statistics, compare-mode verdict, and the recorded stat.
    /// Split out so the verdict path is testable on synthetic samples.
    fn record(&mut self, name: &str, mut samples: Vec<f64>, total_iters: u64) {
        // Compare-mode stationarity check *before* sorting: the halves
        // are temporal (first half of the run vs second), so drift
        // within the run shows up as a phantom A/A difference.
        let cfg = self.opts.compare_config();
        let split = if self.compare_mode() {
            let (first, second) = samples.split_at(samples.len() / 2);
            Some(stats::compare(first, second, &cfg))
        } else {
            None
        };

        samples.sort_by(|a, b| a.total_cmp(b));
        let min = samples[0];
        let median = stats::percentile_sorted(&samples, 0.5);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let ci = stats::bootstrap_median_ci(
            &samples,
            self.opts.confidence,
            self.opts.resamples,
            stats::DEFAULT_SEED,
        );
        println!(
            "  {name:<44} med {:>12} [{}, {}]  min {:>12}  mean {:>12}  ({} iters, {} batches)",
            fmt_ns(median),
            fmt_ns(ci.lo),
            fmt_ns(ci.hi),
            fmt_ns(min),
            fmt_ns(mean),
            total_iters,
            samples.len(),
        );

        let vs_baseline = self
            .baseline
            .as_ref()
            .and_then(|b| b.samples_for(name))
            .map(|base| stats::compare(base, &samples, &cfg));
        let verdict = if self.compare_mode() {
            Some(Self::bench_verdict(
                name,
                split.as_ref(),
                vs_baseline.as_ref(),
            ))
        } else {
            None
        };

        self.stats.push(BenchStat {
            name: name.to_string(),
            min_ns: min,
            median_ns: median,
            mean_ns: mean,
            ci,
            iters: total_iters,
            samples_ns: samples,
            split,
            vs_baseline,
            verdict,
        });
    }

    /// Derive (and print) the per-bench compare-mode verdict.
    fn bench_verdict(
        name: &str,
        split: Option<&Comparison>,
        vs_baseline: Option<&Comparison>,
    ) -> Verdict {
        if let Some(split) = split {
            if split.verdict != Verdict::NoDifference {
                println!(
                    "    {name}: INCONCLUSIVE — first/second half A/A split shows {} \
                     ({}); machine not stationary during this run",
                    split.verdict.label(),
                    fmt_diff(&split.diff),
                );
                return Verdict::Inconclusive;
            }
        }
        match vs_baseline {
            None => {
                println!("    {name}: no baseline entry (new bench) — not gated");
                Verdict::NoDifference
            }
            Some(cmp) => {
                println!(
                    "    {name}: {} vs baseline — {} (δ={:+.2}, n={}→{})",
                    cmp.verdict.label(),
                    fmt_diff(&cmp.diff),
                    cmp.delta,
                    cmp.baseline_n,
                    cmp.candidate_n,
                );
                cmp.verdict
            }
        }
    }

    /// Interleaved A/B comparison of two closures under one budget:
    /// batches strictly alternate baseline/candidate so drift cancels
    /// out of the difference. Returns `None` when the name is filtered
    /// out. The verdict does **not** feed [`Harness::finish`]'s exit
    /// code — callers (the self-test) own the expectation.
    pub fn bench_pair<A, B, FA: FnMut() -> A, FB: FnMut() -> B>(
        &mut self,
        name: &str,
        mut baseline: FA,
        mut candidate: FB,
    ) -> Option<Comparison> {
        if let Some(filter) = &self.opts.filter {
            if !name.contains(filter.as_str()) {
                return None;
            }
        }
        self.ran += 1;

        // Shared batch size from the slower side's warm-up median keeps
        // the two sides' batch wall-times comparable.
        let warm_a = self.warmup(&mut baseline);
        let warm_b = self.warmup(&mut candidate);
        let iters = self.iters_per_batch(warm_a.max(warm_b), 2 * BATCHES_TARGET);

        let mut a: Vec<f64> = Vec::new();
        let mut b: Vec<f64> = Vec::new();
        let deadline = Instant::now() + self.opts.budget;
        while (Instant::now() < deadline && a.len() < MAX_BATCHES) || a.is_empty() {
            a.push(Self::run_batch(&mut baseline, iters));
            b.push(Self::run_batch(&mut candidate, iters));
        }

        let cmp = stats::compare(&a, &b, &self.opts.compare_config());
        println!(
            "  {name:<44} A med {:>12}  B med {:>12}  B−A {} — {} (δ={:+.2}, {}+{} batches)",
            fmt_ns(stats::median(&a)),
            fmt_ns(stats::median(&b)),
            fmt_diff(&cmp.diff),
            cmp.verdict.label(),
            cmp.delta,
            a.len(),
            b.len(),
        );
        for (side, samples) in [("a", a), ("b", b)] {
            let mut sorted = samples;
            sorted.sort_by(|x, y| x.total_cmp(y));
            let median = stats::percentile_sorted(&sorted, 0.5);
            let ci = stats::bootstrap_median_ci(
                &sorted,
                self.opts.confidence,
                self.opts.resamples,
                stats::DEFAULT_SEED,
            );
            self.stats.push(BenchStat {
                name: format!("{name}/{side}"),
                min_ns: sorted[0],
                median_ns: median,
                mean_ns: sorted.iter().sum::<f64>() / sorted.len() as f64,
                ci,
                iters: iters * sorted.len() as u64,
                samples_ns: sorted,
                split: None,
                vs_baseline: None,
                verdict: None,
            });
        }
        Some(cmp)
    }

    /// Print the final summary, write the JSON artifact and trajectory
    /// lines, and return the process exit code: `0` clean,
    /// [`EXIT_REGRESSION`] when any bench regressed,
    /// [`EXIT_INCONCLUSIVE`] when the worst outcome was an inconclusive
    /// measurement. Callers pass the value to `std::process::exit`.
    #[must_use = "pass the exit code to std::process::exit"]
    pub fn finish(self) -> i32 {
        if self.ran == 0 {
            if let Some(filter) = &self.opts.filter {
                eprintln!("warning: filter {filter:?} matched no benches");
            }
        }
        if let Some(path) = &self.opts.json_path {
            match std::fs::write(path, self.json_artifact()) {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
            }
        }
        if let Some(path) = &self.opts.trajectory {
            match std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                Ok(mut f) => {
                    use std::io::Write as _;
                    let lines = self.trajectory_lines();
                    match f.write_all(lines.as_bytes()) {
                        Ok(()) => println!("appended {} trajectory lines", self.stats.len()),
                        Err(e) => {
                            eprintln!("warning: could not append {}: {e}", path.display());
                        }
                    }
                }
                Err(e) => eprintln!("warning: could not open {}: {e}", path.display()),
            }
        }

        if !self.compare_mode() {
            println!("done ({} benches)", self.ran);
            return 0;
        }

        // Benches present in the baseline but never measured (filtered
        // out, or renamed since capture) are loudly non-gating.
        if let Some(b) = &self.baseline {
            for bench in &b.benches {
                if !self.stats.iter().any(|s| s.name == bench.name) {
                    eprintln!(
                        "warning: baseline bench {:?} was not measured this run",
                        bench.name
                    );
                }
            }
        }
        let worst = |v: Verdict| {
            self.stats
                .iter()
                .filter(|s| s.verdict == Some(v))
                .map(|s| s.name.clone())
                .collect::<Vec<_>>()
        };
        let regressions = worst(Verdict::Regression);
        let inconclusive = worst(Verdict::Inconclusive);
        let code = if !regressions.is_empty() {
            eprintln!(
                "{}: REGRESSION in {} (exit {EXIT_REGRESSION})",
                self.target,
                regressions.join(", ")
            );
            EXIT_REGRESSION
        } else if !inconclusive.is_empty() {
            eprintln!(
                "{}: inconclusive measurement for {} (exit {EXIT_INCONCLUSIVE}; \
                 report, don't gate)",
                self.target,
                inconclusive.join(", ")
            );
            EXIT_INCONCLUSIVE
        } else {
            println!("{}: no regression across {} benches", self.target, self.ran);
            0
        };
        code
    }

    /// The machine-readable run summary (stable key order, one object).
    /// The schema doubles as the committed-baseline format: per-bench
    /// raw `samples_ns` arrays ride next to the summary statistics.
    fn json_artifact(&self) -> String {
        let mut out = format!(
            "{{\"target\":{},\"budget_ms\":{},\"benches\":[",
            json::string(&self.target),
            self.opts.budget.as_millis()
        );
        for (i, s) in self.stats.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"min_ns\":{:.1},\"median_ns\":{:.1},\"mean_ns\":{:.1},\
                 \"ci_lo_ns\":{:.1},\"ci_hi_ns\":{:.1},\"confidence\":{},\"batches\":{},\
                 \"iters\":{}",
                json::string(&s.name),
                s.min_ns,
                s.median_ns,
                s.mean_ns,
                s.ci.lo,
                s.ci.hi,
                self.opts.confidence,
                s.samples_ns.len(),
                s.iters
            ));
            if let Some(cmp) = &s.vs_baseline {
                out.push_str(&format!(
                    ",\"diff_pct\":{:.2},\"diff_lo_pct\":{:.2},\"diff_hi_pct\":{:.2},\
                     \"delta\":{:.3}",
                    cmp.diff.point * 100.0,
                    cmp.diff.lo * 100.0,
                    cmp.diff.hi * 100.0,
                    cmp.delta
                ));
            }
            if let Some(split) = &s.split {
                out.push_str(&format!(
                    ",\"aa_split_pct\":{:.2},\"aa_split_verdict\":\"{}\"",
                    split.diff.point * 100.0,
                    split.verdict.label()
                ));
            }
            if let Some(v) = s.verdict {
                out.push_str(&format!(",\"verdict\":\"{}\"", v.label()));
            }
            out.push_str(",\"samples_ns\":[");
            for (j, v) in s.samples_ns.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{v:.1}"));
            }
            out.push_str("]}");
        }
        out.push(']');
        // Annotation values are JSON fragments by contract; keys are text.
        for (key, value) in &self.extras {
            out.push_str(&format!(",{}:{value}", json::string(key)));
        }
        out.push_str("}\n");
        out
    }

    /// One JSONL line per bench for the per-commit trajectory artifact.
    fn trajectory_lines(&self) -> String {
        let commit = json::string(self.opts.commit.as_deref().unwrap_or("unknown"));
        let target = json::string(&self.target);
        let mut out = String::new();
        for s in &self.stats {
            out.push_str(&format!(
                "{{\"commit\":{commit},\"target\":{target},\"bench\":{},\
                 \"median_ns\":{:.1},\"ci_lo_ns\":{:.1},\"ci_hi_ns\":{:.1},\"batches\":{}",
                json::string(&s.name),
                s.median_ns,
                s.ci.lo,
                s.ci.hi,
                s.samples_ns.len()
            ));
            if let Some(cmp) = &s.vs_baseline {
                out.push_str(&format!(",\"diff_pct\":{:.2}", cmp.diff.point * 100.0));
            }
            if let Some(v) = s.verdict {
                out.push_str(&format!(",\"verdict\":\"{}\"", v.label()));
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Render a relative-difference interval, e.g. `+1.6% [−0.8%, +4.0%]`.
fn fmt_diff(ci: &Ci) -> String {
    format!(
        "{:+.1}% [{:+.1}%, {:+.1}%]",
        ci.point * 100.0,
        ci.lo * 100.0,
        ci.hi * 100.0
    )
}

/// Render nanoseconds with an adaptive unit, e.g. `12.3 µs`. Shared with
/// `crate::trajectory`'s per-commit tables.
pub(crate) fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(12.34), "12.3 ns");
        assert_eq!(fmt_ns(12_340.0), "12.34 µs");
        assert_eq!(fmt_ns(12_340_000.0), "12.34 ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.50 s");
    }

    fn test_options(budget_ms: u64, filter: Option<&str>) -> Options {
        Options {
            budget: Duration::from_millis(budget_ms),
            filter: filter.map(str::to_string),
            ..Options::default()
        }
    }

    fn test_harness(budget_ms: u64, filter: Option<&str>) -> Harness {
        Harness {
            target: "test".to_string(),
            opts: test_options(budget_ms, filter),
            baseline: None,
            ran: 0,
            stats: Vec::new(),
            extras: Vec::new(),
        }
    }

    /// A deterministic spin workload, heavy enough to time.
    fn spin(iters: u64) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for i in 0..iters {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            acc ^= x.rotate_left((i & 63) as u32);
        }
        acc
    }

    #[test]
    fn bench_runs_the_closure_and_counts_it() {
        let mut h = test_harness(20, None);
        let mut calls = 0u64;
        h.bench("tiny", || {
            calls += 1;
            calls
        });
        assert!(calls > 0, "closure never ran");
        assert_eq!(h.ran, 1);
        assert!(!h.stats[0].samples_ns.is_empty());
    }

    #[test]
    fn filter_skips_non_matching_names() {
        let mut h = test_harness(20, Some("match-me"));
        let mut calls = 0u64;
        h.bench("other", || calls += 1);
        assert_eq!(calls, 0);
        assert_eq!(h.ran, 0);
        h.bench("does-match-me-yes", || calls += 1);
        assert!(calls > 0);
        assert_eq!(h.ran, 1);
    }

    #[test]
    fn batch_count_sane_under_slow_first_call() {
        // A body whose first call is ~3 orders of magnitude slower than
        // every later call (lazy init). Batch sizing must come from the
        // warm-up *median*, which sees past the outlier; the batch count
        // must stay within [a useful floor, MAX_BATCHES].
        let mut h = test_harness(80, None);
        let mut first = true;
        h.bench("slow_first_call", || {
            if first {
                first = false;
                spin(3_000_000)
            } else {
                spin(2_000)
            }
        });
        let batches = h.stats[0].samples_ns.len();
        assert!(
            (5..=MAX_BATCHES).contains(&batches),
            "batch count {batches} out of sane bounds"
        );
        // And the recorded per-iter time reflects the steady state, not
        // the slow first call.
        let warm_call_ns = h.stats[0].median_ns;
        assert!(
            warm_call_ns < 1_000_000.0,
            "median {warm_call_ns} ns dominated by the cold first call"
        );
    }

    #[test]
    fn batch_count_capped_for_tiny_bodies() {
        let mut h = test_harness(40, None);
        h.bench("tiny_body", || 1u64);
        assert!(h.stats[0].samples_ns.len() <= MAX_BATCHES);
    }

    #[test]
    fn bench_pair_aa_reports_no_difference() {
        // Identical closures, interleaved: must not fabricate a
        // difference. A ±5 % guard band absorbs scheduler noise in the
        // shared-CI environment this test runs in.
        let mut h = test_harness(120, None);
        h.opts.min_effect = 0.05;
        let cmp = h
            .bench_pair("aa", || spin(2_000), || spin(2_000))
            .expect("not filtered");
        assert_eq!(
            cmp.verdict,
            Verdict::NoDifference,
            "A/A fabricated a difference: {cmp:?}"
        );
    }

    #[test]
    fn bench_pair_flags_large_injected_slowdown() {
        // A 2× injected slowdown is unmissable for a working harness.
        let mut h = test_harness(120, None);
        let cmp = h
            .bench_pair("ab_2x", || spin(2_000), || spin(4_000))
            .expect("not filtered");
        assert_eq!(cmp.verdict, Verdict::Regression, "{cmp:?}");
        assert!(cmp.diff.point > 0.3, "{cmp:?}");
    }

    #[test]
    fn bench_pair_sides_recorded_with_equal_batches() {
        let mut h = test_harness(40, None);
        h.bench_pair("pair", || spin(500), || spin(500));
        let a = h.stats.iter().find(|s| s.name == "pair/a").expect("side a");
        let b = h.stats.iter().find(|s| s.name == "pair/b").expect("side b");
        assert_eq!(a.samples_ns.len(), b.samples_ns.len());
    }

    #[test]
    fn json_artifact_has_samples_and_ci_per_bench() {
        let mut h = test_harness(20, None);
        h.bench("alpha", || 1u64);
        h.bench("beta", || 2u64);
        let json = h.json_artifact();
        assert!(json.starts_with("{\"target\":\"test\",\"budget_ms\":20,\"benches\":["));
        assert!(json.contains("\"name\":\"alpha\""));
        assert!(json.contains("\"name\":\"beta\""));
        assert_eq!(json.matches("\"median_ns\":").count(), 2);
        assert_eq!(json.matches("\"ci_lo_ns\":").count(), 2);
        assert_eq!(json.matches("\"samples_ns\":[").count(), 2);
        // The artifact parses as its own baseline format.
        let parsed = crate::baseline::Baseline::from_json(&json).expect("self-parse");
        assert_eq!(parsed.target, "test");
        assert_eq!(parsed.benches.len(), 2);
    }

    #[test]
    fn annotations_become_top_level_json_fields() {
        let mut h = test_harness(20, None);
        h.bench("alpha", || 1u64);
        h.annotate("events_per_sec", "123456.7");
        h.annotate("scenario", "\"fig5\"");
        let json = h.json_artifact();
        assert!(json.contains(",\"events_per_sec\":123456.7,\"scenario\":\"fig5\"}"));
    }

    /// Deterministic synthetic per-batch timings around `center` with a
    /// ±`jitter` relative spread. Using synthetic samples keeps the
    /// verdict-path tests bit-stable on any machine and build profile —
    /// the statistics are fully seeded, so the verdicts are facts, not
    /// measurements.
    fn synth(seed: u64, n: usize, center: f64, jitter: f64) -> Vec<f64> {
        let mut rng = sim_engine::rng::Rng::new(seed);
        (0..n)
            .map(|_| center * (1.0 + jitter * (2.0 * rng.f64() - 1.0)))
            .collect()
    }

    fn baseline_of(samples: &[f64]) -> crate::baseline::Baseline {
        crate::baseline::Baseline {
            target: "test".to_string(),
            benches: vec![crate::baseline::BaselineBench {
                name: "workload".to_string(),
                samples_ns: samples.to_vec(),
            }],
        }
    }

    /// Feed a candidate sample set against a committed baseline set
    /// through the full record→verdict→exit pipeline.
    fn compare_round(base: &[f64], candidate: Vec<f64>, min_effect: f64) -> (i32, Option<Verdict>) {
        let mut h = test_harness(100, None);
        h.opts.min_effect = min_effect;
        h.opts.baseline_path = Some(PathBuf::from("<in-memory>"));
        h.baseline = Some(baseline_of(base));
        h.ran += 1;
        h.record("workload", candidate, 100);
        let verdict = h.stats[0].verdict;
        (h.finish(), verdict)
    }

    #[test]
    fn compare_mode_aa_run_exits_zero() {
        // Same distribution, independent draws: exit 0 under the ±5 %
        // guard band the CI gate uses.
        let base = synth(1, 40, 1000.0, 0.02);
        let cand = synth(2, 40, 1000.0, 0.02);
        let (code, verdict) = compare_round(&base, cand, 0.05);
        assert_eq!(code, 0, "A/A compare must pass, verdict: {verdict:?}");
        assert_eq!(verdict, Some(Verdict::NoDifference));
    }

    #[test]
    fn compare_mode_flags_injected_slowdown_exit_2() {
        // Candidate runs 10 % slower than the committed baseline.
        let base = synth(1, 40, 1000.0, 0.02);
        let cand = synth(2, 40, 1100.0, 0.02);
        let (code, verdict) = compare_round(&base, cand, 0.05);
        assert_eq!(code, EXIT_REGRESSION, "verdict: {verdict:?}");
        assert_eq!(verdict, Some(Verdict::Regression));
    }

    #[test]
    fn compare_mode_drifting_run_is_inconclusive_exit_3() {
        // The candidate's own run drifts 20 % between its first and
        // second half — the intra-run A/A split must refuse to gate.
        let mut cand = synth(3, 20, 1000.0, 0.02);
        cand.extend(synth(4, 20, 1200.0, 0.02));
        let base = synth(1, 40, 1000.0, 0.02);
        let (code, verdict) = compare_round(&base, cand, 0.05);
        assert_eq!(code, EXIT_INCONCLUSIVE, "verdict: {verdict:?}");
        assert_eq!(verdict, Some(Verdict::Inconclusive));
    }

    #[test]
    fn compare_mode_new_bench_is_not_gated() {
        let mut h = test_harness(30, None);
        h.opts.min_effect = 0.05;
        h.baseline = Some(baseline_of(&synth(1, 40, 1000.0, 0.02)));
        h.ran += 1;
        h.record("new_name", synth(2, 40, 5000.0, 0.02), 40);
        assert_eq!(h.stats[0].verdict, Some(Verdict::NoDifference));
        assert_eq!(h.finish(), 0);
    }

    #[test]
    fn options_parse_flags_and_filter() {
        let mut opts = Options::default();
        opts.apply_args(
            [
                "--budget-ms",
                "123",
                "--compare",
                "base.json",
                "--confidence",
                "95",
                "--min-effect",
                "5",
                "--resamples",
                "500",
                "--commit",
                "abc123",
                "--trajectory",
                "traj.jsonl",
                "--bench", // cargo's own flag: ignored
                "fig5",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .expect("valid args");
        assert_eq!(opts.budget, Duration::from_millis(123));
        assert_eq!(opts.baseline_path, Some(PathBuf::from("base.json")));
        assert_eq!(opts.confidence, 0.95);
        assert_eq!(opts.min_effect, 0.05);
        assert_eq!(opts.resamples, 500);
        assert_eq!(opts.commit.as_deref(), Some("abc123"));
        assert_eq!(opts.trajectory, Some(PathBuf::from("traj.jsonl")));
        assert_eq!(opts.filter.as_deref(), Some("fig5"));
    }

    #[test]
    fn options_reject_bad_values() {
        for bad in [
            &["--budget-ms"][..],
            &["--budget-ms", "abc"],
            &["--confidence", "120"],
            &["--confidence", "12"],
            &["--min-effect", "-3"],
            &["--resamples", "3"],
        ] {
            let mut opts = Options::default();
            assert!(
                opts.apply_args(bad.iter().map(|s| s.to_string())).is_err(),
                "accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn trajectory_lines_are_one_json_object_per_bench() {
        let mut h = test_harness(20, None);
        h.opts.commit = Some("deadbeef".to_string());
        h.bench("alpha", || 1u64);
        h.bench("beta", || 2u64);
        let lines = h.trajectory_lines();
        let rows: Vec<&str> = lines.lines().collect();
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert!(row.starts_with("{\"commit\":\"deadbeef\",\"target\":\"test\""));
            assert!(row.ends_with('}'));
            assert!(row.contains("\"ci_lo_ns\":"));
        }
    }

    #[test]
    fn labels_with_quotes_and_backslashes_roundtrip() {
        let label = r#"v1 "quoted" C:\ci\run"#;
        let mut h = test_harness(20, None);
        h.target = "t\"x".to_string();
        h.opts.commit = Some(label.to_string());
        h.bench(r#"alpha\"beta"#, || 1u64);
        let points = crate::trajectory::parse_lines(&h.trajectory_lines()).expect("parses");
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].commit, label);
        assert_eq!(points[0].target, "t\"x");
        assert_eq!(points[0].bench, r#"alpha\"beta"#);
        let artifact = crate::baseline::Baseline::from_json(&h.json_artifact()).expect("parses");
        assert_eq!(artifact.target, "t\"x");
        assert_eq!(artifact.benches[0].name, r#"alpha\"beta"#);
    }
}
