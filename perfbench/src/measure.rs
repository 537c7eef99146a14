//! The untraced run: repeated cold + warm campaign rounds over the
//! workload's shard list, timed only around `Campaign::run`, with every
//! record checked afterwards. All end-to-end metrics come from here.
//!
//! Every pass runs on one worker and is timed in CPU time
//! ([`cpu_ns`]), so a figure moves with the work the program does and
//! not with how much of the host's cores other load left it. Every
//! timing is then scaled to reference CPU time by the calibration kernel
//! runs made nearest it ([`HostSpeed`]). The cold
//! pass submits its shards one `Campaign::run` call at a time, which is
//! what gives each shard a CPU time of its own.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration as WallDuration, Instant as WallClock};

use campaign::cache::RecordCache;
use campaign::hash::content_hash;
use campaign::manifest::Manifest;
use campaign::{Campaign, CampaignRun, ExecMode, ShardOutcome};
use spider_core::report::RunRecord;

use crate::calibrate::HostSpeed;
use crate::host::cpu_ns;
use crate::stats::{count_above, median, quantile, rate, Work};
use crate::workloads::{build, Inputs, Workload};
use crate::{Checks, Metric, Outcome};

/// Set-ups timed back to back after the warm-up round, cycling over the
/// first `SETUP_ROUNDS` rounds' inputs; `setup_s` is their median. Timed
/// one before each round instead, a set-up's time moved by half with
/// what the previous pass had left in the caches and the heap.
const SETUPS: u64 = 64;
const SETUP_ROUNDS: u64 = 4;
/// Calibration kernel runs on either side of the set-ups. Kernel runs
/// five seconds away from them scaled them so poorly that metro-convoy's
/// `setup_s` spread 0.54 over ten runs.
const SETUP_KERNELS: usize = 8;
/// Timed rounds always run, the repeat of round 0 included, whatever
/// `--seconds` says: medians need three.
const MIN_ROUNDS: u64 = 3;
/// `shard_p90_ms` needs at least ten cold shards beyond it.
const MIN_COLD_SHARDS: usize = 100;
/// Calibration kernel runs per cold pass, at most: one before every
/// `n / COLD_KERNELS`-th shard.
const COLD_KERNELS: usize = 24;
/// Calibration kernel runs per round's warm passes, at most.
const WARM_KERNELS: usize = 8;
/// Worker threads (or worker processes) for every pass. One: with more,
/// a pass's wall time and its shards' share of a core depend on how many
/// cores the host grants at that moment.
const WORKERS: usize = 1;

/// The campaign runner a workload uses for its cold and warm passes.
fn campaign(workload: Workload, cache_dir: &Path) -> io::Result<Campaign> {
    let exec = if workload.process_exec() {
        ExecMode::Process {
            program: std::env::current_exe()?,
            args: vec!["--worker".to_string()],
        }
    } else {
        ExecMode::InProcess
    };
    Ok(Campaign::new(cache_dir)
        .with_workers(WORKERS)
        .with_quiet(true)
        .with_exec(exec))
}

pub fn run(workload: Workload, seed: u64, seconds: u64, work_dir: &Path) -> io::Result<Outcome> {
    let budget = WallDuration::from_secs(seconds);
    let started = WallClock::now();
    let mut r = Rounds {
        workload,
        seed,
        work_dir,
        setup_s: Vec::new(),
        cold: Work::default(),
        cold_cpu_ns: 0,
        cold_wall_ns: 0,
        cold_passes: 0,
        replay_rate: Vec::new(),
        cold_ms: Vec::new(),
        speed: HostSpeed::default(),
        scales: Vec::new(),
        checks: Checks::default(),
    };
    // Round 0 first, as an untimed warm-up. It comes before the
    // calibration kernel first maps its 2 MiB table, so VmHWM after it is
    // the campaign's own peak. Then the set-ups, between kernel runs.
    let first = r.round(0, None, false)?;
    let peak_rss_mb = crate::host::peak_rss_mb();
    r.time_set_ups()?;
    // Timed rounds while the budget lasts, keeping room for a repeat of
    // round 0 (same code, same inputs, so the same records), whose cold
    // shards count towards the percentile samples too.
    let mut round = 1u64;
    loop {
        let round_started = WallClock::now();
        r.round(round, None, true)?;
        round += 1;
        let round_time = round_started.elapsed();
        let enough = round >= MIN_ROUNDS && r.cold_ms.len() + first.len() >= MIN_COLD_SHARDS;
        if enough && started.elapsed() + 2 * round_time > budget {
            break;
        }
    }
    r.round(0, Some(&first), true)?;

    let p90 = quantile(&r.cold_ms, 0.9).expect("cold samples");
    let beyond_p90 = count_above(&r.cold_ms, p90);
    let cpu_share = r.cold_cpu_ns as f64 / r.cold_wall_ns as f64;
    let unscaled = r.cold.sim_client_s / (r.cold_cpu_ns as f64 / 1e9);
    let (lo, hi) = (
        r.scales.iter().copied().fold(f64::INFINITY, f64::min),
        r.scales.iter().copied().fold(0.0, f64::max),
    );
    let metrics = vec![
        Metric::new("setup_s", med(&r.setup_s), "s", r.setup_s.len()),
        Metric::new(
            "sim_rate",
            rate(&r.cold, "sim_rate"),
            "client-s/cpu-s",
            r.cold_passes,
        )
        .with_note(format!(
            "host-speed scale {:.3} (rounds {lo:.3}-{hi:.3}); unscaled {unscaled:.1} \
             client-s/cpu-s; cold passes used {cpu_share:.3} CPU-s per wall-s",
            med(&r.scales)
        )),
        Metric::new(
            "shard_p50_ms",
            quantile(&r.cold_ms, 0.5).expect("cold samples"),
            "ms",
            r.cold_ms.len(),
        ),
        Metric::new("shard_p90_ms", p90, "ms", r.cold_ms.len())
            .with_note(format!("{beyond_p90} shards beyond it")),
        Metric::new(
            "replay_shards_per_s",
            med(&r.replay_rate),
            "shards/s",
            r.replay_rate.len(),
        ),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB", 1),
    ];
    Ok(Outcome {
        metrics,
        checks: r.checks,
        digest: digest_of(&first),
        rounds: Some(round + 1),
    })
}

/// The untraced run's state: where rounds go and what they measured.
struct Rounds<'a> {
    workload: Workload,
    seed: u64,
    work_dir: &'a Path,
    /// Every timed set-up's reference CPU time, s.
    setup_s: Vec<f64>,
    /// Work and reference CPU time summed over every cold pass.
    cold: Work,
    /// Unscaled CPU time and wall time summed over every cold pass.
    cold_cpu_ns: u64,
    cold_wall_ns: u64,
    cold_passes: usize,
    replay_rate: Vec<f64>,
    /// Every cold shard's reference CPU time, ms.
    cold_ms: Vec<f64>,
    speed: HostSpeed,
    /// Each round's host-speed scale.
    scales: Vec<f64>,
    checks: Checks,
}

impl Rounds<'_> {
    /// Set-up: build round `round`'s inputs and open a fresh cache
    /// directory for them. Returns the CPU seconds the build took.
    /// Opening the directory is left out: it is one `create_dir_all`,
    /// whose time moved two- to sevenfold between runs with the file
    /// system's state, and so set lab-tcp's `setup_s`, whose build takes
    /// a few microseconds.
    fn set_up(&self, round: u64, name: &str) -> io::Result<(f64, Inputs, PathBuf)> {
        let t = cpu_ns();
        let inputs = build(self.workload, self.seed, round, None);
        let secs = (cpu_ns() - t) as f64 / 1e9;
        let cache_dir = self.work_dir.join(name);
        RecordCache::open(&cache_dir)?;
        Ok((secs, inputs, cache_dir))
    }

    /// Time `SETUPS` set-ups and scale them by the calibration kernel
    /// runs on either side of them.
    fn time_set_ups(&mut self) -> io::Result<()> {
        for _ in 0..SETUP_KERNELS {
            self.speed.sample()?;
        }
        let mut secs = Vec::new();
        for k in 0..SETUPS {
            let (s, _, dir) = self.set_up(k % SETUP_ROUNDS, &format!("setup{k}"))?;
            secs.push(s);
            std::fs::remove_dir_all(dir)?;
        }
        for _ in 0..SETUP_KERNELS {
            self.speed.sample()?;
        }
        let scale = self.speed.take_scale();
        self.setup_s = secs.iter().map(|s| s * scale).collect();
        Ok(())
    }

    /// One round: set-up, a cold pass, warm passes, then the record
    /// checks. Returns the round's record hashes in submit order. When
    /// `timed`, the calibration kernel runs between cold shards and
    /// between warm passes, and the passes' times are kept: a cold
    /// shard's scaled by the kernel runs nearest it, the warm passes' by
    /// the kernel runs made among them.
    fn round(
        &mut self,
        round: u64,
        reference: Option<&[String]>,
        timed: bool,
    ) -> io::Result<Vec<String>> {
        let name = format!("round{round}-{}", self.cold_passes);
        let (_, inputs, cache_dir) = self.set_up(round, &name)?;
        let runner = campaign(self.workload, &cache_dir)?;
        let n = inputs.shards.len();
        let work = inputs.sim_client_s();
        let warm_input = inputs.shards.clone();

        // The cold pass: one call per shard into the same cache, each
        // timed on its own. A shard's time is the whole call's, campaign
        // bookkeeping (and, for process exec, the worker's start) with it.
        let mut cold = Vec::with_capacity(n);
        let mut cold_ns = Vec::with_capacity(n);
        let mut kernels_before = Vec::with_capacity(n);
        let mut cold_wall_ns = 0;
        let every = (n / COLD_KERNELS).max(1);
        for (i, shard) in inputs.shards.into_iter().enumerate() {
            if timed && i % every == 0 {
                self.speed.sample()?;
            }
            kernels_before.push(self.speed.samples());
            let (t, wall) = (cpu_ns(), WallClock::now());
            let run = runner.run(vec![shard])?;
            cold_ns.push(cpu_ns() - t);
            cold_wall_ns += wall.elapsed().as_nanos() as u64;
            let mut outcomes = run.outcomes.into_iter();
            cold.push(outcomes.next().filter(|_| outcomes.len() == 0));
        }

        if timed {
            let scales = self.speed.take_local_scales(&kernels_before);
            self.scales.push(med(&scales));
            let scaled_ms: Vec<f64> = cold_ns
                .iter()
                .zip(&scales)
                .map(|(&ns, scale)| ns as f64 * scale / 1e6)
                .collect();
            self.cold_cpu_ns += cold_ns.iter().sum::<u64>();
            self.cold_wall_ns += cold_wall_ns;
            self.cold.pass_ns += (scaled_ms.iter().sum::<f64>() * 1e6) as u64;
            self.cold.sim_client_s += work;
            self.cold_passes += 1;
            self.cold_ms.extend(scaled_ms);
        }

        // Warm passes. Each starts from the manifest the cold pass left,
        // so every pass is the same first replay after a cold run and
        // replays a manifest of the same length.
        let manifest = Manifest::path_in(&cache_dir);
        let after_cold = std::fs::read(&manifest)?;
        let mut warm_ok = vec![true; n];
        let mut pass_s = Vec::new();
        let passes = warm_passes(self.workload);
        for pass in 0..passes {
            if timed && pass % (passes / WARM_KERNELS).max(1) == 0 {
                self.speed.sample()?;
            }
            std::fs::write(&manifest, &after_cold)?;
            let input = warm_input.clone();
            let t = cpu_ns();
            let warm = runner.run(input)?;
            pass_s.push((cpu_ns() - t) as f64 / 1e9);
            check_warm(&cold, &warm, pass == 0, &mut warm_ok);
        }

        if timed {
            let scale = self.speed.take_scale();
            self.replay_rate.push(n as f64 / (med(&pass_s) * scale));
        }

        let hashes = check_round(&cold, &warm_ok, reference, &mut self.checks);
        std::fs::remove_dir_all(&cache_dir)?;
        Ok(hashes)
    }
}

/// Warm passes per round, sized so a round's replays take a few hundred
/// milliseconds on a 2-core host: long enough to time, short beside the
/// cold pass.
fn warm_passes(workload: Workload) -> usize {
    match workload {
        Workload::DriveSweep => 16,
        Workload::MetroConvoy => 12,
        Workload::LabTcp => 96,
    }
}

/// Every warm outcome must be a hit on the cold shard's hash; the first
/// pass of a round must also reproduce the cold record byte for byte.
fn check_warm(cold: &[Option<ShardOutcome>], warm: &CampaignRun, bytewise: bool, ok: &mut [bool]) {
    for (i, good) in ok.iter_mut().enumerate() {
        let same = match (cold.get(i).and_then(Option::as_ref), warm.outcomes.get(i)) {
            (Some(c), Some(w)) => {
                w.cache_hit
                    && w.hash == c.hash
                    && (!bytewise
                        || RunRecord::to_json(&w.result).ok() == RunRecord::to_json(&c.result).ok())
            }
            _ => false,
        };
        *good &= same;
    }
}

fn med(v: &[f64]) -> f64 {
    median(v).expect("at least one round")
}

/// `record_digest`: one hash over every record hash in submit order.
pub fn digest_of(record_hashes: &[String]) -> String {
    content_hash(record_hashes.concat().as_bytes())
}

/// Check one round's records; returns each shard's record hash in
/// submit order. A shard fails when its cold call did not return exactly
/// one freshly run outcome, when its stored record does not match the
/// in-memory result, does not survive `to_json → from_json → to_json`
/// byte for byte, differs from `reference` (the records of an earlier
/// run of the same inputs), or is not replayed by every warm pass (see
/// [`check_warm`]).
fn check_round(
    cold: &[Option<ShardOutcome>],
    warm_ok: &[bool],
    reference: Option<&[String]>,
    checks: &mut Checks,
) -> Vec<String> {
    let mut hashes = Vec::with_capacity(warm_ok.len());
    for (i, &warm) in warm_ok.iter().enumerate() {
        let Some(shard) = cold
            .get(i)
            .and_then(Option::as_ref)
            .filter(|o| !o.cache_hit)
        else {
            checks.record(
                &format!("shard #{i}"),
                [(false, "cold pass did not run the shard")],
            );
            hashes.push(String::new());
            continue;
        };
        let stored = std::fs::read_to_string(&shard.record_path).unwrap_or_default();
        hashes.push(content_hash(stored.as_bytes()));
        let verdicts = [
            (
                RunRecord::to_json(&shard.result).ok().as_deref() == Some(stored.as_str()),
                "stored record differs from the returned result",
            ),
            (round_trips(&stored), "record does not round-trip exactly"),
            (
                reference.is_none_or(|r| r.get(i) == hashes.last()),
                "record differs between rounds of the same code",
            ),
            (warm, "warm replay differs from the cold record"),
        ];
        checks.record(&shard.label, verdicts);
    }
    hashes
}

/// Does `json` survive `from_json → to_json` byte for byte?
pub fn round_trips(json: &str) -> bool {
    RunRecord::from_json(json)
        .ok()
        .and_then(|r| RunRecord::to_json(&r).ok())
        .is_some_and(|again| again == json)
}
