//! The traced run: the steps `Campaign::run` performs, called one by one
//! through the public API with a span around each call, plus isolated
//! probes of the layers' hot operations. All per-layer metrics come from
//! here; none of its times feed an end-to-end metric.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant as WallClock;

use campaign::cache::RecordCache;
use campaign::hash::{content_hash, shard_hash};
use campaign::manifest::{Manifest, ManifestEntry};
use campaign::{Campaign, ExecMode};
use dhcp::message::DhcpMessage;
use geo::GridIndex;
use mobility::geometry::Point;
use mobility::route::{Route, Vehicle};
use sim_engine::queue::EventQueue;
use sim_engine::time::{Duration, Instant};
use spider_core::codec::{decode_world, encode_world};
use spider_core::report::RunRecord;
use spider_core::world::{
    run_with_diagnostics, ClientMotion, RunDiagnostics, RunResult, WorldConfig,
};
use tcp_lite::{Segment, SeqNum};
use wifi_mac::addr::MacAddr;
use wifi_mac::channel::Channel;
use wifi_mac::frame::{Frame, Ssid};

use crate::measure::{digest_of, round_trips};
use crate::stats::{median, rate, Work};
use crate::workloads::{build, Workload};
use crate::{Checks, Metric, Outcome};

/// One timed call. Spans of one shard share its index.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    shard: Option<usize>,
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    epoch: WallClock,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: WallClock::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str, layer: &'static str, shard: Option<usize>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            shard,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a span with no children.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        shard: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, layer, shard);
        let out = f();
        self.exit(id);
        out
    }

    /// Write every span as one JSON line; `labels` names the shards.
    fn write_jsonl(&self, path: &Path, labels: &[&str]) -> io::Result<()> {
        use std::io::Write;
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let shard = s
                .shard
                .and_then(|i| labels.get(i))
                .map_or("null".to_string(), |l| crate::json_str(l));
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"shard\":{shard}}}",
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
            )?;
        }
        out.flush()
    }

    /// Durations of every span called `name`, ns.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self time per layer: each span's duration minus the part its
    /// direct children cover.
    fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *by_layer.entry(s.layer).or_insert(0) += (s.end_ns - s.start_ns) - children;
        }
        by_layer
    }
}

/// Where the traced run leaves its spans: beside the per-process work
/// directory, which is removed on exit.
fn trace_path(work_dir: &Path, workload: Workload, seed: u64) -> std::path::PathBuf {
    work_dir
        .parent()
        .unwrap_or(work_dir)
        .join(format!("trace-{}-seed{seed}.jsonl", workload.name()))
}

/// Layers whose self time the report lists, in span-layer names.
const LAYERS: [&str; 6] = [
    "bench",
    "campaign",
    "codec",
    "mobility",
    "report",
    "spider_core",
];

/// What one shard produced in the traced pass.
struct ShardRun {
    label: String,
    hash: String,
    json: String,
    result: RunResult,
    diag: RunDiagnostics,
}

pub fn run(workload: Workload, seed: u64, work_dir: &Path) -> io::Result<Outcome> {
    let mut tracer = Tracer::new();
    let mut checks = Checks::default();

    let setup = tracer.enter("setup", "bench", None);
    let inputs = build(workload, seed, 0, Some(&mut tracer));
    tracer.exit(setup);
    let sim_client_s = inputs.sim_client_s();
    let shards = inputs.shards;
    let n = shards.len();

    // Untraced reference: the same shards through `Campaign::run` on one
    // in-process worker, the traced pass's shape. It runs before the
    // traced pass and again after the process pass; their mean is the
    // untraced wall, so warm-up and drift fall on both sides.
    let one_worker = |dir: &Path| Campaign::new(dir).with_workers(1).with_quiet(true);
    let timed_pass = |campaign: Campaign| -> io::Result<(campaign::CampaignRun, u64)> {
        let t = WallClock::now();
        let run = campaign.run(shards.clone())?;
        Ok((run, t.elapsed().as_nanos() as u64))
    };
    let (reference, ref_before_ns) = timed_pass(one_worker(&work_dir.join("reference")))?;

    // Traced cold pass. Like `Campaign::run` with one worker, it runs
    // on a spawned thread: shards on a fresh thread and on the main
    // thread differ in speed, which would otherwise land in the overhead.
    let traced_dir = work_dir.join("traced");
    let traced_input = shards.clone();
    let cache = RecordCache::open(&traced_dir)?;
    let manifest = Manifest::open(&traced_dir)?;
    let t = WallClock::now();
    let runs = std::thread::scope(|scope| {
        scope
            .spawn(|| traced_cold_pass(&mut tracer, traced_input, &cache, &manifest))
            .join()
    })
    .map_err(|_| io::Error::other("traced pass panicked"))??;
    let traced_wall_ns = t.elapsed().as_nanos() as u64;

    // Traced warm pass and the exact round trip.
    let mut warm_ok = Vec::with_capacity(n);
    let mut trip_ok = Vec::with_capacity(n);
    for (i, r) in runs.iter().enumerate() {
        let loaded = tracer.leaf("load", "campaign", Some(i), || cache.load(&r.hash));
        warm_ok
            .push(loaded.is_some_and(|l| RunRecord::to_json(&l).ok().as_deref() == Some(&r.json)));
        tracer.leaf("from_json", "report", Some(i), || {
            black_box(RunRecord::from_json(&r.json)).is_ok()
        });
        trip_ok.push(round_trips(&r.json));
    }

    // The same shards on one fleet worker process.
    let (process, proc_wall_ns) = timed_pass(one_worker(&work_dir.join("process")).with_exec(
        ExecMode::Process {
            program: std::env::current_exe()?,
            args: vec!["--worker".to_string()],
        },
    ))?;
    let (_, ref_after_ns) = timed_pass(one_worker(&work_dir.join("reference2")))?;
    let ref_wall_ns = (ref_before_ns + ref_after_ns) / 2;

    // A second, untraced run of every shard, for the determinism check
    // on counters that never reach the record.
    let again = sim_engine::par::map(shards.clone(), |_, (_, world)| {
        let (result, diag) = run_with_diagnostics(world);
        (RunRecord::to_json(&result).ok(), diag)
    });

    // The fleet codec on every shard's config.
    let mut codec_ok = Vec::with_capacity(n);
    for (i, (_, world)) in shards.iter().enumerate() {
        let bytes = tracer.leaf("encode_world", "codec", Some(i), || encode_world(world));
        let decoded = tracer.leaf("decode_world", "codec", Some(i), || decode_world(&bytes));
        codec_ok.push(decoded.is_ok_and(|d| shard_hash(&d) == runs[i].hash));
    }

    let stored = |run: &campaign::CampaignRun, i: usize| {
        run.outcomes
            .get(i)
            .and_then(|o| std::fs::read_to_string(&o.record_path).ok())
    };
    for (i, r) in runs.iter().enumerate() {
        let verdicts = [
            (trip_ok[i], "record does not round-trip exactly"),
            (warm_ok[i], "warm load differs from the cold record"),
            (
                stored(&reference, i).as_deref() == Some(r.json.as_str()),
                "traced record differs from the campaign's in-process record",
            ),
            (
                stored(&process, i).as_deref() == Some(r.json.as_str()),
                "process-exec record differs from the in-process record",
            ),
            (
                again[i].0.as_deref() == Some(r.json.as_str()) && again[i].1 == r.diag,
                "a deterministic count differs between two runs",
            ),
            (codec_ok[i], "world codec does not round-trip"),
        ];
        checks.record(&r.label, verdicts);
    }

    let metrics = layer_metrics(
        &tracer,
        &shards,
        &runs,
        Work {
            sim_client_s,
            pass_ns: traced_wall_ns,
            events: runs.iter().map(|r| r.diag.events_delivered).sum(),
            busy_ns: tracer.durations("run_with_diagnostics").iter().sum::<f64>() as u64,
            bytes_delivered: runs.iter().map(|r| r.result.total_bytes).sum(),
            rtos: runs.iter().map(|r| r.result.tcp_rtos).sum(),
        },
        Walls {
            reference_ns: ref_wall_ns,
            traced_ns: traced_wall_ns,
            process_ns: proc_wall_ns,
        },
    );
    let labels: Vec<&str> = runs.iter().map(|r| r.label.as_str()).collect();
    tracer.write_jsonl(&trace_path(work_dir, workload, seed), &labels)?;
    let hashes: Vec<String> = runs
        .iter()
        .map(|r| content_hash(r.json.as_bytes()))
        .collect();
    Ok(Outcome {
        metrics,
        checks,
        digest: digest_of(&hashes),
        rounds: None,
    })
}

/// shard_hash → run_with_diagnostics → to_json → store_json → manifest
/// append for every shard, one span each.
fn traced_cold_pass(
    tracer: &mut Tracer,
    shards: Vec<(String, WorldConfig)>,
    cache: &RecordCache,
    manifest: &Manifest,
) -> io::Result<Vec<ShardRun>> {
    let mut runs = Vec::with_capacity(shards.len());
    for (i, (label, world)) in shards.into_iter().enumerate() {
        let shard = tracer.enter("shard", "bench", Some(i));
        let hash = tracer.leaf("shard_hash", "campaign", Some(i), || shard_hash(&world));
        let (result, diag) = tracer.leaf("run_with_diagnostics", "spider_core", Some(i), || {
            run_with_diagnostics(world)
        });
        let json = tracer
            .leaf("to_json", "report", Some(i), || RunRecord::to_json(&result))
            .map_err(|e| io::Error::other(format!("{label}: {e}")))?;
        tracer.leaf("store_json", "campaign", Some(i), || {
            cache.store_json(&hash, &json)
        })?;
        let entry = ManifestEntry {
            shard: label.clone(),
            hash: hash.clone(),
            wall_ms: 0,
            cache_hit: false,
            path: format!("reports/{hash}.json"),
        };
        tracer.leaf("manifest_append", "campaign", Some(i), || {
            manifest.append(&entry)
        })?;
        tracer.exit(shard);
        runs.push(ShardRun {
            label,
            hash,
            json,
            result,
            diag,
        });
    }
    Ok(runs)
}

/// Cold-pass wall times of the traced run's three passes.
struct Walls {
    reference_ns: u64,
    traced_ns: u64,
    process_ns: u64,
}

fn layer_metrics(
    tracer: &Tracer,
    shards: &[(String, WorldConfig)],
    runs: &[ShardRun],
    work: Work,
    walls: Walls,
) -> Vec<Metric> {
    let n = runs.len();
    let sum = |f: &dyn Fn(&ShardRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let max = |f: &dyn Fn(&ShardRun) -> u64| runs.iter().map(f).max().unwrap_or(0) as f64;
    let count = |name: &str, v: f64| Metric::new(name, v, "count", n);
    let span_median = |metric: &str, span: &str, unit: &'static str, per_ns: f64| {
        let d = tracer.durations(span);
        Metric::new(metric, median(&d).unwrap_or(0.0) / per_ns, unit, d.len())
    };
    let ratio = |ok: f64, all: f64| if all > 0.0 { ok / all } else { 1.0 };

    let assoc = sum(&|r| r.result.assoc_attempts);
    let assoc_failed = sum(&|r| r.result.assoc_failures);
    let dhcp = sum(&|r| r.result.dhcp_attempts);
    let dhcp_failed = sum(&|r| r.result.dhcp_failures);
    let peak_depth = runs
        .iter()
        .map(|r| r.diag.peak_queue_depth)
        .max()
        .unwrap_or(0);
    let first = &shards[0].1;
    let mss = first.tcp.mss;

    let mut m = vec![
        count("sim_engine.events", sum(&|r| r.diag.events_delivered)),
        count("sim_engine.peak_queue_depth", peak_depth as f64),
        Metric::new(
            "sim_engine.ns_per_event",
            rate(&work, "sim_engine.ns_per_event"),
            "ns",
            n,
        ),
        probe(
            "sim_engine.queue_push_pop_ns",
            queue_probe(peak_depth.max(1)),
        ),
        count(
            "geo.peak_inrange_aps",
            max(&|r| u64::from(r.diag.peak_inrange_aps)),
        ),
        count("geo.cell_crossings", sum(&|r| r.diag.client_cell_crossings)),
        probe("geo.disc_query_ns", disc_probe(first)),
        count("wifi_mac.assoc_attempts", assoc),
        Metric::new(
            "wifi_mac.assoc_success_ratio",
            ratio(assoc - assoc_failed, assoc),
            "ratio",
            n,
        ),
        count("wifi_mac.switches", sum(&|r| r.result.switch_count)),
        count("wifi_mac.air_drops", sum(&|r| r.result.air_drops)),
        count("wifi_mac.psm_drops", sum(&|r| r.result.psm_drops)),
        probe("wifi_mac.frame_decode_ns", frame_probe(mss)),
        count("dhcp.attempts", dhcp),
        Metric::new(
            "dhcp.success_ratio",
            ratio(dhcp - dhcp_failed, dhcp),
            "ratio",
            n,
        ),
        probe("dhcp.message_codec_ns", dhcp_probe()),
        Metric::new(
            "tcp_lite.bytes_delivered",
            work.bytes_delivered as f64,
            "B",
            n,
        ),
        Metric::new(
            "tcp_lite.rtos_per_mb",
            rate(&work, "tcp_lite.rtos_per_mb"),
            "1/MB",
            n,
        ),
        count("tcp_lite.backhaul_drops", sum(&|r| r.result.backhaul_drops)),
        probe("tcp_lite.segment_codec_ns", segment_probe(mss)),
        span_median("spider_core.run_ms", "run_with_diagnostics", "ms", 1e6),
        Metric::new(
            "report.record_bytes",
            sum(&|r| r.json.len() as u64) / n as f64,
            "B/record",
            n,
        ),
        span_median("report.to_json_us", "to_json", "us", 1e3),
        span_median("report.from_json_us", "from_json", "us", 1e3),
        span_median("campaign.shard_hash_us", "shard_hash", "us", 1e3),
        span_median("campaign.store_us", "store_json", "us", 1e3),
        span_median("campaign.manifest_append_us", "manifest_append", "us", 1e3),
        span_median("campaign.load_us", "load", "us", 1e3),
        span_median("codec.encode_world_us", "encode_world", "us", 1e3),
        span_median("codec.decode_world_us", "decode_world", "us", 1e3),
        Metric::new(
            "fleet.overhead_ms",
            (walls.process_ns as f64 - walls.reference_ns as f64) / n as f64 / 1e6,
            "ms",
            n,
        ),
        Metric::new(
            "mobility.deploy_ms",
            tracer.durations("deploy").iter().fold(0.0, |a, d| a + d) / 1e6,
            "ms",
            tracer.durations("deploy").len(),
        ),
        probe("mobility.position_at_ns", position_probe(&first.motion)),
        Metric::new(
            "trace.overhead_frac",
            walls.traced_ns as f64 / walls.reference_ns as f64 - 1.0,
            "ratio",
            1,
        ),
    ];
    let self_ns = tracer.self_ns_by_layer();
    for layer in LAYERS {
        let ns = self_ns.get(layer).copied().unwrap_or(0);
        m.push(Metric::new(
            format!("self_ms.{layer}"),
            ns as f64 / 1e6,
            "ms",
            1,
        ));
    }
    m
}

/// Repeats per probe; the probe reports the median batch.
const PROBE_BATCHES: usize = 7;

fn probe(name: &str, (ns_per_op, ops): (f64, usize)) -> Metric {
    Metric::new(name, ns_per_op, "ns", ops)
}

/// Median ns per operation over `PROBE_BATCHES` batches of `ops`
/// operations; `batch` runs one batch.
fn time_batches(ops: usize, mut batch: impl FnMut()) -> (f64, usize) {
    let per_op: Vec<f64> = (0..PROBE_BATCHES)
        .map(|_| {
            let t = WallClock::now();
            batch();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    (median(&per_op).unwrap_or(0.0), ops * PROBE_BATCHES)
}

/// Pop + push at a steady depth, the workload's peak live depth.
fn queue_probe(depth: usize) -> (f64, usize) {
    const OPS: usize = 200_000;
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in 0..depth as u64 {
        q.push(Instant::from_micros(next() % 1_000_000), i);
    }
    time_batches(OPS, || {
        for _ in 0..OPS {
            let (at, v) = q.pop().expect("queue stays at depth");
            q.push(
                at + Duration::from_micros(1 + next() % 100_000),
                black_box(v),
            );
        }
    })
}

/// The world's 400 m hearing-disc query on its 200 m grid, over the
/// workload's deployment, at one point per simulated second of the
/// primary client's motion.
fn disc_probe(world: &WorldConfig) -> (f64, usize) {
    let positions: Vec<Point> = world.sites.iter().map(|s| s.position).collect();
    let grid = GridIndex::build(&positions, 200.0);
    let secs = world.duration.as_secs_f64() as u64;
    let points: Vec<Point> = (0..secs.max(1))
        .map(|t| motion_position(&world.motion, Instant::ZERO + Duration::from_secs(t)))
        .collect();
    let mut out = Vec::new();
    time_batches(points.len(), || {
        for &p in &points {
            grid.query_disc_into(black_box(p), 400.0, &mut out);
            black_box(out.len());
        }
    })
}

fn motion_position(motion: &ClientMotion, at: Instant) -> Point {
    match motion {
        ClientMotion::Fixed(p) => *p,
        ClientMotion::Route(v) => v.position_at(at),
    }
}

/// `Vehicle::position_at` along the primary client's route. A fixed
/// client has none; it gets a 1 m route at its spot, so the figure is the
/// per-call floor.
fn position_probe(motion: &ClientMotion) -> (f64, usize) {
    const OPS: usize = 100_000;
    let vehicle = match motion {
        ClientMotion::Route(v) => v.clone(),
        ClientMotion::Fixed(p) => Vehicle::new(
            Route::straight(*p, Point::new(p.x + 1.0, p.y)),
            1.0,
            Instant::ZERO,
        ),
    };
    time_batches(OPS, || {
        for i in 0..OPS as u64 {
            black_box(vehicle.position_at(Instant::ZERO + Duration::from_millis(i * 7)));
        }
    })
}

/// Decode of a beacon and of a data frame carrying a full-MSS segment.
fn frame_probe(mss: u32) -> (f64, usize) {
    const PAIRS: usize = 50_000;
    let beacon =
        Frame::beacon(MacAddr::ap(1), Ssid::new("open-net"), Channel::CH6, 12_345).encode();
    let payload = sim_engine::wire::Bytes::from(vec![0xA5u8; mss as usize]);
    let data = Frame::data_from_ap(MacAddr::ap(1), MacAddr::local(1_000), payload).encode();
    time_batches(2 * PAIRS, || {
        for _ in 0..PAIRS {
            black_box(Frame::decode(black_box(&beacon)).is_ok());
            black_box(Frame::decode(black_box(&data)).is_ok());
        }
    })
}

/// Encode + decode of a DHCP ACK.
fn dhcp_probe() -> (f64, usize) {
    const OPS: usize = 50_000;
    let msg = DhcpMessage::ack(
        7,
        [2, 0, 0, 0, 0, 1],
        std::net::Ipv4Addr::new(10, 0, 0, 50),
        std::net::Ipv4Addr::new(10, 0, 0, 1),
        3600,
    );
    time_batches(OPS, || {
        for _ in 0..OPS {
            let bytes = black_box(&msg).encode();
            black_box(DhcpMessage::decode(&bytes).is_ok());
        }
    })
}

/// Encode + decode of a full-MSS data segment and of its ACK.
fn segment_probe(mss: u32) -> (f64, usize) {
    const PAIRS: usize = 50_000;
    let mut data = Segment::data(1, SeqNum::new(1_000), mss);
    data.ts_us = 123_456;
    let mut ack = Segment::ack_only(1, SeqNum::new(1), SeqNum::new(1_000 + mss));
    ack.ts_echo_us = Some(123_456);
    time_batches(2 * PAIRS, || {
        for _ in 0..PAIRS {
            for seg in [&data, &ack] {
                let bytes = black_box(seg).encode();
                black_box(Segment::decode(&bytes));
            }
        }
    })
}
