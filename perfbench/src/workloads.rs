//! The three workloads: their shard lists, generated from the workload
//! seed, and how their campaigns execute.

use dhcp::DhcpClientConfig;
use mobility::deployment::{deploy_along, ApSite, DeploymentConfig};
use mobility::geometry::Point;
use mobility::metro::{metro_deployment, metro_route, MetroChannelPlan, MetroConfig};
use mobility::route::{Route, Vehicle};
use sim_engine::par::fork_seed;
use sim_engine::rng::Rng;
use sim_engine::time::{Duration, Instant};
use spider_core::config::{SchedulePolicy, SpiderConfig};
use spider_core::fleet::convoy;
use spider_core::world::{ClientMotion, WorldConfig};
use tcp_lite::TcpConfig;
use wifi_mac::channel::Channel;
use wifi_mac::client::JoinConfig;

use crate::traced::Tracer;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DriveSweep,
    MetroConvoy,
    LabTcp,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DriveSweep,
        Workload::MetroConvoy,
        Workload::LabTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DriveSweep => "drive-sweep",
            Workload::MetroConvoy => "metro-convoy",
            Workload::LabTcp => "lab-tcp",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether cold shards run on worker processes (the fleet path)
    /// rather than on threads in the benchmark process.
    pub fn process_exec(self) -> bool {
        self == Workload::MetroConvoy
    }
}

/// Drive-sweep: deployment seeds per round; each runs all four drivers.
const DRIVE_DEPLOYMENTS: u64 = 48;
/// One lap of the 3 km loop at 10 m/s.
const DRIVE_SECS: u64 = 300;
/// Metro-convoy: convoy worlds per round, each on its own deployment.
const METRO_WORLDS: u64 = 24;
const METRO_SECS: u64 = 30;
const METRO_CLIENTS: usize = 8;
const METRO_HEADWAY: Duration = Duration::from_secs(3);
/// Lab-tcp: the two segment sizes it runs, Ethernet-sized and the
/// small-packet case where per-segment cost dominates, with the shards
/// per round at each. The split is uneven so that neither shard-time
/// percentile falls on the gap between the two sizes' clusters, where a
/// single shard moving across would swing it.
const LAB_MSS: [(u32, u64); 2] = [(1460, 20), (536, 12)];
const LAB_SECS: u64 = 60;
const LAB_BACKHAUL_BPS: u64 = 50_000_000;

/// One round's inputs.
pub struct Inputs {
    pub shards: Vec<(String, WorldConfig)>,
}

impl Inputs {
    /// Simulated client-seconds over all shards: the work the round asks for.
    pub fn sim_client_s(&self) -> f64 {
        self.shards
            .iter()
            .map(|(_, w)| w.duration.as_secs_f64() * (1 + w.fleet.len()) as f64)
            .sum()
    }
}

/// Where the AP layouts come from. Round `r` of every run deploys the
/// same layouts, whatever the workload seed, and the workload seed draws
/// each world's run seed. With layouts drawn from the workload seed, the
/// seed and not the code set drive-sweep's `sim_rate`: re-running a seed
/// repeated its figure within 4 %, while two seeds' figures lay 13 %
/// apart.
const LAYOUT_SEED: u64 = 0x1A70_0075;

/// Build round `round`'s shard list for the workload `seed`.
/// Deterministic: the same seed and round give byte-identical
/// `WorldConfig`s; each round has its own AP layouts and run seeds, so a
/// run's rounds average over many inputs. With a tracer, each call into
/// a deployment generator is a `deploy` span.
pub fn build(workload: Workload, seed: u64, round: u64, mut tracer: Option<&mut Tracer>) -> Inputs {
    let layout = fork_seed(LAYOUT_SEED, round);
    let seed = fork_seed(seed, round);
    let mut timed = |f: &mut dyn FnMut() -> Vec<ApSite>| match tracer.as_deref_mut() {
        Some(t) => t.leaf("deploy", "mobility", None, f),
        None => f(),
    };
    let shards = match workload {
        Workload::DriveSweep => {
            let route = Route::rectangle(1_000.0, 500.0);
            let mut shards = Vec::new();
            for d in 0..DRIVE_DEPLOYMENTS {
                let sites = timed(&mut || {
                    deploy_along(
                        &route,
                        &DeploymentConfig::amherst(),
                        &mut Rng::new(fork_seed(layout, d)),
                    )
                });
                let run_seed = fork_seed(seed, d);
                for (name, driver) in drive_drivers() {
                    let vehicle = Vehicle::new(route.clone(), 10.0, Instant::ZERO);
                    let world = WorldConfig::new(
                        fork_seed(run_seed, shards.len() as u64),
                        sites.clone(),
                        ClientMotion::Route(vehicle),
                        driver,
                        Duration::from_secs(DRIVE_SECS),
                    );
                    shards.push((format!("{name}/d{d}"), world));
                }
            }
            shards
        }
        Workload::MetroConvoy => {
            let cfg = MetroConfig::downtown().with_plan(MetroChannelPlan::GridColor);
            (0..METRO_WORLDS)
                .map(|k| {
                    let world_seed = fork_seed(seed, k);
                    let sites =
                        timed(&mut || metro_deployment(&cfg, &mut Rng::new(fork_seed(layout, k))));
                    let lead = ClientMotion::Route(metro_vehicle(&cfg));
                    let mut world = WorldConfig::new(
                        world_seed,
                        sites,
                        lead.clone(),
                        SpiderConfig::adaptive_channel(),
                        Duration::from_secs(METRO_SECS),
                    );
                    world.fleet = convoy(&lead, METRO_CLIENTS - 1, METRO_HEADWAY);
                    (format!("convoy{METRO_CLIENTS}/w{k}"), world)
                })
                .collect()
        }
        Workload::LabTcp => {
            let mut shards = Vec::new();
            for (mss, count) in LAB_MSS {
                for k in 0..count {
                    let sites = timed(&mut || vec![lab_site()]);
                    let mut world = WorldConfig::new(
                        fork_seed(seed, u64::from(mss) << 32 | k),
                        sites,
                        ClientMotion::Fixed(Point::new(0.0, 10.0)),
                        SpiderConfig::single_channel_single_ap(Channel::CH1),
                        Duration::from_secs(LAB_SECS),
                    );
                    world.tcp = TcpConfig {
                        mss,
                        ..TcpConfig::default()
                    };
                    shards.push((format!("mss{mss}/s{k}"), world));
                }
            }
            shards
        }
    };
    Inputs { shards }
}

/// The vehicle every metro convoy follows: the grid-interior lap at
/// urban speed.
pub fn metro_vehicle(cfg: &MetroConfig) -> Vehicle {
    Vehicle::new(metro_route(cfg), 13.0, Instant::ZERO)
}

/// The four drive-sweep drivers: the Fig. 5 6/1/11 split with reduced
/// timers, Table 2's single-channel and 200 ms multi-channel Spider, and
/// stock MadWiFi.
fn drive_drivers() -> [(&'static str, SpiderConfig); 4] {
    let mut split = SpiderConfig::multi_channel_multi_ap(Duration::from_millis(133));
    split.schedule = SchedulePolicy::MultiChannel {
        slices: vec![
            (Channel::CH6, Duration::from_millis(200)),
            (Channel::CH1, Duration::from_millis(100)),
            (Channel::CH11, Duration::from_millis(100)),
        ],
    };
    split.join = JoinConfig::reduced();
    split.dhcp = DhcpClientConfig::reduced(Duration::from_millis(100));
    [
        ("split-6-1-11", split),
        (
            "ch1-multi-ap",
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
        ),
        (
            "multi-ch-200ms",
            SpiderConfig::multi_channel_multi_ap(Duration::from_millis(200)),
        ),
        ("stock-madwifi", SpiderConfig::stock_madwifi()),
    ]
}

fn lab_site() -> ApSite {
    ApSite {
        id: 1,
        position: Point::new(0.0, 0.0),
        channel: Channel::CH1,
        backhaul_bps: LAB_BACKHAUL_BPS,
        dhcp_delay_min: Duration::from_millis(50),
        dhcp_delay_max: Duration::from_millis(200),
    }
}
