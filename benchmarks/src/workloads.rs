//! The four named workloads: how each world is built from the seed, what
//! load runs in it, and what is read back after the run.
//!
//! Horizons are constants — the same on every commit — so simulated
//! results are a pure function of `(workload, seed)`. The program under
//! test only ever sees inputs generated here from the seed.

use std::net::Ipv4Addr;
use std::time::Instant;

use apps::bulk::{BulkSendReport, BulkSender, BulkSink, BulkSinkReport};
use apps::ping::{PingReport, Pinger};
use apps::Shared;
use ax25::addr::Ax25Addr;
use ether::MacAddr;
use filter::FilterConfig;
use gateway::cpu::CpuConfig;
use gateway::host::{EtherIfConfig, RadioIfConfig};
use gateway::scenario::{
    self, MeshNet, MeshOptions, PaperConfig, ETHER_HOST_IP, GW_ETHER_IP, GW_RADIO_IP, PC_IP,
};
use gateway::world::{App, ChanId, HostId, SegId, TncId, World};
use gateway::{Host, HostConfig};
use netstack::icmp::IcmpMessage;
use netstack::ip::{Ipv4Packet, Proto};
use netstack::route::{Prefix, Route, RouteSource};
use radio::csma::MacConfig;
use radio::tnc::RxMode;
use radio::traffic::BeaconConfig;
use sim::{Bandwidth, SimDuration, SimRng, SimTime};
use workload::load::{Arrival, Mix, Pacing};
use workload::{deploy, Fleet, FleetSpec, LatencyHisto};

use crate::spans::{in_span, Spans};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §3 experiment: promiscuous TNC under beacon load.
    PaperPromisc,
    /// Small-packet flood against the gateway's two decision caches.
    GwFlood,
    /// The 128-island city under a socket-app fleet, on `workers` threads.
    CityFleet { workers: usize },
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperPromisc,
        Workload::GwFlood,
        Workload::CityFleet { workers: 1 },
        Workload::CityFleet { workers: 2 },
    ];

    /// The name used on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperPromisc => "paper_promisc",
            Workload::GwFlood => "gw_flood",
            Workload::CityFleet { workers: 1 } => "city_fleet_1w",
            Workload::CityFleet { .. } => "city_fleet_2w",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated seconds one run covers.
    pub fn horizon_secs(self) -> u64 {
        match self {
            Workload::PaperPromisc => PAPER_HORIZON_SECS,
            Workload::GwFlood => FLOOD_HORIZON_SECS,
            Workload::CityFleet { .. } => CITY_HORIZON_SECS,
        }
    }

    /// Worker threads the engine is asked for.
    pub fn workers(self) -> usize {
        match self {
            Workload::CityFleet { workers } => workers,
            _ => 1,
        }
    }
}

// --- Sizing ----------------------------------------------------------------
//
// Sized so one run of the `World::run_for` loop takes roughly 3 s
// (`paper_promisc`, `gw_flood`) or 7 s (`city_fleet_1w`) of host time on
// a 2-core shared box: long enough that the simulated statistics rest on
// hundreds of samples, short enough that three or four repeats — and the
// driver's seventy-odd process runs — fit their time budgets.

const PAPER_HORIZON_SECS: u64 = 90_000;
const PAPER_PING_EVERY_SECS: u64 = 60;
const PAPER_BEACONS: usize = 4;

const FLOOD_HORIZON_SECS: u64 = 6_000;
const FLOOD_PPS_PER_STREAM: u64 = 100;
const FLOOD_SPRAY_SPACE: u64 = 65_536;
const FLOOD_HAMMER_PAIRS: u64 = 16;
const FLOOD_EXTRA_ROUTES: usize = 512;
const FLOOD_PING_EVERY_SECS: u64 = 5;
const FLOOD_CHURN_EVERY_SECS: u64 = 20;
/// The legitimate bulk load: one 8 KiB TCP transfer PC→vax2 (E17's
/// size, ≈400 sim-s on this link) that must complete intact under the
/// flood. The pings start only after it, at `FLOOD_PING_START_SECS`, so
/// their percentiles are drawn from one steady regime rather than from
/// "queued behind the transfer" and "after it".
const FLOOD_BULK_BYTES: usize = 8 * 1024;
const FLOOD_PING_START_SECS: u64 = 900;
const FLOOD_BULK_PORT: u16 = 2100;
/// The flood stops this long before the horizon so every datagram it sent
/// has been judged by the time counters are read.
const FLOOD_QUIET_TAIL_SECS: u64 = 2;

const CITY_ISLANDS: usize = 128;
const CITY_HOSTS_PER_ISLAND: usize = 16;
const CITY_HORIZON_SECS: u64 = 200;
/// One client per island: a second one tips the 1200 bit/s islands into
/// congestion collapse (two thirds of the sessions time out), which
/// spends host time simulating retransmissions and starves the latency
/// percentiles of samples.
const CITY_CLIENTS_PER_ISLAND: usize = 1;
/// More sessions than any client can finish inside the horizon, so the
/// closed loop — not the plan length — limits the load.
const CITY_SESSIONS_PER_CLIENT: usize = 16;

const PING_PAYLOAD: usize = 32;

// --- Built worlds ------------------------------------------------------------

/// A built world plus the handles its workload reads results from.
pub struct Built {
    pub world: World,
    /// Hosts whose per-layer counters are summed.
    pub hosts: Vec<HostId>,
    /// The forwarding machines (for gateway-only readings).
    pub gateways: Vec<HostId>,
    pub channels: Vec<ChanId>,
    pub segments: Vec<SegId>,
    /// TNCs whose handles the scenario exposes (the city keeps none).
    pub tncs: Vec<TncId>,
    pub load: Load,
}

/// Workload-specific result handles.
pub enum Load {
    Paper {
        ping: Shared<PingReport>,
    },
    Flood {
        ping: Shared<PingReport>,
        bulk_send: Shared<BulkSendReport>,
        bulk_sink: Shared<BulkSinkReport>,
        /// The flooding host; what left its NIC is the offered flood.
        attacker: HostId,
    },
    City {
        fleet: Fleet,
    },
}

/// Times the two halves of set-up, as spans when a trace is recording.
pub struct SetupClock<'a> {
    spans: Option<&'a mut Spans>,
    /// Seconds spent in the phases so far.
    pub total_s: f64,
}

impl<'a> SetupClock<'a> {
    pub fn new(spans: Option<&'a mut Spans>) -> SetupClock<'a> {
        SetupClock {
            spans,
            total_s: 0.0,
        }
    }

    fn phase<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = in_span(self.spans.as_deref_mut(), name, f);
        self.total_s += t0.elapsed().as_secs_f64();
        out
    }
}

/// Builds `w`'s world (`setup.build_world`) and deploys its load
/// (`setup.deploy`).
pub fn build(w: Workload, seed: u64, clock: &mut SetupClock) -> Built {
    match w {
        Workload::PaperPromisc => build_paper(seed, clock),
        Workload::GwFlood => build_flood(seed, clock),
        Workload::CityFleet { workers } => build_city(seed, workers, clock),
    }
}

fn beacon(i: usize, frame_len: usize, mean_secs: u64) -> BeaconConfig {
    BeaconConfig {
        from: Ax25Addr::parse_or_panic(&format!("BG{}", i + 1)),
        to: Ax25Addr::parse_or_panic("CHAT"),
        frame_len,
        mean_interval: SimDuration::from_secs(mean_secs),
        start: SimTime::ZERO,
        mac: MacConfig::default(),
    }
}

/// Pings PC→vax2 every `every_secs` from `start_secs` to the horizon.
fn pinger(start_secs: u64, horizon_secs: u64, every_secs: u64) -> Pinger {
    let count = ((horizon_secs - start_secs) / every_secs) as u32;
    Pinger::new(
        ETHER_HOST_IP,
        1,
        count,
        SimDuration::from_secs(every_secs),
        PING_PAYLOAD,
    )
    .delayed(SimDuration::from_secs(start_secs))
}

fn build_paper(seed: u64, clock: &mut SetupClock) -> Built {
    let mut s = clock.phase("setup.build_world", || {
        let cfg = PaperConfig {
            tnc_mode: RxMode::Promiscuous,
            // TNC-2-era serial, barely above the channel rate (as in E2).
            serial_baud: 2400,
            ..PaperConfig::default()
        };
        scenario::paper_topology(cfg, seed)
    });
    let ping = clock.phase("setup.deploy", || {
        for i in 0..PAPER_BEACONS {
            s.world.add_beacon(s.chan, beacon(i, 120, 8));
        }
        let p = pinger(0, PAPER_HORIZON_SECS, PAPER_PING_EVERY_SECS);
        let ping = p.report();
        s.world.add_app(s.pc, Box::new(p));
        ping
    });
    Built {
        world: s.world,
        hosts: vec![s.pc, s.gw, s.ether_host],
        gateways: vec![s.gw],
        channels: vec![s.chan],
        segments: vec![s.seg],
        tncs: vec![s.pc_tnc, s.gw_tnc],
        load: Load::Paper { ping },
    }
}

/// The open-loop attacker: two interleaved fixed-rate streams of 20-byte
/// UDP datagrams injected at an Ethernet host that forwards them toward
/// net 44. `spray` rotates source and destination over 65,536 values each
/// (every datagram a new flow and a new destination: both decision caches
/// miss); `hammer` cycles 16 fixed pairs (both caches hit). Send times
/// come from the schedule alone — a slow gateway does not slow the flood.
struct Flood {
    next: SimTime,
    stop: SimTime,
    gap: SimDuration,
    rng: SimRng,
    turn: u64,
    hammer: Vec<(Ipv4Addr, Ipv4Addr)>,
}

impl Flood {
    fn new(seed: u64, start: SimTime, stop: SimTime) -> Flood {
        let mut rng = SimRng::seed_from(seed ^ 0xF100D);
        let hammer = (0..FLOOD_HAMMER_PAIRS)
            .map(|_| {
                (
                    spoofed_src(rng.below(FLOOD_SPRAY_SPACE)),
                    flood_dst(rng.below(FLOOD_SPRAY_SPACE)),
                )
            })
            .collect();
        Flood {
            next: start,
            stop,
            gap: SimDuration::from_nanos(1_000_000_000 / (2 * FLOOD_PPS_PER_STREAM)),
            rng,
            turn: 0,
            hammer,
        }
    }
}

/// 198.18.0.0/16, the benchmarking range: never amateur, never local.
fn spoofed_src(n: u64) -> Ipv4Addr {
    Ipv4Addr::from(0xC612_0000 | (n as u32 & 0xFFFF))
}

/// Somewhere in the gateway's radio subnet, 44.24.0.0/16 — but never the
/// gateway's own address or a broadcast address, which the gateway would
/// consume itself instead of forwarding toward the radio.
fn flood_dst(n: u64) -> Ipv4Addr {
    let host = match n as u32 & 0xFFFF {
        0 | 0xFFFF | 28 => 0x0100,
        h => h,
    };
    Ipv4Addr::from(0x2C18_0000 | host)
}

impl App for Flood {
    fn poll(&mut self, now: SimTime, host: &mut Host) {
        while self.next <= now && self.next < self.stop {
            let (src, dst) = if self.turn.is_multiple_of(2) {
                (
                    spoofed_src(self.rng.below(FLOOD_SPRAY_SPACE)),
                    flood_dst(self.rng.below(FLOOD_SPRAY_SPACE)),
                )
            } else {
                self.hammer[(self.turn / 2 % FLOOD_HAMMER_PAIRS) as usize]
            };
            self.turn += 1;
            let mut payload = vec![0u8; 20];
            payload[0..2].copy_from_slice(&4242u16.to_be_bytes());
            payload[2..4].copy_from_slice(&FLOOD_BULK_PORT.to_be_bytes());
            payload[4..6].copy_from_slice(&20u16.to_be_bytes());
            host.inject_ip(now, Ipv4Packet::new(src, dst, Proto::Udp, payload).encode());
            self.next += self.gap;
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        (self.next < self.stop).then_some(self.next)
    }
}

/// Control-plane churn: the PC's operator alternately opens and closes a
/// pairing for an unrelated station, so the filter's cache generation
/// keeps moving and cached flood denials keep dying.
struct GateChurn {
    next: SimTime,
    open: bool,
}

impl App for GateChurn {
    fn poll(&mut self, now: SimTime, host: &mut Host) {
        while self.next <= now {
            let amateur = Ipv4Addr::new(44, 24, 0, 77);
            // TEST-NET-1: outside the flood's source range, so the churn
            // never admits a flood datagram.
            let foreign = Ipv4Addr::new(192, 0, 2, 1);
            let msg = if self.open {
                IcmpMessage::GateOpen {
                    amateur,
                    foreign,
                    ttl_secs: 60,
                    auth: None,
                }
            } else {
                IcmpMessage::GateClose {
                    amateur,
                    foreign,
                    auth: None,
                }
            };
            host.send_gate_message(now, GW_RADIO_IP, msg);
            self.open = !self.open;
            self.next += SimDuration::from_secs(FLOOD_CHURN_EVERY_SECS);
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        Some(self.next)
    }
}

/// The Figure-1 shape of `scenario::paper_topology`, built through the
/// public `World` API so the gateway can carry a next-hop cache and a
/// converged-mesh-sized route table.
fn build_flood(seed: u64, clock: &mut SetupClock) -> Built {
    let mut net = clock.phase("setup.build_world", || flood_world(seed));
    let load = clock.phase("setup.deploy", || flood_deploy(&mut net, seed));
    Built {
        world: net.world,
        hosts: vec![net.pc, net.gw, net.vax2, net.atk],
        gateways: vec![net.gw],
        channels: vec![net.chan],
        segments: vec![net.seg],
        tncs: vec![net.pc_tnc, net.gw_tnc],
        load,
    }
}

/// The flood topology before any load is attached.
struct FloodNet {
    world: World,
    chan: ChanId,
    seg: SegId,
    pc: HostId,
    gw: HostId,
    vax2: HostId,
    atk: HostId,
    pc_tnc: TncId,
    gw_tnc: TncId,
}

fn flood_world(seed: u64) -> FloodNet {
    let cpu = CpuConfig::default();
    let mac = MacConfig::default();
    let mut world = World::new(seed);
    let chan = world.add_channel(Bandwidth::RADIO_1200);
    let seg = world.add_segment(Bandwidth::ETHERNET_10M);

    let mut pc_cfg = HostConfig::named("pc");
    pc_cfg.cpu = cpu;
    pc_cfg.radio = Some(RadioIfConfig {
        call: Ax25Addr::parse_or_panic("KB7DZ"),
        ip: PC_IP,
        prefix_len: 16,
    });
    let pc = world.add_host(pc_cfg);
    let pc_tnc = world.attach_radio(pc, chan, 9600, RxMode::Promiscuous, mac);

    let mut gw_cfg = HostConfig::named("gw");
    gw_cfg.cpu = cpu;
    gw_cfg.stack.forwarding = true;
    gw_cfg.stack.fwd_cache_bits = 12;
    gw_cfg.radio = Some(RadioIfConfig {
        call: Ax25Addr::parse_or_panic("N7AKR-1"),
        ip: GW_RADIO_IP,
        prefix_len: 16,
    });
    gw_cfg.ether = Some(EtherIfConfig {
        mac: MacAddr::local(1),
        ip: GW_ETHER_IP,
        prefix_len: 24,
    });
    gw_cfg.filter = Some(FilterConfig::gateway());
    let gw = world.add_host(gw_cfg);
    let gw_tnc = world.attach_radio(gw, chan, 9600, RxMode::Promiscuous, mac);
    world.attach_ether(gw, seg);

    let mut eh_cfg = HostConfig::named("vax2");
    eh_cfg.cpu = CpuConfig::free();
    eh_cfg.ether = Some(EtherIfConfig {
        mac: MacAddr::local(2),
        ip: ETHER_HOST_IP,
        prefix_len: 24,
    });
    let vax2 = world.add_host(eh_cfg);
    world.attach_ether(vax2, seg);

    let mut atk_cfg = HostConfig::named("attacker");
    atk_cfg.cpu = CpuConfig::free();
    atk_cfg.ether = Some(EtherIfConfig {
        mac: MacAddr::local(66),
        ip: Ipv4Addr::new(128, 95, 1, 66),
        prefix_len: 24,
    });
    let atk = world.add_host(atk_cfg);
    world.attach_ether(atk, seg);
    world.host_mut(atk).stack.set_forwarding(true);

    let pc_if = world.host(pc).radio_iface().expect("pc radio");
    world
        .host_mut(pc)
        .stack
        .routes_mut()
        .add(Prefix::default_route(), Some(GW_RADIO_IP), pc_if);
    for h in [vax2, atk] {
        let ifid = world.host(h).ether_iface().expect("ether host");
        world
            .host_mut(h)
            .stack
            .routes_mut()
            .add(Prefix::amprnet(), Some(GW_ETHER_IP), ifid);
    }
    // What a converged RIP44 exchange leaves behind: one learned /24 per
    // remote island (44.128.0.0/24 upward — none covers this subnet), so
    // every uncached lookup pays longest-prefix match over a full table.
    let gw_ether_if = world.host(gw).ether_iface().expect("gw ether");
    let routes = world.host_mut(gw).stack.routes_mut();
    for i in 0..FLOOD_EXTRA_ROUTES {
        routes.insert(Route {
            prefix: Prefix::new(Ipv4Addr::from(0x2C80_0000 | ((i as u32) << 8)), 24),
            via: Some(ETHER_HOST_IP),
            iface: gw_ether_if,
            source: RouteSource::Learned,
            metric: 2,
        });
    }
    FloodNet {
        world,
        chan,
        seg,
        pc,
        gw,
        vax2,
        atk,
        pc_tnc,
        gw_tnc,
    }
}

fn flood_deploy(net: &mut FloodNet, seed: u64) -> Load {
    let (chan, pc, vax2, atk) = (net.chan, net.pc, net.vax2, net.atk);
    let world = &mut net.world;
    for i in 0..2 {
        world.add_beacon(chan, beacon(i, 64, 45));
    }
    let p = pinger(
        FLOOD_PING_START_SECS,
        FLOOD_HORIZON_SECS,
        FLOOD_PING_EVERY_SECS,
    );
    let ping = p.report();
    world.add_app(pc, Box::new(p));
    let sink = BulkSink::new(FLOOD_BULK_PORT);
    let bulk_sink = sink.report();
    world.add_app(vax2, Box::new(sink));
    let sender = BulkSender::new(ETHER_HOST_IP, FLOOD_BULK_PORT, FLOOD_BULK_BYTES)
        .with_start_delay(SimDuration::from_secs(5));
    let bulk_send = sender.report();
    world.add_app(pc, Box::new(sender));
    world.add_app(
        pc,
        Box::new(GateChurn {
            next: SimTime::ZERO + SimDuration::from_secs(FLOOD_CHURN_EVERY_SECS),
            open: true,
        }),
    );
    let flood = Flood::new(
        seed,
        SimTime::ZERO + SimDuration::from_secs(10),
        SimTime::ZERO + SimDuration::from_secs(FLOOD_HORIZON_SECS - FLOOD_QUIET_TAIL_SECS),
    );
    world.add_app(atk, Box::new(flood));
    Load::Flood {
        ping,
        bulk_send,
        bulk_sink,
        attacker: atk,
    }
}

/// The fleet every city run deploys.
pub fn city_spec(seed: u64) -> FleetSpec {
    FleetSpec {
        seed,
        clients_per_island: CITY_CLIENTS_PER_ISLAND,
        sessions_per_client: CITY_SESSIONS_PER_CLIENT,
        pacing: Pacing::Closed(Arrival::Poisson(SimDuration::from_secs(20))),
        mix: Mix::balanced(),
        start_window: SimDuration::from_secs(10),
        session_timeout: SimDuration::from_secs(60),
        ..FleetSpec::default()
    }
}

fn build_city(seed: u64, workers: usize, clock: &mut SetupClock) -> Built {
    let mut m: MeshNet = clock.phase("setup.build_world", || {
        scenario::mesh_with(
            CITY_ISLANDS,
            CITY_HOSTS_PER_ISLAND,
            seed,
            MeshOptions {
                full_tables: true,
                fwd_cache_bits: 12,
            },
        )
    });
    let fleet = clock.phase("setup.deploy", || {
        let fleet = deploy(&mut m, &city_spec(seed));
        m.world.set_workers(workers);
        fleet
    });
    let mut hosts: Vec<HostId> = m.iter_hosts().map(|(_, _, h, _)| h).collect();
    hosts.extend(m.gateways.iter().copied());
    hosts.push(m.internet_host);
    Built {
        world: m.world,
        hosts,
        gateways: m.gateways,
        channels: m.channels,
        segments: vec![m.seg],
        tncs: Vec::new(),
        load: Load::City { fleet },
    }
}

// --- Results -----------------------------------------------------------------

/// What the simulated users saw: all simulated time, all a pure function
/// of `(workload, seed)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimResults {
    /// Median round trip / per-exchange latency, simulated ms.
    pub rtt_p50_ms: f64,
    /// 95th percentile of the same, simulated ms.
    pub rtt_p95_ms: f64,
    /// Latency samples behind the two percentiles.
    pub rtt_samples: u64,
    /// Useful payload octets delivered.
    pub goodput_bytes: u64,
    /// Simulated user operations issued (pings, sessions ended, transfers).
    pub issued: u64,
    /// Of those, how many the modelled network carried to completion.
    pub delivered: u64,
    /// Operations whose *result* was wrong — the simulator's failure, not
    /// the channel's (see `wrong_results` in each collector).
    pub wrong: u64,
    /// Flood datagrams sent and judged (gw_flood only).
    pub flood_sent: u64,
    pub flood_dropped: u64,
    /// TCP counters where an app report exposes them.
    pub tcp_segments: u64,
    pub tcp_retransmissions: u64,
    /// How the bulk transfer ended (gw_flood only).
    pub bulk: Option<BulkOutcome>,
    /// Fleet session counters (city only).
    pub sessions: [u64; 4],
}

/// The end state of the reliable transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct BulkOutcome {
    /// Simulated seconds from connect to the last octet acknowledged.
    pub finished_after_s: Option<f64>,
    /// A reset seen at any time — informational: on some seeds the
    /// already-finished connection's teardown ends in one.
    pub reset: bool,
    pub corrupt: bool,
    pub sink_bytes: usize,
}

impl BulkOutcome {
    /// Every octet was acknowledged, arrived, and matched the pattern.
    pub fn ok(&self) -> bool {
        self.finished_after_s.is_some() && !self.corrupt && self.sink_bytes == FLOOD_BULK_BYTES
    }
}

/// The shortest physically possible ping round trip: the echo request and
/// reply (AX.25 + IP + ICMP + payload ≈ 76 octets each) must each cross
/// the 1200 bit/s channel once.
fn min_ping_rtt() -> SimDuration {
    Bandwidth::RADIO_1200.time_for_bytes(2 * (16 + 20 + 8 + PING_PAYLOAD))
}

/// The `q`-quantile of a fleet histogram in simulated ms, interpolated
/// inside its bucket. `LatencyHisto::quantile_us` answers with a bucket's
/// upper edge, and edges are 12.5% apart — too coarse to bound a change
/// by a few percent. The ranks that share the answer's bucket are found
/// by bisection over the same public function, and the wanted rank is
/// placed linearly between the bucket's edges.
fn histo_quantile_ms(h: &LatencyHisto, q: f64) -> f64 {
    let n = h.count();
    let Some(edge) = h.quantile_us(q) else {
        return 0.0;
    };
    // `quantile_us` ranks by ⌈q·n⌉, so (r − ½)/n addresses rank r exactly.
    let at_rank = |r: u64| h.quantile_us((r as f64 - 0.5) / n as f64).unwrap_or(edge);
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let (mut lo, mut hi) = (1, rank); // first rank whose answer is `edge`
    while lo < hi {
        let mid = (lo + hi) / 2;
        if at_rank(mid) < edge {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n); // last rank whose answer is `edge`
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if at_rank(mid) > edge {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    let bucket = LatencyHisto::bucket_of(edge);
    let low = if bucket == 0 {
        0
    } else {
        LatencyHisto::bucket_high(bucket - 1)
    };
    let low = low.max(h.min_us().unwrap_or(0).min(edge)) as f64;
    let within = (rank - first) as f64 + 0.5;
    (low + (edge as f64 - low) * within / (last - first + 1) as f64) / 1e3
}

/// The results of a ping stream (every other field at its default).
fn ping_results(ping: &Shared<PingReport>) -> SimResults {
    let mut r = ping.borrow_mut();
    let quantile_ms = |r: &mut PingReport, q| r.rtts.quantile(q).map_or(0.0, |d| d.as_millis_f64());
    SimResults {
        rtt_p50_ms: quantile_ms(&mut r, 0.50),
        rtt_p95_ms: quantile_ms(&mut r, 0.95),
        rtt_samples: r.rtts.count() as u64,
        goodput_bytes: u64::from(r.received) * PING_PAYLOAD as u64,
        issued: u64::from(r.sent),
        delivered: u64::from(r.received),
        // A reply faster than the channel can carry it is a simulator bug.
        wrong: u64::from(r.rtts.min().is_some_and(|d| d < min_ping_rtt())),
        ..SimResults::default()
    }
}

impl Built {
    /// Reads the workload's user-visible results after the run.
    pub fn sim_results(&self) -> SimResults {
        match &self.load {
            Load::Paper { ping } => ping_results(ping),
            Load::Flood {
                ping,
                bulk_send,
                bulk_sink,
                attacker,
            } => {
                let pings = ping_results(ping);
                let send = bulk_send.borrow();
                let sink = bulk_sink.borrow();
                let bulk = BulkOutcome {
                    finished_after_s: send.duration().map(|d| d.as_secs_f64()),
                    reset: send.reset,
                    corrupt: sink.corrupt,
                    sink_bytes: sink.bytes,
                };
                let bulk_ok = bulk.ok();
                let gw = self.world.host(self.gateways[0]);
                let drv = gw.pr_driver().expect("gateway radio").stats();
                let flood_dropped = drv.filter_drop_out + drv.filter_drop_in;
                // The attacker sends nothing but the flood, so what left
                // its NIC is the offered load (a handful of datagrams die
                // in its own ARP hold queue first).
                let atk = self.world.host(*attacker);
                let flood_sent = atk.ether_driver().expect("attacker NIC").stats().ip_out;
                // Dropped before the filter could judge them: input-queue
                // overflow, and datagrams the gateway's own IP input
                // rejects as malformed.
                let flood_unjudged = gw.input_queue_drops() + gw.stack.stats().bad_packets;
                SimResults {
                    goodput_bytes: pings.goodput_bytes + sink.bytes as u64,
                    issued: pings.issued + 1,
                    delivered: pings.delivered + u64::from(bulk_ok),
                    // Wrong results: an impossible RTT, a corrupt or
                    // unfinished reliable transfer, a flood datagram the
                    // gate let through.
                    wrong: pings.wrong
                        + u64::from(!bulk_ok)
                        + flood_sent.saturating_sub(flood_dropped + flood_unjudged),
                    flood_sent,
                    flood_dropped,
                    tcp_segments: send.tcb.segments_sent,
                    tcp_retransmissions: send.tcb.retransmissions,
                    bulk: Some(bulk),
                    ..pings
                }
            }
            Load::City { fleet } => {
                let mut total = workload::FlowRecorder::new();
                for r in &fleet.merged() {
                    total.merge(r);
                }
                let ended = total.completed + total.timeouts + total.errors;
                SimResults {
                    rtt_p50_ms: histo_quantile_ms(&total.latency, 0.50),
                    rtt_p95_ms: histo_quantile_ms(&total.latency, 0.95),
                    rtt_samples: total.latency.count(),
                    goodput_bytes: total.goodput_bytes,
                    issued: ended,
                    delivered: total.completed,
                    // A socket error is a result no healthy run produces;
                    // timeouts are the modelled channel's doing.
                    wrong: total.errors,
                    sessions: [total.started, total.completed, total.timeouts, total.errors],
                    ..SimResults::default()
                }
            }
        }
    }
}
