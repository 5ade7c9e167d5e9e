//! Sharded-engine equivalence (DESIGN.md §11): on a multi-shard mesh the
//! windowed engine must produce event logs and component statistics
//! byte-identical to the full-scan reference stepper's, which runs the
//! same lookahead windows. Cross-island pings force tunnel traffic
//! through the coordinator's mailboxes, so the hand-off path itself is
//! under test, including its merge order and its no-reallocation warm
//! ring.

mod common;

use ax25::addr::Ax25Addr;
use gateway::host::{Host, HostConfig, RadioIfConfig};
use gateway::scenario::{self, city};
use gateway::world::{App, AppId, ChanId, EngineStats, HostId, ShardId, World};
use proptest::prelude::*;
use radio::channel::StationId;
use radio::csma::MacConfig;
use radio::tnc::RxMode;
use radio::traffic::BeaconConfig;
use sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// An app that issues pings at scripted instants — deterministic traffic
/// with real ICMP/ARP timers behind it (same shape as the single-shard
/// suite's pinger; the core crate has no dev-dependency on `apps`).
struct ScriptedPinger {
    dst: Ipv4Addr,
    times: Vec<SimTime>,
    seq: u16,
}

impl App for ScriptedPinger {
    fn poll(&mut self, now: SimTime, host: &mut Host) {
        while self.times.first().is_some_and(|&t| t <= now) {
            self.times.remove(0);
            self.seq += 1;
            host.stack_op(now, |st| st.ping(self.dst, 0x15e7, self.seq, 64));
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.times.first().copied()
    }
}

/// Notes when the gateway's CPU will be free each time a frame has come
/// in from the backbone. Mailbox frames land in the middle of serial
/// frames from the island; the CPU is a FIFO, so this pins the order in
/// which the two were charged. (A host touched at an instant is polled at
/// that instant on every engine, so the notes are comparable.)
struct EtherWatch {
    frames_seen: u64,
    notes: Rc<RefCell<Vec<String>>>,
}

impl App for EtherWatch {
    fn poll(&mut self, now: SimTime, host: &mut Host) {
        let frames = host.ether_driver().expect("gateway").stats().frames_in;
        if frames != self.frames_seen {
            self.frames_seen = frames;
            let busy_until = host.cpu.busy_until();
            self.notes
                .borrow_mut()
                .push(format!("{now} frame {frames}: cpu busy until {busy_until}"));
        }
    }
}

/// An app with no timer of its own: it pings whatever its owner ordered
/// since the last poll, two ways. `orders` come through `World::app_mut`,
/// as E11 ships a datagram and E14 queues a lookup between run calls, and
/// `app_mut` marks the app's shard for the full sync that carries them
/// out. `queue` is shared behind the world's back, as app report handles
/// are: nothing but the engine's promise to re-poll every app at run-call
/// entry carries those out.
struct Commanded {
    queue: Rc<RefCell<Vec<Ipv4Addr>>>,
    orders: Vec<Ipv4Addr>,
    seq: u16,
}

impl App for Commanded {
    fn poll(&mut self, now: SimTime, host: &mut Host) {
        for dst in self
            .queue
            .borrow_mut()
            .drain(..)
            .chain(self.orders.drain(..))
        {
            self.seq += 1;
            host.stack_op(now, |st| st.ping(dst, 0xc0de, self.seq, 64));
        }
    }
}

/// Which engine drives the world.
#[derive(Clone, Copy, Debug)]
enum Driver {
    /// Full-scan reference stepper (windowed Scan mode on multi-shard).
    Reference,
    /// Deadline-indexed sharded engine.
    Sharded,
}

impl Driver {
    /// Runs `world` to `secs` simulated seconds in `chunks` equal run
    /// calls.
    fn run(self, world: &mut World, secs: u64, chunks: u64) {
        for k in 1..=chunks {
            self.run_until(world, SimTime::from_millis(secs * 1000 * k / chunks));
        }
    }

    fn run_until(self, world: &mut World, until: SimTime) {
        match self {
            Driver::Reference => world.run_until_reference(until),
            Driver::Sharded => world.run_until(until),
        }
    }
}

/// Builds `mesh(gateways, hosts_per_gw, seed)` with cross-island traffic:
/// host `(g, i)` pings host `((g+1) % gateways, i)` at staggered instants,
/// and the wired internet host pings into the last island. Runs `secs`
/// simulated seconds under `driver` and returns the full fingerprint.
fn mesh_run(gateways: usize, hosts_per_gw: usize, seed: u64, secs: u64, driver: Driver) -> String {
    mesh_run_chunked(gateways, hosts_per_gw, seed, secs, driver, 1).0
}

/// [`mesh_run`] in `chunks` equal run calls; also returns the window
/// coordinator's counters and the components polled.
fn mesh_run_chunked(
    gateways: usize,
    hosts_per_gw: usize,
    seed: u64,
    secs: u64,
    driver: Driver,
    chunks: u64,
) -> (String, EngineStats, u64) {
    let mut m = scenario::mesh(gateways, hosts_per_gw, seed);
    for g in 0..gateways {
        for i in 0..hosts_per_gw {
            let t = 500 + 977 * (g * hosts_per_gw + i) as u64;
            m.world.add_app(
                m.hosts[g][i],
                Box::new(ScriptedPinger {
                    dst: city::host_ip((g + 1) % gateways, i),
                    times: vec![SimTime::from_millis(t), SimTime::from_millis(t + 15_000)],
                    seq: 0,
                }),
            );
        }
    }
    m.world.add_app(
        m.internet_host,
        Box::new(ScriptedPinger {
            dst: city::host_ip(gateways - 1, 0),
            times: vec![SimTime::from_millis(250)],
            seq: 0,
        }),
    );
    // One notebook per gateway: an `Rc` must stay inside one shard.
    let mut notebooks = Vec::new();
    for &gw in &m.gateways {
        let notes = Rc::new(RefCell::new(Vec::new()));
        notebooks.push(Rc::clone(&notes));
        let frames_seen = 0;
        m.world
            .add_app(gw, Box::new(EtherWatch { frames_seen, notes }));
    }
    driver.run(&mut m.world, secs, chunks);
    let stats = m.world.engine_stats();
    let polled = m.world.sched_stats().polled;
    let fp = fingerprint(
        &mut m.world,
        &m.gateways,
        m.internet_host,
        &m.hosts,
        &m.channels,
    );
    let notes: Vec<String> = notebooks.iter().map(|n| n.borrow().join("\n")).collect();
    (format!("{fp}{}\n", notes.join("\n--\n")), stats, polled)
}

/// A five-island mesh where only island 0 has a timer of its own: its
/// host pings island 3's host once, at 12 s. Every other island is idle
/// — no calendar entry at all — until the backbone reaches it: gateway
/// 0's ARP request is a broadcast that lands in all five shards in one
/// window, and the tunnelled ping then wakes island 3 through its
/// mailbox. Nothing but a delivery lowering their calendar entry can put
/// those islands on the active list.
fn quiet_mesh_run(driver: Driver) -> (String, EngineStats) {
    let mut m = scenario::mesh(5, 1, 23);
    m.world.add_app(
        m.hosts[0][0],
        Box::new(ScriptedPinger {
            dst: city::host_ip(3, 0),
            times: vec![SimTime::from_secs(12)],
            seq: 0,
        }),
    );
    driver.run(&mut m.world, 10, 1);
    let idle = m.world.engine_stats();
    driver.run(&mut m.world, 60, 1);
    let stats = m.world.engine_stats();
    let arp_heard: Vec<u64> = m
        .gateways
        .iter()
        .map(|&gw| {
            m.world
                .host(gw)
                .ether_driver()
                .expect("gateway")
                .stats()
                .frames_in
        })
        .collect();
    let fp = fingerprint(
        &mut m.world,
        &m.gateways,
        m.internet_host,
        &m.hosts,
        &m.channels,
    );
    assert_eq!(idle.shards_stepped, 0, "nothing is due in the first 10 s");
    assert!(
        arp_heard.iter().all(|&n| n > 0),
        "the broadcast reaches every island: {arp_heard:?}"
    );
    (fp, stats)
}

/// Everything observable: the event log, every host's stack counters and
/// input-queue accounting, and every channel's stats.
fn fingerprint(
    w: &mut World,
    gateways: &[HostId],
    internet_host: HostId,
    islands: &[Vec<HostId>],
    channels: &[ChanId],
) -> String {
    let mut out = String::new();
    for (h, t, e) in w.take_events() {
        out.push_str(&format!("{h:?} {t} {e:?}\n"));
    }
    let mut hosts: Vec<_> = gateways.to_vec();
    hosts.push(internet_host);
    hosts.extend(islands.iter().flatten().copied());
    for h in hosts {
        out.push_str(&format!(
            "{h:?} {:?} iq len={} drops={} peak={}\n",
            w.host(h).stack.stats(),
            w.host(h).input_queue_len(),
            w.host(h).input_queue_drops(),
            w.host(h).input_queue_peak(),
        ));
    }
    for &c in channels {
        out.push_str(&format!("{c:?} {:?}\n", w.channel(c).stats()));
    }
    out
}

/// The CI smoke test check.sh gates on: the sharded engine over three
/// islands must reproduce the reference run bit-for-bit, with traffic
/// flowing.
#[test]
fn sharded_digest_smoke() {
    let reference = mesh_run(3, 1, 42, 25, Driver::Reference);
    assert!(
        reference.contains("PingReply"),
        "cross-island traffic must flow:\n{reference}"
    );
    let got = mesh_run(3, 1, 42, 25, Driver::Sharded);
    assert_eq!(
        sim::fnv1a(got.as_bytes()),
        sim::fnv1a(reference.as_bytes()),
        "sharded digest diverged from reference"
    );
    assert_eq!(got, reference);
}

/// Eight islands, more than any other reference comparison here: the
/// sharded engine equals the reference, and the run actually crossed
/// shards through the mailboxes.
#[test]
fn sharded_matches_reference() {
    let reference = mesh_run(8, 1, 7, 40, Driver::Reference);
    assert!(reference.contains("PingReply"), "traffic must flow");
    let (got, stats, _) = mesh_run_chunked(8, 1, 7, 40, Driver::Sharded, 1);
    assert_eq!(got, reference, "the sharded engine diverged from reference");
    assert!(stats.deliveries_queued > 0, "{stats:?}");
}

/// The calendar's delivery path: islands with no event of their own are
/// stepped exactly when a delivery lands in their mailbox, and the result
/// equals the reference.
#[test]
fn idle_islands_wake_on_mailbox_deliveries_alone() {
    let (reference, _) = quiet_mesh_run(Driver::Reference);
    assert!(
        reference.contains("PingReply"),
        "the ping must cross the backbone and come back:\n{reference}"
    );
    let (got, stats) = quiet_mesh_run(Driver::Sharded);
    assert_eq!(got, reference);
    assert!(
        stats.deliveries_queued >= 5,
        "the ARP broadcast alone is five deliveries: {stats:?}"
    );
}

/// The calendars outlive a run call: chunked runs equal one run, under
/// both engines — and a re-entry costs the indexed engine its apps, not
/// its world.
#[test]
fn chunked_sharded_runs_match_single_runs() {
    let (reference, ..) = mesh_run_chunked(4, 2, 7, 40, Driver::Reference, 1);
    for driver in [Driver::Reference, Driver::Sharded] {
        let (whole, _, polled_whole) = mesh_run_chunked(4, 2, 7, 40, driver, 1);
        assert_eq!(whole, reference, "{driver:?} diverged from reference");
        let (chunked, _, polled_chunked) = mesh_run_chunked(4, 2, 7, 40, driver, 16);
        assert_eq!(
            chunked, whole,
            "{driver:?}: 16 chunks diverged from one run"
        );
        // 4 × 2 pingers, the internet host's and 4 gateway watchers: 13
        // apps on 13 hosts in 4 shards. An entry polls each app, flushes
        // its host, and settles each shard once.
        let per_entry = 13 + 13 + 4;
        assert!(
            polled_chunked.saturating_sub(polled_whole) <= 16 * per_entry,
            "{driver:?}: 16 chunks polled {polled_chunked}, one run {polled_whole}"
        );
    }
}

/// A 4 × 2 mesh with every kind of between-calls mutation scripted into
/// its 40 chunks, plus the handles the script needs.
struct Scripted {
    m: scenario::MeshNet,
    monitor: HostId,
    monitor_tnc: gateway::world::TncId,
    /// Commands for the app on island 3, which nothing else ever touches.
    orders: Rc<RefCell<Vec<Ipv4Addr>>>,
    /// The same app, for orders through `World::app_mut`.
    commanded: AppId<Commanded>,
}

fn scripted_world() -> Scripted {
    let mut m = scenario::mesh(4, 2, 31);
    // Timed traffic on islands 0 and 2 only. `hosts[1][0]` and the
    // gateways carry no app, so nothing re-polls them at entry.
    for (g, i, dst, ms) in [
        (0, 0, city::host_ip(1, 1), [900, 31_000]),
        (2, 1, city::host_ip(0, 0), [4_400, 52_000]),
    ] {
        let times = ms.map(SimTime::from_millis).to_vec();
        m.world.add_app(
            m.hosts[g][i],
            Box::new(ScriptedPinger { dst, times, seq: 0 }),
        );
    }
    let orders = Rc::new(RefCell::new(Vec::new()));
    let queue = Rc::clone(&orders);
    let commanded = Commanded {
        queue,
        orders: Vec::new(),
        seq: 0,
    };
    let commanded = m.world.add_app(m.hosts[3][0], Box::new(commanded));
    // A promiscuous monitor station on island 0, for its TNC handle.
    let mut cfg = HostConfig::named("monitor");
    cfg.radio = Some(RadioIfConfig {
        call: Ax25Addr::parse_or_panic("MON"),
        ip: Ipv4Addr::new(44, 0, 0, 200),
        prefix_len: 24,
    });
    let monitor = m.world.add_host_in(ShardId::ZERO, cfg);
    let monitor_tnc = m.world.attach_radio(
        monitor,
        m.channels[0],
        9600,
        RxMode::Promiscuous,
        MacConfig::default(),
    );
    Scripted {
        m,
        monitor,
        monitor_tnc,
        orders,
        commanded,
    }
}

impl Scripted {
    /// What happens to the world before chunk `k` runs.
    fn mutate(&mut self, k: usize) {
        let w = &mut self.m.world;
        let now = w.now;
        let ms = SimDuration::from_millis;
        match k {
            3 => w
                .host_mut(self.m.hosts[1][0])
                .stack_op(now, |st| st.ping(city::host_ip(2, 0), 0x77, 1, 64)),
            5 | 24 => self.orders.borrow_mut().push(city::host_ip(0, 1)),
            9 | 33 => w.app_mut(self.commanded).orders.push(city::host_ip(0, 1)),
            8 => w.tnc_mut(self.monitor_tnc).set_mode(RxMode::AddressFilter),
            11 => w.host_mut(self.m.gateways[2]).set_down(true),
            13 => {
                // Island 1's two hosts stop hearing each other.
                let ch = w.channel_mut(self.m.channels[1]);
                ch.set_hears(StationId(1), StationId(2), false);
                ch.set_hears(StationId(2), StationId(1), false);
            }
            16 => w.host_mut(self.m.gateways[2]).set_down(false),
            18 => {
                let times = vec![now + ms(1_200), now + ms(19_000)];
                let dst = city::host_ip(2, 0);
                w.add_app(
                    self.m.hosts[1][1],
                    Box::new(ScriptedPinger { dst, times, seq: 0 }),
                );
            }
            21 => {
                w.add_beacon(
                    self.m.channels[2],
                    BeaconConfig {
                        from: Ax25Addr::parse_or_panic("LATE"),
                        to: Ax25Addr::parse_or_panic("CHAT"),
                        frame_len: 90,
                        mean_interval: SimDuration::from_secs(5),
                        start: now + ms(700),
                        mac: MacConfig::default(),
                    },
                );
            }
            28 => w.tnc_mut(self.monitor_tnc).set_mode(RxMode::Promiscuous),
            30 => w
                .host_mut(self.m.hosts[1][0])
                .stack_op(now, |st| st.ping(city::gw_radio_ip(3), 0x77, 2, 64)),
            _ => {}
        }
    }

    /// Everything a caller can read at a chunk end: the events of the
    /// chunk and every radio host's §3 accounting.
    fn chunk_end(&mut self) -> String {
        let w = &mut self.m.world;
        let mut out = String::new();
        for (h, t, e) in w.take_events() {
            out.push_str(&format!("{h:?} {t} {e:?}\n"));
        }
        let radio_hosts = (self.m.gateways.iter())
            .chain(self.m.hosts.iter().flatten())
            .chain([&self.monitor]);
        for &h in radio_hosts {
            let host = w.host(h);
            let cpu = host.cpu.stats();
            out.push_str(&format!(
                "{h:?} rint_chars={} char_interrupts={} busy_ns={}\n",
                host.pr_driver().expect("radio host").stats().rint_chars,
                cpu.char_interrupts,
                cpu.busy_ns,
            ));
        }
        out
    }
}

/// The run-call contract (DESIGN.md §6): whatever a caller does to the
/// world between run calls — through `host_mut`, `tnc_mut`, `channel_mut`,
/// `app_mut`, a builder, or a handle into an app on a shard it never
/// touches — the
/// next call picks up, and everything readable at each of 40 chunk ends
/// (mid-frame or not) equals the reference stepper's.
#[test]
fn mutations_between_run_calls_match_reference() {
    const CHUNKS: usize = 40;
    let chunk = SimDuration::from_micros(2_017_300);
    let run = |driver: Driver| {
        let mut s = scripted_world();
        let mut ends = Vec::new();
        for k in 0..CHUNKS {
            s.mutate(k);
            let until = s.m.world.now + chunk;
            driver.run_until(&mut s.m.world, until);
            ends.push(s.chunk_end());
        }
        let m = &mut s.m;
        let fp = fingerprint(
            &mut m.world,
            &m.gateways,
            m.internet_host,
            &m.hosts,
            &m.channels,
        );
        (ends, fp)
    };
    let (ref_ends, reference) = run(Driver::Reference);
    let log = ref_ends.concat();
    for (what, needle) in [
        (
            "host_mut ping",
            "PingReply { from: 44.0.2.2, id: 119, seq: 1",
        ),
        (
            "second host_mut ping",
            "PingReply { from: 44.0.3.1, id: 119, seq: 2",
        ),
        ("first shared-queue order", "id: 49374, seq: 1"),
        ("first app_mut order", "id: 49374, seq: 2"),
        ("second shared-queue order", "id: 49374, seq: 3"),
        ("second app_mut order", "id: 49374, seq: 4"),
    ] {
        assert!(log.contains(needle), "{what} went unanswered:\n{log}");
    }
    let (ends, fp) = run(Driver::Sharded);
    for (k, (got, want)) in ends.iter().zip(&ref_ends).enumerate() {
        assert_eq!(
            got, want,
            "the sharded engine differs at the end of chunk {k}"
        );
    }
    assert_eq!(fp, reference, "the sharded engine diverged from reference");
}

/// Judge once on the mesh (DESIGN.md §6; the single-shard suite's
/// `discarded_frames_of_every_kind_match_reference`, sharded): a station
/// on each island keys up chains of frames of every kind — for the
/// island's gateway and past it, decodable and not — under the
/// cross-island pings, in 24 chunks whose ends split frames. Events and
/// every radio host's §3 accounting equal the reference stepper's at each
/// chunk end, and the sharded engine takes most discarded frames as
/// sealed runs.
#[test]
fn mixed_traffic_on_the_mesh_matches_reference() {
    const CHUNKS: usize = 24;
    // 6.85 s on the air is 3.24 chunks and 1.07 s up a 9600 Bd line half a
    // chunk more: the two longest bodies go up whole, which is what tells
    // the length guard's two sides apart (mutants/06).
    let chunk = SimDuration::from_micros(2_113_300);
    let run = |driver: Driver| {
        let mut m = scenario::mesh(4, 2, 47);
        for (g, i, to) in [(0, 0, (2, 1)), (1, 1, (0, 0)), (3, 0, (1, 0))] {
            let times = [3_300, 23_000].map(SimTime::from_millis).to_vec();
            let dst = city::host_ip(to.0, to.1);
            let app = ScriptedPinger { dst, times, seq: 0 };
            m.world.add_app(m.hosts[g][i], Box::new(app));
        }
        let mut talkers = Vec::new();
        let mut frames = Vec::new();
        for (g, &ch) in m.channels.iter().enumerate() {
            talkers.push(m.world.channel_mut(ch).add_station());
            frames.push(common::mixed(city::gw_call(g)));
        }
        let mut ends = Vec::new();
        for k in 0..CHUNKS {
            // Island k mod 4 hears a chain; which one turns with k.
            let g = k % 4;
            let f = &frames[g];
            let chain: &[&[u8]] = match k / 4 {
                0 => &[&f.other, &f.junk, &f.empty, &f.qst],
                1 => &[&f.relayed, &f.specials, &f.junk],
                2 if g == 1 => &[&f.just_fits],
                2 if g == 2 => &[&f.oversize],
                4 => &[&f.qst, &f.other, &f.empty, &f.relayed],
                _ => &[],
            };
            let now = m.world.now;
            if !chain.is_empty() {
                common::transmit_chain(m.world.channel_mut(m.channels[g]), talkers[g], now, chain);
            }
            driver.run_until(&mut m.world, now + chunk);
            let mut end = String::new();
            for (h, t, e) in m.world.take_events() {
                end.push_str(&format!("{h:?} {t} {e:?}\n"));
            }
            for &h in m.gateways.iter().chain(m.hosts.iter().flatten()) {
                let accounting = common::char_accounting(m.world.host(h));
                end.push_str(&format!("{h:?} {accounting:?}\n"));
            }
            ends.push(end);
        }
        let discards: u64 = (m.gateways.iter().chain(m.hosts.iter().flatten()))
            .map(|&h| {
                let s = m.world.host(h).pr_driver().expect("radio host").stats();
                s.not_for_us + s.not_repeated + s.bad_frames
            })
            .sum();
        let sealed_runs = m.world.sched_stats().sealed_runs;
        let fp = fingerprint(
            &mut m.world,
            &m.gateways,
            m.internet_host,
            &m.hosts,
            &m.channels,
        );
        (ends, fp, discards, sealed_runs)
    };
    let (ref_ends, reference, discards, sealed_runs) = run(Driver::Reference);
    let log = ref_ends.concat();
    assert!(log.contains("PingReply"), "traffic must flow:\n{log}");
    assert!(discards > 60, "{discards} frames discarded");
    assert_eq!(sealed_runs, 0, "the reference stepper never seals");
    let (ends, fp, _, sealed) = run(Driver::Sharded);
    for (k, (got, want)) in ends.iter().zip(&ref_ends).enumerate() {
        assert_eq!(
            got, want,
            "the sharded engine differs at the end of chunk {k}"
        );
    }
    assert_eq!(fp, reference, "the sharded engine diverged from reference");
    // All but each line's first frame (a fresh line's leading FEND is a
    // run of its own) and the frames a chunk end split.
    assert!(
        sealed * 10 >= discards * 7,
        "{sealed} sealed runs for {discards} discarded frames"
    );
}

/// Engine self-telemetry: on a 32-island mesh a window steps a handful
/// of shards, not all of them — the O(active) contract (DESIGN.md §11).
#[test]
fn engine_stats_show_sparse_windows() {
    let (_, stats, _) = mesh_run_chunked(32, 4, 5, 30, Driver::Sharded, 1);
    assert!(stats.windows > 100, "{stats:?}");
    assert!(stats.deliveries_queued > 0, "{stats:?}");
    assert!(stats.pending_peak > 0, "{stats:?}");
    assert!(
        stats.shards_stepped < 3 * stats.windows,
        "mean active set must stay under 3 of 32 shards: {stats:?}"
    );
}

/// The mailbox contract (DESIGN.md §11) on a mesh ping run: each
/// transmission's last recipient gets the frame itself and every other
/// recipient a copy. So copies are made for broadcasts only — N − 2 per
/// ARP request on the N-NIC backbone — moved frames and copies add up to
/// the deliveries queued, and `spent` brings back exactly the copies,
/// never a moved frame.
#[test]
fn unicast_frames_cross_by_move_and_only_broadcast_copies_come_back() {
    let (gateways, hosts_per_gw) = (4, 2);
    let mut m = scenario::mesh(gateways, hosts_per_gw, 7);
    for g in 0..gateways {
        for i in 0..hosts_per_gw {
            let t = 500 + 977 * (g * hosts_per_gw + i) as u64;
            m.world.add_app(
                m.hosts[g][i],
                Box::new(ScriptedPinger {
                    dst: city::host_ip((g + 1) % gateways, i),
                    times: vec![SimTime::from_millis(t), SimTime::from_millis(t + 15_000)],
                    seq: 0,
                }),
            );
        }
    }
    Driver::Sharded.run(&mut m.world, 60, 1);
    let stats = m.world.engine_stats();
    let backbone = m.world.segment(m.seg);
    let mut nics = m.gateways.clone();
    nics.push(m.internet_host);
    let broadcasts: u64 = nics
        .iter()
        .map(|&h| {
            let drv = m.world.host(h).ether_driver().expect("on the backbone");
            drv.arp().stats().requests_sent
        })
        .sum();
    let copies = broadcasts * (nics.len() as u64 - 2);
    assert!(broadcasts > 0, "{stats:?}");
    assert_eq!(backbone.backlog(), 0, "the backbone is quiet");
    assert_eq!(
        stats.deliveries_moved,
        backbone.stats().sent,
        "one frame moved per transmission: {stats:?}"
    );
    assert!(
        stats.deliveries_moved > broadcasts,
        "unicast flowed: {stats:?}"
    );
    assert_eq!(
        stats.deliveries_moved + copies,
        stats.deliveries_queued,
        "{stats:?}"
    );
    assert_eq!(stats.deliveries_queued, backbone.stats().delivered);
    assert_eq!(
        stats.copies_recycled, copies,
        "spent carries the copies, nothing moved: {stats:?}"
    );
}

/// The warm hand-off ring stops reallocating: after the first half of a
/// steady ping load has sized the mailboxes, the second half pushes
/// plenty more frames without a single ring growth (§11's zero-allocation
/// contract, backed further by the `shard_sync` counting-allocator ratchet).
#[test]
fn mailbox_growth_stabilizes() {
    let mut m = scenario::mesh(2, 1, 11);
    for (g, island) in m.hosts.iter().enumerate() {
        m.world.add_app(
            island[0],
            Box::new(ScriptedPinger {
                dst: city::host_ip((g + 1) % 2, 0),
                times: (1..40).map(|k| SimTime::from_millis(3_000 * k)).collect(),
                seq: 0,
            }),
        );
    }
    m.world.run_for(SimDuration::from_secs(60));
    let warm = m.world.mailbox_stats();
    assert!(warm.pushed > 0, "pings must cross shards");
    m.world.run_for(SimDuration::from_secs(60));
    let done = m.world.mailbox_stats();
    assert!(done.pushed > warm.pushed, "second half must keep pushing");
    assert_eq!(
        done.grows, warm.grows,
        "warm mailbox rings must not reallocate"
    );
    assert_eq!(done.pushed, done.popped, "every hand-off is consumed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Seed sweep: random seeds and small random meshes — the sharded
    /// engine's digest equals the reference digest.
    #[test]
    fn seed_sweep_digests_match(
        seed in 0u64..1_000,
        gateways in 2usize..4,
        hosts_per_gw in 1usize..3,
    ) {
        let digest = |driver| sim::fnv1a(mesh_run(gateways, hosts_per_gw, seed, 20, driver).as_bytes());
        let reference = digest(Driver::Reference);
        prop_assert_eq!(digest(Driver::Sharded), reference, "diverged at seed {}", seed);
    }
}
