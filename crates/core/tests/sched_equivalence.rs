//! Scheduler equivalence: the deadline-indexed run loop must produce
//! event sequences and component statistics identical to the full-scan
//! reference stepper, on fixed
//! topologies and on randomized worlds with cancellations and mid-run
//! reconfiguration. Plus a golden trace digest pinning the behaviour
//! against silent drift in future changes.
//!
//! One accepted divergence: `CsmaStats::busy_detects` counts *polls* that
//! found carrier, and the dirty-set engine deliberately polls less often;
//! it is excluded from the comparison (no other code reads it).

mod common;

use ax25::addr::Ax25Addr;
use gateway::cpu::CpuConfig;
use gateway::host::{Host, HostConfig, RadioIfConfig};
use gateway::scenario::{self, PaperConfig, PaperScenario};
use gateway::world::{App, BeaconId, ChanId, DigiId, HostId, TncId, World};
use netstack::stack::StackAction;
use proptest::prelude::*;
use radio::channel::StationId;
use radio::csma::MacConfig;
use radio::tnc::RxMode;
use radio::traffic::BeaconConfig;
use serial::End;
use sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// An app that issues pings at scripted instants — deterministic traffic
/// with real TCP/ICMP timers behind it.
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
            host.stack_op(now, |st| st.ping(self.dst, 0x5c4e, self.seq, 64));
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.times.first().copied()
    }
}

/// Which engine drives the world.
#[derive(Clone, Copy, Debug)]
enum Driver {
    Reference,
    Indexed,
}

const DRIVERS: [Driver; 2] = [Driver::Reference, Driver::Indexed];

impl Driver {
    fn run_for(self, w: &mut World, d: SimDuration) {
        match self {
            Driver::Reference => {
                let t = w.now + d;
                w.run_until_reference(t);
            }
            Driver::Indexed => w.run_for(d),
        }
    }
}

/// Everything observable about a run: the recorded event log plus the
/// stats of every component (busy_detects masked out).
fn fingerprint(
    w: &mut World,
    tncs: &[TncId],
    digis: &[DigiId],
    beacons: &[BeaconId],
    chans: &[ChanId],
    hosts: &[HostId],
) -> String {
    let mut out = String::new();
    for (h, t, e) in w.take_events() {
        out.push_str(&format!("{h:?} {t} {e:?}\n"));
    }
    for &t in tncs {
        let mut mac = w.tnc(t).mac_stats();
        mac.busy_detects = 0;
        out.push_str(&format!("{t:?} {:?} {mac:?}\n", w.tnc(t).stats()));
    }
    for &d in digis {
        out.push_str(&format!("{d:?} {:?}\n", w.digipeater(d).stats()));
    }
    for &b in beacons {
        out.push_str(&format!("{b:?} {:?}\n", w.beacon(b).stats()));
    }
    for &c in chans {
        out.push_str(&format!("{c:?} {:?}\n", w.channel(c).stats()));
    }
    for &h in hosts {
        out.push_str(&format!(
            "{h:?} iq len={} drops={} peak={}\n",
            w.host(h).input_queue_len(),
            w.host(h).input_queue_drops(),
            w.host(h).input_queue_peak(),
        ));
    }
    out
}

/// Paper topology + beacons + scripted pings, run in two segments with an
/// optional TNC mode flip in between (exercises `sync_all` picking up
/// external mutation). Returns the fingerprint.
fn paper_run(
    driver: Driver,
    seed: u64,
    mac: MacConfig,
    beacons: &[(u64, u64)],
    ping_times: &[u64],
    flip_mode: bool,
) -> String {
    let cfg = PaperConfig {
        mac,
        ..PaperConfig::default()
    };
    let mut s = scenario::paper_topology(cfg, seed);
    let mut bids = Vec::new();
    for (i, &(start_ms, interval_ms)) in beacons.iter().enumerate() {
        bids.push(s.world.add_beacon(
            s.chan,
            BeaconConfig {
                from: Ax25Addr::parse_or_panic(&format!("BCN{i}")),
                to: Ax25Addr::parse_or_panic("QST"),
                frame_len: 64,
                mean_interval: SimDuration::from_millis(interval_ms),
                start: SimTime::from_millis(start_ms),
                mac,
            },
        ));
    }
    s.world.add_app(
        s.pc,
        Box::new(ScriptedPinger {
            dst: scenario::ETHER_HOST_IP,
            times: ping_times
                .iter()
                .map(|&ms| SimTime::from_millis(ms))
                .collect(),
            seq: 0,
        }),
    );
    driver.run_for(&mut s.world, SimDuration::from_secs(30));
    if flip_mode {
        s.world.tnc_mut(s.pc_tnc).set_mode(RxMode::Promiscuous);
    }
    driver.run_for(&mut s.world, SimDuration::from_secs(30));
    fingerprint(
        &mut s.world,
        &[s.pc_tnc, s.gw_tnc],
        &[],
        &bids,
        &[s.chan],
        &[s.pc, s.gw, s.ether_host],
    )
}

#[test]
fn paper_topology_indexed_matches_reference() {
    let mac = MacConfig::default();
    let reference = paper_run(
        Driver::Reference,
        42,
        mac,
        &[(500, 3000)],
        &[1000, 9000],
        false,
    );
    assert!(
        reference.contains("PingReply"),
        "traffic must flow:\n{reference}"
    );
    let got = paper_run(
        Driver::Indexed,
        42,
        mac,
        &[(500, 3000)],
        &[1000, 9000],
        false,
    );
    assert_eq!(got, reference, "indexed engine diverged from reference");
}

#[test]
fn digi_chain_indexed_matches_reference() {
    let run = |driver: Driver| {
        let mut s = scenario::digi_chain_topology(2, PaperConfig::default(), 11);
        s.world.add_app(
            s.pc,
            Box::new(ScriptedPinger {
                dst: scenario::GW_RADIO_IP,
                times: vec![SimTime::from_secs(1)],
                seq: 0,
            }),
        );
        driver.run_for(&mut s.world, SimDuration::from_secs(120));
        fingerprint(&mut s.world, &[], &[], &[], &[s.chan], &[s.pc, s.gw])
    };
    let reference = run(Driver::Reference);
    assert!(
        reference.contains("PingReply"),
        "traffic must flow:\n{reference}"
    );
    assert_eq!(run(Driver::Indexed), reference);
}

/// Zero slot time makes deferring MACs re-draw on *every quiescence pass*,
/// the trickiest RNG-stream case for the dirty-set engine.
#[test]
fn zero_slot_time_rng_stream_matches() {
    let mac = MacConfig {
        slot_time: SimDuration::ZERO,
        persistence: 0.25,
        ..MacConfig::default()
    };
    let reference = paper_run(
        Driver::Reference,
        3,
        mac,
        &[(0, 1500), (200, 1500), (400, 1500)],
        &[2000],
        false,
    );
    let got = paper_run(
        Driver::Indexed,
        3,
        mac,
        &[(0, 1500), (200, 1500), (400, 1500)],
        &[2000],
        false,
    );
    assert_eq!(got, reference, "indexed engine diverged from reference");
}

proptest! {
    /// Randomized worlds: topology knobs, beacon load, scripted traffic,
    /// MAC parameters (including zero slot time), and a mid-run TNC
    /// reconfiguration — the reference and indexed engines must agree
    /// byte-for-byte on events and stats.
    #[test]
    fn randomized_world_equivalence(
        seed in 0u64..1_000,
        n_beacons in 0usize..3,
        slot_ms in prop_oneof![Just(0u64), Just(40u64), Just(100u64)],
        persistence in prop_oneof![Just(0.25f64), Just(0.63f64), Just(1.0f64)],
        ping_a in 200u64..5_000,
        ping_b in 5_000u64..25_000,
        flip_mode in any::<bool>(),
    ) {
        let mac = MacConfig {
            slot_time: SimDuration::from_millis(slot_ms),
            persistence,
            ..MacConfig::default()
        };
        let beacons: Vec<(u64, u64)> = (0..n_beacons)
            .map(|i| (100 + 700 * i as u64, 2_000 + 900 * i as u64))
            .collect();
        let pings = [ping_a, ping_b];
        let reference = paper_run(Driver::Reference, seed, mac, &beacons, &pings, flip_mode);
        let got = paper_run(Driver::Indexed, seed, mac, &beacons, &pings, flip_mode);
        prop_assert_eq!(&got, &reference, "indexed engine diverged from reference");
    }
}

/// FNV-1a over the event log of a fixed busy scenario. Pinned so that a
/// future engine change that shifts any event time or payload fails
/// loudly, even if it happens to shift both engines the same way.
#[test]
fn golden_trace_digest() {
    let mut digests = Vec::new();
    for driver in DRIVERS {
        let log = paper_run(
            driver,
            20,
            MacConfig::default(),
            &[(300, 2500), (900, 4000)],
            &[1500, 12_000, 30_500],
            false,
        );
        digests.push(sim::fnv1a(log.as_bytes()));
    }
    assert_eq!(digests[0], digests[1]);
    assert_eq!(
        digests[0], 15_916_838_269_407_293_022,
        "golden digest drifted — engine behaviour changed"
    );
}

/// A 50-beacon world: the paper gateway with its TNC
/// promiscuous behind a 2400 Bd serial line, hearing 50 chattering
/// beacon stations. Every heard frame floods the gateway line with
/// per-character deliveries, so this pins run delivery to the reference
/// byte-for-byte, including the per-character interrupt accounting the
/// paper's §3 argument rests on.
#[test]
fn promiscuous_flood_matches_reference() {
    let run = |driver: Driver| {
        let cfg = PaperConfig {
            serial_baud: 2400,
            filter: None,
            ..PaperConfig::default()
        };
        let mut s = scenario::paper_topology(cfg, 50);
        let mut bids = Vec::new();
        for i in 0..50 {
            bids.push(s.world.add_beacon(
                s.chan,
                BeaconConfig {
                    from: Ax25Addr::parse_or_panic(&format!("BG{i}")),
                    to: Ax25Addr::parse_or_panic("CHAT"),
                    frame_len: 120,
                    mean_interval: SimDuration::from_secs(60),
                    start: SimTime::from_millis(100 * i),
                    mac: MacConfig::default(),
                },
            ));
        }
        s.world.tnc_mut(s.pc_tnc).set_mode(RxMode::AddressFilter);
        driver.run_for(&mut s.world, SimDuration::from_secs(60));
        let chars = s.world.host(s.gw).cpu.stats().char_interrupts;
        let batched = s.world.sched_stats().batched_chars;
        let fp = fingerprint(
            &mut s.world,
            &[s.pc_tnc, s.gw_tnc],
            &[],
            &bids,
            &[s.chan],
            &[s.pc, s.gw, s.ether_host],
        );
        (format!("chars={chars}\n{fp}"), batched)
    };
    let (reference, _) = run(Driver::Reference);
    assert!(
        reference.starts_with("chars=") && !reference.starts_with("chars=0\n"),
        "the gateway must take per-character interrupts:\n{reference}"
    );
    let (indexed, batched) = run(Driver::Indexed);
    assert_eq!(indexed, reference, "Indexed diverged from reference");
    assert!(
        batched > 1000,
        "the flood should be delivered in runs (batched_chars={batched})"
    );
}

/// At scripted instants, notes what the host's CPU and driver look like
/// to a process on it, then optionally flips the host's power (E12's
/// gateway kill, here aimed at the middle of a serial frame).
struct Probe {
    script: Vec<(SimTime, Option<bool>)>,
    notes: Rc<RefCell<Vec<String>>>,
}

impl App for Probe {
    fn poll(&mut self, now: SimTime, host: &mut Host) {
        while self.script.first().is_some_and(|&(t, _)| t <= now) {
            let (_, power) = self.script.remove(0);
            self.notes.borrow_mut().push(format!(
                "{now} cpu busy until {} after {} chars, {} queued, next {:?}",
                host.cpu.busy_until(),
                host.pr_driver().expect("radio host").stats().rint_chars,
                host.input_queue_len(),
                host.next_deadline(),
            ));
            if let Some(down) = power {
                host.set_down(down);
            }
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.script.first().map(|&(t, _)| t)
    }
}

/// Scripted traffic for the lock-step world; the instants are found by
/// scouting a reference run so that each falls in the middle of a frame.
#[derive(Clone, Default)]
struct Script {
    /// Pings from the Ethernet host to the PC: each crosses the gateway,
    /// charging its CPU on the way in.
    ether_pings: Vec<SimTime>,
    /// Pings from both PCs (to the Ethernet host and to the gateway).
    pc_pings: Vec<SimTime>,
    /// Gateway probes, some of which flip its power.
    probes: Vec<(SimTime, Option<bool>)>,
}

/// The lock-step promiscuous world: the paper topology behind 2400 Bd
/// lines plus a second PC, all three TNCs promiscuous, so every frame on
/// the channel goes up three serial lines at the same instants. Four
/// beacons keep the channel (and so the lines) busy, and a slow CPU (3 ms
/// per character against 4.2 ms between characters) is busy most of the
/// way through a frame, so work that arrives mid-frame queues behind
/// exactly the characters that came before it — or the run shows it.
struct LockStep {
    s: PaperScenario,
    pc2: HostId,
    tncs: [TncId; 3],
    bids: Vec<BeaconId>,
    gw_notes: Rc<RefCell<Vec<String>>>,
}

fn lock_step_world(script: &Script) -> LockStep {
    let mac = MacConfig::default();
    let cfg = PaperConfig {
        serial_baud: 2400,
        filter: None,
        mac,
        cpu: CpuConfig {
            char_cost: SimDuration::from_millis(3),
            packet_cost: SimDuration::from_millis(5),
        },
        ..PaperConfig::default()
    };
    let mut s = scenario::paper_topology(cfg, 88);
    let mut pc2_cfg = HostConfig::named("pc2");
    pc2_cfg.radio = Some(RadioIfConfig {
        call: Ax25Addr::parse_or_panic("W7PC2"),
        ip: Ipv4Addr::new(44, 24, 0, 6),
        prefix_len: 16,
    });
    let pc2 = s.world.add_host(pc2_cfg);
    let pc2_tnc = s
        .world
        .attach_radio(pc2, s.chan, 2400, RxMode::Promiscuous, mac);
    let bids = (0..4)
        .map(|i| {
            s.world.add_beacon(
                s.chan,
                BeaconConfig {
                    from: Ax25Addr::parse_or_panic(&format!("LS{i}")),
                    to: Ax25Addr::parse_or_panic("CHAT"),
                    frame_len: 120,
                    mean_interval: SimDuration::from_secs(8),
                    start: SimTime::from_millis(150 * i),
                    mac,
                },
            )
        })
        .collect();
    for (host, dst, times) in [
        (s.ether_host, scenario::PC_IP, &script.ether_pings),
        (s.pc, scenario::ETHER_HOST_IP, &script.pc_pings),
        (pc2, scenario::GW_RADIO_IP, &script.pc_pings),
    ] {
        let times = times.clone();
        s.world
            .add_app(host, Box::new(ScriptedPinger { dst, times, seq: 0 }));
    }
    let gw_notes = Rc::new(RefCell::new(Vec::new()));
    let probe = Probe {
        script: script.probes.clone(),
        notes: Rc::clone(&gw_notes),
    };
    s.world.add_app(s.gw, Box::new(probe));
    let tncs = [s.pc_tnc, s.gw_tnc, pc2_tnc];
    LockStep {
        s,
        pc2,
        tncs,
        bids,
        gw_notes,
    }
}

impl LockStep {
    fn radio_hosts(&self) -> [HostId; 3] {
        [self.s.pc, self.s.gw, self.pc2]
    }

    /// Characters still to come up the gateway's line: > 0 means "now" is
    /// in the middle of a frame the TNC is passing to the host.
    fn gw_line_backlog(&self) -> usize {
        let line = self.s.world.host_serial_line(self.s.gw).expect("gw line");
        line.tx_backlog(End::B)
    }

    /// Characters delivered over all three lines, both directions.
    fn serial_chars(&self) -> u64 {
        let delivered = |h: &HostId| {
            let line = self.s.world.host_serial_line(*h).expect("radio host");
            line.stats(End::A).delivered + line.stats(End::B).delivered
        };
        self.radio_hosts().iter().map(delivered).sum()
    }

    /// The §3 accounting of every radio host.
    fn char_accounting(&self) -> Vec<[u64; 9]> {
        let of = |h: &HostId| common::char_accounting(self.s.world.host(*h));
        self.radio_hosts().iter().map(of).collect()
    }

    /// IP frames the gateway's radio driver has taken in.
    fn gw_ip_in(&self) -> u64 {
        let gw = self.s.world.host(self.s.gw);
        gw.pr_driver().expect("radio host").stats().ip_in
    }

    fn fingerprint(&mut self) -> String {
        let accounting = self.char_accounting();
        let hosts = [self.s.pc, self.s.gw, self.pc2, self.s.ether_host];
        let fp = fingerprint(
            &mut self.s.world,
            &self.tncs,
            &[],
            &self.bids,
            &[self.s.chan],
            &hosts,
        );
        let notes = self.gw_notes.borrow().join("\n");
        format!("{accounting:?}\n{notes}\n{fp}")
    }
}

/// Runs the reference under `script` to `from`, then on in 5 ms steps
/// until the gateway's line is well inside a frame (30 to 100 characters
/// still to deliver); returns an instant shortly after, off the character
/// grid.
/// Actions scripted at the returned instant cannot change history up to
/// it, so they are certain to land mid-frame.
fn scout_mid_frame(script: &Script, from: SimTime) -> SimTime {
    let mut w = lock_step_world(script);
    w.s.world.run_until_reference(from);
    while !(30..=100).contains(&w.gw_line_backlog()) {
        let t = w.s.world.now + SimDuration::from_millis(5);
        assert!(t < SimTime::from_secs(90), "the line never got busy");
        w.s.world.run_until_reference(t);
    }
    w.s.world.now + SimDuration::from_micros(1_700)
}

fn lock_step_script() -> Script {
    let mut script = Script::default();
    let t = scout_mid_frame(&script, SimTime::from_secs(3));
    script.ether_pings = (0..6)
        .map(|i| t + SimDuration::from_millis(40 * i))
        .collect();
    let t = scout_mid_frame(&script, SimTime::from_secs(8));
    script.pc_pings = vec![t, SimTime::from_secs(22), SimTime::from_secs(41)];
    // Look at the gateway just after each Ethernet-side packet reached it,
    // and power it down and up mid-frame later on.
    let just_after = SimDuration::from_micros(300);
    script.probes = (script.ether_pings.iter())
        .map(|&t| (t + just_after, None))
        .collect();
    let t = scout_mid_frame(&script, SimTime::from_secs(30));
    let up = t + SimDuration::from_millis(700);
    script.probes.extend([(t, Some(true)), (up, Some(false))]);
    script
}

/// Lock-step lines are the case a lone-line fast lane cannot batch.
/// Everything that can touch a receiver between two frame boundaries
/// happens here in the middle of a frame — pings from both PCs, an
/// Ethernet-side sender whose packets charge the gateway's CPU, a
/// power-down of the gateway — and the event stream, every component's
/// stats and the per-character accounting must equal the reference
/// stepper's. The work counters then show the lines were visited per
/// frame, not per character.
#[test]
fn lock_step_promiscuous_lines_match_reference() {
    let script = lock_step_script();
    let run = |driver: Driver| {
        let mut w = lock_step_world(&script);
        driver.run_for(&mut w.s.world, SimDuration::from_secs(90));
        let stats = w.s.world.sched_stats();
        (w.fingerprint(), w.serial_chars(), stats)
    };
    let (reference, chars, _) = run(Driver::Reference);
    assert!(
        reference.matches("PingReply").count() >= 2,
        "pings must cross the gateway and be answered:\n{reference}"
    );
    let (got, got_chars, stats) = run(Driver::Indexed);
    assert_eq!(got, reference, "indexed engine diverged from reference");
    assert_eq!(got_chars, chars);
    // Host-independent work: a line costs one calendar visit per frame
    // (547 pops here; 684 with a boundary at every FEND), and every
    // character travels in a run.
    assert!(chars > 10_000, "three busy lines: {chars} characters");
    assert!(
        stats.pops * 1000 <= chars * 32,
        "{} pops for {chars} serial characters",
        stats.pops
    );
    assert!(
        stats.batched_chars * 10 >= chars * 9,
        "{} of {chars} characters delivered in runs",
        stats.batched_chars
    );
}

/// The line ends runs only at *closing* `FEND`s, which is sound as long as
/// a `FEND` that directly follows a `FEND` finds the receiver's deframer
/// empty. A host that loses power mid-frame stops listening, so it must
/// come back without the half frame — or the next frame's leading `FEND`
/// closes it in the middle of a run. Here the gateway goes down half-way
/// through a ping addressed to it (the stale half would classify as IP
/// for us and raise an event), comes up on the idle line before the next
/// frame's leading `FEND`, is looked at mid-way through that next frame,
/// and later goes down mid-frame once more and comes up mid-way through
/// another. Run under `cargo test` (debug), `Host::on_serial_run`'s
/// boundary assertion is live.
#[test]
fn power_cycle_between_frames_matches_reference() {
    let mut script = Script {
        pc_pings: vec![SimTime::from_secs(10), SimTime::from_secs(50)],
        ..Script::default()
    };
    let ms = SimDuration::from_millis;
    // When the first ping for the gateway has just come up its line...
    let mut w = lock_step_world(&script);
    w.s.world.run_until_reference(script.pc_pings[0]);
    while w.gw_ip_in() == 0 {
        let t = w.s.world.now + ms(1);
        assert!(t < SimTime::from_secs(30), "no ping reached the gateway");
        w.s.world.run_until_reference(t);
    }
    // ...go back some 50 of its 110-odd characters (4.17 ms each): past
    // the AX.25 header, short of the closing FEND.
    let down = w.s.world.now - SimDuration::from_micros(208_300);
    script.probes.push((down, Some(true)));
    // Up again once that frame's trailing FEND has left the wire.
    let mut w = lock_step_world(&script);
    w.s.world.run_until_reference(down);
    assert!((30..=100).contains(&w.gw_line_backlog()), "not mid-frame");
    while w.gw_line_backlog() > 0 {
        let t = w.s.world.now + ms(1);
        w.s.world.run_until_reference(t);
    }
    let up = w.s.world.now + ms(1);
    script.probes.push((up, Some(false)));
    // A look at the gateway in the middle of the frame that follows.
    let look = scout_mid_frame(&script, up);
    script.probes.push((look, None));
    // Second cycle: down mid-frame, up mid-way through a later frame.
    let down = scout_mid_frame(&script, SimTime::from_secs(35));
    script.probes.push((down, Some(true)));
    let up = scout_mid_frame(&script, down + ms(1_500));
    script.probes.push((up, Some(false)));

    let run = |driver: Driver| {
        let mut w = lock_step_world(&script);
        driver.run_for(&mut w.s.world, SimDuration::from_secs(90));
        (w.gw_ip_in(), w.fingerprint())
    };
    let (ip_in, reference) = run(Driver::Reference);
    assert!(ip_in > 0, "the gateway must hear IP again after its cycles");
    let (_, indexed) = run(Driver::Indexed);
    assert_eq!(indexed, reference, "indexed engine diverged from reference");
}

/// Flush on exit: a run split into chunks whose ends fall mid-frame is
/// the same run. At every chunk end the public per-character accounting
/// equals the reference stepper's (which is exact at any instant), and
/// the chunked, single-call and reference event streams are identical.
#[test]
fn chunked_run_equals_single_run_at_every_chunk_end() {
    let script = lock_step_script();
    let chunk = SimDuration::from_micros(137_300);
    let chunks = 300;
    let chunked = |driver: Driver| {
        let mut w = lock_step_world(&script);
        let mut at_chunk_ends = Vec::new();
        let mut mid_frame_ends = 0;
        for _ in 0..chunks {
            driver.run_for(&mut w.s.world, chunk);
            at_chunk_ends.push(w.char_accounting());
            mid_frame_ends += usize::from(w.gw_line_backlog() > 0);
        }
        (w.fingerprint(), at_chunk_ends, mid_frame_ends)
    };
    let (reference, ref_ends, mid_frame_ends) = chunked(Driver::Reference);
    assert!(
        mid_frame_ends >= chunks / 10,
        "only {mid_frame_ends} of {chunks} chunk ends fell mid-frame"
    );
    let (indexed, ends, _) = chunked(Driver::Indexed);
    for (i, (got, want)) in ends.iter().zip(&ref_ends).enumerate() {
        assert_eq!(got, want, "accounting differs at the end of chunk {i}");
    }
    assert_eq!(indexed, reference, "chunked run diverged from reference");
    let mut single = lock_step_world(&script);
    single.s.world.run_for(chunk * chunks as u64);
    assert_eq!(single.fingerprint(), reference, "single run diverged");
}

/// An app with no timer of its own: it pings whatever its owner ordered
/// since the last poll, two ways. `orders` come through `World::app_mut`,
/// as E11 ships a datagram and E14 queues a lookup, and `app_mut` marks
/// the shard for the full sync that carries them out. `queue` is shared
/// behind the world's back, as app report handles are: only the engine's
/// promise to re-poll every app at run-call entry carries those out.
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

/// The run-call contract (DESIGN.md §6) on the paper topology: 40 chunks
/// with a mutation of every kind scripted between them — `host_mut` on a
/// host no app re-polls, a power cycle, a TNC switch, a hearing edit, an
/// app and a beacon added mid-run, orders through `World::app_mut` and
/// through a shared handle before calls that touch nothing else — and the
/// events, the §3 accounting at every chunk end and the final stats equal
/// the reference stepper's.
#[test]
fn mutations_between_run_calls_match_reference() {
    const CHUNKS: usize = 40;
    let chunk = SimDuration::from_micros(1_513_700);
    let ms = SimDuration::from_millis;
    let run = |driver: Driver| {
        let cfg = PaperConfig {
            filter: None,
            ..PaperConfig::default()
        };
        let mut s = scenario::paper_topology(cfg, 61);
        let orders = Rc::new(RefCell::new(Vec::new()));
        let queue = Rc::clone(&orders);
        let commanded = Commanded {
            queue,
            orders: Vec::new(),
            seq: 0,
        };
        let cmd = s.world.add_app(s.ether_host, Box::new(commanded));
        let mut bids = Vec::new();
        let mut ends = Vec::new();
        for k in 0..CHUNKS {
            let w = &mut s.world;
            let now = w.now;
            match k {
                2 => w
                    .host_mut(s.pc)
                    .stack_op(now, |st| st.ping(scenario::ETHER_HOST_IP, 0x77, 1, 64)),
                4 | 26 => orders.borrow_mut().push(scenario::PC_IP),
                10 | 35 => w.app_mut(cmd).orders.push(scenario::GW_RADIO_IP),
                7 => w.tnc_mut(s.gw_tnc).set_mode(RxMode::AddressFilter),
                9 => bids.push(w.add_beacon(
                    s.chan,
                    BeaconConfig {
                        from: Ax25Addr::parse_or_panic("LATE"),
                        to: Ax25Addr::parse_or_panic("CHAT"),
                        frame_len: 90,
                        mean_interval: SimDuration::from_secs(4),
                        start: now + ms(300),
                        mac: MacConfig::default(),
                    },
                )),
                12 => w.host_mut(s.gw).set_down(true),
                15 => w.host_mut(s.gw).set_down(false),
                18 => {
                    let times = vec![now + ms(1_000), now + ms(12_000)];
                    let dst = scenario::GW_RADIO_IP;
                    w.add_app(s.pc, Box::new(ScriptedPinger { dst, times, seq: 0 }));
                }
                22 => {
                    // The first TNC goes deaf to the beacon.
                    let (tnc, beacon) = (StationId(0), StationId(2));
                    w.channel_mut(s.chan).set_hears(tnc, beacon, false);
                }
                30 => w.tnc_mut(s.gw_tnc).set_mode(RxMode::Promiscuous),
                33 => w
                    .host_mut(s.pc)
                    .stack_op(now, |st| st.ping(scenario::ETHER_HOST_IP, 0x77, 2, 64)),
                _ => {}
            }
            driver.run_for(w, chunk);
            let mut end = String::new();
            for (h, t, e) in w.take_events() {
                end.push_str(&format!("{h:?} {t} {e:?}\n"));
            }
            for h in [s.pc, s.gw] {
                let cpu = w.host(h).cpu.stats();
                end.push_str(&format!(
                    "{h:?} rint_chars={} char_interrupts={} busy_ns={}\n",
                    w.host(h)
                        .pr_driver()
                        .expect("radio host")
                        .stats()
                        .rint_chars,
                    cpu.char_interrupts,
                    cpu.busy_ns,
                ));
            }
            ends.push(end);
        }
        let fp = fingerprint(
            &mut s.world,
            &[s.pc_tnc, s.gw_tnc],
            &[],
            &bids,
            &[s.chan],
            &[s.pc, s.gw, s.ether_host],
        );
        (ends, fp)
    };
    let (ref_ends, reference) = run(Driver::Reference);
    let log = ref_ends.concat();
    for (what, needle) in [
        ("host_mut ping", "id: 119, seq: 1"),
        ("host_mut ping after the power cycle", "id: 119, seq: 2"),
        ("first shared-queue order", "id: 49374, seq: 1"),
        ("first app_mut order", "id: 49374, seq: 2"),
        ("second shared-queue order", "id: 49374, seq: 3"),
        ("second app_mut order", "id: 49374, seq: 4"),
        ("added app", "id: 23630, seq: 2"),
    ] {
        assert!(log.contains(needle), "{what} went unanswered:\n{log}");
    }
    let (ends, indexed) = run(Driver::Indexed);
    for (k, (got, want)) in ends.iter().zip(&ref_ends).enumerate() {
        assert_eq!(got, want, "indexed differs at the end of chunk {k}");
    }
    assert_eq!(indexed, reference, "indexed engine diverged from reference");
}

/// Judge once (DESIGN.md §6): under the indexed engine a frame goes up a
/// promiscuous listener's line sealed, and a host that would only count
/// and drop it takes the seal for the bytes. Here two stations that sense
/// no carrier put one frame of every kind on the paper topology's channel
/// — for the gateway and past it, decodable and not, chained so that
/// they travel the 2400 Bd lines back to back — the PC pings the gateway
/// through it all, and the gateway loses power in the middle of one
/// frame and finds it again in the middle of the next. 40 chunks, so
/// exit flushes split frames wherever they fall: events and the §3
/// accounting equal the reference stepper's at every chunk end.
#[test]
fn discarded_frames_of_every_kind_match_reference() {
    const CHUNKS: usize = 40;
    let chunk = SimDuration::from_micros(1_513_700);
    let run = |driver: Driver| {
        let cfg = PaperConfig {
            serial_baud: 2400,
            filter: None,
            ..PaperConfig::default()
        };
        let mut s = scenario::paper_topology(cfg, 73);
        let gw_call = s.world.host(s.gw).callsign().expect("radio host");
        let f = common::mixed(gw_call);
        let chan = s.world.channel_mut(s.chan);
        let talker = chan.add_station();
        let times = [7_700, 20_000, 58_000].map(SimTime::from_millis).to_vec();
        let dst = scenario::GW_RADIO_IP;
        s.world
            .add_app(s.pc, Box::new(ScriptedPinger { dst, times, seq: 0 }));
        let mut ends = Vec::new();
        let mut split_frames = 0;
        for k in 0..CHUNKS {
            let w = &mut s.world;
            let now = w.now;
            let on_air = |w: &mut World, frames: &[&[u8]]| {
                common::transmit_chain(w.channel_mut(s.chan), talker, now, frames);
            };
            let gw_mid_frame = |w: &World| {
                let line = w.host_serial_line(s.gw).expect("gw line");
                line.tx_backlog(End::B) > 20
            };
            match k {
                1 => on_air(w, &[&f.other, &f.junk, &f.empty, &f.qst]),
                4 => on_air(w, &[&f.relayed, &f.specials]),
                10 => on_air(w, &[&f.other]),
                11 => {
                    assert!(gw_mid_frame(w), "power goes in the middle of a frame");
                    w.host_mut(s.gw).set_down(true);
                    on_air(w, &[&f.other]);
                }
                12 => {
                    assert!(gw_mid_frame(w), "and comes back in the middle of one");
                    w.host_mut(s.gw).set_down(false);
                }
                18 => on_air(w, &[&f.just_fits]),
                26 => on_air(w, &[&f.oversize]),
                34 => on_air(w, &[&f.qst, &f.junk, &f.relayed, &f.other, &f.empty]),
                37 => on_air(w, &[&f.specials, &f.relayed]),
                _ => {}
            }
            driver.run_for(w, chunk);
            let events: Vec<String> = (w.take_events().iter())
                .map(|(h, t, e)| format!("{h:?} {t} {e:?}"))
                .collect();
            let accounting = [s.pc, s.gw].map(|h| common::char_accounting(w.host(h)));
            ends.push(format!("{accounting:?}\n{}", events.join("\n")));
            split_frames += usize::from(gw_mid_frame(w));
        }
        let gw = s.world.host(s.gw).pr_driver().expect("radio host");
        let (drv, kiss) = (gw.stats(), gw.deframer_stats());
        let sealed_runs = s.world.sched_stats().sealed_runs;
        let fp = fingerprint(
            &mut s.world,
            &[s.pc_tnc, s.gw_tnc],
            &[],
            &[],
            &[s.chan],
            &[s.pc, s.gw, s.ether_host],
        );
        (ends, fp, drv, kiss, split_frames, sealed_runs)
    };
    let (ref_ends, reference, drv, kiss, split_frames, sealed_runs) = run(Driver::Reference);
    assert_eq!(sealed_runs, 0, "the reference stepper never seals");
    // Every kind reached the gateway's driver, and chunk ends split frames.
    assert!(drv.ip_in >= 2 && drv.diverted >= 2, "{drv:?}");
    assert!(drv.not_for_us >= 4 && drv.not_repeated >= 3, "{drv:?}");
    assert!(
        drv.bad_frames >= 3 && kiss.oversize == 1,
        "{drv:?} {kiss:?}"
    );
    assert!(split_frames >= 8, "{split_frames} chunk ends mid-frame");
    let (ends, indexed, _, _, _, sealed_runs) = run(Driver::Indexed);
    for (k, (got, want)) in ends.iter().zip(&ref_ends).enumerate() {
        assert_eq!(got, want, "indexed differs at the end of chunk {k}");
    }
    assert_eq!(indexed, reference, "indexed engine diverged from reference");
    // Both listeners discard most of it, and most of that unseen: the
    // rest are the frames a chunk end or the power cycle split.
    let discarded = 2 * (drv.not_for_us + drv.not_repeated + drv.bad_frames);
    assert!(
        sealed_runs * 10 >= discarded * 6,
        "{sealed_runs} sealed runs for some {discarded} discarded frames"
    );
}

/// An app whose poll raises a stack event synchronously (it aborts its
/// own connection) and whose `on_event` handler answers that event with
/// output of its own.
struct Reactor {
    /// Where the connection goes: nobody there, so it stays half-open.
    silent: Ipv4Addr,
    /// Whom the handler pings.
    dst: Ipv4Addr,
    connect_at: SimTime,
    abort_at: SimTime,
    sock: Option<netstack::stack::SockId>,
    step: u8,
}

impl App for Reactor {
    fn poll(&mut self, now: SimTime, host: &mut Host) {
        if self.step == 0 && self.connect_at <= now {
            self.step = 1;
            self.sock = host
                .stack_op(now, |st| st.tcp_connect(now, self.silent, 9))
                .ok();
        }
        if self.step == 1 && self.abort_at <= now {
            self.step = 2;
            if let Some(sock) = self.sock {
                host.stack_op(now, |st| st.tcp_abort(now, sock));
            }
        }
    }

    fn on_event(&mut self, now: SimTime, event: &StackAction, host: &mut Host) {
        if let StackAction::TcpClosed { reset: true, .. } = event {
            host.stack_op(now, |st| st.ping(self.dst, 0xabcd, 1, 32));
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        match self.step {
            0 => Some(self.connect_at),
            1 => Some(self.abort_at),
            _ => None,
        }
    }
}

/// The half of the wake rule that stays (DESIGN.md §6): the flush after
/// the app step dispatches the abort's `TcpClosed` to the handler, the
/// handler queues a ping, and the host is looked at again in the same
/// instant so the ping leaves then — not whenever the host next wakes.
/// Mutation: a `flush_host` that reports no handler ran leaves the ping in
/// the outbox (the host has no other deadline), the reply never comes, and
/// this is the test that fails.
#[test]
fn output_queued_by_an_event_handler_leaves_in_the_same_instant() {
    let run = |driver: Driver| {
        let cfg = PaperConfig {
            filter: None,
            ..PaperConfig::default()
        };
        let mut s = scenario::paper_topology(cfg, 7);
        s.world.add_app(
            s.ether_host,
            Box::new(Reactor {
                silent: Ipv4Addr::new(128, 95, 1, 77),
                dst: scenario::GW_ETHER_IP,
                connect_at: SimTime::from_secs(1),
                abort_at: SimTime::from_secs(2),
                sock: None,
                step: 0,
            }),
        );
        driver.run_for(&mut s.world, SimDuration::from_secs(5));
        fingerprint(
            &mut s.world,
            &[s.pc_tnc, s.gw_tnc],
            &[],
            &[],
            &[s.chan],
            &[s.pc, s.gw, s.ether_host],
        )
    };
    let reference = run(Driver::Reference);
    assert!(
        reference.contains("PingReply") && reference.contains("id: 43981"),
        "the handler's ping went unanswered:\n{reference}"
    );
    assert_eq!(run(Driver::Indexed), reference);
}
