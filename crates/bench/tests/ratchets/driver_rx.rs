//! The paper's "most difficult routine" and the world around it: the
//! receive interrupt handler (`rint`) over a full frame — the work the
//! gateway's CPU does for every frame a promiscuous TNC passes up
//! (§2.2/§3) — and the whole-world paths built on it.
//!
//! The not-for-us fast path (the §3 promiscuous load) performs zero heap
//! allocations, and so does a busy duplex serial line under both engines'
//! calling conventions (one character at a time, and whole runs). A radio transmission costs no allocation
//! at all, however many promiscuous stations hear it (one traded buffer,
//! one FCS check, one KISS encoding, shared), and neither does an ARP
//! exchange on either driver: addresses are inline values and every frame
//! is built in a buffer of the host's pool. The whole-world transit paths
//! — Ethernet host → segment → gateway → forward → output hook, and
//! Ethernet host → router → Ethernet host — allocate only where the sender
//! builds its datagram; their counts per datagram, and a mesh fleet's, are
//! pinned so they can only ratchet down. Re-entering a world nobody touched since
//! its last run call is: no allocation, and no poll beyond its apps.

use crate::allocs_during;
use ax25::addr::Ax25Addr;
use ax25::frame::{Frame, Pid};
use ether::{EtherFrame, MacAddr};
use gateway::etherdrv::EtherDriver;
use gateway::host::{EtherIfConfig, HostConfig, RadioIfConfig};
use gateway::prdriver::{PacketRadioDriver, PrConfig, PrEvent};
use gateway::scenario::{self, PaperConfig};
use gateway::world::{ChanId, HostId, World};
use netstack::ip::{Ipv4Packet, Proto};
use netstack::pool::DgramPool;
use netstack::route::Prefix;
use radio::csma::MacConfig;
use radio::tnc::RxMode;
use radio::traffic::BeaconConfig;
use serial::{End, SerialConfig, SerialLine};
use sim::{Bandwidth, SimDuration, SimTime};
use std::borrow::Cow;
use std::hint::black_box;
use std::net::Ipv4Addr;

fn wire_for(dest: &str, payload_len: usize) -> Vec<u8> {
    let ip = Ipv4Packet::new(
        Ipv4Addr::new(44, 24, 0, 5),
        Ipv4Addr::new(44, 24, 0, 28),
        Proto::Udp,
        vec![0x33; payload_len],
    );
    let frame = Frame::ui(
        Ax25Addr::parse_or_panic(dest),
        Ax25Addr::parse_or_panic("KB7DZ"),
        Pid::Ip,
        ip.encode(),
    );
    kiss::encode(0, kiss::Command::Data, &frame.encode())
}

/// Steady state: one long-lived driver and its reusable tty output queue,
/// so the count covers the per-frame cost and not driver setup.
#[test]
fn rint_frame_for_other() {
    let wire = wire_for("W1GOH", 180);
    let mut drv = PacketRadioDriver::new(
        PrConfig::new(Ax25Addr::parse_or_panic("N7AKR-1")),
        Ipv4Addr::new(44, 24, 0, 28),
    );
    let mut pool = DgramPool::new();
    let mut rint = || {
        drv.rint(SimTime::ZERO, &wire, &mut pool, None, |_, ev| {
            black_box(ev);
        });
        drv.tty_outq().clear();
    };
    rint(); // sizes the deframer's frame buffer
    let allocs = allocs_during(rint);
    eprintln!("driver_rint/frame_for_other: {allocs} heap allocations per frame");
    assert_eq!(
        allocs, 0,
        "the not-for-us fast path must not touch the heap"
    );
}

/// A serial line with both directions busy at once. One frame each way
/// per iteration, delivered the way the Scan oracle does it (`advance` +
/// `drain_rx`, one visit per character) and the way the indexed engine
/// does it (`take_run`, one visit per run).
#[test]
fn serial_clean_duplex() {
    let up = wire_for("W1GOH", 180);
    let down = wire_for("N7AKR-1", 60);
    let mut line = SerialLine::new(SerialConfig::baud(9600));
    let mut buf = Vec::new();
    let mut now = SimTime::ZERO;
    // Sealed, as the indexed engine sends up a line: a receiver that never
    // takes a run leaves the seals behind, and they must pile up nowhere.
    let seal = serial::Seal([7; 8]);
    let mut scan_style = |line: &mut SerialLine, now: &mut SimTime| {
        line.send_sealed(*now, End::B, &up, seal);
        line.send(*now, End::A, &down);
        while let Some(t) = line.next_deadline() {
            *now = t;
            line.advance(t);
            black_box(line.drain_rx(End::A, &mut buf));
            black_box(line.drain_rx(End::B, &mut buf));
        }
    };
    scan_style(&mut line, &mut now); // sizes the line queues and `buf`
    let allocs = allocs_during(|| scan_style(&mut line, &mut now));
    eprintln!("serial_clean_duplex/advance_drain: {allocs} heap allocations per frame pair");
    assert_eq!(allocs, 0, "per-character delivery must not touch the heap");
    let mut run_style = |line: &mut SerialLine, now: &mut SimTime| {
        line.send_sealed(*now, End::B, &up, seal);
        line.send(*now, End::A, &down);
        while let Some(t) = line.next_boundary() {
            *now = t;
            while line.take_run(End::A, t, &mut buf, |_| true).is_some() {
                black_box(&buf);
            }
            while line.take_run(End::B, t, &mut buf, |_| false).is_some() {
                black_box(&buf);
            }
        }
    };
    run_style(&mut line, &mut now);
    let allocs = allocs_during(|| run_style(&mut line, &mut now));
    eprintln!("serial_clean_duplex/take_run: {allocs} heap allocations per frame pair");
    assert_eq!(allocs, 0, "run delivery must not touch the heap");
}

/// Heap allocations per radio transmission, whole world, in steady state:
/// none. The beacon builds its frame in the buffer the channel traded it
/// for its last one (1 before buffers were traded). Hearing it is free —
/// the on-air bytes move out of the channel once, the FCS is checked once,
/// the header is peeked once, the KISS encoding is made once into a
/// reused buffer and sent up every listener's line under one seal, and a
/// host that drops the frame as not-for-us takes the seal for the bytes
/// and never touches the heap. Never raise it.
const FANOUT_ALLOCS_PER_TRANSMISSION: u64 = 0;

/// One chattering station on a channel with `listeners` promiscuous TNCs,
/// each on its own serial line to its own host; nobody is addressed.
fn fanout_world(listeners: usize) -> (World, ChanId, Vec<HostId>) {
    let mut w = World::new(7);
    let chan = w.add_channel(Bandwidth::RADIO_1200);
    let mac = MacConfig::default();
    let mut hosts = Vec::new();
    for i in 0..listeners {
        let mut cfg = HostConfig::named(&format!("h{i}"));
        cfg.radio = Some(RadioIfConfig {
            call: Ax25Addr::parse_or_panic(&format!("LSN{i}")),
            ip: Ipv4Addr::new(44, 24, 1, i as u8 + 1),
            prefix_len: 16,
        });
        let h = w.add_host(cfg);
        w.attach_radio(h, chan, 9600, RxMode::Promiscuous, mac);
        hosts.push(h);
    }
    w.add_beacon(
        chan,
        BeaconConfig {
            from: Ax25Addr::parse_or_panic("BG1"),
            to: Ax25Addr::parse_or_panic("CHAT"),
            frame_len: 120,
            mean_interval: SimDuration::from_secs(4),
            start: SimTime::ZERO,
            mac,
        },
    );
    (w, chan, hosts)
}

#[test]
fn radio_fanout_4_and_16_listeners() {
    let mut per_tx = Vec::new();
    for listeners in [4usize, 16] {
        let (mut w, chan, hosts) = fanout_world(listeners);
        // Warm-up: line queues, the calendar, scratch buffers.
        w.run_for(SimDuration::from_secs(200));
        let before = w.channel(chan).stats();
        let (sealed0, discarded0) = (w.sched_stats().sealed_runs, discarded(&w, &hosts));
        let allocs = allocs_during(|| w.run_for(SimDuration::from_secs(2_000)));
        let after = w.channel(chan).stats();
        let txs = after.transmissions - before.transmissions;
        assert!(txs > 300, "{txs} transmissions");
        assert_eq!(
            after.clean_receptions - before.clean_receptions,
            txs * listeners as u64,
            "every listener hears every transmission"
        );
        eprintln!(
            "radio_fanout/{listeners}_listeners: {allocs} heap allocations / {txs} transmissions"
        );
        assert!(
            allocs <= FANOUT_ALLOCS_PER_TRANSMISSION * txs,
            "fan-out regressed: {allocs} allocations / {txs} transmissions \
             (bound {FANOUT_ALLOCS_PER_TRANSMISSION} each)"
        );
        per_tx.push((allocs, txs));
        // Judge once: falling back to bytes is always correct, so only
        // this count shows it happening. (A run call that ends inside a
        // frame splits it; two calls here, so next to none.)
        let sealed = w.sched_stats().sealed_runs - sealed0;
        let discarded = discarded(&w, &hosts) - discarded0;
        assert_eq!(discarded, txs * listeners as u64, "nobody is addressed");
        eprintln!("radio_fanout/{listeners}_listeners: {sealed} sealed runs / {discarded} discarded frames");
        assert!(
            sealed * 100 >= discarded * 99,
            "{sealed} sealed runs for {discarded} discarded frames"
        );
    }
    assert_eq!(
        per_tx[0], per_tx[1],
        "allocations per transmission must not depend on who listens"
    );
    // The reference stepper delivers per character: nothing to seal.
    let (mut w, _, hosts) = fanout_world(4);
    w.run_until_reference(SimTime::from_secs(200));
    assert!(discarded(&w, &hosts) > 100);
    assert_eq!(w.sched_stats().sealed_runs, 0);
}

/// Frames the listeners of a [`fanout_world`] counted and dropped.
fn discarded(w: &World, hosts: &[HostId]) -> u64 {
    let not_for_us = |&h: &HostId| {
        w.host(h)
            .pr_driver()
            .expect("radio host")
            .stats()
            .not_for_us
    };
    hosts.iter().map(not_for_us).sum()
}

/// Heap allocations per datagram on the gw_flood transit path that ends
/// in a deny: an unsolicited Ethernet-side datagram crosses the segment,
/// the gateway's stack forwards it, and the §4.3 gate drops it at the
/// radio driver's output hook. Counted over the whole world (sender
/// included) in steady state: the sender's payload and its UDP encoding
/// (3 before the encoder left room for the IP header). The bound is the
/// measured count — lower it when the path gets leaner, never raise it.
const DENIED_TRANSIT_ALLOCS_PER_DATAGRAM: u64 = 2;

#[test]
fn world_denied_transit() {
    let mut s = scenario::paper_topology(PaperConfig::default(), 5);
    let udp = s
        .world
        .host_mut(s.ether_host)
        .stack
        .sock_bind_udp(4000)
        .expect("free port");
    let flood = |s: &mut scenario::PaperScenario, n: u64| {
        for _ in 0..n {
            let now = s.world.now;
            s.world
                .host_mut(s.ether_host)
                .stack_op(now, |st| {
                    st.sock_send_to(udp, scenario::PC_IP, 9, vec![0; 20])
                })
                .unwrap();
            s.world.run_for(SimDuration::from_millis(5));
        }
    };
    // Warm-up: ARP for the gateway, buffer pools, queue capacities.
    flood(&mut s, 64);
    let denied_so_far = |s: &scenario::PaperScenario| {
        let drv = s.world.host(s.gw).pr_driver().expect("gateway radio");
        drv.stats().filter_drop_out
    };
    let denied0 = denied_so_far(&s);
    const N: u64 = 1_000;
    let allocs = allocs_during(|| flood(&mut s, N));
    assert_eq!(
        denied_so_far(&s) - denied0,
        N,
        "every datagram must be forwarded and then denied"
    );
    eprintln!(
        "world/denied_transit: {:.2} heap allocations per datagram",
        allocs as f64 / N as f64
    );
    assert!(
        allocs <= DENIED_TRANSIT_ALLOCS_PER_DATAGRAM * N,
        "denied transit regressed: {allocs} allocations / {N} datagrams \
         (bound {DENIED_TRANSIT_ALLOCS_PER_DATAGRAM} each)"
    );
}

/// Heap allocations per datagram forwarded Ethernet → router → Ethernet
/// and delivered to a bound UDP socket, whole world, steady state. Both
/// are the sender's (its payload and the UDP encoding, born with room for
/// the IP header — 3 when that room was a reallocation): the router and
/// the receiver own the buffer the segment hands them and parse, forward
/// and deliver it in place (DESIGN.md §6, datapath buffer contract). The
/// bound is the measured count — lower it when the path gets leaner,
/// never raise it.
const ETHER_FORWARD_ALLOCS_PER_DATAGRAM: u64 = 2;

#[test]
fn world_ether_forward() {
    // One segment, three hosts: `a` reaches `b`'s address only through
    // the router, which forwards back out of the NIC the frame came in on
    // (a `Host` carries one Ethernet interface).
    let ether_host = |name: &str, n: u8, ip: Ipv4Addr| {
        let mut cfg = HostConfig::named(name);
        cfg.ether = Some(EtherIfConfig {
            mac: MacAddr::local(u16::from(n)),
            ip,
            prefix_len: 24,
        });
        cfg
    };
    let (a_ip, r_ip) = (Ipv4Addr::new(10, 1, 0, 1), Ipv4Addr::new(10, 1, 0, 254));
    let b_ip = Ipv4Addr::new(10, 2, 0, 1);
    let mut w = World::new(5);
    // Nobody reads the event log here; left on, its growth would be the
    // only allocation that is not per datagram.
    w.record_events = false;
    let seg = w.add_segment(Bandwidth::ETHERNET_10M);
    let a = w.add_host(ether_host("a", 1, a_ip));
    let mut r_cfg = ether_host("router", 2, r_ip);
    r_cfg.stack.forwarding = true;
    let r = w.add_host(r_cfg);
    let b = w.add_host(ether_host("b", 3, b_ip));
    for h in [a, r, b] {
        w.attach_ether(h, seg);
    }
    let via = |w: &mut World, h, prefix: Prefix, gw: Option<Ipv4Addr>| {
        let ifid = w.host(h).ether_iface().expect("ether host");
        w.host_mut(h).stack.routes_mut().add(prefix, gw, ifid);
    };
    via(&mut w, a, Prefix::new(b_ip, 24), Some(r_ip));
    via(&mut w, r, Prefix::new(b_ip, 24), None);
    let tx = w.host_mut(a).stack.sock_bind_udp(4000).expect("free port");
    let rx = w.host_mut(b).stack.sock_bind_udp(9).expect("free port");
    let send = |w: &mut World, n: u64| {
        for _ in 0..n {
            let now = w.now;
            w.host_mut(a)
                .stack_op(now, |st| st.sock_send_to(tx, b_ip, 9, vec![0; 20]))
                .unwrap();
            w.run_for(SimDuration::from_millis(5));
            let got = w
                .host_mut(b)
                .stack
                .sock_recv_from(rx, |from, _, data| from == a_ip && data.len() == 20);
            assert_eq!(got, Ok(true));
        }
    };
    // Warm-up: both ARP exchanges, buffer pools, queue capacities.
    send(&mut w, 64);
    const N: u64 = 1_000;
    let forwarded0 = w.host(r).stack.stats().forwarded;
    let allocs = allocs_during(|| send(&mut w, N));
    assert_eq!(w.host(r).stack.stats().forwarded - forwarded0, N);
    eprintln!(
        "world/ether_forward: {:.2} heap allocations per datagram",
        allocs as f64 / N as f64
    );
    assert!(
        allocs <= ETHER_FORWARD_ALLOCS_PER_DATAGRAM * N,
        "Ethernet forwarding regressed: {allocs} allocations / {N} datagrams \
         (bound {ETHER_FORWARD_ALLOCS_PER_DATAGRAM} each)"
    );
}

/// Heap allocations per round trip of a warm TCP echo between the hosts
/// of two islands (`mesh_with(2, 1, …)`), whole world: every segment goes
/// host → radio → gateway → IPIP tunnel across the backbone, a shard
/// boundary → gateway → radio → host, and its answer comes back the same
/// way. Each datagram is born once in a buffer of its host's pool,
/// crosses the shard boundary in a circulating frame while the sending
/// gateway gets its buffer back, and lands in a buffer of the receiving
/// gateway's pool; both readers keep their buffers (DESIGN.md §6, born
/// once, traded after). So once warm nothing allocates — when the
/// tunnelled buffer itself crossed, the gateway that sent drained its pool
/// into the pool of the one that received, and its radio copies allocated
/// (208 allocations per 50 round trips).
#[test]
fn world_tunnel_echo() {
    let mut m = scenario::mesh_with(2, 1, 5, scenario::MeshOptions::default());
    m.world.record_events = false;
    let (client, server) = (m.hosts[0][0], m.hosts[1][0]);
    let server_ip = scenario::city::host_ip(1, 0);
    let listener = (m.world.host_mut(server).stack)
        .sock_listen(7, None)
        .expect("free port");
    let now = m.world.now;
    let conn = m
        .world
        .host_mut(client)
        .stack_op(now, |st| st.sock_connect(now, server_ip, 7))
        .expect("connect");
    m.world.run_for(SimDuration::from_secs(30));
    let session = (m.world.host_mut(server).stack)
        .sock_accept(listener)
        .expect("accepted");
    const LINE: &[u8] = b"cq de n7akr";
    let (mut heard, mut echoed) = (Vec::new(), Vec::new());
    // Runs `w` a second at a time until `h` on `host` has read `LINE`
    // into `buf`.
    let read_line = |w: &mut World, host: HostId, h, buf: &mut Vec<u8>| {
        buf.clear();
        for _ in 0..60 {
            w.run_for(SimDuration::from_secs(1));
            let now = w.now;
            let _ = w
                .host_mut(host)
                .stack_op(now, |st| st.sock_recv(now, h, buf));
            if buf.len() >= LINE.len() {
                assert_eq!(buf, LINE);
                return;
            }
        }
        panic!("no echo within a minute");
    };
    let mut echo = |w: &mut World, rounds: u64| {
        for _ in 0..rounds {
            let now = w.now;
            let sent = w
                .host_mut(client)
                .stack_op(now, |st| st.sock_send(now, conn, LINE));
            assert_eq!(sent, Ok(LINE.len()));
            read_line(w, server, session, &mut heard);
            let now = w.now;
            let sent = w
                .host_mut(server)
                .stack_op(now, |st| st.sock_send(now, session, &heard));
            assert_eq!(sent, Ok(LINE.len()));
            read_line(w, client, conn, &mut echoed);
        }
    };
    // Warm-up: ARP on both radios and the backbone, pools, circulating
    // frames, line and channel buffers.
    echo(&mut m.world, 16);
    let tunnelled = |w: &World| w.host(m.gateways[1]).stack.stats().ip_in;
    let in0 = tunnelled(&m.world);
    const N: u64 = 50;
    let allocs = allocs_during(|| echo(&mut m.world, N));
    assert!(
        tunnelled(&m.world) - in0 >= 2 * N,
        "the echoes crossed the tunnel"
    );
    eprintln!("world/tunnel_echo: {allocs} heap allocations / {N} round trips");
    assert_eq!(
        allocs, 0,
        "a warm tunnelled round trip must not allocate ({allocs} / {N} round trips)"
    );
}

/// Re-entering a world nobody touched (DESIGN.md §6, run-call contract):
/// on a warm 8×4 mesh, 100 run calls over an idle stretch allocate nothing
/// and poll only the apps — not every line, channel, TNC and host of all
/// eight islands, which is what a full sync per call would visit.
#[test]
fn world_reentry() {
    const GATEWAYS: usize = 8;
    const HOSTS_PER_GW: usize = 4;
    let mut m = scenario::mesh(GATEWAYS, HOSTS_PER_GW, 16);
    for g in 0..GATEWAYS {
        for i in 0..HOSTS_PER_GW {
            let dst = scenario::city::host_ip((g + 1) % GATEWAYS, i);
            let id = (g * HOSTS_PER_GW + i) as u16;
            let ping = apps::ping::Pinger::new(dst, id, 3, SimDuration::from_secs(20), 64)
                .delayed(SimDuration::from_millis(977 * u64::from(id)));
            m.world.add_app(m.hosts[g][i], Box::new(ping));
        }
    }
    // Warm-up: every ping answered or given up on, every buffer sized.
    m.world.run_for(SimDuration::from_secs(600));
    const CALLS: u64 = 100;
    let idle = |w: &mut World| {
        for _ in 0..CALLS {
            w.run_for(SimDuration::from_millis(10));
        }
    };
    let polled0 = m.world.sched_stats().polled;
    let allocs = allocs_during(|| idle(&mut m.world));
    let polled = m.world.sched_stats().polled - polled0;
    eprintln!("world/reentry: {allocs} heap allocations, {polled} polls / {CALLS} run calls");
    assert_eq!(
        allocs, 0,
        "re-entering an untouched world must not allocate"
    );
    // Per call: every app, its host's flush, one pass per shard.
    let apps = (GATEWAYS * HOSTS_PER_GW) as u64;
    assert!(
        polled <= CALLS * (apps + apps + GATEWAYS as u64),
        "{polled} polls over {CALLS} idle run calls"
    );
}

/// An ARP round trip allocates nothing on either driver (DESIGN.md §6,
/// born once, traded after): a datagram for an unresolved neighbour is
/// held, the who-has goes out, the neighbour learns the asker and answers,
/// the answer is learned and releases the datagram, and the neighbour
/// receives it — with hardware addresses inline in the packet and the
/// cache, the held datagram moved not boxed, and every frame built in a
/// buffer an earlier one left behind. Each round starts after the cache
/// entries have expired, so every step really happens every time.
#[test]
fn arp_exchange_allocates_nothing() {
    const WARM: usize = 4;
    const ROUNDS: usize = 64;
    let (a_ip, b_ip) = (Ipv4Addr::new(44, 24, 0, 28), Ipv4Addr::new(44, 24, 0, 5));
    // The datagrams exist before anything is counted, born the way the
    // stack bears them: with room for their header.
    let datagrams = |n: usize| -> Vec<Ipv4Packet> {
        let udp = netstack::udp::UdpDatagram {
            src_port: 4000,
            dst_port: 9,
            payload: vec![0x33; 48],
        };
        (0..n)
            .map(|_| Ipv4Packet::new(a_ip, b_ip, Proto::Udp, udp.encode(a_ip, b_ip)))
            .collect()
    };
    let stale = SimDuration::from_secs(21 * 60);

    // --- The packet radio driver, serial bytes between two stations. ---
    // Each station lends its driver its own pool, as its host would; each
    // driver queues for its serial line in its own tty output queue.
    let station =
        |call: &str, ip| PacketRadioDriver::new(PrConfig::new(Ax25Addr::parse_or_panic(call)), ip);
    let (mut a, mut b) = (station("N7AKR-1", a_ip), station("KB7DZ", b_ip));
    let (mut a_pool, mut b_pool) = (DgramPool::new(), DgramPool::new());
    let mut now = SimTime::ZERO;
    let mut delivered = 0usize;
    let mut radio_round = |packet: Ipv4Packet| {
        now += stale;
        a.output(now, packet, b_ip, &mut a_pool, None);
        // Each hop: what one station queued for its serial line reaches
        // the other's receive interrupt handler.
        for hop in 0..3 {
            let (from, to, to_pool) = if hop % 2 == 0 {
                (&mut a, &mut b, &mut b_pool)
            } else {
                (&mut b, &mut a, &mut a_pool)
            };
            let mut up = None;
            // The line takes the queue's bytes; the queue keeps its buffer.
            let line = std::mem::take(from.tty_outq());
            to.rint(now, &line, to_pool, None, |_, ev| up = Some(ev));
            *from.tty_outq() = line;
            from.tty_outq().clear();
            if let Some(PrEvent::IpPacket(datagram)) = up {
                // What the host does once its stack is done with it.
                delivered += 1;
                to_pool.give(datagram);
            }
        }
    };
    datagrams(WARM).into_iter().for_each(&mut radio_round);
    let counted = datagrams(ROUNDS);
    let allocs = allocs_during(|| counted.into_iter().for_each(&mut radio_round));
    assert_eq!(delivered, WARM + ROUNDS, "every held datagram arrived");
    let (sa, sb) = (a.arp().stats(), b.arp().stats());
    assert_eq!(
        sa.requests_sent as usize,
        WARM + ROUNDS,
        "asked every round"
    );
    assert_eq!(
        sb.replies_sent as usize,
        WARM + ROUNDS,
        "answered every round"
    );
    eprintln!("arp_exchange/radio: {allocs} heap allocations / {ROUNDS} round trips");
    assert_eq!(allocs, 0, "an AX.25 ARP round trip must not touch the heap");

    // --- The Ethernet driver, frames handed over between two NICs. ---
    let (a_mac, b_mac) = (MacAddr::local(1), MacAddr::local(2));
    let mut a = EtherDriver::new(a_mac, a_ip);
    let mut b = EtherDriver::new(b_mac, b_ip);
    let (mut a_pool, mut b_pool) = (DgramPool::new(), DgramPool::new());
    // The segment's hand: drivers swap their queued frames into it.
    let mut wire: Vec<EtherFrame> = Vec::new();
    let mut delivered = 0usize;
    let mut ether_round = |packet: Ipv4Packet| {
        now += stale;
        a.output(now, packet, b_ip, &mut a_pool);
        for hop in 0..3 {
            let (from, to, to_pool) = if hop % 2 == 0 {
                (&mut a, &mut b, &mut b_pool)
            } else {
                (&mut b, &mut a, &mut a_pool)
            };
            from.swap_outbox(&mut wire);
            for frame in wire.drain(..) {
                if let Some(datagram) = to.input(now, Cow::Owned(frame), to_pool) {
                    delivered += 1;
                    to_pool.give(datagram);
                }
            }
        }
    };
    datagrams(WARM).into_iter().for_each(&mut ether_round);
    let counted = datagrams(ROUNDS);
    let allocs = allocs_during(|| counted.into_iter().for_each(&mut ether_round));
    assert_eq!(delivered, WARM + ROUNDS, "every held datagram arrived");
    eprintln!("arp_exchange/ether: {allocs} heap allocations / {ROUNDS} round trips");
    assert_eq!(
        allocs, 0,
        "an Ethernet ARP round trip must not touch the heap"
    );
}

/// Heap allocations per IP datagram the hosts of an 8×4 mesh originate
/// under a closed-loop fleet (`workload::deploy`: typists, echoes, file
/// fetches and DNS lookups, every session crossing two gateways and a
/// tunnel), whole world, after warm-up — what is left when addresses are
/// inline, headers find their room, TCP encodes straight from its send
/// buffer into a buffer of its host's pool, received datagrams land in
/// pool buffers, frames cross shard boundaries in circulating buffers
/// and readers keep theirs: datagrams copied while a burst waiting for
/// the CPU has the pool dry, TNCs building a frame with no traded buffer
/// at hand, the TCP machine's queues as connections come and go,
/// fragments, UDP encodings, and the apps' own strings and payloads.
/// Measured 0.41 (1.01 with the tunnelled buffer itself crossing and a
/// fresh `Vec` per TCP read, 4.53 before, 9.52 before that); the bound is
/// that, rounded up to the next tenth — lower it when the path gets
/// leaner, never raise it.
const MESH_FLEET_ALLOCS_PER_DATAGRAM_X10: u64 = 5;

#[test]
fn mesh_fleet_allocs_per_datagram() {
    let mut m = scenario::mesh(8, 4, 1988);
    m.world.record_events = false;
    let spec = workload::FleetSpec {
        sessions_per_client: 400,
        ..workload::FleetSpec::default()
    };
    let _fleet = workload::deploy(&mut m, &spec);
    let originated = |m: &scenario::MeshNet| -> u64 {
        m.iter_hosts()
            .map(|(_, _, h, _)| m.world.host(h).stack.stats().ip_out)
            .sum()
    };
    // Warm-up: ARP, routes, line queues, pools, every app's first session.
    m.world.run_for(SimDuration::from_secs(600));
    let before = originated(&m);
    let allocs = allocs_during(|| m.world.run_for(SimDuration::from_secs(1_200)));
    let datagrams = originated(&m) - before;
    assert!(datagrams > 1_000, "{datagrams} datagrams originated");
    eprintln!(
        "mesh_fleet: {allocs} heap allocations / {datagrams} IP datagrams originated = {:.2}",
        allocs as f64 / datagrams as f64
    );
    assert!(
        allocs * 10 <= MESH_FLEET_ALLOCS_PER_DATAGRAM_X10 * datagrams,
        "mesh fleet regressed: {allocs} allocations / {datagrams} datagrams \
         (bound {}.{} each)",
        MESH_FLEET_ALLOCS_PER_DATAGRAM_X10 / 10,
        MESH_FLEET_ALLOCS_PER_DATAGRAM_X10 % 10
    );
}
