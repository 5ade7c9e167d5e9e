//! E17 — §4.3 at hostile scale: a spoofed-source flood plus control-plane
//! churn against the gateway while it carries E2-style background load
//! and a legitimate bulk TCP transfer.
//!
//! Three runs:
//!
//! * `baseline`  — filter on, nobody attacking: the reference goodput;
//! * `no filter` — a spoofed UDP flood from the Ethernet side is
//!   forwarded onto the 1200 bit/s radio channel, crushing the transfer
//!   (what an unpoliced 1988 gateway would do);
//! * `filtered`  — the compiled engine drops the flood at the radio
//!   output hook, before ARP and before the channel, while GateOpen/
//!   GateClose churn keeps changing the gate table.
//!
//! Verdict (the ISSUE 9 acceptance bar, both `claim`s): filtered goodput
//! within ±5% of baseline, flood ≥99% dropped.

use apps::bulk::{BulkSender, BulkSink};
use bench::open_config;
use bench::report::Report;
use ether::MacAddr;
use filter::FilterConfig;
use gateway::cpu::CpuConfig;
use gateway::host::EtherIfConfig;
use gateway::scenario::{
    paper_topology, PaperConfig, ETHER_HOST_IP, GW_ETHER_IP, GW_RADIO_IP, PC_IP,
};
use gateway::world::App;
use gateway::{Host, HostConfig};
use netstack::icmp::IcmpMessage;
use netstack::ip::{Ipv4Packet, Proto};
use netstack::route::Prefix;
use radio::csma::MacConfig;
use radio::traffic::BeaconConfig;
use sim::{SimDuration, SimTime};
use std::net::Ipv4Addr;

const BULK_PORT: u16 = 2100;
const BULK_BYTES: usize = 8 * 1024;
const HORIZON_SECS: u64 = 900;
/// One spoofed datagram every 200 ms ≈ 2× the radio channel's capacity
/// once AX.25 overhead is added — enough to bury the transfer.
const FLOOD_INTERVAL: SimDuration = SimDuration::from_millis(200);

/// The attacker: injects UDP datagrams with rotating spoofed sources at
/// the Ethernet host, which dutifully forwards them toward the amateur
/// net. None of the sources ever initiated contact, so a §4.3 gateway
/// must refuse every one.
struct Flood {
    next: SimTime,
    state: u64,
}

impl Flood {
    fn new(start: SimTime) -> Flood {
        Flood {
            next: start,
            state: 0xE17,
        }
    }
}

impl App for Flood {
    fn poll(&mut self, now: SimTime, host: &mut Host) {
        while self.next <= now {
            self.state = self
                .state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // 198.18.0.0/16 (benchmarking range): never amateur, never us.
            let src = Ipv4Addr::from(0xC612_0000 | (self.state >> 32) as u32 & 0xFFFF);
            let mut payload = vec![0u8; 20];
            let udp_len = payload.len() as u16;
            payload[0..2].copy_from_slice(&4242u16.to_be_bytes());
            payload[2..4].copy_from_slice(&2100u16.to_be_bytes());
            payload[4..6].copy_from_slice(&udp_len.to_be_bytes());
            host.inject_ip(
                now,
                Ipv4Packet::new(src, PC_IP, Proto::Udp, payload).encode(),
            );
            self.next += FLOOD_INTERVAL;
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        Some(self.next)
    }
}

struct Outcome {
    goodput_bps: f64,
    completed: bool,
    sink_bytes: usize,
    flood_sent: u64,
    flood_dropped: u64,
    drop_pct: f64,
    radio_tx: u64,
    evals: u64,
    /// Verdict-changing gate and rule mutations
    /// ([`filter::FilterEngine::generation`]).
    mutations: u32,
    gate_denied: u64,
    /// Calendar entries at the end of the run, and components built.
    calendar: (usize, usize),
}

fn attack(flood: bool, filtered: bool) -> Outcome {
    let cfg = PaperConfig {
        filter: filtered.then(FilterConfig::gateway),
        ..open_config()
    };
    let mut s = paper_topology(cfg, 1701);

    // E2-style background chatter on the channel.
    for i in 0..2 {
        s.world.add_beacon(
            s.chan,
            BeaconConfig {
                from: ax25::addr::Ax25Addr::parse_or_panic(&format!("BG{}", i + 1)),
                to: ax25::addr::Ax25Addr::parse_or_panic("CHAT"),
                frame_len: 64,
                mean_interval: SimDuration::from_secs(45),
                start: SimTime::ZERO,
                mac: MacConfig::default(),
            },
        );
    }

    // The legitimate transfer: PC (amateur) pushes a file out — §4.3's
    // "initiated by a licensed amateur", which also opens the gate for
    // the returning ACK stream.
    let sink = BulkSink::new(BULK_PORT);
    let sink_report = sink.report();
    s.world.add_app(s.ether_host, Box::new(sink));
    let sender = BulkSender::new(ETHER_HOST_IP, BULK_PORT, BULK_BYTES)
        .with_start_delay(SimDuration::from_secs(5));
    let send_report = sender.report();
    s.world.add_app(s.pc, Box::new(sender));

    let attacker = if flood {
        // A separate attacker machine on the department Ethernet, so the
        // injection cost never lands on the legitimate sink. It routes
        // its forged datagrams toward the amateur net, so its stack must
        // be willing to forward them.
        let mut atk_cfg = HostConfig::named("attacker");
        atk_cfg.cpu = CpuConfig::free();
        atk_cfg.ether = Some(EtherIfConfig {
            mac: MacAddr::local(66),
            ip: Ipv4Addr::new(128, 95, 1, 66),
            prefix_len: 24,
        });
        let atk = s.world.add_host(atk_cfg);
        s.world.attach_ether(atk, s.seg);
        s.world.host_mut(atk).stack.set_forwarding(true);
        let atk_if = s.world.host(atk).ether_iface().expect("attacker ether");
        s.world
            .host_mut(atk)
            .stack
            .routes_mut()
            .add(Prefix::amprnet(), Some(GW_ETHER_IP), atk_if);
        let f = Flood::new(SimTime::ZERO + SimDuration::from_secs(10));
        s.world.add_app(atk, Box::new(f));
        Some(atk)
    } else {
        None
    };

    // Control-plane churn: the PC's operator keeps opening and closing a
    // pairing for an unrelated station. Each message that lands changes
    // the gate table under the flood, which must still let nothing
    // through.
    let churn_am = Ipv4Addr::new(44, 24, 0, 77);
    let churn_fo = Ipv4Addr::new(198, 18, 0, 1);
    let mut open = true;
    for _ in 0..(HORIZON_SECS / 20) {
        s.world.run_for(SimDuration::from_secs(20));
        let now = s.world.now;
        let msg = if open {
            IcmpMessage::GateOpen {
                amateur: churn_am,
                foreign: churn_fo,
                ttl_secs: 60,
                auth: None,
            }
        } else {
            IcmpMessage::GateClose {
                amateur: churn_am,
                foreign: churn_fo,
                auth: None,
            }
        };
        s.world
            .host_mut(s.pc)
            .send_gate_message(now, GW_RADIO_IP, msg);
        open = !open;
    }

    // However hard the flood re-keyed the gateway, the calendar holds at
    // most one entry per component built above: Figure 1's nine (three
    // hosts, two TNCs, two lines, the channel, the segment), two beacons,
    // two apps, and with the flood the attacker and its app.
    let built = 9 + 2 + 2 + if flood { 2 } else { 0 };
    let calendar = (s.world.calendar_len(), built);

    let sink_bytes = sink_report.borrow().bytes;
    let send = send_report.borrow();
    let completed = send.finished_at.is_some();
    // Completed transfers report their own goodput; a crushed transfer
    // is scored by what trickled into the sink over the whole horizon.
    let goodput = send
        .goodput_bps()
        .unwrap_or(sink_bytes as f64 * 8.0 / HORIZON_SECS as f64);
    let gw = s.world.host(s.gw);
    let drops = gw
        .pr_driver()
        .map(|d| d.stats().filter_drop_out + d.stats().filter_drop_in)
        .unwrap_or(0);
    let fstats = gw.filter_stats().unwrap_or_default();
    // The attacker sends nothing but the flood, so what left its NIC is
    // what it sent.
    let sent = attacker.map_or(0, |atk| {
        let nic = s.world.host(atk).ether_driver().expect("attacker NIC");
        nic.stats().ip_out
    });
    Outcome {
        goodput_bps: goodput,
        completed,
        sink_bytes,
        flood_sent: sent,
        flood_dropped: drops,
        drop_pct: if sent > 0 {
            drops as f64 * 100.0 / sent as f64
        } else {
            0.0
        },
        radio_tx: s.world.channel(s.chan).stats().transmissions,
        evals: fstats.cache_misses,
        mutations: gw.filter_engine().map_or(0, |e| e.generation()),
        gate_denied: fstats.gate_denied,
        calendar,
    }
}

pub fn run(x: &mut Report) {
    x.banner(
        "E17",
        "spoofed-source flood + control churn vs the compiled filter engine",
        "§4.3 at hostile scale: the gate must refuse what no amateur invited, \
         at line rate, without touching what one did",
    );
    x.text(format_args!(
        "({BULK_BYTES}-byte bulk TCP PC→vax2, 2 background beacons, \
         spoofed UDP flood every {:.0} ms, GateOpen/GateClose churn every 20 s, \
         {HORIZON_SECS} s horizon)\n",
        FLOOD_INTERVAL.as_secs_f64() * 1000.0
    ));

    let baseline = attack(false, true);
    let unprotected = attack(true, false);
    let protected = attack(true, true);

    for (name, o) in [
        ("baseline (no flood)", &baseline),
        ("flood, no filter", &unprotected),
        ("flood + filter", &protected),
    ] {
        x.row(&[
            ("config", &name),
            ("goodput_bps", &format_args!("{:.0}", o.goodput_bps)),
            ("done", &if o.completed { "yes" } else { "NO" }),
            ("sink_bytes", &o.sink_bytes),
            ("flood_sent", &o.flood_sent),
            ("flood_dropped", &o.flood_dropped),
            ("drop_%", &format_args!("{:.1}", o.drop_pct)),
            ("radio_tx", &o.radio_tx),
            ("evals", &o.evals),
            ("gate_denied", &o.gate_denied),
            ("gate_mut", &o.mutations),
        ]);
    }
    x.end_table();

    let delta = (protected.goodput_bps / baseline.goodput_bps - 1.0) * 100.0;
    x.text("verdict:");
    x.claim(
        "§4.3",
        "under the flood the filtered gateway's goodput is within ±5 % of the no-flood baseline, and the transfer completes",
        delta.abs() <= 5.0 && protected.completed,
    );
    x.text(format_args!(
        " * filtered goodput {:.0} bps vs baseline {:.0} bps ({delta:+.1}%) — bar: ±5%",
        protected.goodput_bps, baseline.goodput_bps
    ));
    x.claim(
        "§4.3",
        "the filter drops at least 99 % of the spoofed datagrams sent (what no amateur invited)",
        protected.flood_sent > 0 && protected.drop_pct >= 99.0,
    );
    x.text(format_args!(
        " * flood drop rate {:.1}% ({} of {}) — bar: ≥99%",
        protected.drop_pct, protected.flood_dropped, protected.flood_sent
    ));
    x.claim(
        "§4.3",
        "an unpoliced gateway forwards the flood onto the 1200 bit/s channel: at least twice the baseline's radio transmissions, under half its goodput, and the transfer never finishes",
        unprotected.radio_tx >= 2 * baseline.radio_tx
            && unprotected.goodput_bps < 0.5 * baseline.goodput_bps
            && !unprotected.completed,
    );
    x.claim(
        "DESIGN.md §13",
        "the gate table changes at least 40 times under the 45 gate messages, the flooded filter judges more packets than the baseline's, and the radio channel carries no more transmissions than the baseline's",
        protected.mutations >= 40
            && protected.evals > baseline.evals
            && protected.radio_tx <= baseline.radio_tx,
    );
    // However hard the flood re-keyed the gateway, the calendar holds at
    // most one entry per component built.
    x.claim(
        "DESIGN.md §6",
        "in all three runs the world's calendar ends with no more entries than components were built (13, or 15 with the attacker)",
        [&baseline, &unprotected, &protected]
            .iter()
            .all(|o| o.calendar.0 <= o.calendar.1),
    );
    x.text("expected shape:");
    x.text(" * 'flood, no filter' forwards every spoofed datagram onto the 1200 bit/s");
    x.text("   channel (radio_tx balloons) and the transfer never finishes;");
    x.text(" * 'flood + filter' drops the flood at the radio output hook — before ARP,");
    x.text("   before the channel — so radio_tx and goodput match the baseline;");
    x.text(" * gate_mut counts the churn: every GateOpen/GateClose that lands opens or");
    x.text("   closes an entry, and the next packet sees the new table as it is;");
    x.text(" * evals counts every packet judged: each spoofed datagram pays the gate");
    x.text("   check (gate_denied) and the rule walk is never reached for it.");
}
