//! E2 — §3 ¶2: "the gateway slows considerably as traffic on the packet
//! radio subnet climbs. Part of the reason for this is that the present
//! code running inside the TNC passes every packet it receives to the
//! packet radio driver regardless of the destination address."
//!
//! Background stations load the channel while the PC pings through the
//! gateway. For each offered load we run the gateway's TNC both
//! promiscuous (stock 1988) and address-filtered (the paper's proposed
//! fix), reporting:
//!
//! * the RTT of the gateway's own traffic (rises with load — the
//!   "slows considerably" part; mostly channel contention);
//! * the characters and packets the gateway host is forced to process
//!   (the interrupt-load part the filter eliminates);
//! * the gateway CPU utilization attributable to the radio port.

use apps::ping::Pinger;
use ax25::addr::Ax25Addr;
use bench::open_config;
use bench::report::{Num, Report};
use gateway::scenario::{paper_topology, PaperConfig, ETHER_HOST_IP};
use radio::csma::MacConfig;
use radio::tnc::RxMode;
use radio::traffic::BeaconConfig;
use sim::{SimDuration, SimTime};

struct Outcome {
    rtt_ms: f64,
    p95_ms: f64,
    delivered: u32,
    gw_chars: u64,
    gw_packets: u64,
    gw_cpu_pct: f64,
    filtered: u64,
    /// Offered airtime / wall clock — can exceed 1.0 under contention.
    offered_load: f64,
    /// Occupied airtime (union of transmissions) / wall clock — clamped.
    channel_util: f64,
    sched: sim::SchedStats,
}

fn measure(mode: RxMode, stations: usize) -> Outcome {
    let cfg = PaperConfig {
        // Everything starts as stock 1988 promiscuous firmware; the
        // filtered variant is switched on at runtime below, exercising
        // Tnc::set_mode — the deployable form of the fix.
        tnc_mode: RxMode::Promiscuous,
        // TNC-2-era serial: barely above the channel rate, so unwanted
        // promiscuous traffic competes with wanted frames on the RS-232.
        serial_baud: 2400,
        ..open_config()
    };
    let mut s = paper_topology(cfg, 2000 + stations as u64);
    if mode == RxMode::AddressFilter {
        s.world.tnc_mut(s.gw_tnc).set_mode(RxMode::AddressFilter);
    }
    for i in 0..stations {
        s.world.add_beacon(
            s.chan,
            BeaconConfig {
                from: Ax25Addr::parse_or_panic(&format!("BG{}", i + 1)),
                to: Ax25Addr::parse_or_panic("CHAT"),
                frame_len: 120,
                mean_interval: SimDuration::from_secs(8),
                start: SimTime::ZERO,
                mac: MacConfig::default(),
            },
        );
    }
    let pinger = Pinger::new(ETHER_HOST_IP, 1, 20, SimDuration::from_secs(60), 32);
    let report = pinger.report();
    s.world.add_app(s.pc, Box::new(pinger));
    let horizon = SimDuration::from_secs(1500);
    s.world.run_for(horizon);

    let mut r = report.borrow_mut();
    let gw = s.world.host(s.gw);
    Outcome {
        rtt_ms: r.rtts.mean().map(|d| d.as_millis_f64()).unwrap_or(f64::NAN),
        p95_ms: r
            .rtts
            .quantile(0.95)
            .map(|d| d.as_millis_f64())
            .unwrap_or(f64::NAN),
        delivered: r.received,
        gw_chars: gw.cpu.stats().char_interrupts,
        gw_packets: gw.cpu.stats().packets,
        gw_cpu_pct: gw.cpu.utilization(s.world.now) * 100.0,
        filtered: s.world.tnc(s.gw_tnc).stats().filtered,
        offered_load: s.world.channel(s.chan).offered_utilization(s.world.now),
        channel_util: s.world.channel(s.chan).utilization(s.world.now),
        sched: s.world.sched_stats(),
    }
}

pub fn run(x: &mut Report) {
    x.banner(
        "E2",
        "gateway under promiscuous subnet load vs TNC address filtering",
        "\"the gateway slows considerably as traffic on the packet radio subnet \
         climbs\" because the TNC \"passes every packet it receives\" (§3)",
    );
    x.text("(20 pings PC→vax2, 25 min of background chatter per point; serial 2400 Bd)\n");

    let mut points = Vec::new();
    for stations in [0usize, 2, 4, 6, 8, 12] {
        let p = measure(RxMode::Promiscuous, stations);
        let f = measure(RxMode::AddressFilter, stations);
        x.row(&[
            ("bg_stations", &format_args!("{:.2}", stations as f64)),
            ("offered_load_%", &Num(p.offered_load * 100.0)),
            ("chan_util_%", &Num(p.channel_util * 100.0)),
            ("rtt_prom_ms", &Num(p.rtt_ms)),
            ("rtt_filt_ms", &Num(f.rtt_ms)),
            ("p95_prom_ms", &Num(p.p95_ms)),
            ("ok_prom", &p.delivered),
            ("gw_chars_prom", &p.gw_chars),
            ("gw_chars_filt", &f.gw_chars),
            (
                "chars_saved_%",
                &Num((1.0 - f.gw_chars as f64 / (p.gw_chars as f64).max(1.0)) * 100.0),
            ),
            ("gw_cpu_prom_%", &Num(p.gw_cpu_pct)),
            ("gw_cpu_filt_%", &Num(f.gw_cpu_pct)),
            ("tnc_filtered", &f.filtered),
            ("gw_pkts_prom", &p.gw_packets),
            ("sched_pops", &p.sched.pops),
            ("sched_rekeys", &p.sched.rekeys),
            ("sched_skips", &p.sched.tombstone_skips),
            ("sched_polls", &p.sched.polled),
            ("sched_instants", &p.sched.instants),
            ("sched_batched", &p.sched.batched_chars),
        ]);
        points.push((p, f));
    }
    x.end_table();
    x.text("expected shape:");
    x.text(" * rtt rises steeply with load in BOTH modes (channel contention — the");
    x.text("   dominant slowdown), reproducing \"slows considerably\";");
    x.text(" * gw_chars/gw_cpu in promiscuous mode scale with the background load");
    x.text("   while the filtered TNC holds them flat at the gateway's own traffic —");
    x.text("   chars_saved_% is the per-character interrupt reduction the runtime");
    x.text("   Tnc::set_mode(AddressFilter) switch buys at each load point;");
    x.text(" * offered_load_% exceeds 100% once stations offer more airtime than the");
    x.text("   channel has (queueing), while chan_util_% — occupied airtime as a");
    x.text("   union of transmissions — saturates at 100%;");
    x.text(" * sched_polls counts component visits by the deadline-indexed engine:");
    x.text("   sched_polls/sched_instants stays near the handful of components that");
    x.text("   are actually dirty per instant, instead of the whole world, and");
    x.text("   sched_batched counts serial characters delivered with no calendar");
    x.text("   traffic at all.");

    // Rows: 0, 2, 4, 6, 8 and 12 background stations.
    let (idle, loaded) = (&points[0], &points[1..]);
    x.claim(
        "§3",
        "the gateway slows as subnet traffic climbs: mean ping RTT at 8 background stations is at least twice the idle RTT, and fewer pings are answered at every step up in load",
        points[4].0.rtt_ms >= 2.0 * idle.0.rtt_ms
            && points.windows(2).all(|w| w[1].0.delivered < w[0].0.delivered),
    );
    x.claim(
        "§3",
        "a promiscuous TNC passes every packet: at every loaded point the gateway host takes at least 10x the character interrupts it takes behind an address-filtering TNC",
        loaded.iter().all(|(p, f)| p.gw_chars >= 10 * f.gw_chars),
    );
    x.claim(
        "§3",
        "behind the filter the gateway's character load never exceeds its idle load, while promiscuous CPU utilisation at 8 stations is at least 30x idle",
        loaded.iter().all(|(_, f)| f.gw_chars <= idle.1.gw_chars)
            && points[4].0.gw_cpu_pct >= 30.0 * idle.0.gw_cpu_pct,
    );
}
