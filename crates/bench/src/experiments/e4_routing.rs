//! E4 — §4.2: "Since AMPRnet has been allocated a class 'A' network,
//! most systems will maintain only a single route for it. All packets
//! destined for AMPRnet originating from another internet host must pass
//! through a single gateway. This is not desirable since a packet
//! destined for 44.24.0.5 should be sent to a West Coast gateway …
//! whereas a packet destined for 44.56.0.5 should be sent to an East
//! Coast gateway."
//!
//! The two-coast topology: a distant Internet host talks to an
//! east-coast radio host, once with the single class-A route (everything
//! lands at the west gateway, which must relay across an RF backbone)
//! and once with per-subnet routes (straight to the east gateway).

use apps::bulk::{BulkSender, BulkSink};
use apps::ping::Pinger;
use bench::report::Report;
use bench::{open_config, two_coast, two_coast_addrs, RouteMode};
use sim::SimDuration;

struct Outcome {
    warm_rtt_s: f64,
    first_rtt_s: f64,
    goodput_bps: f64,
    radio_txs: u64,
    delivered: bool,
}

fn measure(mode: RouteMode) -> Outcome {
    let mut t = two_coast(mode, &open_config(), 4000);
    let pinger = Pinger::new(
        two_coast_addrs::EAST_HOST,
        1,
        4,
        SimDuration::from_secs(60),
        32,
    );
    let ping_report = pinger.report();
    t.world.add_app(t.internet_host, Box::new(pinger));
    t.world.run_for(SimDuration::from_secs(300));
    let ping_txs_end = t.world.channel(t.chan).stats().transmissions;

    // Then a 4 kB transfer to the east host.
    let sink = BulkSink::new(7000);
    let sink_report = sink.report();
    t.world.add_app(t.east_host, Box::new(sink));
    let sender = BulkSender::new(two_coast_addrs::EAST_HOST, 7000, 4000);
    let send_report = sender.report();
    t.world.add_app(t.internet_host, Box::new(sender));
    t.world.run_for(SimDuration::from_secs(3 * 3600));

    let mut pr = ping_report.borrow_mut();
    let goodput_bps = send_report.borrow().goodput_bps().unwrap_or(f64::NAN);
    let sink_bytes = sink_report.borrow().bytes;
    Outcome {
        warm_rtt_s: pr.rtts.min().map(|d| d.as_secs_f64()).unwrap_or(f64::NAN),
        first_rtt_s: pr.rtts.max().map(|d| d.as_secs_f64()).unwrap_or(f64::NAN),
        goodput_bps,
        radio_txs: ping_txs_end,
        delivered: pr.received == 4 && sink_bytes == 4000,
    }
}

pub fn run(x: &mut Report) {
    x.banner(
        "E4",
        "single class-A route vs per-subnet routes to AMPRnet",
        "one gateway for all of net 44 forces cross-country relays; \
         per-subnet routing would deliver to the right coast (§4.2)",
    );
    x.text("(internet host → east radio host 44.56.0.5; single route lands at the");
    x.text(" WEST gateway, which must relay via the BBONE RF backbone digipeater)\n");

    let single = measure(RouteMode::SingleClassA);
    let per = measure(RouteMode::PerSubnet);

    for (name, o) in [
        ("single 44/8 via west", &single),
        ("per-subnet (44.56 via east)", &per),
    ] {
        x.row(&[
            ("route mode", &name),
            ("warm_rtt_s", &format_args!("{:.2}", o.warm_rtt_s)),
            ("cold_rtt_s", &format_args!("{:.2}", o.first_rtt_s)),
            ("goodput_bps", &format_args!("{:.0}", o.goodput_bps)),
            ("radio_txs(ping)", &o.radio_txs),
            ("all_ok", &o.delivered),
        ]);
    }
    x.end_table();
    x.text(
        "expected shape: the single class-A route roughly doubles RTT (every frame\n\
         crosses the shared channel twice via the backbone digipeater) and halves\n\
         goodput; per-subnet routes deliver at the right coast. The paper notes\n\
         \"it is conceivable that something like this could be handled using\n\
         ICMP, but at this time, no mechanism is in place.\"",
    );

    x.claim(
        "§4.2",
        "the east host is reachable under either routing policy (4 pings and a 4 kB transfer)",
        single.delivered && per.delivered,
    );
    x.claim(
        "§4.2",
        "the single class-A route relays cross-country: its warm RTT is at least 1.5x the per-subnet route's, and the same pings cost more radio transmissions",
        single.warm_rtt_s >= 1.5 * per.warm_rtt_s && single.radio_txs > per.radio_txs,
    );
    x.claim(
        "§4.2",
        "per-subnet routes deliver at least twice the TCP goodput of the single class-A route",
        per.goodput_bps >= 2.0 * single.goodput_bps,
    );
}
