//! E7 — §1's digipeaters: "the specification of up to eight digipeaters
//! through which a packet is to pass." Every hop retransmits on the same
//! frequency, so each hop roughly doubles a packet's airtime. This sweep
//! measures ping RTT and TCP goodput through chains of 0–8 digipeaters.

use apps::bulk::{BulkSender, BulkSink};
use apps::ping::Pinger;
use bench::open_config;
use bench::report::{Num, Report};
use gateway::scenario::{digi_chain_topology, GW_RADIO_IP};
use sim::SimDuration;

const PINGS: u32 = 4;

pub fn run(x: &mut Report) {
    x.banner(
        "E7",
        "source-routed digipeating cost vs chain length",
        "up to eight digipeaters may relay a frame; every relay re-occupies \
         the shared channel (§1)",
    );
    x.text("(PC ⇄ far host through a line of digipeaters with hidden ends)\n");

    let cfg = open_config();

    let mut rtts = Vec::new();
    let mut goodputs = Vec::new();
    let mut all_replied = true;
    for n in 0..=8usize {
        let mut s = digi_chain_topology(n, cfg.clone(), 7000 + n as u64);
        let pinger = Pinger::new(GW_RADIO_IP, 1, PINGS, SimDuration::from_secs(90), 32);
        let ping_report = pinger.report();
        s.world.add_app(s.pc, Box::new(pinger));
        s.world.run_for(SimDuration::from_secs(600));

        // A small transfer over the same chain.
        let sink = BulkSink::new(7100);
        let sink_report = sink.report();
        s.world.add_app(s.gw, Box::new(sink));
        let sender = BulkSender::new(GW_RADIO_IP, 7100, 800);
        let send_report = sender.report();
        s.world.add_app(s.pc, Box::new(sender));
        s.world.run_for(SimDuration::from_secs(6 * 3600));

        let mut pr = ping_report.borrow_mut();
        let warm_rtt = pr.rtts.min().map_or(f64::NAN, |d| d.as_secs_f64());
        let goodput = send_report.borrow().goodput_bps();
        let airtime = s.world.channel(s.chan).stats().airtime_ns as f64 / 1e9;
        x.row(&[
            ("digipeaters", &format_args!("{:.2}", n as f64)),
            ("warm_rtt_s", &Num(warm_rtt)),
            ("ping_ok", &pr.received),
            ("goodput_bps", &Num(goodput.unwrap_or(f64::NAN))),
            ("xfer_ok", &u8::from(sink_report.borrow().bytes == 800)),
            ("airtime_s", &Num(airtime)),
        ]);
        all_replied &= pr.received == PINGS;
        rtts.push(warm_rtt);
        goodputs.push(goodput.unwrap_or(0.0));
    }
    x.end_table();
    x.text("expected shape: ping RTT grows linearly with hop count (each frame");
    x.text("serializes once per hop on the same shared channel) and stays reliable");
    x.text("even at the protocol maximum of 8 hops. TCP goodput falls much faster");
    x.text("than 1/(hops+1) and melts down entirely beyond ~5 hops — retransmission");
    x.text("bursts collide with digipeater relays on the one frequency, which is");
    x.text("why 1980s operators used NET/ROM backbones instead of long digi chains");
    x.text("(the very development the paper's §1 recounts).");

    x.claim(
        "§1",
        "a frame may pass up to eight digipeaters: every ping is answered at every chain length 0-8",
        all_replied,
    );
    x.claim(
        "§1",
        "every relay re-occupies the shared channel: warm RTT grows with each added digipeater and through 8 of them is at least 8x the direct RTT",
        rtts.windows(2).all(|w| w[1] > w[0]) && rtts[8] >= 8.0 * rtts[0],
    );
    x.claim(
        "§1",
        "TCP goodput through n >= 1 digipeaters is below 1/(n+1) of the direct goodput (a transfer that never completes counts as 0)",
        (1..=8).all(|n| goodputs[n] < goodputs[0] / (n + 1) as f64),
    );
}
