//! E1 — §3 ¶1: "Because the link speed is only 1200 bits per second, the
//! transmission time is the dominant factor in determining throughput
//! and latency."
//!
//! A 64-byte ping crosses the gateway at several radio bit rates. For
//! each rate we report the measured warm-path RTT, the analytically
//! computed radio serialization time for the exchange, and its share of
//! the RTT. At 1200 bit/s the radio transmission time should dominate
//! (the paper's claim); as the rate climbs, the share must fall.

use apps::ping::Pinger;
use bench::open_config;
use bench::report::{Num, Report};
use gateway::scenario::{paper_topology, PaperConfig, ETHER_HOST_IP};
use sim::{Bandwidth, SimDuration};

const PAYLOAD: usize = 64;
const PINGS: u32 = 5;

pub fn run(x: &mut Report) {
    x.banner(
        "E1",
        "latency breakdown vs radio bit rate",
        "\"the transmission time is the dominant factor\" at 1200 bit/s (§3)",
    );

    // On-air frame: ICMP(8+64) + IP(20) in AX.25 UI (16B hdr+pid) + FCS.
    let frame_bytes = 8 + PAYLOAD + 20 + 16 + 2;

    let mut all_replied = true;
    let mut tx_shares = Vec::new();
    let mut radio_shares = Vec::new();
    for rate in [1200u64, 2400, 4800, 9600, 56_000] {
        let cfg = PaperConfig {
            radio_rate: Bandwidth::bps(rate),
            ..open_config()
        };
        let mut s = paper_topology(cfg.clone(), 1000 + rate);
        let pinger = Pinger::new(
            ETHER_HOST_IP,
            1,
            PINGS,
            SimDuration::from_secs(30),
            PAYLOAD,
        );
        let report = pinger.report();
        s.world.add_app(s.pc, Box::new(pinger));
        s.world.run_for(SimDuration::from_secs(300));

        let mut r = report.borrow_mut();
        all_replied &= r.received == PINGS;
        let warm = r.rtts.min().unwrap_or(SimDuration::MAX);
        // Request and reply each serialize once onto the radio.
        let radio_tx = Bandwidth::bps(rate).time_for_bytes(frame_bytes) * 2;
        let keyup = cfg.mac.tx_delay * 2 + cfg.mac.tx_tail * 2;
        let share = radio_tx.as_secs_f64() / warm.as_secs_f64() * 100.0;
        let total_share = (radio_tx + keyup).as_secs_f64() / warm.as_secs_f64() * 100.0;
        x.row(&[
            ("bit/s", &format_args!("{:.2}", rate as f64)),
            ("rtt_ms", &Num(warm.as_millis_f64())),
            ("radio_tx_ms", &Num(radio_tx.as_millis_f64())),
            ("keyup_ms", &Num(keyup.as_millis_f64())),
            ("tx_share_%", &Num(share)),
            ("radio_total_%", &Num(total_share)),
        ]);
        tx_shares.push(share);
        radio_shares.push(total_share);
    }
    x.end_table();
    x.text("expected shape: at 1200 bit/s the radio (serialization + keyup) is the");
    x.text("overwhelming share of the RTT — the paper's claim — and pure serialization");
    x.text("alone is the single largest term; by 56 kbit/s both are minor.");

    x.claim(
        "§3",
        "every ping is answered at every radio bit rate",
        all_replied,
    );
    x.claim(
        "§3",
        "at 1200 bit/s serialization alone is more than half the warm RTT, and radio time (serialization + keyup) more than three quarters",
        tx_shares[0] > 50.0 && radio_shares[0] > 75.0,
    );
    x.claim(
        "§3",
        "the serialization share of the RTT falls at every step up in bit rate, to under a tenth of its 1200 bit/s value by 56 kbit/s",
        tx_shares.windows(2).all(|w| w[1] < w[0]) && tx_shares[4] * 10.0 < tx_shares[0],
    );
}
