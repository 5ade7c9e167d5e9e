//! E10 — ablation of the MAC parameters behind §3's contention story:
//! p-persistence, slot time, and hidden terminals on the shared channel.
//! These are the knobs the KISS TNC exposes (TXDELAY, P, SlotTime) and
//! that every operator of the paper's network tuned by hand.

use ax25::addr::Ax25Addr;
use bench::banner;
use radio::channel::{Channel, Heard, StationId};
use radio::csma::MacConfig;
use radio::traffic::{BeaconConfig, BeaconStation};
use sim::stats::Sweep;
use sim::{Bandwidth, SimDuration, SimRng, SimTime};

/// Runs `n` stations offering Poisson traffic for `horizon`, returning
/// (clean receptions, corrupted receptions, offered utilization).
fn run(
    n: usize,
    persistence: f64,
    slot_ms: u64,
    mean_interval: SimDuration,
    hidden: bool,
    seed: u64,
) -> (u64, u64, f64) {
    let mut ch = Channel::new(Bandwidth::RADIO_1200);
    let mut rng = SimRng::seed_from(seed);
    let mac = MacConfig {
        persistence,
        slot_time: SimDuration::from_millis(slot_ms),
        ..MacConfig::default()
    };
    let mut stations: Vec<BeaconStation> = (0..n)
        .map(|i| {
            let sid = ch.add_station();
            BeaconStation::new(
                BeaconConfig {
                    from: Ax25Addr::parse_or_panic(&format!("S{i}")),
                    to: Ax25Addr::parse_or_panic("QST"),
                    frame_len: 100,
                    mean_interval,
                    start: SimTime::ZERO,
                    mac,
                },
                sid,
                rng.fork(),
            )
        })
        .collect();
    // One silent monitor hears everyone and is the measurement point.
    let _monitor = ch.add_station();
    if hidden {
        // Split the transmitters into two halves that cannot hear each
        // other (the monitor still hears all).
        for i in 0..n {
            for j in 0..n {
                if (i < n / 2) != (j < n / 2) {
                    ch.set_hears(StationId(i), StationId(j), false);
                }
            }
        }
    }

    let horizon = SimTime::from_secs(1800);
    let mut heard = Heard::default();
    let mut now = SimTime::ZERO;
    loop {
        for s in &mut stations {
            s.poll(now, &mut ch);
        }
        // Only the channel's reception counters are read here.
        while ch.hear_next(now, &mut heard) {}
        for s in &mut stations {
            s.poll(now, &mut ch);
        }
        let next = stations
            .iter()
            .filter_map(|s| s.next_deadline())
            .chain(ch.next_deadline())
            .min();
        match next {
            Some(t) if t <= horizon => now = t,
            _ => break,
        }
    }
    let st = ch.stats();
    // Count only the monitor's receptions (last station).
    // ChannelStats aggregates all; per-receiver counts are approximated
    // by dividing by hearers — instead, report aggregate ratios.
    (
        st.clean_receptions,
        st.corrupted_receptions,
        ch.offered_utilization(horizon),
    )
}

fn main() {
    banner(
        "E10",
        "CSMA parameter & hidden-terminal ablation",
        "channel contention is what makes \"the gateway slow considerably\" \
         (§3); p/SlotTime are the TNC's tuning knobs",
    );

    println!("persistence sweep (8 stations, 100 B frames, 6 s mean interval):\n");
    let mut sweep = Sweep::new("persistence");
    for &p in &[0.05, 0.1, 0.25, 0.5, 0.9, 1.0] {
        let (clean, corrupt, util) = run(8, p, 100, SimDuration::from_secs(6), false, 42);
        let loss = corrupt as f64 / (clean + corrupt).max(1) as f64 * 100.0;
        sweep
            .row(p)
            .set("clean_rx", clean as f64)
            .set("corrupt_rx", corrupt as f64)
            .set("loss_%", loss)
            .set("offered_util_%", util * 100.0);
    }
    println!("{}", sweep.render());

    println!("slot-time sweep (p = 0.25):\n");
    let mut sweep = Sweep::new("slot_ms");
    for &slot in &[20u64, 50, 100, 200, 400] {
        let (clean, corrupt, util) = run(8, 0.25, slot, SimDuration::from_secs(6), false, 43);
        let loss = corrupt as f64 / (clean + corrupt).max(1) as f64 * 100.0;
        sweep
            .row(slot as f64)
            .set("clean_rx", clean as f64)
            .set("corrupt_rx", corrupt as f64)
            .set("loss_%", loss)
            .set("offered_util_%", util * 100.0);
    }
    println!("{}", sweep.render());

    println!("hidden terminals (p = 0.25, slot 100 ms):\n");
    let mut sweep = Sweep::new("load(1/s)");
    for &per_station in &[0.05f64, 0.1, 0.2] {
        let mean = SimDuration::from_secs_f64(1.0 / per_station);
        let (c0, x0, _) = run(8, 0.25, 100, mean, false, 44);
        let (c1, x1, _) = run(8, 0.25, 100, mean, true, 44);
        let l0 = x0 as f64 / (c0 + x0).max(1) as f64 * 100.0;
        let l1 = x1 as f64 / (c1 + x1).max(1) as f64 * 100.0;
        sweep
            .row(per_station * 8.0)
            .set("loss_open_%", l0)
            .set("loss_hidden_%", l1);
    }
    println!("{}", sweep.render());
    println!("expected shape: aggressive persistence (p→1) collides heavily under");
    println!("load; small p with a sane slot time trades delay for clean deliveries;");
    println!("hidden terminals collide at the victim even when carrier sense is");
    println!("perfect at the senders — the physics digipeaters were invented for.");
}
