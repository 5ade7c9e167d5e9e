//! E10 — ablation of the MAC parameters behind §3's contention story:
//! p-persistence, slot time, and hidden terminals on the shared channel.
//! These are the knobs the KISS TNC exposes (TXDELAY, P, SlotTime) and
//! that every operator of the paper's network tuned by hand.

use ax25::addr::Ax25Addr;
use bench::report::{Num, Report};
use radio::channel::{Channel, Heard, StationId};
use radio::csma::MacConfig;
use radio::traffic::{BeaconConfig, BeaconStation};
use sim::{Bandwidth, SimDuration, SimRng, SimTime};

/// Runs `n` stations offering Poisson traffic for `horizon`, returning
/// (clean receptions, corrupted receptions, offered utilization).
fn contend(
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

fn loss_pct(clean: u64, corrupt: u64) -> f64 {
    corrupt as f64 / (clean + corrupt).max(1) as f64 * 100.0
}

pub fn run(x: &mut Report) {
    x.banner(
        "E10",
        "CSMA parameter & hidden-terminal ablation",
        "channel contention is what makes \"the gateway slow considerably\" \
         (§3); p/SlotTime are the TNC's tuning knobs",
    );

    x.text("persistence sweep (8 stations, 100 B frames, 6 s mean interval):\n");
    let mut by_persistence = Vec::new();
    for &p in &[0.05, 0.1, 0.25, 0.5, 0.9, 1.0] {
        let (clean, corrupt, util) = contend(8, p, 100, SimDuration::from_secs(6), false, 42);
        x.row(&[
            ("persistence", &format_args!("{p:.2}")),
            ("clean_rx", &clean),
            ("corrupt_rx", &corrupt),
            ("loss_%", &Num(loss_pct(clean, corrupt))),
            ("offered_util_%", &Num(util * 100.0)),
        ]);
        by_persistence.push((clean, loss_pct(clean, corrupt)));
    }
    x.end_table();

    x.text("slot-time sweep (p = 0.25):\n");
    let mut by_slot = Vec::new();
    for &slot in &[20u64, 50, 100, 200, 400] {
        let (clean, corrupt, util) = contend(8, 0.25, slot, SimDuration::from_secs(6), false, 43);
        x.row(&[
            ("slot_ms", &format_args!("{:.2}", slot as f64)),
            ("clean_rx", &clean),
            ("corrupt_rx", &corrupt),
            ("loss_%", &Num(loss_pct(clean, corrupt))),
            ("offered_util_%", &Num(util * 100.0)),
        ]);
        by_slot.push(loss_pct(clean, corrupt));
    }
    x.end_table();

    x.text("hidden terminals (p = 0.25, slot 100 ms):\n");
    let mut by_hearing = Vec::new();
    for &per_station in &[0.05f64, 0.1, 0.2] {
        let mean = SimDuration::from_secs_f64(1.0 / per_station);
        let (c0, x0, _) = contend(8, 0.25, 100, mean, false, 44);
        let (c1, x1, _) = contend(8, 0.25, 100, mean, true, 44);
        x.row(&[
            ("load(1/s)", &format_args!("{:.2}", per_station * 8.0)),
            ("loss_open_%", &Num(loss_pct(c0, x0))),
            ("loss_hidden_%", &Num(loss_pct(c1, x1))),
        ]);
        by_hearing.push((loss_pct(c0, x0), loss_pct(c1, x1)));
    }
    x.end_table();
    x.text("expected shape: aggressive persistence (p→1) collides heavily under");
    x.text("load; small p with a sane slot time trades delay for clean deliveries;");
    x.text("hidden terminals collide at the victim even when carrier sense is");
    x.text("perfect at the senders — the physics digipeaters were invented for.");

    let (first, last) = (by_persistence[0], by_persistence[5]);
    x.claim(
        "§3",
        "contention is what the channel's users tune: clean receptions fall at every step up in persistence, and p = 1.0 loses more than twice the share of receptions p = 0.05 does",
        by_persistence.windows(2).all(|w| w[1].0 < w[0].0) && last.1 > 2.0 * first.1,
    );
    x.claim(
        "§3",
        "slot time has a best value between the extremes: 50 ms loses a smaller share than both 20 ms and 400 ms",
        by_slot[1] < by_slot[0] && by_slot[1] < by_slot[4],
    );
    x.claim(
        "§3",
        "at the lightest load, where carrier sense avoids most collisions, hidden terminals lose a larger share of receptions than an open channel",
        by_hearing[0].1 > by_hearing[0].0,
    );
}
