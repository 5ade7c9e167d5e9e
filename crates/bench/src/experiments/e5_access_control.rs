//! E5 — §4.3: the access-control table. A scripted sequence walks every
//! rule in the paper's design and prints the gateway's own counters
//! after each phase.
//!
//! The table is the filter engine's soft-state gate (DESIGN.md §13):
//! the legacy standalone ACL was folded into the engine, and this
//! experiment's columns read the engine's counters — `denied` counts
//! every deny verdict (cached ones included), `openings` counts
//! amateur-side opens plus refreshes, exactly what the old table called
//! an "opening".

use apps::ping::Pinger;
use bench::report::Report;
use filter::{FilterConfig, FilterStats, GateConfig};
use gateway::scenario::{
    paper_topology, PaperConfig, PaperScenario, ETHER_HOST_IP, GW_ETHER_IP, GW_RADIO_IP, PC_IP,
};
use netstack::icmp::{GateAuth, IcmpMessage};
use sim::SimDuration;

/// The Ethernet host pings the PC `count` times; how many were answered,
/// and the gateway's filter counters afterwards.
fn probe(s: &mut PaperScenario, id: u16, count: u32) -> (u32, FilterStats) {
    let p = Pinger::new(PC_IP, id, count, SimDuration::from_secs(15), 16);
    let r = p.report();
    s.world.add_app(s.ether_host, Box::new(p));
    s.world.run_for(SimDuration::from_secs(60));
    let ok = r.borrow().received;
    (ok, s.world.host(s.gw).filter_stats().unwrap())
}

pub fn run(x: &mut Report) {
    x.banner(
        "E5",
        "the §4.3 access-control table, end to end",
        "\"any communication must be initiated by licensed amateurs\": \
         soft-state entries with TTL, plus authenticated ICMP control",
    );

    // Short TTL so the expiry phase fits the run; one control operator.
    let filter_cfg = FilterConfig {
        gate: Some(GateConfig {
            entry_ttl: SimDuration::from_secs(180),
            operators: vec![("N7AKR".to_string(), "seattle".to_string())],
        }),
        ..FilterConfig::permissive()
    };
    let cfg = PaperConfig {
        filter: Some(filter_cfg),
        ..PaperConfig::default()
    };
    let mut s = paper_topology(cfg, 5000);
    let mut phases = Vec::new();

    // Phase 1: unsolicited inbound — must be denied.
    phases.push(("1 unsolicited inbound", probe(&mut s, 1, 3)));

    // Phase 2: the amateur initiates — the return path opens.
    let now = s.world.now;
    s.world.host_mut(s.pc).ping(now, ETHER_HOST_IP, 2, 1, 16);
    s.world.run_for(SimDuration::from_secs(30));
    phases.push(("2 after amateur initiates", probe(&mut s, 3, 2)));

    // Phase 3: TTL expiry with no refresh — denied again.
    s.world.run_for(SimDuration::from_secs(200));
    phases.push(("3 after TTL expiry", probe(&mut s, 4, 2)));

    // Phase 4: the operator re-opens by message, then force-closes.
    let now = s.world.now;
    s.world.host_mut(s.pc).send_gate_message(
        now,
        GW_RADIO_IP,
        IcmpMessage::GateOpen {
            amateur: PC_IP,
            foreign: ETHER_HOST_IP,
            ttl_secs: 600,
            auth: None,
        },
    );
    s.world.run_for(SimDuration::from_secs(30));
    phases.push(("4 GateOpen from amateur", probe(&mut s, 5, 1)));

    let now = s.world.now;
    s.world.host_mut(s.pc).send_gate_message(
        now,
        GW_RADIO_IP,
        IcmpMessage::GateClose {
            amateur: PC_IP,
            foreign: ETHER_HOST_IP,
            auth: None,
        },
    );
    s.world.run_for(SimDuration::from_secs(30));
    phases.push(("5 GateClose (control op)", probe(&mut s, 6, 2)));

    // Phase 6: foreign-side GateOpen without, then with, credentials.
    for (name, id, auth) in [
        ("6 foreign open, no auth", 7, None),
        (
            "7 foreign open, authed",
            8,
            Some(GateAuth {
                callsign: "N7AKR".to_string(),
                password: "seattle".to_string(),
            }),
        ),
    ] {
        let now = s.world.now;
        s.world.host_mut(s.ether_host).send_gate_message(
            now,
            GW_ETHER_IP,
            IcmpMessage::GateOpen {
                amateur: PC_IP,
                foreign: ETHER_HOST_IP,
                ttl_secs: 600,
                auth,
            },
        );
        s.world.run_for(SimDuration::from_secs(10));
        phases.push((name, probe(&mut s, id, 1)));
    }

    for (name, (ok, st)) in &phases {
        x.row(&[
            ("phase", name),
            ("inbound ok", ok),
            ("denied", &st.denied),
            ("openings", &(st.gate_opened + st.gate_refreshed)),
            ("forced", &st.gate_closed),
            ("auth_fail", &st.auth_failures),
        ]);
    }
    x.end_table();
    x.text("expected shape: inbound passes ONLY in phases 2, 4, and 7 — after");
    x.text("amateur initiation, an amateur-side GateOpen, or an authenticated");
    x.text("foreign-side GateOpen; denials and auth failures accumulate otherwise.");

    let ok: Vec<u32> = phases.iter().map(|(_, (ok, _))| *ok).collect();
    let st: Vec<&FilterStats> = phases.iter().map(|(_, (_, st))| st).collect();
    x.claim(
        "§4.3",
        "inbound traffic is answered only after amateur initiation, an amateur-side GateOpen or an authenticated foreign GateOpen (phases 2, 4, 7 > 0 replies; phases 1, 3, 5, 6 = 0)",
        [ok[1], ok[3], ok[6]].iter().all(|&n| n > 0)
            && [ok[0], ok[2], ok[4], ok[5]].iter().all(|&n| n == 0),
    );
    x.claim(
        "§4.3",
        "every closed phase adds denials and no open phase does: denied grows into phases 1, 3, 5, 6 and is unchanged across phases 2, 4, 7",
        st[0].denied > 0
            && [2, 4, 5].iter().all(|&i| st[i].denied > st[i - 1].denied)
            && [1, 3, 6].iter().all(|&i| st[i].denied == st[i - 1].denied),
    );
    x.claim(
        "§4.3",
        "control messages are policed: the GateClose is the one forced close, the credential-less foreign GateOpen is the one authentication failure and opens nothing",
        st[4].gate_closed == st[3].gate_closed + 1
            && st[6].gate_closed == 1
            && st[5].auth_failures == st[4].auth_failures + 1
            && st[6].auth_failures == 1
            && st[5].gate_opened == st[4].gate_opened,
    );
}
