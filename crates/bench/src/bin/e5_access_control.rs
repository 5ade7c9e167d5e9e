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
use bench::banner;
use filter::{FilterConfig, GateConfig};
use gateway::scenario::{
    paper_topology, PaperConfig, ETHER_HOST_IP, GW_ETHER_IP, GW_RADIO_IP, PC_IP,
};
use netstack::icmp::{GateAuth, IcmpMessage};
use sim::stats::render_table;
use sim::SimDuration;

fn main() {
    banner(
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

    let mut rows = vec![vec![
        "phase".to_string(),
        "inbound ok".to_string(),
        "denied".to_string(),
        "openings".to_string(),
        "forced".to_string(),
        "auth_fail".to_string(),
    ]];
    let mut phase = |s: &mut gateway::scenario::PaperScenario, name: &str, ok: u32| {
        let st = s.world.host(s.gw).filter_stats().unwrap();
        rows.push(vec![
            name.to_string(),
            ok.to_string(),
            st.denied.to_string(),
            (st.gate_opened + st.gate_refreshed).to_string(),
            st.gate_closed.to_string(),
            st.auth_failures.to_string(),
        ]);
    };

    // Phase 1: unsolicited inbound — must be denied.
    let p = Pinger::new(PC_IP, 1, 3, SimDuration::from_secs(15), 16);
    let r = p.report();
    s.world.add_app(s.ether_host, Box::new(p));
    s.world.run_for(SimDuration::from_secs(60));
    phase(&mut s, "1 unsolicited inbound", r.borrow().received);

    // Phase 2: the amateur initiates — the return path opens.
    let now = s.world.now;
    s.world.host_mut(s.pc).ping(now, ETHER_HOST_IP, 2, 1, 16);
    s.world.run_for(SimDuration::from_secs(30));
    let p = Pinger::new(PC_IP, 3, 2, SimDuration::from_secs(15), 16);
    let r = p.report();
    s.world.add_app(s.ether_host, Box::new(p));
    s.world.run_for(SimDuration::from_secs(60));
    phase(&mut s, "2 after amateur initiates", r.borrow().received);

    // Phase 3: TTL expiry with no refresh — denied again.
    s.world.run_for(SimDuration::from_secs(200));
    let p = Pinger::new(PC_IP, 4, 2, SimDuration::from_secs(15), 16);
    let r = p.report();
    s.world.add_app(s.ether_host, Box::new(p));
    s.world.run_for(SimDuration::from_secs(60));
    phase(&mut s, "3 after TTL expiry", r.borrow().received);

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
    let p = Pinger::new(PC_IP, 5, 1, SimDuration::from_secs(15), 16);
    let r = p.report();
    s.world.add_app(s.ether_host, Box::new(p));
    s.world.run_for(SimDuration::from_secs(60));
    phase(&mut s, "4 GateOpen from amateur", r.borrow().received);

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
    let p = Pinger::new(PC_IP, 6, 2, SimDuration::from_secs(15), 16);
    let r = p.report();
    s.world.add_app(s.ether_host, Box::new(p));
    s.world.run_for(SimDuration::from_secs(60));
    phase(&mut s, "5 GateClose (control op)", r.borrow().received);

    // Phase 6: foreign-side GateOpen without, then with, credentials.
    let now = s.world.now;
    s.world.host_mut(s.ether_host).send_gate_message(
        now,
        GW_ETHER_IP,
        IcmpMessage::GateOpen {
            amateur: PC_IP,
            foreign: ETHER_HOST_IP,
            ttl_secs: 600,
            auth: None,
        },
    );
    s.world.run_for(SimDuration::from_secs(10));
    let p = Pinger::new(PC_IP, 7, 1, SimDuration::from_secs(15), 16);
    let r = p.report();
    s.world.add_app(s.ether_host, Box::new(p));
    s.world.run_for(SimDuration::from_secs(60));
    phase(&mut s, "6 foreign open, no auth", r.borrow().received);

    let now = s.world.now;
    s.world.host_mut(s.ether_host).send_gate_message(
        now,
        GW_ETHER_IP,
        IcmpMessage::GateOpen {
            amateur: PC_IP,
            foreign: ETHER_HOST_IP,
            ttl_secs: 600,
            auth: Some(GateAuth {
                callsign: "N7AKR".to_string(),
                password: "seattle".to_string(),
            }),
        },
    );
    s.world.run_for(SimDuration::from_secs(10));
    let p = Pinger::new(PC_IP, 8, 1, SimDuration::from_secs(15), 16);
    let r = p.report();
    s.world.add_app(s.ether_host, Box::new(p));
    s.world.run_for(SimDuration::from_secs(60));
    phase(&mut s, "7 foreign open, authed", r.borrow().received);

    println!("{}", render_table(&rows));
    println!("expected shape: inbound passes ONLY in phases 2, 4, and 7 — after");
    println!("amateur initiation, an amateur-side GateOpen, or an authenticated");
    println!("foreign-side GateOpen; denials and auth failures accumulate otherwise.");
}
