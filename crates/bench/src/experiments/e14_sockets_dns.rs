//! E14 — socket-layer capstone: name resolution and socket applications
//! across the two-coast gateway mesh.
//!
//! Everything in this run is a program on the BSD-style socket layer:
//! the west gateway publishes the AMPRnet callsign zone from a DNS
//! server (UDP port 53), the Internet host runs a stub resolver plus a
//! typist and an FTP client, and the radio hosts run the echo and file
//! servers — all `SocketProgram`s scheduled through poll/select
//! readiness, none touching `NetStack::tcp_*`/`udp_*` directly.
//!
//! The sequence a 4.3BSD user would take for granted: resolve a
//! callsign-host name, connect to the returned 44.x address, transfer —
//! with the packets crossing the Ethernet in IPIP tunnels and the last
//! hop at 1200 b/s over radio.

use std::collections::BTreeMap;

use apps::dns::{DnsServer, Resolver};
use apps::echo::EchoServer;
use apps::ftp::{FileClient, FileServer};
use apps::typist::Typist;
use bench::open_config;
use bench::report::Report;
use gateway::ripd::RipConfig;
use gateway::scenario::{mesh_addrs, three_gateway};
use sim::SimDuration;

pub fn run(x: &mut Report) {
    x.banner(
        "E14",
        "DNS + socket apps end to end across the gateway mesh",
        "the BSD socket layer carries real applications: resolve a \
         callsign host, connect, transfer — no app touches the raw stack API",
    );
    x.text("(names served by west-gw from the AMPRnet callsign zone, TTL 300 s;");
    x.text(" echo on east-host, FTP on gulf-host, clients on the Internet host)\n");

    let rip = RipConfig {
        announce_interval: SimDuration::from_secs(10),
        route_ttl: SimDuration::from_secs(60),
        holddown: SimDuration::from_secs(20),
        ..RipConfig::default()
    };
    let mut s = three_gateway(&open_config(), rip, 1400);

    // Servers first, so every listener is up before any client asks.
    let dns = DnsServer::new(
        &[
            ("ka2eh.ampr.org", mesh_addrs::EAST_HOST),
            ("kd5gh.ampr.org", mesh_addrs::GULF_HOST),
            ("n7akr-1.ampr.org", mesh_addrs::WEST_GW_RADIO),
        ],
        SimDuration::from_secs(300),
    );
    let dns_report = dns.report();
    s.world.add_app(s.west_gw, Box::new(dns));

    let echo = EchoServer::new(7);
    let echo_report = echo.report();
    s.world.add_app(s.east_host, Box::new(echo));

    let files = FileServer::new(21, &[("map.txt", 1500)]);
    let files_report = files.report();
    s.world.add_app(s.gulf_host, Box::new(files));

    let resolver = Resolver::new(mesh_addrs::WEST_GW_ETHER, 1053);
    let resolver = s.world.add_app(s.internet_host, Box::new(resolver));

    // Let RIP44 converge so the 44.56/16 and 44.88/16 tunnels exist.
    s.world.run_for(SimDuration::from_secs(30));

    // --- Phase 1: resolve three names (one of them bogus). --------------
    let names = ["ka2eh.ampr.org", "kd5gh.ampr.org", "nocall.ampr.org"];
    let t_ask = s.world.now;
    for n in names {
        let now = s.world.now;
        s.world.app_mut(resolver).core_mut().resolve(n, now);
    }
    let mut answered_at: BTreeMap<&str, (Option<std::net::Ipv4Addr>, f64)> = BTreeMap::new();
    for _ in 0..600 {
        s.world.run_for(SimDuration::from_millis(100));
        for n in names {
            if !answered_at.contains_key(n) {
                if let Some(outcome) = s.world.app(resolver).core().result(n) {
                    answered_at.insert(
                        n,
                        (outcome, s.world.now.saturating_since(t_ask).as_secs_f64()),
                    );
                }
            }
        }
        if answered_at.len() == names.len() {
            break;
        }
    }

    let answer = |n: &str| answered_at.get(n).copied().unwrap_or((None, f64::NAN));
    for n in names {
        let (outcome, dt) = answer(n);
        x.row(&[
            ("name", &n),
            (
                "answer",
                &outcome.map_or("NXDOMAIN".to_string(), |a| a.to_string()),
            ),
            ("latency", &format_args!("{dt:.3} s")),
        ]);
    }
    x.end_table();
    x.claim(
        "§5",
        "the name service answers across the gateway: both callsign hosts resolve to their 44.x addresses and the unknown name to NXDOMAIN, each in under 1 s",
        answer("ka2eh.ampr.org").0 == Some(mesh_addrs::EAST_HOST)
            && answer("kd5gh.ampr.org").0 == Some(mesh_addrs::GULF_HOST)
            && answer("nocall.ampr.org").0.is_none()
            && names.iter().all(|n| answer(n).1 < 1.0),
    );

    // A repeat lookup is answered from the cache, no datagram sent.
    let now = s.world.now;
    let core = s.world.app_mut(resolver).core_mut();
    let east = core.resolve("ka2eh.ampr.org", now).expect("cached answer");
    let gulf = core.resolve("kd5gh.ampr.org", now).expect("cached answer");
    {
        let st = &s.world.app(resolver).core().stats;
        x.text(format_args!(
            "\nresolver: {} queries sent ({} retries), {} answers, {} from cache, {} failures",
            st.queries_sent, st.retries, st.answers, st.from_cache, st.failures
        ));
        let d = dns_report.borrow();
        x.text(format_args!(
            "server:   {} queries, {} answered, {} nxdomain\n",
            d.queries, d.answered, d.nxdomain
        ));
        x.claim(
            "DESIGN.md §10",
            "a repeated lookup costs no datagram: 2 answers come from the resolver's cache and the server has seen no more queries than the 3 names asked",
            st.from_cache == 2 && st.queries_sent == 3 && d.queries == 3,
        );
    }

    // --- Phase 2: connect to the resolved addresses and transfer. -------
    let typist = Typist::new(east, 7, 10);
    let typist_report = typist.report();
    s.world.add_app(s.internet_host, Box::new(typist));

    let get = FileClient::new(gulf, 21, "map.txt");
    let get_report = get.report();
    s.world.add_app(s.internet_host, Box::new(get));

    s.world.run_for(SimDuration::from_secs(900));

    {
        let t = typist_report.borrow();
        let ok = x.claim(
            "§2.3",
            "the socket typist, connected to the resolved address, has all 10 of its keystrokes echoed by the east radio host",
            t.done && t.echoed == 10 && echo_report.borrow().bytes_echoed == 10,
        );
        x.row(&[
            ("app", &"typist (echo)"),
            ("target", &format_args!("{east}:7")),
            ("outcome", &if ok { "ok" } else { "FAILED" }),
            (
                "detail",
                &format_args!(
                    "{}/{} echoed, mean rtt {:.2} s",
                    t.echoed,
                    t.sent,
                    t.mean_rtt().map_or(f64::NAN, |d| d.as_secs_f64())
                ),
            ),
        ]);
        let f = get_report.borrow();
        let ok = x.claim(
            "§2.3",
            "the socket FTP client fetches all 1500 announced bytes from the gulf radio host",
            f.done && f.received == 1500 && f.received == f.announced,
        );
        x.row(&[
            ("app", &"ftp GET map.txt"),
            ("target", &format_args!("{gulf}:21")),
            ("outcome", &if ok { "ok" } else { "FAILED" }),
            (
                "detail",
                &format_args!(
                    "{}/{} bytes intact in {:.1} s",
                    f.received,
                    f.announced,
                    f.duration().map_or(f64::NAN, |d| d.as_secs_f64())
                ),
            ),
        ]);
    }
    x.end_table();
    x.text(format_args!(
        "\nservers: echo accepted {} conn / {} B echoed; ftp served {} GET / {} B sent",
        echo_report.borrow().accepted,
        echo_report.borrow().bytes_echoed,
        files_report.borrow().serves,
        files_report.borrow().bytes_sent,
    ));
}
