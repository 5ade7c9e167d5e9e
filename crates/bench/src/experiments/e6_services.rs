//! E6 — §2.3/§5: "Telnet, FTP, and SMTP have all been successfully used
//! across the gateway." One scripted session of each, in both
//! directions, with durations.

use apps::ftp::{FileClient, FileServer};
use apps::smtp::{Mail, SmtpClient, SmtpServer};
use apps::telnet::{TelnetClient, TelnetServer};
use bench::authorize_inbound;
use bench::report::Report;
use gateway::scenario::{paper_topology, PaperConfig, ETHER_HOST_IP, PC_IP};
use sim::SimDuration;

pub fn run(x: &mut Report) {
    x.banner(
        "E6",
        "the paper's services across the gateway, both directions",
        "\"we have used the gateway for file transfer, electronic mail, and \
         remote login in both directions\" (§2.3)",
    );


    // --- telnet, both directions ---
    for (dir, seed) in [("radio -> ether", 6001u64), ("ether -> radio", 6002)] {
        let mut s = paper_topology(PaperConfig::default(), seed);
        let (server_host, client_host, dst, name) = if dir.starts_with("radio") {
            (s.ether_host, s.pc, ETHER_HOST_IP, "vax2")
        } else {
            authorize_inbound(&mut s);
            (s.pc, s.ether_host, PC_IP, "pc")
        };
        let server = TelnetServer::new(23, name);
        s.world.add_app(server_host, Box::new(server));
        let client = TelnetClient::standard_session(dst, 23);
        let r = client.report();
        s.world.add_app(client_host, Box::new(client));
        s.world.run_for(SimDuration::from_secs(1200));
        let rep = r.borrow();
        let ok = x.claim(
            "§2.3",
            &format!("remote login works {dir}: the scripted telnet session (login, date, who, logout) runs to completion"),
            rep.done,
        );
        x.row(&[
            ("service", &"telnet"),
            ("direction", &dir),
            (
                "outcome",
                &if ok {
                    "login+date+who+logout ok"
                } else {
                    "FAILED"
                },
            ),
            (
                "duration",
                &rep.finished_at.map_or("-".into(), |t| t.to_string()),
            ),
        ]);
    }

    // --- FTP-style file transfer, both directions ---
    for (dir, seed) in [("radio -> ether", 6003u64), ("ether -> radio", 6004)] {
        let mut s = paper_topology(PaperConfig::default(), seed);
        let (server_host, client_host, dst) = if dir.starts_with("radio") {
            (s.ether_host, s.pc, ETHER_HOST_IP)
        } else {
            authorize_inbound(&mut s);
            (s.pc, s.ether_host, PC_IP)
        };
        let server = FileServer::new(21, &[("paper.dvi", 6000)]);
        s.world.add_app(server_host, Box::new(server));
        let client = FileClient::new(dst, 21, "paper.dvi");
        let r = client.report();
        s.world.add_app(client_host, Box::new(client));
        s.world.run_for(SimDuration::from_secs(3600));
        let rep = r.borrow();
        let ok = x.claim(
            "§2.3",
            &format!("file transfer works {dir}: all 6000 bytes arrive intact"),
            rep.done && rep.intact && rep.received == 6000,
        );
        x.row(&[
            ("service", &"ftp get 6kB"),
            ("direction", &dir),
            (
                "outcome",
                &if ok {
                    format!("{} B intact", rep.received)
                } else {
                    format!("FAILED ({} B)", rep.received)
                },
            ),
            (
                "duration",
                &rep.duration().map_or("-".into(), |d| d.to_string()),
            ),
        ]);
    }

    // --- SMTP mail, both directions ---
    for (dir, seed) in [("radio -> ether", 6005u64), ("ether -> radio", 6006)] {
        let mut s = paper_topology(PaperConfig::default(), seed);
        let (server_host, client_host, dst) = if dir.starts_with("radio") {
            (s.ether_host, s.pc, ETHER_HOST_IP)
        } else {
            authorize_inbound(&mut s);
            (s.pc, s.ether_host, PC_IP)
        };
        let server = SmtpServer::new(25, "mx");
        let mailbox = server.report();
        s.world.add_app(server_host, Box::new(server));
        let client = SmtpClient::new(
            dst,
            25,
            Mail {
                from: "<op@one.side>".into(),
                to: "<op@other.side>".into(),
                body: vec!["The gateway works.".into(), "73".into()],
            },
        );
        let r = client.report();
        s.world.add_app(client_host, Box::new(client));
        s.world.run_for(SimDuration::from_secs(1200));
        let rep = r.borrow();
        let ok = x.claim(
            "§2.3",
            &format!("electronic mail works {dir}: the client sees delivery and the server's mailbox holds exactly 1 message"),
            rep.delivered && mailbox.borrow().mailbox.len() == 1,
        );
        x.row(&[
            ("service", &"smtp 1 msg"),
            ("direction", &dir),
            (
                "outcome",
                &if ok { "delivered+queued ok" } else { "FAILED" },
            ),
            (
                "duration",
                &rep.finished_at.map_or("-".into(), |t| t.to_string()),
            ),
        ]);
    }

    x.end_table();
    x.text("expected shape: all six rows succeed; radio-side durations are tens of");
    x.text("seconds to minutes, dominated by 1200 bit/s serialization (see E1).");
}
