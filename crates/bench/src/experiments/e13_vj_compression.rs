//! E13 — RFC 1144 VJ header compression on the radio link, on vs. off.
//!
//! E1 showed transmission time dominating the 1200 bit/s channel; this
//! experiment shows where those transmitted bytes go for interactive TCP.
//! A stop-and-wait typist (one character per segment, remote echo — the
//! RFC 1144 motivating workload) and a 6 kB FTP transfer each run twice
//! through the paper topology: once with the link as the paper built it,
//! once with VJ compression enabled on both radio drivers. The TCP MSS is
//! clamped to the radio MTU in all runs so the comparison is segmentation
//! -for-segmentation.
//!
//! Layered accounting, reported separately and honestly:
//! * **TCP/IP bytes per keystroke** — the headline RFC 1144 number: a
//!   40-byte header on one echoed byte shrinks to 3–4 delta bytes, so the
//!   IP-level cost of a keystroke falls ~9x.
//! * **Session-level speedup** (chars/s, echo RTT) is smaller — each
//!   frame still pays ~19 bytes of AX.25 address + control + KISS
//!   overhead that no IP-layer compression can touch (the frame-level
//!   ceiling is (40+1+19)/(4+1+19) ≈ 2.6x).
//! * **FTP goodput** moves least: data segments are header-light already.

use apps::echo::EchoServer;
use apps::ftp::{FileClient, FileServer};
use apps::typist::Typist;
use bench::report::Report;
use gateway::scenario::{paper_topology, PaperConfig, ETHER_HOST_IP};
use sim::SimDuration;

const KEYSTROKES: usize = 40;
const FILE_BYTES: usize = 6000;

#[derive(Default)]
struct RadioLink {
    /// TCP/IP (info-field) bytes both radio drivers put on the air.
    ip_bytes: u64,
    /// Header bytes VJ removed (sum of both compressors).
    saved: u64,
    /// Compressed packets / refresh packets sent.
    compressed: u64,
    refreshes: u64,
}

fn radio_link_stats(s: &gateway::scenario::PaperScenario) -> RadioLink {
    let mut out = RadioLink::default();
    for h in [s.pc, s.gw] {
        let drv = s.world.host(h).pr_driver().expect("radio host");
        out.ip_bytes += drv.stats().ip_bytes_out;
        if let Some((cs, _)) = drv.vj_stats() {
            out.saved += cs.hdr_bytes_saved;
            out.compressed += cs.compressed;
            out.refreshes += cs.refreshes;
        }
    }
    out
}

fn config(vj: bool) -> PaperConfig {
    PaperConfig {
        vj,
        clamp_mss: true,
        ..PaperConfig::default()
    }
}

struct InteractiveRun {
    echoed: usize,
    done: bool,
    mean_rtt: Option<SimDuration>,
    chars_per_sec: f64,
    link: RadioLink,
}

fn interactive(vj: bool) -> InteractiveRun {
    let mut s = paper_topology(config(vj), 13001);
    let server = EchoServer::new(7);
    s.world.add_app(s.ether_host, Box::new(server));
    let typist = Typist::new(ETHER_HOST_IP, 7, KEYSTROKES);
    let typist = s.world.add_app(s.pc, Box::new(typist));
    s.world.run_for(SimDuration::from_secs(1800));
    let rep = s.world.app(typist).report();
    InteractiveRun {
        echoed: rep.echoed,
        done: rep.done,
        mean_rtt: rep.mean_rtt(),
        chars_per_sec: rep.chars_per_sec(),
        link: radio_link_stats(&s),
    }
}

struct FtpRun {
    received: usize,
    intact: bool,
    duration: Option<SimDuration>,
    link: RadioLink,
}

fn ftp(vj: bool) -> FtpRun {
    let mut s = paper_topology(config(vj), 13002);
    let server = FileServer::new(21, &[("paper.dvi", FILE_BYTES)]);
    s.world.add_app(s.ether_host, Box::new(server));
    let client = FileClient::new(ETHER_HOST_IP, 21, "paper.dvi");
    let client = s.world.add_app(s.pc, Box::new(client));
    s.world.run_for(SimDuration::from_secs(3600));
    let rep = s.world.app(client).report();
    FtpRun {
        received: rep.received,
        intact: rep.intact && rep.done,
        duration: rep.duration(),
        link: radio_link_stats(&s),
    }
}

impl InteractiveRun {
    fn bytes_per_keystroke(&self) -> f64 {
        self.link.ip_bytes as f64 / self.echoed.max(1) as f64
    }
}

impl FtpRun {
    fn goodput(&self) -> f64 {
        match self.duration {
            Some(d) if d.as_secs_f64() > 0.0 => self.received as f64 / d.as_secs_f64(),
            _ => 0.0,
        }
    }
}

fn mode(vj: bool) -> &'static str {
    if vj {
        "vj on"
    } else {
        "vj off"
    }
}

pub fn run(x: &mut Report) {
    x.banner(
        "E13",
        "VJ (RFC 1144) TCP/IP header compression on the radio link",
        "AX.25 reserves PIDs 0x06/0x07 for compressed TCP/IP; a 1-byte \
         telnet echo otherwise costs ~41x its payload in header airtime",
    );

    // --- interactive: stop-and-wait keystroke echo --------------------------
    let (off, on) = (interactive(false), interactive(true));
    x.text(format_args!(
        "interactive (typist, {KEYSTROKES} keystrokes, remote echo):"
    ));
    for (vj, r) in [(false, &off), (true, &on)] {
        let complete = x.claim(
            "DESIGN.md §8",
            &format!("with {}, all 40 keystrokes are echoed back", mode(vj)),
            r.done && r.echoed == KEYSTROKES,
        );
        x.row(&[
            ("mode", &mode(vj)),
            (
                "echoes",
                &format_args!(
                    "{}/{}{}",
                    r.echoed,
                    KEYSTROKES,
                    if complete { "" } else { " (INCOMPLETE)" }
                ),
            ),
            (
                "mean RTT",
                &r.mean_rtt.map_or("-".into(), |d| d.to_string()),
            ),
            ("chars/s", &format_args!("{:.2}", r.chars_per_sec)),
            ("TCP/IP B on air", &r.link.ip_bytes),
            (
                "B/keystroke",
                &format_args!("{:.1}", r.bytes_per_keystroke()),
            ),
            ("hdr B saved", &r.link.saved),
            (
                "comp/refresh",
                &format_args!("{}/{}", r.link.compressed, r.link.refreshes),
            ),
        ]);
    }
    x.end_table();

    let ip_ratio = off.bytes_per_keystroke() / on.bytes_per_keystroke();
    let rtt_ratio = match (off.mean_rtt, on.mean_rtt) {
        (Some(a), Some(b)) if b.as_secs_f64() > 0.0 => a.as_secs_f64() / b.as_secs_f64(),
        _ => 0.0,
    };
    let rate_ratio = if off.chars_per_sec > 0.0 {
        on.chars_per_sec / off.chars_per_sec
    } else {
        0.0
    };
    x.text(format_args!(
        "interactive IP goodput: {ip_ratio:.1}x fewer TCP/IP bytes per keystroke"
    ));
    x.text(format_args!(
        "session level: {rate_ratio:.2}x chars/s, {rtt_ratio:.2}x echo RTT — capped near the"
    ));
    x.text("(40+1+19)/(4+1+19) = 2.6x frame ceiling by AX.25+KISS per-frame overhead");
    x.text("");

    // --- bulk: 6 kB FTP get --------------------------------------------------
    let (foff, fon) = (ftp(false), ftp(true));
    x.text(format_args!(
        "bulk (ftp get {FILE_BYTES} B, MSS clamped to radio MTU in both runs):"
    ));
    for (vj, r) in [(false, &foff), (true, &fon)] {
        let intact = x.claim(
            "DESIGN.md §8",
            &format!("with {}, the 6000-byte file arrives intact", mode(vj)),
            r.intact && r.received == FILE_BYTES,
        );
        x.row(&[
            ("mode", &mode(vj)),
            (
                "outcome",
                &if intact {
                    format!("{} B intact", r.received)
                } else {
                    format!("FAILED ({} B)", r.received)
                },
            ),
            (
                "duration",
                &r.duration.map_or("-".into(), |d| d.to_string()),
            ),
            ("goodput B/s", &format_args!("{:.1}", r.goodput())),
            ("TCP/IP B on air", &r.link.ip_bytes),
            ("hdr B saved", &r.link.saved),
        ]);
    }
    x.end_table();
    let ftp_ratio = fon.goodput() / foff.goodput();
    if foff.goodput() > 0.0 {
        x.text(format_args!(
            "ftp goodput: {ftp_ratio:.2}x — data segments are header-light already"
        ));
    }
    x.text("");
    x.text("expected shape: >=3x interactive IP goodput (B/keystroke), ~9x typical;");
    x.text("session chars/s gains bounded ~2.6x by frame overhead; ftp ~1.1x; all");
    x.text("transfers intact, compressed streams resynchronise via 0x07 refreshes.");

    x.claim(
        "DESIGN.md §8",
        "VJ compression cuts the TCP/IP bytes on the air per echoed keystroke by at least 3x",
        ip_ratio >= 3.0,
    );
    x.claim(
        "DESIGN.md §8",
        "the session-level gain is real but stays under the 2.6x frame ceiling AX.25 + KISS overhead sets: 1 < chars/s ratio < 2.6 and 1 < echo-RTT ratio < 2.6",
        (1.0 < rate_ratio && rate_ratio < 2.6) && (1.0 < rtt_ratio && rtt_ratio < 2.6),
    );
    x.claim(
        "DESIGN.md §8",
        "bulk transfer gains least: FTP goodput improves (ratio > 1) by less than the interactive chars/s ratio",
        1.0 < ftp_ratio && ftp_ratio < rate_ratio,
    );
    x.claim(
        "§2.2",
        "the compressed PIDs carry the traffic only when switched on: header bytes are saved and at least 1 refresh (PID 0x07) is sent with VJ on, none of either with it off",
        on.link.saved > 0
            && on.link.refreshes >= 1
            && fon.link.saved > 0
            && off.link.saved + off.link.refreshes + foff.link.saved == 0,
    );
}
