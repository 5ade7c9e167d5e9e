//! Connected-mode AX.25 endpoints: the BBS and terminal users.
//!
//! §1 of the paper describes the pre-IP world these users live in: they
//! *"simply typed streams of data at each other"* or connected to
//! *"packet bulletin board software"*. These apps drive the AX.25
//! level-2 connection machine over a host's tty divert queue — exactly
//! the user-space arrangement §2.4 proposes — and exercise both the BBS
//! experience and the §2.4 application gateway (a terminal user
//! connecting *through* the gateway to a TCP service).

use std::collections::BTreeMap;

use ax25::addr::Ax25Addr;
use ax25::conn::{ConnEvent, Connection};
use gateway::world::App;
use gateway::Host;
use sim::SimTime;

/// BBS-side records.
#[derive(Debug, Default)]
pub struct BbsReport {
    /// Connections accepted.
    pub sessions: u64,
    /// Commands handled.
    pub commands: u64,
    /// Messages posted via `S`.
    pub posted: Vec<(String, String)>,
}

struct BbsSession {
    conn: Connection,
    line: Vec<u8>,
    /// Subject of a message being composed, if mid-`S`.
    composing: Option<(String, Vec<String>)>,
}

/// A packet BBS: LIST / READ n / S subject … /EX / QUIT over AX.25.
pub struct BbsServer {
    my_call: Ax25Addr,
    bulletins: Vec<(String, String)>,
    sessions: BTreeMap<Ax25Addr, BbsSession>,
    report: BbsReport,
}

impl BbsServer {
    /// Creates a BBS at `my_call` pre-loaded with bulletins.
    pub fn new(my_call: Ax25Addr, bulletins: &[(&str, &str)]) -> BbsServer {
        BbsServer {
            my_call,
            bulletins: bulletins
                .iter()
                .map(|(s, b)| (s.to_string(), b.to_string()))
                .collect(),
            sessions: BTreeMap::new(),
            report: BbsReport::default(),
        }
    }

    /// What the app has recorded so far.
    pub fn report(&self) -> &BbsReport {
        &self.report
    }

    fn prompt() -> &'static str {
        "\rBBS> "
    }

    fn execute(&mut self, peer: Ax25Addr, line: &str) -> (String, bool) {
        self.report.commands += 1;
        let session = self.sessions.get_mut(&peer).expect("session exists");
        if let Some((subject, lines)) = &mut session.composing {
            if line.trim() == "/EX" {
                let posted = (subject.clone(), lines.join("\r"));
                self.bulletins.push(posted.clone());
                self.report.posted.push(posted);
                session.composing = None;
                return (format!("Message saved.{}", Self::prompt()), false);
            }
            lines.push(line.to_string());
            return (String::new(), false);
        }
        let trimmed = line.trim();
        let upper = trimmed.to_ascii_uppercase();
        if upper == "L" || upper == "LIST" {
            let mut out = String::from("\rBulletins:\r");
            for (i, (subj, _)) in self.bulletins.iter().enumerate() {
                out.push_str(&format!("{:>3} {}\r", i + 1, subj));
            }
            out.push_str(Self::prompt());
            (out, false)
        } else if let Some(n) = upper
            .strip_prefix("R ")
            .or_else(|| upper.strip_prefix("READ "))
        {
            match n.trim().parse::<usize>() {
                Ok(i) if i >= 1 && i <= self.bulletins.len() => {
                    let (subj, body) = &self.bulletins[i - 1];
                    (
                        format!("\rSubject: {subj}\r{body}\r{}", Self::prompt()),
                        false,
                    )
                }
                _ => (format!("No such message.{}", Self::prompt()), false),
            }
        } else if let Some(subject) = trimmed
            .strip_prefix("S ")
            .or_else(|| trimmed.strip_prefix("s "))
        {
            session.composing = Some((subject.to_string(), Vec::new()));
            ("Enter message, /EX to end.\r".to_string(), false)
        } else if upper == "Q" || upper == "QUIT" || upper == "B" || upper == "BYE" {
            ("73!\r".to_string(), true)
        } else {
            (format!("?Unknown command.{}", Self::prompt()), false)
        }
    }

    fn drive(&mut self, now: SimTime, peer: Ax25Addr, events: Vec<ConnEvent>, host: &mut Host) {
        for ev in events {
            match ev {
                ConnEvent::SendFrame(f) => host.send_raw_ax25(&f),
                ConnEvent::Established => {
                    self.report.sessions += 1;
                    let greeting = format!(
                        "[BBS-{}]\rWelcome. L=list R n=read S subj=send Q=quit{}",
                        self.my_call,
                        Self::prompt()
                    );
                    let session = self.sessions.get_mut(&peer).expect("exists");
                    let evs = session.conn.send(now, greeting.as_bytes());
                    self.drive(now, peer, evs, host);
                }
                ConnEvent::Data(data) => {
                    let complete_lines: Vec<String> = {
                        let session = self.sessions.get_mut(&peer).expect("exists");
                        session.line.extend_from_slice(&data);
                        let mut lines = Vec::new();
                        while let Some(line) = crate::take_line(&mut session.line, b"\r\n") {
                            lines.push(line.trim_end().to_string());
                        }
                        lines
                    };
                    for line in complete_lines {
                        let (reply, quit) = self.execute(peer, &line);
                        if !reply.is_empty() {
                            let session = self.sessions.get_mut(&peer).expect("exists");
                            let evs = session.conn.send(now, reply.as_bytes());
                            self.drive(now, peer, evs, host);
                        }
                        if quit {
                            let session = self.sessions.get_mut(&peer).expect("exists");
                            let evs = session.conn.disconnect(now);
                            self.drive(now, peer, evs, host);
                        }
                    }
                }
                ConnEvent::Released(_) => {
                    self.sessions.remove(&peer);
                }
            }
        }
    }
}

impl App for BbsServer {
    fn poll(&mut self, now: SimTime, host: &mut Host) {
        for frame in host.take_tty_frames() {
            let peer = frame.source;
            self.sessions.entry(peer).or_insert_with(|| BbsSession {
                conn: Connection::new(self.my_call, peer),
                line: Vec::new(),
                composing: None,
            });
            let events = self
                .sessions
                .get_mut(&peer)
                .expect("just inserted")
                .conn
                .on_frame(now, &frame);
            self.drive(now, peer, events, host);
        }
        // Fire AX.25 timers, in callsign order.
        let due: Vec<Ax25Addr> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.conn.next_deadline().is_some_and(|t| t <= now))
            .map(|(p, _)| *p)
            .collect();
        for peer in due {
            if let Some(s) = self.sessions.get_mut(&peer) {
                let events = s.conn.on_timer(now);
                self.drive(now, peer, events, host);
            }
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.sessions
            .values()
            .filter_map(|s| s.conn.next_deadline())
            .min()
    }
}

/// Terminal-user outcome.
#[derive(Debug, Default)]
pub struct TerminalReport {
    /// Everything received over the link.
    pub transcript: String,
    /// Lines sent.
    pub lines_sent: usize,
    /// The link connected.
    pub connected: bool,
    /// The link released cleanly after the script.
    pub done: bool,
}

/// A scripted keyboard user on an AX.25 connection: waits for each
/// expected substring, sends the paired line.
pub struct TerminalUser {
    my_call: Ax25Addr,
    remote: Ax25Addr,
    script: Vec<(String, String)>,
    step: usize,
    pending: String,
    conn: Option<Connection>,
    report: TerminalReport,
}

impl TerminalUser {
    /// Creates a user that connects `my_call` → `remote` and walks the
    /// expect/send `script`.
    pub fn new(my_call: Ax25Addr, remote: Ax25Addr, script: Vec<(&str, &str)>) -> TerminalUser {
        TerminalUser {
            my_call,
            remote,
            script: script
                .into_iter()
                .map(|(e, s)| (e.to_string(), s.to_string()))
                .collect(),
            step: 0,
            pending: String::new(),
            conn: None,
            report: TerminalReport::default(),
        }
    }

    /// What the app has recorded so far.
    pub fn report(&self) -> &TerminalReport {
        &self.report
    }

    fn drive(&mut self, now: SimTime, events: Vec<ConnEvent>, host: &mut Host) {
        for ev in events {
            match ev {
                ConnEvent::SendFrame(f) => host.send_raw_ax25(&f),
                ConnEvent::Established => {
                    self.report.connected = true;
                }
                ConnEvent::Data(data) => {
                    let text = String::from_utf8_lossy(&data).to_string();
                    self.pending.push_str(&text);
                    self.report.transcript.push_str(&text);
                    self.advance_script(now, host);
                }
                ConnEvent::Released(_) => {
                    self.report.done = self.step >= self.script.len();
                }
            }
        }
    }

    fn advance_script(&mut self, now: SimTime, host: &mut Host) {
        while let Some((expect, send)) = self.script.get(self.step).cloned() {
            let Some(pos) = self.pending.find(expect.as_str()) else {
                break;
            };
            self.pending.drain(..pos + expect.len());
            self.step += 1;
            self.report.lines_sent += 1;
            let Some(conn) = &mut self.conn else { break };
            let events = conn.send(now, send.as_bytes());
            self.drive(now, events, host);
        }
    }
}

impl App for TerminalUser {
    fn on_start(&mut self, now: SimTime, host: &mut Host) {
        let mut conn = Connection::new(self.my_call, self.remote);
        let events = conn.connect(now);
        self.conn = Some(conn);
        self.drive(now, events, host);
    }

    fn poll(&mut self, now: SimTime, host: &mut Host) {
        let frames = host.take_tty_frames();
        for frame in frames {
            if frame.source != self.remote {
                continue;
            }
            let Some(conn) = &mut self.conn else {
                continue;
            };
            let events = conn.on_frame(now, &frame);
            self.drive(now, events, host);
        }
        let due = self
            .conn
            .as_ref()
            .and_then(|c| c.next_deadline())
            .is_some_and(|t| t <= now);
        if due {
            let events = self.conn.as_mut().expect("checked").on_timer(now);
            self.drive(now, events, host);
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.conn.as_ref().and_then(|c| c.next_deadline())
    }
}
