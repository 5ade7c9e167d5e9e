//! A telnet-style remote login: scripted client, canned login server.
//!
//! This is the paper's flagship demonstration: *"we were able to telnet
//! from an isolated IBM PC to a system that was on our Ethernet by way of
//! the new gateway"* (§2.3). The server mimics a 4.3BSD login dialogue;
//! the client walks an expect/send script and keeps a transcript. Both
//! are [`SocketProgram`]s (DESIGN.md §10).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use sim::SimTime;
use socket::{Readiness, SocketHandle};

use crate::sockapp::{SockApp, SockCtx, SocketProgram};

/// Per-session server state.
enum LoginState {
    AwaitLogin,
    AwaitPassword,
    Shell,
}

/// Telnet server counters.
#[derive(Debug, Default)]
pub struct TelnetServerReport {
    /// Sessions accepted.
    pub sessions: u64,
    /// Commands executed at the fake shell.
    pub commands: u64,
}

/// A canned login server ("vax2").
pub type TelnetServer = SockApp<TelnetServerProgram>;

/// The socket program behind [`TelnetServer`].
pub struct TelnetServerProgram {
    port: u16,
    hostname: String,
    listener: Option<SocketHandle>,
    sessions: HashMap<SocketHandle, (LoginState, Vec<u8>)>,
    report: crate::Shared<TelnetServerReport>,
}

impl TelnetServer {
    /// Creates a server for `port` announcing `hostname`.
    pub fn new(port: u16, hostname: &str) -> TelnetServer {
        SockApp::from(TelnetServerProgram {
            port,
            hostname: hostname.to_string(),
            listener: None,
            sessions: HashMap::new(),
            report: crate::shared(TelnetServerReport::default()),
        })
    }

    /// The shared report handle.
    pub fn report(&self) -> crate::Shared<TelnetServerReport> {
        self.program.report.clone()
    }
}

impl TelnetServerProgram {
    fn respond(&mut self, state: &mut LoginState, line: &str) -> (String, bool) {
        match state {
            LoginState::AwaitLogin => {
                *state = LoginState::AwaitPassword;
                ("Password:".to_string(), false)
            }
            LoginState::AwaitPassword => {
                *state = LoginState::Shell;
                (
                    format!("Last login: Tue Jun 14 09:21:03\r\n{}% ", self.hostname),
                    false,
                )
            }
            LoginState::Shell => {
                self.report.borrow_mut().commands += 1;
                match line.trim() {
                    "date" => (
                        format!("Tue Jun 14 09:22:41 PDT 1988\r\n{}% ", self.hostname),
                        false,
                    ),
                    "who" => (
                        format!(
                            "bcn  ttyp0  (kb7dz via packet radio)\r\n{}% ",
                            self.hostname
                        ),
                        false,
                    ),
                    "logout" | "exit" => ("Connection closed.\r\n".to_string(), true),
                    other => (
                        format!("{other}: Command not found.\r\n{}% ", self.hostname),
                        false,
                    ),
                }
            }
        }
    }
}

impl SocketProgram for TelnetServerProgram {
    fn on_start(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        self.listener = Some(cx.listen(now, self.port, None).expect("telnet port"));
    }

    fn on_ready(&mut self, now: SimTime, h: SocketHandle, ready: Readiness, cx: &mut SockCtx<'_>) {
        if Some(h) == self.listener {
            while let Ok(sess) = cx.accept(now, h) {
                self.report.borrow_mut().sessions += 1;
                self.sessions
                    .insert(sess, (LoginState::AwaitLogin, Vec::new()));
                let banner = format!("4.3 BSD UNIX ({})\r\n\r\nlogin: ", self.hostname);
                let _ = cx.host.sock_send(now, sess, banner.as_bytes());
            }
            return;
        }
        if ready.readable() {
            let data = cx.host.sock_recv(now, h).unwrap_or_default();
            let Some((mut state, mut buf)) = self.sessions.remove(&h) else {
                return;
            };
            buf.extend_from_slice(&data);
            // Terminals send \r, IP clients send \n: accept both, and
            // skip the empty remainder of a \r\n pair.
            while let Some(line) = crate::take_line(&mut buf, b"\n\r") {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let (reply, close) = self.respond(&mut state, line);
                let _ = cx.host.sock_send(now, h, reply.as_bytes());
                if close {
                    cx.close(now, h);
                    return;
                }
            }
            self.sessions.insert(h, (state, buf));
        } else if (ready.eof() || ready.error()) && self.sessions.remove(&h).is_some() {
            cx.close(now, h);
        }
    }
}

/// Results of a scripted telnet session.
#[derive(Debug, Default)]
pub struct TelnetClientReport {
    /// Everything the server sent.
    pub transcript: String,
    /// Script lines actually sent.
    pub lines_sent: usize,
    /// Session finished (connection closed after script).
    pub done: bool,
    /// When the session ended.
    pub finished_at: Option<SimTime>,
}

/// A scripted telnet client: waits for each expected prompt, sends the
/// paired line.
pub type TelnetClient = SockApp<TelnetClientProgram>;

/// The socket program behind [`TelnetClient`].
pub struct TelnetClientProgram {
    dst: Ipv4Addr,
    port: u16,
    /// (expect substring, line to send) pairs, in order.
    script: Vec<(String, String)>,
    step: usize,
    sock: Option<SocketHandle>,
    /// Unmatched server output (prompts are consumed as they match).
    pending: String,
    report: crate::Shared<TelnetClientReport>,
}

impl TelnetClient {
    /// Creates a client that walks `script` against `dst:port`.
    pub fn new(dst: Ipv4Addr, port: u16, script: Vec<(&str, &str)>) -> TelnetClient {
        SockApp::from(TelnetClientProgram {
            dst,
            port,
            script: script
                .into_iter()
                .map(|(e, s)| (e.to_string(), s.to_string()))
                .collect(),
            step: 0,
            sock: None,
            pending: String::new(),
            report: crate::shared(TelnetClientReport::default()),
        })
    }

    /// The standard demo script: log in, run `date` and `who`, log out.
    pub fn standard_session(dst: Ipv4Addr, port: u16) -> TelnetClient {
        TelnetClient::new(
            dst,
            port,
            vec![
                ("login: ", "bcn\n"),
                ("Password:", "radio\n"),
                ("% ", "date\n"),
                ("% ", "who\n"),
                ("% ", "logout\n"),
            ],
        )
    }

    /// The shared report handle.
    pub fn report(&self) -> crate::Shared<TelnetClientReport> {
        self.program.report.clone()
    }
}

impl TelnetClientProgram {
    fn try_advance(&mut self, now: SimTime, h: SocketHandle, cx: &mut SockCtx<'_>) {
        while let Some((expect, send)) = self.script.get(self.step) {
            let Some(pos) = self.pending.find(expect.as_str()) else {
                break;
            };
            // Consume through the prompt so it is not matched twice.
            self.pending.drain(..pos + expect.len());
            self.report.borrow_mut().lines_sent += 1;
            self.step += 1;
            let _ = cx.host.sock_send(now, h, send.as_bytes());
        }
    }
}

impl SocketProgram for TelnetClientProgram {
    fn on_start(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        self.sock = cx.connect(now, self.dst, self.port).ok();
    }

    fn on_ready(&mut self, now: SimTime, h: SocketHandle, ready: Readiness, cx: &mut SockCtx<'_>) {
        if Some(h) != self.sock {
            return;
        }
        if ready.readable() {
            let data = cx.host.sock_recv(now, h).unwrap_or_default();
            let text = String::from_utf8_lossy(&data);
            self.pending.push_str(&text);
            self.report.borrow_mut().transcript.push_str(&text);
            self.try_advance(now, h, cx);
        } else if ready.eof() || ready.error() {
            cx.close(now, h);
            self.sock = None;
            if ready.eof() {
                let mut r = self.report.borrow_mut();
                r.done = self.step >= self.script.len();
                r.finished_at = Some(now);
            }
        }
    }
}
