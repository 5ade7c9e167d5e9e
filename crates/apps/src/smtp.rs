//! Electronic mail: a minimal SMTP exchange.
//!
//! §2.3's third service ("electronic mail"). The dialogue is the classic
//! HELO / MAIL FROM / RCPT TO / DATA / "." / QUIT, enough to move one
//! message across the gateway in either direction. Both ends are
//! [`SocketProgram`]s (DESIGN.md §10).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use sim::SimTime;
use socket::{Readiness, SocketHandle};

use crate::sockapp::{SockApp, SockCtx, SocketProgram};

/// One delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mail {
    /// Envelope sender.
    pub from: String,
    /// Envelope recipient.
    pub to: String,
    /// Message body lines.
    pub body: Vec<String>,
}

/// Server-side mailbox and counters.
#[derive(Debug, Default)]
pub struct SmtpServerReport {
    /// Messages accepted.
    pub mailbox: Vec<Mail>,
    /// Sessions seen.
    pub sessions: u64,
}

#[derive(Debug, Default)]
struct SmtpSession {
    buf: Vec<u8>,
    from: String,
    to: String,
    in_data: bool,
    body: Vec<String>,
}

/// A minimal SMTP server.
pub type SmtpServer = SockApp<SmtpServerProgram>;

/// The socket program behind [`SmtpServer`].
pub struct SmtpServerProgram {
    port: u16,
    hostname: String,
    listener: Option<SocketHandle>,
    sessions: HashMap<SocketHandle, SmtpSession>,
    report: crate::Shared<SmtpServerReport>,
}

impl SmtpServer {
    /// Creates a server on `port` announcing `hostname`.
    pub fn new(port: u16, hostname: &str) -> SmtpServer {
        SockApp::from(SmtpServerProgram {
            port,
            hostname: hostname.to_string(),
            listener: None,
            sessions: HashMap::new(),
            report: crate::shared(SmtpServerReport::default()),
        })
    }

    /// The shared report handle.
    pub fn report(&self) -> crate::Shared<SmtpServerReport> {
        self.program.report.clone()
    }
}

impl SmtpServerProgram {
    fn handle_line(&mut self, h: SocketHandle, line: &str) -> (String, bool) {
        let session = self.sessions.entry(h).or_default();
        if session.in_data {
            if line == "." {
                session.in_data = false;
                let mail = Mail {
                    from: session.from.clone(),
                    to: session.to.clone(),
                    body: std::mem::take(&mut session.body),
                };
                self.report.borrow_mut().mailbox.push(mail);
                return ("250 Ok: queued\r\n".to_string(), false);
            }
            session.body.push(line.to_string());
            return (String::new(), false);
        }
        let upper = line.to_ascii_uppercase();
        if upper.starts_with("HELO") {
            (format!("250 {} Hello\r\n", self.hostname), false)
        } else if upper.starts_with("MAIL FROM:") {
            session.from = line[10..].trim().to_string();
            ("250 Ok\r\n".to_string(), false)
        } else if upper.starts_with("RCPT TO:") {
            session.to = line[8..].trim().to_string();
            ("250 Ok\r\n".to_string(), false)
        } else if upper.starts_with("DATA") {
            session.in_data = true;
            ("354 End data with .\r\n".to_string(), false)
        } else if upper.starts_with("QUIT") {
            ("221 Bye\r\n".to_string(), true)
        } else {
            ("500 Unrecognized\r\n".to_string(), false)
        }
    }
}

impl SocketProgram for SmtpServerProgram {
    fn on_start(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        self.listener = Some(cx.listen(now, self.port, None).expect("smtp port"));
    }

    fn on_ready(&mut self, now: SimTime, h: SocketHandle, ready: Readiness, cx: &mut SockCtx<'_>) {
        if Some(h) == self.listener {
            while let Ok(sess) = cx.accept(now, h) {
                self.report.borrow_mut().sessions += 1;
                self.sessions.insert(sess, SmtpSession::default());
                let banner = format!("220 {} SMTP ready\r\n", self.hostname);
                let _ = cx.host.sock_send(now, sess, banner.as_bytes());
            }
            return;
        }
        if ready.readable() {
            let data = cx.host.sock_recv(now, h).unwrap_or_default();
            let Some(session) = self.sessions.get_mut(&h) else {
                return;
            };
            session.buf.extend_from_slice(&data);
            while let Some(line) = self
                .sessions
                .get_mut(&h)
                .and_then(|s| crate::take_line(&mut s.buf, b"\n"))
            {
                let (reply, close) = self.handle_line(h, line.trim_end());
                if !reply.is_empty() {
                    let _ = cx.host.sock_send(now, h, reply.as_bytes());
                }
                if close {
                    self.sessions.remove(&h);
                    cx.close(now, h);
                    return;
                }
            }
        } else if (ready.eof() || ready.error()) && self.sessions.remove(&h).is_some() {
            cx.close(now, h);
        }
    }
}

/// Client-side outcome.
#[derive(Debug, Default)]
pub struct SmtpClientReport {
    /// Server replies, in order.
    pub replies: Vec<String>,
    /// The message was accepted (250 after DATA).
    pub delivered: bool,
    /// Session finished.
    pub done: bool,
    /// When it finished.
    pub finished_at: Option<SimTime>,
}

/// A client that submits one message.
pub type SmtpClient = SockApp<SmtpClientProgram>;

/// The socket program behind [`SmtpClient`].
pub struct SmtpClientProgram {
    dst: Ipv4Addr,
    port: u16,
    mail: Mail,
    sock: Option<SocketHandle>,
    buf: Vec<u8>,
    step: usize,
    report: crate::Shared<SmtpClientReport>,
}

impl SmtpClient {
    /// Sends `mail` to `dst:port`.
    pub fn new(dst: Ipv4Addr, port: u16, mail: Mail) -> SmtpClient {
        SockApp::from(SmtpClientProgram {
            dst,
            port,
            mail,
            sock: None,
            buf: Vec::new(),
            step: 0,
            report: crate::shared(SmtpClientReport::default()),
        })
    }

    /// The shared report handle.
    pub fn report(&self) -> crate::Shared<SmtpClientReport> {
        self.program.report.clone()
    }
}

impl SmtpClientProgram {
    fn next_command(&mut self) -> Option<String> {
        let cmd = match self.step {
            0 => Some("HELO pc.ampr.org\r\n".to_string()),
            1 => Some(format!("MAIL FROM:{}\r\n", self.mail.from)),
            2 => Some(format!("RCPT TO:{}\r\n", self.mail.to)),
            3 => Some("DATA\r\n".to_string()),
            4 => {
                let mut s = String::new();
                for line in &self.mail.body {
                    s.push_str(line);
                    s.push_str("\r\n");
                }
                s.push_str(".\r\n");
                Some(s)
            }
            5 => Some("QUIT\r\n".to_string()),
            _ => None,
        };
        self.step += 1;
        cmd
    }
}

impl SocketProgram for SmtpClientProgram {
    fn on_start(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        self.sock = cx.connect(now, self.dst, self.port).ok();
    }

    fn on_ready(&mut self, now: SimTime, h: SocketHandle, ready: Readiness, cx: &mut SockCtx<'_>) {
        if Some(h) != self.sock {
            return;
        }
        if ready.readable() {
            let data = cx.host.sock_recv(now, h).unwrap_or_default();
            self.buf.extend_from_slice(&data);
            while let Some(line) = crate::take_line(&mut self.buf, b"\n") {
                let line = line.trim_end();
                {
                    let mut r = self.report.borrow_mut();
                    // "250 Ok: queued" after the DATA body means delivery.
                    if self.step == 5 && line.starts_with("250") {
                        r.delivered = true;
                    }
                    r.replies.push(line.to_string());
                }
                // Every server reply advances the script one command.
                if line.starts_with('2') || line.starts_with('3') {
                    if let Some(cmd) = self.next_command() {
                        let _ = cx.host.sock_send(now, h, cmd.as_bytes());
                    }
                }
                if line.starts_with("221") {
                    cx.close(now, h);
                    self.sock = None;
                    let mut r = self.report.borrow_mut();
                    r.done = true;
                    r.finished_at = Some(now);
                    return;
                }
            }
        } else if ready.eof() || ready.error() {
            cx.close(now, h);
            self.sock = None;
        }
    }
}
