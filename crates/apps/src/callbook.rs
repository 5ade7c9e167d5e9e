//! §5's distributed callbook service, over UDP.
//!
//! *"With a distributed callbook server, data for a particular country,
//! or part of a country, could be maintained on a system local to that
//! area. Given a call sign, an application running on a PC could
//! determine what area the call sign is from, and then send off a query
//! to the appropriate server."* Protocol: `?CALL` queries; a server
//! answers `OK CALL <record>`, refers with `REFER <ip>`, or `ERR`. Both
//! ends are [`SocketProgram`]s (DESIGN.md §10).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use sim::SimTime;
use socket::{Readiness, SocketHandle};

use crate::sockapp::{SockApp, SockCtx, SocketProgram};

/// The well-known callbook port.
pub const CALLBOOK_PORT: u16 = 1235;

/// Most servers one lookup queries. Referrals arrive off the wire, so two
/// servers that refer a prefix to each other must not keep a client
/// bouncing between them: past this many, the lookup ends unanswered.
pub const MAX_HOPS: u32 = 8;

/// Server counters.
#[derive(Debug, Default)]
pub struct CallbookServerReport {
    /// Queries answered from the local database.
    pub answered: u64,
    /// Queries referred elsewhere.
    pub referred: u64,
    /// Queries that failed.
    pub unknown: u64,
}

/// One region's callbook server.
pub type CallbookServer = SockApp<CallbookServerProgram>;

/// The socket program behind [`CallbookServer`].
pub struct CallbookServerProgram {
    sock: Option<SocketHandle>,
    /// Local records: callsign → holder.
    db: HashMap<String, String>,
    /// Referrals: callsign-prefix → server address.
    referrals: Vec<(String, Ipv4Addr)>,
    report: crate::Shared<CallbookServerReport>,
}

impl CallbookServer {
    /// Creates a server with local records and prefix referrals.
    pub fn new(db: &[(&str, &str)], referrals: &[(&str, Ipv4Addr)]) -> CallbookServer {
        SockApp::from(CallbookServerProgram {
            sock: None,
            db: db
                .iter()
                .map(|(c, r)| (c.to_string(), r.to_string()))
                .collect(),
            referrals: referrals
                .iter()
                .map(|(p, ip)| (p.to_string(), *ip))
                .collect(),
            report: crate::shared(CallbookServerReport::default()),
        })
    }

    /// The shared report handle.
    pub fn report(&self) -> crate::Shared<CallbookServerReport> {
        self.program.report.clone()
    }
}

impl SocketProgram for CallbookServerProgram {
    fn on_start(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        self.sock = Some(cx.bind_udp(now, CALLBOOK_PORT).expect("callbook port"));
    }

    fn on_ready(&mut self, now: SimTime, h: SocketHandle, ready: Readiness, cx: &mut SockCtx<'_>) {
        if Some(h) != self.sock || !ready.readable() {
            return;
        }
        while let Ok((src, sport, reply)) = cx
            .host
            .sock_recv_from(h, |src, sport, query| (src, sport, self.reply(query)))
        {
            if let Some(reply) = reply {
                let _ = cx.host.sock_send_to(now, h, src, sport, reply.into_bytes());
            }
        }
    }
}

impl CallbookServerProgram {
    /// The answer to one datagram, counted; `None` when it is no query.
    fn reply(&self, query: &[u8]) -> Option<String> {
        let query = String::from_utf8_lossy(query);
        let call = query.trim().strip_prefix('?')?;
        let mut report = self.report.borrow_mut();
        Some(if let Some(record) = self.db.get(call) {
            report.answered += 1;
            format!("OK {call} {record}")
        } else if let Some((_, ip)) = self
            .referrals
            .iter()
            .find(|(prefix, _)| call.starts_with(prefix.as_str()))
        {
            report.referred += 1;
            format!("REFER {ip}")
        } else {
            report.unknown += 1;
            "ERR unknown callsign".to_string()
        })
    }
}

/// Client outcome.
#[derive(Debug, Default)]
pub struct CallbookClientReport {
    /// The final answer line, if any.
    pub answer: Option<String>,
    /// Servers contacted along the way.
    pub hops: u32,
    /// Lookup finished.
    pub done: bool,
}

/// A client that resolves one callsign, following referrals.
pub type CallbookClient = SockApp<CallbookClientProgram>;

/// The socket program behind [`CallbookClient`].
pub struct CallbookClientProgram {
    first_server: Ipv4Addr,
    callsign: String,
    sock: Option<SocketHandle>,
    local_port: u16,
    report: crate::Shared<CallbookClientReport>,
}

impl CallbookClient {
    /// Looks up `callsign` starting at `first_server`.
    pub fn new(first_server: Ipv4Addr, callsign: &str, local_port: u16) -> CallbookClient {
        SockApp::from(CallbookClientProgram {
            first_server,
            callsign: callsign.to_string(),
            sock: None,
            local_port,
            report: crate::shared(CallbookClientReport::default()),
        })
    }

    /// The shared report handle.
    pub fn report(&self) -> crate::Shared<CallbookClientReport> {
        self.program.report.clone()
    }
}

impl CallbookClientProgram {
    fn query(&mut self, now: SimTime, server: Ipv4Addr, cx: &mut SockCtx<'_>) {
        let Some(h) = self.sock else {
            return;
        };
        self.report.borrow_mut().hops += 1;
        let q = format!("?{}", self.callsign);
        let _ = cx
            .host
            .sock_send_to(now, h, server, CALLBOOK_PORT, q.into_bytes());
    }
}

impl SocketProgram for CallbookClientProgram {
    fn on_start(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        self.sock = cx.bind_udp(now, self.local_port).ok();
        let server = self.first_server;
        self.query(now, server, cx);
    }

    fn on_ready(&mut self, now: SimTime, h: SocketHandle, ready: Readiness, cx: &mut SockCtx<'_>) {
        if Some(h) != self.sock || !ready.readable() {
            return;
        }
        while let Ok(line) = cx.host.sock_recv_from(h, |_, _, payload| {
            String::from_utf8_lossy(payload).trim().to_string()
        }) {
            let referral = line
                .strip_prefix("REFER ")
                .and_then(|target| target.parse::<Ipv4Addr>().ok());
            if let Some(ip) = referral {
                if self.report.borrow().hops < MAX_HOPS {
                    self.query(now, ip, cx);
                } else {
                    self.report.borrow_mut().done = true;
                }
                continue;
            }
            let mut r = self.report.borrow_mut();
            r.answer = Some(line);
            r.done = true;
        }
    }
}
