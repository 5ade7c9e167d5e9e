//! A userspace DNS resolver and name server over the socket layer.
//!
//! The socket layer's capstone application: once the gateway mesh can carry UDP
//! end to end, hosts should not need to memorise 44.x.y.z addresses.
//! [`DnsServer`] serves an A-record subset of RFC 1035 from a static
//! zone (the AMPRnet callsign→address table a coordinator would
//! publish), and [`Resolver`] is the stub clients link against:
//! cache-with-TTL, retry-with-deadline, and a [`ResolverCore`] that
//! the experiment driver queries through the world
//! ([`Resolver::core_mut`] on `World::app_mut`).
//!
//! The wire format is real RFC 1035 — 12-byte header, QNAME label
//! sequence, QTYPE/QCLASS, answers with the classic `0xC00C` compression
//! pointer back to the question name — restricted to QTYPE=A, QCLASS=IN,
//! one question per message. NXDOMAIN is RCODE 3.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use netstack::socket::{Readiness, SocketHandle};
use sim::{SimDuration, SimTime};

use crate::sockapp::{SockApp, SockCtx, SocketProgram};

/// The well-known DNS port.
pub const DNS_PORT: u16 = 53;

/// How long the stub waits for an answer before retransmitting.
const RETRY_AFTER: SimDuration = SimDuration::from_secs(5);

/// Transmissions per query before the stub gives up.
const MAX_TRIES: u32 = 4;

// ---------------------------------------------------------------------------
// Wire codec (RFC 1035 subset: one A/IN question, one answer)
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn get_u16(buf: &[u8], at: usize) -> Option<u16> {
    Some(u16::from_be_bytes([*buf.get(at)?, *buf.get(at + 1)?]))
}

fn put_name(out: &mut Vec<u8>, name: &str) {
    for label in name.split('.').filter(|l| !l.is_empty()) {
        let label = &label.as_bytes()[..label.len().min(63)];
        out.push(label.len() as u8);
        out.extend_from_slice(label);
    }
    out.push(0);
}

/// Reads a label sequence at `at`; returns (lower-cased name, next offset).
/// A compression pointer terminates the walk (the target is not chased —
/// the only pointer this codec emits is `0xC00C`, the question name).
/// One walk sizes the name and a second fills it, so a name is one
/// allocation, not one per label.
fn get_name(buf: &[u8], at: usize) -> Option<(String, usize)> {
    let mut len = 0;
    let next = walk_labels(buf, at, |label| len += usize::from(len > 0) + label.len())?;
    let mut name = String::with_capacity(len);
    walk_labels(buf, at, |label| {
        if !name.is_empty() {
            name.push('.');
        }
        let start = name.len();
        name.push_str(&String::from_utf8_lossy(label));
        name[start..].make_ascii_lowercase();
    });
    Some((name, next))
}

/// Hands each label of the sequence at `at` to `f`, in order; returns
/// the offset after the sequence, or `None` if it runs off `buf`.
fn walk_labels(buf: &[u8], at: usize, mut f: impl FnMut(&[u8])) -> Option<usize> {
    let mut pos = at;
    loop {
        let len = *buf.get(pos)? as usize;
        if len & 0xC0 == 0xC0 {
            return Some(pos + 2);
        }
        if len == 0 {
            return Some(pos + 1);
        }
        f(buf.get(pos + 1..pos + 1 + len)?);
        pos += 1 + len;
    }
}

/// Encodes a standard query for the A record of `name`.
pub fn encode_query(id: u16, name: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(17 + name.len());
    put_u16(&mut out, id);
    put_u16(&mut out, 0x0100); // RD
    put_u16(&mut out, 1); // QDCOUNT
    put_u16(&mut out, 0);
    put_u16(&mut out, 0);
    put_u16(&mut out, 0);
    put_name(&mut out, name);
    put_u16(&mut out, 1); // QTYPE=A
    put_u16(&mut out, 1); // QCLASS=IN
    out
}

/// Decodes a query: (id, name). `None` on anything but one A/IN question.
pub(crate) fn decode_query(buf: &[u8]) -> Option<(u16, String)> {
    let id = get_u16(buf, 0)?;
    let flags = get_u16(buf, 2)?;
    if flags & 0x8000 != 0 || get_u16(buf, 4)? != 1 {
        return None;
    }
    let (name, after) = get_name(buf, 12)?;
    if get_u16(buf, after)? != 1 || get_u16(buf, after + 2)? != 1 {
        return None;
    }
    Some((id, name))
}

/// Encodes a response to the query for `name`: an A record if
/// `answer` is `Some((addr, ttl))`, NXDOMAIN otherwise.
pub(crate) fn encode_response(id: u16, name: &str, answer: Option<(Ipv4Addr, u32)>) -> Vec<u8> {
    let mut out = Vec::with_capacity(33 + name.len());
    put_u16(&mut out, id);
    // QR | AA | RD | RA, plus RCODE 3 when the name is not ours.
    let rcode = if answer.is_some() { 0 } else { 3 };
    put_u16(&mut out, 0x8580 | rcode);
    put_u16(&mut out, 1); // QDCOUNT: question echoed
    put_u16(&mut out, u16::from(answer.is_some())); // ANCOUNT
    put_u16(&mut out, 0);
    put_u16(&mut out, 0);
    put_name(&mut out, name);
    put_u16(&mut out, 1);
    put_u16(&mut out, 1);
    if let Some((addr, ttl)) = answer {
        put_u16(&mut out, 0xC00C); // pointer to the question name
        put_u16(&mut out, 1); // TYPE=A
        put_u16(&mut out, 1); // CLASS=IN
        out.extend_from_slice(&ttl.to_be_bytes());
        put_u16(&mut out, 4); // RDLENGTH
        out.extend_from_slice(&addr.octets());
    }
    out
}

/// A decoded answer record: `Some((addr, ttl))`, or `None` for
/// NXDOMAIN / no answer.
pub type DnsAnswer = Option<(Ipv4Addr, u32)>;

/// Decodes a response into (id, name, answer).
pub fn decode_response(buf: &[u8]) -> Option<(u16, String, DnsAnswer)> {
    let id = get_u16(buf, 0)?;
    let flags = get_u16(buf, 2)?;
    if flags & 0x8000 == 0 {
        return None;
    }
    let (name, mut pos) = get_name(buf, 12)?;
    pos += 4; // QTYPE + QCLASS
    if flags & 0x000F != 0 || get_u16(buf, 6)? == 0 {
        return Some((id, name, None));
    }
    let apos = walk_labels(buf, pos, |_| {})?;
    let rtype = get_u16(buf, apos)?;
    let ttl = u32::from_be_bytes([
        *buf.get(apos + 4)?,
        *buf.get(apos + 5)?,
        *buf.get(apos + 6)?,
        *buf.get(apos + 7)?,
    ]);
    let rdlen = get_u16(buf, apos + 8)? as usize;
    if rtype != 1 || rdlen != 4 {
        return Some((id, name, None));
    }
    let rd = buf.get(apos + 10..apos + 14)?;
    let addr = Ipv4Addr::new(rd[0], rd[1], rd[2], rd[3]);
    Some((id, name, Some((addr, ttl))))
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Name server counters.
#[derive(Debug, Default)]
pub struct DnsServerReport {
    /// Queries received and parsed.
    pub queries: u64,
    /// Answered with an A record.
    pub answered: u64,
    /// Answered NXDOMAIN.
    pub nxdomain: u64,
    /// Datagrams that would not parse as a query.
    pub malformed: u64,
}

/// An authoritative A-record server for a static zone on UDP port 53.
pub type DnsServer = SockApp<DnsServerProgram>;

/// The socket program behind [`DnsServer`].
pub struct DnsServerProgram {
    zone: HashMap<String, Ipv4Addr>,
    ttl: u32,
    sock: Option<SocketHandle>,
    report: DnsServerReport,
}

impl DnsServer {
    /// Serves `zone` (name → address) with the given answer TTL.
    pub fn new(zone: &[(&str, Ipv4Addr)], ttl: SimDuration) -> DnsServer {
        SockApp::from(DnsServerProgram {
            zone: zone
                .iter()
                .map(|(n, a)| (n.to_ascii_lowercase(), *a))
                .collect(),
            ttl: ttl.as_secs_f64() as u32,
            sock: None,
            report: DnsServerReport::default(),
        })
    }

    /// What the app has recorded so far.
    pub fn report(&self) -> &DnsServerReport {
        &self.program.report
    }
}

impl SocketProgram for DnsServerProgram {
    fn on_start(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        self.sock = Some(cx.bind_udp(now, DNS_PORT).expect("port 53 free"));
    }

    fn on_ready(&mut self, now: SimTime, h: SocketHandle, ready: Readiness, cx: &mut SockCtx<'_>) {
        if Some(h) != self.sock || !ready.readable() {
            return;
        }
        while let Ok((src, sport, query)) = cx
            .host
            .stack
            .sock_recv_from(h, |src, sport, dgram| (src, sport, decode_query(dgram)))
        {
            let Some((id, name)) = query else {
                self.report.malformed += 1;
                continue;
            };
            let answer = self.zone.get(&name).map(|&a| (a, self.ttl));
            self.report.queries += 1;
            if answer.is_some() {
                self.report.answered += 1;
            } else {
                self.report.nxdomain += 1;
            }
            let resp = encode_response(id, &name, answer);
            let _ = cx
                .host
                .stack_op(now, |st| st.sock_send_to(h, src, sport, resp));
        }
    }
}

// ---------------------------------------------------------------------------
// Stub resolver
// ---------------------------------------------------------------------------

/// Resolver statistics.
#[derive(Debug, Default)]
pub struct ResolverStats {
    /// Query datagrams transmitted (including retries).
    pub queries_sent: u64,
    /// Answers accepted.
    pub answers: u64,
    /// Lookups served straight from the cache.
    pub from_cache: u64,
    /// Retransmissions.
    pub retries: u64,
    /// Lookups abandoned after `MAX_TRIES`.
    pub failures: u64,
}

/// The request half of the stub resolver: its owner calls
/// [`ResolverCore::resolve`]/[`ResolverCore::result`] on this; the
/// [`Resolver`] app drains the request queue onto the wire.
#[derive(Debug)]
pub struct ResolverCore {
    server: Ipv4Addr,
    cache: HashMap<String, (Ipv4Addr, SimTime)>,
    pending: Vec<String>,
    results: HashMap<String, Option<Ipv4Addr>>,
    /// Running counters.
    pub stats: ResolverStats,
}

impl ResolverCore {
    /// A core pointed at `server`.
    pub fn new(server: Ipv4Addr) -> ResolverCore {
        ResolverCore {
            server,
            cache: HashMap::new(),
            pending: Vec::new(),
            results: HashMap::new(),
            stats: ResolverStats::default(),
        }
    }

    /// Non-blocking lookup: a cached, unexpired answer comes back
    /// immediately; otherwise the name is queued for the wire and the
    /// caller polls [`ResolverCore::result`] later.
    pub fn resolve(&mut self, name: &str, now: SimTime) -> Option<Ipv4Addr> {
        let name = name.to_ascii_lowercase();
        if let Some(&(addr, expiry)) = self.cache.get(&name) {
            if now < expiry {
                self.stats.from_cache += 1;
                return Some(addr);
            }
            self.cache.remove(&name);
        }
        if !self.pending.contains(&name) && !self.results.contains_key(&name) {
            self.pending.push(name);
        }
        None
    }

    /// The outcome of a queued lookup: `None` = still in flight,
    /// `Some(None)` = NXDOMAIN or timed out, `Some(Some(addr))` = answer.
    pub fn result(&self, name: &str) -> Option<Option<Ipv4Addr>> {
        self.results.get(&name.to_ascii_lowercase()).copied()
    }
}

struct InFlight {
    name: String,
    deadline: SimTime,
    tries: u32,
}

/// The stub resolver app: owns the UDP socket, drains the
/// [`ResolverCore`] request queue, retries on a timer.
pub type Resolver = SockApp<ResolverProgram>;

/// The socket program behind [`Resolver`].
pub struct ResolverProgram {
    core: ResolverCore,
    port: u16,
    sock: Option<SocketHandle>,
    next_id: u16,
    in_flight: HashMap<u16, InFlight>,
}

impl Resolver {
    /// A resolver querying `server`, bound to local `port`.
    pub fn new(server: Ipv4Addr, port: u16) -> Resolver {
        SockApp::from(ResolverProgram {
            core: ResolverCore::new(server),
            port,
            sock: None,
            next_id: 1,
            in_flight: HashMap::new(),
        })
    }

    /// The resolver's core: results and counters.
    pub fn core(&self) -> &ResolverCore {
        &self.program.core
    }

    /// The resolver's core, to queue lookups on.
    pub fn core_mut(&mut self) -> &mut ResolverCore {
        &mut self.program.core
    }
}

impl ResolverProgram {
    fn transmit(&mut self, now: SimTime, id: u16, cx: &mut SockCtx<'_>) {
        let Some(sock) = self.sock else { return };
        let Some(q) = self.in_flight.get_mut(&id) else {
            return;
        };
        q.deadline = now + RETRY_AFTER;
        q.tries += 1;
        let server = self.core.server;
        let query = encode_query(id, &q.name);
        self.core.stats.queries_sent += 1;
        let _ = cx
            .host
            .stack_op(now, |st| st.sock_send_to(sock, server, DNS_PORT, query));
    }
}

impl SocketProgram for ResolverProgram {
    fn on_start(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        self.sock = Some(cx.bind_udp(now, self.port).expect("resolver port free"));
    }

    fn on_ready(&mut self, now: SimTime, h: SocketHandle, ready: Readiness, cx: &mut SockCtx<'_>) {
        if Some(h) != self.sock || !ready.readable() {
            return;
        }
        while let Ok(response) = cx
            .host
            .stack
            .sock_recv_from(h, |_, _, dgram| decode_response(dgram))
        {
            let Some((id, name, answer)) = response else {
                continue;
            };
            let Some(q) = self.in_flight.remove(&id) else {
                continue;
            };
            if q.name != name {
                self.in_flight.insert(id, q);
                continue;
            }
            let core = &mut self.core;
            core.stats.answers += 1;
            if let Some((addr, ttl)) = answer {
                core.cache.insert(
                    name.clone(),
                    (addr, now + SimDuration::from_secs(u64::from(ttl))),
                );
                core.results.insert(name, Some(addr));
            } else {
                core.results.insert(name, None);
            }
        }
    }

    fn on_tick(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        // New requests queued by consumers since the last visit.
        let pending = std::mem::take(&mut self.core.pending);
        for name in pending {
            let id = self.next_id;
            self.next_id = self.next_id.wrapping_add(1);
            self.in_flight.insert(
                id,
                InFlight {
                    name,
                    deadline: now,
                    tries: 0,
                },
            );
            self.transmit(now, id, cx);
        }
        // Retries and give-ups.
        let expired: Vec<u16> = self
            .in_flight
            .iter()
            .filter(|(_, q)| q.deadline <= now && q.tries > 0)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            if self.in_flight[&id].tries >= MAX_TRIES {
                let q = self.in_flight.remove(&id).unwrap();
                self.core.stats.failures += 1;
                self.core.results.insert(q.name, None);
            } else {
                self.core.stats.retries += 1;
                self.transmit(now, id, cx);
            }
        }
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        let queued = (!self.core.pending.is_empty()).then_some(SimTime::ZERO);
        let retry = self.in_flight.values().map(|q| q.deadline).min();
        match (queued, retry) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_roundtrip() {
        let q = encode_query(0x1234, "kb7uv.ampr.org");
        let (id, name) = decode_query(&q).unwrap();
        assert_eq!(id, 0x1234);
        assert_eq!(name, "kb7uv.ampr.org");
    }

    #[test]
    fn response_roundtrip_with_answer() {
        let addr = Ipv4Addr::new(44, 56, 0, 5);
        let r = encode_response(7, "kb7uv.ampr.org", Some((addr, 300)));
        let (id, name, ans) = decode_response(&r).unwrap();
        assert_eq!(id, 7);
        assert_eq!(name, "kb7uv.ampr.org");
        assert_eq!(ans, Some((addr, 300)));
    }

    #[test]
    fn nxdomain_roundtrip() {
        let r = encode_response(9, "nosuch.ampr.org", None);
        let (id, name, ans) = decode_response(&r).unwrap();
        assert_eq!(id, 9);
        assert_eq!(name, "nosuch.ampr.org");
        assert_eq!(ans, None);
    }

    #[test]
    fn names_are_case_folded() {
        let q = encode_query(1, "KB7UV.Ampr.Org");
        let (_, name) = decode_query(&q).unwrap();
        assert_eq!(name, "kb7uv.ampr.org");
    }

    #[test]
    fn a_name_is_one_allocation_sized_to_fit() {
        let q = encode_query(2, "Gw7.KB7UV.ampr.org");
        let (name, after) = get_name(&q, 12).unwrap();
        assert_eq!(name, "gw7.kb7uv.ampr.org");
        assert_eq!(name.capacity(), name.len());
        assert_eq!(get_u16(&q, after), Some(1), "QTYPE follows the name");
        // A label that is not UTF-8 decodes lossily, as before.
        let mut odd = vec![0; 12];
        odd.extend([2, b'A', 0xFF, 0]);
        let (name, after) = get_name(&odd, 12).unwrap();
        assert_eq!(name, "a\u{FFFD}");
        assert_eq!(after, odd.len());
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(decode_query(&[]).is_none());
        assert!(decode_query(&[0xFF; 7]).is_none());
        assert!(decode_response(&[0x00; 12]).is_none());
        // A response is not a query and vice versa.
        let q = encode_query(3, "a.b");
        assert!(decode_response(&q).is_none());
        let r = encode_response(3, "a.b", None);
        assert!(decode_query(&r).is_none());
    }

    #[test]
    fn truncated_messages_are_rejected() {
        let r = encode_response(5, "host.ampr.org", Some((Ipv4Addr::new(44, 1, 2, 3), 60)));
        for cut in 1..r.len() {
            // Must never panic; short answers may decode as no-answer.
            let _ = decode_response(&r[..r.len() - cut]);
        }
    }

    #[test]
    fn resolver_core_caches_and_expires() {
        let mut c = ResolverCore::new(Ipv4Addr::new(44, 0, 0, 1));
        let t0 = SimTime::ZERO;
        assert_eq!(c.resolve("host.ampr.org", t0), None);
        assert_eq!(c.pending, vec!["host.ampr.org".to_string()]);
        let addr = Ipv4Addr::new(44, 56, 0, 5);
        c.cache.insert(
            "host.ampr.org".into(),
            (addr, t0 + SimDuration::from_secs(300)),
        );
        assert_eq!(c.resolve("HOST.ampr.org", t0), Some(addr));
        // Past the TTL the entry is dropped and the name re-queued.
        c.pending.clear();
        let late = t0 + SimDuration::from_secs(301);
        assert_eq!(c.resolve("host.ampr.org", late), None);
        assert!(c.cache.is_empty());
        assert_eq!(c.pending.len(), 1);
    }
}
