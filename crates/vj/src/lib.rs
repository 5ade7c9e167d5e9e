//! RFC 1144 (CSLIP) Van Jacobson TCP/IP header compression.
//!
//! The 1988 packet-radio port left every interactive TCP segment carrying
//! its full 40-byte TCP/IP header onto a 1200 bit/s channel, so a one-byte
//! telnet echo cost ~41x its payload in airtime.  RFC 1144 fixes that by
//! observing that within one TCP connection almost nothing in the header
//! changes packet to packet: the compressor keeps the last header it sent
//! per connection in a *slot*, transmits only the fields that differed as
//! variable-length deltas behind a one-byte CHANGE mask, and falls back to
//! an *uncompressed refresh* (the full datagram with the IP protocol byte
//! replaced by the slot number) whenever the deltas cannot express the
//! packet.  The refresh also re-seeds the decompressor after loss: a
//! dropped compressed frame desynchronises the slot, the decompressor
//! *tosses* traffic until the next refresh arrives, and TCP's own
//! retransmission supplies that refresh.
//!
//! On the AX.25 link the packet type travels in the frame PID rather than
//! in SLIP type bits: PID `0x06` marks a compressed TCP/IP packet, PID
//! `0x07` an uncompressed refresh, and ordinary IP stays on PID `0xCC`.
//! Consequently the top bit of the CHANGE mask is never used here.
//!
//! Everything in this crate operates in place on caller-provided buffers:
//! [`VjCompressor::compress`] rewrites the datagram's own bytes and
//! reports where the (shorter) compressed packet starts, and
//! [`VjDecompressor::decompress`] rebuilds into a caller-owned `Vec` that
//! is reused across packets.  Neither fast path allocates — the `vj_hdr`
//! ratchets assert this with a counting global allocator.
//!
//! One deliberate hardening beyond the BSD reference: the decompressor
//! verifies the reconstructed TCP checksum (carried verbatim in every
//! compressed header) before delivering, so a mis-applied delta is dropped
//! here instead of surfacing as a corrupted segment upstream.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![warn(missing_docs)]

use sim::wire::internet_checksum;

/// Change-mask bit: connection number follows the mask byte.
pub const NEW_C: u8 = 0x40;
/// Change-mask bit: explicit IP ID delta present (else ID is implicitly +1).
pub const NEW_I: u8 = 0x20;
/// Change-mask bit: copy of the TCP PUSH flag.
pub const TCP_PUSH_BIT: u8 = 0x10;
/// Change-mask bit: sequence-number delta present.
pub const NEW_S: u8 = 0x08;
/// Change-mask bit: ack-number delta present.
pub const NEW_A: u8 = 0x04;
/// Change-mask bit: window delta present.
pub const NEW_W: u8 = 0x02;
/// Change-mask bit: urgent pointer present (URG set).
pub const NEW_U: u8 = 0x01;

/// Reserved mask combination: echoed interactive traffic (seq and ack both
/// advanced by the previous packet's data length; no deltas on the wire).
pub const SPECIAL_I: u8 = NEW_S | NEW_W | NEW_U;
/// Reserved mask combination: unidirectional data (seq advanced by the
/// previous packet's data length; no deltas on the wire).
pub const SPECIAL_D: u8 = NEW_S | NEW_A | NEW_W | NEW_U;
const SPECIALS_MASK: u8 = NEW_S | NEW_A | NEW_W | NEW_U;

/// Combined IP + TCP header length handled by the compressor (no options).
pub const HDR_LEN: usize = 40;
/// Worst-case compressed header: mask + conn + checksum + five 3-byte deltas.
pub const MAX_COMPRESSED_HDR: usize = 19;
/// Per-connection compression slots at each end of a link (RFC 1144
/// §3.2.2); the compressor never emits a connection number >= `SLOTS`.
pub const SLOTS: usize = 16;

/// Why a received VJ packet could not be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VjError {
    /// Packet shorter than its own framing requires.
    Truncated,
    /// Not an IPv4/TCP datagram the slot machinery can hold.
    NotTcpIp,
    /// Connection number outside the negotiated slot table.
    BadConnection,
    /// Compressed packet for a slot that was never seeded by a refresh.
    NoContext,
    /// Dropped while awaiting a refresh after an earlier error.
    Tossed,
    /// Reconstructed segment failed TCP checksum verification.
    BadChecksum,
}

impl std::fmt::Display for VjError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            VjError::Truncated => "truncated VJ packet",
            VjError::NotTcpIp => "not an IPv4/TCP datagram",
            VjError::BadConnection => "connection number out of range",
            VjError::NoContext => "no context for connection",
            VjError::Tossed => "tossed awaiting refresh",
            VjError::BadChecksum => "reconstructed TCP checksum mismatch",
        };
        f.write_str(s)
    }
}

/// What the compressor decided for one outbound datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VjOutcome {
    /// Send the datagram unchanged as ordinary IP (PID `0xCC`).
    Ip,
    /// The datagram was rewritten in place: transmit `dgram[start..]`
    /// as a compressed TCP/IP packet (PID `0x06`).
    Compressed {
        /// Offset of the first byte of the compressed packet.
        start: usize,
    },
    /// Transmit the whole datagram as an uncompressed refresh (PID
    /// `0x07`); its IP protocol byte now carries the slot number.
    Uncompressed,
}

/// One connection's remembered state: the last 40-byte TCP/IP header
/// exchanged on it, plus an LRU stamp on the compressor side.
#[derive(Debug, Clone, Copy)]
struct Slot {
    hdr: [u8; HDR_LEN],
    active: bool,
    age: u64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            hdr: [0; HDR_LEN],
            active: false,
            age: 0,
        }
    }
}

/// Compressor-side counters for reporting and experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VjCompStats {
    /// Outbound TCP datagrams offered to the compressor.
    pub packets: u64,
    /// Datagrams sent compressed (PID 0x06).
    pub compressed: u64,
    /// Datagrams sent as uncompressed refreshes (PID 0x07).
    pub refreshes: u64,
    /// Datagrams passed through untouched as plain IP (PID 0xCC).
    pub passthrough: u64,
    /// Slot searches, and of those, misses that recycled an LRU slot.
    pub searches: u64,
    /// Slot-table misses (new or recycled connections).
    pub misses: u64,
    /// Header bytes removed from the air by compression.
    pub hdr_bytes_saved: u64,
}

/// Decompressor-side counters for reporting and experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VjDecompStats {
    /// Compressed packets successfully reconstructed.
    pub compressed_in: u64,
    /// Uncompressed refreshes accepted (slot re-seeded).
    pub uncompressed_in: u64,
    /// Packets dropped while tossing (awaiting a refresh).
    pub tossed: u64,
    /// Malformed packets or reconstruction failures (includes checksum).
    pub errors: u64,
}

// ---------------------------------------------------------------------------
// Header field accessors over the canonical 40-byte TCP/IP header.
// ---------------------------------------------------------------------------

const TH_FIN: u8 = 0x01;
const TH_SYN: u8 = 0x02;
const TH_RST: u8 = 0x04;
const TH_PUSH: u8 = 0x08;
const TH_ACK: u8 = 0x10;
const TH_URG: u8 = 0x20;

fn get_u16(b: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([b[at], b[at + 1]])
}

fn get_u32(b: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn put_u16(b: &mut [u8], at: usize, v: u16) {
    b[at..at + 2].copy_from_slice(&v.to_be_bytes());
}

fn put_u32(b: &mut [u8], at: usize, v: u32) {
    b[at..at + 4].copy_from_slice(&v.to_be_bytes());
}

/// Rewrite the IP header checksum of a 20-byte header in place.
fn fix_ip_checksum(hdr: &mut [u8]) {
    hdr[10] = 0;
    hdr[11] = 0;
    let ck = internet_checksum(&[&hdr[..20]]);
    put_u16(hdr, 10, ck);
}

/// TCP checksum over the rebuilt header and payload (RFC 793 pseudo-header).
fn tcp_checksum_ok(hdr: &[u8], payload: &[u8]) -> bool {
    let tcp_len = (HDR_LEN - 20 + payload.len()) as u16;
    let mut pseudo = [0u8; 12];
    pseudo[0..4].copy_from_slice(&hdr[12..16]);
    pseudo[4..8].copy_from_slice(&hdr[16..20]);
    pseudo[9] = 6;
    pseudo[10..12].copy_from_slice(&tcp_len.to_be_bytes());
    internet_checksum(&[&pseudo, &hdr[20..HDR_LEN], payload]) == 0
}

/// Is this datagram one the slot machinery can represent?  IPv4 without
/// options, unfragmented, carrying TCP without options (20-byte header).
fn compressible_shape(dgram: &[u8]) -> bool {
    dgram.len() >= HDR_LEN
        && dgram[0] == 0x45
        && dgram[9] == 6
        && (dgram[6] & 0x3F) == 0
        && dgram[7] == 0
        && (dgram[32] >> 4) == 5
}

/// Append one delta in RFC 1144 variable-length form: a single byte for
/// 1..=255, or a zero escape followed by two big-endian bytes otherwise
/// (which also encodes an exact zero, needed for the IP ID).
fn encode_delta(buf: &mut [u8], len: &mut usize, v: u16) {
    if (1..=255).contains(&v) {
        buf[*len] = v as u8;
        *len += 1;
    } else {
        buf[*len] = 0;
        put_u16(buf, *len + 1, v);
        *len += 3;
    }
}

/// Pull one variable-length delta off the compressed header.
fn decode_delta(buf: &[u8], at: &mut usize) -> Option<u16> {
    let first = *buf.get(*at)?;
    if first != 0 {
        *at += 1;
        return Some(u16::from(first));
    }
    if *at + 3 > buf.len() {
        return None;
    }
    let v = get_u16(buf, *at + 1);
    *at += 3;
    Some(v)
}

// ---------------------------------------------------------------------------
// Compressor
// ---------------------------------------------------------------------------

/// Transmit-side state: the per-connection slot table and the identity of
/// the connection named in the most recent packet (so its number can be
/// elided from consecutive packets of the same flow).
#[derive(Debug)]
pub struct VjCompressor {
    slots: Vec<Slot>,
    last: usize,
    tick: u64,
    stats: VjCompStats,
}

impl Default for VjCompressor {
    fn default() -> Self {
        VjCompressor::new()
    }
}

impl VjCompressor {
    /// Build a compressor with [`SLOTS`] empty slots.
    pub fn new() -> VjCompressor {
        VjCompressor {
            slots: vec![Slot::new(); SLOTS],
            last: 0,
            tick: 0,
            stats: VjCompStats::default(),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> VjCompStats {
        self.stats
    }

    /// Classify and (when possible) compress one outbound IPv4 datagram in
    /// place.  `dgram` must be the full encoded datagram.  See
    /// [`VjOutcome`] for what to transmit afterwards; on
    /// [`VjOutcome::Uncompressed`] the IP protocol byte has been replaced
    /// by the slot number, exactly as the refresh wire format requires.
    pub fn compress(&mut self, dgram: &mut [u8]) -> VjOutcome {
        self.stats.packets += 1;
        // Anything the slot table cannot hold — non-TCP, fragments, IP or
        // TCP options — and any segment whose flags make delta encoding
        // unsafe (SYN/FIN/RST, or a missing ACK) rides as plain IP.
        if !compressible_shape(dgram) || (dgram[33] & (TH_SYN | TH_FIN | TH_RST | TH_ACK)) != TH_ACK
        {
            self.stats.passthrough += 1;
            return VjOutcome::Ip;
        }

        self.stats.searches += 1;
        self.tick += 1;
        // Connection identity: IP source + destination + both ports.
        let conn = self
            .slots
            .iter()
            .position(|s| s.active && s.hdr[12..24] == dgram[12..24]);
        let conn = match conn {
            Some(i) => i,
            None => {
                // Miss: recycle the least recently used slot and seed it
                // with a refresh.
                self.stats.misses += 1;
                let lru = self
                    .slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| (s.active, s.age))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                return self.refresh(lru, dgram);
            }
        };

        let old = self.slots[conn].hdr;
        // Fields we have no delta encoding for must be identical to the
        // remembered header: version/IHL, TOS, fragment word, TTL.  The
        // urgent pointer likewise (our compressor refuses URG outright).
        if old[0] != dgram[0]
            || old[1] != dgram[1]
            || old[6..8] != dgram[6..8]
            || old[8] != dgram[8]
            || (dgram[33] & TH_URG) != 0
            || get_u16(&old, 38) != get_u16(dgram, 38)
        {
            return self.refresh(conn, dgram);
        }

        let mut deltas = [0u8; MAX_COMPRESSED_HDR];
        let mut dlen = 0usize;
        let mut changes = 0u8;

        let delta_w = get_u16(dgram, 34).wrapping_sub(get_u16(&old, 34));
        if delta_w != 0 {
            encode_delta(&mut deltas, &mut dlen, delta_w);
            changes |= NEW_W;
        }

        let delta_a = get_u32(dgram, 28).wrapping_sub(get_u32(&old, 28));
        if delta_a != 0 {
            if delta_a > 0xFFFF {
                // Ack moved backwards or by more than 64K: not expressible.
                return self.refresh(conn, dgram);
            }
            encode_delta(&mut deltas, &mut dlen, delta_a as u16);
            changes |= NEW_A;
        }

        let delta_s = get_u32(dgram, 24).wrapping_sub(get_u32(&old, 24));
        if delta_s != 0 {
            if delta_s > 0xFFFF {
                // Sequence ran backwards: a retransmission.  Refresh so the
                // far end re-seeds even if it lost the original.
                return self.refresh(conn, dgram);
            }
            encode_delta(&mut deltas, &mut dlen, delta_s as u16);
            changes |= NEW_S;
        }

        let old_dlen = u32::from(get_u16(&old, 2)) - HDR_LEN as u32;
        match changes {
            // Nothing moved.  First data after a pure ack is the one
            // legitimate case (seq genuinely unchanged); anything else
            // smells like a retransmitted ack or window probe, which
            // must go uncompressed in case the far end lost the first.
            0 if !(get_u16(dgram, 2) != get_u16(&old, 2) && old_dlen == 0) => {
                return self.refresh(conn, dgram);
            }
            SPECIAL_I | SPECIAL_D => {
                // A packet that coincidentally encodes to a reserved mask
                // may not travel compressed.
                return self.refresh(conn, dgram);
            }
            c if c == NEW_S | NEW_A && delta_s == delta_a && delta_s == old_dlen => {
                // Echoed interactive traffic: both numbers advanced by
                // the previous packet's data; say so in two bits.
                changes = SPECIAL_I;
                dlen = 0;
            }
            NEW_S if delta_s == old_dlen => {
                // Unidirectional data stream.
                changes = SPECIAL_D;
                dlen = 0;
            }
            _ => {}
        }

        let delta_i = get_u16(dgram, 4).wrapping_sub(get_u16(&old, 4));
        if delta_i != 1 {
            encode_delta(&mut deltas, &mut dlen, delta_i);
            changes |= NEW_I;
        }
        if (dgram[33] & TH_PUSH) != 0 {
            changes |= TCP_PUSH_BIT;
        }

        // Assemble mask + optional connection number + TCP checksum +
        // deltas, then lay it over the tail of the original header so the
        // compressed packet ends exactly where the payload begins.
        let mut hdr = [0u8; MAX_COMPRESSED_HDR];
        let mut hlen = 1usize;
        if conn != self.last {
            changes |= NEW_C;
            hdr[hlen] = conn as u8;
            hlen += 1;
            self.last = conn;
        }
        hdr[hlen] = dgram[36];
        hdr[hlen + 1] = dgram[37];
        hlen += 2;
        hdr[0] = changes;
        hdr[hlen..hlen + dlen].copy_from_slice(&deltas[..dlen]);
        hlen += dlen;

        let slot = &mut self.slots[conn];
        slot.hdr.copy_from_slice(&dgram[..HDR_LEN]);
        slot.age = self.tick;

        let start = HDR_LEN - hlen;
        dgram[start..HDR_LEN].copy_from_slice(&hdr[..hlen]);
        self.stats.compressed += 1;
        self.stats.hdr_bytes_saved += start as u64;
        VjOutcome::Compressed { start }
    }

    /// Seed `conn` from this datagram and mark it for transmission as an
    /// uncompressed refresh: the IP protocol byte is replaced with the
    /// slot number (the far end restores it and re-derives the checksum).
    fn refresh(&mut self, conn: usize, dgram: &mut [u8]) -> VjOutcome {
        let slot = &mut self.slots[conn];
        slot.hdr.copy_from_slice(&dgram[..HDR_LEN]);
        slot.active = true;
        slot.age = self.tick;
        self.last = conn;
        dgram[9] = conn as u8;
        self.stats.refreshes += 1;
        VjOutcome::Uncompressed
    }
}

// ---------------------------------------------------------------------------
// Decompressor
// ---------------------------------------------------------------------------

/// Receive-side state: the mirror slot table, the implicit connection
/// number, and the *toss* flag that discards compressed traffic between an
/// error and the next uncompressed refresh.
#[derive(Debug)]
pub struct VjDecompressor {
    slots: Vec<Slot>,
    last: usize,
    toss: bool,
    stats: VjDecompStats,
}

impl Default for VjDecompressor {
    fn default() -> Self {
        VjDecompressor::new()
    }
}

impl VjDecompressor {
    /// Build a decompressor whose slot table mirrors the far compressor.
    pub fn new() -> VjDecompressor {
        VjDecompressor {
            slots: vec![Slot::new(); SLOTS],
            last: 0,
            toss: true,
            stats: VjDecompStats::default(),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> VjDecompStats {
        self.stats
    }

    /// Accept an uncompressed refresh (PID `0x07`) in place: restore the
    /// protocol byte, repair the IP checksum, and re-seed the slot.  On
    /// success `dgram` is again a well-formed IPv4/TCP datagram.
    pub fn refresh(&mut self, dgram: &mut [u8]) -> Result<(), VjError> {
        if dgram.len() < HDR_LEN {
            self.toss = true;
            self.stats.errors += 1;
            return Err(VjError::Truncated);
        }
        let conn = usize::from(dgram[9]);
        if conn >= self.slots.len() {
            self.toss = true;
            self.stats.errors += 1;
            return Err(VjError::BadConnection);
        }
        dgram[9] = 6;
        fix_ip_checksum(dgram);
        if !compressible_shape(dgram) {
            self.toss = true;
            self.stats.errors += 1;
            return Err(VjError::NotTcpIp);
        }
        let slot = &mut self.slots[conn];
        slot.hdr.copy_from_slice(&dgram[..HDR_LEN]);
        slot.active = true;
        self.last = conn;
        self.toss = false;
        self.stats.uncompressed_in += 1;
        Ok(())
    }

    /// Reconstruct a compressed packet (PID `0x06`) into `out`, which is
    /// cleared first and reused across calls (it only allocates while
    /// growing toward its steady-state capacity).  On any error the
    /// decompressor begins tossing until the next refresh.
    pub fn decompress(&mut self, comp: &[u8], out: &mut Vec<u8>) -> Result<(), VjError> {
        match self.decompress_inner(comp, out) {
            Ok(()) => {
                self.stats.compressed_in += 1;
                Ok(())
            }
            Err(e) => {
                self.toss = true;
                if e == VjError::Tossed {
                    self.stats.tossed += 1;
                } else {
                    self.stats.errors += 1;
                }
                Err(e)
            }
        }
    }

    fn decompress_inner(&mut self, comp: &[u8], out: &mut Vec<u8>) -> Result<(), VjError> {
        let mask = *comp.first().ok_or(VjError::Truncated)?;
        let mut at = 1usize;
        if mask & NEW_C != 0 {
            let conn = usize::from(*comp.get(at).ok_or(VjError::Truncated)?);
            at += 1;
            if conn >= self.slots.len() {
                return Err(VjError::BadConnection);
            }
            // An explicit connection number is a sync point for that
            // connection, so it clears the toss flag (RFC 1144 §4.1); the
            // checksum verification below still guards the rebuilt bytes.
            self.last = conn;
            self.toss = false;
        } else if self.toss {
            return Err(VjError::Tossed);
        }
        let conn = self.last;
        if !self.slots[conn].active {
            return Err(VjError::NoContext);
        }
        if at + 2 > comp.len() {
            return Err(VjError::Truncated);
        }
        let tcp_ck = get_u16(comp, at);
        at += 2;

        let mut hdr = self.slots[conn].hdr;
        let prev_dlen = u32::from(get_u16(&hdr, 2)) - HDR_LEN as u32;

        if mask & TCP_PUSH_BIT != 0 {
            hdr[33] |= TH_PUSH;
        } else {
            hdr[33] &= !TH_PUSH;
        }

        match mask & SPECIALS_MASK {
            m if m == SPECIAL_I => {
                let seq = get_u32(&hdr, 24).wrapping_add(prev_dlen);
                let ack = get_u32(&hdr, 28).wrapping_add(prev_dlen);
                put_u32(&mut hdr, 24, seq);
                put_u32(&mut hdr, 28, ack);
            }
            m if m == SPECIAL_D => {
                let seq = get_u32(&hdr, 24).wrapping_add(prev_dlen);
                put_u32(&mut hdr, 24, seq);
            }
            _ => {
                if mask & NEW_U != 0 {
                    let urp = decode_delta(comp, &mut at).ok_or(VjError::Truncated)?;
                    hdr[33] |= TH_URG;
                    put_u16(&mut hdr, 38, urp);
                } else {
                    hdr[33] &= !TH_URG;
                }
                if mask & NEW_W != 0 {
                    let d = decode_delta(comp, &mut at).ok_or(VjError::Truncated)?;
                    let win = get_u16(&hdr, 34).wrapping_add(d);
                    put_u16(&mut hdr, 34, win);
                }
                if mask & NEW_A != 0 {
                    let d = decode_delta(comp, &mut at).ok_or(VjError::Truncated)?;
                    let ack = get_u32(&hdr, 28).wrapping_add(u32::from(d));
                    put_u32(&mut hdr, 28, ack);
                }
                if mask & NEW_S != 0 {
                    let d = decode_delta(comp, &mut at).ok_or(VjError::Truncated)?;
                    let seq = get_u32(&hdr, 24).wrapping_add(u32::from(d));
                    put_u32(&mut hdr, 24, seq);
                }
            }
        }
        let ipid_delta = if mask & NEW_I != 0 {
            decode_delta(comp, &mut at).ok_or(VjError::Truncated)?
        } else {
            1
        };
        let ipid = get_u16(&hdr, 4).wrapping_add(ipid_delta);
        put_u16(&mut hdr, 4, ipid);

        let payload = &comp[at..];
        put_u16(&mut hdr, 2, (HDR_LEN + payload.len()) as u16);
        put_u16(&mut hdr, 36, tcp_ck);
        fix_ip_checksum(&mut hdr);

        // Hardening over the reference implementation: check the carried
        // TCP checksum against the rebuilt segment *before* delivering, so
        // desynchronised state is caught at the link instead of upstream.
        if !tcp_checksum_ok(&hdr, payload) {
            return Err(VjError::BadChecksum);
        }

        self.slots[conn].hdr = hdr;
        out.clear();
        out.extend_from_slice(&hdr);
        out.extend_from_slice(payload);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a 40-byte-header TCP/IP datagram from scratch, with a correct
    /// TCP checksum (the compressor carries it verbatim and the
    /// decompressor verifies it).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn make_dgram(
        src: [u8; 4],
        dst: [u8; 4],
        ports: (u16, u16),
        ipid: u16,
        seq: u32,
        ack: u32,
        win: u16,
        flags: u8,
        payload: &[u8],
    ) -> Vec<u8> {
        let mut d = vec![0u8; HDR_LEN + payload.len()];
        d[0] = 0x45;
        put_u16(&mut d, 2, (HDR_LEN + payload.len()) as u16);
        put_u16(&mut d, 4, ipid);
        d[8] = 30;
        d[9] = 6;
        d[12..16].copy_from_slice(&src);
        d[16..20].copy_from_slice(&dst);
        put_u16(&mut d, 20, ports.0);
        put_u16(&mut d, 22, ports.1);
        put_u32(&mut d, 24, seq);
        put_u32(&mut d, 28, ack);
        d[32] = 5 << 4;
        d[33] = flags;
        put_u16(&mut d, 34, win);
        d[40..].copy_from_slice(payload);
        // TCP checksum.
        let tcp_len = (20 + payload.len()) as u16;
        let mut pseudo = [0u8; 12];
        pseudo[0..4].copy_from_slice(&src);
        pseudo[4..8].copy_from_slice(&dst);
        pseudo[9] = 6;
        pseudo[10..12].copy_from_slice(&tcp_len.to_be_bytes());
        let ck = internet_checksum(&[&pseudo, &d[20..]]);
        put_u16(&mut d, 36, ck);
        fix_ip_checksum(&mut d);
        d
    }

    const A: [u8; 4] = [44, 24, 0, 5];
    const B: [u8; 4] = [128, 95, 1, 4];

    fn roundtrip(
        comp: &mut VjCompressor,
        deco: &mut VjDecompressor,
        dgram: &[u8],
    ) -> (VjOutcome, Vec<u8>) {
        let mut tx = dgram.to_vec();
        let outcome = comp.compress(&mut tx);
        let rebuilt = match outcome {
            VjOutcome::Ip => tx.clone(),
            VjOutcome::Uncompressed => {
                deco.refresh(&mut tx).expect("refresh accepted");
                tx.clone()
            }
            VjOutcome::Compressed { start } => {
                let mut out = Vec::new();
                deco.decompress(&tx[start..], &mut out).expect("decompress");
                out
            }
        };
        (outcome, rebuilt)
    }

    #[test]
    fn first_packet_refreshes_then_stream_compresses() {
        let mut c = VjCompressor::new();
        let mut d = VjDecompressor::new();
        let p1 = make_dgram(A, B, (1024, 23), 7, 100, 900, 4096, TH_ACK | TH_PUSH, b"x");
        let (o1, r1) = roundtrip(&mut c, &mut d, &p1);
        assert_eq!(o1, VjOutcome::Uncompressed);
        assert_eq!(r1, p1, "refresh reconstructs the original datagram");

        // Unidirectional data: seq advances by previous data length.
        let p2 = make_dgram(A, B, (1024, 23), 8, 101, 900, 4096, TH_ACK | TH_PUSH, b"y");
        let (o2, r2) = roundtrip(&mut c, &mut d, &p2);
        match o2 {
            VjOutcome::Compressed { start } => {
                assert_eq!(
                    HDR_LEN - start,
                    3,
                    "SPECIAL_D header is mask + checksum only"
                );
            }
            other => panic!("expected compressed, got {other:?}"),
        }
        assert_eq!(r2, p2);
    }

    #[test]
    fn echoed_interactive_uses_special_i() {
        let mut c = VjCompressor::new();
        let mut d = VjDecompressor::new();
        let p1 = make_dgram(A, B, (1024, 7), 1, 10, 20, 4096, TH_ACK | TH_PUSH, b"a");
        roundtrip(&mut c, &mut d, &p1);
        // Echo side: both seq and ack advance by 1 (previous data length).
        let p2 = make_dgram(A, B, (1024, 7), 2, 11, 21, 4096, TH_ACK | TH_PUSH, b"b");
        let (o, r) = roundtrip(&mut c, &mut d, &p2);
        let VjOutcome::Compressed { start } = o else {
            panic!("not compressed: {o:?}")
        };
        assert_eq!(HDR_LEN - start, 3);
        assert_eq!(r, p2);
    }

    #[test]
    fn syn_fin_rst_and_non_tcp_pass_through() {
        let mut c = VjCompressor::new();
        let syn = make_dgram(A, B, (1024, 23), 1, 0, 0, 4096, TH_SYN, b"");
        assert_eq!(c.compress(&mut syn.clone()), VjOutcome::Ip);
        let fin = make_dgram(A, B, (1024, 23), 2, 5, 5, 4096, TH_ACK | TH_FIN, b"");
        assert_eq!(c.compress(&mut fin.clone()), VjOutcome::Ip);
        let rst = make_dgram(A, B, (1024, 23), 3, 5, 5, 4096, TH_RST, b"");
        assert_eq!(c.compress(&mut rst.clone()), VjOutcome::Ip);
        let mut udp = make_dgram(A, B, (1024, 23), 4, 5, 5, 4096, TH_ACK, b"");
        udp[9] = 17;
        fix_ip_checksum(&mut udp);
        assert_eq!(c.compress(&mut udp.clone()), VjOutcome::Ip);
        assert_eq!(c.stats().passthrough, 4);
    }

    #[test]
    fn retransmission_forces_refresh() {
        let mut c = VjCompressor::new();
        let mut d = VjDecompressor::new();
        let p1 = make_dgram(A, B, (1024, 23), 1, 100, 50, 4096, TH_ACK, b"hello");
        roundtrip(&mut c, &mut d, &p1);
        // Same segment again: seq delta 0 with same length => refresh.
        let (o, r) = roundtrip(&mut c, &mut d, &p1);
        assert_eq!(o, VjOutcome::Uncompressed);
        assert_eq!(r, p1);
        // Seq moving backwards likewise.
        let p0 = make_dgram(A, B, (1024, 23), 2, 60, 50, 4096, TH_ACK, b"old");
        let (o, r) = roundtrip(&mut c, &mut d, &p0);
        assert_eq!(o, VjOutcome::Uncompressed);
        assert_eq!(r, p0);
    }

    #[test]
    fn lost_compressed_frame_tosses_until_refresh() {
        let mut c = VjCompressor::new();
        let mut d = VjDecompressor::new();
        let mk = |ipid, seq, body: &[u8]| {
            make_dgram(A, B, (9, 23), ipid, seq, 77, 4096, TH_ACK | TH_PUSH, body)
        };
        roundtrip(&mut c, &mut d, &mk(1, 100, b"aa"));
        // p2 compressed but "lost": compress only, never delivered.
        let mut lost = mk(2, 102, b"bb");
        assert!(matches!(
            c.compress(&mut lost),
            VjOutcome::Compressed { .. }
        ));
        // p3 arrives: deltas now mis-apply; the checksum guard must catch it.
        let mut p3 = mk(3, 104, b"cc");
        let VjOutcome::Compressed { start } = c.compress(&mut p3) else {
            panic!()
        };
        let mut out = Vec::new();
        assert_eq!(
            d.decompress(&p3[start..], &mut out),
            Err(VjError::BadChecksum)
        );
        assert!(d.toss);
        // Further compressed traffic is tossed outright…
        let mut p4 = mk(4, 106, b"dd");
        let VjOutcome::Compressed { start } = c.compress(&mut p4) else {
            panic!()
        };
        assert_eq!(d.decompress(&p4[start..], &mut out), Err(VjError::Tossed));
        // …until a refresh re-seeds the slot (as a TCP retransmit would).
        let p5 = mk(5, 100, b"aa");
        let (o, r) = roundtrip(&mut c, &mut d, &p5);
        assert_eq!(o, VjOutcome::Uncompressed);
        assert_eq!(r, p5);
        assert!(!d.toss);
        let p6 = mk(6, 102, b"bb");
        let (o, r) = roundtrip(&mut c, &mut d, &p6);
        assert!(matches!(o, VjOutcome::Compressed { .. }));
        assert_eq!(r, p6);
        assert_eq!(d.stats().tossed, 1);
        assert!(d.stats().errors >= 1);
    }

    #[test]
    fn two_connections_share_the_link_with_c_bit() {
        let mut c = VjCompressor::new();
        let mut d = VjDecompressor::new();
        let tn =
            |ipid, seq| make_dgram(A, B, (1024, 23), ipid, seq, 1, 512, TH_ACK | TH_PUSH, b"t");
        let ft = |ipid, seq| make_dgram(A, B, (1025, 21), ipid, seq, 9, 512, TH_ACK, b"ffff");
        roundtrip(&mut c, &mut d, &tn(1, 10));
        roundtrip(&mut c, &mut d, &ft(100, 500));
        // Alternate: each switch needs the C bit + conn byte (4-byte hdr).
        let (o, r) = roundtrip(&mut c, &mut d, &tn(2, 11));
        let VjOutcome::Compressed { start } = o else {
            panic!("{o:?}")
        };
        assert_eq!(HDR_LEN - start, 4, "mask + conn + checksum");
        assert_eq!(r, tn(2, 11));
        let (o, r) = roundtrip(&mut c, &mut d, &ft(101, 504));
        let VjOutcome::Compressed { start } = o else {
            panic!("{o:?}")
        };
        assert_eq!(HDR_LEN - start, 4);
        assert_eq!(r, ft(101, 504));
    }

    #[test]
    fn slot_table_recycles_lru_and_never_exceeds_byte_range() {
        let mut c = VjCompressor::new();
        let mut d = VjDecompressor::new();
        // One connection more than the table holds: the last recycles the
        // least recently used slot, the first connection's.
        for port in (0..=SLOTS as u16).chain([0]) {
            let p = make_dgram(A, B, (3000 + port, 23), port, 1, 1, 512, TH_ACK, b"z");
            let (o, r) = roundtrip(&mut c, &mut d, &p);
            assert_eq!(o, VjOutcome::Uncompressed, "every new conn refreshes");
            assert_eq!(r, p);
        }
        assert_eq!(c.stats().misses, SLOTS as u64 + 2);
    }

    #[test]
    fn large_deltas_use_the_three_byte_escape() {
        let mut c = VjCompressor::new();
        let mut d = VjDecompressor::new();
        let p1 = make_dgram(A, B, (5, 6), 10, 1000, 2000, 100, TH_ACK, b"");
        roundtrip(&mut c, &mut d, &p1);
        // Window jumps by 0x1234 backwards, ack by 300, seq by 256, ipid by 3.
        let p2 = make_dgram(A, B, (5, 6), 13, 1256, 2300, 100 + 0x1234, TH_ACK, b"q");
        let (o, r) = roundtrip(&mut c, &mut d, &p2);
        assert!(matches!(o, VjOutcome::Compressed { .. }));
        assert_eq!(r, p2);
    }

    #[test]
    fn truncated_and_malformed_inputs_error_not_panic() {
        let mut d = VjDecompressor::new();
        let mut out = Vec::new();
        assert_eq!(d.decompress(&[], &mut out), Err(VjError::Truncated));
        assert_eq!(d.decompress(&[NEW_C], &mut out), Err(VjError::Truncated));
        assert_eq!(
            d.decompress(&[NEW_C, 99], &mut out),
            Err(VjError::BadConnection)
        );
        assert_eq!(
            d.decompress(&[NEW_S, 0, 0x12], &mut out),
            Err(VjError::Tossed)
        );
        let mut short = vec![0u8; 10];
        assert_eq!(d.refresh(&mut short), Err(VjError::Truncated));
        let mut bad_conn = make_dgram(A, B, (1, 2), 1, 1, 1, 1, TH_ACK, b"");
        bad_conn[9] = 200; // out of range for 16 slots
        assert_eq!(d.refresh(&mut bad_conn), Err(VjError::BadConnection));
    }

    #[test]
    fn compressed_before_any_refresh_is_rejected() {
        let mut d = VjDecompressor::new();
        let mut out = Vec::new();
        // Fresh decompressor tosses until seeded.
        assert_eq!(
            d.decompress(&[SPECIAL_D, 0xAB, 0xCD], &mut out),
            Err(VjError::Tossed)
        );
        // Even with an explicit connection number, an unseeded slot has no
        // context to delta against.
        assert_eq!(
            d.decompress(&[NEW_C | SPECIAL_D, 3, 0xAB, 0xCD], &mut out),
            Err(VjError::NoContext)
        );
    }
}
