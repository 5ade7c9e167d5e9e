//! The AX.25 frame codec: address field, control field, PID, info.
//!
//! The driver in the paper (§2.2) looks at exactly three things when a
//! frame arrives: the destination address ("its own, or the broadcast
//! address"), the protocol ID field (IP goes to the IP input queue), and —
//! for everything else — the raw frame is diverted to a tty queue. This
//! module gives those fields first-class types.

use std::fmt;

use sim::pktbuf::ByteSink;

use crate::addr::Ax25Addr;
use crate::{Ax25Error, MAX_DIGIPEATERS, MAX_INFO_LEN};

/// One digipeater entry in the source route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digipeater {
    /// The relay station's address.
    pub addr: Ax25Addr,
    /// The H ("has been repeated") bit.
    pub repeated: bool,
}

impl Digipeater {
    /// A not-yet-traversed digipeater entry.
    pub fn pending(addr: Ax25Addr) -> Digipeater {
        Digipeater {
            addr,
            repeated: false,
        }
    }
}

/// The layer-3 protocol identifier carried by I and UI frames.
///
/// The values are the standard AX.25 PID assignments; `Ip` and `Arp` are
/// the two the paper's driver dispatches on, `NetRom` is the backbone
/// protocol its §2.4 mentions, and `Text` (no layer 3) is what plain
/// keyboard-to-keyboard users send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pid {
    /// 0xF0 — no layer 3 (keyboard text, BBS traffic).
    Text,
    /// 0xCC — ARPA Internet Protocol.
    Ip,
    /// 0xCD — ARPA Address Resolution Protocol.
    Arp,
    /// 0xCF — NET/ROM network layer.
    NetRom,
    /// 0x06 — RFC 1144 Van Jacobson compressed TCP/IP.
    CompressedTcp,
    /// 0x07 — RFC 1144 uncompressed TCP/IP (decompressor refresh).
    UncompressedTcp,
    /// Any other assignment, carried through opaquely.
    Other(u8),
}

impl Pid {
    /// Wire value.
    pub fn code(self) -> u8 {
        match self {
            Pid::Text => 0xF0,
            Pid::Ip => 0xCC,
            Pid::Arp => 0xCD,
            Pid::NetRom => 0xCF,
            Pid::CompressedTcp => 0x06,
            Pid::UncompressedTcp => 0x07,
            Pid::Other(v) => v,
        }
    }

    /// Decodes a wire value.
    pub fn from_code(v: u8) -> Pid {
        match v {
            0xF0 => Pid::Text,
            0xCC => Pid::Ip,
            0xCD => Pid::Arp,
            0xCF => Pid::NetRom,
            0x06 => Pid::CompressedTcp,
            0x07 => Pid::UncompressedTcp,
            other => Pid::Other(other),
        }
    }
}

/// The decoded control field (modulo-8 operation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Information frame: sequenced connected-mode data.
    I {
        /// Send sequence number N(S).
        ns: u8,
        /// Receive sequence number N(R).
        nr: u8,
        /// Poll bit.
        poll: bool,
    },
    /// Receive Ready: acknowledgement up to N(R)-1.
    Rr {
        /// Receive sequence number N(R).
        nr: u8,
        /// Poll/final bit.
        pf: bool,
    },
    /// Receive Not Ready: flow control off.
    Rnr {
        /// Receive sequence number N(R).
        nr: u8,
        /// Poll/final bit.
        pf: bool,
    },
    /// Reject: request retransmission from N(R).
    Rej {
        /// Receive sequence number N(R).
        nr: u8,
        /// Poll/final bit.
        pf: bool,
    },
    /// Set Asynchronous Balanced Mode — connection request.
    Sabm {
        /// Poll bit.
        poll: bool,
    },
    /// Disconnect request.
    Disc {
        /// Poll bit.
        poll: bool,
    },
    /// Unnumbered Acknowledge.
    Ua {
        /// Final bit.
        fin: bool,
    },
    /// Disconnected Mode — refusal / not connected.
    Dm {
        /// Final bit.
        fin: bool,
    },
    /// Frame Reject (protocol error report).
    Frmr {
        /// Final bit.
        fin: bool,
    },
    /// Unnumbered Information — the datagram frame carrying IP (§2.2).
    Ui {
        /// Poll/final bit.
        pf: bool,
    },
}

impl FrameKind {
    /// True for the two kinds that carry a PID and info field.
    pub fn has_pid(self) -> bool {
        matches!(self, FrameKind::I { .. } | FrameKind::Ui { .. })
    }

    /// Encodes to the control octet.
    pub fn encode(self) -> u8 {
        let pf = |b: bool| u8::from(b) << 4;
        match self {
            FrameKind::I { ns, nr, poll } => (nr << 5) | pf(poll) | (ns << 1),
            FrameKind::Rr { nr, pf: p } => (nr << 5) | pf(p) | 0x01,
            FrameKind::Rnr { nr, pf: p } => (nr << 5) | pf(p) | 0x05,
            FrameKind::Rej { nr, pf: p } => (nr << 5) | pf(p) | 0x09,
            FrameKind::Sabm { poll } => 0x2F | pf(poll),
            FrameKind::Disc { poll } => 0x43 | pf(poll),
            FrameKind::Ua { fin } => 0x63 | pf(fin),
            FrameKind::Dm { fin } => 0x0F | pf(fin),
            FrameKind::Frmr { fin } => 0x87 | pf(fin),
            FrameKind::Ui { pf: p } => 0x03 | pf(p),
        }
    }

    /// Decodes a control octet.
    pub fn decode(ctl: u8) -> Result<FrameKind, Ax25Error> {
        let pf = ctl & 0x10 != 0;
        if ctl & 0x01 == 0 {
            return Ok(FrameKind::I {
                ns: (ctl >> 1) & 0x07,
                nr: ctl >> 5,
                poll: pf,
            });
        }
        if ctl & 0x03 == 0x01 {
            let nr = ctl >> 5;
            return match (ctl >> 2) & 0x03 {
                0 => Ok(FrameKind::Rr { nr, pf }),
                1 => Ok(FrameKind::Rnr { nr, pf }),
                2 => Ok(FrameKind::Rej { nr, pf }),
                _ => Err(Ax25Error::Malformed("SREJ is not used in AX.25 v2.0")),
            };
        }
        // Unnumbered: mask out the P/F bit.
        match ctl & !0x10 {
            0x2F => Ok(FrameKind::Sabm { poll: pf }),
            0x43 => Ok(FrameKind::Disc { poll: pf }),
            0x63 => Ok(FrameKind::Ua { fin: pf }),
            0x0F => Ok(FrameKind::Dm { fin: pf }),
            0x87 => Ok(FrameKind::Frmr { fin: pf }),
            0x03 => Ok(FrameKind::Ui { pf }),
            _ => Err(Ax25Error::Malformed("unknown U-frame control octet")),
        }
    }
}

/// A complete AX.25 frame (without FCS — see [`crate::fcs`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Destination link address.
    pub dest: Ax25Addr,
    /// Source link address.
    pub source: Ax25Addr,
    /// Source-routed digipeater path, at most [`MAX_DIGIPEATERS`] entries.
    pub digipeaters: Vec<Digipeater>,
    /// Command (true) / response (false), from the C bits.
    pub command: bool,
    /// The control field.
    pub kind: FrameKind,
    /// PID; present only when [`FrameKind::has_pid`].
    pub pid: Option<Pid>,
    /// The info field; non-empty only for I/UI (and FRMR diagnostics).
    pub info: Vec<u8>,
}

impl Frame {
    /// Builds a UI datagram frame — the workhorse of the paper's gateway:
    /// every encapsulated IP packet travels as a UI frame with [`Pid::Ip`].
    pub fn ui(dest: Ax25Addr, source: Ax25Addr, pid: Pid, info: Vec<u8>) -> Frame {
        Frame {
            dest,
            source,
            digipeaters: Vec::new(),
            command: true,
            kind: FrameKind::Ui { pf: false },
            pid: Some(pid),
            info,
        }
    }

    /// Builds an unnumbered control frame (SABM/DISC/UA/DM/FRMR).
    pub fn control(dest: Ax25Addr, source: Ax25Addr, command: bool, kind: FrameKind) -> Frame {
        Frame {
            dest,
            source,
            digipeaters: Vec::new(),
            command,
            kind,
            pid: None,
            info: Vec::new(),
        }
    }

    /// Sets the digipeater path (builder style).
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_DIGIPEATERS`] entries are given.
    pub fn via(mut self, path: &[Ax25Addr]) -> Frame {
        assert!(path.len() <= MAX_DIGIPEATERS, "too many digipeaters");
        self.digipeaters = path.iter().copied().map(Digipeater::pending).collect();
        self
    }

    /// True once every digipeater hop has been traversed (or there are
    /// none): only then may the destination accept the frame.
    pub fn fully_repeated(&self) -> bool {
        self.digipeaters.iter().all(|d| d.repeated)
    }

    /// Total encoded length in octets (without FCS).
    pub fn encoded_len(&self) -> usize {
        14 + 7 * self.digipeaters.len() + 1 + usize::from(self.kind.has_pid()) + self.info.len()
    }

    /// Encodes the frame (KISS payload form: no flags, no FCS).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the wire encoding to any [`ByteSink`].
    pub fn encode_into(&self, out: &mut impl ByteSink) {
        // C bits: command sets dest-C, response sets source-C (AX.25 v2).
        let last_in_field = self.digipeaters.is_empty();
        out.put_slice(&self.dest.encode(self.command, false));
        out.put_slice(&self.source.encode(!self.command, last_in_field));
        for (i, d) in self.digipeaters.iter().enumerate() {
            let last = i == self.digipeaters.len() - 1;
            out.put_slice(&d.addr.encode(d.repeated, last));
        }
        out.put(self.kind.encode());
        if self.kind.has_pid() {
            out.put(self.pid.unwrap_or(Pid::Text).code());
        }
        out.put_slice(&self.info);
    }

    /// Decodes a frame from KISS payload bytes.
    pub fn decode(bytes: &[u8]) -> Result<Frame, Ax25Error> {
        if bytes.len() < 15 {
            return Err(Ax25Error::Malformed("frame shorter than minimum"));
        }
        let (dest, dest_c, dest_last) = Ax25Addr::decode(&bytes[0..7])?;
        if dest_last {
            return Err(Ax25Error::Malformed("address field ends at destination"));
        }
        let (source, src_c, mut last) = Ax25Addr::decode(&bytes[7..14])?;
        let mut pos = 14;
        let mut digipeaters = Vec::new();
        while !last {
            if digipeaters.len() == MAX_DIGIPEATERS {
                return Err(Ax25Error::TooManyDigipeaters(MAX_DIGIPEATERS + 1));
            }
            if bytes.len() < pos + 7 {
                return Err(Ax25Error::Malformed("truncated digipeater list"));
            }
            let (addr, repeated, is_last) = Ax25Addr::decode(&bytes[pos..pos + 7])?;
            digipeaters.push(Digipeater { addr, repeated });
            pos += 7;
            last = is_last;
        }
        if bytes.len() <= pos {
            return Err(Ax25Error::Malformed("missing control field"));
        }
        let kind = FrameKind::decode(bytes[pos])?;
        pos += 1;
        let pid = if kind.has_pid() {
            if bytes.len() <= pos {
                return Err(Ax25Error::Malformed("missing PID"));
            }
            let p = Pid::from_code(bytes[pos]);
            pos += 1;
            Some(p)
        } else {
            None
        };
        let info = bytes[pos..].to_vec();
        if info.len() > MAX_INFO_LEN {
            return Err(Ax25Error::InfoTooLong(info.len()));
        }
        // AX.25 v2: command iff dest C set and source C clear; older v1
        // frames set both the same, treated as commands here.
        let command = dest_c || !src_c;
        Ok(Frame {
            dest,
            source,
            digipeaters,
            command,
            kind,
            pid,
            info,
        })
    }
}

/// The header fields of an AX.25 frame, validated without allocating.
///
/// The paper's driver inspects every frame heard on the channel — under a
/// promiscuous TNC that is *every* frame on the air (§3) — but acts on only
/// the few addressed to it. [`FrameHeader::peek`] performs the complete
/// structural validation of [`Frame::decode`] (addresses, digipeater list,
/// control octet, PID presence, info length) while touching no heap memory,
/// so the interrupt-side filter can drop someone else's traffic for free
/// and pay for a full decode only on frames it will actually deliver.
///
/// # Examples
///
/// ```
/// use ax25::addr::Ax25Addr;
/// use ax25::frame::{Frame, FrameHeader, Pid};
///
/// let dst = Ax25Addr::parse_or_panic("KB7DZ");
/// let src = Ax25Addr::parse_or_panic("N7AKR-1");
/// let bytes = Frame::ui(dst, src, Pid::Ip, vec![1, 2, 3]).encode();
///
/// let hdr = FrameHeader::peek(&bytes).unwrap();
/// assert_eq!(hdr.dest, dst);
/// assert_eq!(hdr.pid, Some(Pid::Ip));
/// assert!(hdr.fully_repeated);
/// assert_eq!(&bytes[hdr.info_start..], &[1, 2, 3]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Destination link address.
    pub dest: Ax25Addr,
    /// Source link address.
    pub source: Ax25Addr,
    /// Command (true) / response (false), from the C bits.
    pub command: bool,
    /// The decoded control field.
    pub kind: FrameKind,
    /// PID; present only when [`FrameKind::has_pid`].
    pub pid: Option<Pid>,
    /// Number of digipeaters in the address field.
    pub num_digipeaters: usize,
    /// True once every digipeater hop has been traversed (or there are
    /// none): only then may the destination accept the frame.
    pub fully_repeated: bool,
    /// Byte offset where the info field begins (equals `bytes.len()` when
    /// the frame carries no info).
    pub info_start: usize,
}

impl FrameHeader {
    /// Validates `bytes` as a complete AX.25 frame and returns its header
    /// fields, without allocating.
    ///
    /// `peek(b).is_ok()` exactly when [`Frame::decode`]`(b).is_ok()`, and
    /// on success the fields agree with the decoded frame — so a receive
    /// path may classify (bad frame / not repeated / not for us) on the
    /// peek alone and reserve the allocating decode for accepted frames.
    pub fn peek(bytes: &[u8]) -> Result<FrameHeader, Ax25Error> {
        if bytes.len() < 15 {
            return Err(Ax25Error::Malformed("frame shorter than minimum"));
        }
        let (dest, dest_c, dest_last) = Ax25Addr::decode(&bytes[0..7])?;
        if dest_last {
            return Err(Ax25Error::Malformed("address field ends at destination"));
        }
        let (source, src_c, mut last) = Ax25Addr::decode(&bytes[7..14])?;
        let mut pos = 14;
        let mut num_digipeaters = 0;
        let mut fully_repeated = true;
        while !last {
            if num_digipeaters == MAX_DIGIPEATERS {
                return Err(Ax25Error::TooManyDigipeaters(MAX_DIGIPEATERS + 1));
            }
            if bytes.len() < pos + 7 {
                return Err(Ax25Error::Malformed("truncated digipeater list"));
            }
            let (_, repeated, is_last) = Ax25Addr::decode(&bytes[pos..pos + 7])?;
            fully_repeated &= repeated;
            num_digipeaters += 1;
            pos += 7;
            last = is_last;
        }
        if bytes.len() <= pos {
            return Err(Ax25Error::Malformed("missing control field"));
        }
        let kind = FrameKind::decode(bytes[pos])?;
        pos += 1;
        let pid = if kind.has_pid() {
            if bytes.len() <= pos {
                return Err(Ax25Error::Malformed("missing PID"));
            }
            let p = Pid::from_code(bytes[pos]);
            pos += 1;
            Some(p)
        } else {
            None
        };
        if bytes.len() - pos > MAX_INFO_LEN {
            return Err(Ax25Error::InfoTooLong(bytes.len() - pos));
        }
        let command = dest_c || !src_c;
        Ok(FrameHeader {
            dest,
            source,
            command,
            kind,
            pid,
            num_digipeaters,
            fully_repeated,
            info_start: pos,
        })
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}>{}", self.source, self.dest)?;
        for d in &self.digipeaters {
            write!(f, ",{}{}", d.addr, if d.repeated { "*" } else { "" })?;
        }
        write!(f, " {:?}", self.kind)?;
        if let Some(pid) = self.pid {
            write!(f, " pid={pid:?}")?;
        }
        if !self.info.is_empty() {
            write!(f, " [{}B]", self.info.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ax25Addr {
        Ax25Addr::parse_or_panic(s)
    }

    #[test]
    fn ui_frame_roundtrip() {
        let f = Frame::ui(a("KB7DZ"), a("N7AKR-1"), Pid::Ip, vec![1, 2, 3]);
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.encoded_len());
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
    }

    #[test]
    fn digipeater_path_roundtrip() {
        let f = Frame::ui(a("KB7DZ"), a("N7AKR"), Pid::Text, b"hi".to_vec()).via(&[
            a("WA6BEV-1"),
            a("K3MC-2"),
            a("KD7NM-3"),
        ]);
        let bytes = f.encode();
        let back = Frame::decode(&bytes).unwrap();
        assert_eq!(back.digipeaters.len(), 3);
        assert_eq!(back.digipeaters[1].addr, a("K3MC-2"));
        assert!(!back.fully_repeated());
        assert_eq!(back, f);
    }

    #[test]
    fn max_digipeaters_roundtrip() {
        let path: Vec<Ax25Addr> = (0..8).map(|i| a(&format!("D{i}"))).collect();
        let f = Frame::ui(a("B"), a("A"), Pid::Text, vec![]).via(&path);
        let back = Frame::decode(&f.encode()).unwrap();
        assert_eq!(back.digipeaters.len(), 8);
    }

    #[test]
    #[should_panic]
    fn nine_digipeaters_panics() {
        let path: Vec<Ax25Addr> = (0..9).map(|i| a(&format!("D{i}"))).collect();
        let _ = Frame::ui(a("B"), a("A"), Pid::Text, vec![]).via(&path);
    }

    #[test]
    fn control_field_all_kinds_roundtrip() {
        let kinds = [
            FrameKind::I {
                ns: 5,
                nr: 3,
                poll: true,
            },
            FrameKind::I {
                ns: 0,
                nr: 7,
                poll: false,
            },
            FrameKind::Rr { nr: 2, pf: false },
            FrameKind::Rnr { nr: 6, pf: true },
            FrameKind::Rej { nr: 1, pf: true },
            FrameKind::Sabm { poll: true },
            FrameKind::Disc { poll: false },
            FrameKind::Ua { fin: true },
            FrameKind::Dm { fin: false },
            FrameKind::Frmr { fin: true },
            FrameKind::Ui { pf: false },
        ];
        for k in kinds {
            assert_eq!(FrameKind::decode(k.encode()).unwrap(), k, "{k:?}");
        }
    }

    #[test]
    fn pid_codes_roundtrip() {
        for p in [
            Pid::Text,
            Pid::Ip,
            Pid::Arp,
            Pid::NetRom,
            Pid::CompressedTcp,
            Pid::UncompressedTcp,
            Pid::Other(0x08),
        ] {
            assert_eq!(Pid::from_code(p.code()), p);
        }
        // The RFC 1144 assignments must decode to the named variants, not
        // fall through to `Other`.
        assert_eq!(Pid::from_code(0x06), Pid::CompressedTcp);
        assert_eq!(Pid::from_code(0x07), Pid::UncompressedTcp);
    }

    #[test]
    fn unknown_pid_frames_decode_and_roundtrip() {
        // An unassigned PID must carry through opaquely — the driver
        // diverts such frames to the §2.4 tty queue, so decode can never
        // panic or reject on the PID byte alone.
        for code in [0x00u8, 0x05, 0x42, 0xFE] {
            let f = Frame::ui(a("KB7DZ"), a("N7AKR"), Pid::from_code(code), b"??".to_vec());
            let bytes = f.encode();
            let back = Frame::decode(&bytes).expect("unknown PID decodes");
            assert_eq!(back.pid.map(Pid::code), Some(code));
            assert_eq!(back.info, b"??");
            let hdr = FrameHeader::peek(&bytes).expect("peek too");
            assert_eq!(hdr.pid.map(Pid::code), Some(code));
        }
    }

    #[test]
    fn command_response_bits() {
        let cmd = Frame::control(a("B"), a("A"), true, FrameKind::Sabm { poll: true });
        let back = Frame::decode(&cmd.encode()).unwrap();
        assert!(back.command);

        let rsp = Frame::control(a("A"), a("B"), false, FrameKind::Ua { fin: true });
        let back = Frame::decode(&rsp.encode()).unwrap();
        assert!(!back.command);
    }

    #[test]
    fn s_frames_have_no_pid_or_info() {
        let f = Frame::control(a("B"), a("A"), false, FrameKind::Rr { nr: 4, pf: true });
        let bytes = f.encode();
        assert_eq!(bytes.len(), 15);
        let back = Frame::decode(&bytes).unwrap();
        assert_eq!(back.pid, None);
        assert!(back.info.is_empty());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Frame::decode(&[]).is_err());
        assert!(Frame::decode(&[0u8; 10]).is_err());
        // 15 zero bytes: address extension bits are zero -> endless address
        // field -> truncated digipeater list.
        assert!(Frame::decode(&[0u8; 15]).is_err());
    }

    #[test]
    fn decode_rejects_oversize_info() {
        let mut f = Frame::ui(a("B"), a("A"), Pid::Ip, vec![0u8; MAX_INFO_LEN]);
        assert!(Frame::decode(&f.encode()).is_ok());
        f.info.push(0);
        assert!(matches!(
            Frame::decode(&f.encode()),
            Err(Ax25Error::InfoTooLong(_))
        ));
    }

    #[test]
    fn encode_into_matches_encode() {
        let f = Frame::ui(a("KB7DZ"), a("N7AKR-1"), Pid::Ip, vec![9; 40]).via(&[a("K3MC-2")]);
        let mut sink = sim::PacketBuf::new();
        f.encode_into(&mut sink);
        assert_eq!(sink.as_slice(), &f.encode()[..]);
    }

    #[test]
    fn peek_agrees_with_decode_on_valid_frames() {
        let mut f = Frame::ui(a("KB7DZ"), a("N7AKR-1"), Pid::Ip, vec![1, 2, 3])
            .via(&[a("WA6BEV-1"), a("K3MC-2")]);
        f.digipeaters[0].repeated = true;
        let bytes = f.encode();
        let hdr = FrameHeader::peek(&bytes).unwrap();
        assert_eq!(hdr.dest, f.dest);
        assert_eq!(hdr.source, f.source);
        assert_eq!(hdr.command, f.command);
        assert_eq!(hdr.kind, f.kind);
        assert_eq!(hdr.pid, f.pid);
        assert_eq!(hdr.num_digipeaters, 2);
        assert_eq!(hdr.fully_repeated, f.fully_repeated());
        assert_eq!(&bytes[hdr.info_start..], &f.info[..]);

        f.digipeaters[1].repeated = true;
        let hdr = FrameHeader::peek(&f.encode()).unwrap();
        assert!(hdr.fully_repeated);
    }

    #[test]
    fn peek_rejects_what_decode_rejects() {
        for bad in [&[][..], &[0u8; 10], &[0u8; 15]] {
            assert!(FrameHeader::peek(bad).is_err());
            assert!(Frame::decode(bad).is_err());
        }
        let mut f = Frame::ui(a("B"), a("A"), Pid::Ip, vec![0u8; MAX_INFO_LEN]);
        assert!(FrameHeader::peek(&f.encode()).is_ok());
        f.info.push(0);
        assert!(matches!(
            FrameHeader::peek(&f.encode()),
            Err(Ax25Error::InfoTooLong(_))
        ));
    }

    #[test]
    fn peek_control_frame_has_no_pid_and_empty_info() {
        let f = Frame::control(a("B"), a("A"), false, FrameKind::Rr { nr: 4, pf: true });
        let bytes = f.encode();
        let hdr = FrameHeader::peek(&bytes).unwrap();
        assert_eq!(hdr.pid, None);
        assert_eq!(hdr.info_start, bytes.len());
        assert!(!hdr.command);
    }

    #[test]
    fn display_shows_path_and_repeats() {
        let mut f = Frame::ui(a("KB7DZ"), a("N7AKR"), Pid::Ip, vec![0; 4]).via(&[a("K3MC")]);
        f.digipeaters[0].repeated = true;
        let s = f.to_string();
        assert!(s.contains("N7AKR>KB7DZ"), "{s}");
        assert!(s.contains("K3MC*"), "{s}");
        assert!(s.contains("[4B]"), "{s}");
    }
}
