//! ICMP, including the paper's proposed gateway-control messages.
//!
//! Beyond echo and the error messages a gateway must emit, §4.3 of the
//! paper sketches two new ICMP messages for managing the access-control
//! table: one that *"can force an entry to be removed"* (the control
//! operator cutting off a link) and one to *"add an authorized non-amateur
//! host to the tables with an appropriately chosen time-to-live"* — both
//! requiring *"a call sign and a password"* when they come from the
//! non-amateur side. They are given the experimental types 200/201 here.

use std::net::Ipv4Addr;

use sim::wire::{internet_checksum, Reader, Writer};

use crate::NetError;

/// Destination-unreachable codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnreachCode {
    /// Code 0.
    Net,
    /// Code 1.
    Host,
    /// Code 2.
    Protocol,
    /// Code 3.
    Port,
    /// Code 4 — fragmentation needed but DF set.
    FragNeeded,
    /// Code 13 — communication administratively prohibited (the gateway's
    /// ACL denial, a natural fit for §4.3).
    AdminProhibited,
}

impl UnreachCode {
    fn code(self) -> u8 {
        match self {
            UnreachCode::Net => 0,
            UnreachCode::Host => 1,
            UnreachCode::Protocol => 2,
            UnreachCode::Port => 3,
            UnreachCode::FragNeeded => 4,
            UnreachCode::AdminProhibited => 13,
        }
    }

    fn from_code(v: u8) -> Option<UnreachCode> {
        match v {
            0 => Some(UnreachCode::Net),
            1 => Some(UnreachCode::Host),
            2 => Some(UnreachCode::Protocol),
            3 => Some(UnreachCode::Port),
            4 => Some(UnreachCode::FragNeeded),
            13 => Some(UnreachCode::AdminProhibited),
            _ => None,
        }
    }
}

/// Authentication carried by gateway-control messages from the
/// non-amateur side (§4.3: "they must include a call sign and a password
/// for an authorized control operator").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateAuth {
    /// The control operator's callsign, as text (e.g. `"N7AKR"`).
    pub callsign: String,
    /// The shared-secret password.
    pub password: String,
}

/// A decoded ICMP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IcmpMessage {
    /// Type 8 — echo request.
    EchoRequest {
        /// Identifier (conventionally the sending process).
        id: u16,
        /// Sequence number.
        seq: u16,
        /// Echo payload.
        payload: Vec<u8>,
    },
    /// Type 0 — echo reply.
    EchoReply {
        /// Identifier copied from the request.
        id: u16,
        /// Sequence copied from the request.
        seq: u16,
        /// Payload copied from the request.
        payload: Vec<u8>,
    },
    /// Type 3 — destination unreachable; carries the leading bytes of the
    /// offending datagram.
    DestUnreachable {
        /// Why.
        code: UnreachCode,
        /// IP header + 8 payload octets of the original datagram.
        original: Vec<u8>,
    },
    /// Type 11 code 0 — TTL exceeded in transit.
    TimeExceeded {
        /// IP header + 8 payload octets of the original datagram.
        original: Vec<u8>,
    },
    /// Experimental type 200 — open (authorize) a gateway ACL pairing for
    /// `amateur` ⇄ `foreign` with a time-to-live in seconds.
    GateOpen {
        /// The amateur-side host.
        amateur: Ipv4Addr,
        /// The non-amateur host being authorized.
        foreign: Ipv4Addr,
        /// Entry lifetime in seconds.
        ttl_secs: u16,
        /// Present when sent from the non-amateur side.
        auth: Option<GateAuth>,
    },
    /// Experimental type 201 — force-remove a gateway ACL pairing (the
    /// control operator cutting the link).
    GateClose {
        /// The amateur-side host.
        amateur: Ipv4Addr,
        /// The non-amateur host.
        foreign: Ipv4Addr,
        /// Present when sent from the non-amateur side.
        auth: Option<GateAuth>,
    },
}

fn put_string(w: &mut Writer, s: &str) {
    let bytes = s.as_bytes();
    w.u8(bytes.len().min(255) as u8);
    w.bytes(&bytes[..bytes.len().min(255)]);
}

fn get_string(r: &mut Reader<'_>) -> Result<String, NetError> {
    let len = r.u8().map_err(|_| NetError::Malformed("icmp string"))? as usize;
    let raw = r
        .take(len)
        .map_err(|_| NetError::Malformed("icmp string"))?;
    String::from_utf8(raw.to_vec()).map_err(|_| NetError::Malformed("icmp string utf8"))
}

fn put_auth(w: &mut Writer, auth: &Option<GateAuth>) {
    match auth {
        None => w.u8(0),
        Some(a) => {
            w.u8(1);
            put_string(w, &a.callsign);
            put_string(w, &a.password);
        }
    }
}

fn get_auth(r: &mut Reader<'_>) -> Result<Option<GateAuth>, NetError> {
    match r.u8().map_err(|_| NetError::Malformed("icmp auth"))? {
        0 => Ok(None),
        1 => Ok(Some(GateAuth {
            callsign: get_string(r)?,
            password: get_string(r)?,
        })),
        _ => Err(NetError::Malformed("icmp auth tag")),
    }
}

impl IcmpMessage {
    /// Builds the standard "header + 8 octets" quotation of an offending
    /// datagram for error messages.
    pub(crate) fn quote_original(datagram: &[u8]) -> Vec<u8> {
        datagram[..datagram.len().min(28)].to_vec()
    }

    /// Encodes the message with its checksum. The buffer is born with room
    /// for the IP header that [`crate::ip::Ipv4Packet::into_wire`] will
    /// write in front.
    pub fn encode(&self) -> Vec<u8> {
        // Fixed fields, auth tag and string length octets come to 17 at
        // most; the rest is the variable part.
        let variable = match self {
            IcmpMessage::EchoRequest { payload, .. } | IcmpMessage::EchoReply { payload, .. } => {
                payload.len()
            }
            IcmpMessage::DestUnreachable { original, .. }
            | IcmpMessage::TimeExceeded { original } => original.len(),
            IcmpMessage::GateOpen { auth, .. } | IcmpMessage::GateClose { auth, .. } => auth
                .as_ref()
                .map_or(0, |a| a.callsign.len() + a.password.len()),
        };
        let mut w = Writer::with_capacity(17 + variable + crate::ip::HEADER_LEN);
        match self {
            IcmpMessage::EchoRequest { id, seq, payload }
            | IcmpMessage::EchoReply { id, seq, payload } => {
                let t = if matches!(self, IcmpMessage::EchoRequest { .. }) {
                    8
                } else {
                    0
                };
                w.u8(t);
                w.u8(0);
                w.u16(0);
                w.u16(*id);
                w.u16(*seq);
                w.bytes(payload);
            }
            IcmpMessage::DestUnreachable { code, original } => {
                w.u8(3);
                w.u8(code.code());
                w.u16(0);
                w.u32(0);
                w.bytes(original);
            }
            IcmpMessage::TimeExceeded { original } => {
                w.u8(11);
                w.u8(0);
                w.u16(0);
                w.u32(0);
                w.bytes(original);
            }
            IcmpMessage::GateOpen {
                amateur,
                foreign,
                ttl_secs,
                auth,
            } => {
                w.u8(200);
                w.u8(0);
                w.u16(0);
                w.bytes(&amateur.octets());
                w.bytes(&foreign.octets());
                w.u16(*ttl_secs);
                put_auth(&mut w, auth);
            }
            IcmpMessage::GateClose {
                amateur,
                foreign,
                auth,
            } => {
                w.u8(201);
                w.u8(0);
                w.u16(0);
                w.bytes(&amateur.octets());
                w.bytes(&foreign.octets());
                put_auth(&mut w, auth);
            }
        }
        let sum = internet_checksum(&[w.as_slice()]);
        w.patch_u16(2, sum);
        w.into_bytes()
    }

    /// Decodes and verifies a message.
    pub fn decode(bytes: &[u8]) -> Result<IcmpMessage, NetError> {
        let &[typ, code, _sum_hi, _sum_lo, ref rest @ ..] = bytes else {
            return Err(NetError::Malformed("icmp too short"));
        };
        if internet_checksum(&[bytes]) != 0 {
            return Err(NetError::BadChecksum("icmp"));
        }
        let mut r = Reader::new(rest);
        match typ {
            8 | 0 => {
                let id = r.u16().map_err(|_| NetError::Malformed("echo header"))?;
                let seq = r.u16().map_err(|_| NetError::Malformed("echo header"))?;
                let payload = r.rest().to_vec();
                Ok(if typ == 8 {
                    IcmpMessage::EchoRequest { id, seq, payload }
                } else {
                    IcmpMessage::EchoReply { id, seq, payload }
                })
            }
            3 => {
                let code =
                    UnreachCode::from_code(code).ok_or(NetError::Malformed("unreach code"))?;
                r.skip(4).map_err(|_| NetError::Malformed("unreach pad"))?;
                Ok(IcmpMessage::DestUnreachable {
                    code,
                    original: r.rest().to_vec(),
                })
            }
            11 => {
                r.skip(4).map_err(|_| NetError::Malformed("ttl pad"))?;
                Ok(IcmpMessage::TimeExceeded {
                    original: r.rest().to_vec(),
                })
            }
            200 => {
                let amateur = read_ip(&mut r)?;
                let foreign = read_ip(&mut r)?;
                let ttl_secs = r.u16().map_err(|_| NetError::Malformed("gate ttl"))?;
                let auth = get_auth(&mut r)?;
                Ok(IcmpMessage::GateOpen {
                    amateur,
                    foreign,
                    ttl_secs,
                    auth,
                })
            }
            201 => {
                let amateur = read_ip(&mut r)?;
                let foreign = read_ip(&mut r)?;
                let auth = get_auth(&mut r)?;
                Ok(IcmpMessage::GateClose {
                    amateur,
                    foreign,
                    auth,
                })
            }
            _ => Err(NetError::Malformed("unknown icmp type")),
        }
    }
}

fn read_ip(r: &mut Reader<'_>) -> Result<Ipv4Addr, NetError> {
    let raw = r.take(4).ok().and_then(<[u8]>::first_chunk::<4>);
    Ok(Ipv4Addr::from(*raw.ok_or(NetError::Malformed("icmp ip"))?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: IcmpMessage) {
        let bytes = m.encode();
        assert_eq!(IcmpMessage::decode(&bytes).unwrap(), m);
    }

    #[test]
    fn echo_roundtrips() {
        roundtrip(IcmpMessage::EchoRequest {
            id: 0x1234,
            seq: 7,
            payload: b"ping data".to_vec(),
        });
        roundtrip(IcmpMessage::EchoReply {
            id: 1,
            seq: 65535,
            payload: vec![],
        });
    }

    #[test]
    fn errors_roundtrip() {
        roundtrip(IcmpMessage::DestUnreachable {
            code: UnreachCode::AdminProhibited,
            original: vec![0x45; 28],
        });
        roundtrip(IcmpMessage::TimeExceeded {
            original: vec![1, 2, 3],
        });
    }

    #[test]
    fn gate_messages_roundtrip() {
        let am = Ipv4Addr::new(44, 24, 0, 5);
        let fo = Ipv4Addr::new(128, 95, 1, 4);
        roundtrip(IcmpMessage::GateOpen {
            amateur: am,
            foreign: fo,
            ttl_secs: 600,
            auth: None,
        });
        roundtrip(IcmpMessage::GateOpen {
            amateur: am,
            foreign: fo,
            ttl_secs: 600,
            auth: Some(GateAuth {
                callsign: "N7AKR".to_string(),
                password: "hunter2".to_string(),
            }),
        });
        roundtrip(IcmpMessage::GateClose {
            amateur: am,
            foreign: fo,
            auth: Some(GateAuth {
                callsign: "KB7DZ".to_string(),
                password: String::new(),
            }),
        });
    }

    #[test]
    fn corruption_is_rejected() {
        let bytes = IcmpMessage::EchoRequest {
            id: 9,
            seq: 9,
            payload: vec![1, 2, 3, 4],
        }
        .encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                IcmpMessage::decode(&bad).is_err(),
                "flip at {i} went unnoticed"
            );
        }
    }

    #[test]
    fn quote_original_truncates_to_28() {
        assert_eq!(IcmpMessage::quote_original(&[0u8; 100]).len(), 28);
        assert_eq!(IcmpMessage::quote_original(&[0u8; 10]).len(), 10);
    }

    #[test]
    fn unknown_type_rejected() {
        let mut w = Writer::new();
        w.u8(99);
        w.u8(0);
        w.u16(0);
        let sum = internet_checksum(&[w.as_slice()]);
        w.patch_u16(2, sum);
        assert!(IcmpMessage::decode(w.as_slice()).is_err());
    }
}
