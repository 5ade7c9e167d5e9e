//! F2 — Figure 2's protocol stack against the ISO/OSI reference model.
//!
//! The paper's figure maps: Radio→physical, TNC/KISS + AX.25→link,
//! IP→network, TCP/UDP→transport, telnet/FTP/SMTP→application. Here one
//! application payload is wrapped layer by layer and unwrapped again,
//! checking the exact on-the-wire identity at each boundary.

use ax25::addr::Ax25Addr;
use ax25::fcs::{append_fcs, verify_and_strip_fcs};
use ax25::frame::{Frame, Pid};
use netstack::ip::{Ipv4Packet, Proto};
use netstack::tcp::{TcpFlags, TcpHeader, TcpSegment};
use netstack::udp::UdpDatagram;
use std::net::Ipv4Addr;

const PC: Ipv4Addr = Ipv4Addr::new(44, 24, 0, 5);
const VAX: Ipv4Addr = Ipv4Addr::new(128, 95, 1, 4);

#[test]
fn telnet_keystroke_descends_and_ascends_the_stack() {
    // Layer 7: one telnet keystroke.
    let application = b"date\n".to_vec();

    // Layer 4: TCP.
    let segment = TcpSegment {
        header: TcpHeader {
            src_port: 1025,
            dst_port: 23,
            seq: 1000,
            ack: 2000,
            flags: TcpFlags {
                ack: true,
                psh: true,
                ..TcpFlags::default()
            },
            window: 4096,
            mss: None,
        },
        payload: &application,
    };
    let l4 = segment.encode(PC, VAX);

    // Layer 3: IP.
    let packet = Ipv4Packet::new(PC, VAX, Proto::Tcp, l4);
    let l3 = packet.encode();

    // Layer 2: AX.25 UI frame with PID=IP, then the TNC's FCS.
    let frame = Frame::ui(
        Ax25Addr::parse_or_panic("N7AKR-1"),
        Ax25Addr::parse_or_panic("KB7DZ"),
        Pid::Ip,
        l3.clone(),
    );
    let mut on_air = frame.encode();
    append_fcs(&mut on_air);

    // Layer 1/2 boundary on the serial side: KISS framing.
    let serial = kiss::encode(0, kiss::Command::Data, &frame.encode());

    // ---- ascend ----
    // Serial → KISS → AX.25.
    let kiss_frames = kiss::decode_stream(&serial);
    assert_eq!(kiss_frames.len(), 1);
    let up_frame = Frame::decode(&kiss_frames[0].payload).unwrap();
    assert_eq!(up_frame, frame);
    assert_eq!(up_frame.pid, Some(Pid::Ip), "driver demux key (§2.2)");

    // Air → FCS check → AX.25 (the path through the receiving TNC).
    let body = verify_and_strip_fcs(&on_air).expect("FCS verifies");
    assert_eq!(Frame::decode(body).unwrap(), frame);

    // AX.25 info → IP.
    let up_packet = Ipv4Packet::decode(&up_frame.info).unwrap();
    assert_eq!(up_packet, packet);
    assert_eq!(up_packet.proto, Proto::Tcp);

    // IP payload → TCP.
    let up_segment = TcpSegment::decode(&up_packet.payload, PC, VAX).unwrap();
    assert_eq!(up_segment, segment);

    // TCP payload → application.
    assert_eq!(up_segment.payload, application);
}

#[test]
fn udp_takes_the_same_network_path() {
    let dg = UdpDatagram {
        src_port: 2001,
        dst_port: 1235,
        payload: b"?N7AKR".to_vec(),
    };
    let packet = Ipv4Packet::new(PC, VAX, Proto::Udp, dg.encode(PC, VAX));
    let frame = Frame::ui(
        Ax25Addr::parse_or_panic("N7AKR-1"),
        Ax25Addr::parse_or_panic("KB7DZ"),
        Pid::Ip,
        packet.encode(),
    );
    let up = Frame::decode(&frame.encode()).unwrap();
    let up_packet = Ipv4Packet::decode(&up.info).unwrap();
    assert_eq!(up_packet.proto, Proto::Udp);
    let up_dg = UdpDatagram::decode(&up_packet.payload, PC, VAX).unwrap();
    assert_eq!(up_dg, dg);
}

#[test]
fn non_ip_traffic_stays_at_layer_two() {
    // Keyboard chatter has PID F0 (no layer 3): the driver must divert
    // it rather than hand it to IP (§2.2/§2.4).
    let frame = Frame::ui(
        Ax25Addr::parse_or_panic("N7AKR-1"),
        Ax25Addr::parse_or_panic("KB7DZ"),
        Pid::Text,
        b"hello direct".to_vec(),
    );
    let up = Frame::decode(&frame.encode()).unwrap();
    assert_eq!(up.pid, Some(Pid::Text));
    // IP would refuse it anyway:
    assert!(Ipv4Packet::decode(&up.info).is_err());
}
