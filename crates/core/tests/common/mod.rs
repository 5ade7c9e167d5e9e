//! Mixed on-air traffic for the equivalence suites: one frame of every
//! kind the §2.2 address test can meet, keyed up by stations that sense no
//! carrier, so that what goes up a promiscuous listener's serial line —
//! and in which run, split where — is scripted rather than left to CSMA.

use ax25::addr::Ax25Addr;
use ax25::frame::{Frame, Pid};
use gateway::host::Host;
use radio::channel::{Channel, StationId};
use sim::{SimDuration, SimTime};

/// On-air bytes (body + FCS) of every kind of frame, addressed to and
/// past the station `us`.
pub struct Mixed {
    /// Somebody else's IP: 198 octets, 1.3 s on a 1200 bit/s channel.
    pub other: Vec<u8>,
    /// A broadcast text frame: for us, diverted to the tty queue.
    pub qst: Vec<u8>,
    /// Addressed to `us` through a digipeater that has not repeated it.
    pub relayed: Vec<u8>,
    /// Ten octets and a good FCS: no AX.25 frame.
    pub junk: Vec<u8>,
    /// A good FCS over nothing: the KISS encoding is a line idle.
    pub empty: Vec<u8>,
    /// Somebody else's, the info field all `FEND`s and `FESC`s.
    pub specials: Vec<u8>,
    /// The longest body a deframer assembles (no AX.25 frame: too long).
    pub just_fits: Vec<u8>,
    /// One octet more: the deframer drops it as oversize.
    pub oversize: Vec<u8>,
}

pub fn mixed(us: Ax25Addr) -> Mixed {
    let call = Ax25Addr::parse_or_panic;
    let on_air = |mut body: Vec<u8>| {
        ax25::fcs::append_fcs(&mut body);
        body
    };
    let (from, stranger) = (call("KB7XX"), call("W1GOH"));
    let other = Frame::ui(stranger, from, Pid::Ip, vec![0x45; 180]).encode();
    let raw = |len: usize| other.iter().copied().cycle().take(len).collect();
    let specials = [kiss::FEND, kiss::FESC].repeat(40);
    Mixed {
        qst: on_air(Frame::ui(Ax25Addr::broadcast(), from, Pid::Text, b"cq cq".to_vec()).encode()),
        relayed: on_air(
            Frame::ui(us, from, Pid::Ip, vec![0x45; 40])
                .via(&[call("RELAY")])
                .encode(),
        ),
        junk: on_air(raw(10)),
        empty: on_air(Vec::new()),
        specials: on_air(Frame::ui(stranger, from, Pid::Text, specials).encode()),
        just_fits: on_air(raw(kiss::Deframer::DEFAULT_MAX_LEN)),
        oversize: on_air(raw(kiss::Deframer::DEFAULT_MAX_LEN + 1)),
        other: on_air(other),
    }
}

/// Keys `from` up at `at` for each of `frames` in turn, the next the
/// instant the last one ends — so a short frame reaches a listener's
/// serial line while the long one before it is still going up, and the
/// two travel back to back. Returns when the air falls silent.
pub fn transmit_chain(ch: &mut Channel, from: StationId, at: SimTime, frames: &[&[u8]]) -> SimTime {
    frames.iter().fold(at, |at, frame| {
        ch.transmit(at, from, frame.to_vec(), SimDuration::ZERO)
    })
}

/// The §3 accounting of a radio host — `rint_chars`, `frames_in`,
/// `bad_frames`, `not_for_us`, `not_repeated`, the deframer's `bytes` and
/// `frames`, `char_interrupts`, `busy_ns` — which catch-up on touch, the
/// exit flush and sealed delivery must keep exact at any instant.
pub fn char_accounting(host: &Host) -> [u64; 9] {
    let cpu = host.cpu.stats();
    let drv = host.pr_driver().expect("radio host");
    let (pr, kiss) = (drv.stats(), drv.deframer_stats());
    [
        pr.rint_chars,
        pr.frames_in,
        pr.bad_frames,
        pr.not_for_us,
        pr.not_repeated,
        kiss.bytes,
        kiss.frames,
        cpu.char_interrupts,
        cpu.busy_ns,
    ]
}
