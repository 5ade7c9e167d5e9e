//! Unit-cost probes: the harness times calls into each layer's public
//! functions on inputs shaped like the traced run's (table size, hit
//! ratio, frame mix — all taken from the run's counts).
//!
//! A probe is skipped (cost 0) when the run never exercised the layer.
//! Each probe runs inside a `probe.<layer>` span.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use ax25::addr::Ax25Addr;
use ax25::frame::{Frame, FrameHeader, Pid};
use ether::{EtherFrame, EtherType, MacAddr, Segment};
use filter::{FilterConfig, FilterEngine, PacketMeta};
use gateway::prdriver::{PacketRadioDriver, PrConfig};
use netstack::fwd::{FwdCache, FwdDecision, FwdKind};
use netstack::ip::{Ipv4Packet, Proto};
use netstack::route::{Prefix, Route, RouteSource, RouteTable};
use netstack::stack::{IfaceConfig, IfaceId, NetStack, StackAction, StackConfig};
use sim::{Bandwidth, BufPool, Mailbox, Scheduler, SimDuration, SimTime};
use socket::SocketTable;
use workload::FlowRecorder;

use crate::layers::Counts;
use crate::spans::Spans;

/// Measured cost of one unit of each layer's work, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct UnitCosts {
    pub sched_rekey_pop_ns: f64,
    pub mailbox_handoff_ns: f64,
    pub kiss_deframe_ns_per_byte: f64,
    pub kiss_encode_ns_per_byte: f64,
    pub ax25_peek_ns: f64,
    pub ax25_fcs_ns_per_byte: f64,
    pub rint_ns_per_char: f64,
    pub ether_frame_ns: f64,
    pub ip_forward_ns: f64,
    pub fwd_hit_ns: f64,
    pub lpm_lookup_ns: f64,
    pub lpm_linear_ns: f64,
    pub encap_decap_ns: f64,
    pub filter_hit_ns: f64,
    pub filter_miss_ns: f64,
    pub socket_poll_ns: f64,
    pub workload_record_ns: f64,
}

/// Time box of one probe.
const PROBE_BUDGET: Duration = Duration::from_millis(40);

/// Median nanoseconds per call of `f`: batches of `batch` calls, timed
/// until the budget is spent (at least five batches), after one warm-up.
fn time_ns(batch: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..batch {
        f();
    }
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || start.elapsed() < PROBE_BUDGET {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// An AX.25 UI frame carrying a UDP datagram, sized so its KISS encoding
/// is about `kiss_len` octets.
fn ax25_ip_frame(dest: &str, kiss_len: usize) -> Vec<u8> {
    let payload_len = kiss_len.saturating_sub(16 + 20 + 8 + 3).max(4);
    let ip = Ipv4Packet::new(
        Ipv4Addr::new(44, 24, 0, 5),
        Ipv4Addr::new(44, 24, 0, 28),
        Proto::Udp,
        vec![0x33; payload_len],
    );
    Frame::ui(
        Ax25Addr::parse_or_panic(dest),
        Ax25Addr::parse_or_panic("KB7DZ"),
        Pid::Ip,
        ip.encode(),
    )
    .encode()
}

fn kiss_wire(dest: &str, kiss_len: usize) -> Vec<u8> {
    kiss::encode(0, kiss::Command::Data, &ax25_ip_frame(dest, kiss_len))
}

fn flood_dst(i: u32) -> Ipv4Addr {
    Ipv4Addr::from(0x2C18_0000 | (i.wrapping_mul(40_503) & 0xFFFF))
}

fn flood_src(i: u32) -> Ipv4Addr {
    Ipv4Addr::from(0xC612_0000 | (i.wrapping_mul(25_717) & 0xFFFF))
}

/// A route table the size of the run's largest: `n` learned /24s that
/// never match, the connected radio /16, and a default.
fn route_table(n: usize) -> RouteTable {
    let mut rt = RouteTable::new();
    for i in 0..n.saturating_sub(2) {
        rt.insert(Route {
            prefix: Prefix::new(Ipv4Addr::from(0x2C80_0000 | ((i as u32) << 8)), 24),
            via: Some(Ipv4Addr::new(10, 0, 0, 2)),
            iface: IfaceId::new(0),
            source: RouteSource::Learned,
            metric: 2,
        });
    }
    rt.add(
        Prefix::new(Ipv4Addr::new(44, 24, 0, 0), 16),
        None,
        IfaceId::new(1),
    );
    rt.add(
        Prefix::default_route(),
        Some(Ipv4Addr::new(10, 0, 0, 254)),
        IfaceId::new(0),
    );
    rt
}

/// Runs every applicable probe for a run with counts `c`.
pub fn measure(c: &Counts, spans: &mut Spans) -> UnitCosts {
    let mut u = UnitCosts::default();
    let mut probe = |name: &str, wanted: bool, f: &mut dyn FnMut() -> f64| -> f64 {
        if !wanted {
            return 0.0;
        }
        spans.scoped(&format!("probe.{name}"), f)
    };

    // sim.sched: one pop of the earliest key plus one re-key, with as many
    // live keys as a shard of this run holds (hosts, lines and TNCs).
    let live_keys = (c.hosts * 3 / c.shards.max(1)).clamp(8, 4096) as u32;
    u.sched_rekey_pop_ns = probe("sim.sched", c.sched.pops > 0, &mut || {
        let mut s: Scheduler<u32> = Scheduler::new();
        for k in 0..live_keys {
            s.set_deadline(k, Some(SimTime::from_nanos(u64::from(k) * 1_000 + 1)));
        }
        let step = SimDuration::from_nanos(u64::from(live_keys) * 1_000);
        time_ns(4096, || {
            let (t, k) = s.pop().expect("scheduler holds live keys");
            s.set_deadline(k, Some(t + step));
            black_box(k);
        })
    });

    // sim.mailbox: the coordinator→shard hand-off exactly as the engine
    // performs it (recycled buffer, copy, push, pop, recycle).
    let ether_len = c.mean_ether_frame_len();
    u.mailbox_handoff_ns = probe("sim.mailbox", c.mailbox.pushed > 0, &mut || {
        let src = EtherFrame::new(
            MacAddr::local(1),
            MacAddr::local(2),
            EtherType::Ipv4,
            vec![0x5a; ether_len],
        );
        let mut mailbox: Mailbox<(SimTime, usize, EtherFrame)> = Mailbox::with_capacity(4);
        let mut spare: Vec<EtherFrame> = Vec::with_capacity(4);
        time_ns(4096, || {
            let mut buf = spare.pop().unwrap_or_else(EtherFrame::empty);
            src.clone_into(&mut buf);
            mailbox.push((SimTime::ZERO, 0, buf));
            let (_, _, frame) = mailbox.pop().expect("just pushed");
            spare.push(frame);
        })
    });

    // kiss / ax25 / prdriver: frames of the run's mean serial length.
    let kiss_len = c.mean_kiss_frame_len();
    let radio_used = c.pr.frames_in > 0;
    u.kiss_deframe_ns_per_byte = probe("kiss.deframe", radio_used, &mut || {
        let wire = kiss_wire("N7AKR-1", kiss_len);
        let mut d = kiss::Deframer::new();
        time_ns(256, || {
            d.push_slice(black_box(&wire), |_, f| {
                black_box(f.payload.len());
            });
        }) / wire.len() as f64
    });
    u.kiss_encode_ns_per_byte = probe("kiss.encode", radio_used, &mut || {
        let frame = ax25_ip_frame("N7AKR-1", kiss_len);
        let mut out: Vec<u8> = Vec::with_capacity(2 * frame.len() + 4);
        time_ns(256, || {
            out.clear();
            kiss::encode_into(0, kiss::Command::Data, black_box(&frame), &mut out);
            black_box(out.len());
        }) / frame.len() as f64
    });
    u.ax25_peek_ns = probe("ax25.peek", radio_used, &mut || {
        let frame = ax25_ip_frame("N7AKR-1", kiss_len);
        time_ns(4096, || {
            black_box(FrameHeader::peek(black_box(&frame)).is_ok());
        })
    });
    u.ax25_fcs_ns_per_byte = probe("ax25.fcs", radio_used, &mut || {
        let frame = ax25_ip_frame("N7AKR-1", kiss_len);
        time_ns(1024, || {
            black_box(ax25::fcs::crc16_x25(black_box(&frame)));
        }) / frame.len() as f64
    });
    let other_share = c.not_for_us_share();
    u.rint_ns_per_char = probe("gateway.prdriver", radio_used, &mut || {
        let per_char = |dest: &str| {
            let wire = kiss_wire(dest, kiss_len);
            let mut drv = PacketRadioDriver::new(
                PrConfig::new(Ax25Addr::parse_or_panic("N7AKR-1")),
                Ipv4Addr::new(44, 24, 0, 28),
            );
            let mut tx: Vec<sim::PacketBuf> = Vec::new();
            time_ns(256, || {
                drv.rint_slice(SimTime::ZERO, black_box(&wire), &mut tx, |_, ev| {
                    black_box(ev);
                });
                tx.clear();
            }) / wire.len() as f64
        };
        // Weighted by the run's own for-us / for-someone-else frame mix.
        other_share * per_char("W1GOH") + (1.0 - other_share) * per_char("N7AKR-1")
    });

    // ether: one frame of the run's mean size sent and delivered.
    u.ether_frame_ns = probe("ether", c.ether_frames > 0, &mut || {
        let mut seg = Segment::new(Bandwidth::ETHERNET_10M);
        let a = seg.attach(MacAddr::local(1));
        let _b = seg.attach(MacAddr::local(2));
        let mut now = SimTime::ZERO;
        time_ns(1024, || {
            let frame = EtherFrame::new(
                MacAddr::local(2),
                MacAddr::local(1),
                EtherType::Ipv4,
                vec![0x5a; ether_len.saturating_sub(14)],
            );
            seg.send(now, a, frame);
            now = seg.next_deadline().expect("a frame is in flight");
            seg.advance_with(now, |nic, f| {
                black_box((nic, f.payload.len()));
            });
        })
    });

    // netstack: forwarding through a stack with the run's table size,
    // cache setting and hit ratio.
    let routes = c.routes.max(3) as usize;
    let fwd_probes = c.ip.fwd_cache_hits + c.ip.fwd_cache_misses;
    let hit_ratio = if fwd_probes == 0 {
        0.0
    } else {
        c.ip.fwd_cache_hits as f64 / fwd_probes as f64
    };
    u.ip_forward_ns = probe("netstack.ip", c.ip.forwarded > 0, &mut || {
        let mut st = NetStack::new(StackConfig {
            forwarding: true,
            fwd_cache_bits: if fwd_probes > 0 { 12 } else { 0 },
            ..StackConfig::default()
        });
        let wired = st.add_iface(IfaceConfig {
            name: "qe0".into(),
            addr: Ipv4Addr::new(10, 0, 0, 1),
            prefix_len: 24,
            mtu: 1500,
        });
        st.add_iface(IfaceConfig {
            name: "pr0".into(),
            addr: Ipv4Addr::new(44, 24, 0, 28),
            prefix_len: 16,
            mtu: 256,
        });
        for r in route_table(routes).routes() {
            st.routes_mut().insert(*r);
        }
        // Destinations: one hot address for the run's hit share of the
        // packets, 65,536 rotating ones for the rest.
        let hot_every = if hit_ratio >= 1.0 {
            1
        } else {
            (1.0 / (1.0 - hit_ratio)).round() as u32
        };
        let wires: Vec<Vec<u8>> = (0..4096u32)
            .map(|i| {
                let dst = if hit_ratio > 0.0 && i % hot_every != 0 {
                    flood_dst(0)
                } else {
                    flood_dst(i + 1)
                };
                Ipv4Packet::new(flood_src(i), dst, Proto::Udp, vec![0; 20]).encode()
            })
            .collect();
        let mut i = 0usize;
        let mut acts: Vec<StackAction> = Vec::new();
        time_ns(1024, || {
            i = (i + 1) % wires.len();
            for act in st.input(SimTime::ZERO, wired, &wires[i]) {
                if let StackAction::ForwardNeeded { packet, .. } = act {
                    st.forward(packet);
                }
            }
            acts.clear();
            st.drain_actions_into(&mut acts);
            black_box(acts.len());
        })
    });
    u.fwd_hit_ns = probe("netstack.fwd", c.ip.fwd_cache_hits > 0, &mut || {
        let mut cache = FwdCache::new(12);
        let dst = flood_dst(0);
        cache.store(
            dst,
            FwdKind::Full,
            7,
            3,
            FwdDecision::Via {
                prefix: Prefix::new(Ipv4Addr::new(44, 24, 0, 0), 16),
                iface: IfaceId::new(1),
                hop: dst,
                encap: None,
            },
        );
        time_ns(8192, || {
            black_box(cache.probe(black_box(dst), FwdKind::Full, 7, 3));
        })
    });
    let lpm_used = c.ip.forwarded > 0 || c.ip.ip_out > 0;
    u.lpm_lookup_ns = probe("netstack.lpm.compiled", lpm_used, &mut || {
        let mut rt = route_table(routes);
        rt.lookup_fast(flood_dst(0)); // compile before timing
        let mut i = 0u32;
        time_ns(8192, || {
            i = i.wrapping_add(1);
            black_box(rt.lookup_fast(black_box(flood_dst(i))));
        })
    });
    u.lpm_linear_ns = probe("netstack.lpm.linear", lpm_used, &mut || {
        let rt = route_table(routes);
        let mut i = 0u32;
        time_ns(1024, || {
            i = i.wrapping_add(1);
            black_box(rt.lookup(black_box(flood_dst(i))));
        })
    });

    // encap: lookup-free IPIP wrap and unwrap of a small datagram in a
    // pooled buffer (one out + one in).
    u.encap_decap_ns = probe("encap", c.ip.ipip_out + c.ip.ipip_in > 0, &mut || {
        let inner = Ipv4Packet::new(
            Ipv4Addr::new(44, 0, 1, 5),
            Ipv4Addr::new(44, 0, 2, 2),
            Proto::Udp,
            vec![0x33; 64],
        )
        .encode();
        let pool = BufPool::new(2048);
        time_ns(1024, || {
            let mut buf = pool.take_with_headroom(encap::ipip::OUTER_HEADER_LEN);
            buf.extend_from_slice(&inner);
            encap::encap_in_place(
                &mut buf,
                Ipv4Addr::new(10, 0, 1, 1),
                Ipv4Addr::new(10, 0, 2, 1),
                64,
            );
            let outer = encap::decap_in_place(&mut buf).expect("just encapsulated");
            black_box((outer.src, buf.len()));
        })
    });

    // filter: the gateway posture judging unsolicited foreign datagrams —
    // one fixed flow (cache hit) and 65,536 rotating flows (cache miss).
    let meta = |i: u32| PacketMeta {
        src: u32::from(flood_src(i)),
        dst: u32::from(flood_dst(i)),
        proto: 17,
        dport: 2100,
        has_port: true,
    };
    let filter_used = c.filter.cache_hits + c.filter.cache_misses > 0;
    u.filter_hit_ns = probe("filter.hit", filter_used, &mut || {
        let mut e = FilterEngine::new(FilterConfig::gateway());
        let hot = meta(0);
        e.eval(SimTime::ZERO, &hot);
        time_ns(8192, || {
            black_box(e.eval(SimTime::ZERO, black_box(&hot)));
        })
    });
    u.filter_miss_ns = probe("filter.miss", filter_used, &mut || {
        let mut e = FilterEngine::new(FilterConfig::gateway());
        let mut i = 0u32;
        time_ns(8192, || {
            i = i.wrapping_add(1);
            black_box(e.eval(SimTime::ZERO, black_box(&meta(i))));
        })
    });

    // socket: readiness of a listening and a datagram handle.
    let apps_used = c.ip.ip_out > 0;
    u.socket_poll_ns = probe("socket", apps_used, &mut || {
        let (mut st, _) = NetStack::simple_host(Ipv4Addr::new(10, 0, 0, 1), 24, 1500, None);
        let mut table = SocketTable::new();
        let listener = table.listen(&mut st, 7, Some(4)).expect("fresh stack");
        let udp = table.bind_udp(&mut st, 9000).expect("fresh stack");
        time_ns(8192, || {
            black_box(table.poll(&st, black_box(listener)));
            black_box(table.poll(&st, black_box(udp)));
        }) / 2.0
    });

    // workload: one session's worth of recording.
    u.workload_record_ns = probe("workload", apps_used, &mut || {
        let mut r = FlowRecorder::new();
        let mut i = 0u64;
        time_ns(8192, || {
            i = i.wrapping_add(1);
            r.start();
            r.observe(SimDuration::from_micros(50 + (i * 37) % 900_000));
            r.complete(64);
            black_box(&r);
        })
    });

    u
}
