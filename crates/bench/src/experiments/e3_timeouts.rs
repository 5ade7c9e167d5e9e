//! E3 — §4.1: "Hosts on the Ethernet side expect fast response … the
//! system on the Ethernet side initially retransmits packets several
//! times before a response makes it back. This results in wasted
//! bandwidth … Since these retransmissions are queued at the gateway,
//! they delay other packets. Fortunately, many implementations of TCP
//! dynamically adjust their timeout values."
//!
//! An Ethernet host pushes a bulk transfer to the radio-side PC through
//! the gateway, once per retransmission policy: fixed RTOs of several
//! sizes (the naive implementations) and the adaptive Jacobson/Karn
//! policy. Reported per policy: segments, retransmissions, wasted
//! bytes, transfer time, goodput, learned RTO, and the gateway queue
//! high-water mark.

use apps::bulk::{BulkSendReport, BulkSender, BulkSink};
use bench::authorize_inbound;
use bench::report::Report;
use gateway::scenario::{paper_topology, PaperConfig, PC_IP};
use netstack::tcp::{RtoPolicy, TcpConfig};
use sim::SimDuration;

const BYTES: usize = 20_000;

struct Outcome {
    send: BulkSendReport,
    gw_queue_peak: usize,
    done: bool,
}

fn transfer(policy: RtoPolicy, seed: u64) -> Outcome {
    let mut s = paper_topology(PaperConfig::default(), seed);
    // Authorize the inbound direction (§4.3) before the transfer starts.
    authorize_inbound(&mut s);
    let sink = BulkSink::new(6000);
    let sink_report = sink.report();
    s.world.add_app(s.pc, Box::new(sink));
    let cfg = TcpConfig {
        rto: policy,
        ..TcpConfig::default()
    };
    let sender = BulkSender::new(PC_IP, 6000, BYTES)
        .with_tcp(cfg)
        .with_start_delay(SimDuration::from_secs(15));
    let report = sender.report();
    s.world.add_app(s.ether_host, Box::new(sender));
    s.world.run_for(SimDuration::from_secs(4 * 3600));

    let send = report.take();
    Outcome {
        done: send.finished_at.is_some() && sink_report.borrow().bytes == BYTES,
        send,
        gw_queue_peak: s.world.host(s.gw).input_queue_peak(),
    }
}

impl Outcome {
    fn wasted_pct(&self) -> f64 {
        let tcb = &self.send.tcb;
        if tcb.bytes_sent > 0 {
            tcb.bytes_retransmitted as f64 / tcb.bytes_sent as f64 * 100.0
        } else {
            f64::NAN
        }
    }

    fn duration_s(&self) -> f64 {
        self.send.duration().map_or(f64::NAN, |d| d.as_secs_f64())
    }
}

pub fn run(x: &mut Report) {
    x.banner(
        "E3",
        "fixed vs adaptive TCP retransmission over the gateway",
        "fast-side hosts with fixed timeouts waste bandwidth on needless \
         retransmissions; adaptive implementations learn the path (§4.1)",
    );
    x.text("(20 kB transfer, Ethernet host → gateway → 1200 bit/s radio → PC)\n");

    let policies = [
        ("fixed 1.0s", RtoPolicy::Fixed(SimDuration::from_secs(1))),
        (
            "fixed 1.5s",
            RtoPolicy::Fixed(SimDuration::from_millis(1500)),
        ),
        ("fixed 3.0s", RtoPolicy::Fixed(SimDuration::from_secs(3))),
        ("fixed 6.0s", RtoPolicy::Fixed(SimDuration::from_secs(6))),
        ("adaptive", RtoPolicy::Adaptive),
    ];

    let mut outcomes = Vec::new();
    for (name, policy) in policies {
        let o = transfer(policy, 3001);
        x.row(&[
            ("policy", &name),
            ("segs", &o.send.tcb.segments_sent),
            ("rtx", &o.send.tcb.retransmissions),
            ("wasted_%", &format_args!("{:.1}", o.wasted_pct())),
            ("time_s", &format_args!("{:.0}", o.duration_s())),
            (
                "goodput_bps",
                &format_args!("{:.0}", o.send.goodput_bps().unwrap_or(f64::NAN)),
            ),
            ("srtt_s", &format_args!("{:.1}", o.send.tcb.srtt_secs)),
            ("rto_s", &format_args!("{:.1}", o.send.tcb.rto_secs)),
            ("gwq_peak", &o.gw_queue_peak),
            ("done", &o.done),
        ]);
        outcomes.push(o);
    }
    x.end_table();
    x.text("expected shape: short fixed RTOs retransmit heavily (wasted bandwidth,");
    x.text("deeper gateway queues, longer completion); the adaptive policy converges");
    x.text("on a multi-second SRTT and stops retransmitting — \"when the system on");
    x.text("the Ethernet side learns the correct timeout value, the frequency of");
    x.text("unnecessary packet retransmissions is reduced.\"");

    let (fixed, adaptive) = outcomes.split_at(4);
    let adaptive = &adaptive[0];
    x.claim(
        "§4.1",
        "the transfer completes under every retransmission policy",
        outcomes.iter().all(|o| o.done),
    );
    x.claim(
        "§4.1",
        "fixed 1.5 s RTO retransmits at least 3x what adaptive does on the same transfer",
        fixed[1].send.tcb.retransmissions >= 3 * adaptive.send.tcb.retransmissions,
    );
    x.claim(
        "§4.1",
        "every fixed RTO wastes a larger share of the bytes it sends than adaptive, and takes more than twice as long to finish",
        fixed.iter().all(|f| {
            f.wasted_pct() > adaptive.wasted_pct() && f.duration_s() > 2.0 * adaptive.duration_s()
        }),
    );
    x.claim(
        "§4.1",
        "the adaptive sender learns the path: its smoothed RTT ends above every fixed timeout tried (6 s)",
        adaptive.send.tcb.srtt_secs > 6.0,
    );
}
