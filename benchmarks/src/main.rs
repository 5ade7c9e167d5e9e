//! Whole-experiment benchmark for the packet-radio gateway simulator.
//!
//! ```text
//! benchmarks --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last stdout line is the JSON
//!     result (end-to-end metrics with --trace 0, per-layer with 1)
//! benchmarks [--seed <n>] [--seconds <s>]
//!     the whole suite: every workload in a child process of its own,
//!     untraced then traced, cross-process checks, out/results.json
//! benchmarks --selfcheck [...]
//!     the suite twice; fails if any end-to-end metric of the two sets
//!     differs by more than its bound
//! ```
//!
//! README.md has the metric and workload tables and what each number
//! means (simulated vs host time, estimate vs count).

mod alloc;
mod layers;
mod probes;
mod run;
mod single;
mod spans;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use layers::Metric;
use single::Report;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Default workload seed (the paper's year).
const DEFAULT_SEED: u64 = 1988;
/// Default seconds of run loop measured per workload (`run_seconds`).
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The harness's own directory (`run.sh` exports it as `BENCHMARKS_DIR`).
pub fn harness_dir() -> PathBuf {
    std::env::var_os("BENCHMARKS_DIR").map_or(PathBuf::from("benchmarks"), PathBuf::from)
}

/// Where trace files and `results.json` go.
pub fn out_dir() -> PathBuf {
    harness_dir().join("out")
}

/// A finite JSON number with all its digits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_report(w: Workload, r: &Report) {
    for Metric { name, value, unit } in &r.metrics {
        println!("metric {} {name} {} {unit}", w.name(), json_num(*value));
    }
    for (name, values) in &r.raw {
        let list: Vec<String> = values.iter().map(|v| json_num(*v)).collect();
        println!("raw {} {name} {}", w.name(), list.join(" "));
    }
    for c in &r.checks {
        let verdict = if c.ok { "ok" } else { "FAIL" };
        println!("check {} {} {verdict} — {}", w.name(), c.name, c.detail);
    }
    println!(
        "info {} digest {:016x} runs {} attempted {} failed {}",
        w.name(),
        r.digest,
        r.repeats,
        r.attempted,
        r.failed
    );
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    );
}

fn run_single(w: Workload, args: &Args) -> ExitCode {
    let report = if args.trace {
        let (report, spans) = single::traced(w, args.seed);
        let dir = out_dir();
        let path = dir.join(format!("trace_{}.json", w.name()));
        let run_id = format!("{}-seed{}", w.name(), args.seed);
        if let Err(e) = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans.to_json(&run_id)))
        {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        report
    } else {
        single::untraced(w, args.seed, args.seconds)
    };
    print_report(w, &report);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmarks: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_single(w, &args),
        None if args.selfcheck => suite::selfcheck(args.seed, args.seconds),
        None => suite::run_and_report(args.seed, args.seconds),
    }
}
