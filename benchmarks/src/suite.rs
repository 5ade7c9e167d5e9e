//! The whole suite: every workload in a child process of its own (so
//! `peak_rss_mb` is per workload), untraced then traced; cross-process
//! checks; `out/results.json`; and `--selfcheck`.

use std::process::{Command, ExitCode};

use crate::workloads::Workload;
use crate::{harness_dir, json_num, out_dir};

/// One reported number of a child run.
#[derive(Debug, Clone)]
struct Row {
    name: String,
    value: f64,
    unit: String,
}

/// Everything the two child runs of one workload reported.
struct Outcome {
    workload: Workload,
    end_to_end: Vec<Row>,
    per_layer: Vec<Row>,
    raw: Vec<(String, Vec<f64>)>,
    digest: String,
    ok: bool,
}

/// Runs one child and echoes its output; returns its lines and success.
fn child(w: Workload, seed: u64, seconds: f64, trace: bool) -> (Vec<String>, bool) {
    let exe = std::env::current_exe().expect("the harness knows its own path");
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output();
    match out {
        Ok(out) => {
            let text = String::from_utf8_lossy(&out.stdout).into_owned();
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let lines: Vec<String> = text.lines().map(str::to_string).collect();
            // The JSON line is for the driver; the suite prints tables.
            for l in lines.iter().filter(|l| !l.starts_with('{')) {
                println!("{l}");
            }
            (lines, out.status.success())
        }
        Err(e) => {
            eprintln!("cannot start the {} child: {e}", w.name());
            (Vec::new(), false)
        }
    }
}

/// The fields of a `<tag> <workload> …` output line after those two.
fn fields<'a>(line: &'a str, tag: &str) -> Option<std::str::SplitWhitespace<'a>> {
    let mut f = line.split_whitespace();
    (f.next()? == tag).then_some(())?;
    f.next()?; // the workload name
    Some(f)
}

fn parse_rows(lines: &[String]) -> Vec<Row> {
    lines
        .iter()
        .filter_map(|l| {
            let mut f = fields(l, "metric")?;
            Some(Row {
                name: f.next()?.to_string(),
                value: f.next()?.parse().ok()?,
                unit: f.next()?.to_string(),
            })
        })
        .collect()
}

fn run_workload(w: Workload, seed: u64, seconds: f64) -> Outcome {
    println!("== {} (seed {seed}) ==", w.name());
    let (untraced, ok0) = child(w, seed, seconds, false);
    let (traced, ok1) = child(w, seed, seconds, true);
    let raw = untraced
        .iter()
        .filter_map(|l| {
            let mut f = fields(l, "raw")?;
            let name = f.next()?.to_string();
            Some((name, f.filter_map(|v| v.parse().ok()).collect()))
        })
        .collect();
    // `info <workload> digest <hex> …`
    let digest = untraced
        .iter()
        .find_map(|l| fields(l, "info")?.nth(1).map(str::to_string))
        .unwrap_or_default();
    Outcome {
        workload: w,
        end_to_end: parse_rows(&untraced),
        per_layer: parse_rows(&traced),
        raw,
        digest,
        ok: ok0 && ok1,
    }
}

/// Runs every workload; the bool is whether every check everywhere held.
fn run_suite(seed: u64, seconds: f64) -> (Vec<Outcome>, bool) {
    let outcomes: Vec<Outcome> = Workload::ALL
        .into_iter()
        .map(|w| run_workload(w, seed, seconds))
        .collect();
    let mut ok = outcomes.iter().all(|o| o.ok);
    // The one check no single process can make: the two worker counts
    // step the byte-identical city to the byte-identical event log.
    let digest_of = |name: &str| {
        outcomes
            .iter()
            .find(|o| o.workload.name() == name)
            .map(|o| o.digest.clone())
            .unwrap_or_default()
    };
    let (d1, d2) = (digest_of("city_fleet_1w"), digest_of("city_fleet_2w"));
    let same = !d1.is_empty() && d1 == d2;
    println!(
        "check suite city_1w_equals_2w {} — digests {d1} / {d2}",
        if same { "ok" } else { "FAIL" }
    );
    ok &= same;
    (outcomes, ok)
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn rows_json(rows: &[Row], raw: &[(String, Vec<f64>)]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|r| {
            let repeats = raw
                .iter()
                .find(|(n, _)| *n == r.name)
                .map(|(_, v)| {
                    let list: Vec<String> = v.iter().map(|x| json_num(*x)).collect();
                    format!(", \"repeats\": [{}]", list.join(", "))
                })
                .unwrap_or_default();
            format!(
                "      \"{}\": {{\"value\": {}, \"unit\": \"{}\"{repeats}}}",
                r.name,
                json_num(r.value),
                r.unit
            )
        })
        .collect();
    items.join(",\n")
}

fn write_results(outcomes: &[Outcome], seed: u64, ok: bool) -> std::io::Result<()> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workloads: Vec<String> = outcomes
        .iter()
        .map(|o| {
            format!(
                "  \"{}\": {{\n    \"digest\": \"{}\",\n    \"end_to_end\": {{\n{}\n    }},\n    \"per_layer\": {{\n{}\n    }}\n  }}",
                o.workload.name(),
                o.digest,
                rows_json(&o.end_to_end, &o.raw),
                rows_json(&o.per_layer, &[]),
            )
        })
        .collect();
    let text = format!(
        "{{\n\"cores\": {cores},\n\"git_rev\": \"{}\",\n\"seed\": {seed},\n\"correct\": {ok},\n\"workloads\": {{\n{}\n}}\n}}\n",
        git_rev(),
        workloads.join(",\n")
    );
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join("results.json"), text)
}

fn verdict(ok: bool) -> ExitCode {
    println!("suite: {}", if ok { "all checks passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The default command: run everything once, print it, write results.
pub fn run_and_report(seed: u64, seconds: f64) -> ExitCode {
    let (outcomes, ok) = run_suite(seed, seconds);
    if let Err(e) = write_results(&outcomes, seed, ok) {
        eprintln!("cannot write results.json: {e}");
        return ExitCode::from(2);
    }
    verdict(ok)
}

/// The bound `BENCHMARK.json` fixes for an end-to-end metric: the number
/// after the first `"bound"` that follows `"name": "<metric>"`.
fn bound_of(benchmark_json: &str, metric: &str) -> Option<f64> {
    let at = benchmark_json.find(&format!("\"name\": \"{metric}\""))?;
    let rest = &benchmark_json[at..];
    let rest = &rest[rest.find("\"bound\"")? + "\"bound\"".len()..];
    let rest = rest.trim_start_matches([':', ' ']);
    let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == 'e' || c == '-'))?;
    rest[..end].parse().ok()
}

/// `--selfcheck`: two sets of runs of the same code must agree within
/// the benchmark's own bounds on every end-to-end metric, and exactly on
/// every simulated value and per-layer count. A workload the suite runs
/// but `BENCHMARK.json` does not list (`city_fleet_2w`, whose wall clock
/// on a shared 2-core box is mostly futex wake-up latency) is held to the
/// exact comparisons only; its host-time rows are printed as `info`.
pub fn selfcheck(seed: u64, seconds: f64) -> ExitCode {
    let bench_path = harness_dir().join("../BENCHMARK.json");
    let benchmark_json = match std::fs::read_to_string(&bench_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", bench_path.display());
            return ExitCode::from(2);
        }
    };
    let (first, ok1) = run_suite(seed, seconds);
    let (second, ok2) = run_suite(seed, seconds);
    let mut ok = ok1 && ok2;
    println!("== selfcheck: two sets of runs of the same code ==");
    for (a, b) in first.iter().zip(&second) {
        let gated = benchmark_json.contains(&format!("\"name\": \"{}\"", a.workload.name()));
        for (ra, rb) in a.end_to_end.iter().zip(&b.end_to_end) {
            let Some(bound) = bound_of(&benchmark_json, &ra.name) else {
                println!(
                    "selfcheck {} {} FAIL — no bound in BENCHMARK.json",
                    a.workload.name(),
                    ra.name
                );
                ok = false;
                continue;
            };
            let base = ra.value.abs().min(rb.value.abs());
            let spread = if base > 0.0 {
                (ra.value - rb.value).abs() / base
            } else {
                0.0
            };
            let exact = ra.name.starts_with("sim_");
            let pass = if exact {
                ra.value == rb.value
            } else {
                spread <= bound || !gated
            };
            println!(
                "selfcheck {} {} {} {} {} spread {:.4} bound {} {}",
                a.workload.name(),
                ra.name,
                json_num(ra.value),
                json_num(rb.value),
                ra.unit,
                spread,
                if exact {
                    "exact".to_string()
                } else {
                    bound.to_string()
                },
                match (pass, exact || gated) {
                    (false, _) => "FAIL",
                    (true, true) => "ok",
                    (true, false) => "info",
                }
            );
            ok &= pass;
        }
        for (ra, rb) in a.per_layer.iter().zip(&b.per_layer) {
            if ra.unit == "count" && ra.value != rb.value {
                println!(
                    "selfcheck {} {} {} {} count FAIL — counts must repeat exactly",
                    a.workload.name(),
                    ra.name,
                    json_num(ra.value),
                    json_num(rb.value)
                );
                ok = false;
            }
        }
    }
    if let Err(e) = write_results(&second, seed, ok) {
        eprintln!("cannot write results.json: {e}");
        return ExitCode::from(2);
    }
    verdict(ok)
}
