//! `experiments` — E1–E18, the paper's claims restated, as one program.
//!
//! ```text
//! experiments e4 [e7 …]     print those experiments' output
//! experiments --claims      the ledger: paper § → claim → experiment → holds
//! experiments --write DIR   run everything, rewrite DIR/<name>.txt + claims.txt
//! experiments --check DIR   run everything, compare with DIR; names the file
//!                           and the first line that differs
//! ```
//!
//! Every mode exits 1 when a claim is false (each is named on stderr) or a
//! golden differs, 2 on a usage or I/O error.

mod experiments;

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::process::ExitCode;

use bench::report::Report;
use experiments::{Experiment, REGISTRY};

fn run(e: &Experiment) -> Report {
    let mut x = Report::default();
    (e.run)(&mut x);
    x
}

/// The ledger as a Markdown table, the form EXPERIMENTS.md quotes it in.
fn ledger(runs: &[(&Experiment, Report)]) -> String {
    let mut out = String::from("| paper § | claim | experiment | holds |\n|---|---|---|---|\n");
    for (e, x) in runs {
        for c in x.claims() {
            let holds = if c.holds { "yes" } else { "NO" };
            writeln!(
                out,
                "| {} | {} | {} (`results/{}.txt`) | {holds} |",
                c.section,
                c.text,
                e.id.to_uppercase(),
                e.golden
            )
            .expect("writing to a String cannot fail");
        }
    }
    out
}

/// Where two differing texts first part: the 1-based line number and the
/// line on each side.
fn first_difference<'a>(golden: &'a str, now: &'a str) -> (usize, &'a str, &'a str) {
    const END: &str = "<end of file>";
    let (mut g, mut n) = (golden.lines(), now.lines());
    let mut line = 1;
    loop {
        match (g.next(), n.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (a, b) => return (line, a.unwrap_or(END), b.unwrap_or(END)),
        }
    }
}

/// Compares what a full run `produced` with `dir/*.txt`, in both
/// directions; 1 if they disagree anywhere.
fn compare(dir: &Path, produced: &[(&str, String)]) -> io::Result<u8> {
    let mut code = 0;
    for (stem, now) in produced {
        let path = dir.join(stem).with_extension("txt");
        match std::fs::read_to_string(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                println!(
                    "MISSING: {} (the registry produces it, nothing records it)",
                    path.display()
                );
                code = 1;
            }
            Err(e) => return Err(e),
            Ok(golden) if golden == *now => {}
            Ok(golden) => {
                let (line, g, n) = first_difference(&golden, now);
                println!("DIFFERS: {}", path.display());
                println!("  line {line}, golden: {g}\n  line {line}, now:    {n}");
                code = 1;
            }
        }
    }
    let mut recorded: Vec<_> = std::fs::read_dir(dir)?
        .map(|entry| entry.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    recorded.sort();
    for path in recorded {
        let stem = path.file_stem().and_then(|s| s.to_str());
        let known = produced.iter().any(|(s, _)| Some(*s) == stem);
        if path.extension().is_some_and(|x| x == "txt") && !known {
            println!(
                "ORPHAN: {} (recorded, but nothing in the registry produces it)",
                path.display()
            );
            code = 1;
        }
    }
    Ok(code)
}

/// What to do with a full run's outputs, the ledger printed.
enum Then<'a> {
    Nothing,
    Write(&'a Path),
    Check(&'a Path),
}

/// `--claims`, `--write DIR` and `--check DIR`: every experiment, in
/// process.
fn all(then: Then) -> io::Result<u8> {
    let runs: Vec<_> = REGISTRY
        .iter()
        .map(|e| {
            eprintln!("running {} …", e.golden);
            (e, run(e))
        })
        .collect();
    let mut code = 0;
    for (e, x) in &runs {
        code |= x.verdict(e.id, &mut io::stderr())?;
    }
    let ledger = ledger(&runs);
    print!("{ledger}");
    let produced: Vec<(&str, String)> = runs
        .iter()
        .map(|(e, x)| (e.golden, x.output().to_string()))
        .chain([("claims", ledger)])
        .collect();
    match then {
        Then::Nothing => {}
        Then::Write(dir) => {
            std::fs::create_dir_all(dir)?;
            for (stem, text) in &produced {
                std::fs::write(dir.join(stem).with_extension("txt"), text)?;
            }
            println!("all experiment outputs written to {}/", dir.display());
        }
        Then::Check(dir) => {
            code |= compare(dir, &produced)?;
            if code == 0 {
                println!("all experiment outputs match {}/", dir.display());
            }
        }
    }
    Ok(code)
}

fn some(ids: &[&str]) -> io::Result<u8> {
    let mut code = 0;
    for id in ids {
        let Some(e) = REGISTRY.iter().find(|e| e.id == id.to_lowercase()) else {
            eprintln!("experiments: no experiment {id:?}");
            return usage();
        };
        let x = run(e);
        print!("{}", x.output());
        code |= x.verdict(e.id, &mut io::stderr())?;
    }
    Ok(code)
}

fn usage() -> io::Result<u8> {
    eprintln!("usage: experiments <id>… | --claims | --write DIR | --check DIR");
    for e in REGISTRY {
        eprintln!("  {:<4} {:<10} results/{}.txt", e.id, e.section, e.golden);
    }
    Ok(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let code = match args[..] {
        ["--claims"] => all(Then::Nothing),
        ["--write", dir] => all(Then::Write(Path::new(dir))),
        ["--check", dir] => all(Then::Check(Path::new(dir))),
        [first, ..] if !first.starts_with('-') => some(&args),
        _ => usage(),
    };
    match code {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("experiments: {e}");
            ExitCode::from(2)
        }
    }
}
