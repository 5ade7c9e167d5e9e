//! The one experiment harness: an output buffer, a banner, one table verb
//! ([`Report::row`]) and one verdict verb ([`Report::claim`]).
//!
//! An experiment is a `fn run(x: &mut Report)`: everything it prints goes
//! through `x` (so a run can be diffed against its golden in-process), and
//! everything it concludes goes through [`Report::claim`] — the paper's
//! statement as an inequality over values the run just computed. A false
//! claim never changes the output bytes; it is named on stderr and turns
//! the exit code to 1.

use std::fmt::{self, Display, Write as _};
use std::io;

use sim::stats::render_table;

/// One verdict of an experiment.
#[derive(Debug)]
pub struct Claim {
    /// The PAPER.md / DESIGN.md section the statement comes from.
    pub section: String,
    /// The statement, as an inequality between computed values.
    pub text: String,
    /// Whether it held on this run.
    pub holds: bool,
}

/// A measured value printed compactly: integers plainly, fractions with 3
/// decimals.
#[derive(Debug, Clone, Copy)]
pub struct Num(pub f64);

impl Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if v.fract() == 0.0 && v.abs() < 1e15 {
            write!(f, "{}", v as i64)
        } else {
            write!(f, "{v:.3}")
        }
    }
}

/// What one experiment run printed and concluded.
#[derive(Debug, Default)]
pub struct Report {
    out: String,
    /// The table being built: its columns in first-seen order, its rows.
    cols: Vec<String>,
    rows: Vec<Vec<Option<String>>>,
    claims: Vec<Claim>,
}

impl Report {
    /// The standard experiment banner.
    pub fn banner(&mut self, id: &str, title: &str, claim: &str) {
        let rule = "=".repeat(74);
        self.text(format_args!(
            "{rule}\n{id}: {title}\npaper claim: {claim}\n{rule}"
        ));
    }

    /// One line of output (or several: `s` may hold newlines).
    pub fn text(&mut self, s: impl Display) {
        writeln!(self.out, "{s}").expect("writing to a String cannot fail");
    }

    /// Appends a row of `(column, cell)` pairs to the table being built.
    /// Columns appear in first-seen order, naming one twice keeps the later
    /// cell, and a row that lacks a column renders `-` there.
    ///
    /// # Examples
    ///
    /// ```
    /// use bench::report::{Num, Report};
    ///
    /// let mut x = Report::default();
    /// x.row(&[("load", &format_args!("{:.2}", 0.5)), ("drops", &12)]);
    /// x.row(&[("load", &"1.00"), ("share", &Num(0.25))]);
    /// x.end_table();
    /// assert_eq!(x.output(), "load  drops  share\n0.50     12      -\n1.00      -  0.250\n\n");
    /// ```
    pub fn row(&mut self, cells: &[(&str, &dyn Display)]) {
        let mut row = vec![None; self.cols.len()];
        for (name, cell) in cells {
            let i = self.cols.iter().position(|c| c == name).unwrap_or_else(|| {
                self.cols.push((*name).to_string());
                row.push(None);
                self.cols.len() - 1
            });
            row[i] = Some(cell.to_string());
        }
        self.rows.push(row);
    }

    /// Prints the rows gathered since the last table — header first,
    /// right-aligned, two-space gutters — and a blank line.
    pub fn end_table(&mut self) {
        let width = self.cols.len();
        let mut table = vec![std::mem::take(&mut self.cols)];
        for mut row in self.rows.drain(..) {
            row.resize(width, None);
            let cells = row.into_iter().map(|c| c.unwrap_or_else(|| "-".into()));
            table.push(cells.collect());
        }
        self.text(render_table(&table));
    }

    /// Records one verdict and hands `holds` back, so the output may be
    /// worded from it. `section` cites PAPER.md / DESIGN.md; `text` is the
    /// claim as an inequality between values this run computed.
    pub fn claim(&mut self, section: &str, text: &str, holds: bool) -> bool {
        self.claims.push(Claim {
            section: section.to_string(),
            text: text.to_string(),
            holds,
        });
        holds
    }

    /// Everything printed so far.
    pub fn output(&self) -> &str {
        &self.out
    }

    /// Every verdict recorded so far.
    pub fn claims(&self) -> &[Claim] {
        &self.claims
    }

    /// Names each false claim on `err`; the process exit code this run
    /// has earned (0 when every claim holds, else 1).
    pub fn verdict(&self, id: &str, err: &mut dyn io::Write) -> io::Result<u8> {
        let mut code = 0;
        for c in self.claims.iter().filter(|c| !c.holds) {
            writeln!(err, "{id}: claim does not hold: {}: {}", c.section, c.text)?;
            code = 1;
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(holds: bool) -> (String, String, u8) {
        let mut x = Report::default();
        x.banner("E0", "a title", "a claim (§0)");
        x.row(&[("arm", &"fixed"), ("rexmt", &1274)]);
        x.row(&[("arm", &"adaptive"), ("rexmt", &111)]);
        x.end_table();
        let said = x.claim("§4.1", "fixed retransmits >= 3x adaptive", holds);
        assert_eq!(said, holds);
        let mut err = Vec::new();
        let code = x.verdict("E0", &mut err).unwrap();
        (
            x.output().to_string(),
            String::from_utf8(err).unwrap(),
            code,
        )
    }

    #[test]
    fn false_claim_is_named_on_stderr_and_exits_nonzero() {
        let (_, err, code) = run(false);
        assert_eq!(code, 1);
        assert_eq!(
            err,
            "E0: claim does not hold: §4.1: fixed retransmits >= 3x adaptive\n"
        );
    }

    #[test]
    fn true_claim_is_silent_and_exits_zero() {
        let (_, err, code) = run(true);
        assert_eq!((err.as_str(), code), ("", 0));
    }

    #[test]
    fn output_bytes_do_not_depend_on_the_verdict() {
        let (held, _, _) = run(true);
        let (failed, _, _) = run(false);
        assert_eq!(held, failed);
        let rule = "=".repeat(74);
        assert_eq!(
            held,
            format!(
                "{rule}\nE0: a title\npaper claim: a claim (§0)\n{rule}\n     \
                 arm  rexmt\n   fixed   1274\nadaptive    111\n\n"
            )
        );
    }

    #[test]
    fn sweep_renders_missing_cells() {
        let mut x = Report::default();
        x.row(&[("x", &"1.00"), ("a", &Num(1.0))]);
        x.row(&[("x", &"2.00"), ("b", &Num(2.5))]);
        x.end_table();
        assert_eq!(
            x.output(),
            "   x  a      b\n1.00  1      -\n2.00  -  2.500\n\n"
        );
    }
}
