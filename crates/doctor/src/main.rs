//! `augur-doctor` CLI.
//!
//! ```text
//! augur-doctor diff <base> <cur>
//! augur-doctor --wallbench-result <run-output>
//! ```
//!
//! `diff` compares two files or two directories (over the union of their
//! file names) and prints, for each file that differs, what changed in
//! the artifact's own terms (see the library docs). It exits 0 when
//! every file is identical, 1 on any difference, and 2 on a usage, I/O
//! or parse error.
//!
//! `--wallbench-result` reads the saved output of one `augur-wallbench`
//! run, prints how many operations it attempted, and exits 1 unless its
//! last line says `correct: true` with `failed: 0`; an unreadable or
//! malformed last line exits 2.

use std::path::Path;

use augur_doctor::wallbench::read_result;
use augur_doctor::{diff_paths, render_markdown};

const USAGE: &str = "usage: augur-doctor diff <base> <cur>\n       \
                     augur-doctor --wallbench-result <run-output>";

fn diff(base: &Path, cur: &Path) -> i32 {
    match diff_paths(base, cur) {
        Ok(report) => {
            print!("{}", render_markdown(&report));
            i32::from(!report.differing.is_empty())
        }
        Err(e) => {
            eprintln!("augur-doctor: {e}");
            2
        }
    }
}

fn wallbench(result: &Path) -> i32 {
    match read_result(result) {
        Ok(r) => {
            println!(
                "wallbench result: correct={} attempted={} failed={}",
                r.correct, r.attempted, r.failed
            );
            i32::from(!r.passed())
        }
        Err(e) => {
            eprintln!("augur-doctor: failed reading {}: {e}", result.display());
            2
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["diff", base, cur] => diff(Path::new(base), Path::new(cur)),
        ["--wallbench-result", result] => wallbench(Path::new(result)),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}
