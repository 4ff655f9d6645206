//! CLI for the workspace static audit.
//!
//! Exit codes: `0` clean (no deny findings), `1` deny findings (an
//! unused `audit.allow` entry included) or a failed self-test, `2` usage
//! error, `3` internal error (I/O, malformed `audit.allow`). The 1-vs-3
//! split matters in CI: a red `1` means the tree regressed; a red `3`
//! means the audit itself could not run.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use augur_audit::{explain, sarif, scan, selftest};

const USAGE: &str = "augur-audit — workspace static analysis\n\n\
USAGE: augur-audit [OPTIONS]\n\n\
OPTIONS:\n\
  --root <dir>       workspace root (default: the build workspace)\n\
  --format <fmt>     output format: text (default) or sarif\n\
  --output <path>    write the report to a file instead of stdout\n\
  --explain <rule>   print one rule's documentation (or `all`) and exit\n\
  --verbose, -v      also print advisories\n\
  --self-test        run the analyzer against seeded violation fixtures\n\
  --help, -h         this text\n\n\
Reviewed Relaxed-ordering exceptions are read from <root>/audit.allow.\n\n\
EXIT CODES: 0 clean, 1 deny findings (unused audit.allow entries included),\n\
2 usage, 3 internal error (I/O or malformed audit.allow).";

struct Cli {
    root: Option<PathBuf>,
    output: Option<PathBuf>,
    format: String,
    verbose: bool,
    self_test: bool,
}

enum Parsed {
    Run(Cli),
    Done(ExitCode),
}

fn parse_args() -> Parsed {
    let mut cli = Cli {
        root: None,
        output: None,
        format: String::from("text"),
        verbose: false,
        self_test: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--self-test" => cli.self_test = true,
            "--verbose" | "-v" => cli.verbose = true,
            "--root" | "--output" | "--format" => {
                let Some(value) = args.next() else {
                    eprintln!("error: {arg} requires a value");
                    return Parsed::Done(ExitCode::from(2));
                };
                match arg.as_str() {
                    "--root" => cli.root = Some(PathBuf::from(value)),
                    "--output" => cli.output = Some(PathBuf::from(value)),
                    _ => {
                        if value != "text" && value != "sarif" {
                            eprintln!("error: --format must be `text` or `sarif`");
                            return Parsed::Done(ExitCode::from(2));
                        }
                        cli.format = value;
                    }
                }
            }
            "--explain" => {
                let Some(code) = args.next() else {
                    eprintln!("error: --explain requires a rule code (or `all`)");
                    return Parsed::Done(ExitCode::from(2));
                };
                if code == "all" {
                    print!("{}", explain::index());
                    return Parsed::Done(ExitCode::SUCCESS);
                }
                return match explain::explain(&code) {
                    Some(text) => {
                        print!("{text}");
                        Parsed::Done(ExitCode::SUCCESS)
                    }
                    None => {
                        eprintln!("error: unknown rule `{code}`; try --explain all");
                        Parsed::Done(ExitCode::from(2))
                    }
                };
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Parsed::Done(ExitCode::SUCCESS);
            }
            other => {
                eprintln!("error: unknown argument `{other}` (try --help)");
                return Parsed::Done(ExitCode::from(2));
            }
        }
    }
    Parsed::Run(cli)
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Parsed::Run(cli) => cli,
        Parsed::Done(code) => return code,
    };

    if cli.self_test {
        return match selftest::run() {
            Ok(()) => {
                println!("audit self-test: ok (all seeded violations detected)");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("audit self-test: FAILED: {msg}");
                ExitCode::FAILURE
            }
        };
    }

    // Default root: the workspace this binary was built from.
    let root = cli
        .root
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."));

    let report = match scan::audit_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: audit failed under {}: {e}", root.display());
            return ExitCode::from(3);
        }
    };

    let rendered = if cli.format == "sarif" {
        sarif::render(&report)
    } else {
        report.render_text(cli.verbose)
    };
    match &cli.output {
        Some(path) => {
            if let Err(e) = fs::write(path, &rendered) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::from(3);
            }
        }
        None => print!("{rendered}"),
    }

    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
