//! Command-line front-end for the RAP reproduction.
//!
//! The `rap` binary wraps the full stack behind five subcommands:
//!
//! ```text
//! rap compile <patterns.txt> [--depth N] [--bin N] [--threshold N]
//! rap scan    <patterns.txt> <input-file> [--machine rap|cama|bvap|ca] [--limit N]
//! rap gen     <suite> <count> [--seed S]
//! rap gen-input <patterns.txt> <length> [--rate R] [--seed S] [--out FILE]
//! rap compare <patterns.txt> <input-file>
//! rap lint    <patterns.txt> [--machine rap|cama|bvap|ca] [--json]
//! rap analyze <suite> [--machine M] [--patterns N] [--prune] [--json]
//! rap bound   <suite> [--machine M] [--patterns N] [--equivalence] [--json]
//! rap admit   <suite> [<suite>...] [--machine M] [--banks N] [--overlap] [--json]
//! rap swap    <suite> [<suite>...] --out <suite> --in <suite> [--json]
//! rap serve   <suite> [<suite>...] [--shards N] [--queue-pages N] [--listen ADDR] [--json]
//! rap trace   <suite> [--machine M] [--sample N] [--top N] [--out FILE] [--json]
//! ```
//!
//! Pattern files contain one PCRE-style pattern per line; blank lines and
//! lines starting with `#` are ignored. All output is plain text designed
//! to be grep-/awk-friendly.

pub mod args;
pub mod commands;

use std::fmt;

/// A CLI failure, printed to stderr with exit code 1 (usage errors) or 2
/// (runtime errors).
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation: unknown command, missing argument, unparsable flag.
    Usage(String),
    /// Something failed while running: I/O, compile error, bad pattern.
    Runtime(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Runtime(m) => write!(f, "error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl CliError {
    /// Process exit code for this error class.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 1,
            CliError::Runtime(_) => 2,
        }
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
rap — Reconfigurable Automata Processor (reproduction) CLI

USAGE:
    rap <COMMAND> [ARGS]

COMMANDS:
    compile    Compile a pattern file and report modes and hardware sizing
    scan       Scan an input file and report matches and modeled metrics
    gen        Generate a synthetic benchmark suite's patterns
    gen-input  Generate a synthetic input stream for a pattern file
    compare    Run all four machines plus the software engines on a workload
    dot        Print a pattern's Glushkov automaton in Graphviz DOT
    layout     Show per-array tile occupancy after mapping
    lint       Statically verify the mapping plan for a pattern file
    analyze    Run the dataflow static analyzer over a suite's automata
    bound      Compute certified worst-case bounds for a suite's mapped plan
    admit      Decide whether suites can share one fabric without interference
    swap       Certify a live tenant hot-swap on an admitted composition
    serve      Run the multi-tenant streaming scan service over suite tenants
    trace      Profile one suite with cycle-level telemetry attached
    help       Show this message

Run `rap <COMMAND> --help` for command-specific flags.";

/// Entry point shared by the binary and the tests: parses `argv` (without
/// the program name) and runs the chosen command, writing to `out`.
///
/// # Errors
///
/// Returns [`CliError`] on bad usage or runtime failure.
pub fn run(argv: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let Some(command) = argv.first() else {
        return Err(CliError::Usage(format!("no command given\n\n{USAGE}")));
    };
    let rest = &argv[1..];
    match command.as_str() {
        "compile" => commands::compile::run(rest, out),
        "scan" => commands::scan::run(rest, out),
        "gen" => commands::gen::run(rest, out),
        "gen-input" => commands::gen::run_input(rest, out),
        "compare" => commands::compare::run(rest, out),
        "dot" => commands::dot::run(rest, out),
        "layout" => commands::layout::run(rest, out),
        "lint" => commands::lint::run(rest, out),
        "admit" => commands::admit::run(rest, out),
        "swap" => commands::swap::run(rest, out),
        "serve" => commands::serve::run(rest, out),
        "analyze" => commands::analyze::run(rest, out),
        "bound" => commands::bound::run(rest, out),
        "trace" => commands::trace::run(rest, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}").map_err(|e| CliError::Runtime(e.to_string()))
        }
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}\n\n{USAGE}"
        ))),
    }
}

/// Reads a pattern file: one pattern per line, `#` comments and blank
/// lines skipped.
///
/// # Errors
///
/// Returns [`CliError::Runtime`] on I/O failure or when no patterns remain.
pub fn read_patterns(path: &str) -> Result<Vec<String>, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Runtime(format!("cannot read {path}: {e}")))?;
    let patterns: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    if patterns.is_empty() {
        return Err(CliError::Runtime(format!("{path} contains no patterns")));
    }
    Ok(patterns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(argv: &[&str]) -> Result<String, CliError> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&argv, &mut out)?;
        Ok(String::from_utf8(out).expect("CLI output is UTF-8"))
    }

    #[test]
    fn help_prints_usage() {
        let s = run_to_string(&["help"]).expect("help succeeds");
        assert!(s.contains("USAGE"));
        assert!(s.contains("compile"));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let err = run_to_string(&["frobnicate"]).expect_err("unknown command");
        assert!(matches!(err, CliError::Usage(_)));
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn no_command_is_usage_error() {
        let err = run_to_string(&[]).expect_err("no command");
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn read_patterns_skips_comments() {
        let dir = std::env::temp_dir().join("rap-cli-test-read");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("p.txt");
        std::fs::write(&path, "# comment\nabc\n\n  def  \n").expect("write");
        let p = read_patterns(path.to_str().expect("utf8 path")).expect("reads");
        assert_eq!(p, vec!["abc".to_string(), "def".to_string()]);
    }

    #[test]
    fn read_patterns_rejects_empty() {
        let dir = std::env::temp_dir().join("rap-cli-test-empty");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("empty.txt");
        std::fs::write(&path, "# only a comment\n").expect("write");
        let err = read_patterns(path.to_str().expect("utf8 path")).expect_err("empty");
        assert!(matches!(err, CliError::Runtime(_)));
        assert_eq!(err.exit_code(), 2);
    }
}
