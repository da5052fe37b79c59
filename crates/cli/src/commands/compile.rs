//! `rap compile` — compile a pattern file and report modes and sizing.

use super::{outln, parse_all};
use crate::args::Args;
use crate::{read_patterns, CliError};
use rap_circuit::Machine;
use rap_compiler::Mode;
use rap_pipeline::{build_plan, PatternSet};
use rap_sim::Simulator;
use std::io::Write;

const HELP: &str = "\
rap compile — compile a pattern file and report modes and hardware sizing

USAGE:
    rap compile <patterns.txt> [--depth N] [--bin N] [--threshold N]

FLAGS:
    --depth N       BV depth for NBVA mode (4/8/16/32, default 8)
    --bin N         max LNFAs per bin (default 8)
    --threshold N   bounded-repetition unfolding threshold (default 4)";

/// Runs the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv)?;
    if args.wants_help() {
        outln!(out, "{HELP}");
        return Ok(());
    }
    let path = args.positional(0, "patterns.txt")?;
    let patterns = read_patterns(path)?;
    let parsed = parse_all(&patterns)?;

    let mut sim = Simulator::new(Machine::Rap)
        .with_bv_depth(args.flag_num("depth", 8)?)
        .with_bin_size(args.flag_num("bin", 8)?);
    sim.compiler.unfold_threshold = args.flag_num("threshold", 4)?;
    let pats = PatternSet::from_parsed(patterns.clone(), parsed);
    let plan = build_plan(&sim, &pats, None).map_err(|e| CliError::Runtime(e.to_string()))?;
    let compiled = plan.compiled();

    outln!(
        out,
        "{:>4}  {:>5}  {:>7}  {:>7}  pattern",
        "#",
        "mode",
        "states",
        "columns"
    );
    let mut counts = [0usize; 3];
    for (i, (c, p)) in compiled.images().iter().zip(patterns.iter()).enumerate() {
        outln!(
            out,
            "{:>4}  {:>5}  {:>7}  {:>7}  {}",
            i,
            c.mode().to_string(),
            c.state_count(),
            c.column_count(),
            p
        );
        counts[match c.mode() {
            Mode::Nfa => 0,
            Mode::Nbva => 1,
            Mode::Lnfa => 2,
        }] += 1;
    }
    let mapping = plan.mapping();
    let (nfa_arrays, nbva_arrays, lnfa_arrays) = mapping.arrays_by_mode();
    outln!(out, "");
    outln!(
        out,
        "modes: {} NFA, {} NBVA, {} LNFA",
        counts[0],
        counts[1],
        counts[2]
    );
    outln!(
        out,
        "mapping: {} arrays ({} NFA / {} NBVA / {} LNFA), {} tiles, {:.0}% column utilization",
        mapping.arrays.len(),
        nfa_arrays,
        nbva_arrays,
        lnfa_arrays,
        mapping.tiles_used(),
        mapping.utilization() * 100.0
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_patterns(name: &str, body: &str) -> String {
        let dir = std::env::temp_dir().join("rap-cli-compile");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(name);
        std::fs::write(&path, body).expect("write");
        path.to_str().expect("utf8").to_string()
    }

    fn run_ok(argv: &[&str]) -> String {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&argv, &mut out).expect("compile succeeds");
        String::from_utf8(out).expect("utf8")
    }

    #[test]
    fn reports_modes_and_mapping() {
        let path = write_patterns("mix.txt", "abcdef\nx{40}y\na.*b\n");
        let s = run_ok(&[&path]);
        assert!(s.contains("LNFA"), "{s}");
        assert!(s.contains("NBVA"), "{s}");
        assert!(s.contains("modes: 1 NFA, 1 NBVA, 1 LNFA"), "{s}");
        assert!(s.contains("column utilization"), "{s}");
    }

    #[test]
    fn depth_flag_changes_columns() {
        let path = write_patterns("deep.txt", "q{64}r\n");
        let shallow = run_ok(&[&path, "--depth", "4"]);
        let deep = run_ok(&[&path, "--depth", "32"]);
        // Same automaton, fewer BV columns at depth 32.
        assert_ne!(shallow, deep);
    }

    #[test]
    fn help_flag() {
        let s = run_ok(&["--help"]);
        assert!(s.contains("rap compile"));
    }

    #[test]
    fn bad_pattern_is_runtime_error() {
        let path = write_patterns("bad.txt", "(unclosed\n");
        let argv = vec![path];
        let mut out = Vec::new();
        let err = run(&argv, &mut out).expect_err("bad pattern");
        assert!(matches!(err, CliError::Runtime(_)));
    }
}
