//! `rap scan` — scan an input file on a simulated machine.

use super::{outln, parse_all};
use crate::args::Args;
use crate::{read_patterns, CliError};
use rap_pipeline::{build_plan, PatternSet};
use rap_sim::Simulator;
use std::io::Write;

const HELP: &str = "\
rap scan — scan an input file and report matches and modeled metrics

USAGE:
    rap scan <patterns.txt> <input-file> [FLAGS]

FLAGS:
    --machine M     rap | cama | bvap | ca   (default rap)
    --depth N       BV depth for NBVA mode   (default 8)
    --bin N         max LNFAs per bin        (default 8)
    --limit N       print at most N matches  (default 20)";

/// Runs the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv)?;
    if args.wants_help() {
        outln!(out, "{HELP}");
        return Ok(());
    }
    let patterns = read_patterns(args.positional(0, "patterns.txt")?)?;
    let input_path = args.positional(1, "input-file")?;
    let input = std::fs::read(input_path)
        .map_err(|e| CliError::Runtime(format!("cannot read {input_path}: {e}")))?;
    let parsed = parse_all(&patterns)?;

    let sim = Simulator::new(args.machine()?)
        .with_bv_depth(args.flag_num("depth", 8)?)
        .with_bin_size(args.flag_num("bin", 8)?);
    // Typed chain: only a verified (hardware-legal) plan can be simulated.
    let pats = PatternSet::from_parsed(patterns.clone(), parsed);
    let plan = build_plan(&sim, &pats, None).map_err(|e| CliError::Runtime(e.to_string()))?;
    let result = plan.simulate(&input);

    let limit: usize = args.flag_num("limit", 20)?;
    outln!(out, "machine: {}", result.machine);
    outln!(out, "matches: {}", result.matches.len());
    for m in result.matches.iter().take(limit) {
        outln!(
            out,
            "  pattern {:>4} ends at byte {:>8}  /{}/",
            m.pattern,
            m.end,
            patterns[m.pattern]
        );
    }
    if result.matches.len() > limit {
        outln!(
            out,
            "  ... and {} more (raise --limit)",
            result.matches.len() - limit
        );
    }
    let metrics = &result.metrics;
    outln!(out, "");
    outln!(
        out,
        "cycles      : {} ({} stall)",
        metrics.cycles,
        result.stall_cycles
    );
    outln!(
        out,
        "throughput  : {:.3} Gch/s @ {:.2} GHz",
        metrics.throughput_gchps(),
        metrics.clock_hz / 1e9
    );
    outln!(out, "energy      : {:.4} uJ", metrics.energy_uj);
    outln!(out, "area        : {:.4} mm2", metrics.area_mm2);
    outln!(out, "power       : {:.4} W", metrics.power_w());
    outln!(
        out,
        "efficiency  : {:.3} Gch/s/W, {:.3} Gch/s/mm2",
        metrics.energy_efficiency(),
        metrics.compute_density()
    );
    outln!(out, "");
    outln!(out, "energy breakdown:");
    for (category, pj) in result.energy.iter() {
        outln!(out, "  {:<13} {:>14.1} pJ", category.to_string(), pj);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes the fixture into a directory of its own per test: tests run
    /// in parallel, and a shared file could be read mid-rewrite (empty).
    fn setup(test: &str) -> (String, String) {
        let dir = std::env::temp_dir().join(format!("rap-cli-scan-{test}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let p = dir.join("p.txt");
        std::fs::write(&p, "needle\nb{6,20}c\n").expect("write");
        let i = dir.join("input.bin");
        std::fs::write(&i, b"hay needle hay bbbbbbbbc needle").expect("write");
        (
            p.to_str().expect("utf8").to_string(),
            i.to_str().expect("utf8").to_string(),
        )
    }

    fn run_ok(argv: &[&str]) -> String {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&argv, &mut out).expect("scan succeeds");
        String::from_utf8(out).expect("utf8")
    }

    #[test]
    fn scans_and_reports() {
        let (p, i) = setup("scans_and_reports");
        let s = run_ok(&[&p, &i]);
        assert!(s.contains("matches: 3"), "{s}");
        assert!(s.contains("machine: RAP"), "{s}");
        assert!(s.contains("energy breakdown"), "{s}");
    }

    #[test]
    fn machine_flag() {
        let (p, i) = setup("machine_flag");
        let s = run_ok(&[&p, &i, "--machine", "ca"]);
        assert!(s.contains("machine: CA"), "{s}");
        // Same match set regardless of machine.
        assert!(s.contains("matches: 3"), "{s}");
    }

    #[test]
    fn limit_truncates() {
        let (p, i) = setup("limit_truncates");
        let s = run_ok(&[&p, &i, "--limit", "1"]);
        assert!(s.contains("and 2 more"), "{s}");
    }

    #[test]
    fn missing_input_is_runtime_error() {
        let (p, _) = setup("missing_input_is_runtime_error");
        let argv = vec![p, "/nonexistent/input".to_string()];
        let mut out = Vec::new();
        assert!(matches!(run(&argv, &mut out), Err(CliError::Runtime(_))));
    }
}
