//! `rap compare` — run all four machines plus the software engines on one
//! workload and print a comparison table.

use super::{outln, parse_all};
use crate::args::Args;
use crate::{read_patterns, CliError};
use rap_circuit::Machine;
use rap_engines::{measure_throughput_gchps, Engine, ShiftAndEngine};
use rap_pipeline::{build_plan, PatternSet};
use rap_sim::Simulator;
use std::io::Write;

const HELP: &str = "\
rap compare — run RAP, CAMA, BVAP, CA and the software Shift-And engine
on the same workload

USAGE:
    rap compare <patterns.txt> <input-file> [--depth N] [--bin N]

FLAGS:
    --depth N       BV depth for NBVA mode   (default 8)
    --bin N         max LNFAs per bin        (default 8)";

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
    let pats = PatternSet::from_parsed(patterns.clone(), parsed);
    let regexes = pats.regexes();
    let depth = args.flag_num("depth", 8)?;
    let bin = args.flag_num("bin", 8)?;

    outln!(
        out,
        "{:>10} {:>10} {:>10} {:>12} {:>12} {:>9} {:>8}",
        "machine",
        "energy uJ",
        "area mm2",
        "thpt Gch/s",
        "eff Gch/s/W",
        "power W",
        "matches"
    );
    let mut reference: Option<usize> = None;
    for machine in Machine::all() {
        let sim = Simulator::new(machine)
            .with_bv_depth(depth)
            .with_bin_size(bin);
        let plan = build_plan(&sim, &pats, None).map_err(|e| CliError::Runtime(e.to_string()))?;
        let r = plan.simulate(&input);
        outln!(
            out,
            "{:>10} {:>10.3} {:>10.4} {:>12.3} {:>12.3} {:>9.3} {:>8}",
            machine.name(),
            r.metrics.energy_uj,
            r.metrics.area_mm2,
            r.metrics.throughput_gchps(),
            r.metrics.energy_efficiency(),
            r.metrics.power_w(),
            r.matches.len()
        );
        match reference {
            None => reference = Some(r.matches.len()),
            Some(n) => {
                if n != r.matches.len() {
                    return Err(CliError::Runtime(format!(
                        "{machine} reported {} matches but the first machine reported {n}",
                        r.matches.len()
                    )));
                }
            }
        }
    }
    // Software engine, measured on this host.
    let engine = ShiftAndEngine::new(&regexes);
    let hits = engine.scan(&input).len();
    let thpt = measure_throughput_gchps(&engine, &input, 2);
    outln!(
        out,
        "{:>10} {:>10} {:>10} {:>12.5} {:>12} {:>9} {:>8}",
        "sw-cpu",
        "-",
        "-",
        thpt,
        "-",
        "-",
        hits
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compares_all_machines() {
        let dir = std::env::temp_dir().join("rap-cli-compare");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let p = dir.join("p.txt");
        std::fs::write(&p, "abc\nq{8,30}r\n").expect("write");
        let i = dir.join("i.bin");
        std::fs::write(&i, b"abc qqqqqqqqqqr abc").expect("write");
        let argv = vec![
            p.to_str().expect("utf8").to_string(),
            i.to_str().expect("utf8").to_string(),
        ];
        let mut out = Vec::new();
        run(&argv, &mut out).expect("compare succeeds");
        let s = String::from_utf8(out).expect("utf8");
        for name in ["RAP", "CAMA", "BVAP", "CA", "sw-cpu"] {
            assert!(s.contains(name), "{s}");
        }
    }
}
