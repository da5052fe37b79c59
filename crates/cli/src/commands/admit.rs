//! `rap admit` — static multi-tenant admission over benchmark suites,
//! through the pipeline's Admit stage.

use super::{outln, parse_suite};
use crate::args::Args;
use crate::CliError;
use rap_admit::AdmitOptions;
use rap_analyze::SoundnessConfig;
use rap_pipeline::{Admission, BenchConfig, PatternSet, Pipeline};
use rap_sim::Simulator;
use std::io::Write;

const HELP: &str = "\
rap admit — decide whether suites can share one fabric without interference

Treats each named suite as an independent tenant (its own verified solo
plan), then runs the rap-admit static interference analyzer over the
proposed composition: exclusive placement (S001), bank output buffers
(S002/S005), routing-port fan-in (S003), counter column budget (S004),
match-ID namespaces (S006), hot-swap feasibility (S007), and — opt-in —
cross-tenant prefix overlap by product construction (S008). A certified
composition is compiled into one verified co-resident plan; a rejection
lists the violated budgets. Exits non-zero when the composition is
rejected.

USAGE:
    rap admit <suite> [<suite>...] [FLAGS]

SUITES:
    regexlib spamassassin snort suricata prosite yara clamav

FLAGS:
    --machine M     rap | cama | bvap | ca       (default rap)
    --patterns N    patterns per tenant suite    (default 24)
    --seed S        RNG seed                     (default 42)
    --banks N       fix the shared fabric at N banks (default: auto-size
                    the smallest fabric that fits every tenant)
    --bv-budget N   cap fabric-wide counter/BV columns at N
    --overlap       probe cross-tenant prefix overlap (S008) by budgeted
                    product construction
    --budget N      overlap: joint configurations explored per image pair
                    before the probe returns inconclusively (default 4096)
    --json          emit the admission analysis as JSON on stdout";

/// Runs the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv)?;
    if args.wants_help() {
        outln!(out, "{HELP}");
        return Ok(());
    }
    args.positional(0, "suite")?;
    let mut suites = Vec::new();
    let mut i = 0;
    while let Ok(name) = args.positional(i, "suite") {
        suites.push(parse_suite(name)?);
        i += 1;
    }
    let machine = args.machine()?;
    let spec = BenchConfig {
        patterns_per_suite: args.flag_num("patterns", 24)?,
        input_len: 256, // admission is input-independent; keep the corpus tiny
        match_rate: 0.02,
        seed: args.flag_num("seed", 42)?,
    };
    let options = AdmitOptions {
        banks: match args.flag("banks") {
            None => None,
            Some(_) => Some(args.flag_num("banks", 0)?),
        },
        bv_column_budget: match args.flag("bv-budget") {
            None => None,
            Some(_) => Some(args.flag_num("bv-budget", 0)?),
        },
        overlap: args.switch("overlap").then_some(SoundnessConfig {
            max_configs: args.flag_num("budget", 4096)?,
        }),
        ..AdmitOptions::default()
    };

    let pipe = Pipeline::new(spec);
    let corpora: Vec<_> = suites.iter().map(|&s| pipe.corpus(s)).collect();
    let sims: Vec<Simulator> = suites
        .iter()
        .map(|&s| pipe.simulator_for(machine, s))
        .collect();
    let tenants: Vec<(&str, &Simulator, &PatternSet)> = suites
        .iter()
        .zip(&sims)
        .zip(&corpora)
        .map(|((s, sim), corpus)| (s.name(), sim, corpus.patterns()))
        .collect();
    let admission = pipe
        .admit(&tenants, &options)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let analysis = &admission.analysis;

    if args.switch("json") {
        outln!(out, "{}", to_json(&admission, machine));
    } else {
        outln!(
            out,
            "admit: {} tenant(s) on {machine} ({} patterns each, seed {})",
            analysis.tenants.len(),
            spec.patterns_per_suite,
            spec.seed
        );
        outln!(
            out,
            "fabric  : {} bank(s), {} slot(s), {} array(s) requested",
            analysis.banks,
            analysis.slots,
            analysis.total_arrays
        );
        for t in &analysis.tenants {
            outln!(
                out,
                "tenant  : {:<12} {:>4} pattern(s)  {:>3} array(s)  match-ids [{}, {})  \
                 hot-swap {}",
                t.name,
                t.patterns,
                t.arrays,
                t.match_ids.0,
                t.match_ids.1,
                if t.hot_swappable { "yes" } else { "no" }
            );
        }
        outln!(
            out,
            "columns : {} of {} counter/BV column(s)",
            analysis.bv_columns,
            analysis.bv_budget
        );
        if options.overlap.is_some() {
            outln!(
                out,
                "overlap : {} joint configuration(s) explored",
                analysis.overlap_explored
            );
        }
        if analysis.report.is_empty() {
            outln!(out, "no findings");
        } else {
            out.write_all(analysis.report.to_string().as_bytes())
                .map_err(|e| CliError::Runtime(e.to_string()))?;
        }
        outln!(
            out,
            "verdict : {}",
            if admission.admitted() {
                "admitted"
            } else {
                "rejected"
            }
        );
    }
    if !admission.admitted() {
        return Err(CliError::Runtime(format!(
            "composition rejected: {} error(s)",
            analysis.report.errors().count()
        )));
    }
    Ok(())
}

/// Renders the admission as one JSON object: fabric sizing, per-tenant
/// decisions, and the findings in the shared rap-diag schema.
fn to_json(admission: &Admission, machine: rap_circuit::Machine) -> String {
    let analysis = &admission.analysis;
    let mut s = format!(
        "{{\"machine\": \"{machine}\", \"admitted\": {}, \"banks\": {}, \"slots\": {}, \
         \"arrays\": {}, \"bv_columns\": {}, \"bv_budget\": {}, \"overlap_explored\": {}",
        admission.admitted(),
        analysis.banks,
        analysis.slots,
        analysis.total_arrays,
        analysis.bv_columns,
        analysis.bv_budget,
        analysis.overlap_explored
    );
    s.push_str(", \"tenants\": [");
    for (i, t) in analysis.tenants.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "{{\"name\": \"{}\", \"patterns\": {}, \"arrays\": {}, \"match_ids\": [{}, {}], \
             \"hot_swappable\": {}}}",
            t.name, t.patterns, t.arrays, t.match_ids.0, t.match_ids.1, t.hot_swappable
        ));
    }
    s.push_str(&format!("], \"report\": {}}}", analysis.report.to_json()));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ok(argv: &[&str]) -> String {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&argv, &mut out).expect("admit succeeds");
        String::from_utf8(out).expect("utf8")
    }

    fn run_err(argv: &[&str]) -> (String, CliError) {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let err = run(&argv, &mut out).expect_err("admit fails");
        (String::from_utf8(out).expect("utf8"), err)
    }

    #[test]
    fn two_tenants_admit_on_an_auto_sized_fabric() {
        let s = run_ok(&["snort", "yara", "--patterns", "8"]);
        assert!(s.contains("admit: 2 tenant(s) on RAP"), "{s}");
        assert!(s.contains("verdict : admitted"), "{s}");
        assert!(s.contains("tenant  : Snort"), "{s}");
        assert!(s.contains("tenant  : Yara"), "{s}");
    }

    #[test]
    fn json_carries_verdict_and_findings() {
        let s = run_ok(&["snort", "prosite", "--patterns", "8", "--json"]);
        assert!(s.contains("\"admitted\": true"), "{s}");
        assert!(s.contains("\"legal\": true"), "{s}");
        assert!(s.contains("\"tenants\": ["), "{s}");
    }

    #[test]
    fn fixed_fabric_over_subscription_is_rejected() {
        let (s, err) = run_err(&[
            "snort",
            "yara",
            "clamav",
            "suricata",
            "--patterns",
            "8",
            "--banks",
            "1",
        ]);
        assert!(matches!(err, CliError::Runtime(_)));
        assert!(s.contains("verdict : rejected"), "{s}");
        assert!(s.contains("S001"), "{s}");
    }

    #[test]
    fn overlap_probe_reports_exploration() {
        let s = run_ok(&["prosite", "regexlib", "--patterns", "4", "--overlap"]);
        assert!(s.contains("overlap :"), "{s}");
    }

    #[test]
    fn unknown_suite_is_usage_error() {
        let (_, err) = run_err(&["nosuch"]);
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn missing_suite_is_usage_error() {
        let (_, err) = run_err(&[]);
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn help_prints_flags() {
        let s = run_ok(&["--help"]);
        assert!(s.contains("--banks"), "{s}");
        assert!(s.contains("--overlap"), "{s}");
    }
}
