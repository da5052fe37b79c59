//! `rap trace` — run one suite with telemetry attached and render the
//! cycle-sampled trace: per-cycle activity summary plus the hottest
//! arrays by powered tile-cycles.

use super::{outln, parse_suite};
use crate::args::Args;
use crate::CliError;
use rap_pipeline::{BenchConfig, Pipeline};
use rap_telemetry::{traces_to_jsonl, ProbeEvent, RunTrace, Telemetry, TelemetryConfig};
use std::io::Write;
use std::sync::Arc;

const HELP: &str = "\
rap trace — run one benchmark suite with cycle-level profiling enabled

Evaluates one (machine, suite) cell through the full pipeline with the
telemetry subsystem attached, then summarizes the probe journal: a
bucketed per-cycle activity profile and the top-N hottest arrays.

USAGE:
    rap trace <suite> [FLAGS]

SUITES:
    regexlib spamassassin snort suricata prosite yara clamav

FLAGS:
    --machine M     rap | cama | bvap | ca       (default rap)
    --patterns N    patterns to generate         (default 40)
    --input N       input length in bytes        (default 20000)
    --seed S        RNG seed                     (default 42)
    --sample N      probe sampling period, cycles (default 16)
    --top N         hottest arrays to list       (default 5)
    --out FILE      also write the raw JSONL trace to FILE
    --json          emit the raw JSONL trace on stdout instead of the
                    rendered summary";

/// Width of the activity profile's bar column.
const BAR_WIDTH: usize = 40;
/// Number of cycle buckets in the activity profile.
const PROFILE_BUCKETS: u64 = 16;

/// Runs the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv)?;
    if args.wants_help() {
        outln!(out, "{HELP}");
        return Ok(());
    }
    let suite = parse_suite(args.positional(0, "suite")?)?;
    let machine = args.machine()?;
    let spec = BenchConfig {
        patterns_per_suite: args.flag_num("patterns", 40)?,
        input_len: args.flag_num("input", 20_000)?,
        match_rate: 0.02,
        seed: args.flag_num("seed", 42)?,
    };
    let telemetry = Arc::new(Telemetry::new(TelemetryConfig {
        sample_every: args.flag_num("sample", 16)?,
        ..TelemetryConfig::default()
    }));
    let top: usize = args.flag_num("top", 5)?;

    let pipe = Pipeline::new(spec).with_telemetry(Arc::clone(&telemetry));
    let corpus = pipe.corpus(suite);
    let summary = pipe
        .eval(machine, suite, corpus.patterns(), corpus.input(), None)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let traces = telemetry.drain_traces();

    if let Some(path) = args.flag("out") {
        std::fs::write(path, traces_to_jsonl(&traces))
            .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
        if !args.switch("json") {
            outln!(out, "[written {path}]");
        }
    }

    if args.switch("json") {
        // Machine-readable mode: the raw probe journal, one JSON object
        // per line, same schema as --out FILE.
        out.write_all(traces_to_jsonl(&traces).as_bytes())
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        return Ok(());
    }

    outln!(
        out,
        "trace: {machine} on {} ({} patterns, {} input bytes, seed {}, sample every {})",
        suite.name(),
        spec.patterns_per_suite,
        spec.input_len,
        spec.seed,
        telemetry.config().sample_every
    );
    outln!(out, "");
    for trace in &traces {
        render_trace(out, trace, top)?;
    }
    outln!(out, "run summary:");
    outln!(out, "  states      : {}", summary.states);
    outln!(out, "  matches     : {}", summary.matches);
    outln!(out, "  energy      : {:.4} uJ", summary.energy_uj);
    outln!(out, "  area        : {:.4} mm2", summary.area_mm2);
    outln!(out, "  throughput  : {:.3} Gch/s", summary.throughput_gchps);
    outln!(out, "  power       : {:.4} W", summary.power_w);
    Ok(())
}

/// Renders one run's journal: activity profile, hottest arrays, totals.
fn render_trace(out: &mut dyn Write, trace: &RunTrace, top: usize) -> Result<(), CliError> {
    outln!(
        out,
        "run {:?}: {} events{}",
        trace.label,
        trace.events.len(),
        if trace.dropped > 0 {
            format!(" ({} dropped, raise RAP_TRACE_RING)", trace.dropped)
        } else {
            String::new()
        }
    );
    render_activity(out, &trace.events)?;
    render_hottest(out, &trace.events, top)?;
    for event in &trace.events {
        if let ProbeEvent::RunEnd {
            input_bytes,
            cycles,
            stall_cycles,
            powered_tile_cycles,
            matches,
        } = event
        {
            outln!(
                out,
                "  totals: {input_bytes} bytes in {cycles} cycles ({stall_cycles} stall), \
                 {powered_tile_cycles} powered tile-cycles, {matches} matches"
            );
        }
    }
    outln!(out, "");
    Ok(())
}

/// Buckets the `Array` samples over the cycle axis and draws one bar per
/// bucket scaled to the peak mean active-state count.
fn render_activity(out: &mut dyn Write, events: &[ProbeEvent]) -> Result<(), CliError> {
    let samples: Vec<(u64, u64, u64)> = events
        .iter()
        .filter_map(|e| match e {
            ProbeEvent::Array {
                cycle,
                active_states,
                powered_tiles,
                ..
            } => Some((*cycle, *active_states, *powered_tiles)),
            _ => None,
        })
        .collect();
    let Some(max_cycle) = samples.iter().map(|s| s.0).max() else {
        outln!(out, "  (no array samples journalled)");
        return Ok(());
    };
    let span = (max_cycle + 1).div_ceil(PROFILE_BUCKETS).max(1);
    // (sample count, active-state sum, powered-tile sum) per cycle bucket.
    let mut buckets = vec![(0u64, 0u64, 0u64); PROFILE_BUCKETS as usize];
    for (cycle, active, powered) in samples {
        let b = ((cycle / span) as usize).min(buckets.len() - 1);
        buckets[b].0 += 1;
        buckets[b].1 += active;
        buckets[b].2 += powered;
    }
    let peak = buckets
        .iter()
        .filter(|(n, ..)| *n > 0)
        .map(|(n, active, _)| active / n)
        .max()
        .unwrap_or(0);
    outln!(out, "  cycle activity (mean active states per sample):");
    for (i, (n, active, powered)) in buckets.iter().enumerate() {
        if *n == 0 {
            continue;
        }
        let mean_active = active / n;
        let mean_powered = powered / n;
        let bar = if peak == 0 {
            0
        } else {
            ((mean_active * BAR_WIDTH as u64).div_ceil(peak) as usize).min(BAR_WIDTH)
        };
        outln!(
            out,
            "  [{:>8}..{:>8}] {:<width$} {mean_active} active, {mean_powered} tiles powered",
            i as u64 * span,
            (i as u64 + 1) * span - 1,
            "#".repeat(bar),
            width = BAR_WIDTH
        );
    }
    Ok(())
}

/// Lists the `top` arrays by powered tile-cycles from the end-of-run
/// per-array totals.
fn render_hottest(out: &mut dyn Write, events: &[ProbeEvent], top: usize) -> Result<(), CliError> {
    let mut ends: Vec<(u32, u64, u64, u64, u64)> = events
        .iter()
        .filter_map(|e| match e {
            ProbeEvent::ArrayEnd {
                array,
                cycles,
                stall_cycles,
                powered_tile_cycles,
                matches,
            } => Some((
                *array,
                *cycles,
                *stall_cycles,
                *powered_tile_cycles,
                *matches,
            )),
            _ => None,
        })
        .collect();
    if ends.is_empty() {
        return Ok(());
    }
    ends.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(&b.0)));
    outln!(out, "  hottest arrays (by powered tile-cycles):");
    outln!(
        out,
        "    array     cycles      stall  tile-cycles    matches"
    );
    for (array, cycles, stall, powered, matches) in ends.iter().take(top) {
        outln!(
            out,
            "    {array:>5} {cycles:>10} {stall:>10} {powered:>12} {matches:>10}"
        );
    }
    if ends.len() > top {
        outln!(out, "    ... and {} more (raise --top)", ends.len() - top);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ok(argv: &[&str]) -> String {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&argv, &mut out).expect("trace succeeds");
        String::from_utf8(out).expect("utf8")
    }

    #[test]
    fn traces_and_summarizes() {
        let s = run_ok(&[
            "snort",
            "--patterns",
            "4",
            "--input",
            "2000",
            "--sample",
            "8",
        ]);
        assert!(s.contains("run \"RAP/Snort\""), "{s}");
        assert!(s.contains("cycle activity"), "{s}");
        assert!(s.contains("hottest arrays"), "{s}");
        assert!(s.contains("totals:"), "{s}");
        assert!(s.contains("run summary:"), "{s}");
    }

    #[test]
    fn machine_flag_changes_label() {
        let s = run_ok(&[
            "yara",
            "--machine",
            "ca",
            "--patterns",
            "3",
            "--input",
            "1000",
        ]);
        assert!(s.contains("run \"CA/Yara\""), "{s}");
    }

    #[test]
    fn out_writes_jsonl() {
        let dir = std::env::temp_dir().join("rap-cli-trace");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("t.jsonl");
        let path_s = path.to_str().expect("utf8").to_string();
        let s = run_ok(&[
            "snort",
            "--patterns",
            "3",
            "--input",
            "1000",
            "--out",
            &path_s,
        ]);
        assert!(s.contains("[written"), "{s}");
        let text = std::fs::read_to_string(&path).expect("trace file");
        assert!(text.contains("\"event\":\"run_start\""), "{text}");
        assert!(text.contains("\"event\":\"run_end\""), "{text}");
    }

    #[test]
    fn json_streams_the_journal_to_stdout() {
        let s = run_ok(&["snort", "--patterns", "3", "--input", "1000", "--json"]);
        assert!(s.contains("\"event\":\"run_start\""), "{s}");
        assert!(s.contains("\"event\":\"run_end\""), "{s}");
        assert!(!s.contains("cycle activity"), "no rendered summary: {s}");
    }

    #[test]
    fn unknown_suite_is_usage_error() {
        let argv = vec!["nosuch".to_string()];
        let mut out = Vec::new();
        assert!(matches!(run(&argv, &mut out), Err(CliError::Usage(_))));
    }

    #[test]
    fn help_prints_flags() {
        let s = run_ok(&["--help"]);
        assert!(s.contains("--sample"), "{s}");
        assert!(s.contains("--top"), "{s}");
    }
}
