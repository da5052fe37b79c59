//! The repository benchmark: three workloads over the RAP reproduction,
//! driven only through the public APIs of `rap-pipeline`, `rap-sim`,
//! `rap-engines`, `rap-serve` and `rap-workloads`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload eval|stream|churn [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! * `eval` — the paper's evaluation: every simulator cell of Tables 2/3
//!   and Figs 12/13 plus the three software engines, serially.
//! * `stream` — steady multi-tenant streaming through `rap-serve`.
//! * `churn` — short sessions, registrations and hot swaps beside
//!   streaming reads.
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it records spans around every call into a layer and
//! reports per-layer metrics instead. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! Any correctness gate that fails makes the exit code non-zero.
//! `--print-pins` prints the `eval` cells' modelled outputs in the format
//! of `pinned-seed42.tsv`.

mod churn;
mod eval;
mod stats;
mod stream;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use stats::{Metric, Metrics};

/// The seed whose `eval` modelled outputs are pinned.
pub const DEFAULT_SEED: u64 = 42;

/// Seed of the rule corpus. The corpus is fixed, like a deployed rule set;
/// `--seed` generates the traffic (every input stream and its planted
/// matches) and the `churn` session order. Different rule sets differ in
/// cost by more than any bound a regression check could use.
pub const CORPUS_SEED: u64 = 42;

/// Run settings shared by every workload.
pub struct Ctx {
    pub seed: u64,
    /// Timed-phase length in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Closed-loop generator threads: min(2, nproc).
    pub threads: usize,
    pub epoch: Instant,
}

impl Ctx {
    /// Whether unit `unit` of a traced run records spans. A traced run
    /// alternates traced and untraced units so that it can report its own
    /// tracing overhead.
    pub fn traced_unit(&self, unit: usize) -> bool {
        self.trace && unit.is_multiple_of(2)
    }
}

/// Operations attempted and failed, with a reason printed per failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("perfbench: FAILED: {why}");
        }
    }

    /// Counts one operation, failed unless `pass`.
    pub fn check(&mut self, pass: bool, why: impl FnOnce() -> String) {
        if pass {
            self.ok();
        } else {
            self.fail(&why());
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What a workload hands back.
pub struct Report {
    pub tally: Tally,
    /// End-to-end host metrics (untraced runs).
    pub e2e: Metrics,
    /// Per-layer host metrics (traced runs).
    pub layers: Metrics,
    /// Modelled per-layer counts; printed in every run, reported as
    /// per-layer metrics in traced runs.
    pub modelled: Metrics,
    /// Lines describing the run's shape (sizes, concurrency).
    pub shape: Vec<String>,
}

/// Every per-layer metric, in report order. Each workload reports all of
/// them; a layer the workload does not exercise reads 0.
pub const LAYER_METRICS: [(&str, &str); 41] = [
    ("workloads.generate_s", "s"),
    ("compiler.compile_s", "s"),
    ("mapper.map_s", "s"),
    ("verify.verify_s", "s"),
    ("admit.admit_s", "s"),
    ("pipeline.plan_hits", "count"),
    ("pipeline.plan_misses", "count"),
    ("sim.rap_nfa_s", "s"),
    ("sim.rap_nbva_s", "s"),
    ("sim.rap_lnfa_s", "s"),
    ("sim.ca_s", "s"),
    ("sim.cama_s", "s"),
    ("sim.bvap_s", "s"),
    ("sim.mib_s", "MiB/s"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.cycles", "count"),
    ("sim.stall_cycles", "count"),
    ("sim.matches", "count"),
    ("sim.energy_uj", "uJ"),
    ("sim.solo_stream_s", "s"),
    ("engines.cpu_build_s", "s"),
    ("engines.cpu_mib_s", "MiB/s"),
    ("engines.gpu_mib_s", "MiB/s"),
    ("engines.oracle_mib_s", "MiB/s"),
    ("serve.register_ms", "ms"),
    ("serve.swap_ms", "ms"),
    ("serve.finish_ms", "ms"),
    ("serve.send_us", "us"),
    ("serve.chunk_p50_ms", "ms"),
    ("serve.chunk_p99_ms", "ms"),
    ("serve.stream_mib_s", "MiB/s"),
    ("serve.sessions_per_s", "1/s"),
    ("serve.scan_s", "s"),
    ("serve.queue_s", "s"),
    ("serve.scans", "count"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.scan_amplification", "ratio"),
    ("serve.untrimmed_tenants", "count"),
    ("serve.backpressure", "count"),
    ("serve.shed", "count"),
    ("trace.overhead_pct", "%"),
];

/// Every end-to-end metric. Each workload reports all of them, each with
/// its own meaning of "unit of work" and "operation" (see README.md).
pub const E2E_METRICS: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("work_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        print_pins: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-pins" {
            args.print_pins = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.print_pins {
        return Ok(args);
    }
    if !["eval", "stream", "churn"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be eval, stream or churn (got {:?})",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where a traced run writes its spans: under the build directory, which
/// version control ignores.
fn trace_path(workload: &str, seed: u64) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target
        .join("perfbench-traces")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

fn print_group(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        if m.samples > 0 {
            println!(
                "  {:<26} {:>16.6} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        } else {
            println!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Orders `have` by `names`, filling a metric the workload did not
/// produce with 0 (layers it does not exercise).
fn complete(have: &[Metric], names: &[(&'static str, &'static str)]) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| match have.iter().find(|m| m.name == name) {
            Some(m) => {
                assert_eq!(m.unit, unit, "unit of {name}");
                m.clone()
            }
            None => Metric {
                name,
                value: 0.0,
                unit,
                samples: 0,
            },
        })
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.print_pins {
        eval::print_pins();
        return;
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads: nproc.min(2),
        epoch: Instant::now(),
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} profile={profile} generator_threads={}",
        args.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.threads
    );
    println!("  disk store: off; program telemetry (RAP_TRACE): off");

    let mut spans = Vec::new();
    let mut report = match args.workload.as_str() {
        "eval" => eval::run(&ctx, &mut spans),
        "stream" => stream::run(&ctx, &mut spans),
        _ => churn::run(&ctx, &mut spans),
    };
    report.e2e.put("peak_rss_mib", peak_rss_mib(), "MiB", 1);

    for line in &report.shape {
        println!("  {line}");
    }
    if !report.modelled.0.is_empty() {
        print_group(
            "modelled (exact, identical on every run of one seed):",
            &report.modelled.0,
        );
    }
    let metrics = if ctx.trace {
        let path = trace_path(&args.workload, ctx.seed);
        let count: usize = spans.iter().map(|r| r.spans().len()).sum();
        match trace::write_spans(&path, &spans) {
            Ok(()) => println!("  {count} span(s) written to {}", path.display()),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
        let mut all = report.layers.0.clone();
        all.extend(report.modelled.0.iter().cloned());
        let layers = complete(&all, &LAYER_METRICS);
        print_group("per layer (host, traced units):", &layers);
        layers
    } else {
        let e2e = complete(&report.e2e.0, &E2E_METRICS);
        print_group("end to end (host, untraced):", &e2e);
        e2e
    };

    let tally = &report.tally;
    let correct = tally.failed == 0;
    println!(
        "operations: {} attempted, {} failed; correct={correct}",
        tally.attempted, tally.failed
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this program reports.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, LAYER_METRICS.len() + E2E_METRICS.len());
        for (name, unit) in LAYER_METRICS.iter().chain(&E2E_METRICS) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
    }
}
