//! `rap serve` — run the multi-tenant streaming scan service.

use super::{outln, parse_suite};
use crate::args::Args;
use crate::CliError;
use rap_pipeline::{BenchConfig, Pipeline};
use rap_serve::{SendOutcome, ServeConfig, Server, SessionStats};
use std::io::Write;

const HELP: &str = "\
rap serve — multi-tenant streaming scan service on the admitted fabric

Registers each named suite as an independent tenant on a sharded
streaming scan service: registration runs the full pipeline (compile →
analyze → map → verify → bound → admit) and lands the tenant on the
least-loaded shard, where residents share one certified co-resident
plan. Each tenant's corpus input is then streamed through the §3.3
bank buffer hierarchy in interleaved chunks, with per-tenant match
delivery and certified backpressure budgets. Per-tenant results must
be bit-identical to a solo streaming run — the service exits non-zero
if any tenant diverges.

With --listen the service instead binds a TCP address and serves the
framed wire protocol (REGISTER/CHUNK/FINISH) to remote clients.

USAGE:
    rap serve <suite> [<suite>...] [FLAGS]
    rap serve --listen ADDR [--for-secs N] [FLAGS]

SUITES:
    regexlib spamassassin snort suricata prosite yara clamav

FLAGS:
    --machine M       rap | cama | bvap | ca       (default rap)
    --patterns N      patterns per tenant suite    (default 8)
    --input N         corpus input bytes per tenant (default 2048)
    --seed S          RNG seed                     (default 42)
    --shards N        certified compositions       (default 2)
    --queue-pages N   per-session queue budget, in ping-pong pages
                      (default 8)
    --chunk N         stream chunk size in bytes   (default 256)
    --listen ADDR     serve the framed TCP protocol on ADDR instead of
                      running suite tenants in-process
    --for-secs N      with --listen: serve for N seconds, then drain
                      (default 0 = until killed)
    --json            emit per-tenant results as JSON on stdout";

/// Runs the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv)?;
    if args.wants_help() {
        outln!(out, "{HELP}");
        return Ok(());
    }
    let machine = args.machine()?;
    let spec = BenchConfig {
        patterns_per_suite: args.flag_num("patterns", 8)?,
        input_len: args.flag_num("input", 2048)?,
        match_rate: 0.02,
        seed: args.flag_num("seed", 42)?,
    };
    let config = ServeConfig {
        shards: args.flag_num("shards", 2)?,
        queue_pages: args.flag_num("queue-pages", 8)?,
        machine,
    };
    let pipe = Pipeline::new(spec);

    if let Some(addr) = args.flag("listen") {
        return listen(pipe, config, addr, args.flag_num("for-secs", 0u64)?, out);
    }

    args.positional(0, "suite")?;
    let mut suites = Vec::new();
    let mut i = 0;
    while let Ok(name) = args.positional(i, "suite") {
        suites.push(parse_suite(name)?);
        i += 1;
    }
    let chunk = args.flag_num("chunk", 256usize)?.max(1);

    let server = Server::new(pipe, config);
    let corpora: Vec<_> = suites
        .iter()
        .map(|&s| server.pipeline().corpus(s))
        .collect();
    let sessions: Vec<_> = suites
        .iter()
        .zip(&corpora)
        .map(|(&suite, corpus)| {
            server
                .register(suite.name(), corpus.patterns())
                .map_err(|e| CliError::Runtime(format!("register {}: {e}", suite.name())))
        })
        .collect::<Result<_, _>>()?;

    // Interleave chunk delivery round-robin across the tenants, the way
    // concurrent streams share the fabric. A shed chunk alone exceeds the
    // certified intake budget, so it is halved until it fits.
    let mut cursors = vec![0usize; sessions.len()];
    loop {
        let mut progressed = false;
        for (i, session) in sessions.iter().enumerate() {
            let input = corpora[i].input();
            let at = cursors[i];
            if at >= input.len() {
                continue;
            }
            let mut len = chunk.min(input.len() - at);
            loop {
                let piece = &input[at..at + len];
                let outcome = session
                    .send(piece)
                    .map_err(|e| CliError::Runtime(e.to_string()))?;
                if outcome != SendOutcome::Shed {
                    break;
                }
                if len == 1 {
                    return Err(CliError::Runtime(format!(
                        "tenant {} cannot fit a single byte in its budget",
                        suites[i].name()
                    )));
                }
                len = len.div_ceil(2);
            }
            cursors[i] = at + len;
            progressed = true;
        }
        if !progressed {
            break;
        }
    }

    let mut rows = Vec::new();
    for (i, session) in sessions.iter().enumerate() {
        session.finish();
        let mut delivered = session.drain();
        delivered.sort_unstable_by_key(|m| (m.end, m.pattern));
        delivered.dedup();
        let solo = corpora[i].patterns();
        let sim = rap_sim::Simulator::new(machine);
        let plan = server
            .pipeline()
            .plan(&sim, solo, None)
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        let expected = plan.simulate_streaming(corpora[i].input()).0.matches;
        let faithful = delivered == expected;
        rows.push((
            suites[i],
            session.shard(),
            session.stats(),
            delivered.len(),
            faithful,
        ));
    }

    if args.switch("json") {
        outln!(out, "{}", to_json(machine, &config, &rows));
    } else {
        outln!(
            out,
            "serve: {} tenant(s) on {machine} across {} shard(s) ({} patterns each, seed {})",
            rows.len(),
            config.shards,
            spec.patterns_per_suite,
            spec.seed
        );
        outln!(
            out,
            "budget : {} queue page(s) per session (certified intake/event bounds)",
            config.queue_pages
        );
        for (suite, shard, stats, matches, faithful) in &rows {
            outln!(
                out,
                "tenant : {:<12} shard {shard}  {:>4} chunk(s)  {:>3} shed  {:>3} backpressured  \
                 {:>6} byte(s)  {:>4} match(es)  solo-equal {}",
                suite.name(),
                stats.chunks_sent,
                stats.chunks_shed,
                stats.backpressure_events,
                stats.bytes_scanned,
                matches,
                if *faithful { "yes" } else { "NO" }
            );
        }
        let m = server.metrics();
        outln!(
            out,
            "totals : {} byte(s) scanned, {} match(es) delivered, {} backpressure event(s), \
             {} session(s) still active",
            m.bytes_scanned.get(),
            m.matches_delivered.get(),
            m.backpressure_events.get(),
            server.active_sessions()
        );
    }
    if let Some((suite, ..)) = rows.iter().find(|(.., faithful)| !faithful) {
        return Err(CliError::Runtime(format!(
            "tenant {} diverged from its solo streaming run",
            suite.name()
        )));
    }
    Ok(())
}

/// Binds `addr` and serves the framed TCP protocol.
fn listen(
    pipe: Pipeline,
    config: ServeConfig,
    addr: &str,
    for_secs: u64,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let mut server = Server::new(pipe, config);
    let local = server
        .listen(addr)
        .map_err(|e| CliError::Runtime(format!("bind {addr}: {e}")))?;
    outln!(
        out,
        "serving on {local} ({} shard(s), {} queue page(s))",
        server.config().shards,
        server.config().queue_pages
    );
    out.flush().map_err(|e| CliError::Runtime(e.to_string()))?;
    if for_secs == 0 {
        loop {
            std::thread::sleep(std::time::Duration::from_hours(1));
        }
    }
    std::thread::sleep(std::time::Duration::from_secs(for_secs));
    server.shutdown();
    outln!(
        out,
        "drained: {} session(s) active, {} byte(s) scanned",
        server.active_sessions(),
        server.metrics().bytes_scanned.get()
    );
    Ok(())
}

/// Renders the per-tenant results as one JSON object.
fn to_json(
    machine: rap_circuit::Machine,
    config: &ServeConfig,
    rows: &[(rap_workloads::Suite, usize, SessionStats, usize, bool)],
) -> String {
    let mut s = format!(
        "{{\"machine\": \"{machine}\", \"shards\": {}, \"queue_pages\": {}, \"tenants\": [",
        config.shards, config.queue_pages
    );
    for (i, (suite, shard, stats, matches, faithful)) in rows.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "{{\"name\": \"{}\", \"shard\": {shard}, \"chunks\": {}, \"shed\": {}, \
             \"backpressure_events\": {}, \"bytes_scanned\": {}, \"matches\": {matches}, \
             \"solo_equal\": {faithful}}}",
            suite.name(),
            stats.chunks_sent,
            stats.chunks_shed,
            stats.backpressure_events,
            stats.bytes_scanned,
        ));
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ok(argv: &[&str]) -> String {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&argv, &mut out).expect("serve succeeds");
        String::from_utf8(out).expect("utf8")
    }

    #[test]
    fn two_suites_stream_and_match_their_solo_runs() {
        let s = run_ok(&["snort", "yara", "--patterns", "4", "--input", "512"]);
        assert!(s.contains("serve: 2 tenant(s) on RAP"), "{s}");
        assert!(s.contains("tenant : Snort"), "{s}");
        assert!(s.contains("tenant : Yara"), "{s}");
        assert!(s.contains("solo-equal yes"), "{s}");
        assert!(!s.contains("solo-equal NO"), "{s}");
        assert!(s.contains("0 session(s) still active"), "{s}");
    }

    #[test]
    fn json_reports_per_tenant_fidelity() {
        let s = run_ok(&[
            "prosite",
            "--patterns",
            "4",
            "--input",
            "256",
            "--shards",
            "1",
            "--json",
        ]);
        assert!(s.contains("\"tenants\": ["), "{s}");
        assert!(s.contains("\"shard\": 0"), "{s}");
        assert!(s.contains("\"solo_equal\": true"), "{s}");
        assert!(!s.contains("\"solo_equal\": false"), "{s}");
    }

    #[test]
    fn tiny_queue_budget_backpressures_but_stays_faithful() {
        let s = run_ok(&[
            "snort",
            "--patterns",
            "4",
            "--input",
            "1024",
            "--queue-pages",
            "1",
            "--chunk",
            "512",
        ]);
        assert!(s.contains("solo-equal yes"), "{s}");
    }

    #[test]
    fn missing_suite_is_usage_error() {
        let argv: Vec<String> = Vec::new();
        let mut out = Vec::new();
        let err = run(&argv, &mut out).expect_err("no suites");
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn help_prints_flags() {
        let s = run_ok(&["--help"]);
        assert!(s.contains("--shards"), "{s}");
        assert!(s.contains("--queue-pages"), "{s}");
        assert!(s.contains("--listen"), "{s}");
    }
}
