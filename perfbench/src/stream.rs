//! `stream`: steady multi-tenant streaming through `rap-serve`.
//!
//! A round starts a server, registers every tenant (set-up), then streams
//! each tenant's input in fixed chunks from a closed loop: every generator
//! thread sends one chunk with `Session::send`, waits on
//! `Session::wait_idle`, and only then sends the next, round-robin over
//! its tenants. Rounds repeat until the run's time is up.
//!
//! Gate: each tenant's delivered events, sorted and deduplicated, equal
//! its solo `VerifiedPlan::simulate_streaming` run.

use std::time::Instant;

use rap_circuit::Machine;
use rap_pipeline::{BenchConfig, PatternSet, Pipeline, Stage};
use rap_serve::{SendOutcome, ServeConfig, Server, Session};
use rap_sim::{max_match_span, MatchEvent, Simulator};
use rap_workloads::Suite;

use crate::stats::{median, secs, Metrics};
use crate::trace::Recorder;
use crate::{Ctx, Report, Tally, CORPUS_SEED};

/// Tenants per round, spread over [`SHARDS`].
const TENANTS: usize = 28;
const SHARDS: usize = 2;
/// Patterns per tenant, taken from one suite corpus.
const PATTERNS: usize = 6;
/// Bytes streamed per tenant per round.
const STREAM_LEN: usize = 2048;
const CHUNK: usize = 128;
const MATCH_RATE: f64 = 0.02;
/// Rounds per run at the least, so the chunk p99 has ten samples beyond it.
const MIN_ROUNDS: usize = 3;
const QUEUE_PAGES: u64 = 8;

pub struct Tenant {
    pub name: String,
    pub patterns: PatternSet,
    pub input: Vec<u8>,
}

/// Tenant `i` takes the `i / 7`-th group of patterns of suite `i % 7` and
/// the matching slice of that suite's input.
pub fn tenants(seed: u64) -> Vec<Tenant> {
    let suites = Suite::all();
    let per_suite = TENANTS.div_ceil(suites.len());
    let corpora: Vec<(Vec<String>, Vec<u8>)> = suites
        .iter()
        .map(|&suite| {
            let sources =
                rap_workloads::generate_patterns(suite, PATTERNS * per_suite, CORPUS_SEED);
            let input =
                rap_workloads::generate_input(&sources, STREAM_LEN * per_suite, MATCH_RATE, seed);
            (sources, input)
        })
        .collect();
    (0..TENANTS)
        .map(|i| {
            let (sources, input) = &corpora[i % suites.len()];
            let k = i / suites.len();
            Tenant {
                name: format!("tenant-{i:02}"),
                patterns: PatternSet::parse(&sources[k * PATTERNS..(k + 1) * PATTERNS])
                    .expect("generated patterns parse"),
                input: input[k * STREAM_LEN..(k + 1) * STREAM_LEN].to_vec(),
            }
        })
        .collect()
}

/// A tenant's solo reference run and whether its window can never trim.
pub struct Solo {
    pub matches: Vec<MatchEvent>,
    pub untrimmed: bool,
}

/// Solo `simulate_streaming` of one tenant on the service's machine,
/// returning the reference and its host time in seconds.
pub fn solo(
    pipe: &Pipeline,
    patterns: &PatternSet,
    input: &[u8],
    rec: &mut Recorder,
    op: u64,
) -> (Solo, f64) {
    let plan = pipe
        .plan(&Simulator::new(Machine::Rap), patterns, None)
        .expect("a registered tenant's solo plan builds");
    let images = plan.compiled().images();
    let untrimmed =
        max_match_span(images).is_none() || images.iter().any(|img| img.anchored_start());
    let t = Instant::now();
    let (result, _) = rec.span("sim.solo_stream", op, |_| plan.simulate_streaming(input));
    (
        Solo {
            matches: result.matches,
            untrimmed,
        },
        secs(t),
    )
}

/// A session's delivered events, sorted and deduplicated.
pub fn delivered(session: &Session) -> Vec<MatchEvent> {
    let mut events = session.drain();
    events.sort_unstable_by_key(|m| (m.end, m.pattern));
    events.dedup();
    events
}

/// Sends `chunk`, retrying after a shed (a shed counts as a failed
/// operation). Returns the time spent inside `send` in microseconds.
pub fn send(
    session: &Session,
    chunk: &[u8],
    rec: &mut Recorder,
    op: u64,
    tally: &mut Tally,
) -> f64 {
    let mut send_us = 0.0;
    loop {
        let t = Instant::now();
        let outcome = rec.span("serve.send", op, |_| session.send(chunk));
        send_us += secs(t) * 1e6;
        match outcome {
            Ok(SendOutcome::Shed) => {
                tally.fail(&format!("{}: chunk shed", session.tenant()));
                rec.span("serve.wait_idle", op, |_| session.wait_idle());
            }
            Ok(_) => {
                tally.ok();
                return send_us;
            }
            Err(e) => {
                tally.fail(&format!("{}: send: {e}", session.tenant()));
                return send_us;
            }
        }
    }
}

/// What one generator thread measured in one round.
#[derive(Default)]
struct Load {
    chunk_ms: Vec<f64>,
    send_us: Vec<f64>,
    tally: Tally,
}

/// Operation ids of one round: registrations, then one block of tenants
/// per chunk index, then finishes.
fn op_id(op_base: u64, block: usize, tenant: usize) -> u64 {
    op_base + (block * TENANTS + tenant) as u64
}

/// Streams this thread's tenants (`mine`: tenant index and session).
fn drive(mine: &[(usize, &Session)], tenants: &[Tenant], rec: &mut Recorder, op_base: u64) -> Load {
    let mut load = Load::default();
    let chunks = STREAM_LEN.div_ceil(CHUNK);
    for c in 0..chunks {
        for &(i, session) in mine {
            let input = &tenants[i].input;
            let piece = &input[c * CHUNK..((c + 1) * CHUNK).min(input.len())];
            let op = op_id(op_base, 1 + c, i);
            let t = Instant::now();
            rec.span("stream.chunk", op, |rec| {
                load.send_us
                    .push(send(session, piece, rec, op, &mut load.tally));
                rec.span("serve.wait_idle", op, |_| session.wait_idle());
            });
            load.chunk_ms.push(secs(t) * 1e3);
        }
    }
    load
}

/// One round of a service workload. Every round runs on a fresh server,
/// so the service's counters are per round.
#[derive(Default)]
pub struct ServeRound {
    pub traced: bool,
    pub setup_s: f64,
    pub work_s: f64,
    /// The workload's operation latencies (chunks or sessions), in ms.
    pub op_ms: Vec<f64>,
    /// Chunk latencies, from `send` until `wait_idle` returns, in ms.
    pub chunk_ms: Vec<f64>,
    scan_s: f64,
    scans: u64,
    backpressure: u64,
    shed: u64,
    /// Compile, map, verify and admit stage seconds.
    stage: [f64; 4],
    plan_hits: u64,
    plan_misses: u64,
}

impl ServeRound {
    pub fn new(traced: bool) -> ServeRound {
        ServeRound {
            traced,
            ..ServeRound::default()
        }
    }

    /// Reads the service's counters and its pipeline's stage times.
    pub fn read(&mut self, server: &Server) {
        let m = server.metrics();
        self.scan_s = m.scan_ns.sum() as f64 / 1e9;
        self.scans = m.chunks_scanned.get();
        self.backpressure = m.backpressure_events.get();
        self.shed = m.chunks_shed.get();
        let report = server.pipeline().report();
        self.stage =
            [Stage::Compile, Stage::Map, Stage::Verify, Stage::Admit].map(|s| report.stage_secs(s));
        self.plan_hits = report.plan_cache.hits;
        self.plan_misses = report.plan_cache.misses;
    }
}

/// The end-to-end metrics of a service workload.
pub fn put_e2e(e2e: &mut Metrics, rounds: &[ServeRound]) {
    let per = |f: fn(&ServeRound) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    e2e.put_median("setup_s", &per(|r| r.setup_s), "s");
    e2e.put_median("work_s", &per(|r| r.work_s), "s");
    let ops: Vec<Vec<f64>> = rounds.iter().map(|r| r.op_ms.clone()).collect();
    e2e.put_unit_percentile("op_p50_ms", &ops, 0.5, "ms");
    e2e.put_unit_percentile("op_p90_ms", &ops, 0.9, "ms");
}

/// The per-layer metrics both service workloads report. `round_bytes` is
/// the tenant traffic of one round and `solo_round_s` the solo streaming
/// time of that traffic.
pub fn put_layers(
    layers: &mut Metrics,
    rounds: &[ServeRound],
    round_bytes: f64,
    solo_round_s: f64,
) {
    let per = |f: &dyn Fn(&ServeRound) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    for (k, name) in [
        "compiler.compile_s",
        "mapper.map_s",
        "verify.verify_s",
        "admit.admit_s",
    ]
    .into_iter()
    .enumerate()
    {
        layers.put_median(name, &per(&|r| r.stage[k]), "s");
    }
    layers.put_median("pipeline.plan_hits", &per(&|r| r.plan_hits as f64), "count");
    layers.put_median(
        "pipeline.plan_misses",
        &per(&|r| r.plan_misses as f64),
        "count",
    );
    let chunk_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.chunk_ms.iter().copied())
        .collect();
    layers.put_median("serve.chunk_p50_ms", &chunk_ms, "ms");
    layers.put_percentile("serve.chunk_p99_ms", &chunk_ms, 0.99, "ms");
    layers.put_median(
        "serve.stream_mib_s",
        &per(&|r| round_bytes / r.work_s / (1024.0 * 1024.0)),
        "MiB/s",
    );
    let scan_s = per(&|r| r.scan_s);
    layers.put_median("serve.scan_s", &scan_s, "s");
    layers.put_median(
        "serve.queue_s",
        &per(&|r| r.chunk_ms.iter().sum::<f64>() / 1e3 - r.scan_s),
        "s",
    );
    layers.put_median("serve.scans", &per(&|r| r.scans as f64), "count");
    layers.put_median(
        "serve.coalesce_ratio",
        &per(&|r| r.scans as f64 / r.chunk_ms.len().max(1) as f64),
        "ratio",
    );
    layers.put(
        "serve.scan_amplification",
        median(&scan_s) / solo_round_s,
        "ratio",
        0,
    );
    let total = |f: fn(&ServeRound) -> u64| rounds.iter().map(f).sum::<u64>() as f64;
    layers.put("serve.backpressure", total(|r| r.backpressure), "count", 0);
    layers.put("serve.shed", total(|r| r.shed), "count", 0);
    layers.put_overhead(rounds.iter().map(|r| (r.traced, r.work_s)));
}

pub fn run(ctx: &Ctx, spans: &mut Vec<Recorder>) -> Report {
    let mut tally = Tally::default();
    let t_gen = Instant::now();
    let tenants = tenants(ctx.seed);
    let generate_s = secs(t_gen);
    let spec = BenchConfig {
        patterns_per_suite: PATTERNS,
        input_len: STREAM_LEN,
        match_rate: MATCH_RATE,
        seed: ctx.seed,
    };
    let mut main_rec = Recorder::new(false, ctx.epoch, 0);
    let mut thread_recs: Vec<Recorder> = (0..ctx.threads)
        .map(|t| Recorder::new(false, ctx.epoch, t + 1))
        .collect();
    let mut solos: Option<Vec<Solo>> = None;
    let mut solo_s = 0.0;
    let (mut register_ms, mut finish_ms, mut send_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut rounds: Vec<ServeRound> = Vec::new();

    let t_run = Instant::now();
    while rounds.len() < MIN_ROUNDS || secs(t_run) < ctx.seconds {
        let unit = rounds.len();
        let traced = ctx.traced_unit(unit);
        for rec in std::iter::once(&mut main_rec).chain(thread_recs.iter_mut()) {
            rec.set_enabled(traced);
            rec.set_unit(unit);
        }
        let mut round = ServeRound::new(traced);
        let chunks = STREAM_LEN.div_ceil(CHUNK);
        let op_base = op_id(0, unit * (chunks + 2), 0);

        // Set-up: server start and every registration.
        let t_setup = Instant::now();
        let config = ServeConfig {
            shards: SHARDS,
            queue_pages: QUEUE_PAGES,
            machine: Machine::Rap,
        };
        let server = Server::new(Pipeline::new(spec), config);
        let mut sessions: Vec<(usize, Session)> = Vec::new();
        for (i, t) in tenants.iter().enumerate() {
            let t0 = Instant::now();
            let registered = main_rec.span("serve.register", op_id(op_base, 0, i), |_| {
                server.register(&t.name, &t.patterns)
            });
            register_ms.push(secs(t0) * 1e3);
            match registered {
                Ok(session) => {
                    tally.ok();
                    sessions.push((i, session));
                }
                Err(e) => tally.fail(&format!("{}: register: {e}", t.name)),
            }
        }
        round.setup_s = secs(t_setup);

        // Timed phase: the closed loop.
        let t_work = Instant::now();
        let loads: Vec<Load> = std::thread::scope(|scope| {
            let handles: Vec<_> = thread_recs
                .iter_mut()
                .enumerate()
                .map(|(g, rec)| {
                    let mine: Vec<(usize, &Session)> = sessions
                        .iter()
                        .filter(|(_, s)| s.shard() % ctx.threads == g)
                        .map(|(i, s)| (*i, s))
                        .collect();
                    let tenants = &tenants;
                    scope.spawn(move || drive(&mine, tenants, rec, op_base))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread"))
                .collect()
        });
        round.work_s = secs(t_work);
        for load in loads {
            round.chunk_ms.extend(load.chunk_ms);
            send_us.extend(load.send_us);
            tally.absorb(load.tally);
        }

        for (i, session) in &sessions {
            let t0 = Instant::now();
            main_rec.span("serve.finish", op_id(op_base, chunks + 1, *i), |_| {
                session.finish();
            });
            finish_ms.push(secs(t0) * 1e3);
        }
        round.read(&server);

        // Gate: solo equality (the reference is computed once per run).
        let solos = solos.get_or_insert_with(|| {
            let pipe = Pipeline::new(spec);
            tenants
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let (s, took) = solo(&pipe, &t.patterns, &t.input, &mut main_rec, i as u64);
                    solo_s += took;
                    s
                })
                .collect()
        });
        for (i, session) in &sessions {
            let got = delivered(session);
            let want = &solos[*i].matches;
            tally.check(&got == want, || {
                format!(
                    "{}: {} delivered event(s) differ from the solo run's {}",
                    tenants[*i].name,
                    got.len(),
                    want.len()
                )
            });
        }
        drop(sessions);
        drop(server);
        round.op_ms = round.chunk_ms.clone();
        rounds.push(round);
    }

    let mut e2e = Metrics::default();
    put_e2e(&mut e2e, &rounds);
    let untrimmed = solos
        .as_ref()
        .map_or(0, |s| s.iter().filter(|s| s.untrimmed).count());
    let mut layers = Metrics::default();
    if ctx.trace {
        layers.put("workloads.generate_s", generate_s, "s", 1);
        layers.put("sim.solo_stream_s", solo_s, "s", TENANTS);
        layers.put_median("serve.register_ms", &register_ms, "ms");
        layers.put_median("serve.finish_ms", &finish_ms, "ms");
        layers.put_median("serve.send_us", &send_us, "us");
        layers.put("serve.untrimmed_tenants", untrimmed as f64, "count", 0);
        put_layers(&mut layers, &rounds, (TENANTS * STREAM_LEN) as f64, solo_s);
    }
    spans.push(main_rec);
    spans.extend(thread_recs);
    let work_s: Vec<f64> = rounds.iter().map(|r| r.work_s).collect();
    Report {
        tally,
        e2e,
        layers,
        modelled: Metrics::default(),
        shape: vec![
            crate::stats::unit_line(&work_s),
            format!(
                "stream: {TENANTS} tenants x {PATTERNS} patterns over {SHARDS} shards, {STREAM_LEN} bytes per tenant in {CHUNK}-byte chunks; {untrimmed} of {TENANTS} tenants never trim their window"
            ),
            format!(
                "closed loop: {} generator thread(s), one chunk in flight each; {} round(s) in {:.2} s; unit of work = one round of streaming, operation = one chunk (send until wait_idle returns)",
                ctx.threads,
                rounds.len(),
                secs(t_run)
            ),
        ],
    }
}
