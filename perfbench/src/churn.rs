//! `churn`: control-plane writes beside streaming reads.
//!
//! A round starts a server and builds the pattern-set pool (set-up). Each
//! of the tenant slots then runs short sessions back to back: register a
//! pattern set, stream its input in fixed chunks (send, then wait for the
//! scan), and either finish or hot-swap straight into the slot's next
//! session. Every set in the pool is used twice in a round, so about half
//! of the registrations compile cold and half hit the plan cache. Rounds
//! repeat until the run's time is up.
//!
//! Swaps run only where the service certifies them by design: the
//! outgoing set has a finite match span (a drain bound exists) and the
//! incoming set needs no more arrays than the outgoing one frees.
//!
//! Gate: each session's delivered events, sorted and deduplicated, equal
//! its solo `VerifiedPlan::simulate_streaming` run; every registration
//! and swap is admitted.

use std::collections::BTreeMap;
use std::time::Instant;

use rap_circuit::Machine;
use rap_pipeline::{BenchConfig, PatternSet, Pipeline};
use rap_serve::{ServeConfig, Server, Session};
use rap_sim::{max_match_span, MatchEvent, Simulator};
use rap_workloads::Suite;

use crate::stats::{secs, Metrics};
use crate::stream::{delivered, put_e2e, put_layers, send, solo, ServeRound, Solo};
use crate::trace::Recorder;
use crate::{Ctx, Report, Tally, CORPUS_SEED};

const SLOTS: usize = 16;
const SHARDS: usize = 2;
const PATTERNS: usize = 6;
/// Distinct pattern sets per round; each is used by two sessions.
const POOL: usize = 64;
const SESSION_LEN: usize = 1024;
const CHUNK: usize = 256;
const MATCH_RATE: f64 = 0.02;
const QUEUE_PAGES: u64 = 8;
/// Rounds per run at the least.
const MIN_ROUNDS: usize = 2;

/// One pool entry: a pattern set, its input, and what decides whether a
/// session on it may be swapped out or in.
struct PoolSet {
    patterns: PatternSet,
    input: Vec<u8>,
    span_bounded: bool,
    arrays: usize,
    untrimmed: bool,
}

/// Set-up: generates the pool and plans each set once on a scratch
/// pipeline (the service's own pipeline stays cold) to learn its match
/// span and array footprint.
fn pool(seed: u64) -> Vec<PoolSet> {
    let suites = Suite::all();
    let per_suite = POOL.div_ceil(suites.len());
    let corpora: Vec<(Vec<String>, Vec<u8>)> = suites
        .iter()
        .map(|&suite| {
            let sources =
                rap_workloads::generate_patterns(suite, PATTERNS * per_suite, CORPUS_SEED);
            let input =
                rap_workloads::generate_input(&sources, SESSION_LEN * per_suite, MATCH_RATE, seed);
            (sources, input)
        })
        .collect();
    let scratch = Pipeline::new(BenchConfig::default());
    let sim = Simulator::new(Machine::Rap);
    (0..POOL)
        .map(|j| {
            let (sources, input) = &corpora[j % suites.len()];
            let k = j / suites.len();
            let patterns = PatternSet::parse(&sources[k * PATTERNS..(k + 1) * PATTERNS])
                .expect("generated patterns parse");
            let plan = scratch
                .plan(&sim, &patterns, None)
                .expect("generated pattern sets plan");
            let images = plan.compiled().images();
            let span_bounded = max_match_span(images).is_some();
            PoolSet {
                input: input[k * SESSION_LEN..(k + 1) * SESSION_LEN].to_vec(),
                span_bounded,
                arrays: plan.mapping().arrays.len(),
                untrimmed: !span_bounded || images.iter().any(|img| img.anchored_start()),
                patterns,
            }
        })
        .collect()
}

/// splitmix64: the schedule's only randomness, derived from the seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The round's session order: every pool set twice, shuffled by the seed.
/// Slot `s` runs sessions `s`, `s + SLOTS`, `s + 2 * SLOTS`, ...
fn schedule(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..2 * POOL).map(|q| q % POOL).collect();
    for i in (1..order.len()).rev() {
        let j = (mix(seed ^ i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// One session's outcome for the solo-equality gate.
struct Done {
    set: usize,
    name: String,
    events: Vec<MatchEvent>,
}

/// What one generator thread measured in one round.
#[derive(Default)]
struct Load {
    session_ms: Vec<f64>,
    register_ms: Vec<f64>,
    swap_ms: Vec<f64>,
    finish_ms: Vec<f64>,
    chunk_ms: Vec<f64>,
    send_us: Vec<f64>,
    done: Vec<Done>,
    tally: Tally,
}

struct Live {
    session: Session,
    index: usize,
    chunk: usize,
    started: Instant,
}

/// Drives this thread's slots, advancing each by one step in turn.
fn drive(
    server: &Server,
    pool: &[PoolSet],
    order: &[usize],
    slots: &[usize],
    rec: &mut Recorder,
    op_base: u64,
) -> Load {
    let mut load = Load::default();
    let chunks = SESSION_LEN.div_ceil(CHUNK);
    // Per slot: the live session and the index of its next session.
    let mut live: Vec<Option<Live>> = slots.iter().map(|_| None).collect();
    let mut next: Vec<usize> = slots.to_vec();
    let name = |q: usize| format!("slot{:02}-{q:03}", q % SLOTS);
    let mut active = true;
    while active {
        active = false;
        for k in 0..slots.len() {
            let op = op_base + next[k] as u64;
            match live[k].take() {
                None if next[k] < order.len() => {
                    active = true;
                    let q = next[k];
                    let started = Instant::now();
                    let registered = rec.span("churn.session", op, |rec| {
                        rec.span("serve.register", op, |_| {
                            server.register(&name(q), &pool[order[q]].patterns)
                        })
                    });
                    load.register_ms.push(secs(started) * 1e3);
                    match registered {
                        Ok(session) => {
                            load.tally.ok();
                            live[k] = Some(Live {
                                session,
                                index: q,
                                chunk: 0,
                                started,
                            });
                        }
                        Err(e) => {
                            load.tally.fail(&format!("{}: register: {e}", name(q)));
                            next[k] += SLOTS;
                        }
                    }
                }
                None => {}
                Some(mut s) if s.chunk < chunks => {
                    active = true;
                    let input = &pool[order[s.index]].input;
                    let piece = &input[s.chunk * CHUNK..((s.chunk + 1) * CHUNK).min(input.len())];
                    let t = Instant::now();
                    rec.span("churn.session", op, |rec| {
                        load.send_us
                            .push(send(&s.session, piece, rec, op, &mut load.tally));
                        rec.span("serve.wait_idle", op, |_| s.session.wait_idle());
                    });
                    load.chunk_ms.push(secs(t) * 1e3);
                    s.chunk += 1;
                    live[k] = Some(s);
                }
                Some(s) => {
                    active = true;
                    let q = s.index;
                    let successor = q + SLOTS;
                    let out = &pool[order[q]];
                    let swap = order
                        .get(successor)
                        .map(|&j| &pool[j])
                        .filter(|inc| out.span_bounded && inc.arrays <= out.arrays);
                    next[k] = successor;
                    let t = Instant::now();
                    if let Some(inc) = swap {
                        let swapped = rec.span("churn.session", op, |rec| {
                            rec.span("serve.swap", op, |_| {
                                server.swap_tenant(&s.session, &name(successor), &inc.patterns)
                            })
                        });
                        load.swap_ms.push(secs(t) * 1e3);
                        load.session_ms.push(secs(s.started) * 1e3);
                        match swapped {
                            Ok((session, _)) => {
                                load.tally.ok();
                                live[k] = Some(Live {
                                    session,
                                    index: successor,
                                    chunk: 0,
                                    started: Instant::now(),
                                });
                            }
                            Err(e) => {
                                load.tally.fail(&format!(
                                    "{} -> {}: swap: {e}",
                                    name(q),
                                    name(successor)
                                ));
                                s.session.finish();
                            }
                        }
                    } else {
                        rec.span("churn.session", op, |rec| {
                            rec.span("serve.finish", op, |_| s.session.finish())
                        });
                        load.finish_ms.push(secs(t) * 1e3);
                        load.session_ms.push(secs(s.started) * 1e3);
                        load.tally.ok();
                    }
                    load.done.push(Done {
                        set: order[q],
                        name: name(q),
                        events: delivered(&s.session),
                    });
                }
            }
        }
    }
    load
}

pub fn run(ctx: &Ctx, spans: &mut Vec<Recorder>) -> Report {
    let mut tally = Tally::default();
    let spec = BenchConfig {
        patterns_per_suite: PATTERNS,
        input_len: SESSION_LEN,
        match_rate: MATCH_RATE,
        seed: ctx.seed,
    };
    let order = schedule(ctx.seed);
    let mut main_rec = Recorder::new(false, ctx.epoch, 0);
    let mut thread_recs: Vec<Recorder> = (0..ctx.threads)
        .map(|t| Recorder::new(false, ctx.epoch, t + 1))
        .collect();
    let mut solos: BTreeMap<usize, Solo> = BTreeMap::new();
    let mut solo_s = 0.0;
    let mut all = Load::default();
    let mut rounds: Vec<ServeRound> = Vec::new();
    let mut generate_s = Vec::new();
    let mut untrimmed = 0;
    let mut swaps = 0;

    let t_run = Instant::now();
    while rounds.len() < MIN_ROUNDS || secs(t_run) < ctx.seconds {
        let unit = rounds.len();
        let traced = ctx.traced_unit(unit);
        for rec in std::iter::once(&mut main_rec).chain(thread_recs.iter_mut()) {
            rec.set_enabled(traced);
            rec.set_unit(unit);
        }
        let op_base = (unit * order.len()) as u64;

        // Set-up: server start and pool generation.
        let t_setup = Instant::now();
        let config = ServeConfig {
            shards: SHARDS,
            queue_pages: QUEUE_PAGES,
            machine: Machine::Rap,
        };
        let server = Server::new(Pipeline::new(spec), config);
        let t_gen = Instant::now();
        let pool = main_rec.span("workloads.generate", op_base, |_| pool(ctx.seed));
        generate_s.push(secs(t_gen));
        let setup_s = secs(t_setup);
        untrimmed = pool.iter().filter(|p| p.untrimmed).count();

        // Timed phase: every slot's sessions, closed loop per thread.
        let t_work = Instant::now();
        let loads: Vec<Load> = std::thread::scope(|scope| {
            let handles: Vec<_> = thread_recs
                .iter_mut()
                .enumerate()
                .map(|(g, rec)| {
                    let slots: Vec<usize> = (0..SLOTS).filter(|s| s % ctx.threads == g).collect();
                    let (server, pool, order) = (&server, &pool, &order);
                    scope.spawn(move || drive(server, pool, order, &slots, rec, op_base))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread"))
                .collect()
        });
        let mut round = ServeRound::new(traced);
        round.setup_s = setup_s;
        round.work_s = secs(t_work);
        round.read(&server);
        swaps += server.metrics().swaps_completed.get();
        drop(server);

        // Gate: solo equality (references are computed once per set).
        let reference = Pipeline::new(spec);
        for mut load in loads {
            round.op_ms.extend(load.session_ms.iter().copied());
            round.chunk_ms.extend(load.chunk_ms.iter().copied());
            for done in load.done.drain(..) {
                let want = &solos
                    .entry(done.set)
                    .or_insert_with(|| {
                        let set = &pool[done.set];
                        let (s, took) = solo(
                            &reference,
                            &set.patterns,
                            &set.input,
                            &mut main_rec,
                            done.set as u64,
                        );
                        solo_s += took;
                        s
                    })
                    .matches;
                tally.check(&done.events == want, || {
                    format!(
                        "{}: {} delivered event(s) differ from the solo run's {}",
                        done.name,
                        done.events.len(),
                        want.len()
                    )
                });
            }
            tally.absorb(std::mem::take(&mut load.tally));
            all.register_ms.extend(load.register_ms);
            all.swap_ms.extend(load.swap_ms);
            all.finish_ms.extend(load.finish_ms);
            all.send_us.extend(load.send_us);
        }
        rounds.push(round);
    }

    let mut e2e = Metrics::default();
    put_e2e(&mut e2e, &rounds);
    let mut layers = Metrics::default();
    if ctx.trace {
        layers.put_median("workloads.generate_s", &generate_s, "s");
        layers.put("sim.solo_stream_s", solo_s, "s", solos.len());
        layers.put_median("serve.register_ms", &all.register_ms, "ms");
        layers.put_median("serve.swap_ms", &all.swap_ms, "ms");
        layers.put_median("serve.finish_ms", &all.finish_ms, "ms");
        layers.put_median("serve.send_us", &all.send_us, "us");
        let sessions_per_s: Vec<f64> = rounds
            .iter()
            .map(|r| r.op_ms.len() as f64 / r.work_s)
            .collect();
        layers.put_median("serve.sessions_per_s", &sessions_per_s, "1/s");
        layers.put("serve.untrimmed_tenants", untrimmed as f64, "count", 0);
        // Each set's solo run covers one session; a round streams each set twice.
        put_layers(
            &mut layers,
            &rounds,
            (2 * POOL * SESSION_LEN) as f64,
            2.0 * solo_s,
        );
    }
    spans.push(main_rec);
    spans.extend(thread_recs);
    let sessions: usize = rounds.iter().map(|r| r.op_ms.len()).sum();
    let work_s: Vec<f64> = rounds.iter().map(|r| r.work_s).collect();
    Report {
        tally,
        e2e,
        layers,
        modelled: Metrics::default(),
        shape: vec![
            crate::stats::unit_line(&work_s),
            format!(
                "churn: {SLOTS} slots over {SHARDS} shards; {} sessions per round from a pool of {POOL} {PATTERNS}-pattern sets; {SESSION_LEN} bytes per session in {CHUNK}-byte chunks; {untrimmed} of {POOL} sets never trim",
                order.len()
            ),
            format!(
                "closed loop: {} generator thread(s) owning {} slots each; {} round(s), {sessions} session(s), {swaps} hot swap(s) in {:.2} s; unit of work = one round of sessions, operation = one session",
                ctx.threads,
                SLOTS / ctx.threads,
                rounds.len(),
                secs(t_run)
            ),
        ],
    }
}
