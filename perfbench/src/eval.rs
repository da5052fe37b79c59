//! `eval`: the researcher's job — regenerate Tables 2/3 and Figs 12/13.
//!
//! Set-up builds, per suite, the corpus, every plan (RAP once per decided
//! mode partition, then CA, CAMA and BVAP) and the three software engines.
//! A pass then runs every cell — `Pipeline::plan` (a cache hit) followed by
//! `VerifiedPlan::simulate` — and the engines' scans, serially on one
//! thread in a fixed order. Passes repeat until the run's time is up.
//!
//! Gates: every cell's matches equal `NfaEngine`'s hits for the same
//! pattern subset and input; the CPU and GPU engines' hits equal the
//! oracle's; the modelled outputs repeat on every pass and, for the
//! default seed, equal the pinned values.

use std::collections::BTreeMap;
use std::time::Instant;

use rap_circuit::Machine;
use rap_compiler::{Compiler, CompilerConfig, Mode};
use rap_engines::{BatchEngine, Engine, Hit, HybridEngine, NfaEngine};
use rap_pipeline::{BenchConfig, PatternSet, Pipeline, Stage};
use rap_sim::RunResult;
use rap_workloads::Suite;

use crate::stats::{secs, Metrics};
use crate::trace::Recorder;
use crate::{Ctx, Report, Tally, CORPUS_SEED, DEFAULT_SEED};

/// Patterns generated per suite.
const PATTERNS: usize = 60;
/// Input bytes per suite.
const INPUT_LEN: usize = 12 * 1024;
/// Share of input bytes inside planted matches.
const MATCH_RATE: f64 = 0.02;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Passes per run at the least, so that the pooled `op_p90_ms` has ten
/// samples beyond it.
const MIN_PASSES: usize = 3;
/// Per-thread segment length of the GPU stand-in.
const GPU_CHUNK: usize = 4096;

const PINS: &str = include_str!("../pinned-seed42.tsv");

/// The simulator cells of one suite, in run order.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    RapNfa,
    RapNbva,
    RapLnfa,
    Ca,
    Cama,
    Bvap,
}

impl Kind {
    const ALL: [Kind; 6] = [
        Kind::RapNfa,
        Kind::RapNbva,
        Kind::RapLnfa,
        Kind::Ca,
        Kind::Cama,
        Kind::Bvap,
    ];

    fn machine(self) -> Machine {
        match self {
            Kind::RapNfa | Kind::RapNbva | Kind::RapLnfa => Machine::Rap,
            Kind::Ca => Machine::Ca,
            Kind::Cama => Machine::Cama,
            Kind::Bvap => Machine::Bvap,
        }
    }

    /// The forced mode of a RAP partition; the baselines decide per pattern.
    fn forced(self) -> Option<Mode> {
        match self {
            Kind::RapNfa => Some(Mode::Nfa),
            Kind::RapNbva => Some(Mode::Nbva),
            Kind::RapLnfa => Some(Mode::Lnfa),
            Kind::Ca | Kind::Cama | Kind::Bvap => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::RapNfa => "rap_nfa",
            Kind::RapNbva => "rap_nbva",
            Kind::RapLnfa => "rap_lnfa",
            Kind::Ca => "ca",
            Kind::Cama => "cama",
            Kind::Bvap => "bvap",
        }
    }

    /// Per-layer metric: host time inside this cell's `simulate` calls.
    fn metric(self) -> &'static str {
        match self {
            Kind::RapNfa => "sim.rap_nfa_s",
            Kind::RapNbva => "sim.rap_nbva_s",
            Kind::RapLnfa => "sim.rap_lnfa_s",
            Kind::Ca => "sim.ca_s",
            Kind::Cama => "sim.cama_s",
            Kind::Bvap => "sim.bvap_s",
        }
    }

    /// Span name around this cell's `simulate` call.
    fn span(self) -> &'static str {
        match self {
            Kind::RapNfa => "sim.rap_nfa",
            Kind::RapNbva => "sim.rap_nbva",
            Kind::RapLnfa => "sim.rap_lnfa",
            Kind::Ca => "sim.ca",
            Kind::Cama => "sim.cama",
            Kind::Bvap => "sim.bvap",
        }
    }
}

struct Cell {
    kind: Kind,
    patterns: PatternSet,
    /// Index of each of the cell's patterns in the suite's full set.
    members: Vec<usize>,
}

struct SuiteWork {
    suite: Suite,
    input: Vec<u8>,
    cells: Vec<Cell>,
    cpu: HybridEngine,
    gpu: BatchEngine,
    oracle: NfaEngine,
}

struct Setup {
    pipe: Pipeline,
    work: Vec<SuiteWork>,
    total_s: f64,
    generate_s: f64,
    cpu_build_s: f64,
}

/// One set-up: corpus generation, every plan build, engine construction.
fn setup(ctx: &Ctx, rec: &mut Recorder, tally: &mut Tally) -> Setup {
    let t0 = Instant::now();
    let spec = BenchConfig {
        patterns_per_suite: PATTERNS,
        input_len: INPUT_LEN,
        match_rate: MATCH_RATE,
        seed: ctx.seed,
    };
    let corpora: Vec<(Suite, PatternSet, Vec<u8>)> = rec.span("workloads.generate", 0, |_| {
        Suite::all()
            .into_iter()
            .map(|suite| {
                let sources = rap_workloads::generate_patterns(suite, PATTERNS, CORPUS_SEED);
                let input =
                    rap_workloads::generate_input(&sources, INPUT_LEN, MATCH_RATE, ctx.seed);
                let patterns = PatternSet::parse(&sources).expect("generated patterns parse");
                (suite, patterns, input)
            })
            .collect()
    });
    let generate_s = secs(t0);

    let pipe = Pipeline::new(spec);
    let decider = Compiler::new(CompilerConfig::default());
    let mut cpu_build_s = 0.0;
    let mut work = Vec::new();
    for (op, (suite, patterns, input)) in corpora.into_iter().enumerate() {
        let regexes = patterns.regexes();
        let mut cells = Vec::new();
        for kind in Kind::ALL {
            let members: Vec<usize> = match kind.forced() {
                Some(mode) => (0..regexes.len())
                    .filter(|&i| decider.decide(&regexes[i]) == mode)
                    .collect(),
                None => (0..regexes.len()).collect(),
            };
            if members.is_empty() {
                continue;
            }
            let subset: Vec<_> = members.iter().map(|&i| regexes[i].clone()).collect();
            let cell = Cell {
                kind,
                patterns: PatternSet::from_regexes(&subset),
                members,
            };
            let sim = pipe.simulator_for(kind.machine(), suite);
            let built = rec.span("pipeline.plan", op as u64, |_| {
                pipe.plan(&sim, &cell.patterns, kind.forced())
            });
            match built {
                Ok(_) => {
                    tally.ok();
                    cells.push(cell);
                }
                Err(e) => tally.fail(&format!("{}/{}: plan: {e}", suite.name(), kind.name())),
            }
        }
        let t_cpu = Instant::now();
        let cpu = rec.span("engines.cpu_build", op as u64, |_| {
            HybridEngine::new(&regexes, HybridEngine::DEFAULT_MAX_STATES)
        });
        cpu_build_s += secs(t_cpu);
        let (gpu, oracle) = rec.span("engines.build", op as u64, |_| {
            (
                BatchEngine::new(&regexes, GPU_CHUNK),
                NfaEngine::new(&regexes),
            )
        });
        work.push(SuiteWork {
            suite,
            input,
            cells,
            cpu,
            gpu,
            oracle,
        });
    }
    Setup {
        pipe,
        work,
        total_s: secs(t0),
        generate_s,
        cpu_build_s,
    }
}

/// A cell's modelled outputs.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Modelled {
    cycles: u64,
    stall_cycles: u64,
    matches: u64,
    energy_uj: f64,
}

impl Modelled {
    fn of(r: &RunResult) -> Modelled {
        Modelled {
            cycles: r.metrics.cycles,
            stall_cycles: r.stall_cycles,
            matches: r.matches.len() as u64,
            energy_uj: r.metrics.energy_uj,
        }
    }

    fn same(&self, other: &Modelled) -> bool {
        self.cycles == other.cycles
            && self.stall_cycles == other.stall_cycles
            && self.matches == other.matches
            && (self.energy_uj - other.energy_uj).abs() <= 1e-9 * other.energy_uj.abs()
    }
}

fn pins() -> BTreeMap<String, Modelled> {
    PINS.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            let num = |i: usize| f[i].parse::<u64>().expect("pinned count");
            (
                format!("{}/{}", f[0], f[1]),
                Modelled {
                    cycles: num(2),
                    stall_cycles: num(3),
                    matches: num(4),
                    energy_uj: f[5].parse().expect("pinned energy"),
                },
            )
        })
        .collect()
}

fn as_pairs(hits: &[Hit]) -> Vec<(usize, usize)> {
    hits.iter().map(|h| (h.end, h.pattern)).collect()
}

/// The oracle's hits restricted to a cell's patterns, in the cell's own
/// pattern numbering.
fn oracle_for(cell: &Cell, oracle: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut local = BTreeMap::new();
    for (j, &i) in cell.members.iter().enumerate() {
        local.insert(i, j);
    }
    oracle
        .iter()
        .filter_map(|&(end, p)| local.get(&p).map(|&j| (end, j)))
        .collect()
}

/// Everything one pass measured.
#[derive(Default)]
struct Pass {
    secs: f64,
    op_ms: Vec<f64>,
    modelled: BTreeMap<String, Modelled>,
    sim_bytes: u64,
}

fn pass(setup: &Setup, rec: &mut Recorder, tally: &mut Tally) -> Pass {
    let mut out = Pass::default();
    let t_pass = Instant::now();
    let mut op = 0u64;
    for w in &setup.work {
        let input = w.input.as_slice();
        op += 1;
        let t = Instant::now();
        let oracle = rec.span("engines.oracle", op, |_| w.oracle.scan(input));
        out.op_ms.push(secs(t) * 1e3);
        let oracle = as_pairs(&oracle);
        for cell in &w.cells {
            op += 1;
            let t = Instant::now();
            let sim = setup.pipe.simulator_for(cell.kind.machine(), w.suite);
            let result = rec.span("eval.cell", op, |rec| {
                let plan = rec.span("pipeline.plan", op, |_| {
                    setup.pipe.plan(&sim, &cell.patterns, cell.kind.forced())
                });
                plan.map(|plan| rec.span(cell.kind.span(), op, |_| plan.simulate(input)))
            });
            out.op_ms.push(secs(t) * 1e3);
            out.sim_bytes += input.len() as u64;
            let label = format!("{}/{}", w.suite.name(), cell.kind.name());
            match result {
                Ok(result) => {
                    let got: Vec<(usize, usize)> =
                        result.matches.iter().map(|m| (m.end, m.pattern)).collect();
                    let want = oracle_for(cell, &oracle);
                    tally.check(got == want, || {
                        format!(
                            "{label}: {} simulated match(es) differ from the oracle's {}",
                            got.len(),
                            want.len()
                        )
                    });
                    out.modelled.insert(label, Modelled::of(&result));
                }
                Err(e) => tally.fail(&format!("{label}: plan: {e}")),
            }
        }
        for (name, engine) in [
            ("engines.cpu", &w.cpu as &dyn Engine),
            ("engines.gpu", &w.gpu as &dyn Engine),
        ] {
            op += 1;
            let t = Instant::now();
            let hits = rec.span(name, op, |_| engine.scan(input));
            out.op_ms.push(secs(t) * 1e3);
            tally.check(as_pairs(&hits) == oracle, || {
                format!(
                    "{}/{name}: {} hit(s) differ from the oracle's {}",
                    w.suite.name(),
                    hits.len(),
                    oracle.len()
                )
            });
        }
        tally.ok(); // the oracle scan itself
    }
    out.secs = secs(t_pass);
    out
}

pub fn run(ctx: &Ctx, spans: &mut Vec<Recorder>) -> Report {
    let mut tally = Tally::default();
    let mut rec = Recorder::new(ctx.trace, ctx.epoch, 0);
    let mut kept: Option<Setup> = None;
    let stage = |s: &Setup, st: Stage| s.pipe.report().stage_secs(st);
    let (mut setup_s, mut generate_s, mut cpu_build_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut compile_s, mut map_s, mut verify_s) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS {
        rec.set_unit(rep);
        // Free the previous set-up first, so peak memory holds one.
        drop(kept.take());
        let mut rep_tally = Tally::default();
        let s = setup(ctx, &mut rec, &mut rep_tally);
        setup_s.push(s.total_s);
        generate_s.push(s.generate_s);
        cpu_build_s.push(s.cpu_build_s);
        compile_s.push(stage(&s, Stage::Compile));
        map_s.push(stage(&s, Stage::Map));
        verify_s.push(stage(&s, Stage::Verify));
        // Every repetition builds the same plans; count the last one's.
        if rep + 1 == SETUP_REPS {
            tally.absorb(rep_tally);
        }
        kept = Some(s);
    }
    let setup = kept.expect("at least one set-up");
    let plan_misses = setup.pipe.report().plan_cache.misses;

    let pinned = (ctx.seed == DEFAULT_SEED).then(pins);
    let t_run = Instant::now();
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    let mut first: Option<BTreeMap<String, Modelled>> = None;
    while passes.len() < MIN_PASSES || secs(t_run) < ctx.seconds {
        let unit = passes.len();
        let traced = ctx.traced_unit(unit);
        rec.set_enabled(traced);
        rec.set_unit(SETUP_REPS + unit);
        let p = pass(&setup, &mut rec, &mut tally);
        match &first {
            None => {
                if let Some(pinned) = &pinned {
                    for (label, got) in &p.modelled {
                        let ok = pinned.get(label).is_some_and(|want| got.same(want));
                        tally.check(ok, || {
                            format!(
                                "{label}: modelled {got:?} differs from pinned {:?}",
                                pinned.get(label)
                            )
                        });
                    }
                }
                first = Some(p.modelled.clone());
            }
            Some(first) => {
                tally.check(*first == p.modelled, || {
                    format!("pass {unit}: modelled outputs differ from pass 0")
                });
            }
        }
        passes.push((traced, p));
    }
    let plan_hits_per_pass = (setup.pipe.report().plan_cache.hits) as f64 / passes.len() as f64;

    let mut e2e = Metrics::default();
    e2e.put_median("setup_s", &setup_s, "s");
    let all_secs: Vec<f64> = passes.iter().map(|(_, p)| p.secs).collect();
    let ops: Vec<Vec<f64>> = passes.iter().map(|(_, p)| p.op_ms.clone()).collect();
    e2e.put_median("work_s", &all_secs, "s");
    e2e.put_unit_percentile("op_p50_ms", &ops, 0.5, "ms");
    e2e.put_unit_percentile("op_p90_ms", &ops, 0.9, "ms");

    let modelled_first = first.unwrap_or_default();
    let mut modelled = Metrics::default();
    let sum = |f: fn(&Modelled) -> f64| modelled_first.values().map(f).sum::<f64>();
    let cycles = sum(|m| m.cycles as f64);
    modelled.put("sim.cycles", cycles, "count", 0);
    modelled.put(
        "sim.stall_cycles",
        sum(|m| m.stall_cycles as f64),
        "count",
        0,
    );
    modelled.put("sim.matches", sum(|m| m.matches as f64), "count", 0);
    modelled.put("sim.energy_uj", sum(|m| m.energy_uj), "uJ", 0);

    let mut layers = Metrics::default();
    if ctx.trace {
        let by_unit = rec.self_secs();
        let traced: Vec<(&Pass, &BTreeMap<&str, f64>)> = passes
            .iter()
            .enumerate()
            .filter(|(_, (t, _))| *t)
            .filter_map(|(i, (_, p))| by_unit.get(&(SETUP_REPS + i)).map(|m| (p, m)))
            .collect();
        let per_pass = |name: &str| -> Vec<f64> {
            traced
                .iter()
                .map(|(_, m)| m.get(name).copied().unwrap_or(0.0))
                .collect()
        };
        let sim_names = Kind::ALL.map(Kind::span);
        let sim_total: Vec<f64> = traced
            .iter()
            .map(|(_, m)| {
                sim_names
                    .iter()
                    .map(|n| m.get(n).copied().unwrap_or(0.0))
                    .sum()
            })
            .collect();
        layers.put_median("workloads.generate_s", &generate_s, "s");
        layers.put_median("compiler.compile_s", &compile_s, "s");
        layers.put_median("mapper.map_s", &map_s, "s");
        layers.put_median("verify.verify_s", &verify_s, "s");
        layers.put("pipeline.plan_hits", plan_hits_per_pass, "count", 0);
        layers.put("pipeline.plan_misses", plan_misses as f64, "count", 0);
        for kind in Kind::ALL {
            layers.put_median(kind.metric(), &per_pass(kind.span()), "s");
        }
        let sim_bytes = passes.first().map_or(0, |(_, p)| p.sim_bytes) as f64;
        let rate = |bytes: f64, s: &[f64]| -> Vec<f64> {
            s.iter()
                .map(|&s| bytes / s.max(1e-12) / (1024.0 * 1024.0))
                .collect()
        };
        layers.put_median("sim.mib_s", &rate(sim_bytes, &sim_total), "MiB/s");
        let ns_per_cycle: Vec<f64> = sim_total
            .iter()
            .map(|s| s * 1e9 / cycles.max(1.0))
            .collect();
        layers.put_median("sim.ns_per_cycle", &ns_per_cycle, "ns");
        layers.put_median("engines.cpu_build_s", &cpu_build_s, "s");
        let engine_bytes = setup.work.iter().map(|w| w.input.len()).sum::<usize>() as f64;
        for (span, metric) in [
            ("engines.cpu", "engines.cpu_mib_s"),
            ("engines.gpu", "engines.gpu_mib_s"),
            ("engines.oracle", "engines.oracle_mib_s"),
        ] {
            layers.put_median(metric, &rate(engine_bytes, &per_pass(span)), "MiB/s");
        }
        layers.put_overhead(passes.iter().map(|(t, p)| (*t, p.secs)));
    }
    spans.push(rec);

    let cells: usize = setup.work.iter().map(|w| w.cells.len()).sum();
    Report {
        tally,
        e2e,
        layers,
        modelled,
        shape: vec![
            crate::stats::unit_line(&all_secs),
            format!(
                "eval: {} suites x {PATTERNS} patterns, {INPUT_LEN} input bytes each; {cells} simulator cells + 3 engine scans per suite per pass",
                setup.work.len()
            ),
            format!(
                "{} pass(es) in {:.2} s on one thread; {SETUP_REPS} set-up repetitions; unit of work = one pass, operation = one cell or scan",
                passes.len(),
                secs(t_run)
            ),
        ],
    }
}

/// Prints the default seed's modelled outputs in the pinned-file format.
pub fn print_pins() {
    let ctx = Ctx {
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        threads: 1,
        epoch: Instant::now(),
    };
    let mut rec = Recorder::new(false, ctx.epoch, 0);
    let mut tally = Tally::default();
    let setup = setup(&ctx, &mut rec, &mut tally);
    let p = pass(&setup, &mut rec, &mut tally);
    println!("# suite\tcell\tcycles\tstall_cycles\tmatches\tenergy_uj  (seed {DEFAULT_SEED}; {PATTERNS} patterns, {INPUT_LEN} bytes per suite)");
    for (label, m) in &p.modelled {
        let (suite, cell) = label.split_once('/').expect("suite/cell label");
        println!(
            "{suite}\t{cell}\t{}\t{}\t{}\t{:?}",
            m.cycles, m.stall_cycles, m.matches, m.energy_uj
        );
    }
    if tally.failed > 0 {
        eprintln!("perfbench: {} gate(s) failed while pinning", tally.failed);
        std::process::exit(1);
    }
}
