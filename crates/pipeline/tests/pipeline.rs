//! End-to-end properties of the staged pipeline: cache hits are
//! bit-identical to cold compiles, the parallel grid driver computes
//! exactly what the serial path computes, and the verify gate rejects
//! corrupted placements (the only road to simulation is a verified plan).

use proptest::prelude::*;
use rap_circuit::Machine;
use rap_mapper::ArrayKind;
use rap_pipeline::{
    build_plan, BenchConfig, EvalError, MappedPlan, PatternSet, Pipeline, RunSummary,
};
use rap_sim::Simulator;
use rap_workloads::Suite;
use std::sync::Arc;

fn tiny() -> BenchConfig {
    BenchConfig {
        patterns_per_suite: 10,
        input_len: 2_000,
        match_rate: 0.02,
        seed: 1234,
    }
}

/// A cache hit must be indistinguishable from the cold compile it reuses:
/// same shared artifact, and bit-identical images, placement, and
/// simulation summary compared with an independent cold build.
#[test]
fn cache_hit_is_bit_identical_to_cold_compile() {
    let pipe = Pipeline::new(tiny());
    let corpus = pipe.corpus(Suite::Snort);
    let sim = pipe.simulator_for(Machine::Rap, Suite::Snort);

    let cold = pipe.plan(&sim, corpus.patterns(), None).expect("cold plan");
    let hit = pipe
        .plan(&sim, corpus.patterns(), None)
        .expect("cached plan");
    assert!(Arc::ptr_eq(&cold, &hit), "hit must reuse the artifact");
    let stats = pipe.report().plan_cache;
    assert_eq!((stats.misses, stats.hits), (1, 1));

    // An independent cold build outside the cache must agree bit for bit.
    let fresh = build_plan(&sim, corpus.patterns(), None).expect("fresh plan");
    assert_eq!(
        format!("{:?}", fresh.compiled().images()),
        format!("{:?}", hit.compiled().images()),
        "hardware images must be identical"
    );
    assert_eq!(
        fresh.mapping(),
        hit.mapping(),
        "array placement must be identical"
    );
    let a = RunSummary::of(
        &fresh.simulate(corpus.input()),
        fresh.compiled().state_count(),
    );
    let b = RunSummary::of(&hit.simulate(corpus.input()), hit.compiled().state_count());
    assert_eq!(a, b, "simulation results must be identical");
}

/// The parallel (machine × suite) fan-out must produce exactly the
/// summaries the serial driver produces, in the same order.
#[test]
fn parallel_grid_equals_serial() {
    let cells: Vec<(Machine, Suite)> = [Suite::Snort, Suite::Yara]
        .into_iter()
        .flat_map(|s| Machine::all().into_iter().map(move |m| (m, s)))
        .collect();

    let serial = Pipeline::new(tiny()).with_workers(1);
    let parallel = Pipeline::new(tiny()).with_workers(4);
    let eval = |pipe: &Pipeline, (machine, suite): (Machine, Suite)| -> RunSummary {
        let corpus = pipe.corpus(suite);
        pipe.eval(machine, suite, corpus.patterns(), corpus.input(), None)
            .expect("cell evaluates")
    };
    let a = serial.grid(cells.clone(), |cell| eval(&serial, cell));
    let b = parallel.grid(cells.clone(), |cell| eval(&parallel, cell));
    assert_eq!(a, b, "parallel grid must match serial results");
    assert_eq!(a.len(), cells.len());
    assert!(
        parallel.report().max_workers >= 2,
        "grid must actually fan out"
    );
}

/// Random compilable NFA-mode patterns (loops over distinct literals).
fn arb_sources() -> impl Strategy<Value = Vec<String>> {
    let pat = (0u8..4, 0u8..4).prop_map(|(a, b)| {
        format!(
            "{}.*{}",
            (b'a' + a) as char,
            (b'w' + b) as char // distinct tail alphabet
        )
    });
    prop::collection::vec(pat, 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Corrupting any placement tile index must trip the verify gate:
    /// `MappedPlan::verify` refuses the plan, so no `VerifiedPlan` (and
    /// therefore no simulation) can exist for it. The uncorrupted twin of
    /// the same plan must verify.
    #[test]
    fn corrupted_placements_never_verify(
        sources in arb_sources(),
        victim in 0usize..64,
    ) {
        let sim = Simulator::new(Machine::Rap);
        let pats = PatternSet::parse(&sources).expect("sources parse");
        let compiled = pats.compile(&sim, None).expect("sources compile");
        let mut mapping = sim.map(compiled.images());

        // The pristine placement passes the gate.
        let pristine = MappedPlan::from_parts(compiled.clone(), mapping.clone());
        prop_assert!(pristine.verify().is_ok(), "mapper output must verify");

        // Corrupt one placement's tile index to a value no array has.
        let mut corrupted = false;
        'outer: for array in &mut mapping.arrays {
            if let ArrayKind::Nfa { placements } | ArrayKind::Nbva { placements, .. } =
                &mut array.kind
            {
                for p in placements.iter_mut() {
                    let slot = victim % p.state_tile.len().max(1);
                    if let Some(t) = p.state_tile.get_mut(slot) {
                        *t = 99;
                        corrupted = true;
                        break 'outer;
                    }
                }
            }
        }
        prop_assume!(corrupted);

        match MappedPlan::from_parts(compiled, mapping).verify() {
            Err(EvalError::IllegalMapping { machine, report }) => {
                prop_assert_eq!(machine, Machine::Rap);
                prop_assert!(!report.is_legal());
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
            Ok(_) => prop_assert!(false, "corrupted plan must not verify"),
        }
    }
}
