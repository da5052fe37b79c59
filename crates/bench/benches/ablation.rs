//! Ablation studies for the design choices DESIGN.md §5 calls out:
//! BV depth, bin size, unfold threshold, and unified storage vs a fixed
//! BVM (the BVAP-style alternative). These four print modeled energy,
//! area, throughput and stalls, which do not depend on the host. The
//! fifth, bit vectors vs counter sets, compares software cost, so it
//! prints host time per scan.
//!
//! Run with `cargo bench -p rap-bench --bench ablation`.

use std::hint::black_box;
use std::time::Instant;

use rap_bench::eval::{BenchConfig, ModeSplit};
use rap_bench::{suite_input, suite_regexes};
use rap_circuit::Machine;
use rap_compiler::Mode;
use rap_sim::Simulator;
use rap_workloads::Suite;

fn cfg() -> BenchConfig {
    BenchConfig {
        patterns_per_suite: 40,
        input_len: 10_000,
        match_rate: 0.02,
        seed: 42,
    }
}

/// Sweep the BV depth on an NBVA-heavy workload; the modeled energy, area
/// and throughput show the trade-off of Fig. 10(a).
fn ablate_bv_depth() {
    let config = cfg();
    let patterns = suite_regexes(Suite::ClamAv, &config);
    let nbva = ModeSplit::of(&patterns).nbva;
    let input = suite_input(Suite::ClamAv, &config);
    for depth in [4u32, 8, 16, 32] {
        let sim = Simulator::new(Machine::Rap).with_bv_depth(depth);
        let compiled = sim.compile_forced(&nbva, Mode::Nbva).expect("compiles");
        let mapping = sim.map(&compiled);
        let result = sim.simulate(&compiled, &mapping, &input);
        println!(
            "[bv_depth={depth}] energy={:.1} uJ area={:.3} mm2 thpt={:.2} Gch/s",
            result.metrics.energy_uj,
            result.metrics.area_mm2,
            result.metrics.throughput_gchps()
        );
    }
}

/// Sweep the LNFA bin size (Fig. 10(b)).
fn ablate_bin_size() {
    let config = cfg();
    let patterns = suite_regexes(Suite::Prosite, &config);
    let lnfa = ModeSplit::of(&patterns).lnfa;
    let input = suite_input(Suite::Prosite, &config);
    for bin in [1u32, 4, 16, 32] {
        let sim = Simulator::new(Machine::Rap).with_bin_size(bin);
        let compiled = sim.compile_forced(&lnfa, Mode::Lnfa).expect("compiles");
        let mapping = sim.map(&compiled);
        let result = sim.simulate(&compiled, &mapping, &input);
        println!(
            "[bin_size={bin}] energy={:.1} uJ area={:.3} mm2",
            result.metrics.energy_uj, result.metrics.area_mm2
        );
    }
}

/// Unified CC/BV storage (RAP) vs fixed bit-vector modules (BVAP-style):
/// the headline architectural ablation.
fn ablate_unified_storage() {
    let config = cfg();
    let patterns = suite_regexes(Suite::Yara, &config);
    let input = suite_input(Suite::Yara, &config);
    for machine in [Machine::Rap, Machine::Bvap] {
        let sim = Simulator::new(machine);
        let compiled = sim.compile(&patterns).expect("compiles");
        let mapping = sim.map(&compiled);
        let result = sim.simulate(&compiled, &mapping, &input);
        println!(
            "[{}] energy={:.1} uJ area={:.3} mm2",
            machine, result.metrics.energy_uj, result.metrics.area_mm2
        );
    }
}

/// Unfold-threshold sweep: low thresholds keep tiny repetitions as BVs
/// (more stalls); high thresholds unfold big repetitions (more states).
fn ablate_unfold_threshold() {
    let config = cfg();
    let patterns = suite_regexes(Suite::Snort, &config);
    let input = suite_input(Suite::Snort, &config);
    for threshold in [2u32, 4, 8, 16] {
        let mut sim = Simulator::new(Machine::Rap);
        sim.compiler.unfold_threshold = threshold;
        let compiled = sim.compile(&patterns).expect("compiles");
        let mapping = sim.map(&compiled);
        let result = sim.simulate(&compiled, &mapping, &input);
        println!(
            "[threshold={threshold}] energy={:.1} uJ area={:.3} mm2 stalls={}",
            result.metrics.energy_uj, result.metrics.area_mm2, result.stall_cycles
        );
    }
}

/// Bit vectors vs counter sets: the execution-model ablation behind the
/// NBVA choice (§2.1 relates the two; the hardware picks bit vectors
/// because they reuse the CAM). Software cost tells the same story per
/// workload shape: shift cost is O(width/64) regardless of live threads,
/// counter cost is O(live threads) regardless of width.
fn ablate_bv_vs_counters() {
    use rap_automata::nbva::Nbva;
    use rap_automata::nca::NcaRun;

    // Dense regime: every byte extends the repetition, many live threads.
    let dense_re = rap_regex::parse("cc{2000}").expect("parses");
    let dense_nbva = Nbva::from_regex(&dense_re, 4);
    let dense_input = vec![b'c'; 10_000];
    time_case("dense/bit_vector", || {
        let mut run = dense_nbva.start();
        for &byte in &dense_input {
            black_box(run.step(&dense_nbva, byte));
        }
    });
    time_case("dense/counters", || {
        black_box(NcaRun::match_ends(&dense_nbva, &dense_input));
    });
    // Sparse regime: a huge width but threads enter rarely and die fast.
    let sparse_re = rap_regex::parse("zq{4000}").expect("parses");
    let sparse_nbva = Nbva::from_regex(&sparse_re, 4);
    let sparse_input: Vec<u8> = (0..10_000u32)
        .map(|i| if i % 97 == 0 { b'z' } else { b'q' })
        .collect();
    time_case("sparse/bit_vector", || {
        let mut run = sparse_nbva.start();
        for &byte in &sparse_input {
            black_box(run.step(&sparse_nbva, byte));
        }
    });
    time_case("sparse/counters", || {
        black_box(NcaRun::match_ends(&sparse_nbva, &sparse_input));
    });
}

/// Prints the mean host time of `scan` over ten runs after one warm-up.
fn time_case(case: &str, mut scan: impl FnMut()) {
    const RUNS: u32 = 10;
    scan();
    let start = Instant::now();
    for _ in 0..RUNS {
        scan();
    }
    let nanos = start.elapsed().as_nanos() / u128::from(RUNS);
    let label = format!("ablation/bv_vs_counters/{case}");
    println!("bench {label:<48} {nanos:>12} ns/iter");
}

fn main() {
    ablate_bv_depth();
    ablate_bin_size();
    ablate_unified_storage();
    ablate_unfold_threshold();
    ablate_bv_vs_counters();
}
