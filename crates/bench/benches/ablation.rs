//! Ablation benches for the design choices DESIGN.md §5 calls out:
//! BV depth, bin size, unfold threshold, and unified storage vs a fixed
//! BVM (the BVAP-style alternative).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
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

/// Sweep the BV depth on an NBVA-heavy workload; Criterion tracks the
/// simulation wall-time, and the run prints the modeled energy/area so the
/// trade-off of Fig. 10(a) is visible alongside.
fn ablate_bv_depth(c: &mut Criterion) {
    let config = cfg();
    let patterns = suite_regexes(Suite::ClamAv, &config);
    let nbva = ModeSplit::of(&patterns).nbva;
    let input = suite_input(Suite::ClamAv, &config);
    let mut group = c.benchmark_group("ablation/bv_depth");
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
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| sim.simulate(&compiled, &mapping, &input));
        });
    }
    group.finish();
}

/// Sweep the LNFA bin size (Fig. 10(b)).
fn ablate_bin_size(c: &mut Criterion) {
    let config = cfg();
    let patterns = suite_regexes(Suite::Prosite, &config);
    let lnfa = ModeSplit::of(&patterns).lnfa;
    let input = suite_input(Suite::Prosite, &config);
    let mut group = c.benchmark_group("ablation/bin_size");
    for bin in [1u32, 4, 16, 32] {
        let sim = Simulator::new(Machine::Rap).with_bin_size(bin);
        let compiled = sim.compile_forced(&lnfa, Mode::Lnfa).expect("compiles");
        let mapping = sim.map(&compiled);
        let result = sim.simulate(&compiled, &mapping, &input);
        println!(
            "[bin_size={bin}] energy={:.1} uJ area={:.3} mm2",
            result.metrics.energy_uj, result.metrics.area_mm2
        );
        group.bench_with_input(BenchmarkId::from_parameter(bin), &bin, |b, _| {
            b.iter(|| sim.simulate(&compiled, &mapping, &input));
        });
    }
    group.finish();
}

/// Unified CC/BV storage (RAP) vs fixed bit-vector modules (BVAP-style):
/// the headline architectural ablation.
fn ablate_unified_storage(c: &mut Criterion) {
    let config = cfg();
    let patterns = suite_regexes(Suite::Yara, &config);
    let input = suite_input(Suite::Yara, &config);
    let mut group = c.benchmark_group("ablation/storage");
    for machine in [Machine::Rap, Machine::Bvap] {
        let sim = Simulator::new(machine);
        let compiled = sim.compile(&patterns).expect("compiles");
        let mapping = sim.map(&compiled);
        let result = sim.simulate(&compiled, &mapping, &input);
        println!(
            "[{}] energy={:.1} uJ area={:.3} mm2",
            machine, result.metrics.energy_uj, result.metrics.area_mm2
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(machine.name()),
            &machine,
            |b, _| b.iter(|| sim.simulate(&compiled, &mapping, &input)),
        );
    }
    group.finish();
}

/// Unfold-threshold sweep: low thresholds keep tiny repetitions as BVs
/// (more stalls); high thresholds unfold big repetitions (more states).
fn ablate_unfold_threshold(c: &mut Criterion) {
    let config = cfg();
    let patterns = suite_regexes(Suite::Snort, &config);
    let input = suite_input(Suite::Snort, &config);
    let mut group = c.benchmark_group("ablation/unfold_threshold");
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
        group.bench_with_input(
            BenchmarkId::from_parameter(threshold),
            &threshold,
            |b, _| b.iter(|| sim.simulate(&compiled, &mapping, &input)),
        );
    }
    group.finish();
}

/// Bit vectors vs counter sets: the execution-model ablation behind the
/// NBVA choice (§2.1 relates the two; the hardware picks bit vectors
/// because they reuse the CAM). Software cost tells the same story per
/// workload shape: shift cost is O(width/64) regardless of live threads,
/// counter cost is O(live threads) regardless of width.
fn ablate_bv_vs_counters(c: &mut Criterion) {
    use rap_automata::nbva::Nbva;
    use rap_automata::nca::NcaRun;

    let mut group = c.benchmark_group("ablation/bv_vs_counters");
    // Dense regime: every byte extends the repetition, many live threads.
    let dense_re = rap_regex::parse("cc{2000}").expect("parses");
    let dense_nbva = Nbva::from_regex(&dense_re, 4);
    let dense_input = vec![b'c'; 10_000];
    group.bench_function("dense/bit_vector", |b| {
        b.iter(|| {
            let mut run = dense_nbva.start();
            for &byte in &dense_input {
                std::hint::black_box(run.step(&dense_nbva, byte));
            }
        });
    });
    group.bench_function("dense/counters", |b| {
        b.iter(|| std::hint::black_box(NcaRun::match_ends(&dense_nbva, &dense_input)));
    });
    // Sparse regime: a huge width but threads enter rarely and die fast.
    let sparse_re = rap_regex::parse("zq{4000}").expect("parses");
    let sparse_nbva = Nbva::from_regex(&sparse_re, 4);
    let sparse_input: Vec<u8> = (0..10_000u32)
        .map(|i| if i % 97 == 0 { b'z' } else { b'q' })
        .collect();
    group.bench_function("sparse/bit_vector", |b| {
        b.iter(|| {
            let mut run = sparse_nbva.start();
            for &byte in &sparse_input {
                std::hint::black_box(run.step(&sparse_nbva, byte));
            }
        });
    });
    group.bench_function("sparse/counters", |b| {
        b.iter(|| std::hint::black_box(NcaRun::match_ends(&sparse_nbva, &sparse_input)));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ablate_bv_depth, ablate_bin_size, ablate_unified_storage,
        ablate_unfold_threshold, ablate_bv_vs_counters
}
criterion_main!(benches);
