//! The resumable simulator's contract: stepping a stream chunk by chunk
//! through one persisted `StreamState` is the one-shot batch run.
//!
//! A property test draws, for every machine, a random pattern set (with
//! `^`-anchored, `$`-anchored, cyclic `.*` and stall-heavy bit-vector
//! patterns), a random input and a random chunking (empty chunks
//! included). The concatenated step events must be exactly the batch
//! run's matches except the `$`-anchored ones, which `finish` releases
//! at the true end of stream; cycles and stall cycles must be exact and
//! energy equal within 1e-9 relative (only its summation order differs).
//!
//! Unit checks pin `$` deferral, the tracing probe, and the bank model's
//! buffer geometry (the reference the service is compared against).
//!
//! A service test then streams 1 MiB through `rap-serve` for a tenant
//! whose patterns can never bound a retained window (`^`-anchored and
//! `.*`), checking the delivered events against its solo streaming run.

use proptest::prelude::*;
use rap::compiler::Compiled;
use rap::mapper::Mapping;
use rap::pipeline::{BenchConfig, PatternSet, Pipeline};
use rap::serve::{SendOutcome, ServeConfig, Server};
use rap::sim::{simulate, simulate_streaming, StreamState};
use rap::telemetry::{ProbeEvent, Telemetry, TelemetryConfig};
use rap::{Machine, MatchEvent, Simulator};

/// Compiles and maps `sources` for RAP with BV depth 4.
fn plan(sources: &[&str]) -> (Vec<Compiled>, Mapping) {
    let sim = Simulator::new(Machine::Rap).with_bv_depth(4);
    let parsed: Vec<rap::regex::Pattern> = sources
        .iter()
        .map(|p| rap::regex::parse_pattern(p).expect("parses"))
        .collect();
    let compiled = sim.compile_parsed(&parsed).expect("compiles");
    let mapping = sim.map_verified(&compiled).expect("maps legally");
    (compiled, mapping)
}

/// Sources over a tiny alphabet: literals, classes, `^`/`$` anchors,
/// unbounded loops, and bounded repetitions long enough to keep NBVA
/// arrays stalling.
const POOL: [&str; 16] = [
    "abc",
    "a[bc]a",
    "^ab",
    "^c.*a",
    "ca$",
    "^b.*c$",
    "a.*cb",
    "b+c",
    "ab{8}c",
    "b{12,40}a",
    "c{20}",
    "a(b|c){6}a",
    "(ab|ba){3}$",
    "x[ab]{2,9}y",
    "ba?c",
    "cc[abx]c",
];

fn arb_case() -> impl Strategy<Value = (Vec<usize>, Vec<u8>, Vec<usize>)> {
    (
        prop::collection::vec(0..POOL.len(), 1..6),
        prop::collection::vec(
            prop_oneof![
                5 => Just(b'a'),
                6 => Just(b'b'),
                5 => Just(b'c'),
                1 => Just(b'x'),
                1 => Just(b'y'),
            ],
            0..300,
        ),
        prop::collection::vec(0usize..48, 1..10)
            .prop_filter("some chunk advances", |sizes| sizes.iter().any(|&n| n > 0)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_chunkings_equal_the_batch_run(case in arb_case()) {
        let (picks, input, sizes) = case;
        let parsed: Vec<rap::regex::Pattern> = picks
            .iter()
            .map(|&p| rap::regex::parse_pattern(POOL[p]).expect("pool patterns parse"))
            .collect();
        for machine in Machine::all() {
            let sim = Simulator::new(machine).with_bv_depth(4);
            let compiled = sim.compile_parsed(&parsed).expect("pool patterns compile");
            let mapping = sim.map_verified(&compiled).expect("pool patterns map");
            let batch = simulate(&compiled, &mapping, &input, machine);

            let mut state = StreamState::new(&compiled, &mapping, machine, None);
            let mut stepped: Vec<MatchEvent> = Vec::new();
            let (mut at, mut k) = (0, 0);
            while at < input.len() {
                let len = sizes[k % sizes.len()].min(input.len() - at);
                stepped.extend(state.step(&compiled, &mapping, &input[at..at + len]));
                at += len;
                k += 1;
            }
            let fin = state.finish();

            let (dollar, rest): (Vec<MatchEvent>, Vec<MatchEvent>) = batch
                .matches
                .iter()
                .partition(|m| compiled[m.pattern].anchored_end());
            prop_assert_eq!(&stepped, &rest, "{}: step events", machine);
            prop_assert_eq!(&fin.matches, &dollar, "{}: finish events", machine);
            prop_assert_eq!(fin.metrics.matches, batch.metrics.matches, "{}", machine);
            prop_assert_eq!(fin.metrics.cycles, batch.metrics.cycles, "{}: cycles", machine);
            prop_assert_eq!(fin.stall_cycles, batch.stall_cycles, "{}: stalls", machine);
            let (got, want) = (fin.metrics.energy_uj, batch.metrics.energy_uj);
            prop_assert!(
                (got - want).abs() <= 1e-9 * want.abs(),
                "{}: energy {} vs batch {}",
                machine,
                got,
                want
            );
        }
    }
}

/// A tenant the old retained-window service could never trim: its
/// stream used to be kept, and re-simulated, in full on every chunk.
#[test]
fn unbounded_tenant_streams_a_mebibyte_in_small_chunks() {
    const LEN: usize = 1 << 20;
    const CHUNK: usize = 128;
    let sources = ["^ab".to_string(), "x.*yz".to_string()];
    let set = PatternSet::parse(&sources).expect("parses");
    let spec = BenchConfig {
        patterns_per_suite: 4,
        input_len: 256,
        match_rate: 0.02,
        seed: 5,
    };
    let server = Server::new(
        Pipeline::new(spec),
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    );
    let mut input = b"ab".to_vec();
    let filler = b"qxq yz wxyz plain text x y z ";
    while input.len() < LEN {
        input.extend_from_slice(filler);
    }
    input.truncate(LEN);

    let session = server.register("unbounded", &set).expect("admits");
    for chunk in input.chunks(CHUNK) {
        while session.send(chunk).expect("session open") == SendOutcome::Shed {
            session.wait_idle();
        }
    }
    session.finish();
    let mut delivered = session.drain();
    delivered.sort_unstable_by_key(|m| (m.end, m.pattern));
    delivered.dedup();

    let plan = server
        .pipeline()
        .plan(&Simulator::new(server.config().machine), &set, None)
        .expect("solo plan builds");
    let expected = plan.simulate_streaming(&input).0.matches;
    assert!(expected.iter().any(|m| m.pattern == 0), "^ab matches once");
    assert!(expected.len() > 1000, "x.*yz keeps matching");
    assert_eq!(delivered, expected);
}

#[test]
fn dollar_matches_wait_for_the_true_end() {
    let (compiled, mapping) = plan(&["abc$"]);
    let mut state = StreamState::new(&compiled, &mapping, Machine::Rap, None);
    assert!(state.step(&compiled, &mapping, b"zzabc").is_empty());
    assert!(state.step(&compiled, &mapping, b"").is_empty());
    assert!(state.step(&compiled, &mapping, b"zabc").is_empty());
    let end = vec![MatchEvent { pattern: 0, end: 9 }];
    assert_eq!(state.finish().matches, end, "only the last occurrence");
}

#[test]
fn probe_samples_every_cycle_and_summarises_each_array() {
    let (compiled, mapping) = plan(&["xy{6}z"]);
    let tel = Telemetry::new(TelemetryConfig {
        sample_every: 1,
        ring_capacity: 1024,
    });
    let result = StreamState::new(&compiled, &mapping, Machine::Rap, Some((&tel, "unit")))
        .run(&compiled, &mapping, b"xyqqqq");
    let untraced = simulate(&compiled, &mapping, b"xyqqqq", Machine::Rap);
    assert_eq!(
        result.metrics.energy_uj, untraced.metrics.energy_uj,
        "tracing only observes"
    );
    let traces = tel.drain_traces();
    assert_eq!(traces.len(), 1);
    let events = &traces[0].events;
    // One sample per cycle, then the array and run summaries.
    let cycles = result.metrics.cycles;
    assert_eq!(events.len() as u64, cycles + 2);
    let stalled: Vec<&ProbeEvent> = events
        .iter()
        .filter(|e| matches!(e, ProbeEvent::Array { stalled: true, .. }))
        .collect();
    assert!(!stalled.is_empty(), "the `y` enters the bit vector");
    assert_eq!(stalled.len() as u64, result.stall_cycles);
    // Only the live-vector tile stays powered during a phase.
    assert!(stalled.iter().all(|e| matches!(
        e,
        ProbeEvent::Array {
            powered_tiles: 1,
            ..
        }
    )));
    assert!(matches!(
        events[events.len() - 2],
        ProbeEvent::ArrayEnd { array: 0, cycles: c, .. } if c == cycles
    ));
    assert!(matches!(
        events.last(),
        Some(ProbeEvent::RunEnd { input_bytes: 6, .. })
    ));
}

#[test]
fn bank_model_takes_its_buffer_geometry_from_the_mapping() {
    // A smaller bank output buffer fills sooner: the same match flood
    // raises more host interrupts and reports the same matches.
    let (compiled, mapping) = plan(&["[ab]"]);
    let mut small = mapping.clone();
    small.config.arch.bank_output_entries = 16;
    let input = b"ab".repeat(500);
    let (wide, wide_stats) = simulate_streaming(&compiled, &mapping, &input, Machine::Rap, None);
    let (narrow, narrow_stats) = simulate_streaming(&compiled, &small, &input, Machine::Rap, None);
    assert_eq!(narrow.matches, wide.matches);
    assert!(
        narrow_stats.output_interrupts > wide_stats.output_interrupts,
        "16-entry buffer: {} interrupts, 64-entry: {}",
        narrow_stats.output_interrupts,
        wide_stats.output_interrupts
    );
}
