//! Cycle-accurate simulation of RAP and the baseline automata processors.
//!
//! The methodology follows §5.2 of the paper: a dataflow-driven cycle
//! simulator executes the mapped automata against real input streams.
//! Each array counts its micro-operations (CAM search, switch traversal,
//! bit-vector pipeline step, controller tick, wire toggle) in integer
//! counters, and [`CostModel`] prices the counts, plus leakage, once per
//! run against the circuit models of Table 1. The same simulator runs all
//! four machines:
//!
//! * **RAP** — NFA, NBVA and LNFA tiles with reconfiguration (this paper),
//! * **CAMA** — CAM-based state matching, NFA only (HPCA'22),
//! * **BVAP** — CAMA plus fixed per-tile bit-vector modules (ASPLOS'24),
//! * **CA** — SRAM-based Cache Automaton, NFA only (MICRO'17).
//!
//! # Example
//!
//! ```
//! use rap_circuit::Machine;
//! use rap_sim::Simulator;
//!
//! let sim = Simulator::new(Machine::Rap);
//! let patterns = vec!["ab{20}c".to_string(), "hello".to_string()];
//! let result = sim.run_patterns(&patterns, b"xxhelloxx")?;
//! assert_eq!(result.matches.len(), 1);
//! assert!(result.metrics.throughput_gchps() > 0.0);
//! # Ok::<(), rap_sim::SimError>(())
//! ```

mod array;
pub mod bank;
mod cost;
pub mod reconfig;
pub mod replicate;
mod result;
mod stream;

pub use bank::{simulate_streaming, BankStats};
pub use cost::CostModel;
pub use reconfig::{extract_arrays, simulate_hot_swap, Extraction, HotSwapRun};
pub use replicate::{max_match_span, simulate_replicated, ReplicatedRun};
pub use result::{MatchEvent, RunResult};
pub use stream::StreamState;

use rap_circuit::Machine;
use rap_compiler::{CompileError, Compiled, Compiler, CompilerConfig, Mode};
use rap_mapper::{map_workload, MapperConfig, Mapping};
use rap_regex::Regex;
use rap_telemetry::Telemetry;
use std::fmt;
use std::sync::Arc;

/// Error produced by the end-to-end [`Simulator`] entry points.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// A pattern failed to compile.
    Compile {
        /// Index of the offending pattern.
        pattern: usize,
        /// The underlying error.
        error: CompileError,
    },
    /// The mapping plan violates a hardware legality invariant; the
    /// simulator refuses to execute it. The report lists every violation.
    IllegalMapping {
        /// The verifier's findings.
        report: rap_verify::Report,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Compile { pattern, error } => {
                write!(f, "pattern #{pattern}: {error}")
            }
            SimError::IllegalMapping { report } => {
                write!(
                    f,
                    "mapping is illegal ({} findings):\n{report}",
                    report.len()
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// End-to-end driver: compiles a pattern set for one machine, maps it, and
/// simulates it over an input stream.
#[derive(Clone, Debug)]
pub struct Simulator {
    /// The machine being modeled.
    pub machine: Machine,
    /// Compiler knobs (unfold threshold, BV depth, …).
    pub compiler: CompilerConfig,
    /// Mapper knobs (bin size, BVM geometry, …).
    pub mapper: MapperConfig,
    /// Attached observability context, if any. `None` (the default) keeps
    /// simulation on the probe-free fast path; attaching one only
    /// *observes* runs — cycles, energy, and matches are unchanged.
    pub telemetry: Option<Arc<Telemetry>>,
}

impl Simulator {
    /// Creates a simulator for `machine` with paper-default parameters.
    /// BVAP automatically gets its fixed BVM geometry and BV-width cap.
    pub fn new(machine: Machine) -> Simulator {
        let mut compiler = CompilerConfig::default();
        let mut mapper = MapperConfig::default();
        if machine == Machine::Bvap {
            let bvm = rap_mapper::plan::BvmConfig::default();
            mapper.bvm = Some(bvm);
            compiler.bv_bits_cap = Some(bvm.slot_bits * bvm.slots_per_tile);
        }
        Simulator {
            machine,
            compiler,
            mapper,
            telemetry: None,
        }
    }

    /// Attaches an observability context: subsequent simulations emit
    /// cycle-sampled probe events into its journal and accumulate run
    /// totals in its metrics registry.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Simulator {
        self.telemetry = Some(telemetry);
        self
    }

    /// Sets the BV depth (RAP's Fig. 10(a) knob).
    #[must_use]
    pub fn with_bv_depth(mut self, depth: u32) -> Simulator {
        self.compiler.bv_depth = depth;
        self
    }

    /// Sets the LNFA bin size (RAP's Fig. 10(b) knob).
    #[must_use]
    pub fn with_bin_size(mut self, bin: u32) -> Simulator {
        self.mapper.bin_size = bin;
        self
    }

    /// Compiles patterns according to the machine's native capabilities:
    /// RAP uses the full decision graph; BVAP supports NBVA and NFA (its
    /// LNFA-decided patterns run as NFAs); CA and CAMA unfold everything to
    /// basic NFAs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Compile`] for the first pattern that fails.
    pub fn compile(&self, regexes: &[Regex]) -> Result<Vec<Compiled>, SimError> {
        let patterns: Vec<rap_regex::Pattern> = regexes
            .iter()
            .map(|re| rap_regex::Pattern {
                regex: re.clone(),
                anchored_start: false,
                anchored_end: false,
            })
            .collect();
        self.compile_parsed(&patterns)
    }

    /// Like [`Simulator::compile`] but over parsed patterns, honouring
    /// their `^`/`$` anchors (anchored patterns skip LNFA mode; the flags
    /// travel in the NFA/NBVA image).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Compile`] for the first pattern that fails.
    pub fn compile_parsed(
        &self,
        patterns: &[rap_regex::Pattern],
    ) -> Result<Vec<Compiled>, SimError> {
        let compiler = Compiler::new(self.compiler);
        patterns
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let result = match self.machine {
                    Machine::Rap => compiler.compile_anchored(p),
                    Machine::Ca | Machine::Cama => compiler
                        .compile_with_mode(&p.regex, Mode::Nfa)
                        .map(|c| c.with_anchors(p.anchored_start, p.anchored_end)),
                    Machine::Bvap => {
                        let mode = match compiler.decide(&p.regex) {
                            Mode::Nbva => Mode::Nbva,
                            _ => Mode::Nfa,
                        };
                        compiler
                            .compile_with_mode(&p.regex, mode)
                            .map(|c| c.with_anchors(p.anchored_start, p.anchored_end))
                    }
                };
                result.map_err(|error| SimError::Compile { pattern: i, error })
            })
            .collect()
    }

    /// Compiles every pattern in a forced mode (used for the RAP-NFA
    /// columns of Tables 2 and 3).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Compile`] for the first pattern that fails.
    pub fn compile_forced(&self, regexes: &[Regex], mode: Mode) -> Result<Vec<Compiled>, SimError> {
        let compiler = Compiler::new(self.compiler);
        regexes
            .iter()
            .enumerate()
            .map(|(i, re)| {
                compiler
                    .compile_with_mode(re, mode)
                    .map_err(|error| SimError::Compile { pattern: i, error })
            })
            .collect()
    }

    /// Maps a compiled workload onto arrays.
    pub fn map(&self, compiled: &[Compiled]) -> Mapping {
        map_workload(compiled, &self.mapper)
    }

    /// Statically verifies a mapping against this simulator's target
    /// architecture (see [`rap_verify::verify`]).
    pub fn verify(&self, compiled: &[Compiled], mapping: &Mapping) -> rap_verify::Report {
        rap_verify::verify(compiled, mapping, &self.mapper.arch)
    }

    /// Verifies and maps in one step, refusing illegal plans.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::IllegalMapping`] when the produced plan fails
    /// the static legality checks.
    pub fn map_verified(&self, compiled: &[Compiled]) -> Result<Mapping, SimError> {
        let mapping = self.map(compiled);
        let report = self.verify(compiled, &mapping);
        if report.is_legal() {
            Ok(mapping)
        } else {
            Err(SimError::IllegalMapping { report })
        }
    }

    /// Simulates a mapped workload over `input`. The mapping must have
    /// passed the verify gate (see [`simulate`]). When telemetry is
    /// attached the run is traced under the machine's name as label.
    pub fn simulate(&self, compiled: &[Compiled], mapping: &Mapping, input: &[u8]) -> RunResult {
        let label = self.machine.to_string();
        let trace = self.telemetry.as_deref().map(|tel| (tel, label.as_str()));
        StreamState::new(compiled, mapping, self.machine, trace).run(compiled, mapping, input)
    }

    /// Streams `input` through the §3.3 bank buffer hierarchy (ping-pong
    /// input buffer, per-array FIFOs, output buffers with host
    /// interrupts), returning buffer statistics alongside the run result.
    /// The mapping must have passed the verify gate, exactly as for
    /// [`Simulator::simulate`]. When telemetry is attached the run is
    /// traced under the machine's name as label.
    pub fn simulate_streaming(
        &self,
        compiled: &[Compiled],
        mapping: &Mapping,
        input: &[u8],
    ) -> (RunResult, BankStats) {
        let label = self.machine.to_string();
        let trace = self.telemetry.as_deref().map(|tel| (tel, label.as_str()));
        bank::simulate_streaming(compiled, mapping, input, self.machine, trace)
    }

    /// Convenience: compile (native modes) + map + verify + simulate.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Compile`] when a pattern fails to compile and
    /// [`SimError::IllegalMapping`] when the plan fails verification.
    pub fn run(&self, regexes: &[Regex], input: &[u8]) -> Result<RunResult, SimError> {
        let compiled = self.compile(regexes)?;
        let mapping = self.map_verified(&compiled)?;
        Ok(self.simulate(&compiled, &mapping, input))
    }

    /// Convenience over pattern strings.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Compile`] on parse or compile failures and
    /// [`SimError::IllegalMapping`] when the plan fails verification.
    pub fn run_patterns(&self, patterns: &[String], input: &[u8]) -> Result<RunResult, SimError> {
        let parsed: Vec<rap_regex::Pattern> = patterns
            .iter()
            .enumerate()
            .map(|(i, p)| {
                rap_regex::parse_pattern(p).map_err(|e| SimError::Compile {
                    pattern: i,
                    error: CompileError::Parse(e),
                })
            })
            .collect::<Result<_, _>>()?;
        let compiled = self.compile_parsed(&parsed)?;
        let mapping = self.map_verified(&compiled)?;
        Ok(self.simulate(&compiled, &mapping, input))
    }
}

/// Simulates a mapped workload over an input stream on one machine: one
/// [`StreamState::step`] over the whole input plus
/// [`StreamState::finish`]. Tracing is the optional probe of
/// [`StreamState::new`].
///
/// The mapping must have passed the verify gate ([`Simulator::map_verified`]
/// or [`rap_verify::verify`]); debug builds assert this at the door.
pub fn simulate(
    compiled: &[Compiled],
    mapping: &Mapping,
    input: &[u8],
    machine: Machine,
) -> RunResult {
    StreamState::new(compiled, mapping, machine, None).run(compiled, mapping, input)
}

/// Records one finished run's totals into the telemetry registry, labeled
/// by machine. Shared by the batch and streaming paths.
pub(crate) fn record_run_metrics(telemetry: &Telemetry, result: &RunResult, powered: u64) {
    let machine = result.machine.to_string();
    let labels: [(&str, &str); 1] = [("machine", &machine)];
    let reg = telemetry.registry();
    reg.counter("rap_sim_runs_total", &labels).inc();
    reg.counter("rap_sim_input_bytes_total", &labels)
        .add(result.metrics.input_chars);
    reg.counter("rap_sim_cycles_total", &labels)
        .add(result.metrics.cycles);
    reg.counter("rap_sim_stall_cycles_total", &labels)
        .add(result.stall_cycles);
    reg.counter("rap_sim_powered_tile_cycles_total", &labels)
        .add(powered);
    reg.counter("rap_sim_matches_total", &labels)
        .add(result.metrics.matches);
}

/// Records one streaming run's buffer-hierarchy stats into the telemetry
/// registry, labeled by machine: output interrupts and backpressure as
/// counters, FIFO high-water marks as max-tracking gauges. This is the
/// Prometheus-visible face of [`BankStats`] for traced
/// [`simulate_streaming`] runs.
pub(crate) fn record_bank_stats(telemetry: &Telemetry, machine: Machine, stats: &BankStats) {
    let machine = machine.to_string();
    let labels: [(&str, &str); 1] = [("machine", &machine)];
    let reg = telemetry.registry();
    reg.counter("rap_sim_output_interrupts_total", &labels)
        .add(stats.output_interrupts);
    reg.counter("rap_sim_output_backpressure_total", &labels)
        .add(stats.output_backpressure);
    reg.gauge("rap_sim_input_fifo_hwm_bytes", &labels)
        .set_max(stats.max_input_fifo_bytes);
    reg.gauge("rap_sim_output_fifo_hwm_records", &labels)
        .set_max(stats.max_output_fifo_records);
    reg.gauge("rap_sim_bank_skew_hwm_bytes", &labels)
        .set_max(stats.max_skew as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_automata::nfa::Nfa;
    use rap_circuit::energy::Category;
    use rap_regex::parse;

    fn regexes(patterns: &[&str]) -> Vec<Regex> {
        patterns.iter().map(|p| parse(p).expect("parses")).collect()
    }

    /// Reference match set from the software NFA interpreter.
    fn reference(patterns: &[&str], input: &[u8]) -> Vec<MatchEvent> {
        let mut out = Vec::new();
        for (i, p) in patterns.iter().enumerate() {
            let nfa = Nfa::from_regex(&parse(p).expect("parses"));
            for end in nfa.match_ends(input) {
                out.push(MatchEvent { pattern: i, end });
            }
        }
        out.sort_unstable_by_key(|m| (m.end, m.pattern));
        out
    }

    /// Every machine must report exactly the ground-truth match set — the
    /// consistency check of §5.2.
    #[test]
    fn all_machines_agree_with_software_matcher() {
        let patterns = ["ab{12}c", "hello", "a[bc].d", "x.*yz", "n(o|p)q", "c{5,9}d"];
        let input = b"abbbbbbbbbbbbc hello axbcd xqqyz nopq npq ccccccd hello";
        let expect = reference(&patterns, input);
        for machine in Machine::all() {
            let sim = Simulator::new(machine);
            let result = sim
                .run(&regexes(&patterns), input)
                .unwrap_or_else(|e| panic!("{machine}: {e}"));
            assert_eq!(result.matches, expect, "machine {machine}");
        }
    }

    #[test]
    fn rap_nbva_stalls_reduce_throughput() {
        let sim = Simulator::new(Machine::Rap).with_bv_depth(8);
        // Repetition pattern on an input that keeps the BV active.
        let result = sim
            .run(&regexes(&["ab{40}c"]), &b"ab".repeat(200))
            .expect("runs");
        assert!(result.stall_cycles > 0, "expected BV-phase stalls");
        assert!(result.metrics.throughput_gchps() < 2.08);
    }

    #[test]
    fn nfa_mode_never_stalls() {
        let sim = Simulator::new(Machine::Cama);
        let result = sim
            .run(&regexes(&["ab{40}c", "xyz"]), &b"ab".repeat(200))
            .expect("runs");
        assert_eq!(result.stall_cycles, 0);
        assert!((result.metrics.throughput_gchps() - 2.14).abs() < 1e-6);
    }

    #[test]
    fn nbva_mode_uses_less_area_than_unfolded_nfa() {
        let patterns = regexes(&["ab{200}c", "pq{150}r"]);
        // Mostly-miss traffic with occasional prefix hits: the realistic
        // low-BV-activation regime the paper's benchmarks exhibit (a
        // pathological stream like "ababab…" would stall every other
        // cycle and burn leakage during the stalls instead).
        let input = b"the quick brown fox jumps over ab the lazy dog ".repeat(10);
        let rap = Simulator::new(Machine::Rap);
        let auto = rap.run(&patterns, &input).expect("auto runs");
        let compiled = rap.compile_forced(&patterns, Mode::Nfa).expect("compiles");
        let mapping = rap.map(&compiled);
        let forced = rap.simulate(&compiled, &mapping, &input);
        assert!(
            auto.metrics.area_mm2 < forced.metrics.area_mm2,
            "NBVA {} < NFA {}",
            auto.metrics.area_mm2,
            forced.metrics.area_mm2
        );
        assert!(auto.metrics.energy_uj < forced.metrics.energy_uj);
    }

    #[test]
    fn lnfa_mode_saves_energy_over_nfa_mode() {
        let patterns = regexes(&["abcdefgh", "ijklmnop", "qrstuvwx", "yz012345"]);
        let input: Vec<u8> = b"the quick brown fox jumps over the lazy dog ".repeat(20);
        let rap = Simulator::new(Machine::Rap);
        let auto = rap.run(&patterns, &input).expect("auto runs");
        let compiled = rap.compile_forced(&patterns, Mode::Nfa).expect("compiles");
        let mapping = rap.map(&compiled);
        let forced = rap.simulate(&compiled, &mapping, &input);
        assert!(
            auto.metrics.energy_uj < forced.metrics.energy_uj,
            "LNFA {} < NFA {}",
            auto.metrics.energy_uj,
            forced.metrics.energy_uj
        );
    }

    #[test]
    fn bvap_charges_bvm_area_even_without_bvs() {
        // A pure-literal workload: BVAP still pays for its add-on modules.
        let patterns = regexes(&["abcdef", "ghijkl"]);
        let input = b"abcdefghijkl".repeat(5);
        let bvap = Simulator::new(Machine::Bvap)
            .run(&patterns, &input)
            .expect("runs");
        let cama = Simulator::new(Machine::Cama)
            .run(&patterns, &input)
            .expect("runs");
        assert!(bvap.metrics.area_mm2 > cama.metrics.area_mm2);
    }

    #[test]
    fn empty_input_is_safe() {
        let sim = Simulator::new(Machine::Rap);
        let result = sim.run(&regexes(&["abc"]), b"").expect("runs");
        assert_eq!(result.metrics.cycles, 0);
        assert!(result.matches.is_empty());
        assert_eq!(result.metrics.throughput_gchps(), 0.0);
    }

    #[test]
    fn compile_error_reports_pattern_index() {
        let sim = Simulator::new(Machine::Rap);
        let err = sim
            .run_patterns(&["ok".to_string(), "(broken".to_string()], b"x")
            .expect_err("second pattern is malformed");
        match err {
            SimError::Compile { pattern, .. } => assert_eq!(pattern, 1),
            other @ SimError::IllegalMapping { .. } => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn energy_breakdown_has_expected_categories() {
        let sim = Simulator::new(Machine::Rap);
        let result = sim
            .run(
                &regexes(&["ab{30}c", "hello", "wxyz"]),
                &b"hello ab world".repeat(30),
            )
            .expect("runs");
        assert!(result.energy.category_pj(Category::StateMatch) > 0.0);
        assert!(result.energy.category_pj(Category::Leakage) > 0.0);
        assert!(result.energy.category_pj(Category::Controller) > 0.0);
    }
}
