//! The resumable simulator: one persisted machine configuration per run.
//!
//! A [`StreamState`] owns everything a run accumulates: each array's run
//! configuration (activation bitmaps, bit-vector columns, chain
//! registers), per-array clocks and activity counters, and the stream
//! offset. [`StreamState::step`] advances it over one chunk against the
//! borrowed images and mapping; [`StreamState::finish`] ends the stream.
//! Because the configuration persists and energy is priced once from
//! integer counters at the end, any chunking reports exactly the matches,
//! cycles, stall cycles and energy of one step over the whole stream. A
//! batch run ([`crate::simulate`]) is one step plus finish.
//!
//! [`Run`] is what this stepper and the bank model ([`crate::bank`])
//! share: the arrays' lanes, the cost model and the optional trace, and
//! the one finish that prices a run and reports it.

use crate::array::{build_array, Activity, ArraySim, Automata};
use crate::cost::CostModel;
use crate::result::{MatchEvent, RunResult};
use rap_circuit::{Machine, Metrics};
use rap_compiler::Compiled;
use rap_mapper::Mapping;
use rap_telemetry::{ProbeEvent, SimProbe, Telemetry};

/// One array's machine plus its private clock.
pub(crate) struct Lane {
    pub(crate) array: Box<dyn ArraySim>,
    /// Busy cycles: one per consumed byte plus one per stall cycle.
    pub(crate) cycles: u64,
    /// Match reports produced (before deduplication).
    pub(crate) produced: u64,
}

impl Lane {
    /// Advances the array one cycle (see [`ArraySim::tick`]), appending
    /// its matches to `out`.
    pub(crate) fn tick(
        &mut self,
        automata: &Automata<'_>,
        byte: Option<u8>,
        offset: usize,
        out: &mut Vec<MatchEvent>,
    ) {
        let before = out.len();
        self.array.tick(automata, byte, offset, out);
        self.cycles += 1;
        self.produced += (out.len() - before) as u64;
    }

    /// Runs the array over `chunk`, whose first byte sits at global
    /// `offset`, running each bit-vector phase out before the next byte.
    /// A probe (`(probe, array index)`) samples the array every
    /// [`SimProbe::sample_every`] cycles.
    fn run(
        &mut self,
        automata: &Automata<'_>,
        chunk: &[u8],
        offset: usize,
        out: &mut Vec<MatchEvent>,
        mut probe: Option<(&mut SimProbe, u32)>,
    ) {
        for (i, &byte) in chunk.iter().enumerate() {
            let mut byte = Some(byte);
            loop {
                if let Some((probe, index)) = probe.as_mut() {
                    if self.cycles.is_multiple_of(u64::from(probe.sample_every())) {
                        probe.push(self.array.sample(self.cycles, *index));
                    }
                }
                self.tick(automata, byte.take(), offset + i, out);
                if !self.array.stalled() {
                    break;
                }
            }
        }
    }
}

/// One run of a mapped workload on one machine, as the stepper and the
/// bank model both hold it: a lane per array, the machine's cost model
/// and an optional trace (`(telemetry, probe)`). Tracing only observes.
pub(crate) struct Run<'t> {
    cost: CostModel,
    area_mm2: f64,
    pub(crate) lanes: Vec<Lane>,
    pub(crate) trace: Option<(&'t Telemetry, SimProbe)>,
}

impl<'t> Run<'t> {
    /// The run of `mapping` on `machine` before any input byte, traced
    /// under `label` if `trace` is `(telemetry, label)`. The mapping must
    /// have passed the verify gate; debug builds assert this at the door.
    pub(crate) fn new(
        compiled: &[Compiled],
        mapping: &Mapping,
        machine: Machine,
        trace: Option<(&'t Telemetry, &str)>,
    ) -> Run<'t> {
        // The checked `Simulator` entry points enforce the verify gate in
        // release builds too.
        if cfg!(debug_assertions) {
            let report = rap_verify::verify(compiled, mapping, &mapping.config.arch);
            assert!(
                report.is_legal(),
                "illegal mapping reached the simulator:\n{report}"
            );
        }
        let cost = CostModel::for_machine(machine);
        let lanes = mapping.arrays.iter().map(|plan| Lane {
            array: build_array(plan, &Automata::of(compiled, plan), &cost),
            cycles: 0,
            produced: 0,
        });
        Run {
            area_mm2: cost.area_mm2(mapping),
            lanes: lanes.collect(),
            cost,
            trace: trace.map(|(tel, label)| (tel, tel.probe(label))),
        }
    }

    /// Ends the run. Every lane has consumed all `input` bytes; the run
    /// took `cycles` of wall clock and wrote `bank_reports` reports into
    /// the bank output buffer. `matches` are those released at the end,
    /// after `earlier` returned before it.
    ///
    /// Prices the lanes' summed activity (leakage included), then, when
    /// traced, emits each array's `ArrayEnd` and the `RunEnd` probe event
    /// and records the run's totals.
    pub(crate) fn finish(
        self,
        input: u64,
        cycles: u64,
        bank_reports: u64,
        matches: Vec<MatchEvent>,
        earlier: u64,
    ) -> RunResult {
        let mut activity = Activity::default();
        for lane in &self.lanes {
            activity += *lane.array.activity();
        }
        let lane_cycles: u64 = self.lanes.iter().map(|l| l.cycles).sum();
        let bytes = input * self.lanes.len() as u64;
        let energy = self.cost.energy(
            &activity,
            lane_cycles,
            bytes,
            bank_reports,
            self.lanes.len(),
            cycles,
        );
        let result = RunResult {
            machine: self.cost.machine,
            metrics: Metrics {
                input_chars: input,
                cycles,
                clock_hz: self.cost.clock_hz,
                energy_uj: energy.total_uj(),
                area_mm2: self.area_mm2,
                matches: earlier + matches.len() as u64,
            },
            energy,
            matches,
            stall_cycles: lane_cycles - bytes,
        };
        if let Some((telemetry, mut probe)) = self.trace {
            for (index, lane) in self.lanes.iter().enumerate() {
                probe.push(ProbeEvent::ArrayEnd {
                    array: index as u32,
                    cycles: lane.cycles,
                    stall_cycles: lane.cycles - input,
                    powered_tile_cycles: lane.array.activity().powered_tile_cycles,
                    matches: lane.produced,
                });
            }
            probe.push(ProbeEvent::RunEnd {
                input_bytes: input,
                cycles,
                stall_cycles: result.stall_cycles,
                powered_tile_cycles: activity.powered_tile_cycles,
                matches: result.metrics.matches,
            });
            probe.finish();
            crate::record_run_metrics(telemetry, &result, activity.powered_tile_cycles);
        }
        result
    }
}

/// A resumable simulation of one mapped workload on one machine.
///
/// It borrows nothing: every call passes the images and verified mapping
/// it was created from. An optional trace (`(telemetry, label)`) journals
/// cycle-sampled probe events and, at finish, records the run totals.
/// Tracing only observes.
pub struct StreamState<'t> {
    run: Run<'t>,
    /// Bytes consumed so far.
    offset: usize,
    /// `$`-anchored matches ending at `offset`, valid only if the stream
    /// ends there.
    held: Vec<MatchEvent>,
    /// Matches returned so far.
    emitted: u64,
}

impl<'t> StreamState<'t> {
    /// The state of `mapping` on `machine` before any input byte. The
    /// mapping must have passed the verify gate
    /// ([`crate::Simulator::map_verified`] or [`rap_verify::verify`]);
    /// debug builds assert this at the door.
    pub fn new(
        compiled: &[Compiled],
        mapping: &Mapping,
        machine: Machine,
        trace: Option<(&'t Telemetry, &str)>,
    ) -> StreamState<'t> {
        StreamState {
            run: Run::new(compiled, mapping, machine, trace),
            offset: 0,
            held: Vec::new(),
            emitted: 0,
        }
    }

    /// Advances every array over `chunk`, the stream's next bytes.
    ///
    /// Arrays run in parallel on the same stream and an NBVA array stalls
    /// independently in bit-vector-processing phases; the two-level
    /// buffering of §3.3 decouples the arrays, so the bank finishes with
    /// its slowest array. A phase runs out right after the byte that
    /// triggers it, as the hardware does, so no stall is left pending
    /// between steps. Each array counts its micro-operations as it goes;
    /// [`StreamState::finish`] prices them.
    ///
    /// Returns the matches ending in the chunk, with global offsets,
    /// sorted by `(end, pattern)` and deduplicated (a pattern split into
    /// several LNFA chains may report one end twice). `$`-anchored
    /// matches ending at the chunk's end wait for [`StreamState::finish`];
    /// further bytes invalidate them.
    pub fn step(
        &mut self,
        compiled: &[Compiled],
        mapping: &Mapping,
        chunk: &[u8],
    ) -> Vec<MatchEvent> {
        let mut events = Vec::new();
        let run = &mut self.run;
        for (index, (lane, plan)) in run.lanes.iter_mut().zip(&mapping.arrays).enumerate() {
            let probe = run.trace.as_mut().map(|(_, p)| (p, index as u32));
            let automata = Automata::of(compiled, plan);
            lane.run(&automata, chunk, self.offset, &mut events, probe);
        }
        self.offset += chunk.len();
        events.sort_unstable_by_key(|m| (m.end, m.pattern));
        events.dedup();
        if !chunk.is_empty() {
            self.held.clear();
        }
        let (end, held) = (self.offset, &mut self.held);
        events.retain(|m| {
            let anchored = compiled[m.pattern].anchored_end();
            if anchored && m.end == end {
                held.push(*m);
            }
            !anchored
        });
        self.emitted += events.len() as u64;
        events
    }

    /// Ends the stream: releases the held `$`-anchored matches (the last
    /// step ended at the true end of stream), prices the run and returns
    /// its totals. `matches` holds only the released matches;
    /// `metrics.matches` counts every match the stream returned.
    pub fn finish(mut self) -> RunResult {
        let input = self.offset as u64;
        let cycles = self
            .run
            .lanes
            .iter()
            .map(|l| l.cycles)
            .fold(input, u64::max);
        let matches = std::mem::take(&mut self.held);
        self.run.finish(input, cycles, 0, matches, self.emitted)
    }

    /// A batch run: one step over `input`, then finish. The result holds
    /// every match, sorted by `(end, pattern)`.
    pub fn run(mut self, compiled: &[Compiled], mapping: &Mapping, input: &[u8]) -> RunResult {
        let mut matches = self.step(compiled, mapping, input);
        let mut result = self.finish();
        if !result.matches.is_empty() {
            matches.append(&mut result.matches);
            matches.sort_unstable_by_key(|m| (m.end, m.pattern));
        }
        result.matches = matches;
        result
    }
}
