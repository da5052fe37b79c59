//! The resumable simulator: one persisted machine configuration per run.
//!
//! A [`StreamState`] owns everything a run accumulates: each array's run
//! configuration (activation bitmaps, bit-vector columns, chain
//! registers), per-array clocks and power counters, the energy meter and
//! the stream offset. [`StreamState::step`] advances it over one chunk
//! against the borrowed images and mapping; [`StreamState::finish`] ends
//! the stream. Because the configuration persists, any chunking reports
//! exactly the matches, cycles and stall cycles of one step over the whole
//! stream (energy agrees up to floating-point summation order). A batch
//! run ([`crate::simulate`]) is one step plus finish.

use crate::array::{build_array, ArraySim, Automata};
use crate::cost::CostModel;
use crate::result::{MatchEvent, RunResult};
use rap_circuit::energy::Category;
use rap_circuit::{EnergyMeter, Machine, Metrics};
use rap_compiler::Compiled;
use rap_mapper::Mapping;
use rap_telemetry::{ProbeEvent, SimProbe, Telemetry};

/// One array's machine plus its private clock.
struct Lane {
    array: Box<dyn ArraySim>,
    /// Cycles run, stalls included.
    cycles: u64,
    /// Match reports produced (before deduplication).
    produced: u64,
}

impl Lane {
    /// Runs the array over `chunk`, whose first byte sits at global
    /// `offset`, running each bit-vector phase out before the next byte.
    /// A probe (`(probe, array index)`) samples the array every
    /// [`SimProbe::sample_every`] cycles.
    fn run(
        &mut self,
        automata: &Automata<'_>,
        chunk: &[u8],
        offset: usize,
        meter: &mut EnergyMeter,
        out: &mut Vec<MatchEvent>,
        mut probe: Option<(&mut SimProbe, u32)>,
    ) {
        let before = out.len();
        for (i, &byte) in chunk.iter().enumerate() {
            let mut byte = Some(byte);
            loop {
                if let Some((probe, index)) = probe.as_mut() {
                    if self.cycles.is_multiple_of(u64::from(probe.sample_every())) {
                        probe.push(self.array.sample(self.cycles, *index));
                    }
                }
                self.array
                    .tick(automata, byte.take(), offset + i, meter, out);
                self.cycles += 1;
                if !self.array.stalled() {
                    break;
                }
            }
        }
        self.produced += (out.len() - before) as u64;
    }
}

/// A resumable simulation of one mapped workload on one machine.
///
/// It borrows nothing: every call passes the images and verified mapping
/// it was created from. An optional trace (`(telemetry, label)`) journals
/// cycle-sampled probe events and, at finish, records the run totals.
/// Tracing only observes.
pub struct StreamState<'t> {
    cost: CostModel,
    area_mm2: f64,
    lanes: Vec<Lane>,
    meter: EnergyMeter,
    /// Bytes consumed so far.
    offset: usize,
    /// `$`-anchored matches ending at `offset`, valid only if the stream
    /// ends there.
    held: Vec<MatchEvent>,
    /// Matches returned so far.
    emitted: u64,
    trace: Option<(&'t Telemetry, SimProbe)>,
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
        crate::debug_assert_verified(compiled, mapping);
        let cost = CostModel::for_machine(machine);
        let lanes = mapping.arrays.iter().map(|plan| Lane {
            array: build_array(compiled, plan, &cost),
            cycles: 0,
            produced: 0,
        });
        StreamState {
            area_mm2: cost.area_mm2(mapping),
            lanes: lanes.collect(),
            cost,
            meter: EnergyMeter::new(),
            offset: 0,
            held: Vec::new(),
            emitted: 0,
            trace: trace.map(|(tel, label)| (tel, tel.probe(label))),
        }
    }

    /// Advances every array over `chunk`, the stream's next bytes.
    ///
    /// Arrays run in parallel on the same stream and an NBVA array stalls
    /// independently in bit-vector-processing phases; the two-level
    /// buffering of §3.3 decouples the arrays, so the bank finishes with
    /// its slowest array. A phase runs out right after the byte that
    /// triggers it, as the hardware does, so no stall is left pending
    /// between steps. Energy is charged array by array, byte by byte.
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
        for (index, (lane, plan)) in self.lanes.iter_mut().zip(&mapping.arrays).enumerate() {
            let probe = self.trace.as_mut().map(|(_, p)| (p, index as u32));
            let automata = Automata::of(compiled, plan);
            let (meter, offset) = (&mut self.meter, self.offset);
            lane.run(&automata, chunk, offset, meter, &mut events, probe);
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
    /// step ended at the true end of stream), charges static leakage and
    /// returns the run's totals. `matches` holds only the released
    /// matches; `metrics.matches` counts every match the stream returned.
    pub fn finish(mut self) -> RunResult {
        let input = self.offset as u64;
        let cycles = self.lanes.iter().map(|l| l.cycles).fold(input, u64::max);
        let stall_cycles = self.lanes.iter().map(|l| l.cycles - input).sum();
        let powered = self.lanes.iter().map(|l| l.array.powered_tile_cycles());
        let powered: u64 = powered.sum();
        let leakage = self.cost.leakage_pj(self.lanes.len(), cycles, powered);
        self.meter.charge(Category::Leakage, leakage);
        let matches = std::mem::take(&mut self.held);
        self.emitted += matches.len() as u64;
        let result = RunResult {
            machine: self.cost.machine,
            metrics: Metrics {
                input_chars: input,
                cycles,
                clock_hz: self.cost.clock_hz,
                energy_uj: self.meter.total_uj(),
                area_mm2: self.area_mm2,
                matches: self.emitted,
            },
            energy: self.meter,
            matches,
            stall_cycles,
        };
        if let Some((telemetry, mut probe)) = self.trace {
            for (index, lane) in self.lanes.iter().enumerate() {
                probe.push(ProbeEvent::ArrayEnd {
                    array: index as u32,
                    cycles: lane.cycles,
                    stall_cycles: lane.cycles - input,
                    powered_tile_cycles: lane.array.powered_tile_cycles(),
                    matches: lane.produced,
                });
            }
            probe.push(ProbeEvent::RunEnd {
                input_bytes: input,
                cycles,
                stall_cycles,
                powered_tile_cycles: powered,
                matches: result.metrics.matches,
            });
            probe.finish();
            crate::record_run_metrics(telemetry, &result, powered);
        }
        result
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
