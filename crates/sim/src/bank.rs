//! Bank-level streaming simulation: the two-level buffer hierarchy of
//! §3.3, cycle-interleaved across arrays.
//!
//! The resumable [`crate::StreamState`] (and so the batch
//! [`crate::simulate`]) advances each array over a chunk independently
//! (correct for completion time, since arrays are decoupled and the bank
//! finishes with its slowest array). This module is the §3.3 buffer
//! study: it simulates the hierarchy explicitly, cycle by cycle, with the
//! geometry of the mapping's [`ArchConfig`](rap_arch::config::ArchConfig):
//!
//! * a **bank input ping-pong buffer** (2 × 128 entries by default) fed by DMA — an
//!   array can only read bytes inside the bank window, and a page is
//!   recycled only once *every* array has consumed it, so a stalling NBVA
//!   array eventually back-pressures the fast arrays;
//! * per-array **8-entry input FIFOs** refilled by the polling arbiter
//!   (one byte per array per cycle) that hide short bit-vector phases;
//! * per-array **2-entry output FIFOs** draining into the **64-entry bank
//!   output buffer**; when it fills, an interrupt asks the host CPU to
//!   collect the reports (§3.3).
//!
//! The result carries the same [`RunResult`] as the batch path (byte-
//! identical matches) plus [`BankStats`] — stalls, starvation, buffer
//! occupancy, interrupts — for studying the buffering itself.

use crate::array::Automata;
use crate::result::{MatchEvent, RunResult};
use crate::stream::{Lane, Run};
use rap_arch::buffers::Fifo;
use rap_circuit::Machine;
use rap_compiler::Compiled;
use rap_mapper::Mapping;
use rap_telemetry::{ProbeEvent, Telemetry};

/// Buffer-hierarchy statistics from one streaming run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Cycles each array spent in bit-vector-processing stalls.
    pub stall_cycles: Vec<u64>,
    /// Cycles each array spent starved (input FIFO empty because the bank
    /// window was held back by a slower array or the stream ended).
    pub starved_cycles: Vec<u64>,
    /// Largest observed skew in consumed bytes between the fastest and
    /// slowest array.
    pub max_skew: usize,
    /// Host interrupts raised by a full bank output buffer.
    pub output_interrupts: u64,
    /// Match reports that waited in a full array output FIFO (backpressure
    /// events; the report is delayed, never lost).
    pub output_backpressure: u64,
    /// High-water mark of bytes resident across all array input FIFOs in
    /// any one cycle.
    pub max_input_fifo_bytes: u64,
    /// High-water mark of match records resident across array output
    /// FIFOs plus the bank output buffer in any one cycle.
    pub max_output_fifo_records: u64,
}

/// One lane's ports into the buffer hierarchy.
struct Port<'a> {
    automata: Automata<'a>,
    input_fifo: Fifo<(usize, u8)>,
    output_fifo: Fifo<MatchEvent>,
    /// Next input byte index the arbiter will fetch for this lane.
    fetch_pos: usize,
    /// Bytes consumed by the array so far.
    consumed: usize,
    starved_cycles: u64,
    /// Matches produced this cycle, en route to the output FIFO.
    pending: Vec<MatchEvent>,
}

/// Bytes resident across the array input FIFOs, and match records across
/// the array output FIFOs plus the bank output buffer.
fn occupancy(ports: &[Port<'_>], bank_output: &Fifo<MatchEvent>) -> (u64, u64) {
    let bytes = ports.iter().map(|p| p.input_fifo.len() as u64).sum();
    let records = ports
        .iter()
        .map(|p| p.output_fifo.len() as u64)
        .sum::<u64>();
    (bytes, records + bank_output.len() as u64)
}

/// Streams `input` through the bank buffer hierarchy of the mapping's
/// architecture (`mapping.config.arch`, the geometry the plan was bounded
/// and admitted under).
///
/// The mapping must have passed the verify gate, exactly as for the batch
/// [`crate::simulate`] entry point; debug builds assert this at the door.
/// With a trace (`(telemetry, label)`), cycle-sampled probe events (per-lane
/// array samples plus bank window/FIFO occupancy), run totals and buffer
/// stats are recorded into `telemetry`. Tracing only observes.
///
/// Matches are byte-identical to [`crate::simulate`]; cycle counts include
/// the buffering effects (they are ≥ the batch path's for the same
/// workload).
pub fn simulate_streaming(
    compiled: &[Compiled],
    mapping: &Mapping,
    input: &[u8],
    machine: Machine,
    telemetry: Option<(&Telemetry, &str)>,
) -> (RunResult, BankStats) {
    let mut run = Run::new(compiled, mapping, machine, telemetry);
    let arch = mapping.config.arch;
    let mut ports: Vec<Port<'_>> = mapping
        .arrays
        .iter()
        .map(|plan| Port {
            automata: Automata::of(compiled, plan),
            input_fifo: Fifo::new(arch.array_input_entries as usize),
            output_fifo: Fifo::new(arch.array_output_entries as usize),
            fetch_pos: 0,
            consumed: 0,
            starved_cycles: 0,
            pending: Vec::new(),
        })
        .collect();
    let window = 2 * arch.bank_input_entries as usize; // ping-pong pages
    let mut bank_output: Fifo<MatchEvent> = Fifo::new(arch.bank_output_entries as usize);
    let mut collected: Vec<MatchEvent> = Vec::new();
    let mut cycles: u64 = 0;
    let mut interrupts: u64 = 0;
    let mut backpressure: u64 = 0;
    let mut bank_reports: u64 = 0;
    let mut max_skew = 0usize;
    let mut max_input_fifo_bytes = 0u64;
    let mut max_output_fifo_records = 0u64;

    let done = |lanes: &[Lane], ports: &[Port<'_>]| {
        (lanes.iter().zip(ports)).all(|(l, p)| p.consumed == input.len() && !l.array.stalled())
    };

    while !ports.is_empty() && !done(&run.lanes, &ports) {
        cycles += 1;
        // The bank window: DMA cannot recycle a page until every array has
        // drained it, so the slowest lane bounds everyone's fetch range.
        let min_consumed = ports.iter().map(|p| p.consumed).min().unwrap_or(0);
        let max_consumed = ports.iter().map(|p| p.consumed).max().unwrap_or(0);
        max_skew = max_skew.max(max_consumed - min_consumed);
        let fetch_limit = (min_consumed + window).min(input.len());

        if let Some((_, probe)) = run.trace.as_mut() {
            if (cycles - 1).is_multiple_of(u64::from(probe.sample_every())) {
                let (input_fifo_bytes, output_fifo_records) = occupancy(&ports, &bank_output);
                probe.push(ProbeEvent::Bank {
                    cycle: cycles - 1,
                    min_consumed: min_consumed as u64,
                    max_consumed: max_consumed as u64,
                    input_fifo_bytes,
                    output_fifo_records,
                    interrupts,
                });
                for (index, lane) in run.lanes.iter().enumerate() {
                    probe.push(lane.array.sample(cycles - 1, index as u32));
                }
            }
        }

        for (lane, port) in run.lanes.iter_mut().zip(&mut ports) {
            // Polling arbiter: one byte per lane per cycle into its FIFO.
            if !port.input_fifo.is_full() && port.fetch_pos < fetch_limit {
                port.input_fifo
                    .push((port.fetch_pos, input[port.fetch_pos]))
                    .unwrap_or_else(|_| unreachable!("checked not full"));
                port.fetch_pos += 1;
            }
            // Array cycle.
            if lane.array.stalled() {
                lane.tick(&port.automata, None, port.consumed, &mut port.pending);
            } else if let Some(&(offset, byte)) = port.input_fifo.front() {
                port.input_fifo.pop();
                lane.tick(&port.automata, Some(byte), offset, &mut port.pending);
                port.consumed = offset + 1;
            } else if port.consumed < input.len() {
                port.starved_cycles += 1;
            }
            // Reports: pending → array output FIFO (2-deep).
            while let Some(&event) = port.pending.first() {
                match port.output_fifo.push(event) {
                    Ok(()) => {
                        port.pending.remove(0);
                    }
                    Err(_) => {
                        backpressure += 1;
                        break;
                    }
                }
            }
        }
        // Bus: one report per lane per cycle into the bank output buffer.
        for port in &mut ports {
            if let Some(event) = port.output_fifo.pop() {
                if bank_output.is_full() {
                    // Interrupt: the host drains the whole buffer (§3.3).
                    interrupts += 1;
                    while let Some(e) = bank_output.pop() {
                        collected.push(e);
                    }
                }
                bank_output
                    .push(event)
                    .unwrap_or_else(|_| unreachable!("just drained"));
                bank_reports += 1;
            }
        }
        // FIFO high-water marks, tracked every cycle.
        let (input_fifo_bytes, output_fifo_records) = occupancy(&ports, &bank_output);
        max_input_fifo_bytes = max_input_fifo_bytes.max(input_fifo_bytes);
        max_output_fifo_records = max_output_fifo_records.max(output_fifo_records);
    }
    // Final drain.
    for port in &mut ports {
        collected.append(&mut port.pending);
        while let Some(e) = port.output_fifo.pop() {
            collected.push(e);
        }
    }
    while let Some(e) = bank_output.pop() {
        collected.push(e);
    }
    collected.sort_unstable_by_key(|m| (m.end, m.pattern));
    collected.dedup();
    // `$`-anchored patterns report only at the stream's end.
    collected.retain(|m| !compiled[m.pattern].anchored_end() || m.end == input.len());

    let stats = BankStats {
        stall_cycles: (run.lanes.iter().zip(&ports))
            .map(|(l, p)| l.cycles - p.consumed as u64)
            .collect(),
        starved_cycles: ports.iter().map(|p| p.starved_cycles).collect(),
        max_skew,
        output_interrupts: interrupts,
        output_backpressure: backpressure,
        max_input_fifo_bytes,
        max_output_fifo_records,
    };
    let result = run.finish(input.len() as u64, cycles, bank_reports, collected, 0);
    if let Some((tel, _)) = telemetry {
        crate::record_bank_stats(tel, machine, &stats);
    }
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use rap_regex::Regex;

    fn regexes(patterns: &[&str]) -> Vec<Regex> {
        patterns
            .iter()
            .map(|p| rap_regex::parse(p).expect("parses"))
            .collect()
    }

    fn run_both(
        patterns: &[&str],
        input: &[u8],
        machine: Machine,
    ) -> (RunResult, RunResult, BankStats) {
        let sim = Simulator::new(machine);
        let res = regexes(patterns);
        let compiled = sim.compile(&res).expect("compiles");
        let mapping = sim.map(&compiled);
        let batch = sim.simulate(&compiled, &mapping, input);
        let (streaming, stats) = simulate_streaming(&compiled, &mapping, input, machine, None);
        (batch, streaming, stats)
    }

    #[test]
    fn streaming_matches_equal_batch_matches() {
        let patterns = ["ab{10,30}c", "hello", "x.*yz", "m{8}"];
        let input = b"hello abbbbbbbbbbbc xqqyz mmmmmmmm hello".repeat(10);
        for machine in Machine::all() {
            let (batch, streaming, _) = run_both(&patterns, &input, machine);
            assert_eq!(streaming.matches, batch.matches, "{machine}");
        }
    }

    #[test]
    fn streaming_cycles_cover_batch_cycles() {
        let patterns = ["ab{10,30}c", "hello"];
        let input = b"ab hello abbbbbbbbbbbc ".repeat(20);
        let (batch, streaming, _) = run_both(&patterns, &input, Machine::Rap);
        assert!(
            streaming.metrics.cycles >= batch.metrics.cycles,
            "streaming {} < batch {}",
            streaming.metrics.cycles,
            batch.metrics.cycles
        );
    }

    #[test]
    fn fifos_hide_short_stalls() {
        // A lightly-stalling NBVA workload: the 8-entry FIFO absorbs the
        // skew, so the LNFA array never starves more than briefly.
        let patterns = ["ab{8,16}c", "hello world"];
        let input = b"hello world abbbbbbbbbc xxxxxxxxxxxxxxxxxxxxxxx".repeat(20);
        let (_, streaming, stats) = run_both(&patterns, &input, Machine::Rap);
        assert_eq!(stats.stall_cycles.len(), 2);
        assert!(
            stats.max_skew <= 2 * 128,
            "skew {} exceeds the window",
            stats.max_skew
        );
        assert!(streaming.metrics.cycles >= input.len() as u64);
    }

    #[test]
    fn heavy_stalling_backpressures_fast_arrays() {
        // An NBVA array stalling on nearly every byte drags the bank
        // window, so the LNFA lane shows starvation.
        let patterns = ["ab{30,90}c", "zzz"];
        let input = b"ab".repeat(2_000);
        let (_, _, stats) = run_both(&patterns, &input, Machine::Rap);
        let total_starved: u64 = stats.starved_cycles.iter().sum();
        assert!(
            total_starved > 0,
            "expected starvation from window coupling"
        );
    }

    #[test]
    fn output_interrupts_fire_on_match_floods() {
        // Every byte matches: the 64-entry output buffer must overflow into
        // host interrupts.
        let patterns = ["[ab]"];
        let input = b"ab".repeat(500);
        let (_, streaming, stats) = run_both(&patterns, &input, Machine::Rap);
        assert_eq!(streaming.matches.len(), 1000);
        assert!(
            stats.output_interrupts > 0,
            "expected interrupts: {stats:?}"
        );
    }

    #[test]
    fn empty_workload_is_safe() {
        let sim = Simulator::new(Machine::Rap);
        let compiled = sim.compile(&[]).expect("compiles");
        let mapping = sim.map(&compiled);
        let (r, stats) = simulate_streaming(&compiled, &mapping, b"abc", Machine::Rap, None);
        assert_eq!(r.metrics.cycles, 0);
        assert!(r.matches.is_empty());
        assert_eq!(stats.max_skew, 0);
    }
}
