//! Per-array cycle simulation, one steppable machine per tile mode.
//!
//! Each array advances one clock cycle per [`ArraySim::tick`] call:
//! NFA/LNFA arrays consume one input byte every cycle, while an NBVA array
//! that entered the bit-vector-processing phase spends the following
//! `depth` cycles stalled (reporting [`ArraySim::stalled`]) before it
//! accepts the next byte. Energy is charged per micro-operation against
//! the circuit models; activity factors (active states per tile,
//! cross-tile signals) come from the configuration *entering* each cycle,
//! which is what toggles the switch fabric during that cycle's state
//! transition.
//!
//! A machine is plain owned data (run configurations, stall counter,
//! power counters), so it persists between input chunks; each tick
//! borrows the array's [`Automata`]. The resumable [`crate::StreamState`]
//! drives one machine per array over each chunk; the bank-level
//! streaming simulation in [`crate::bank`] interleaves several machines
//! cycle by cycle through the §3.3 buffer hierarchy.

use crate::cost::CostModel;
use crate::result::MatchEvent;
use rap_automata::lnfa::{Lnfa, ShiftAndRun};
use rap_automata::nbva::{Nbva, NbvaRun};
use rap_automata::nfa::{Nfa, NfaRun};
use rap_circuit::energy::Category;
use rap_circuit::{EnergyMeter, Machine};
use rap_compiler::{Compiled, CompiledLnfa, CompiledNbva, CompiledNfa, MatchPath};
use rap_mapper::{ArrayKind, ArrayPlan, Bin, Placement};
use rap_telemetry::ProbeEvent;

/// A point-in-time activity sample of one array, as seen by a telemetry
/// probe (see [`ArraySim::observe`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ArrayObservation {
    /// Automaton states currently active across the array's machines.
    pub active_states: u64,
    /// Tiles that will draw power on the next cycle (gated tiles excluded).
    pub powered_tiles: u64,
}

/// The automata one array steps against, in placement (or chain) order.
pub(crate) enum Automata<'a> {
    Nfa(Vec<&'a Nfa>),
    Nbva(Vec<&'a Nbva>),
    Lnfa(Vec<&'a Lnfa>),
}

impl<'a> Automata<'a> {
    /// Resolves the automata `plan` places from the compiled images.
    pub(crate) fn of(compiled: &'a [Compiled], plan: &ArrayPlan) -> Automata<'a> {
        match &plan.kind {
            ArrayKind::Nfa { placements } => Automata::Nfa(
                placements
                    .iter()
                    .map(|p| &expect_nfa(compiled, p.pattern).nfa)
                    .collect(),
            ),
            ArrayKind::Nbva { placements, .. } => Automata::Nbva(
                placements
                    .iter()
                    .map(|p| &expect_nbva(compiled, p.pattern).nbva)
                    .collect(),
            ),
            ArrayKind::Lnfa { bins } => Automata::Lnfa(
                bins.iter()
                    .flat_map(|bin| &bin.members)
                    .map(|m| &expect_lnfa(compiled, m.pattern).units[m.unit].lnfa)
                    .collect(),
            ),
        }
    }
}

/// A cycle-steppable array.
pub(crate) trait ArraySim: Send {
    /// Whether the next cycle is a stall cycle (the array will not accept
    /// an input byte).
    fn stalled(&self) -> bool;

    /// Advances one clock cycle against `automata` (this array's, from
    /// [`Automata::of`]). When not stalled, `byte` must be the next input
    /// symbol and `offset` its 0-based position; matches ending this cycle
    /// are appended to `out`. When stalled, `byte` is ignored.
    fn tick(
        &mut self,
        automata: &Automata<'_>,
        byte: Option<u8>,
        offset: usize,
        meter: &mut EnergyMeter,
        out: &mut Vec<MatchEvent>,
    );

    /// Tile-cycles powered so far.
    fn powered_tile_cycles(&self) -> u64;

    /// Samples the array's current activity for a telemetry probe. Pure
    /// observation: never charges energy or mutates state.
    fn observe(&self) -> ArrayObservation;

    /// The probe event sampling this array, as array `index`, at `cycle`.
    fn sample(&self, cycle: u64, index: u32) -> ProbeEvent {
        let obs = self.observe();
        ProbeEvent::Array {
            cycle,
            array: index,
            active_states: obs.active_states,
            powered_tiles: obs.powered_tiles,
            stalled: self.stalled(),
        }
    }
}

/// Builds the fresh steppable machine for an array plan.
pub(crate) fn build_array(
    compiled: &[Compiled],
    plan: &ArrayPlan,
    cost: &CostModel,
) -> Box<dyn ArraySim> {
    match &plan.kind {
        ArrayKind::Nfa { placements } => Box::new(NfaArray::new(compiled, placements, plan, *cost)),
        ArrayKind::Nbva { depth, placements } => {
            Box::new(NbvaArray::new(compiled, placements, plan, *depth, *cost))
        }
        ArrayKind::Lnfa { bins } => Box::new(LnfaArray::new(compiled, bins, plan, *cost)),
    }
}

fn expect_nfa(compiled: &[Compiled], pattern: usize) -> &CompiledNfa {
    match &compiled[pattern] {
        Compiled::Nfa(img) => img,
        other => panic!(
            "array plan references pattern {pattern} as NFA but it compiled to {}",
            other.mode()
        ),
    }
}

fn expect_nbva(compiled: &[Compiled], pattern: usize) -> &CompiledNbva {
    match &compiled[pattern] {
        Compiled::Nbva(img) => img,
        other => panic!(
            "array plan references pattern {pattern} as NBVA but it compiled to {}",
            other.mode()
        ),
    }
}

fn expect_lnfa(compiled: &[Compiled], pattern: usize) -> &CompiledLnfa {
    match &compiled[pattern] {
        Compiled::Lnfa(img) => img,
        other => panic!(
            "array plan references pattern {pattern} as LNFA but it compiled to {}",
            other.mode()
        ),
    }
}

/// Per-cycle housekeeping common to all modes: controllers and buffering.
fn charge_overheads(meter: &mut EnergyMeter, cost: &CostModel, powered_tiles: u32) {
    meter.charge(
        Category::Controller,
        cost.local_ctrl_pj * f64::from(powered_tiles) + cost.global_ctrl_pj,
    );
    meter.charge(Category::Buffer, cost.buffer_pj);
}

/// Charges state matching + transition for one NFA-mode cycle.
fn charge_nfa_cycle(
    meter: &mut EnergyMeter,
    cost: &CostModel,
    tile_active: &[u32],
    cross_signals: u32,
) {
    let tile_cols = 128.0;
    meter.charge(
        Category::StateMatch,
        cost.match_pj * tile_active.len() as f64,
    );
    for &active in tile_active {
        let activity = (f64::from(active) / tile_cols).min(1.0);
        meter.charge(
            Category::LocalSwitch,
            cost.local_switch.access_energy_pj(activity),
        );
    }
    let g_activity = (f64::from(cross_signals) / 256.0).min(1.0);
    meter.charge(
        Category::GlobalSwitch,
        cost.global_switch.access_energy_pj(g_activity),
    );
    meter.charge(Category::Wire, cost.wire_pj * f64::from(cross_signals));
}

/// Whether each state of a placement, given its successor lists, has a
/// successor in a different tile (its active signal must traverse the
/// global switch).
fn cross_tile_flags<'s>(p: &Placement, succs: impl Iterator<Item = &'s [u32]>) -> Vec<bool> {
    succs
        .enumerate()
        .map(|(q, succ)| {
            succ.iter()
                .any(|&s| p.state_tile[s as usize] != p.state_tile[q])
        })
        .collect()
}

// ---------------------------------------------------------------------
// NFA mode
// ---------------------------------------------------------------------

/// Basic NFA array (§2.2): every tile searches and routes every cycle.
struct NfaArray {
    placements: Vec<Placement>,
    runs: Vec<NfaRun>,
    crosses: Vec<Vec<bool>>,
    tiles: usize,
    cost: CostModel,
    tile_active: Vec<u32>,
    powered_tile_cycles: u64,
}

impl NfaArray {
    fn new(
        compiled: &[Compiled],
        placements: &[Placement],
        plan: &ArrayPlan,
        cost: CostModel,
    ) -> NfaArray {
        let images: Vec<&CompiledNfa> = placements
            .iter()
            .map(|p| expect_nfa(compiled, p.pattern))
            .collect();
        let crosses = placements
            .iter()
            .zip(&images)
            .map(|(p, img)| cross_tile_flags(p, img.nfa.states().iter().map(|s| &s.succ[..])))
            .collect();
        NfaArray {
            placements: placements.to_vec(),
            runs: images.iter().map(|img| img.nfa.start()).collect(),
            crosses,
            tiles: plan.tiles_used as usize,
            cost,
            tile_active: vec![0; plan.tiles_used as usize],
            powered_tile_cycles: 0,
        }
    }
}

impl ArraySim for NfaArray {
    fn stalled(&self) -> bool {
        false
    }

    fn tick(
        &mut self,
        automata: &Automata<'_>,
        byte: Option<u8>,
        offset: usize,
        meter: &mut EnergyMeter,
        out: &mut Vec<MatchEvent>,
    ) {
        let (Automata::Nfa(nfas), Some(byte)) = (automata, byte) else {
            unreachable!("NFA arrays step NFAs and never stall")
        };
        // Activity entering this cycle drives the transition fabric.
        self.tile_active.iter_mut().for_each(|c| *c = 0);
        let mut cross_signals = 0u32;
        for ((p, run), cross) in self
            .placements
            .iter()
            .zip(self.runs.iter())
            .zip(self.crosses.iter())
        {
            for q in run.active_bits().iter_ones() {
                self.tile_active[p.state_tile[q] as usize] += 1;
                cross_signals += u32::from(cross[q]);
            }
        }
        charge_nfa_cycle(meter, &self.cost, &self.tile_active, cross_signals);
        charge_overheads(meter, &self.cost, self.tiles as u32);
        self.powered_tile_cycles += self.tiles as u64;
        for ((p, run), nfa) in self.placements.iter().zip(&mut self.runs).zip(nfas) {
            if run.step(nfa, byte) {
                out.push(MatchEvent {
                    pattern: p.pattern,
                    end: offset + 1,
                });
            }
        }
    }

    fn powered_tile_cycles(&self) -> u64 {
        self.powered_tile_cycles
    }

    fn observe(&self) -> ArrayObservation {
        ArrayObservation {
            active_states: self.runs.iter().map(|r| u64::from(r.active_count())).sum(),
            powered_tiles: self.tiles as u64,
        }
    }
}

// ---------------------------------------------------------------------
// NBVA mode
// ---------------------------------------------------------------------

/// NBVA array (§3.1): NFA-style matching plus the event-driven
/// bit-vector-processing phase, which stalls the whole array for `depth`
/// cycles (or the fixed BVM latency on BVAP).
struct NbvaArray {
    placements: Vec<Placement>,
    runs: Vec<NbvaRun>,
    /// (placement idx, state id, tile) of every BV state.
    bv_states: Vec<(usize, u32, u32)>,
    crosses: Vec<Vec<bool>>,
    tiles: usize,
    cost: CostModel,
    stall_per_phase: u64,
    /// Remaining stall cycles of the current bit-vector-processing phase.
    stall_remaining: u64,
    /// Tiles with live bit vectors during the current phase.
    phase_active_tiles: u32,
    tile_active: Vec<u32>,
    bv_tile_active: Vec<bool>,
    powered_tile_cycles: u64,
}

impl NbvaArray {
    fn new(
        compiled: &[Compiled],
        placements: &[Placement],
        plan: &ArrayPlan,
        depth: u32,
        cost: CostModel,
    ) -> NbvaArray {
        let images: Vec<&CompiledNbva> = placements
            .iter()
            .map(|p| expect_nbva(compiled, p.pattern))
            .collect();
        let bv_states: Vec<(usize, u32, u32)> = placements
            .iter()
            .enumerate()
            .zip(images.iter())
            .flat_map(|((i, p), img)| {
                img.bv_allocs
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| a.is_some())
                    .map(move |(q, _)| (i, q as u32, p.state_tile[q]))
                    .collect::<Vec<_>>()
            })
            .collect();
        let crosses = placements
            .iter()
            .zip(&images)
            .map(|(p, img)| cross_tile_flags(p, img.nbva.states().iter().map(|s| &s.succ[..])))
            .collect();
        let stall_per_phase = if cost.machine == Machine::Bvap {
            cost.bvap_stall_cycles
        } else {
            u64::from(depth)
        };
        NbvaArray {
            placements: placements.to_vec(),
            runs: images.iter().map(|img| img.nbva.start()).collect(),
            bv_states,
            crosses,
            tiles: plan.tiles_used as usize,
            cost,
            stall_per_phase,
            stall_remaining: 0,
            phase_active_tiles: 0,
            tile_active: vec![0; plan.tiles_used as usize],
            bv_tile_active: vec![false; plan.tiles_used as usize],
            powered_tile_cycles: 0,
        }
    }
}

impl ArraySim for NbvaArray {
    fn stalled(&self) -> bool {
        self.stall_remaining > 0
    }

    fn tick(
        &mut self,
        automata: &Automata<'_>,
        byte: Option<u8>,
        offset: usize,
        meter: &mut EnergyMeter,
        out: &mut Vec<MatchEvent>,
    ) {
        if self.stall_remaining > 0 {
            // One cycle of the bit-vector-processing pipeline: only tiles
            // with live vectors run (read → action/route → write back).
            self.stall_remaining -= 1;
            let active = f64::from(self.phase_active_tiles);
            self.powered_tile_cycles += u64::from(self.phase_active_tiles);
            meter.charge(Category::BitVector, self.cost.bv_step_pj * active);
            meter.charge(
                Category::Controller,
                self.cost.global_ctrl_pj + self.cost.local_ctrl_pj * active,
            );
            return;
        }
        let (Automata::Nbva(nbvas), Some(byte)) = (automata, byte) else {
            unreachable!("NBVA arrays step NBVAs and a non-stalled tick needs a byte")
        };
        self.powered_tile_cycles += self.tiles as u64;
        self.tile_active.iter_mut().for_each(|c| *c = 0);
        let mut cross_signals = 0u32;
        for ((p, run), cross) in self
            .placements
            .iter()
            .zip(self.runs.iter())
            .zip(self.crosses.iter())
        {
            for q in run.plain_active_bits().iter_ones() {
                self.tile_active[p.state_tile[q] as usize] += 1;
                cross_signals += u32::from(cross[q]);
            }
        }
        for &(i, q, tile) in &self.bv_states {
            if self.runs[i].vector(q).any() {
                self.tile_active[tile as usize] += 1;
                cross_signals += u32::from(self.crosses[i][q as usize]);
            }
        }
        charge_nfa_cycle(meter, &self.cost, &self.tile_active, cross_signals);
        charge_overheads(meter, &self.cost, self.tiles as u32);

        let mut bv_phase = false;
        for ((p, run), nbva) in self.placements.iter().zip(&mut self.runs).zip(nbvas) {
            let info = run.step_detailed(nbva, byte);
            bv_phase |= info.bv_touched;
            if info.matched {
                out.push(MatchEvent {
                    pattern: p.pattern,
                    end: offset + 1,
                });
            }
        }
        if bv_phase {
            // The global controller stalls the array for the next `depth`
            // cycles while the phase streams BV words.
            self.bv_tile_active.iter_mut().for_each(|b| *b = false);
            for &(i, q, tile) in &self.bv_states {
                if self.runs[i].vector(q).any() {
                    self.bv_tile_active[tile as usize] = true;
                }
            }
            self.phase_active_tiles = self.bv_tile_active.iter().filter(|&&b| b).count() as u32;
            self.stall_remaining = self.stall_per_phase;
        }
    }

    fn powered_tile_cycles(&self) -> u64 {
        self.powered_tile_cycles
    }

    fn observe(&self) -> ArrayObservation {
        ArrayObservation {
            active_states: self.runs.iter().map(|r| u64::from(r.active_count())).sum(),
            // During a bit-vector-processing phase only the tiles with
            // live vectors run; otherwise the whole array is powered.
            powered_tiles: if self.stall_remaining > 0 {
                u64::from(self.phase_active_tiles)
            } else {
                self.tiles as u64
            },
        }
    }
}

// ---------------------------------------------------------------------
// LNFA mode
// ---------------------------------------------------------------------

/// One mapped chain inside an LNFA array.
struct ChainRun {
    pattern: usize,
    run: ShiftAndRun,
    /// Absolute tile index of every chain position.
    state_tile: Vec<u32>,
    len: usize,
}

/// LNFA array (§3.2): Shift-And in the active vector, power-gated tiles,
/// ring routing between adjacent tiles.
struct LnfaArray {
    chains: Vec<ChainRun>,
    tile_cam: Vec<bool>,
    tile_switch: Vec<bool>,
    tile_initial: Vec<bool>,
    initial_cands: Vec<u32>,
    tiles: usize,
    cost: CostModel,
    powered: Vec<bool>,
    cands: Vec<u32>,
    powered_tile_cycles: u64,
}

impl LnfaArray {
    fn new(compiled: &[Compiled], bins: &[Bin], plan: &ArrayPlan, cost: CostModel) -> LnfaArray {
        let tiles = plan.tiles_used as usize;
        let mut chains: Vec<ChainRun> = Vec::new();
        // Which powered tiles search via the CAM vs the one-hot local
        // switch, and which tiles hold initial states (never power-gated).
        let mut tile_cam = vec![false; tiles];
        let mut tile_switch = vec![false; tiles];
        let mut tile_initial = vec![false; tiles];
        for bin in bins {
            for member in &bin.members {
                let img = expect_lnfa(compiled, member.pattern);
                let lnfa = &img.units[member.unit].lnfa;
                let state_tile: Vec<u32> = (0..lnfa.len() as u32)
                    .map(|s| bin.first_tile + bin.tile_of_state(member, s))
                    .collect();
                for &t in &state_tile {
                    match member.path {
                        MatchPath::Cam => tile_cam[t as usize] = true,
                        MatchPath::LocalSwitch => tile_switch[t as usize] = true,
                    }
                }
                tile_initial[state_tile[0] as usize] = true;
                chains.push(ChainRun {
                    pattern: member.pattern,
                    run: lnfa.start(),
                    state_tile,
                    len: lnfa.len(),
                });
            }
        }
        // Candidate states per tile: the always-armed initial states plus
        // the successors of active states. The active vector gates the CAM
        // columns (§3.2), so matching energy scales with candidates.
        let mut initial_cands = vec![0u32; tiles];
        for chain in &chains {
            initial_cands[chain.state_tile[0] as usize] += 1;
        }
        LnfaArray {
            chains,
            tile_cam,
            tile_switch,
            tile_initial,
            initial_cands,
            tiles,
            cost,
            powered: vec![false; tiles],
            cands: vec![0; tiles],
            powered_tile_cycles: 0,
        }
    }
}

impl ArraySim for LnfaArray {
    fn stalled(&self) -> bool {
        false
    }

    fn tick(
        &mut self,
        automata: &Automata<'_>,
        byte: Option<u8>,
        offset: usize,
        meter: &mut EnergyMeter,
        out: &mut Vec<MatchEvent>,
    ) {
        let (Automata::Lnfa(lnfas), Some(byte)) = (automata, byte) else {
            unreachable!("LNFA arrays step LNFAs and never stall")
        };
        // A tile is powered if it holds an initial state or a state that
        // can become active this cycle (an active predecessor shifts in).
        self.powered.copy_from_slice(&self.tile_initial);
        self.cands.copy_from_slice(&self.initial_cands);
        let mut ring_crossings = 0u32;
        for chain in &self.chains {
            for s in chain.run.states().iter_ones() {
                if s + 1 < chain.len {
                    let here = chain.state_tile[s];
                    let next = chain.state_tile[s + 1];
                    self.powered[next as usize] = true;
                    self.cands[next as usize] += 1;
                    if next != here {
                        ring_crossings += 1;
                    }
                }
            }
        }
        for t in 0..self.tiles {
            if !self.powered[t] {
                continue;
            }
            let activity = (f64::from(self.cands[t]) / 128.0).min(1.0);
            if self.tile_cam[t] {
                // Column-gated CAM search: wordline drive + the candidate
                // columns' compare energy.
                meter.charge(Category::StateMatch, 0.5 + self.cost.match_pj * activity);
            }
            if self.tile_switch[t] {
                // One-hot lookup in the local switch: two columns per
                // candidate state.
                meter.charge(
                    Category::StateMatch,
                    self.cost
                        .local_switch
                        .access_energy_pj((2.0 * activity).min(1.0)),
                );
            }
        }
        meter.charge(
            Category::Wire,
            self.cost.ring_hop_pj * f64::from(ring_crossings),
        );
        let powered_count = self.powered.iter().filter(|&&b| b).count() as u32;
        self.powered_tile_cycles += u64::from(powered_count);
        charge_overheads(meter, &self.cost, powered_count);

        for (chain, lnfa) in self.chains.iter_mut().zip(lnfas) {
            if chain.run.step(lnfa, byte) {
                out.push(MatchEvent {
                    pattern: chain.pattern,
                    end: offset + 1,
                });
            }
        }
    }

    fn powered_tile_cycles(&self) -> u64 {
        self.powered_tile_cycles
    }

    fn observe(&self) -> ArrayObservation {
        // Mirror the tick's power-gating rule without touching the
        // scratch vectors: a tile is powered if it holds an initial state
        // or a state an active predecessor can shift into.
        let mut powered = self.tile_initial.clone();
        let mut active_states = 0u64;
        for chain in &self.chains {
            for s in chain.run.states().iter_ones() {
                active_states += 1;
                if s + 1 < chain.len {
                    powered[chain.state_tile[s + 1] as usize] = true;
                }
            }
        }
        ArrayObservation {
            active_states,
            powered_tiles: powered.iter().filter(|&&b| b).count() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_compiler::{Compiler, CompilerConfig, Mode};

    /// Compiles `xy{6}z` to NBVA and places it by hand on a 2-tile array:
    /// `x` on tile 0, the `y{6}` bit-vector state and `z` on tile 1.
    fn two_tile_nbva(depth: u32) -> (Vec<Compiled>, ArrayPlan) {
        let compiler = Compiler::new(CompilerConfig {
            bv_depth: depth,
            ..CompilerConfig::default()
        });
        let regex = rap_regex::parse("xy{6}z").expect("parses");
        let compiled = compiler
            .compile_with_mode(&regex, Mode::Nbva)
            .expect("compiles");
        let img = match &compiled {
            Compiled::Nbva(img) => img,
            other => panic!("expected NBVA, got {}", other.mode()),
        };
        assert_eq!(img.nbva.states().len(), 3, "x, y{{6}} (BV), z");
        assert!(img.bv_allocs[1].is_some(), "y{{6}} is the BV state");
        let columns_used = img.total_columns();
        let placements = vec![Placement {
            pattern: 0,
            state_tile: vec![0, 1, 1],
            cross_tile_edges: 1,
        }];
        let plan = ArrayPlan {
            kind: ArrayKind::Nbva { depth, placements },
            tiles_used: 2,
            columns_used,
        };
        (vec![compiled], plan)
    }

    /// Drives one array over `input`, running each bit-vector phase out
    /// before the next byte. Returns (cycles, powered tile-cycles,
    /// matches).
    fn run(compiled: &[Compiled], plan: &ArrayPlan, input: &[u8]) -> (u64, u64, Vec<MatchEvent>) {
        let cost = CostModel::for_machine(Machine::Rap);
        let mut meter = EnergyMeter::new();
        let mut state = build_array(compiled, plan, &cost);
        let automata = Automata::of(compiled, plan);
        let mut cycles = 0u64;
        let mut matches = Vec::new();
        for (offset, &byte) in input.iter().enumerate() {
            state.tick(&automata, Some(byte), offset, &mut meter, &mut matches);
            cycles += 1;
            while state.stalled() {
                state.tick(&automata, None, offset, &mut meter, &mut matches);
                cycles += 1;
            }
        }
        (cycles, state.powered_tile_cycles(), matches)
    }

    #[test]
    fn nbva_outcome_matches_hand_computation_without_match() {
        let (compiled, plan) = two_tile_nbva(3);
        // `x` arms at offset 0; the `y` at offset 1 enters the bit vector,
        // triggering one 3-cycle BV phase with a single live-vector tile;
        // the `q`s clear the vector and nothing else fires. Hand count:
        //   cycles  = 6 input + 3 stall            = 9
        //   powered = 6 * 2 tiles + 3 * 1 tile     = 15 tile-cycles
        let (cycles, powered, matches) = run(&compiled, &plan, b"xyqqqq");
        assert_eq!(cycles, 9);
        assert_eq!(cycles - 6, 3, "stall cycles");
        assert_eq!(powered, 15);
        assert!(matches.is_empty());
    }

    #[test]
    fn nbva_outcome_matches_hand_computation_with_match() {
        let (compiled, plan) = two_tile_nbva(3);
        // Each of the six `y` bytes touches the bit vector, so six 3-cycle
        // BV phases fire before `z` completes the match at end offset 8:
        //   cycles  = 8 input + 6 * 3 stall        = 26
        //   powered = 8 * 2 tiles + 18 * 1 tile    = 34 tile-cycles
        let (cycles, powered, matches) = run(&compiled, &plan, b"xyyyyyyz");
        assert_eq!(cycles, 26);
        assert_eq!(cycles - 8, 18, "stall cycles");
        assert_eq!(powered, 34);
        assert_eq!(matches, vec![MatchEvent { pattern: 0, end: 8 }]);
    }
}
