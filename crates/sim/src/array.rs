//! Per-array cycle simulation, one steppable machine per tile mode.
//!
//! Each array advances one clock cycle per [`ArraySim::tick`] call:
//! NFA/LNFA arrays consume one input byte every cycle, while an NBVA array
//! that entered the bit-vector-processing phase spends the following
//! `depth` cycles stalled (reporting [`ArraySim::stalled`]) before it
//! accepts the next byte. A tick prices nothing: it adds the cycle's
//! micro-operations to the array's integer [`Activity`] counters, which
//! [`CostModel::energy`](crate::CostModel) prices once per run. Activity
//! factors (active states per tile, cross-tile signals) come from the
//! configuration *entering* each cycle, which is what toggles the switch
//! fabric during that cycle's state transition.
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
use rap_automata::nbva::{Nbva, NbvaRun, StateKind};
use rap_automata::nfa::{Nfa, NfaRun};
use rap_circuit::Machine;
use rap_compiler::{Compiled, CompiledLnfa, CompiledNbva, CompiledNfa, MatchPath};
use rap_mapper::{ArrayKind, ArrayPlan, Bin, Placement};
use rap_telemetry::ProbeEvent;

/// Columns of a tile's local switch: per-tile activity saturates here.
pub(crate) const TILE_COLUMNS: u32 = 128;
/// Columns of an array's global switch: cross-tile activity saturates here.
pub(crate) const GLOBAL_COLUMNS: u32 = 256;

/// Integer counts of the micro-operations an array ran, summed over its
/// cycles (and, at the end of a run, over its arrays). Clamped sums are
/// the activity factors of the Table 1 models, which are linear in
/// activity, so pricing the sums once charges exactly what pricing every
/// cycle would.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Activity {
    /// Input cycles of NFA/NBVA arrays: each searches every tile and
    /// traverses the global switch.
    pub fabric_cycles: u64,
    /// Tile-cycles of those input cycles.
    pub fabric_tile_cycles: u64,
    /// Σ over those tile-cycles of the tile's active states, at most
    /// [`TILE_COLUMNS`].
    pub clamped_tile_states: u64,
    /// Σ over fabric cycles of cross-tile signals, at most
    /// [`GLOBAL_COLUMNS`].
    pub clamped_cross_signals: u64,
    /// Σ cross-tile signals (global wire toggles).
    pub cross_signals: u64,
    /// Powered LNFA tile-cycles searching through the CAM.
    pub cam_tile_cycles: u64,
    /// Σ over those tile-cycles of candidate states, at most
    /// [`TILE_COLUMNS`].
    pub cam_candidates: u64,
    /// Powered LNFA tile-cycles searching through the one-hot local switch.
    pub switch_tile_cycles: u64,
    /// Σ over those tile-cycles of two columns per candidate state, at
    /// most [`TILE_COLUMNS`].
    pub switch_columns: u64,
    /// LNFA ring hops between adjacent tiles.
    pub ring_hops: u64,
    /// Σ over bit-vector-phase stall cycles of tiles with live vectors.
    pub bv_tile_cycles: u64,
    /// Tile-cycles powered (gated tiles excluded), stalls included.
    pub powered_tile_cycles: u64,
}

impl Activity {
    /// Counts one NFA/NBVA input cycle whose active states sit on the
    /// tiles `active` yields, each with whether its signal crosses to
    /// another tile. `tile_active` is per-tile scratch. Every tile is
    /// powered.
    fn fabric_cycle(&mut self, tile_active: &mut [u32], active: impl Iterator<Item = (u32, bool)>) {
        tile_active.fill(0);
        let mut cross_signals = 0u32;
        for (tile, cross) in active {
            tile_active[tile as usize] += 1;
            cross_signals += u32::from(cross);
        }
        self.fabric_cycles += 1;
        self.fabric_tile_cycles += tile_active.len() as u64;
        self.powered_tile_cycles += tile_active.len() as u64;
        let clamped = tile_active.iter().map(|&a| u64::from(a.min(TILE_COLUMNS)));
        self.clamped_tile_states += clamped.sum::<u64>();
        self.clamped_cross_signals += u64::from(cross_signals.min(GLOBAL_COLUMNS));
        self.cross_signals += u64::from(cross_signals);
    }
}

impl std::ops::AddAssign for Activity {
    fn add_assign(&mut self, other: Activity) {
        self.fabric_cycles += other.fabric_cycles;
        self.fabric_tile_cycles += other.fabric_tile_cycles;
        self.clamped_tile_states += other.clamped_tile_states;
        self.clamped_cross_signals += other.clamped_cross_signals;
        self.cross_signals += other.cross_signals;
        self.cam_tile_cycles += other.cam_tile_cycles;
        self.cam_candidates += other.cam_candidates;
        self.switch_tile_cycles += other.switch_tile_cycles;
        self.switch_columns += other.switch_columns;
        self.ring_hops += other.ring_hops;
        self.bv_tile_cycles += other.bv_tile_cycles;
        self.powered_tile_cycles += other.powered_tile_cycles;
    }
}

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
        out: &mut Vec<MatchEvent>,
    );

    /// The micro-operations counted so far.
    fn activity(&self) -> &Activity;

    /// Samples the array's current activity for a telemetry probe. Pure
    /// observation: never counts or mutates state.
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

/// Builds the fresh steppable machine for an array plan over its
/// `automata` (from [`Automata::of`]).
pub(crate) fn build_array(
    plan: &ArrayPlan,
    automata: &Automata<'_>,
    cost: &CostModel,
) -> Box<dyn ArraySim> {
    let tiles = plan.tiles_used as usize;
    match (&plan.kind, automata) {
        (ArrayKind::Nfa { placements }, Automata::Nfa(nfas)) => {
            Box::new(NfaArray::new(placements, nfas, tiles))
        }
        (ArrayKind::Nbva { depth, placements }, Automata::Nbva(nbvas)) => {
            let stall_per_phase = if cost.machine == Machine::Bvap {
                cost.bvap_stall_cycles
            } else {
                u64::from(*depth)
            };
            Box::new(NbvaArray::new(placements, nbvas, tiles, stall_per_phase))
        }
        (ArrayKind::Lnfa { bins }, Automata::Lnfa(lnfas)) => {
            Box::new(LnfaArray::new(bins, lnfas, tiles))
        }
        _ => unreachable!("Automata::of resolves the plan's own mode"),
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
    tile_active: Vec<u32>,
    activity: Activity,
}

impl NfaArray {
    fn new(placements: &[Placement], nfas: &[&Nfa], tiles: usize) -> NfaArray {
        let crosses = placements
            .iter()
            .zip(nfas)
            .map(|(p, nfa)| cross_tile_flags(p, nfa.states().iter().map(|s| &s.succ[..])))
            .collect();
        NfaArray {
            placements: placements.to_vec(),
            runs: nfas.iter().map(|nfa| nfa.start()).collect(),
            crosses,
            tile_active: vec![0; tiles],
            activity: Activity::default(),
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
        out: &mut Vec<MatchEvent>,
    ) {
        let (Automata::Nfa(nfas), Some(byte)) = (automata, byte) else {
            unreachable!("NFA arrays step NFAs and never stall")
        };
        // Activity entering this cycle drives the transition fabric.
        let placed = self.placements.iter().zip(&self.runs).zip(&self.crosses);
        let active = placed.flat_map(|((p, run), cross)| {
            run.active_bits()
                .iter_ones()
                .map(|q| (p.state_tile[q], cross[q]))
        });
        self.activity.fabric_cycle(&mut self.tile_active, active);
        for ((p, run), nfa) in self.placements.iter().zip(&mut self.runs).zip(nfas) {
            if run.step(nfa, byte) {
                out.push(MatchEvent {
                    pattern: p.pattern,
                    end: offset + 1,
                });
            }
        }
    }

    fn activity(&self) -> &Activity {
        &self.activity
    }

    fn observe(&self) -> ArrayObservation {
        ArrayObservation {
            active_states: self.runs.iter().map(|r| u64::from(r.active_count())).sum(),
            powered_tiles: self.tile_active.len() as u64,
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
    stall_per_phase: u64,
    /// Remaining stall cycles of the current bit-vector-processing phase.
    stall_remaining: u64,
    /// Tiles with live bit vectors during the current phase.
    phase_active_tiles: u32,
    tile_active: Vec<u32>,
    bv_tile_active: Vec<bool>,
    activity: Activity,
}

impl NbvaArray {
    fn new(
        placements: &[Placement],
        nbvas: &[&Nbva],
        tiles: usize,
        stall_per_phase: u64,
    ) -> NbvaArray {
        let bv_states = placements
            .iter()
            .zip(nbvas)
            .enumerate()
            .flat_map(|(i, (p, nbva))| {
                let states = nbva.states().iter().enumerate();
                states
                    .filter(|(_, s)| matches!(s.kind, StateKind::Bv { .. }))
                    .map(move |(q, _)| (i, q as u32, p.state_tile[q]))
            })
            .collect();
        let crosses = placements
            .iter()
            .zip(nbvas)
            .map(|(p, nbva)| cross_tile_flags(p, nbva.states().iter().map(|s| &s.succ[..])))
            .collect();
        NbvaArray {
            placements: placements.to_vec(),
            runs: nbvas.iter().map(|nbva| nbva.start()).collect(),
            bv_states,
            crosses,
            stall_per_phase,
            stall_remaining: 0,
            phase_active_tiles: 0,
            tile_active: vec![0; tiles],
            bv_tile_active: vec![false; tiles],
            activity: Activity::default(),
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
        out: &mut Vec<MatchEvent>,
    ) {
        if self.stall_remaining > 0 {
            // One cycle of the bit-vector-processing pipeline: only tiles
            // with live vectors run (read → action/route → write back).
            self.stall_remaining -= 1;
            let active = u64::from(self.phase_active_tiles);
            self.activity.bv_tile_cycles += active;
            self.activity.powered_tile_cycles += active;
            return;
        }
        let (Automata::Nbva(nbvas), Some(byte)) = (automata, byte) else {
            unreachable!("NBVA arrays step NBVAs and a non-stalled tick needs a byte")
        };
        let placed = self.placements.iter().zip(&self.runs).zip(&self.crosses);
        let plain = placed.flat_map(|((p, run), cross)| {
            run.plain_active_bits()
                .iter_ones()
                .map(|q| (p.state_tile[q], cross[q]))
        });
        let (runs, crosses) = (&self.runs, &self.crosses);
        let vectors = self
            .bv_states
            .iter()
            .filter(|&&(i, q, _)| runs[i].vector(q).any())
            .map(|&(i, q, tile)| (tile, crosses[i][q as usize]));
        self.activity
            .fabric_cycle(&mut self.tile_active, plain.chain(vectors));

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

    fn activity(&self) -> &Activity {
        &self.activity
    }

    fn observe(&self) -> ArrayObservation {
        ArrayObservation {
            active_states: self.runs.iter().map(|r| u64::from(r.active_count())).sum(),
            // During a bit-vector-processing phase only the tiles with
            // live vectors run; otherwise the whole array is powered.
            powered_tiles: if self.stall_remaining > 0 {
                u64::from(self.phase_active_tiles)
            } else {
                self.tile_active.len() as u64
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
}

/// LNFA array (§3.2): Shift-And in the active vector, power-gated tiles,
/// ring routing between adjacent tiles.
struct LnfaArray {
    chains: Vec<ChainRun>,
    tile_cam: Vec<bool>,
    tile_switch: Vec<bool>,
    initial_cands: Vec<u32>,
    cands: Vec<u32>,
    activity: Activity,
}

impl LnfaArray {
    fn new(bins: &[Bin], lnfas: &[&Lnfa], tiles: usize) -> LnfaArray {
        let mut chains: Vec<ChainRun> = Vec::new();
        // Which powered tiles search via the CAM vs the one-hot local
        // switch.
        let mut tile_cam = vec![false; tiles];
        let mut tile_switch = vec![false; tiles];
        let members = bins
            .iter()
            .flat_map(|bin| bin.members.iter().map(move |m| (bin, m)));
        for ((bin, member), lnfa) in members.zip(lnfas) {
            let state_tile: Vec<u32> = (0..lnfa.len() as u32)
                .map(|s| bin.first_tile + bin.tile_of_state(member, s))
                .collect();
            for &t in &state_tile {
                match member.path {
                    MatchPath::Cam => tile_cam[t as usize] = true,
                    MatchPath::LocalSwitch => tile_switch[t as usize] = true,
                }
            }
            chains.push(ChainRun {
                pattern: member.pattern,
                run: lnfa.start(),
                state_tile,
            });
        }
        // Candidate states per tile: the always-armed initial states plus
        // the successors of active states. The active vector gates the CAM
        // columns (§3.2), so matching energy scales with candidates, and a
        // tile without candidates is power-gated.
        let mut initial_cands = vec![0u32; tiles];
        for chain in &chains {
            initial_cands[chain.state_tile[0] as usize] += 1;
        }
        LnfaArray {
            chains,
            tile_cam,
            tile_switch,
            initial_cands,
            cands: vec![0; tiles],
            activity: Activity::default(),
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
        out: &mut Vec<MatchEvent>,
    ) {
        let (Automata::Lnfa(lnfas), Some(byte)) = (automata, byte) else {
            unreachable!("LNFA arrays step LNFAs and never stall")
        };
        self.cands.copy_from_slice(&self.initial_cands);
        let (_, ring_hops) = power_gate(&self.chains, &mut self.cands);
        let activity = &mut self.activity;
        for t in (0..self.cands.len()).filter(|&t| self.cands[t] > 0) {
            activity.powered_tile_cycles += 1;
            if self.tile_cam[t] {
                // Column-gated CAM search: wordline drive + the candidate
                // columns' compare energy.
                activity.cam_tile_cycles += 1;
                activity.cam_candidates += u64::from(self.cands[t].min(TILE_COLUMNS));
            }
            if self.tile_switch[t] {
                // One-hot lookup in the local switch: two columns per
                // candidate state.
                activity.switch_tile_cycles += 1;
                activity.switch_columns += u64::from((2 * self.cands[t]).min(TILE_COLUMNS));
            }
        }
        activity.ring_hops += ring_hops;

        for (chain, lnfa) in self.chains.iter_mut().zip(lnfas) {
            if chain.run.step(lnfa, byte) {
                out.push(MatchEvent {
                    pattern: chain.pattern,
                    end: offset + 1,
                });
            }
        }
    }

    fn activity(&self) -> &Activity {
        &self.activity
    }

    fn observe(&self) -> ArrayObservation {
        let mut cands = self.initial_cands.clone();
        let (active_states, _) = power_gate(&self.chains, &mut cands);
        ArrayObservation {
            active_states,
            powered_tiles: cands.iter().filter(|&&c| c > 0).count() as u64,
        }
    }
}

/// Power gating (§3.2): adds to each tile's candidate states in `cands`,
/// which arrive holding its initial states, the states an active
/// predecessor can shift into this cycle. A tile with candidates is
/// powered. Returns the active states and the ring hops between tiles.
fn power_gate(chains: &[ChainRun], cands: &mut [u32]) -> (u64, u64) {
    let (mut active, mut ring_hops) = (0, 0);
    for chain in chains {
        for s in chain.run.states().iter_ones() {
            active += 1;
            if s + 1 < chain.state_tile.len() {
                let next = chain.state_tile[s + 1];
                cands[next as usize] += 1;
                ring_hops += u64::from(next != chain.state_tile[s]);
            }
        }
    }
    (active, ring_hops)
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
    /// before the next byte. Returns (cycles, activity, matches).
    fn run(
        compiled: &[Compiled],
        plan: &ArrayPlan,
        input: &[u8],
    ) -> (u64, Activity, Vec<MatchEvent>) {
        let automata = Automata::of(compiled, plan);
        let mut state = build_array(plan, &automata, &CostModel::for_machine(Machine::Rap));
        let mut cycles = 0u64;
        let mut matches = Vec::new();
        for (offset, &byte) in input.iter().enumerate() {
            state.tick(&automata, Some(byte), offset, &mut matches);
            cycles += 1;
            while state.stalled() {
                state.tick(&automata, None, offset, &mut matches);
                cycles += 1;
            }
        }
        (cycles, *state.activity(), matches)
    }

    #[test]
    fn nbva_outcome_matches_hand_computation_without_match() {
        let (compiled, plan) = two_tile_nbva(3);
        // `x` arms at offset 0; the `y` at offset 1 enters the bit vector,
        // triggering one 3-cycle BV phase with a single live-vector tile;
        // the `q`s clear the vector and nothing else fires. Hand count:
        //   cycles  = 6 input + 3 stall            = 9
        //   powered = 6 * 2 tiles + 3 * 1 tile     = 15 tile-cycles
        let (cycles, activity, matches) = run(&compiled, &plan, b"xyqqqq");
        assert_eq!(cycles, 9);
        assert_eq!(cycles - 6, 3, "stall cycles");
        assert_eq!(activity.powered_tile_cycles, 15);
        assert!(matches.is_empty());
        // Six input cycles over both tiles, three stall cycles on the one
        // live-vector tile, no LNFA work.
        assert_eq!(activity.fabric_cycles, 6);
        assert_eq!(activity.fabric_tile_cycles, 12);
        assert_eq!(activity.bv_tile_cycles, 3);
        assert_eq!(activity.ring_hops + activity.cam_tile_cycles, 0);
    }

    #[test]
    fn nbva_outcome_matches_hand_computation_with_match() {
        let (compiled, plan) = two_tile_nbva(3);
        // Each of the six `y` bytes touches the bit vector, so six 3-cycle
        // BV phases fire before `z` completes the match at end offset 8:
        //   cycles  = 8 input + 6 * 3 stall        = 26
        //   powered = 8 * 2 tiles + 18 * 1 tile    = 34 tile-cycles
        let (cycles, activity, matches) = run(&compiled, &plan, b"xyyyyyyz");
        assert_eq!(cycles, 26);
        assert_eq!(cycles - 8, 18, "stall cycles");
        assert_eq!(activity.powered_tile_cycles, 34);
        assert_eq!(activity.bv_tile_cycles, 18);
        assert_eq!(matches, vec![MatchEvent { pattern: 0, end: 8 }]);
    }
}
