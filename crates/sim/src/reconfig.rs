//! Partial reconfiguration: mid-stream hot swap of a subset of arrays.
//!
//! RAP arrays run independently on the same stream and couple only
//! through the bank buffers, so swapping the automata resident in a
//! subset of slots while the remaining arrays keep scanning is
//! well-defined: the *stable* arrays never observe the swap, the
//! *retired* arrays stop consuming at the swap offset and drain, and the
//! *fresh* arrays attach at the swap offset and scan only post-swap
//! bytes. [`simulate_hot_swap`] models exactly that by decomposing the
//! run into three sub-plans, each carved out of a verified mapping by
//! [`extract_arrays`] (the carved plan re-verifies by construction:
//! every rule the gate checks is per-array or per-pattern-coverage, and
//! extraction keeps arrays intact while restricting the image set to the
//! patterns those arrays place).

use rap_compiler::Compiled;
use rap_mapper::{ArrayKind, ArrayPlan, Mapping};
use rap_telemetry::Telemetry;

use crate::{Machine, MatchEvent, StreamState};

/// A sub-workload carved out of a larger mapped plan: the chosen arrays
/// with their pattern indices compacted, plus the translation table back
/// to the donor plan's namespace.
#[derive(Clone, Debug)]
pub struct Extraction {
    /// The images the chosen arrays place, in donor index order.
    pub images: Vec<Compiled>,
    /// The chosen arrays, pattern indices rewritten to `[0, n)`.
    pub mapping: Mapping,
    /// `patterns[new] = old`: translation back to the donor namespace.
    pub patterns: Vec<usize>,
}

/// Rewrites every pattern index in an array plan through `remap`.
fn remap_array(plan: &ArrayPlan, remap: impl Fn(usize) -> usize) -> ArrayPlan {
    let mut out = plan.clone();
    match &mut out.kind {
        ArrayKind::Nfa { placements } | ArrayKind::Nbva { placements, .. } => {
            for p in placements {
                p.pattern = remap(p.pattern);
            }
        }
        ArrayKind::Lnfa { bins } => {
            for bin in bins {
                for m in &mut bin.members {
                    m.pattern = remap(m.pattern);
                }
            }
        }
    }
    out
}

/// Carves the sub-plan consisting of `arrays` (indices into
/// `mapping.arrays`) out of a verified plan. Sound only when the chosen
/// arrays place a pattern set disjoint from the remaining arrays'
/// (true at tenant granularity in a composed plan: slots are exclusive
/// and no tenant's pattern is split across tenants).
///
/// # Panics
///
/// Panics when an index in `arrays` is out of range.
pub fn extract_arrays(images: &[Compiled], mapping: &Mapping, arrays: &[usize]) -> Extraction {
    let mut old_patterns: Vec<usize> = arrays
        .iter()
        .flat_map(|&a| mapping.arrays[a].pattern_indices())
        .collect();
    old_patterns.sort_unstable();
    old_patterns.dedup();
    let remap = |old: usize| -> usize {
        old_patterns
            .binary_search(&old)
            .expect("extracted array references an extracted pattern")
    };
    let sub_arrays: Vec<ArrayPlan> = arrays
        .iter()
        .map(|&a| remap_array(&mapping.arrays[a], remap))
        .collect();
    Extraction {
        images: old_patterns.iter().map(|&p| images[p].clone()).collect(),
        mapping: Mapping {
            arrays: sub_arrays,
            config: mapping.config,
        },
        patterns: old_patterns,
    }
}

/// The outcome of one mid-stream hot swap run.
#[derive(Clone, Debug)]
pub struct HotSwapRun {
    /// Matches in the **pre-swap** plan's pattern namespace: stable
    /// arrays over the full stream plus retired arrays over the pre-swap
    /// prefix. Sorted by `(end, pattern)`.
    pub pre_matches: Vec<MatchEvent>,
    /// Matches of the freshly attached arrays in the **post-swap**
    /// plan's namespace, with global stream offsets. Sorted.
    pub fresh_matches: Vec<MatchEvent>,
    /// Cycles the retired arrays needed beyond the swap offset to
    /// quiesce (their catch-up and flush tail).
    pub observed_drain_cycles: u64,
    /// Cycle at which the swap window closes: `swap_at` plus the
    /// observed drain.
    pub quiesce_cycle: u64,
    /// Slowest segment's cycle count (the run's critical path).
    pub cycles: u64,
}

/// Applies a certified swap mid-stream: the `retired` arrays of the
/// pre-swap plan stop consuming at `swap_at` and drain, the remaining
/// (stable) arrays scan the whole stream uninterrupted, and the `fresh`
/// arrays of the post-swap plan attach at `swap_at`. When telemetry is
/// attached, the three segments are traced under `label` with
/// `-stable`/`-drain`/`-fresh` suffixes.
///
/// # Panics
///
/// Panics when `swap_at` exceeds the input length or an array index is
/// out of range.
#[allow(clippy::too_many_arguments)]
pub fn simulate_hot_swap(
    pre_images: &[Compiled],
    pre_mapping: &Mapping,
    retired: &[usize],
    post_images: &[Compiled],
    post_mapping: &Mapping,
    fresh: &[usize],
    input: &[u8],
    swap_at: usize,
    machine: Machine,
    telemetry: Option<(&Telemetry, &str)>,
) -> HotSwapRun {
    assert!(swap_at <= input.len(), "swap offset beyond the stream");
    // One segment: `ex`'s arrays over `bytes`, traced under `suffix`,
    // returning its matches in the donor namespace and its cycles.
    let segment = |ex: &Extraction, bytes: &[u8], suffix: &str| {
        if ex.mapping.arrays.is_empty() {
            return (Vec::new(), 0);
        }
        let label = telemetry.map(|(_, label)| format!("{label}{suffix}"));
        let trace = telemetry
            .zip(label.as_deref())
            .map(|((tel, _), l)| (tel, l));
        let state = StreamState::new(&ex.images, &ex.mapping, machine, trace);
        let run = state.run(&ex.images, &ex.mapping, bytes);
        let matches = run.matches.iter().map(|m| MatchEvent {
            pattern: ex.patterns[m.pattern],
            end: m.end,
        });
        (matches.collect::<Vec<MatchEvent>>(), run.metrics.cycles)
    };

    let stable: Vec<usize> = (0..pre_mapping.arrays.len())
        .filter(|a| !retired.contains(a))
        .collect();
    let stable_ex = extract_arrays(pre_images, pre_mapping, &stable);
    let retired_ex = extract_arrays(pre_images, pre_mapping, retired);
    let fresh_ex = extract_arrays(post_images, post_mapping, fresh);

    let (mut pre_matches, _) = segment(&stable_ex, input, "-stable");
    let stable_cycles = input.len() as u64;

    // Drain segment: the retired arrays see the stream end at the swap
    // offset ($-anchored outgoing patterns report there — the drained
    // tenant's stream truly ends at the swap).
    let (drained, cycles) = segment(&retired_ex, &input[..swap_at], "-drain");
    let drain_cycles = cycles.saturating_sub(swap_at as u64);
    pre_matches.extend(drained);
    pre_matches.sort_unstable_by_key(|m| (m.end, m.pattern));

    // Fresh segment: globalize the suffix-relative end offsets.
    let (mut fresh_matches, _) = segment(&fresh_ex, &input[swap_at..], "-fresh");
    for m in &mut fresh_matches {
        m.end += swap_at;
    }
    fresh_matches.sort_unstable_by_key(|m| (m.end, m.pattern));

    let quiesce_cycle = swap_at as u64 + drain_cycles;
    HotSwapRun {
        pre_matches,
        fresh_matches,
        observed_drain_cycles: drain_cycles,
        quiesce_cycle,
        cycles: stable_cycles.max(quiesce_cycle),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, Simulator};

    fn plan(sources: &[&str]) -> (Vec<Compiled>, Mapping) {
        let sim = Simulator::new(Machine::Rap);
        let parsed: Vec<rap_regex::Pattern> = sources
            .iter()
            .map(|s| rap_regex::parse_pattern(s).expect("parses"))
            .collect();
        let compiled = sim.compile_parsed(&parsed).expect("compiles");
        let mapping = sim.map_verified(&compiled).expect("verifies");
        (compiled, mapping)
    }

    #[test]
    fn extraction_round_trips_matches() {
        let (images, mapping) = plan(&["needle", "b{3,9}c", "hay+stack"]);
        let input = b"a needle in the haaaystack bbbbc needle";
        let full = simulate(&images, &mapping, input, Machine::Rap);
        let all: Vec<usize> = (0..mapping.arrays.len()).collect();
        let ex = extract_arrays(&images, &mapping, &all);
        let sub = simulate(&ex.images, &ex.mapping, input, Machine::Rap);
        let translated: Vec<MatchEvent> = sub
            .matches
            .iter()
            .map(|m| MatchEvent {
                pattern: ex.patterns[m.pattern],
                end: m.end,
            })
            .collect();
        assert_eq!(translated, full.matches);
    }

    /// Composes two solo plans tenant-style: disjoint arrays, the second
    /// tenant's pattern indices offset past the first's (the shape
    /// rap-admit certifies). Returns the composite plus the second
    /// tenant's array indices.
    fn compose(
        a: (Vec<Compiled>, Mapping),
        b: (Vec<Compiled>, Mapping),
    ) -> (Vec<Compiled>, Mapping, Vec<usize>) {
        let (mut images, mut mapping) = a;
        let offset = images.len();
        images.extend(b.0);
        let first = mapping.arrays.len();
        mapping
            .arrays
            .extend(b.1.arrays.iter().map(|p| remap_array(p, |i| i + offset)));
        let second: Vec<usize> = (first..mapping.arrays.len()).collect();
        (images, mapping, second)
    }

    #[test]
    fn stable_arrays_never_observe_the_swap() {
        let (pre_images, pre_mapping, retired) = compose(plan(&["needle"]), plan(&["haystack"]));
        let (post_images, post_mapping, fresh) = compose(plan(&["needle"]), plan(&["beacon"]));
        let input = b"a needle in the haystack, then a beacon and a needle";
        let swap_at = 24;
        let run = simulate_hot_swap(
            &pre_images,
            &pre_mapping,
            &retired,
            &post_images,
            &post_mapping,
            &fresh,
            input,
            swap_at,
            Machine::Rap,
            None,
        );
        // The stable pattern (pattern 0 on both sides) sees the whole
        // stream, bit-identically to an unswapped run.
        let full = simulate(&pre_images, &pre_mapping, input, Machine::Rap);
        let stable_full: Vec<&MatchEvent> =
            full.matches.iter().filter(|m| m.pattern == 0).collect();
        let stable_hot: Vec<&MatchEvent> =
            run.pre_matches.iter().filter(|m| m.pattern == 0).collect();
        assert_eq!(stable_hot, stable_full);
        // The retired pattern reports only before the swap offset.
        assert!(run
            .pre_matches
            .iter()
            .filter(|m| m.pattern == 1)
            .all(|m| m.end <= swap_at));
        // The fresh pattern reports only after it, with global offsets.
        assert!(!run.fresh_matches.is_empty(), "beacon matches post-swap");
        assert!(run.fresh_matches.iter().all(|m| m.end > swap_at));
        assert!(run.quiesce_cycle >= swap_at as u64);
    }
}
