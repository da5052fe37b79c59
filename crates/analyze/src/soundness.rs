//! Rewriter-soundness check: exact equivalence of a compiled image
//! against the reference Glushkov NFA of its source pattern.
//!
//! The compiler applies non-trivial rewritings (repetition unfolding, tile
//! splitting, LNFA distribution) before an image reaches hardware. This
//! pass proves — not samples — that the rewritten image reports exactly
//! the reference automaton's match ends on *every* input, by a product
//! construction: both machines are stepped jointly, breadth-first, over
//! one representative byte per alphabet-partition block, and every
//! reachable joint configuration is checked for agreement of the raw
//! match signal. The frontier is deduplicated against the set of visited
//! configurations (the antichain-style subsumption of tools like Mata
//! degenerates to exact-configuration dedup here, because the image side
//! is not a plain powerset lattice — NBVA bit vectors and LNFA chain
//! registers carry more than a state set).
//!
//! Exhaustive over Σ = 256 bytes is hopeless, but the automata only ever
//! test byte membership in their character classes — so bytes with the
//! same membership signature across *every* class of both machines are
//! interchangeable ([`representatives`]). Exploring one representative
//! per block is exhaustive over the mintermized alphabet by construction.
//!
//! Unlike the bounded model check this pass replaces, the result does not
//! depend on an input-length bound: when the joint exploration closes
//! (no unvisited configuration remains) the two machines are *equal* on
//! all inputs of all lengths. The only knob left is a memory/time budget
//! ([`SoundnessConfig::max_configs`]); an exploration that exhausts it
//! returns inconclusively, exactly like the old string cap did.

use rap_automata::bitvec::BitVec;
use rap_automata::lnfa::ShiftAndRun;
use rap_automata::nbva::NbvaRun;
use rap_automata::nfa::{Nfa, NfaRun};
use rap_compiler::Compiled;
use rap_regex::{CharClass, Pattern};
use std::collections::HashSet;

/// Resource budget for the equivalence check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SoundnessConfig {
    /// Maximum number of distinct joint configurations explored. The
    /// check is exact whenever exploration closes under this budget;
    /// exhausting it returns inconclusively (no finding). There is no
    /// input-length bound — equivalence holds for all lengths once the
    /// configuration space closes.
    pub max_configs: usize,
}

impl Default for SoundnessConfig {
    fn default() -> Self {
        SoundnessConfig { max_configs: 8192 }
    }
}

/// Match ends reported by a compiled image on one input, normalised to a
/// sorted, deduplicated list (an LNFA image is a union of chains, each
/// reporting independently).
pub fn compiled_match_ends(image: &Compiled, input: &[u8]) -> Vec<usize> {
    match image {
        Compiled::Nfa(c) => c.nfa.match_ends(input),
        Compiled::Nbva(c) => c.nbva.match_ends(input),
        Compiled::Lnfa(c) => {
            let mut ends: Vec<usize> = c
                .units
                .iter()
                .flat_map(|u| u.lnfa.match_ends(input))
                .collect();
            ends.sort_unstable();
            ends.dedup();
            ends
        }
    }
}

/// Every character class either machine consults.
fn all_classes(image: &Compiled, reference: &Nfa) -> Vec<CharClass> {
    let mut ccs: Vec<CharClass> = reference.states().iter().map(|s| s.cc).collect();
    image_classes(image, &mut ccs);
    ccs
}

/// Appends every character class one compiled image consults.
fn image_classes(image: &Compiled, ccs: &mut Vec<CharClass>) {
    match image {
        Compiled::Nfa(c) => ccs.extend(c.nfa.states().iter().map(|s| s.cc)),
        Compiled::Nbva(c) => ccs.extend(c.nbva.states().iter().map(|s| s.cc)),
        Compiled::Lnfa(c) => {
            for u in &c.units {
                ccs.extend(u.lnfa.classes().iter().copied());
            }
        }
    }
}

/// One representative byte per alphabet-partition block: two bytes are
/// equivalent when no class in `ccs` distinguishes them, so stepping any
/// automaton built from those classes with either byte reaches the same
/// configuration. The all-miss block (bytes outside every class) gets a
/// representative too — mismatch behaviour is part of the semantics.
pub fn representatives(ccs: &[CharClass]) -> Vec<u8> {
    let mut reps: Vec<u8> = Vec::new();
    let mut seen: Vec<Vec<u64>> = Vec::new();
    for b in 0..=255u8 {
        // Pack the membership signature 64 classes per word.
        let mut sig = vec![0u64; ccs.len() / 64 + 1];
        for (i, cc) in ccs.iter().enumerate() {
            if cc.contains(b) {
                sig[i / 64] |= 1u64 << (i % 64);
            }
        }
        if !seen.contains(&sig) {
            seen.push(sig);
            reps.push(b);
        }
    }
    reps
}

/// The image side of a joint configuration: a live run of whichever IR
/// the pattern compiled to.
#[derive(Clone, Debug)]
enum ImageRun {
    Nfa(NfaRun),
    Nbva(NbvaRun),
    Lnfa(Vec<ShiftAndRun>),
}

impl ImageRun {
    fn start(image: &Compiled) -> ImageRun {
        match image {
            Compiled::Nfa(c) => ImageRun::Nfa(c.nfa.start()),
            Compiled::Nbva(c) => ImageRun::Nbva(c.nbva.start()),
            Compiled::Lnfa(c) => ImageRun::Lnfa(c.units.iter().map(|u| u.lnfa.start()).collect()),
        }
    }

    /// Consumes one byte of `image` (the image this run was started
    /// from); returns the raw (unfiltered) match signal.
    fn step(&mut self, image: &Compiled, byte: u8) -> bool {
        match (self, image) {
            (ImageRun::Nfa(run), Compiled::Nfa(c)) => run.step(&c.nfa, byte),
            (ImageRun::Nbva(run), Compiled::Nbva(c)) => run.step(&c.nbva, byte),
            (ImageRun::Lnfa(runs), Compiled::Lnfa(c)) => runs
                .iter_mut()
                .zip(&c.units)
                .fold(false, |m, (r, u)| r.step(&u.lnfa, byte) | m),
            _ => unreachable!("a run steps against the image it started from"),
        }
    }

    /// The configuration's content identity: every bit of run state, as
    /// bit vectors (activation maps, NBVA vectors, chain registers).
    fn fingerprint(&self) -> Vec<BitVec> {
        match self {
            ImageRun::Nfa(run) => vec![run.active_bits().clone()],
            ImageRun::Nbva(run) => {
                let plain = run.plain_active_bits().clone();
                let n = plain.len();
                let mut fp = Vec::with_capacity(n + 1);
                fp.push(plain);
                for q in 0..n {
                    fp.push(run.vector(q as u32).clone());
                }
                fp
            }
            ImageRun::Lnfa(runs) => runs.iter().map(|r| r.states().clone()).collect(),
        }
    }
}

/// One visited node of the joint exploration: the paired runs plus a
/// parent pointer for counterexample reconstruction.
struct Node {
    reference: NfaRun,
    image: ImageRun,
    /// Index of the predecessor node (`usize::MAX` for the root).
    parent: usize,
    /// The byte that led here from the parent.
    byte: u8,
}

/// Rebuilds the input string leading to `node`, then appends `last` and
/// (optionally) `extension`.
fn witness(nodes: &[Node], node: usize, last: u8, extension: Option<u8>) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut i = node;
    while nodes[i].parent != usize::MAX {
        bytes.push(nodes[i].byte);
        i = nodes[i].parent;
    }
    bytes.reverse();
    bytes.push(last);
    bytes.extend(extension);
    bytes
}

fn divergence(image: &Compiled, reference: &Nfa, input: &[u8]) -> String {
    let want = reference.match_ends(input);
    let got = compiled_match_ends(image, input);
    format!(
        "input {:?} (len {}): reference match ends {want:?}, compiled image reports {got:?}",
        String::from_utf8_lossy(input),
        input.len()
    )
}

/// Checks a compiled image against its source pattern by exact product
/// construction. Returns `None` when the image provably reports the
/// reference automaton's match ends on every input (or the exploration
/// budget runs out before the configuration space closes), or a
/// description of a concrete diverging input.
pub fn check(image: &Compiled, pattern: &Pattern, cfg: &SoundnessConfig) -> Option<String> {
    if cfg.max_configs == 0 {
        return None;
    }
    let reference = Nfa::from_pattern(pattern);
    let reps = representatives(&all_classes(image, &reference));
    let ref_end = reference.anchored_end();
    let img_end = image.anchored_end();

    let mut nodes = vec![Node {
        reference: reference.start(),
        image: ImageRun::start(image),
        parent: usize::MAX,
        byte: 0,
    }];
    // Joint-configuration dedup. The position-zero flag is part of the
    // key: `^`-anchored runs arm their initial states only at offset 0,
    // so an offset-0 configuration and a bit-identical later one are not
    // interchangeable.
    let mut visited: HashSet<(bool, BitVec, Vec<BitVec>)> = HashSet::new();
    visited.insert((
        true,
        nodes[0].reference.active_bits().clone(),
        nodes[0].image.fingerprint(),
    ));

    let mut i = 0;
    while i < nodes.len() {
        for &b in &reps {
            let mut ref_run = nodes[i].reference.clone();
            let mut img_run = nodes[i].image.clone();
            let want = ref_run.step(&reference, b);
            let got = img_run.step(image, b);
            if want != got {
                // The string leading here is itself a diverging input:
                // every input's final position reports the raw signal.
                let input = witness(&nodes, i, b, None);
                return Some(divergence(image, &reference, &input));
            }
            if want && ref_end != img_end {
                // The raw signals agree, but exactly one side suppresses
                // the match mid-stream — any one-byte extension turns
                // this position into a mid-input divergence.
                let input = witness(&nodes, i, b, Some(reps[0]));
                return Some(divergence(image, &reference, &input));
            }
            let key = (false, ref_run.active_bits().clone(), img_run.fingerprint());
            if !visited.contains(&key) {
                if visited.len() >= cfg.max_configs {
                    // Budget exhausted before the space closed:
                    // inconclusive, like the old string cap.
                    return None;
                }
                visited.insert(key);
                nodes.push(Node {
                    reference: ref_run,
                    image: img_run,
                    parent: i,
                    byte: b,
                });
            }
        }
        i += 1;
    }
    None
}

/// Outcome of the cross-image overlap probe ([`check_overlap`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Overlap {
    /// Exploration closed: no input makes both images raise their raw
    /// match signal at the same position, on any input of any length.
    Disjoint {
        /// Joint configurations explored before the space closed.
        explored: usize,
    },
    /// Both images report a match ending at the final byte of `input` —
    /// a stream that ends there makes both tenants report, whatever
    /// their end anchoring.
    Simultaneous {
        /// A concrete witness stream.
        input: Vec<u8>,
        /// Joint configurations explored before the witness surfaced.
        explored: usize,
    },
    /// The budget ran out before the joint space closed; nothing can be
    /// concluded either way.
    Inconclusive {
        /// Joint configurations explored (the exhausted budget).
        explored: usize,
    },
}

impl Overlap {
    /// Joint configurations explored, whatever the outcome.
    #[must_use]
    pub fn explored(&self) -> usize {
        match self {
            Overlap::Disjoint { explored }
            | Overlap::Simultaneous { explored, .. }
            | Overlap::Inconclusive { explored } => *explored,
        }
    }
}

/// Probes whether two compiled images can ever report a match at the
/// same input position, by the same product construction as [`check`]
/// but paired image-against-image instead of image-against-reference.
/// The raw (pre-anchor-filter) signal is the right one to compare: a
/// simultaneous raw report at position `p` is realised by any stream
/// ending at `p`, where even end-anchored images surface the match.
/// The mintermized alphabet is rebuilt over *both* images' classes, so
/// one representative per block stays exhaustive for the pair.
pub fn check_overlap(a: &Compiled, b: &Compiled, cfg: &SoundnessConfig) -> Overlap {
    if cfg.max_configs == 0 {
        return Overlap::Inconclusive { explored: 0 };
    }
    let mut ccs = Vec::new();
    image_classes(a, &mut ccs);
    image_classes(b, &mut ccs);
    let reps = representatives(&ccs);

    /// One visited joint node: both runs plus the witness back-pointer.
    struct Joint {
        a: ImageRun,
        b: ImageRun,
        parent: usize,
        byte: u8,
    }
    let mut nodes = vec![Joint {
        a: ImageRun::start(a),
        b: ImageRun::start(b),
        parent: usize::MAX,
        byte: 0,
    }];
    // Same offset-zero caveat as `check`: `^`-anchored images arm their
    // start states only at position 0, so the root is keyed apart.
    let mut visited: HashSet<(bool, Vec<BitVec>, Vec<BitVec>)> = HashSet::new();
    visited.insert((true, nodes[0].a.fingerprint(), nodes[0].b.fingerprint()));

    let mut i = 0;
    while i < nodes.len() {
        for &byte in &reps {
            let mut run_a = nodes[i].a.clone();
            let mut run_b = nodes[i].b.clone();
            let hit_a = run_a.step(a, byte);
            let hit_b = run_b.step(b, byte);
            if hit_a && hit_b {
                let mut input = Vec::new();
                let mut j = i;
                while nodes[j].parent != usize::MAX {
                    input.push(nodes[j].byte);
                    j = nodes[j].parent;
                }
                input.reverse();
                input.push(byte);
                return Overlap::Simultaneous {
                    input,
                    explored: visited.len(),
                };
            }
            let key = (false, run_a.fingerprint(), run_b.fingerprint());
            if !visited.contains(&key) {
                if visited.len() >= cfg.max_configs {
                    return Overlap::Inconclusive {
                        explored: visited.len(),
                    };
                }
                visited.insert(key);
                nodes.push(Joint {
                    a: run_a,
                    b: run_b,
                    parent: i,
                    byte,
                });
            }
        }
        i += 1;
    }
    Overlap::Disjoint {
        explored: visited.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_automata::nfa::NfaState;
    use rap_compiler::{CompiledNfa, Compiler, CompilerConfig};
    use rap_regex::parse_pattern;

    fn check_pattern(pattern: &str) -> Option<String> {
        let compiler = Compiler::new(CompilerConfig::default());
        let parsed = parse_pattern(pattern).expect("parses");
        let image = compiler.compile_anchored(&parsed).expect("compiles");
        check(&image, &parsed, &SoundnessConfig::default())
    }

    #[test]
    fn compiled_images_agree_with_reference() {
        // One pattern per mode, plus anchored and unfolding cases.
        for pattern in [
            "abc",
            "a(b|c)d",
            "ab*c",
            "ac{6}d",
            "b(a{7}|c{5})b",
            "^ab",
            "ab$",
        ] {
            assert_eq!(check_pattern(pattern), None, "{pattern}");
        }
    }

    #[test]
    fn pruned_images_stay_sound() {
        let compiler = Compiler::new(CompilerConfig::default());
        for pattern in ["(cat|dot)", "(cat|cow)", "x(a{9}y|b{9}y)"] {
            let parsed = parse_pattern(pattern).expect("parses");
            let image = compiler.compile_anchored(&parsed).expect("compiles");
            let (pruned, _) = crate::prune::prune_image(&image);
            assert_eq!(
                check(&pruned, &parsed, &SoundnessConfig::default()),
                None,
                "{pattern}"
            );
        }
    }

    #[test]
    fn broken_image_is_caught() {
        // An "image" for `ab` whose first state wrongly reports matches.
        let states = vec![
            NfaState {
                cc: rap_regex::CharClass::single(b'a'),
                succ: vec![1],
                is_final: true, // wrong: should be false
            },
            NfaState {
                cc: rap_regex::CharClass::single(b'b'),
                succ: vec![],
                is_final: true,
            },
        ];
        let nfa = Nfa::from_parts(states, vec![0], false);
        let image = Compiled::Nfa(CompiledNfa {
            nfa,
            state_columns: vec![1, 1],
        });
        let parsed = parse_pattern("ab").expect("parses");
        let mismatch = check(&image, &parsed, &SoundnessConfig::default());
        assert!(mismatch.is_some());
        assert!(mismatch.expect("mismatch").contains("reference match ends"));
    }

    #[test]
    fn divergence_beyond_any_fixed_depth_is_caught() {
        // A chain for `abcdefgh` that accepts one byte early (after
        // "abcdefg"). The old depth-5 bounded model check could never see
        // this; the product construction finds it at whatever depth the
        // configuration space demands.
        let source = b"abcdefgh";
        let states: Vec<NfaState> = source
            .iter()
            .enumerate()
            .map(|(i, &byte)| NfaState {
                cc: rap_regex::CharClass::single(byte),
                succ: if i + 1 < source.len() {
                    vec![(i + 1) as u32]
                } else {
                    vec![]
                },
                is_final: i == 6, // wrong: should be i == 7
            })
            .collect();
        let nfa = Nfa::from_parts(states, vec![0], false);
        let image = Compiled::Nfa(CompiledNfa {
            nfa,
            state_columns: vec![1; source.len()],
        });
        let parsed = parse_pattern("abcdefgh").expect("parses");
        let mismatch = check(&image, &parsed, &SoundnessConfig::default());
        let description = mismatch.expect("early-accept divergence found");
        assert!(description.contains("abcdefg"), "{description}");
    }

    #[test]
    fn dropped_end_anchor_is_caught() {
        // A correct image for `ab` checked against `ab$`: the raw match
        // signals agree everywhere, but the unanchored image reports
        // mid-stream matches the anchored reference suppresses.
        let compiler = Compiler::new(CompilerConfig::default());
        let unanchored = parse_pattern("ab").expect("parses");
        let image = compiler
            .compile_anchored(&unanchored)
            .expect("compiles")
            .with_anchors(false, false);
        let anchored = parse_pattern("ab$").expect("parses");
        let mismatch = check(&image, &anchored, &SoundnessConfig::default());
        assert!(mismatch.is_some(), "anchor mismatch must be caught");
    }

    #[test]
    fn budget_cap_is_respected() {
        // With a zero budget nothing is explored, so even a broken image
        // passes — the budget trades confidence for time.
        let states = vec![NfaState {
            cc: rap_regex::CharClass::single(b'a'),
            succ: vec![],
            is_final: true, // wrong for pattern `ab`
        }];
        let nfa = Nfa::from_parts(states, vec![0], false);
        let image = Compiled::Nfa(CompiledNfa {
            nfa,
            state_columns: vec![1],
        });
        let parsed = parse_pattern("ab").expect("parses");
        let cfg = SoundnessConfig { max_configs: 0 };
        assert_eq!(check(&image, &parsed, &cfg), None);
        assert!(check(&image, &parsed, &SoundnessConfig::default()).is_some());
    }

    fn compile(pattern: &str) -> Compiled {
        let compiler = Compiler::new(CompilerConfig::default());
        let parsed = parse_pattern(pattern).expect("parses");
        compiler.compile_anchored(&parsed).expect("compiles")
    }

    #[test]
    fn overlapping_literals_yield_a_simultaneous_witness() {
        let a = compile("abc");
        let b = compile("bc");
        let overlap = check_overlap(&a, &b, &SoundnessConfig::default());
        let Overlap::Simultaneous { input, .. } = overlap else {
            panic!("expected a witness, got {overlap:?}");
        };
        // The witness really makes both images report at its end.
        let end = input.len();
        assert!(compiled_match_ends(&a, &input).contains(&end), "{input:?}");
        assert!(compiled_match_ends(&b, &input).contains(&end), "{input:?}");
    }

    #[test]
    fn disjoint_literals_close_without_a_witness() {
        // Every match of `aaa` ends in `a`, every match of `bbb` in `b`:
        // no position can report both.
        let a = compile("aaa");
        let b = compile("bbb");
        assert!(matches!(
            check_overlap(&a, &b, &SoundnessConfig::default()),
            Overlap::Disjoint { .. }
        ));
    }

    #[test]
    fn overlap_budget_zero_is_inconclusive() {
        let a = compile("abc");
        let b = compile("bc");
        let cfg = SoundnessConfig { max_configs: 0 };
        assert_eq!(
            check_overlap(&a, &b, &cfg),
            Overlap::Inconclusive { explored: 0 }
        );
    }

    #[test]
    fn representatives_cover_all_blocks() {
        let ccs = vec![CharClass::single(b'a'), CharClass::from_bytes([b'a', b'b'])];
        let reps = representatives(&ccs);
        // Blocks: {a}, {b}, everything else.
        assert_eq!(reps.len(), 3);
        assert!(reps.contains(&b'a'));
        assert!(reps.contains(&b'b'));
    }
}
