//! NBVA compilation (§4.1): unfolding, bounded-repetition rewriting,
//! tile-capacity splitting, and bit-vector allocation.

use crate::{CompileError, CompilerConfig};
use rap_arch::encoding::column_count;
use rap_automata::nbva::{Nbva, ReadAction, StateKind};
use rap_regex::rewrite::{split_bounded, unfold_below_threshold};
use rap_regex::{CharClass, Regex};

/// Bit-vector storage allocated to one NBVA state (row-first mapping of
/// §3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BvAlloc {
    /// Bit-vector width in bits (the repetition bound).
    pub width_bits: u32,
    /// CAM rows used per column — the BV depth.
    pub depth: u32,
    /// CAM columns occupied by the vector (`⌈width/depth⌉`).
    pub columns: u32,
    /// Read action exposed to successors.
    pub read: ReadAction,
}

/// A regex compiled for NBVA mode.
#[derive(Clone, Debug)]
pub struct CompiledNbva {
    /// The automaton (bit-vector semantics included).
    pub nbva: Nbva,
    /// BV depth every vector of this regex uses.
    pub depth: u32,
    /// Per-state CAM columns: CC codes, plus for BV states one initial
    /// vector column and the BV storage columns.
    pub state_columns: Vec<u32>,
    /// Per-state bit-vector allocation (`None` for plain states).
    pub bv_allocs: Vec<Option<BvAlloc>>,
}

impl CompiledNbva {
    /// Total CAM columns of the image.
    pub fn total_columns(&self) -> u64 {
        self.state_columns.iter().map(|&c| u64::from(c)).sum()
    }

    /// Total bit-vector bits stored.
    pub fn bv_bits(&self) -> u64 {
        self.bv_allocs
            .iter()
            .flatten()
            .map(|a| u64::from(a.width_bits))
            .sum()
    }

    /// Number of bit-vector states.
    pub fn bv_states(&self) -> usize {
        self.bv_allocs.iter().flatten().count()
    }
}

/// Compiles a regex for NBVA mode at the configured depth and threshold.
pub(crate) fn compile(
    regex: &Regex,
    config: &CompilerConfig,
) -> Result<CompiledNbva, CompileError> {
    let depth = config.bv_depth;
    // Reject an invalid depth before rewriting: fit_to_tile sizes tile
    // budgets as `columns × depth`, which degenerates at depth 0.
    config.arch.try_bv_columns(0, depth)?;
    // §4.1 pipeline: unfold small/complex repetitions, split r{m,n} into
    // r{m}·r{0,n−m}, then split repetitions too wide for one tile
    // (Example 4.3's dichotomic search reduces to this closed form).
    let rewritten = split_bounded(&unfold_below_threshold(regex, config.unfold_threshold));
    let fitted = fit_to_tile(&rewritten, depth, config)?;
    let nbva = Nbva::from_regex(&fitted, config.unfold_threshold);
    if nbva.is_empty() {
        return Err(CompileError::EmptyLanguageOrEpsilon);
    }

    let mut state_columns = Vec::with_capacity(nbva.len());
    let mut bv_allocs = Vec::with_capacity(nbva.len());
    for state in nbva.states() {
        let cc_cols = column_count(&state.cc);
        match state.kind {
            StateKind::Plain => {
                state_columns.push(cc_cols);
                bv_allocs.push(None);
            }
            StateKind::Bv { width, read } => {
                let columns = config.arch.try_bv_columns(width, depth)?;
                // CC codes + one initial-vector column (set1) + BV storage.
                state_columns.push(cc_cols + 1 + columns);
                bv_allocs.push(Some(BvAlloc {
                    width_bits: width,
                    depth,
                    columns,
                    read,
                }));
            }
        }
    }
    let compiled = CompiledNbva {
        nbva,
        depth,
        state_columns,
        bv_allocs,
    };

    // Per-state fit (must hold by construction) and whole-array capacity.
    let tile_cols = u64::from(config.arch.tile_columns);
    for (i, &cols) in compiled.state_columns.iter().enumerate() {
        assert!(
            u64::from(cols) <= tile_cols,
            "state {i} needs {cols} columns after fitting (> {tile_cols})"
        );
    }
    let capacity = u64::from(config.arch.states_per_array());
    let columns = compiled.total_columns();
    if columns > capacity {
        return Err(CompileError::TooLarge {
            states: columns,
            capacity,
        });
    }
    Ok(compiled)
}

/// Splits every surviving repetition whose bit vector cannot fit a single
/// tile into a chain of smaller repetitions (Example 4.3:
/// `a{1024}` at depth 4 → `a{504}a{504}a{16}`).
///
/// The split is exact for both shapes: `σ{m} ≡ σ{k}·σ{m−k}` and
/// `σ{0,n} ≡ σ{0,k}·σ{0,n−k}`.
///
/// Returns [`CompileError::BvCapacity`] when the per-tile capacity for the
/// repetition's class is zero — no split can fit, and looping on a zero
/// step would otherwise never terminate.
fn fit_to_tile(regex: &Regex, depth: u32, config: &CompilerConfig) -> Result<Regex, CompileError> {
    Ok(match regex {
        Regex::Empty | Regex::Class(_) => regex.clone(),
        Regex::Concat(parts) => Regex::concat(
            parts
                .iter()
                .map(|p| fit_to_tile(p, depth, config))
                .collect::<Result<_, _>>()?,
        ),
        Regex::Alt(parts) => Regex::alt(
            parts
                .iter()
                .map(|p| fit_to_tile(p, depth, config))
                .collect::<Result<_, _>>()?,
        ),
        Regex::Star(inner) => Regex::star(fit_to_tile(inner, depth, config)?),
        Regex::Plus(inner) => Regex::plus(fit_to_tile(inner, depth, config)?),
        Regex::Opt(inner) => Regex::opt(fit_to_tile(inner, depth, config)?),
        Regex::Repeat { inner, min, max } => {
            let body = fit_to_tile(inner, depth, config)?;
            let (cc, n) = match (&body, max) {
                (Regex::Class(cc), Some(n)) => (*cc, *n),
                // Non-class or unbounded repetitions were already unfolded
                // by the earlier rewriting passes.
                _ => return Ok(Regex::repeat(body, *min, *max)),
            };
            let max_bits = max_bits_per_tile(&cc, depth, config);
            if n <= max_bits {
                return Ok(Regex::repeat(body, *min, *max));
            }
            if max_bits == 0 {
                return Err(CompileError::BvCapacity {
                    width: n,
                    capacity: 0,
                });
            }
            let mut parts = Vec::new();
            let mut remaining = n;
            while remaining > 0 {
                let k = remaining.min(max_bits);
                let piece_min = if *min == n { k } else { 0 };
                parts.push(Regex::repeat(Regex::Class(cc), piece_min, Some(k)));
                remaining -= k;
            }
            Regex::concat(parts)
        }
    })
}

/// Largest repetition bound of class `cc` whose image (CC codes + initial
/// vector column + BV columns) fits one tile at the given depth.
fn max_bits_per_tile(cc: &CharClass, depth: u32, config: &CompilerConfig) -> u32 {
    let cc_cols = column_count(cc).max(1);
    let available = config.arch.tile_columns.saturating_sub(cc_cols + 1);
    let cam_limit = available * depth;
    match config.bv_bits_cap {
        Some(cap) => cam_limit.min(cap),
        None => cam_limit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_automata::nfa::Nfa;
    use rap_regex::parse;

    fn cfg(depth: u32) -> CompilerConfig {
        CompilerConfig {
            bv_depth: depth,
            ..CompilerConfig::default()
        }
    }

    #[test]
    fn invalid_depth_is_an_error_not_a_panic() {
        let regex = parse("x{100}y").expect("parses");
        for depth in [0, 64] {
            let err = compile(&regex, &cfg(depth)).expect_err("bad depth");
            assert!(matches!(err, CompileError::BadBvDepth(_)), "{err}");
        }
    }

    fn compile_str(pattern: &str, depth: u32) -> CompiledNbva {
        compile(&parse(pattern).expect("parses"), &cfg(depth)).expect("compiles")
    }

    #[test]
    fn zero_bv_capacity_is_a_typed_error() {
        // With a 0-bit cap no split of x{100} can ever fit a tile; this
        // used to loop forever on a zero-sized split step.
        let regex = parse("x{100}y").expect("parses");
        let config = CompilerConfig {
            bv_bits_cap: Some(0),
            ..cfg(4)
        };
        let err = compile(&regex, &config).expect_err("unencodable repetition");
        assert!(
            matches!(
                err,
                CompileError::BvCapacity {
                    width: 100,
                    capacity: 0
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn fig5_allocation() {
        // b(a{7}|c{5})b at depth 4: a{7} → 2 columns, c{5} → 2 columns.
        let c = compile_str("b(a{7}|c{5})b", 4);
        assert_eq!(c.nbva.len(), 4);
        assert_eq!(c.bv_states(), 2);
        let widths: Vec<u32> = c.bv_allocs.iter().flatten().map(|a| a.columns).collect();
        assert_eq!(widths, vec![2, 2]);
        // Each BV state: 1 CC + 1 init + 2 BV = 4 columns.
        assert_eq!(c.state_columns, vec![1, 4, 4, 1]);
    }

    #[test]
    fn example_4_2_widths() {
        // ab{10,48}cd{34}ef{128} at depth 16.
        let c = compile_str("ab{10,48}cd{34}ef{128}", 16);
        let allocs: Vec<BvAlloc> = c.bv_allocs.iter().flatten().copied().collect();
        // b{10} (r(10)), b{0,38} (rAll), d{34} (r(34)), f{128} (r(128)).
        assert_eq!(allocs.len(), 4);
        assert_eq!(allocs[0].read, ReadAction::Exact(10));
        assert_eq!(allocs[1].read, ReadAction::All);
        assert_eq!(allocs[1].width_bits, 38);
        assert_eq!(allocs[3].columns, 8); // 128/16
    }

    #[test]
    fn example_4_3_tile_splitting() {
        // a{1024} at depth 4 splits into 504 + 504 + 16.
        let c = compile_str("a{1024}bc{0,16}", 4);
        let widths: Vec<u32> = c.bv_allocs.iter().flatten().map(|a| a.width_bits).collect();
        assert_eq!(widths, vec![504, 504, 16, 16]);
        // Semantics preserved.
        let re = parse("a{1024}bc{0,16}").expect("parses");
        let mut input = vec![b'a'; 1024];
        input.push(b'b');
        input.extend_from_slice(b"cc");
        assert_eq!(
            c.nbva.match_ends(&input),
            Nfa::from_regex(&re).match_ends(&input)
        );
    }

    #[test]
    fn split_preserves_language_on_exact_boundary() {
        let c = compile_str("a{1008}", 4); // exactly two 504-bit tiles
        let widths: Vec<u32> = c.bv_allocs.iter().flatten().map(|a| a.width_bits).collect();
        assert_eq!(widths, vec![504, 504]);
        let input = vec![b'a'; 1008];
        assert_eq!(c.nbva.match_ends(&input), vec![1008]);
        assert!(c.nbva.match_ends(&input[..1007]).is_empty());
    }

    #[test]
    fn per_state_columns_respect_tile() {
        let c = compile_str("a{1024}bc{0,16}", 4);
        assert!(c.state_columns.iter().all(|&cols| cols <= 128));
        // a{504}: 1 CC + 1 init + 126 BV = 128 (Example 4.3's arithmetic).
        assert_eq!(c.state_columns[0], 128);
    }

    #[test]
    fn depth_trades_columns_for_latency() {
        let deep = compile_str("x{64}y", 32);
        let shallow = compile_str("x{64}y", 4);
        let cols = |c: &CompiledNbva| c.bv_allocs.iter().flatten().next().map(|a| a.columns);
        assert_eq!(cols(&deep), Some(2));
        assert_eq!(cols(&shallow), Some(16));
    }

    #[test]
    fn bv_bits_accounting() {
        let c = compile_str("ab{10,48}c", 8);
        assert_eq!(c.bv_bits(), 48);
        assert_eq!(c.bv_states(), 2);
    }

    #[test]
    fn small_rep_below_threshold_has_no_bvs() {
        let c = compile_str("a{3}b{200}", 4);
        // a{3} unfolds; b{200} keeps a BV.
        assert_eq!(c.bv_states(), 1);
        assert_eq!(c.nbva.len(), 4); // a a a b{200}
    }
}
