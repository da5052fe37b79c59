//! Multi-LNFA binning (§3.2, §4.3).
//!
//! A *bin* groups up to B chains; every tile hosting the bin is divided
//! into B equal column regions, and chain k occupies region k of each tile
//! it spans (the regex-sliced mapping of Fig. 7(b)). All first states land
//! in the bin's first tile, so the remaining tiles hold no initial state
//! and can be power-gated while idle.
//!
//! The grouping algorithm follows §4.3: sort chains by size, fill the bin
//! with up to B chains, and halve B whenever the next chain no longer fits
//! the per-region capacity, until B = 1.

use crate::plan::{ArrayKind, ArrayPlan, MapperConfig};
use rap_compiler::{CompiledLnfa, MatchPath};

/// A reference to one chain of a compiled LNFA image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainRef {
    /// Pattern index in the workload.
    pub pattern: usize,
    /// Unit index within the pattern's [`CompiledLnfa`].
    pub unit: usize,
    /// Chain length in states.
    pub len: u32,
    /// Columns per state (1 on the CAM path, 2 on the local-switch path).
    pub cols_per_state: u32,
    /// Matching path.
    pub path: MatchPath,
}

impl ChainRef {
    /// Total columns the chain occupies.
    pub fn columns(&self) -> u32 {
        self.len * self.cols_per_state
    }
}

/// A bin of chains mapped regex-sliced over a span of tiles.
#[derive(Clone, Debug, PartialEq)]
pub struct Bin {
    /// Number of regions per tile (the bin size B used for this bin; the
    /// member count may be smaller when the workload runs out of chains).
    pub size: u32,
    /// Columns per region (`tile_columns / size`).
    pub region_columns: u32,
    /// The member chains, one region each.
    pub members: Vec<ChainRef>,
    /// First tile of the span, set during array packing.
    pub first_tile: u32,
    /// Tiles spanned (`⌈max member columns / region_columns⌉`).
    pub tiles: u32,
}

impl Bin {
    /// The tile (relative to `first_tile`) holding state `s` of a member.
    pub fn tile_of_state(&self, member: &ChainRef, state: u32) -> u32 {
        (state * member.cols_per_state) / self.region_columns
    }

    /// Columns actually occupied by members (for utilization; the bin
    /// *allocates* `tiles × tile_columns`).
    pub fn columns_used(&self) -> u64 {
        self.members.iter().map(|m| u64::from(m.columns())).sum()
    }
}

/// Groups chains into bins per §4.3.
///
/// Chains are sorted by size (ascending, so small chains share the largest
/// bins); the bin size starts at `config.bin_size` and halves whenever the
/// next chain exceeds the per-bin span capacity.
pub fn bin_lnfas(chains: &[ChainRef], config: &MapperConfig) -> Vec<Bin> {
    let tile_cols = config.arch.tile_columns;
    let max_span = config.arch.tiles_per_array;
    let mut sorted: Vec<ChainRef> = chains.to_vec();
    sorted.sort_by_key(ChainRef::columns);

    let mut bin_size = config.bin_size.clamp(1, config.arch.max_bin_size);
    let mut bins: Vec<Bin> = Vec::new();
    let mut current: Vec<ChainRef> = Vec::new();

    let fits = |chain: &ChainRef, b: u32| -> bool {
        let region = tile_cols / b;
        region >= chain.cols_per_state && chain.columns().div_ceil(region) <= max_span
    };
    let close = |bins: &mut Vec<Bin>, members: &mut Vec<ChainRef>, _b: u32| {
        if members.is_empty() {
            return;
        }
        // The bin's region count is its *actual* member count (a tile is
        // "divided into multiple regions, with the number of regions
        // matching the number of LNFAs in the bin", §3.2) — an underfilled
        // bin therefore gets wider regions rather than dead ones.
        let b = members.len() as u32;
        let region = tile_cols / b;
        let tiles = members
            .iter()
            .map(|m| m.columns().div_ceil(region))
            .max()
            .expect("non-empty bin");
        bins.push(Bin {
            size: b,
            region_columns: region,
            members: std::mem::take(members),
            first_tile: 0,
            tiles,
        });
    };

    for chain in sorted {
        // Halve the bin size until the chain fits a region span.
        while !fits(&chain, bin_size) && bin_size > 1 {
            close(&mut bins, &mut current, bin_size);
            bin_size /= 2;
        }
        assert!(
            fits(&chain, bin_size),
            "chain of {} columns cannot fit one array even unbinned",
            chain.columns()
        );
        if current.len() as u32 == bin_size {
            close(&mut bins, &mut current, bin_size);
        }
        current.push(chain);
    }
    close(&mut bins, &mut current, bin_size);
    bins
}

/// Bins every chain of the LNFA images, then greedily packs bins into
/// arrays (each bin is "treated as one regex", §4.3).
///
/// LNFA mode stores character classes in *both* memories of a tile (§3.2:
/// "LNFA utilizes both CAM and local switches for storage of CCs, which
/// decreases the area by 2× in theory"): CAM-path bins occupy the CAM
/// columns and switch-path bins occupy the local-switch columns, so bins
/// of the two kinds overlay the same tiles. The packer keeps one tile
/// cursor per resource and an array ends when either resource runs out.
pub(crate) fn pack_lnfa(items: &[(usize, &CompiledLnfa)], config: &MapperConfig) -> Vec<ArrayPlan> {
    let mut cam_chains = Vec::new();
    let mut switch_chains = Vec::new();
    for (pattern, img) in items {
        for (unit_idx, unit) in img.units.iter().enumerate() {
            let chain = ChainRef {
                pattern: *pattern,
                unit: unit_idx,
                len: unit.lnfa.len() as u32,
                cols_per_state: match unit.path {
                    MatchPath::Cam => 1,
                    MatchPath::LocalSwitch => 2,
                },
                path: unit.path,
            };
            match unit.path {
                MatchPath::Cam => cam_chains.push(chain),
                MatchPath::LocalSwitch => switch_chains.push(chain),
            }
        }
    }
    if cam_chains.is_empty() && switch_chains.is_empty() {
        return Vec::new();
    }
    // Balance the two tile memories: any chain can fall back to one-hot
    // switch storage (at 2 columns per state), so when the CAM side is the
    // bottleneck, overflow the smallest CAM chains into the idle switch
    // until the column totals even out. This realizes §3.2's dual use of
    // CAM and local switches for CC storage.
    cam_chains.sort_by_key(|c: &ChainRef| std::cmp::Reverse(c.columns()));
    let mut cam_cols: i64 = cam_chains.iter().map(|c| i64::from(c.columns())).sum();
    let mut switch_cols: i64 = switch_chains.iter().map(|c| i64::from(c.columns())).sum();
    while let Some(chain) = cam_chains.last().copied() {
        // Moving a chain turns `columns()` CAM columns into `2 × len`
        // switch columns; do it only while it shrinks the binding resource
        // max(C, W), which is what determines the tile count.
        let moved_cols = i64::from(chain.len) * 2;
        let before = cam_cols.max(switch_cols);
        let after = (cam_cols - i64::from(chain.columns())).max(switch_cols + moved_cols);
        if after >= before {
            break;
        }
        cam_chains.pop();
        cam_cols -= i64::from(chain.columns());
        switch_cols += moved_cols;
        switch_chains.push(ChainRef {
            cols_per_state: 2,
            path: MatchPath::LocalSwitch,
            ..chain
        });
    }
    // Two independent bin queues, one per tile resource.
    let mut queues = [
        bin_lnfas(&cam_chains, config),
        bin_lnfas(&switch_chains, config),
    ];
    queues[0].reverse(); // pop from the back
    queues[1].reverse();

    let tiles_per_array = config.arch.tiles_per_array;
    let mut arrays: Vec<ArrayPlan> = Vec::new();
    let mut current: Vec<Bin> = Vec::new();
    let mut cursor = [0u32; 2]; // per-resource tile cursors
    let mut columns_used = 0u64;
    let mut close = |current: &mut Vec<Bin>, cursor: &mut [u32; 2], columns_used: &mut u64| {
        if !current.is_empty() {
            arrays.push(ArrayPlan {
                kind: ArrayKind::Lnfa {
                    bins: std::mem::take(current),
                },
                tiles_used: cursor[0].max(cursor[1]),
                columns_used: *columns_used,
            });
        }
        *cursor = [0, 0];
        *columns_used = 0;
    };

    while queues.iter().any(|q| !q.is_empty()) {
        // Fill the resource that is currently shorter, balancing the two
        // cursors so both memories of each tile are used.
        let order = if cursor[0] <= cursor[1] {
            [0, 1]
        } else {
            [1, 0]
        };
        let mut placed = false;
        for r in order {
            let Some(bin) = queues[r].last() else {
                continue;
            };
            if cursor[r] + bin.tiles <= tiles_per_array {
                let mut bin = queues[r].pop().expect("peeked above");
                bin.first_tile = cursor[r];
                cursor[r] += bin.tiles;
                columns_used += bin.columns_used();
                current.push(bin);
                placed = true;
                break;
            }
        }
        if !placed {
            assert!(
                !current.is_empty(),
                "an LNFA bin exceeds a whole array; the compiler capacity \
                 check should have rejected it"
            );
            close(&mut current, &mut cursor, &mut columns_used);
        }
    }
    close(&mut current, &mut cursor, &mut columns_used);
    arrays
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_compiler::{Compiled, Compiler, CompilerConfig};

    fn chain(pattern: usize, len: u32) -> ChainRef {
        ChainRef {
            pattern,
            unit: 0,
            len,
            cols_per_state: 1,
            path: MatchPath::Cam,
        }
    }

    fn cfg(bin: u32) -> MapperConfig {
        MapperConfig {
            bin_size: bin,
            ..MapperConfig::default()
        }
    }

    #[test]
    fn small_chains_fill_one_bin() {
        let chains: Vec<ChainRef> = (0..8).map(|i| chain(i, 10)).collect();
        let bins = bin_lnfas(&chains, &cfg(8));
        assert_eq!(bins.len(), 1);
        assert_eq!(bins[0].size, 8);
        assert_eq!(bins[0].region_columns, 16);
        assert_eq!(bins[0].members.len(), 8);
        assert_eq!(bins[0].tiles, 1); // 10 cols < 16-col region
    }

    #[test]
    fn bin_overflow_opens_next_bin() {
        let chains: Vec<ChainRef> = (0..10).map(|i| chain(i, 10)).collect();
        let bins = bin_lnfas(&chains, &cfg(8));
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[0].members.len(), 8);
        assert_eq!(bins[1].members.len(), 2);
    }

    #[test]
    fn big_chain_halves_bin_size() {
        // Region at B=8 is 16 columns → span limit 16 tiles = 256 columns.
        // A 300-column chain needs B=4 (32-column regions).
        let mut chains: Vec<ChainRef> = (0..4).map(|i| chain(i, 10)).collect();
        chains.push(chain(99, 300));
        let bins = bin_lnfas(&chains, &cfg(8));
        // Small chains grouped first (sorted ascending), then the big one
        // alone; the closed bins size themselves to their member counts.
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[0].size, 4);
        let big = &bins[1];
        assert_eq!(big.members.len(), 1);
        assert_eq!(big.size, 1);
        assert_eq!(big.region_columns, 128);
        assert_eq!(big.tiles, 300u32.div_ceil(128));
    }

    #[test]
    fn switch_path_chains_cost_two_columns() {
        let c = ChainRef {
            pattern: 0,
            unit: 0,
            len: 20,
            cols_per_state: 2,
            path: MatchPath::LocalSwitch,
        };
        let bins = bin_lnfas(&[c], &cfg(4));
        assert_eq!(bins[0].members[0].columns(), 40);
        assert_eq!(bins[0].region_columns, 128);
        assert_eq!(bins[0].tiles, 1);
    }

    #[test]
    fn tile_of_state_regions() {
        // Four equal chains → four regions of 32 columns each.
        let chains: Vec<ChainRef> = (0..4).map(|i| chain(i, 40)).collect();
        let bins = bin_lnfas(&chains, &cfg(4));
        let bin = &bins[0];
        assert_eq!(bin.size, 4);
        assert_eq!(bin.region_columns, 32);
        let member = bin.members[0];
        assert_eq!(bin.tile_of_state(&member, 0), 0);
        assert_eq!(bin.tile_of_state(&member, 31), 0);
        assert_eq!(bin.tile_of_state(&member, 32), 1);
        assert_eq!(bin.tile_of_state(&member, 39), 1);
    }

    #[test]
    fn end_to_end_lnfa_packing() {
        let compiler = Compiler::new(CompilerConfig::default());
        let imgs: Vec<CompiledLnfa> = ["abc", "defg", "h(i|j)k", "lmnopqrst"]
            .iter()
            .map(|p| match compiler.compile_str(p).expect("compiles") {
                Compiled::Lnfa(img) => img,
                other => panic!("{p} → {:?}", other.mode()),
            })
            .collect();
        let items: Vec<(usize, &CompiledLnfa)> = imgs.iter().enumerate().collect();
        let arrays = pack_lnfa(&items, &cfg(4));
        assert_eq!(arrays.len(), 1);
        match &arrays[0].kind {
            ArrayKind::Lnfa { bins } => {
                let total: usize = bins.iter().map(|b| b.members.len()).sum();
                assert_eq!(total, 5); // h(i|j)k contributes two chains
                                      // Bins laid out back to back *per memory resource* (CAM
                                      // bins and switch bins overlay the same tiles).
                let mut cursor = [0u32; 2];
                for b in bins {
                    let r = usize::from(b.members[0].path == MatchPath::LocalSwitch);
                    assert_eq!(b.first_tile, cursor[r]);
                    cursor[r] += b.tiles;
                }
                assert_eq!(arrays[0].tiles_used, cursor[0].max(cursor[1]));
                // The rebalancer pushed some chains onto the idle switch.
                assert!(cursor[1] > 0, "switch resource unused");
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn bins_spanning_arrays_split() {
        // 20 bins of 1 tile each at B=1 → two arrays of 16 tiles max.
        let chains: Vec<ChainRef> = (0..20).map(|i| chain(i, 100)).collect();
        let bins = bin_lnfas(&chains, &cfg(1));
        assert_eq!(bins.len(), 20);
        // Pack through the public path.
        let config = cfg(1);
        let tiles_total: u32 = bins.iter().map(|b| b.tiles).sum();
        assert!(tiles_total > config.arch.tiles_per_array);
    }
}
