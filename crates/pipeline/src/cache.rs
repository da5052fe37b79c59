//! Content addressing for compile artifacts: keys, stable hashing, and
//! the in-memory plan cache they address.
//!
//! Compile products are keyed by a *stable* hash of everything that
//! determines them: the pattern sources, the target machine, the forced
//! mode (if any), and every field of the compiler and mapper
//! configurations. The hash is FNV-1a/128 computed over an explicit field
//! serialization — independent of `std::hash::Hash` (whose output is not
//! guaranteed stable across releases) and of struct layout.

use rap_compiler::CompilerConfig;
use rap_mapper::MapperConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A 128-bit content address identifying one compile product.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub u128);

/// Streaming FNV-1a hasher over 128 bits, stable across platforms and
/// releases.
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u128,
}

const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> StableHasher {
        StableHasher { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `u32` in little-endian byte order.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `f64` via its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a length-prefixed string (prefixing prevents concatenation
    /// ambiguity between adjacent fields).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Absorbs an optional `u32` with a presence tag.
    pub fn write_opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.write(&[0]),
            Some(v) => {
                self.write(&[1]);
                self.write_u32(v);
            }
        }
    }

    /// Finalizes into a cache key.
    pub fn finish(&self) -> CacheKey {
        CacheKey(self.state)
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

/// Absorbs every compile- and map-determining configuration field.
pub(crate) fn hash_configs(h: &mut StableHasher, compiler: &CompilerConfig, mapper: &MapperConfig) {
    h.write_u32(compiler.unfold_threshold);
    h.write_u32(compiler.bv_depth);
    h.write_f64(compiler.lnfa_expand_factor);
    h.write_opt_u32(compiler.bv_bits_cap);
    for arch in [&compiler.arch, &mapper.arch] {
        h.write_u32(arch.cam_rows);
        h.write_u32(arch.tile_columns);
        h.write_u32(arch.tiles_per_array);
        h.write_u32(arch.arrays_per_bank);
        h.write_u32(arch.global_ports_per_tile);
        h.write_u32(arch.max_bin_size);
        h.write_u32(arch.ring_width_bits);
        h.write_u32(arch.bank_input_entries);
        h.write_u32(arch.array_input_entries);
        h.write_u32(arch.bank_output_entries);
        h.write_u32(arch.array_output_entries);
        h.write_f64(arch.tile_wire_mm);
        h.write_f64(arch.ring_hop_mm);
    }
    h.write_u32(mapper.bin_size);
    match mapper.bvm {
        None => h.write(&[0]),
        Some(bvm) => {
            h.write(&[1]);
            h.write_u32(bvm.slot_bits);
            h.write_u32(bvm.slots_per_tile);
        }
    }
    h.write(&[u8::from(mapper.validate)]);
}

/// Derives the content address of an *analyzed* compile product from the
/// base compile key: the analyzer options determine the output images
/// (prune rewrites them), so they are part of the artifact's identity.
pub(crate) fn analysis_key(base: CacheKey, options: &rap_analyze::AnalyzeOptions) -> CacheKey {
    let mut h = StableHasher::new();
    h.write(&base.0.to_le_bytes());
    h.write_str("analyze");
    h.write(&[u8::from(options.prune)]);
    match options.soundness {
        None => h.write(&[0]),
        Some(cfg) => {
            h.write(&[1]);
            h.write_u64(cfg.max_configs as u64);
        }
    }
    h.finish()
}

/// Derives the content address of a *bounded* plan from the verified
/// plan's key: the bound options determine the attached bound analysis,
/// so they are part of the artifact's identity.
pub(crate) fn bounds_key(base: CacheKey, options: &rap_bound::BoundOptions) -> CacheKey {
    let mut h = StableHasher::new();
    h.write(&base.0.to_le_bytes());
    h.write_str("bound");
    match options.equivalence {
        None => h.write(&[0]),
        Some(cfg) => {
            h.write(&[1]);
            h.write_u64(cfg.max_configs as u64);
        }
    }
    h.finish()
}

/// Derives the content address of a *composed* (multi-tenant) plan from
/// the tenants' verified-plan keys. The pairs are hashed sorted by
/// tenant name — admission canonicalizes the same way, so any
/// permutation of one tenant set addresses one artifact. The admission
/// options are deliberately absent: they decide the verdict, not the
/// merged artifact's content.
pub(crate) fn compose_key(parts: &[(&str, CacheKey)]) -> CacheKey {
    let mut sorted: Vec<&(&str, CacheKey)> = parts.iter().collect();
    sorted.sort();
    let mut h = StableHasher::new();
    h.write_str("admit");
    h.write_u64(sorted.len() as u64);
    for (name, key) in sorted {
        h.write_str(name);
        h.write(&key.0.to_le_bytes());
    }
    h.finish()
}

/// Derives the content address of a post-swap composed plan from the
/// resident composition's key and the replacement tenant. Unlike
/// [`compose_key`] this is order-*sensitive*: the certificate pins the
/// replacement to the outgoing tenant's pattern window and match-ID
/// base, so swapping different tenants of the same resident set yields
/// different artifacts.
pub(crate) fn swap_key(
    resident: CacheKey,
    outgoing: &str,
    incoming_name: &str,
    incoming: CacheKey,
) -> CacheKey {
    let mut h = StableHasher::new();
    h.write_str("swap");
    h.write(&resident.0.to_le_bytes());
    h.write_str(outgoing);
    h.write_str(incoming_name);
    h.write(&incoming.0.to_le_bytes());
    h.finish()
}

/// Running hit/miss totals for one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build the artifact.
    pub misses: u64,
}

/// One key's build cell: empty until its artifact is built.
type BuildCell<T> = Arc<Mutex<Option<Arc<T>>>>;

/// The in-memory, content-addressed build-once cache.
///
/// An outer lock resolves the key to a per-key build cell, and the
/// cell's own lock serializes construction, so two workers racing on the
/// *same* key build the artifact exactly once while workers on
/// *different* keys build concurrently.
#[derive(Debug)]
pub struct PlanCache<T> {
    cells: Mutex<HashMap<CacheKey, BuildCell<T>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<T> Default for PlanCache<T> {
    fn default() -> PlanCache<T> {
        PlanCache::new()
    }
}

impl<T> PlanCache<T> {
    /// An empty cache.
    pub fn new() -> PlanCache<T> {
        PlanCache {
            cells: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the artifact for `key`, running `build` on a miss.
    ///
    /// Concurrent callers with the same key build once — the losers
    /// wait on the per-key cell and receive the winner's artifact,
    /// counted as hits. Failed builds are not cached, so a later retry
    /// runs `build` again.
    ///
    /// # Errors
    ///
    /// Propagates the error returned by `build`.
    pub fn get_or_build<E>(
        &self,
        key: CacheKey,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        let cell = {
            let mut cells = self.cells.lock().expect("cache lock poisoned");
            Arc::clone(cells.entry(key).or_default())
        };
        let mut slot = cell.lock().expect("cache cell lock poisoned");
        if let Some(artifact) = slot.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(artifact));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let artifact = Arc::new(build()?);
        *slot = Some(Arc::clone(&artifact));
        Ok(artifact)
    }

    /// Running hit/miss totals.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors_are_stable() {
        // Bit-for-bit stability is the whole point: pin two vectors.
        let mut h = StableHasher::new();
        h.write(b"");
        assert_eq!(h.finish().0, FNV_OFFSET);
        let mut h = StableHasher::new();
        h.write(b"a");
        assert_eq!(h.finish().0, 0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964);
    }

    #[test]
    fn length_prefix_disambiguates() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn compose_key_is_order_insensitive() {
        let fwd = compose_key(&[("alpha", CacheKey(1)), ("bravo", CacheKey(2))]);
        let rev = compose_key(&[("bravo", CacheKey(2)), ("alpha", CacheKey(1))]);
        assert_eq!(fwd, rev);
        // ...but sensitive to the actual tenants and their plans.
        assert_ne!(fwd, compose_key(&[("alpha", CacheKey(1))]));
        assert_ne!(
            fwd,
            compose_key(&[("alpha", CacheKey(3)), ("bravo", CacheKey(2))])
        );
        assert_ne!(
            fwd,
            compose_key(&[("alpha", CacheKey(1)), ("charlie", CacheKey(2))])
        );
    }

    #[test]
    fn plan_cache_builds_once_per_key() {
        let cache: PlanCache<u32> = PlanCache::new();
        let key = CacheKey(7);
        let a = cache.get_or_build(key, || Ok::<_, ()>(41)).expect("builds");
        let b = cache
            .get_or_build(key, || -> Result<u32, ()> { panic!("must not rebuild") })
            .expect("cached");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn failed_builds_are_retried() {
        let cache: PlanCache<u32> = PlanCache::new();
        let key = CacheKey(9);
        assert!(cache.get_or_build(key, || Err::<u32, _>("boom")).is_err());
        let v = cache.get_or_build(key, || Ok::<_, ()>(5)).expect("builds");
        assert_eq!(*v, 5);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
    }
}
