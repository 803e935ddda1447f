//! Memoized prediction cache for the trained predictor's hot query
//! families.
//!
//! The control plane's searches — the §V-B binary search, the O(N⁴)
//! exhaustive oracle and the balancer's candidate probes — all re-query
//! the same small resource lattice:
//! `(cores, freq-step, ways)` spans only a few thousand points per
//! partition, and within one control interval the load is a single value.
//! Every query still pays `Box<dyn Regressor>` dispatch plus a full KNN /
//! tree evaluation. This module memoizes the answers behind an exact
//! key so repeated lattice points cost a hash lookup instead.
//!
//! Keys are exact: `cores` and `ways` are integers, `freq_ghz` comes
//! from the discrete [`NodeSpec`](sturgeon_simnode::NodeSpec) frequency
//! table (bit-identical per level), and `qps` is keyed bit for bit. The
//! cache can therefore never change a result, only its cost — the
//! oracle-equivalence test in `tests/integration_predictor.rs` locks that
//! in.
//!
//! A lookup costs far less than the model query it saves, so hashing
//! is a visible share of it. Keys are hashed by `KeyHasher`, a
//! deterministic multiply-rotate fold of the key's five fields: the same
//! hash picks the shard and is the shard maps' `BuildHasher`, so a
//! lookup hashes with a few multiplies rather than std's SipHash.
//!
//! The cache is `Send + Sync` (sharded `parking_lot::Mutex` maps) so the
//! parallel sweeps of the search layer can share one instance across
//! worker threads. It keeps no counters of its own: hits and misses go to
//! the per-thread `QueryMeter`, which no other thread can disturb.
//!
//! [`FrontierCache`] is the pruned search engine's cross-interval memo
//! of whole search outcomes.

use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use sturgeon_simnode::PairConfig;

/// The four memoized query families of the predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// `ls_feasible` — the QoS classifier plus latency veto (bool as 0/1).
    LsFeasible,
    /// `ls_power_w` — LS partition power, margin included.
    LsPower,
    /// `be_throughput` — normalized BE throughput.
    BeThroughput,
    /// `be_power_w` — BE partition power, margin included.
    BePower,
}

/// Exact cache key. `freq_bits`/`qps_bits` are `f64::to_bits` images,
/// so lookup equality is exact and `NaN` never reaches a key (query
/// paths pass finite values only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    family: Family,
    cores: u32,
    freq_bits: u64,
    ways: u32,
    qps_bits: u64,
}

/// Multiplier of [`KeyHasher`]: odd, so multiplying by it is a bijection.
const KEY_MUL: u64 = 0xf135_7aea_2e62_a9c5;

/// The prediction cache's hasher: each word is folded in as
/// `h = (h.rotate_left(5) ^ word) · KEY_MUL`. Every step is a bijection of
/// `h` for a fixed word and of the word for a fixed `h`, so two keys that
/// differ in one field always hash differently. The derived `Hash` of
/// [`Key`] writes five words, so hashing a key costs five multiplies.
/// Deterministic: no per-process seed.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(KEY_MUL);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    /// Also takes the enum discriminant, which `write_isize` forwards.
    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// The product's high bits mix every input bit; the rotation moves
    /// them down to the low bits a hash table indexes its buckets with.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A shard's memo table, hashed with [`KeyHasher`].
type ShardMap = HashMap<Key, f64, BuildHasherDefault<KeyHasher>>;

/// Per-thread query counters: `calls` advanced by every counted
/// prediction query, `hits`/`misses` by every memo-cache lookup. A
/// search reads its own thread's meter before and after, so its
/// `SearchStats` count exactly its own queries whatever other threads
/// do with the same predictor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct QueryMeter {
    pub(crate) calls: u64,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

thread_local! {
    static METER: Cell<QueryMeter> = const {
        Cell::new(QueryMeter { calls: 0, hits: 0, misses: 0 })
    };
}

impl QueryMeter {
    /// This thread's running totals.
    pub(crate) fn current() -> Self {
        METER.with(Cell::get)
    }

    /// The queries this thread issued since `start` was read.
    pub(crate) fn since(start: Self) -> Self {
        let now = Self::current();
        Self {
            calls: now.calls - start.calls,
            hits: now.hits - start.hits,
            misses: now.misses - start.misses,
        }
    }

    /// Advances this thread's meter.
    pub(crate) fn bump(f: impl FnOnce(&mut Self)) {
        METER.with(|m| {
            let mut v = m.get();
            f(&mut v);
            m.set(v);
        });
    }
}

impl std::ops::Add for QueryMeter {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self {
            calls: self.calls + rhs.calls,
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
        }
    }
}

/// Number of independently locked shards. Power of two so the shard index
/// is a mask of the key hash; 16 keeps contention negligible for the
/// worker counts the rayon sweeps use.
const SHARDS: usize = 16;

/// Where the shard index sits in a [`KeyHasher`] hash: the four bits
/// under the rotated-in product high bits (`finish` puts the product's
/// top four bits at 22..26). A shard map indexes buckets with the low
/// bits and tags them with the top seven, so neither is constant across
/// a shard until a shard outgrows 2²² buckets.
const SHARD_SHIFT: u32 = 22;

/// The shard `key` lives in.
fn shard_index(key: &Key) -> usize {
    let hash = BuildHasherDefault::<KeyHasher>::default().hash_one(key);
    (hash >> SHARD_SHIFT) as usize & (SHARDS - 1)
}

/// A sharded, thread-safe memo table from exact query keys to
/// predicted values. Hits and misses are counted per thread
/// (`QueryMeter`), so each search reports its own.
pub struct PredictionCache {
    shards: Vec<Mutex<ShardMap>>,
    enabled: AtomicBool,
}

impl std::fmt::Debug for PredictionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictionCache")
            .field("entries", &self.len())
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for PredictionCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PredictionCache {
    /// An empty, enabled cache.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(ShardMap::default()))
                .collect(),
            enabled: AtomicBool::new(true),
        }
    }

    /// Turns memoization on or off. Disabled, every lookup computes and
    /// neither meters nor tables are touched — the uncached baseline for
    /// the Criterion benches.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether lookups consult the memo tables.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn shard_of(&self, key: &Key) -> &Mutex<ShardMap> {
        &self.shards[shard_index(key)]
    }

    /// Returns the memoized value for the query, computing and
    /// inserting it on a miss. With the cache disabled this is exactly
    /// `compute()`.
    pub fn get_or_compute(
        &self,
        family: Family,
        cores: u32,
        freq_ghz: f64,
        ways: u32,
        qps: f64,
        compute: impl FnOnce() -> f64,
    ) -> f64 {
        if !self.is_enabled() {
            return compute();
        }
        let key = Key {
            family,
            cores,
            freq_bits: freq_ghz.to_bits(),
            ways,
            qps_bits: qps.to_bits(),
        };
        let shard = self.shard_of(&key);
        if let Some(&v) = shard.lock().get(&key) {
            QueryMeter::bump(|m| m.hits += 1);
            return v;
        }
        // The lock is dropped during compute(): a concurrent worker may
        // recompute the same key, but both arrive at the same value (the
        // models are deterministic), so last-write-wins is harmless and
        // the search threads never serialize on model evaluation.
        let v = compute();
        shard.lock().insert(key, v);
        QueryMeter::bump(|m| m.misses += 1);
        v
    }

    /// Drops every memoized entry. Must be called whenever the underlying
    /// models change (retraining); the per-thread meters keep counting
    /// across invalidations.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// Number of memoized entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Everything the latticed pruned search's outcome depends on, for one
/// predictor and node spec: `ConfigSearch::pruned` is bit-identical to the
/// envelope oracle `ConfigSearch::exhaustive_latticed`, which reads the
/// load only through its slab bracket, the budget only through the
/// guarded budget, and the search space only through the `C1`/`L1`
/// limits. Two searches with equal keys therefore return the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BracketKey {
    /// Predictor training generation (bumped by every retrain).
    pub(crate) generation: u64,
    /// `(budget · (1 − power_guard)).to_bits()`.
    pub(crate) guarded_budget_bits: u64,
    /// `power_load_headroom.to_bits()`, baked into the slab power rows.
    pub(crate) headroom_bits: u64,
    /// Largest LS core count searched.
    pub(crate) max_c1: u32,
    /// Largest LS way count searched.
    pub(crate) max_l1: u32,
    /// The load's slab bracket `(k_lo, k_hi)`.
    pub(crate) bracket: (u64, u64),
}

/// A stored search outcome: the best configuration and its predicted BE
/// throughput, or `None` when nothing was feasible.
type MemoOutcome = Option<(PairConfig, f64)>;

/// Cross-interval memo for the pruned search engine: exact outcomes keyed
/// by everything a latticed search reads — predictor generation, guarded
/// budget, power-load headroom, `C1`/`L1` limits and the load's slab
/// bracket.
///
/// The steady-state control path re-searches at loads that drift a few
/// per mille per interval, so most searches land in a slab bracket they
/// have already solved under the same budget. Because the key holds every
/// input the outcome depends on, a hit is the search's answer — not a
/// hint to revalidate — and a memo can never change a result, only its
/// cost. A cache serves one predictor and node spec (the controller owns
/// one per node); a retrain moves the generation, so old entries simply
/// stop matching.
#[derive(Debug, Default)]
pub struct FrontierCache {
    outcomes: Mutex<HashMap<BracketKey, MemoOutcome>>,
    reuses: AtomicU64,
}

/// Bound on stored outcomes; a control loop visits far fewer distinct
/// brackets and budgets, so hitting it means the budget churns every
/// interval — wipe and restart rather than grow without limit.
const FRONTIER_CAP: usize = 256;

impl FrontierCache {
    /// The outcome stored under `key`, counting the hit as a reuse.
    pub(crate) fn get(&self, key: &BracketKey) -> Option<MemoOutcome> {
        let hit = self.outcomes.lock().get(key).copied();
        if hit.is_some() {
            self.reuses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Stores the outcome of a search under `key`.
    pub(crate) fn insert(&self, key: BracketKey, outcome: MemoOutcome) {
        let mut outcomes = self.outcomes.lock();
        if outcomes.len() >= FRONTIER_CAP {
            outcomes.clear();
        }
        outcomes.insert(key, outcome);
    }

    /// Stored outcomes.
    pub fn len(&self) -> usize {
        self.outcomes.lock().len()
    }

    /// True when no outcome is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Outcomes handed back to a searcher since construction.
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use sturgeon_simnode::{Allocation, NodeSpec};

    fn hash(key: &Key) -> u64 {
        BuildHasherDefault::<KeyHasher>::default().hash_one(key)
    }

    #[test]
    fn search_lattice_keys_spread_over_the_shards() {
        // The keys one search issues: every family over the node's
        // (cores, freq level, ways) lattice at a single load.
        let spec = NodeSpec::xeon_e5_2630_v4();
        let families = [
            Family::LsFeasible,
            Family::LsPower,
            Family::BeThroughput,
            Family::BePower,
        ];
        let mut per_shard = [0usize; SHARDS];
        let mut keys = 0;
        for family in families {
            for cores in 1..=spec.total_cores {
                for level in 0..spec.freq_level_count() {
                    for ways in 0..=spec.total_llc_ways {
                        let key = Key {
                            family,
                            cores,
                            freq_bits: spec.freq_ghz(level).to_bits(),
                            ways,
                            qps_bits: 12_345.0f64.to_bits(),
                        };
                        per_shard[shard_index(&key)] += 1;
                        keys += 1;
                    }
                }
            }
        }
        let used = per_shard.iter().filter(|&&n| n > 0).count();
        assert!(used >= 8, "{keys} keys in {used} shards: {per_shard:?}");
        let fullest = per_shard.iter().max().unwrap();
        assert!(
            4 * fullest <= keys,
            "one shard holds {fullest} of {keys} keys"
        );
    }

    #[test]
    fn keys_differing_in_one_field_stay_distinct() {
        let base = Key {
            family: Family::LsPower,
            cores: 8,
            freq_bits: 1.8f64.to_bits(),
            ways: 10,
            qps_bits: 0.0f64.to_bits(),
        };
        let variants = [
            Key {
                family: Family::BePower,
                ..base
            },
            Key { cores: 9, ..base },
            Key {
                freq_bits: 1.8f64.next_up().to_bits(),
                ..base
            },
            Key { ways: 11, ..base },
            Key {
                qps_bits: (-0.0f64).to_bits(),
                ..base
            },
        ];
        let cache = PredictionCache::new();
        let start = QueryMeter::current();
        let lookup = |key: &Key, v: f64| {
            let (freq, qps) = (f64::from_bits(key.freq_bits), f64::from_bits(key.qps_bits));
            cache.get_or_compute(key.family, key.cores, freq, key.ways, qps, || v)
        };
        assert_eq!(lookup(&base, -1.0), -1.0);
        for (i, variant) in variants.iter().enumerate() {
            assert_ne!(hash(variant), hash(&base), "variant {i} collides");
            assert_eq!(
                lookup(variant, i as f64),
                i as f64,
                "variant {i} hit the base"
            );
        }
        assert_eq!(cache.len(), 1 + variants.len());
        assert_eq!(QueryMeter::since(start).misses, 1 + variants.len() as u64);
    }

    #[test]
    fn memoizes_and_counts() {
        let cache = PredictionCache::new();
        let start = QueryMeter::current();
        let computed = AtomicUsize::new(0);
        let f = || {
            computed.fetch_add(1, Ordering::Relaxed);
            42.5
        };
        for _ in 0..5 {
            assert_eq!(
                cache.get_or_compute(Family::BePower, 8, 1.8, 10, 0.0, f),
                42.5
            );
        }
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        let meter = QueryMeter::since(start);
        assert_eq!((meter.hits, meter.misses), (4, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = PredictionCache::new();
        let start = QueryMeter::current();
        let a = cache.get_or_compute(Family::LsPower, 8, 1.8, 10, 100.0, || 1.0);
        let b = cache.get_or_compute(Family::BePower, 8, 1.8, 10, 100.0, || 2.0);
        let c = cache.get_or_compute(Family::LsPower, 9, 1.8, 10, 100.0, || 3.0);
        let d = cache.get_or_compute(Family::LsPower, 8, 1.8, 10, 101.0, || 4.0);
        assert_eq!((a, b, c, d), (1.0, 2.0, 3.0, 4.0));
        assert_eq!(cache.len(), 4);
        assert_eq!(QueryMeter::since(start).misses, 4);
    }

    #[test]
    fn disabled_cache_always_computes() {
        let cache = PredictionCache::new();
        cache.set_enabled(false);
        let start = QueryMeter::current();
        let computed = AtomicUsize::new(0);
        for _ in 0..3 {
            cache.get_or_compute(Family::BeThroughput, 4, 1.2, 4, 0.0, || {
                computed.fetch_add(1, Ordering::Relaxed);
                0.5
            });
        }
        assert_eq!(computed.load(Ordering::Relaxed), 3);
        let meter = QueryMeter::since(start);
        assert_eq!(meter.hits + meter.misses, 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_invalidates_entries_but_keeps_counters() {
        let cache = PredictionCache::new();
        let start = QueryMeter::current();
        cache.get_or_compute(Family::LsFeasible, 8, 2.2, 10, 500.0, || 1.0);
        cache.get_or_compute(Family::LsFeasible, 8, 2.2, 10, 500.0, || 1.0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(QueryMeter::since(start).hits, 1);
        // A cleared entry recomputes (and may return a new value, as after
        // retraining).
        let v = cache.get_or_compute(Family::LsFeasible, 8, 2.2, 10, 500.0, || 7.0);
        assert_eq!(v, 7.0);
        assert_eq!(QueryMeter::since(start).misses, 2);
    }

    #[test]
    fn cache_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PredictionCache>();
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = PredictionCache::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..200u32 {
                        let v = cache.get_or_compute(
                            Family::BeThroughput,
                            i % 16,
                            1.2 + (i % 10) as f64 * 0.1,
                            i % 20,
                            0.0,
                            || f64::from(i % 16) * 2.0,
                        );
                        assert_eq!(v, f64::from(i % 16) * 2.0);
                    }
                });
            }
        });
        assert!(cache.len() <= 200);
    }

    fn seed_cfg(c1: u32) -> PairConfig {
        PairConfig::new(Allocation::new(c1, 9, 8), Allocation::new(20 - c1, 5, 12))
    }

    fn key(generation: u64, bracket: (u64, u64)) -> BracketKey {
        BracketKey {
            generation,
            guarded_budget_bits: 120.0f64.to_bits(),
            headroom_bits: 0.08f64.to_bits(),
            max_c1: 19,
            max_l1: 19,
            bracket,
        }
    }

    #[test]
    fn frontier_buckets_nearby_loads_and_counts_reuses() {
        let fc = FrontierCache::default();
        assert!(fc.get(&key(1, (10, 11))).is_none());
        fc.insert(key(1, (10, 11)), Some((seed_cfg(6), 0.7)));
        // Every load inside the bracket shares the key; the next bracket
        // does not.
        assert_eq!(fc.get(&key(1, (10, 11))), Some(Some((seed_cfg(6), 0.7))));
        assert!(fc.get(&key(1, (11, 11))).is_none());
        // "Nothing feasible" is an outcome too, and is memoized as such.
        fc.insert(key(1, (63, 63)), None);
        assert_eq!(fc.get(&key(1, (63, 63))), Some(None));
        assert_eq!(fc.reuses(), 2);
        assert_eq!(fc.len(), 2);
    }

    #[test]
    fn frontier_generation_change_invalidates_seeds() {
        let fc = FrontierCache::default();
        fc.insert(key(1, (5, 5)), Some((seed_cfg(4), 0.5)));
        assert!(
            fc.get(&key(2, (5, 5))).is_none(),
            "stale generation must miss"
        );
        // Storing under the new generation works normally again.
        fc.insert(key(2, (5, 5)), Some((seed_cfg(5), 0.6)));
        assert_eq!(fc.get(&key(2, (5, 5))), Some(Some((seed_cfg(5), 0.6))));
    }

    #[test]
    fn frontier_cap_bounds_memory() {
        let fc = FrontierCache::default();
        for i in 0..600 {
            fc.insert(key(1, (i, i + 1)), Some((seed_cfg(3), 0.1)));
        }
        assert!(fc.len() <= 256);
    }

    #[test]
    fn query_meter_counts_only_this_thread() {
        let cache = PredictionCache::new();
        let start = QueryMeter::current();
        cache.get_or_compute(Family::BePower, 2, 1.2, 0, 0.0, || 1.0);
        let theirs = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let start = QueryMeter::current();
                    for _ in 0..5 {
                        cache.get_or_compute(Family::BePower, 2, 1.2, 0, 0.0, || 1.0);
                    }
                    QueryMeter::since(start)
                })
                .join()
                .unwrap()
        });
        cache.get_or_compute(Family::BePower, 2, 1.2, 0, 0.0, || 1.0);
        let mine = QueryMeter::since(start);
        assert_eq!((mine.hits, mine.misses), (1, 1));
        assert_eq!((theirs.hits, theirs.misses), (5, 0));
    }
}
