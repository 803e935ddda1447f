//! Dense SoA model tables for the frontier-pruned configuration search.
//!
//! The BE-side queries of [`crate::predictor::PerfPowerPredictor`] are
//! QPS-independent: BE throughput depends only on `(C2, F2, L2)` and BE
//! power (ways-masked, see `mask_ways` in the predictor) only on
//! `(C2, F2)`. Both therefore live on a small discrete lattice — at most
//! `cores × levels × ways` points (4 000 on the paper's Table II node) —
//! that can be flattened once per (re)train into contiguous `Vec<f64>`
//! arrays indexed arithmetically. The search inner loop then costs a
//! couple of loads instead of a boxed-model evaluation, and admissible
//! per-`(C2, L2)` / per-`C2` throughput maxima computed alongside give the
//! branch-and-bound sweep its pruning bounds.
//!
//! Every table entry is produced by the *same* compute path as the
//! predictor's public methods (same feature vector, same `.max(0.0)`
//! clamp, same power margin), so a lookup is bit-identical to the model
//! call it replaces — the equivalence proofs in `search.rs` rely on this.
//! The predictor fills whole lattices through `Regressor::predict_grid`,
//! which makes one point query per cell (each a KD-tree walk for the KNN
//! models), so every entry is bit-identical to the point query; this
//! module only packs them and derives the bounds.
//!
//! Tables carry the predictor's training `generation`; retraining bumps
//! the generation, which invalidates cached tables the same way it clears
//! the prediction memo cache.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use sturgeon_simnode::NodeSpec;

/// Flattened QPS-independent model lattices plus pruning bounds.
///
/// Built by [`crate::predictor::PerfPowerPredictor::model_tables`]; the
/// search layer only reads it (through an `Arc`, shared across rayon
/// workers without locking).
#[derive(Debug, Clone)]
pub struct ModelTables {
    generation: u64,
    total_cores: u32,
    total_ways: u32,
    n_levels: usize,
    freq_levels_ghz: Vec<f64>,
    static_power_w: f64,
    /// BE throughput, `[(c-1)·levels·ways + f·ways + (w-1)]`.
    be_tput: Vec<f64>,
    /// BE partition power (margin included, ways-masked), `[(c-1)·levels + f]`.
    be_power: Vec<f64>,
    /// `max_f` of `be_tput`, `[(c-1)·ways + (w-1)]` — the admissible bound
    /// for one `(C2, L2)` cell whatever frequency the power budget allows.
    tput_max_freq: Vec<f64>,
    /// `max_{f,w}` of `be_tput`, `[c-1]` — the admissible bound for a whole
    /// C2 slice.
    slice_max_tput: Vec<f64>,
    /// Prefix maximum of `slice_max_tput`: `[c-1]` bounds every slice with
    /// *at most* `c` BE cores. Model noise means `slice_max_tput` itself
    /// need not be monotone in cores, so early-stop rules over "all
    /// remaining (smaller-C2) slices" must use this.
    slice_max_prefix: Vec<f64>,
}

impl ModelTables {
    /// Builds the tables from the full BE lattice of `spec`: `be_tput` in
    /// `(C2, F2, L2)` row-major order and `be_power` in `(C2, F2)` order.
    /// Both must come from the predictor's exact compute paths (clamps and
    /// margins included) for lookups to be bit-identical to model calls.
    ///
    /// # Panics
    /// If either lattice does not have one entry per cell of `spec`.
    pub fn build(
        spec: &NodeSpec,
        generation: u64,
        static_power_w: f64,
        be_tput: Vec<f64>,
        be_power: Vec<f64>,
    ) -> Self {
        let total_cores = spec.total_cores;
        let total_ways = spec.total_llc_ways;
        let n_levels = spec.freq_level_count();
        let nc = total_cores as usize;
        let nw = total_ways as usize;
        assert_eq!(
            be_tput.len(),
            nc * n_levels * nw,
            "one BE throughput per cell"
        );
        assert_eq!(be_power.len(), nc * n_levels, "one BE power per (C2, F2)");
        let mut tput_max_freq = vec![0.0; nc * nw];
        let mut slice_max_tput = vec![0.0; nc];
        for (ci, slice) in be_tput.chunks(n_levels * nw).enumerate() {
            let mut slice_max = 0.0f64;
            for row in slice.chunks(nw) {
                for (cell, &t) in tput_max_freq[ci * nw..(ci + 1) * nw].iter_mut().zip(row) {
                    if t > *cell {
                        *cell = t;
                    }
                    slice_max = slice_max.max(t);
                }
            }
            slice_max_tput[ci] = slice_max;
        }
        let mut slice_max_prefix = slice_max_tput.clone();
        for i in 1..slice_max_prefix.len() {
            slice_max_prefix[i] = slice_max_prefix[i].max(slice_max_prefix[i - 1]);
        }
        Self {
            generation,
            total_cores,
            total_ways,
            n_levels,
            freq_levels_ghz: spec.freq_levels_ghz.clone(),
            static_power_w,
            be_tput,
            be_power,
            tput_max_freq,
            slice_max_tput,
            slice_max_prefix,
        }
    }

    /// Training generation these tables were flattened from.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The node's static/uncore power (W), the constant term of every
    /// total-power check.
    pub fn static_power_w(&self) -> f64 {
        self.static_power_w
    }

    /// True when the tables cover exactly this node's lattice.
    pub fn matches(&self, spec: &NodeSpec) -> bool {
        self.total_cores == spec.total_cores
            && self.total_ways == spec.total_llc_ways
            && self.n_levels == spec.freq_level_count()
            && self.freq_levels_ghz.len() == spec.freq_levels_ghz.len()
            && self
                .freq_levels_ghz
                .iter()
                .zip(&spec.freq_levels_ghz)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    #[inline]
    fn idx3(&self, cores: u32, level: usize, ways: u32) -> usize {
        debug_assert!((1..=self.total_cores).contains(&cores));
        debug_assert!(level < self.n_levels);
        debug_assert!((1..=self.total_ways).contains(&ways));
        ((cores - 1) as usize * self.n_levels + level) * self.total_ways as usize
            + (ways - 1) as usize
    }

    /// BE throughput at `(cores, level, ways)` — bit-identical to
    /// `predictor.be_throughput(cores, spec.freq_ghz(level), ways)`.
    #[inline]
    pub fn be_throughput(&self, cores: u32, level: usize, ways: u32) -> f64 {
        self.be_tput[self.idx3(cores, level, ways)]
    }

    /// BE partition power at `(cores, level)`, margin included —
    /// bit-identical to `predictor.be_power_w(cores, spec.freq_ghz(level), _)`.
    #[inline]
    pub fn be_power_w(&self, cores: u32, level: usize) -> f64 {
        self.be_power[(cores - 1) as usize * self.n_levels + level]
    }

    /// Admissible throughput upper bound for a `(C2, L2)` cell: the
    /// maximum over every frequency level. No feasible candidate in the
    /// cell can exceed it, whatever F2 the power frontier picks.
    #[inline]
    pub fn max_tput_any_freq(&self, cores: u32, ways: u32) -> f64 {
        self.tput_max_freq[(cores - 1) as usize * self.total_ways as usize + (ways - 1) as usize]
    }

    /// Admissible throughput upper bound for a whole C2 slice: the maximum
    /// over every `(F2, L2)`.
    #[inline]
    pub fn slice_max_tput(&self, cores: u32) -> f64 {
        self.slice_max_tput[(cores - 1) as usize]
    }

    /// Admissible throughput upper bound over *every* slice with at most
    /// `cores` BE cores — the stop bound for scans that grow C1 (shrink
    /// C2) monotonically.
    #[inline]
    pub fn slice_max_tput_upto(&self, cores: u32) -> f64 {
        self.slice_max_prefix[(cores - 1) as usize]
    }
}

/// One QPS slab: the LS-side model lattices frozen at a single quantized
/// load point (the slab "center", `bucket · quantum`).
///
/// The LS queries of the predictor — QoS feasibility of `<C1, F1, L1>`
/// and LS partition power — depend on the offered load, so unlike the BE
/// lattices of [`ModelTables`] they cannot be flattened once per retrain.
/// Instead the load axis is quantized into buckets and each bucket's
/// lattice is built lazily (see [`LsSlabs`]). A slab stores:
///
/// * **feasibility** as a bitset — one bit per `(C1, F1, L1)` cell, the
///   L1 (ways) axis packed into `words_per_row` `u64` words per
///   `(C1, F1)` row so a whole row can be masked branch-free; built at
///   `qps = center`.
/// * **LS power** as a flat `f64` array over the same lattice; built at
///   `qps = center · (1 + power_load_headroom)` — the exact load the
///   search's power check uses — so a lookup at slab-center load is
///   bit-identical to the live `ls_power_w` call it replaces.
#[derive(Debug, Clone)]
pub struct LsSlab {
    bucket: u64,
    qps: f64,
    qps_power: f64,
    n_levels: usize,
    total_ways: u32,
    words_per_row: usize,
    feas: Vec<u64>,
    power: Vec<f64>,
}

impl LsSlab {
    /// Packs one sweep of the full `(C1, F1, L1)` lattice of `spec` into a
    /// slab. `feasible` (taken at `qps`) and `power` (taken at
    /// `qps_power`) are in `(C1, F1, L1)` row-major order and must come
    /// from the predictor's exact compute paths (domain check, guarded
    /// load, clamps and margins included) for lookups to be bit-identical
    /// to live calls at the slab centers.
    ///
    /// # Panics
    /// If either lattice does not have one entry per cell of `spec`.
    pub fn build(
        spec: &NodeSpec,
        bucket: u64,
        qps: f64,
        qps_power: f64,
        feasible: &[bool],
        power: Vec<f64>,
    ) -> Self {
        let nw = spec.total_llc_ways as usize;
        let rows = spec.total_cores as usize * spec.freq_level_count();
        assert_eq!(feasible.len(), rows * nw, "one feasibility bit per cell");
        assert_eq!(power.len(), rows * nw, "one LS power per cell");
        let words_per_row = nw.div_ceil(64);
        let mut feas_words = vec![0u64; rows * words_per_row];
        for (words, cells) in feas_words
            .chunks_mut(words_per_row)
            .zip(feasible.chunks(nw))
        {
            for (wi, _) in cells.iter().enumerate().filter(|(_, &ok)| ok) {
                words[wi / 64] |= 1u64 << (wi % 64);
            }
        }
        Self {
            bucket,
            qps,
            qps_power,
            n_levels: spec.freq_level_count(),
            total_ways: spec.total_llc_ways,
            words_per_row,
            feas: feas_words,
            power,
        }
    }

    /// The quantized bucket index this slab was built for.
    pub fn bucket(&self) -> u64 {
        self.bucket
    }

    /// The slab-center load the feasibility lattice was built at.
    pub fn qps(&self) -> f64 {
        self.qps
    }

    /// The headroom-inflated load the power lattice was built at.
    pub fn qps_power(&self) -> f64 {
        self.qps_power
    }

    /// `u64` words per `(C1, F1)` feasibility row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The packed feasibility words for one `(C1, F1)` row; bit `w-1` is
    /// set when `<cores, level, w>` meets QoS at the slab center.
    #[inline]
    pub fn feas_row(&self, cores: u32, level: usize) -> &[u64] {
        let row = ((cores - 1) as usize * self.n_levels + level) * self.words_per_row;
        &self.feas[row..row + self.words_per_row]
    }

    /// The LS power (W, margin included) row for one `(C1, F1)` cell,
    /// indexed by `ways - 1`.
    #[inline]
    pub fn power_row(&self, cores: u32, level: usize) -> &[f64] {
        let nw = self.total_ways as usize;
        let row = ((cores - 1) as usize * self.n_levels + level) * nw;
        &self.power[row..row + nw]
    }

    /// Point feasibility lookup — bit-identical to
    /// `predictor.ls_feasible(cores, spec.freq_ghz(level), ways, self.qps())`.
    #[inline]
    pub fn feasible(&self, cores: u32, level: usize, ways: u32) -> bool {
        let wi = (ways - 1) as usize;
        self.feas_row(cores, level)[wi / 64] & (1u64 << (wi % 64)) != 0
    }

    /// Point power lookup — bit-identical to
    /// `predictor.ls_power_w(cores, spec.freq_ghz(level), ways, self.qps_power())`.
    #[inline]
    pub fn ls_power_w(&self, cores: u32, level: usize, ways: u32) -> f64 {
        self.power_row(cores, level)[(ways - 1) as usize]
    }
}

/// Lazily built family of [`LsSlab`]s for one `(generation, spec,
/// power-load-headroom)` triple, plus the quantization and envelope rules
/// the search relies on.
///
/// A load `q` is *bracketed* by the two slabs whose centers surround it
/// (`floor` and `ceil` of `q / quantum`); the search then uses the
/// conservative envelope across the bracket — feasibility is the AND of
/// the two bitsets (never optimistic: a cell must meet QoS at *both*
/// surrounding centers) and LS power the pointwise `max` of the two
/// lattices. At a slab center the bracket degenerates to one slab and
/// every envelope lookup is bit-identical to the live model call. The
/// envelope is a `max`, never a linear interpolation: a lerp can
/// undershoot the live model between centers.
#[derive(Debug)]
pub struct LsSlabs {
    generation: u64,
    quantum: f64,
    headroom: f64,
    max_bucket: u64,
    total_cores: u32,
    total_ways: u32,
    n_levels: usize,
    freq_levels_ghz: Vec<f64>,
    slabs: Mutex<HashMap<u64, Arc<LsSlab>>>,
    builds: AtomicU64,
}

impl LsSlabs {
    /// Creates an empty slab family. `quantum` is the bucket width in QPS
    /// (must be positive); `max_bucket` caps the lattice at the first
    /// bucket whose center exceeds the trained domain — every load beyond
    /// it is infeasible anyway, so brackets clamp there and the map stays
    /// bounded.
    pub fn new(
        spec: &NodeSpec,
        generation: u64,
        quantum: f64,
        headroom: f64,
        max_qps: f64,
    ) -> Self {
        debug_assert!(quantum > 0.0);
        let max_bucket = ((1.1 * max_qps / quantum).floor() as u64).saturating_add(1);
        Self {
            generation,
            quantum,
            headroom,
            max_bucket,
            total_cores: spec.total_cores,
            total_ways: spec.total_llc_ways,
            n_levels: spec.freq_level_count(),
            freq_levels_ghz: spec.freq_levels_ghz.clone(),
            slabs: Mutex::new(HashMap::new()),
            builds: AtomicU64::new(0),
        }
    }

    /// Training generation the slabs were built from.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Bucket width (QPS per slab).
    pub fn quantum(&self) -> f64 {
        self.quantum
    }

    /// The power-load headroom baked into every slab's power lattice.
    pub fn headroom(&self) -> f64 {
        self.headroom
    }

    /// True when the slabs cover exactly this node's lattice.
    pub fn matches(&self, spec: &NodeSpec) -> bool {
        self.total_cores == spec.total_cores
            && self.total_ways == spec.total_llc_ways
            && self.n_levels == spec.freq_level_count()
            && self.freq_levels_ghz.len() == spec.freq_levels_ghz.len()
            && self
                .freq_levels_ghz
                .iter()
                .zip(&spec.freq_levels_ghz)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// The slab-center load of a bucket.
    pub fn center(&self, bucket: u64) -> f64 {
        bucket as f64 * self.quantum
    }

    /// The pair of bucket indices whose slab centers bracket `qps`
    /// (`lo == hi` exactly at a slab center). Clamped to the bounded
    /// bucket range; beyond it every slab is all-infeasible, so the clamp
    /// never changes a search result.
    pub fn bracket(&self, qps: f64) -> (u64, u64) {
        let q = (qps / self.quantum).max(0.0);
        let lo = (q.floor() as u64).min(self.max_bucket);
        let hi = (q.ceil() as u64).min(self.max_bucket);
        (lo, hi)
    }

    /// The last bucket index: every bracket clamps to `0..=max_bucket()`.
    pub fn max_bucket(&self) -> u64 {
        self.max_bucket
    }

    /// Returns the slab for `bucket`, building it on first use from one
    /// lattice sweep: `sweep(qps, qps_power)` is handed the slab center and
    /// the headroom-inflated center and returns the `(feasible, power)`
    /// lattices [`LsSlab::build`] packs.
    pub fn slab(
        &self,
        spec: &NodeSpec,
        bucket: u64,
        sweep: impl FnOnce(f64, f64) -> (Vec<bool>, Vec<f64>),
    ) -> Arc<LsSlab> {
        // The map lock is held across the build, so racing builders wait
        // for the one in flight instead of duplicating it. Under even
        // dispatch every shard wants the same bucket at the same moment,
        // so the waiting worker has nothing else to build. The build is
        // one batched lattice sweep, a few tens of ms for the paper's
        // 20×10×20 node in release builds. It fans out across the worker
        // pool only when the pool is idle (a node run): inside a fleet
        // stage the pool is busy with the stage, so the sweep runs
        // serially on the building shard's thread, under this lock,
        // while every other shard that wants a slab waits.
        let mut map = self.slabs.lock();
        if let Some(s) = map.get(&bucket) {
            return Arc::clone(s);
        }
        let qps = self.center(bucket);
        let qps_power = qps * (1.0 + self.headroom);
        let (feasible, power) = sweep(qps, qps_power);
        let built = Arc::new(LsSlab::build(
            spec, bucket, qps, qps_power, &feasible, power,
        ));
        self.builds.fetch_add(1, Ordering::Relaxed);
        map.insert(bucket, Arc::clone(&built));
        built
    }

    /// How many slab constructions actually ran (as opposed to map hits).
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }
}

/// Flattened BE model lattice for the multi-application search
/// ([`crate::multi::BeModelSet`]): unlike the pair predictor, the
/// multi-app BE power model keeps its `ways` feature, so both tables are
/// indexed `(cores, level, ways)`.
///
/// Lookups key the frequency by exact bit pattern, so any query off the
/// node's DVFS table falls through to the live model (`None`) instead of
/// silently rounding.
#[derive(Debug, Clone)]
pub struct BeLattice {
    total_cores: u32,
    total_ways: u32,
    freq_levels_ghz: Vec<f64>,
    tput: Vec<f64>,
    power: Vec<f64>,
}

impl BeLattice {
    /// Sweeps the full `(cores, level, ways)` lattice of `spec` through
    /// the two evaluators (which must be the model set's exact compute
    /// paths, clamps included).
    pub fn build(
        spec: &NodeSpec,
        mut tput: impl FnMut(u32, f64, u32) -> f64,
        mut power: impl FnMut(u32, f64, u32) -> f64,
    ) -> Self {
        let nc = spec.total_cores as usize;
        let nw = spec.total_llc_ways as usize;
        let nf = spec.freq_level_count();
        let mut t = vec![0.0; nc * nf * nw];
        let mut p = vec![0.0; nc * nf * nw];
        for c in 1..=spec.total_cores {
            let ci = (c - 1) as usize;
            for f in 0..nf {
                let ghz = spec.freq_ghz(f);
                for w in 1..=spec.total_llc_ways {
                    let idx = (ci * nf + f) * nw + (w - 1) as usize;
                    t[idx] = tput(c, ghz, w);
                    p[idx] = power(c, ghz, w);
                }
            }
        }
        Self {
            total_cores: spec.total_cores,
            total_ways: spec.total_llc_ways,
            freq_levels_ghz: spec.freq_levels_ghz.clone(),
            tput: t,
            power: p,
        }
    }

    #[inline]
    fn index(&self, cores: u32, freq_ghz: f64, ways: u32) -> Option<usize> {
        if cores < 1 || cores > self.total_cores || ways < 1 || ways > self.total_ways {
            return None;
        }
        let bits = freq_ghz.to_bits();
        let level = self
            .freq_levels_ghz
            .iter()
            .position(|f| f.to_bits() == bits)?;
        let nf = self.freq_levels_ghz.len();
        Some(((cores - 1) as usize * nf + level) * self.total_ways as usize + (ways - 1) as usize)
    }

    /// Tabled throughput, or `None` when the query is off the lattice.
    #[inline]
    pub fn throughput(&self, cores: u32, freq_ghz: f64, ways: u32) -> Option<f64> {
        self.index(cores, freq_ghz, ways).map(|i| self.tput[i])
    }

    /// Tabled power (W), or `None` when the query is off the lattice.
    #[inline]
    pub fn power_w(&self, cores: u32, freq_ghz: f64, ways: u32) -> Option<f64> {
        self.index(cores, freq_ghz, ways).map(|i| self.power[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> NodeSpec {
        NodeSpec {
            total_cores: 4,
            freq_levels_ghz: vec![1.0, 1.5, 2.0],
            total_llc_ways: 3,
            llc_mb: 4.0,
        }
    }

    /// Sweeps `f(cores, ghz, ways)` over the `(C, F, L)` lattice of
    /// `spec` in row-major order, `ways` running over `ways`.
    fn sweep<T>(spec: &NodeSpec, ways: &[u32], f: impl Fn(u32, f64, u32) -> T) -> Vec<T> {
        let mut out = Vec::new();
        for c in 1..=spec.total_cores {
            for &ghz in &spec.freq_levels_ghz {
                out.extend(ways.iter().map(|&w| f(c, ghz, w)));
            }
        }
        out
    }

    fn tables(
        spec: &NodeSpec,
        generation: u64,
        static_power_w: f64,
        tput: impl Fn(u32, f64, u32) -> f64,
        power: impl Fn(u32, f64) -> f64,
    ) -> ModelTables {
        let ways: Vec<u32> = (1..=spec.total_llc_ways).collect();
        ModelTables::build(
            spec,
            generation,
            static_power_w,
            sweep(spec, &ways, tput),
            sweep(spec, &[0], |c, g, _| power(c, g)),
        )
    }

    #[test]
    fn model_tables_store_every_lattice_point() {
        let spec = small_spec();
        let t = tables(
            &spec,
            7,
            12.5,
            |c, f, w| c as f64 * 100.0 + f * 10.0 + w as f64,
            |c, f| c as f64 + f,
        );
        assert_eq!(t.generation(), 7);
        assert_eq!(t.static_power_w(), 12.5);
        assert!(t.matches(&spec));
        for c in 1..=4u32 {
            for (level, &ghz) in spec.freq_levels_ghz.iter().enumerate() {
                assert_eq!(t.be_power_w(c, level), c as f64 + ghz);
                for w in 1..=3u32 {
                    assert_eq!(
                        t.be_throughput(c, level, w),
                        c as f64 * 100.0 + ghz * 10.0 + w as f64
                    );
                }
            }
        }
    }

    #[test]
    fn bounds_dominate_their_cells() {
        let spec = small_spec();
        // An arbitrary non-monotone function: bounds must still dominate.
        let f = |c: u32, g: f64, w: u32| ((c * 31 + w * 17) as f64 * g).sin().abs() * 10.0;
        let t = tables(&spec, 0, 0.0, f, |_, _| 0.0);
        for c in 1..=4u32 {
            let mut slice_max = 0.0f64;
            for level in 0..3usize {
                for w in 1..=3u32 {
                    let v = t.be_throughput(c, level, w);
                    assert!(t.max_tput_any_freq(c, w) >= v);
                    assert!(t.slice_max_tput(c) >= v);
                    slice_max = slice_max.max(v);
                }
            }
            assert_eq!(t.slice_max_tput(c), slice_max);
        }
        // The prefix bound dominates every smaller-or-equal slice.
        for c in 1..=4u32 {
            for smaller in 1..=c {
                assert!(t.slice_max_tput_upto(c) >= t.slice_max_tput(smaller));
            }
        }
    }

    #[test]
    fn tables_reject_mismatched_spec() {
        let spec = small_spec();
        let t = tables(&spec, 0, 0.0, |_, _, _| 0.0, |_, _| 0.0);
        let mut other = small_spec();
        other.total_llc_ways = 4;
        assert!(!t.matches(&other));
        let mut shifted = small_spec();
        shifted.freq_levels_ghz[1] = 1.5000000001;
        assert!(!t.matches(&shifted));
    }

    #[test]
    fn ls_slab_stores_feasibility_bits_and_power_for_every_cell() {
        let spec = small_spec();
        let ways = [1, 2, 3];
        let slab = LsSlab::build(
            &spec,
            3,
            30.0,
            32.4,
            &sweep(&spec, &ways, |c, _g, w| (c + w) % 2 == 0),
            sweep(&spec, &ways, |c, g, w| c as f64 * 10.0 + g + w as f64 * 0.1),
        );
        assert_eq!(slab.bucket(), 3);
        assert_eq!(slab.words_per_row(), 1);
        for c in 1..=4u32 {
            for (level, &ghz) in spec.freq_levels_ghz.iter().enumerate() {
                for w in 1..=3u32 {
                    assert_eq!(slab.feasible(c, level, w), (c + w) % 2 == 0);
                    assert_eq!(
                        slab.ls_power_w(c, level, w),
                        c as f64 * 10.0 + ghz + w as f64 * 0.1
                    );
                }
                // Row accessors expose the same cells the point lookups read.
                assert_eq!(slab.power_row(c, level).len(), 3);
                assert_eq!(slab.feas_row(c, level).len(), 1);
            }
        }
    }

    #[test]
    fn slab_bracket_degenerates_at_centers_and_clamps_beyond_domain() {
        let spec = small_spec();
        let slabs = LsSlabs::new(&spec, 5, 10.0, 0.08, 400.0);
        assert_eq!(slabs.generation(), 5);
        assert!(slabs.matches(&spec));
        // Exactly on a center: lo == hi.
        assert_eq!(slabs.bracket(30.0), (3, 3));
        // Between centers: floor/ceil pair.
        assert_eq!(slabs.bracket(34.9), (3, 4));
        // Negative loads clamp to bucket 0.
        assert_eq!(slabs.bracket(-5.0), (0, 0));
        // Beyond the trained domain both ends clamp to the cap bucket.
        let (lo, hi) = slabs.bracket(1e12);
        assert_eq!(lo, hi);
        assert!(slabs.center(lo) > 1.1 * 400.0);
    }

    #[test]
    fn slabs_build_lazily_and_share_arcs() {
        let spec = small_spec();
        let slabs = LsSlabs::new(&spec, 0, 10.0, 0.0, 400.0);
        assert_eq!(slabs.builds(), 0);
        let ways = [1, 2, 3];
        let build = |q: f64, q_power: f64| {
            assert_eq!(q, q_power, "headroom 0 builds power at the center");
            (
                sweep(&spec, &ways, |_, _, _| true),
                sweep(&spec, &ways, |_, _, _| q),
            )
        };
        let a = slabs.slab(&spec, 2, build);
        assert_eq!(slabs.builds(), 1);
        let b = slabs.slab(&spec, 2, |_, _| {
            unreachable!("second request must hit the map")
        });
        assert_eq!(slabs.builds(), 1, "second request must hit the map");
        assert!(Arc::ptr_eq(&a, &b));
        // The power lattice was built at the slab center (headroom 0).
        assert_eq!(a.qps(), 20.0);
        assert_eq!(a.ls_power_w(1, 0, 1), 20.0);
    }

    #[test]
    fn be_lattice_lookup_matches_evaluator_and_rejects_off_lattice() {
        let spec = small_spec();
        let l = BeLattice::build(
            &spec,
            |c, g, w| c as f64 * g + w as f64,
            |c, g, w| c as f64 - g + w as f64,
        );
        assert_eq!(l.throughput(2, 1.5, 3), Some(2.0 * 1.5 + 3.0));
        assert_eq!(l.power_w(2, 1.5, 3), Some(2.0 - 1.5 + 3.0));
        // Off-lattice frequency or out-of-range resources fall through.
        assert_eq!(l.throughput(2, 1.7, 3), None);
        assert_eq!(l.throughput(5, 1.5, 3), None);
        assert_eq!(l.power_w(2, 1.5, 0), None);
    }
}
