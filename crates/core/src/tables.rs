//! Dense SoA model tables for the frontier-pruned configuration search.
//!
//! The BE-side queries of [`crate::predictor::PerfPowerPredictor`] are
//! QPS-independent: BE throughput depends only on `(C2, F2, L2)` and BE
//! power (ways-masked, see `mask_ways` in the predictor) only on
//! `(C2, F2)`. Both therefore live on a small discrete lattice — at most
//! `cores × levels × ways` points (4 000 on the paper's Table II node) —
//! that can be flattened once per trained predictor into contiguous
//! `Vec<f64>` arrays indexed arithmetically. The search inner loop then
//! costs a couple of loads instead of a boxed-model evaluation; the
//! pruned search folds its admissible bounds from the throughput rows,
//! and a per-C2 prefix maximum computed alongside bounds the heuristic's
//! early stop.
//!
//! Every table entry is produced by the *same* compute path as the
//! predictor's public methods (same feature vector, same `.max(0.0)`
//! clamp, same power margin), so a lookup is bit-identical to the model
//! call it replaces — the equivalence proofs in `search.rs` rely on this.
//! The predictor fills the BE lattices through `Regressor::predict_grid`,
//! which makes one point query per cell (each a KD-tree walk for the KNN
//! models), so every entry is bit-identical to the point query; the LS
//! slabs ([`LsSlab`]) are filled one cell at a time by the point paths
//! themselves. This module only stores the values and derives the bounds.

use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use sturgeon_simnode::NodeSpec;

/// True when `spec` has this `(C, F, L)` lattice, frequencies bit for bit.
fn same_lattice(cores: u32, ways: u32, freqs_ghz: &[f64], spec: &NodeSpec) -> bool {
    cores == spec.total_cores
        && ways == spec.total_llc_ways
        && freqs_ghz.len() == spec.freq_levels_ghz.len()
        && freqs_ghz
            .iter()
            .zip(&spec.freq_levels_ghz)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// The `(C1, L1)` cells a pruned search visits, in the order it visits
/// them, for one guarded budget and one pair of `C1`/`L1` limits.
#[derive(Debug)]
pub(crate) struct CellOrder {
    /// `(bound, C1, L1)` for every cell that some F2 level makes
    /// affordable with zero LS power; the bound is the best BE throughput
    /// over those levels. Sorted by descending bound, ties in `(C1, L1)`
    /// order.
    pub(crate) cells: Vec<(f64, u32, u32)>,
    /// Cells with no affordable F2 level at all.
    pub(crate) hopeless: u64,
}

/// Memo key of a [`CellOrder`]: guarded-budget bits, `C1` and `L1` limits.
type CellOrderKey = (u64, u32, u32);

/// Bound on memoized cell orders. A fleet's shards share a few budgets;
/// hitting it means the budget churns every interval, so the map is wiped
/// rather than grown.
const CELL_ORDER_CAP: usize = 64;

/// Flattened QPS-independent model lattices plus pruning bounds.
///
/// Built by [`crate::predictor::PerfPowerPredictor::model_tables`]; the
/// search layer only reads it (through an `Arc`, shared across rayon
/// workers). The lattices are immutable; the only lock guards the
/// pruned search's memo of cell orders.
#[derive(Debug)]
pub struct ModelTables {
    total_cores: u32,
    total_ways: u32,
    n_levels: usize,
    freq_levels_ghz: Vec<f64>,
    static_power_w: f64,
    /// BE throughput, `[(c-1)·levels·ways + f·ways + (w-1)]`.
    be_tput: Vec<f64>,
    /// BE partition power (margin included, ways-masked), `[(c-1)·levels + f]`.
    be_power: Vec<f64>,
    /// Prefix maximum over C2 slices of `max_{f,w}` `be_tput`: `[c-1]`
    /// bounds every slice with *at most* `c` BE cores. Model noise means
    /// a slice's own maximum need not be monotone in cores, so early-stop
    /// rules over "all remaining (smaller-C2) slices" must use this.
    slice_max_prefix: Vec<f64>,
    /// Memoized [`CellOrder`]s (see [`cell_order`](Self::cell_order)).
    cell_orders: Mutex<HashMap<CellOrderKey, Arc<CellOrder>>>,
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
        let mut slice_max_prefix: Vec<f64> = be_tput
            .chunks(n_levels * nw)
            .map(|slice| slice.iter().fold(0.0f64, |max, &t| max.max(t)))
            .collect();
        for i in 1..slice_max_prefix.len() {
            slice_max_prefix[i] = slice_max_prefix[i].max(slice_max_prefix[i - 1]);
        }
        Self {
            total_cores,
            total_ways,
            n_levels,
            freq_levels_ghz: spec.freq_levels_ghz.clone(),
            static_power_w,
            be_tput,
            be_power,
            slice_max_prefix,
            cell_orders: Mutex::default(),
        }
    }

    /// The node's static/uncore power (W), the constant term of every
    /// total-power check.
    pub fn static_power_w(&self) -> f64 {
        self.static_power_w
    }

    /// True when the tables cover exactly this node's lattice.
    pub fn matches(&self, spec: &NodeSpec) -> bool {
        same_lattice(
            self.total_cores,
            self.total_ways,
            &self.freq_levels_ghz,
            spec,
        )
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

    /// The BE throughput row at `(cores, level)`, indexed by `ways - 1`.
    #[inline]
    pub fn be_throughput_row(&self, cores: u32, level: usize) -> &[f64] {
        let start = self.idx3(cores, level, 1);
        &self.be_tput[start..start + self.total_ways as usize]
    }

    /// BE partition power at `(cores, level)`, margin included —
    /// bit-identical to `predictor.be_power_w(cores, spec.freq_ghz(level), _)`.
    #[inline]
    pub fn be_power_w(&self, cores: u32, level: usize) -> f64 {
        self.be_power[(cores - 1) as usize * self.n_levels + level]
    }

    /// Admissible throughput upper bound over *every* slice with at most
    /// `cores` BE cores — the stop bound for scans that grow C1 (shrink
    /// C2) monotonically.
    #[inline]
    pub fn slice_max_tput_upto(&self, cores: u32) -> f64 {
        self.slice_max_prefix[(cores - 1) as usize]
    }

    /// The pruned search's [`CellOrder`] under `guarded_budget_w` with LS
    /// cores in `1..=max_c1` and LS ways in `1..=max_l1`. It depends on
    /// nothing else these tables do not hold, so it is computed once per
    /// key and shared; threads racing on a new key compute equal orders.
    pub(crate) fn cell_order(
        &self,
        guarded_budget_w: f64,
        max_c1: u32,
        max_l1: u32,
    ) -> Arc<CellOrder> {
        let key = (guarded_budget_w.to_bits(), max_c1, max_l1);
        if let Some(order) = self.cell_orders.lock().get(&key) {
            return Arc::clone(order);
        }
        let order = Arc::new(self.sorted_cells(guarded_budget_w, max_c1, max_l1));
        let mut orders = self.cell_orders.lock();
        if orders.len() >= CELL_ORDER_CAP {
            orders.clear();
        }
        orders.insert(key, Arc::clone(&order));
        order
    }

    fn sorted_cells(&self, guarded_budget_w: f64, max_c1: u32, max_l1: u32) -> CellOrder {
        let mut cells = Vec::with_capacity((max_c1 * max_l1) as usize);
        let mut hopeless = 0u64;
        let mut bounds: Vec<f64> = Vec::new();
        for c1 in 1..=max_c1 {
            let c2 = self.total_cores - c1;
            // Fold the throughput rows of every F2 that fits, `(static + 0)
            // + be`: LS power is never negative. Indexed by `L2 - 1`.
            bounds.clear();
            for f2 in 0..self.n_levels {
                if self.static_power_w + self.be_power_w(c2, f2) > guarded_budget_w {
                    continue;
                }
                let row = self.be_throughput_row(c2, f2);
                if bounds.is_empty() {
                    bounds.extend_from_slice(row);
                } else {
                    for (b, &t) in bounds.iter_mut().zip(row) {
                        *b = b.max(t);
                    }
                }
            }
            if bounds.is_empty() {
                hopeless += u64::from(max_l1);
                continue;
            }
            for l1 in 1..=max_l1 {
                // `+ 0.0` turns a clamped -0.0 into 0.0, so the bits of
                // these non-negative bounds sort like their values.
                let bound = bounds[(self.total_ways - l1 - 1) as usize] + 0.0;
                cells.push((bound, c1, l1));
            }
        }
        cells.sort_unstable_by_key(|&(bound, c1, l1)| (Reverse(bound.to_bits()), c1, l1));
        CellOrder { cells, hopeless }
    }
}

/// One QPS slab: the LS-side model lattices at a single quantized load
/// point (the slab "center", `bucket · quantum`), filled cell by cell.
///
/// The LS queries of the predictor — QoS feasibility of `<C1, F1, L1>`
/// and LS partition power — depend on the offered load, so unlike the BE
/// lattices of [`ModelTables`] they cannot be flattened once per predictor.
/// Instead the load axis is quantized into buckets (see [`LsSlabs`]) and
/// each bucket's cells are computed on first read, so a search pays only
/// for the cells it looks at. Per `(C1, F1, L1)` cell a slab stores:
///
/// * **feasibility** as a 2-bit code (unknown, infeasible, feasible),
///   32 cells to an atomic word, taken at `qps = center`;
/// * **LS power** as atomic `!bits` (0 = unknown: `!bits == 0` only for
///   an all-ones NaN, which no clamped power takes), taken at
///   `qps = center · (1 + power_load_headroom)` — the exact load the
///   search's power check uses — so a lookup at slab-center load is
///   bit-identical to the live `ls_power_w` call it replaces.
///
/// A miss runs the caller's fill for that one cell and stores it. Fills
/// are pure functions of the cell, so threads racing on a cell compute
/// and write identical bits, and no lock is held while a model runs.
/// `Relaxed` ordering suffices: a cell publishes only its own bits.
#[derive(Debug)]
pub struct LsSlab {
    qps: f64,
    qps_power: f64,
    n_levels: usize,
    total_ways: u32,
    feas: Vec<AtomicU64>,
    power: Vec<AtomicU64>,
}

/// Feasibility codes: 0 means the cell is not filled yet.
const INFEASIBLE: u64 = 1;
const FEASIBLE: u64 = 2;

impl LsSlab {
    /// An empty slab over the full `(C1, F1, L1)` lattice of `spec`:
    /// feasibility will be taken at `qps`, power at `qps_power`.
    pub(crate) fn new(spec: &NodeSpec, qps: f64, qps_power: f64) -> Self {
        let cells =
            spec.total_cores as usize * spec.freq_level_count() * spec.total_llc_ways as usize;
        let zeroed = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        Self {
            qps,
            qps_power,
            n_levels: spec.freq_level_count(),
            total_ways: spec.total_llc_ways,
            feas: zeroed(cells.div_ceil(32)),
            power: zeroed(cells),
        }
    }

    /// The slab-center load feasibility is taken at.
    pub fn qps(&self) -> f64 {
        self.qps
    }

    /// The headroom-inflated load LS power is taken at.
    pub fn qps_power(&self) -> f64 {
        self.qps_power
    }

    /// Cells are stored `(C1, L1, F1)`-major, so the F1 levels of one
    /// `(C1, L1)` column are adjacent.
    #[inline]
    fn cell(&self, cores: u32, level: usize, ways: u32) -> usize {
        debug_assert!(level < self.n_levels);
        debug_assert!((1..=self.total_ways).contains(&ways));
        ((cores - 1) as usize * self.total_ways as usize + (ways - 1) as usize) * self.n_levels
            + level
    }

    /// The levels of column `(cores, ways)` already known to miss QoS:
    /// bit `2·level` is set for each. Reads only filled cells (0 when a
    /// column has more than 32 levels), so it can skip a cell, never
    /// decide one.
    #[inline]
    pub(crate) fn known_infeasible(&self, cores: u32, ways: u32) -> u64 {
        if self.n_levels > 32 {
            return 0;
        }
        let bit = 2 * self.cell(cores, 0, ways);
        let (word, shift) = (bit / 64, bit % 64);
        let mut codes = self.feas[word].load(Ordering::Relaxed) >> shift;
        if shift + 2 * self.n_levels > 64 {
            codes |= self.feas[word + 1].load(Ordering::Relaxed) << (64 - shift);
        }
        let column = u64::MAX >> (64 - 2 * self.n_levels);
        codes & !(codes >> 1) & 0x5555_5555_5555_5555 & column
    }

    /// Does `<cores, level, ways>` meet QoS at the slab center? A miss
    /// stores `fill()`, which must be the predictor's feasibility compute
    /// path at [`qps`](Self::qps).
    #[inline]
    pub(crate) fn feasible(
        &self,
        cores: u32,
        level: usize,
        ways: u32,
        fill: impl FnOnce() -> bool,
    ) -> bool {
        let i = self.cell(cores, level, ways);
        let (word, shift) = (&self.feas[i / 32], (i % 32) * 2);
        match (word.load(Ordering::Relaxed) >> shift) & 3 {
            0 => {
                let ok = fill();
                let code = if ok { FEASIBLE } else { INFEASIBLE };
                word.fetch_or(code << shift, Ordering::Relaxed);
                ok
            }
            code => code == FEASIBLE,
        }
    }

    /// LS power (W, margin included) of `<cores, level, ways>`. A miss
    /// stores `fill()`, which must be the predictor's LS-power compute
    /// path at [`qps_power`](Self::qps_power).
    #[inline]
    pub(crate) fn ls_power_w(
        &self,
        cores: u32,
        level: usize,
        ways: u32,
        fill: impl FnOnce() -> f64,
    ) -> f64 {
        let cell = &self.power[self.cell(cores, level, ways)];
        match cell.load(Ordering::Relaxed) {
            0 => {
                let w = fill();
                cell.store(!w.to_bits(), Ordering::Relaxed);
                w
            }
            bits => f64::from_bits(!bits),
        }
    }
}

/// Lazily built family of [`LsSlab`]s for one `(spec, power-load-headroom)`
/// pair, plus the quantization and envelope rules the search relies on.
///
/// A load `q` is *bracketed* by the two slabs whose centers surround it
/// (`floor` and `ceil` of `q / quantum`); the search then uses the
/// conservative envelope across the bracket — feasibility is the AND of
/// the two feasibility codes (never optimistic: a cell must meet QoS at *both*
/// surrounding centers) and LS power the pointwise `max` of the two
/// lattices. At a slab center the bracket degenerates to one slab and
/// every envelope lookup is bit-identical to the live model call. The
/// envelope is a `max`, never a linear interpolation: a lerp can
/// undershoot the live model between centers.
#[derive(Debug)]
pub struct LsSlabs {
    quantum: f64,
    headroom: f64,
    max_bucket: u64,
    spec: NodeSpec,
    slabs: Mutex<HashMap<u64, Arc<LsSlab>>>,
    builds: AtomicU64,
}

impl LsSlabs {
    /// Creates an empty slab family. `quantum` is the bucket width in QPS
    /// (must be positive); `max_bucket` caps the lattice at the first
    /// bucket whose center exceeds the trained domain — every load beyond
    /// it is infeasible anyway, so brackets clamp there and the map stays
    /// bounded.
    pub fn new(spec: &NodeSpec, quantum: f64, headroom: f64, max_qps: f64) -> Self {
        debug_assert!(quantum > 0.0);
        let max_bucket = ((1.1 * max_qps / quantum).floor() as u64).saturating_add(1);
        Self {
            quantum,
            headroom,
            max_bucket,
            spec: spec.clone(),
            slabs: Mutex::new(HashMap::new()),
            builds: AtomicU64::new(0),
        }
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
        let own = &self.spec;
        same_lattice(
            own.total_cores,
            own.total_llc_ways,
            &own.freq_levels_ghz,
            spec,
        )
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

    /// Returns the slab for `bucket`, allocating it empty on first use.
    /// The map lock is held only to fetch or insert that empty slab; its
    /// cells fill lazily outside any lock, so no model ever runs under it.
    pub fn slab(&self, bucket: u64) -> Arc<LsSlab> {
        let mut map = self.slabs.lock();
        let slab = map.entry(bucket).or_insert_with(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            let qps = self.center(bucket);
            Arc::new(LsSlab::new(&self.spec, qps, qps * (1.0 + self.headroom)))
        });
        Arc::clone(slab)
    }

    /// How many slabs were allocated (as opposed to map hits).
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
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
        static_power_w: f64,
        tput: impl Fn(u32, f64, u32) -> f64,
        power: impl Fn(u32, f64) -> f64,
    ) -> ModelTables {
        let ways: Vec<u32> = (1..=spec.total_llc_ways).collect();
        ModelTables::build(
            spec,
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
            12.5,
            |c, f, w| c as f64 * 100.0 + f * 10.0 + w as f64,
            |c, f| c as f64 + f,
        );
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
        let t = tables(&spec, 0.0, f, |_, _| 0.0);
        // The prefix bound is the maximum over every smaller-or-equal slice.
        let mut upto = 0.0f64;
        for c in 1..=4u32 {
            for level in 0..3usize {
                for w in 1..=3u32 {
                    upto = upto.max(t.be_throughput(c, level, w));
                }
            }
            assert_eq!(t.slice_max_tput_upto(c), upto);
        }
    }

    #[test]
    fn tables_reject_mismatched_spec() {
        let spec = small_spec();
        let t = tables(&spec, 0.0, |_, _, _| 0.0, |_, _| 0.0);
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
        let slab = LsSlab::new(&spec, 30.0, 32.4);
        assert_eq!((slab.qps(), slab.qps_power()), (30.0, 32.4));
        // C1 = 1 draws 0 W, which must still read as a stored cell.
        let power = |c: u32, g: f64, w: u32| (c - 1) as f64 * 10.0 + g + w as f64 * 0.1;
        for pass in 0..2 {
            for c in 1..=4u32 {
                for (level, &ghz) in spec.freq_levels_ghz.iter().enumerate() {
                    for w in 1..=3u32 {
                        let ok = (c + w) % 2 == 0;
                        let p = if c == 1 { 0.0 } else { power(c, ghz, w) };
                        let got = slab.feasible(c, level, w, || {
                            assert_eq!(pass, 0, "feasibility refilled");
                            ok
                        });
                        assert_eq!(got, ok);
                        let got = slab.ls_power_w(c, level, w, || {
                            assert_eq!(pass, 0, "power refilled");
                            p
                        });
                        assert_eq!(got.to_bits(), p.to_bits());
                    }
                }
            }
        }
        // Known-infeasible levels per column; column (4, 2) straddles two
        // words. An unfilled column knows nothing.
        for c in 1..=4u32 {
            for w in 1..=3u32 {
                let want = if (c + w) % 2 == 0 { 0 } else { 0b01_01_01 };
                assert_eq!(slab.known_infeasible(c, w), want, "column ({c}, {w})");
            }
        }
        assert_eq!(LsSlab::new(&spec, 1.0, 1.0).known_infeasible(4, 2), 0);
    }

    #[test]
    fn slab_bracket_degenerates_at_centers_and_clamps_beyond_domain() {
        let spec = small_spec();
        let slabs = LsSlabs::new(&spec, 10.0, 0.08, 400.0);
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
        let slabs = LsSlabs::new(&spec, 10.0, 0.5, 400.0);
        assert_eq!(slabs.builds(), 0);
        let a = slabs.slab(2);
        assert_eq!(slabs.builds(), 1);
        let b = slabs.slab(2);
        assert_eq!(slabs.builds(), 1, "second request must hit the map");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((a.qps(), a.qps_power()), (20.0, 30.0));
    }
}
