//! K-nearest-neighbour regression and classification.
//!
//! The paper finds KNN regression "the most suitable for the power model
//! of both LS/BE applications" and competitive for BE performance models
//! (Fig. 6/7). With only four features and a few thousand profiling
//! samples, a brute-force scan with a bounded max-heap is both simple and
//! fast (well under the paper's 0.04 ms/prediction budget in release
//! builds).
//!
//! Training rows are stored standardized as flat feature columns. A
//! point query folds the per-feature squared differences left to right
//! and offers every row, in order, to one bounded max-heap
//! ([`NearestK`]). [`KnnRegressor`]'s lattice kernel
//! ([`Regressor::predict_grid`]) runs the same fold and the same heap, so
//! it is bit-identical to point queries; it only shares work between
//! cells:
//!
//! * the partial sums of the fold are kept per training row — the
//!   feature-0 term once per lattice, plus feature 1 once per `a`, plus
//!   feature 2 once per `(a, b)` — and each cell adds its feature-3 term
//!   last, exactly as the point fold does;
//! * rows are scanned in blocks of [`BLOCK`], and a block is skipped when
//!   the heap is full and the block's smallest partial sum is already ≥
//!   the heap's worst distance. The skip is exact: the last term is ≥ 0
//!   and rounding is monotone, so every distance in the block is ≥ that
//!   partial sum, and the heap only accepts a row strictly closer than
//!   its worst — the push/pop sequence, hence the heap layout and the
//!   aggregation order, is unchanged.

use crate::model::{check_binary_targets, check_grid, Classifier, Dataset, MlError, Regressor};
use crate::preprocess::Standardizer;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Training rows per skip-test block of the lattice kernel.
const BLOCK: usize = 32;

/// A `(distance, target)` pair ordered by distance for the bounded heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Neighbor {
    dist2: f64,
    y: f64,
}

impl Eq for Neighbor {}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist2.total_cmp(&other.dist2)
    }
}

/// One feature's term of the squared distance.
#[inline]
fn term(q: f64, x: f64) -> f64 {
    (q - x).powi(2)
}

/// The `k` nearest candidates offered so far: a max-heap of size `k`
/// keyed on distance, whose root is the current worst candidate and is
/// evicted by any strictly closer one. Every query path offers rows
/// through here, so they all produce the same heap layout.
#[derive(Debug)]
struct NearestK {
    k: usize,
    heap: BinaryHeap<Neighbor>,
    /// The root's distance once the heap is full, `+∞` before: a row
    /// must be strictly closer to displace the root.
    bound: f64,
}

impl NearestK {
    fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
            bound: f64::INFINITY,
        }
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.bound = f64::INFINITY;
    }

    /// True once `k` candidates are held, so a row must beat
    /// [`bound`](Self::bound) to get in.
    #[inline]
    fn full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// Pushes while fewer than `k` candidates are held; afterwards
    /// replaces the root with any strictly closer row.
    #[inline]
    fn offer(&mut self, dist2: f64, y: f64) {
        if dist2 < self.bound || !self.full() {
            if self.full() {
                self.heap.pop();
            }
            self.heap.push(Neighbor { dist2, y });
            if self.full() {
                self.bound = self.heap.peek().expect("heap non-empty").dist2;
            }
        }
    }

    /// Offers a block of rows in order.
    #[inline]
    fn offer_all(&mut self, dist2: &[f64], y: &[f64]) {
        for (&d, &y) in dist2.iter().zip(y) {
            self.offer(d, y);
        }
    }

    /// The held candidates in heap order.
    fn as_slice(&self) -> &[Neighbor] {
        self.heap.as_slice()
    }
}

/// Shared KNN core: standardizes features at fit time and finds the `k`
/// nearest training rows at query time.
#[derive(Debug, Clone)]
struct KnnCore {
    k: usize,
    dims: usize,
    /// Standardized training features, column-major: feature `j` of row
    /// `r` is `cols[j · n + r]`.
    cols: Vec<f64>,
    y: Vec<f64>,
    scaler: Option<Standardizer>,
}

impl KnnCore {
    fn new(k: usize) -> Self {
        Self {
            k,
            dims: 0,
            cols: Vec::new(),
            y: Vec::new(),
            scaler: None,
        }
    }

    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        if self.k == 0 {
            return Err(MlError::InvalidParameter("k must be ≥ 1".into()));
        }
        if data.len() < self.k {
            return Err(MlError::InvalidDataset(format!(
                "k = {} exceeds dataset size {}",
                self.k,
                data.len()
            )));
        }
        let scaler = Standardizer::fit(data);
        self.dims = data.dims();
        let rows = &data.x;
        let s = &scaler;
        self.cols = (0..self.dims)
            .flat_map(|j| rows.iter().map(move |row| s.scale(j, row[j])))
            .collect();
        self.y = data.y.clone();
        self.scaler = Some(scaler);
        Ok(())
    }

    fn scaler(&self) -> &Standardizer {
        self.scaler.as_ref().expect("predict before fit")
    }

    /// Feature column `j` of the standardized training rows.
    fn col(&self, j: usize) -> &[f64] {
        let n = self.y.len();
        &self.cols[j * n..(j + 1) * n]
    }

    /// The `k` nearest neighbours of `x`. Each row's squared distance is
    /// the left fold, from 0, of its per-feature terms in feature order.
    fn nearest(&self, x: &[f64]) -> NearestK {
        let q = self.scaler().transformed(x);
        let mut near = NearestK::new(self.k);
        let mut dist2 = [0.0; BLOCK];
        for start in (0..self.y.len()).step_by(BLOCK) {
            let rows = start..(start + BLOCK).min(self.y.len());
            let dist2 = &mut dist2[..rows.len()];
            dist2.fill(0.0);
            for (j, &qj) in q.iter().take(self.dims).enumerate() {
                for (d, &v) in dist2.iter_mut().zip(&self.col(j)[rows.clone()]) {
                    *d += term(qj, v);
                }
            }
            near.offer_all(dist2, &self.y[rows]);
        }
        near
    }

    /// The lattice kernel behind [`KnnRegressor::predict_grid`]: calls
    /// `each(cell, neighbours)` for every unmasked cell of the row-major
    /// `[x0, a, b, c]` lattice, with the same neighbours, in the same heap
    /// order, as [`nearest`](Self::nearest) finds for that cell's point.
    /// Needs a 4-feature fit; scratch memory is O(training rows).
    fn grid(
        &self,
        x0: f64,
        x1: &[f64],
        x2: &[f64],
        x3: &[f64],
        mask: Option<&[bool]>,
        mut each: impl FnMut(usize, &[Neighbor]),
    ) {
        debug_assert_eq!(self.dims, 4);
        let scaler = self.scaler();
        let (c0, c1, c2, c3) = (self.col(0), self.col(1), self.col(2), self.col(3));
        let q0 = scaler.scale(0, x0);
        let p0: Vec<f64> = c0.iter().map(|&v| term(q0, v)).collect();
        let mut p1 = vec![0.0; p0.len()];
        let mut p2 = vec![0.0; p0.len()];
        let mut block_min = vec![0.0; p0.len().div_ceil(BLOCK)];
        let mut near = NearestK::new(self.k);
        let mut dist2 = [0.0; BLOCK];
        let n3 = x3.len();
        let live = |cells: std::ops::Range<usize>| mask.is_none_or(|m| m[cells].contains(&true));
        for (i, &a) in x1.iter().enumerate() {
            let row_a = i * x2.len() * n3;
            if !live(row_a..row_a + x2.len() * n3) {
                continue;
            }
            let qa = scaler.scale(1, a);
            for ((s, &p), &v) in p1.iter_mut().zip(&p0).zip(c1) {
                *s = p + term(qa, v);
            }
            for (j, &b) in x2.iter().enumerate() {
                let row_b = row_a + j * n3;
                if !live(row_b..row_b + n3) {
                    continue;
                }
                let qb = scaler.scale(2, b);
                for ((s, &p), &v) in p2.iter_mut().zip(&p1).zip(c2) {
                    *s = p + term(qb, v);
                }
                for (m, block) in block_min.iter_mut().zip(p2.chunks(BLOCK)) {
                    *m = block.iter().fold(f64::INFINITY, |lo, &p| lo.min(p));
                }
                for (k, &c) in x3.iter().enumerate() {
                    let cell = row_b + k;
                    if mask.is_some_and(|m| !m[cell]) {
                        continue;
                    }
                    let qc = scaler.scale(3, c);
                    near.clear();
                    for (blk, &lo) in block_min.iter().enumerate() {
                        if near.full() && lo >= near.bound {
                            continue;
                        }
                        let rows = blk * BLOCK..((blk + 1) * BLOCK).min(p2.len());
                        let dist2 = &mut dist2[..rows.len()];
                        for ((d, &p), &v) in dist2
                            .iter_mut()
                            .zip(&p2[rows.clone()])
                            .zip(&c3[rows.clone()])
                        {
                            *d = p + term(qc, v);
                        }
                        near.offer_all(dist2, &self.y[rows]);
                    }
                    each(cell, near.as_slice());
                }
            }
        }
    }
}

/// How neighbour targets are folded into one prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Aggregation {
    /// Plain mean of the `k` targets.
    Mean,
    /// Inverse-distance-weighted mean. Removes the smoothing bias at the
    /// edges of the training domain (critical for power models queried at
    /// the all-cores/max-frequency corner).
    Weighted,
    /// Maximum of the `k` targets: the paper's conservative peak-power
    /// training ("Sturgeon builds power models based on their peak powers
    /// conservatively"). Mean-style aggregation systematically
    /// *under*-predicts at domain boundaries because every neighbour lies
    /// on the interior, cheaper side; taking the neighbourhood peak turns
    /// that bias into a safety margin instead.
    Peak,
}

/// Folds neighbour targets into one prediction per the aggregation mode.
fn aggregate(neighbors: &[Neighbor], mode: Aggregation) -> f64 {
    if neighbors.is_empty() {
        return 0.0;
    }
    match mode {
        Aggregation::Weighted => {
            // An exact-match neighbour short-circuits to its target.
            if let Some(hit) = neighbors.iter().find(|n| n.dist2 < 1e-18) {
                return hit.y;
            }
            let mut num = 0.0;
            let mut den = 0.0;
            for n in neighbors {
                let w = 1.0 / n.dist2.sqrt();
                num += w * n.y;
                den += w;
            }
            num / den
        }
        Aggregation::Mean => neighbors.iter().map(|n| n.y).sum::<f64>() / neighbors.len() as f64,
        Aggregation::Peak => neighbors
            .iter()
            .map(|n| n.y)
            .fold(f64::NEG_INFINITY, f64::max),
    }
}

/// KNN regressor: predicts an aggregate (mean, distance-weighted mean, or
/// peak) of the `k` nearest neighbours' targets.
#[derive(Debug, Clone)]
pub struct KnnRegressor {
    core: KnnCore,
    mode: Aggregation,
}

impl KnnRegressor {
    /// Creates a plain-mean regressor with neighbourhood size `k`.
    pub fn new(k: usize) -> Self {
        Self {
            core: KnnCore::new(k),
            mode: Aggregation::Mean,
        }
    }

    /// Creates an inverse-distance-weighted regressor.
    pub fn weighted(k: usize) -> Self {
        Self {
            core: KnnCore::new(k),
            mode: Aggregation::Weighted,
        }
    }

    /// Creates a peak-of-neighbourhood regressor (conservative: predicts
    /// the largest target among the `k` nearest training rows).
    pub fn peak(k: usize) -> Self {
        Self {
            core: KnnCore::new(k),
            mode: Aggregation::Peak,
        }
    }
}

impl Regressor for KnnRegressor {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        self.core.fit(data)
    }

    fn predict(&self, x: &[f64]) -> f64 {
        aggregate(self.core.nearest(x).as_slice(), self.mode)
    }

    fn predict_grid(
        &self,
        x0: f64,
        x1: &[f64],
        x2: &[f64],
        x3: &[f64],
        mask: Option<&[bool]>,
        out: &mut [f64],
    ) {
        if self.core.dims != 4 {
            return crate::model::predict_grid_pointwise(self, x0, x1, x2, x3, mask, out);
        }
        check_grid(x1, x2, x3, mask, out);
        self.core.grid(x0, x1, x2, x3, mask, |cell, near| {
            out[cell] = aggregate(near, self.mode);
        });
    }
}

/// KNN classifier: majority vote of the `k` nearest neighbours.
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    core: KnnCore,
}

impl KnnClassifier {
    /// Creates a classifier with neighbourhood size `k` (odd values avoid
    /// ties).
    pub fn new(k: usize) -> Self {
        Self {
            core: KnnCore::new(k),
        }
    }
}

impl Classifier for KnnClassifier {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        check_binary_targets(data)?;
        self.core.fit(data)
    }

    fn predict_score(&self, x: &[f64]) -> f64 {
        aggregate(self.core.nearest(x).as_slice(), Aggregation::Mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::DecisionTreeRegressor;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grid() -> Dataset {
        // y = x0 + x1 over a 10×10 grid.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                x.push(vec![i as f64, j as f64]);
                y.push((i + j) as f64);
            }
        }
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn k1_memorizes_training_points() {
        let data = grid();
        let mut m = KnnRegressor::new(1);
        m.fit(&data).unwrap();
        for (row, &y) in data.x.iter().zip(&data.y) {
            assert_eq!(m.predict(row), y);
        }
    }

    #[test]
    fn interpolates_smooth_functions() {
        let data = grid();
        let mut m = KnnRegressor::new(4);
        m.fit(&data).unwrap();
        // Query the centre of a grid cell: 4 symmetric neighbours average
        // to the exact function value.
        assert!((m.predict(&[4.5, 4.5]) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_zero_k_and_oversized_k() {
        let data = grid();
        assert!(KnnRegressor::new(0).fit(&data).is_err());
        assert!(KnnRegressor::new(101).fit(&data).is_err());
    }

    #[test]
    fn classifier_majority_vote() {
        // Class 1 iff x0 > 5.
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 2.0]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| if r[0] > 5.0 { 1.0 } else { 0.0 })
            .collect();
        let data = Dataset::new(x, y).unwrap();
        let mut m = KnnClassifier::new(3);
        m.fit(&data).unwrap();
        assert!(m.predict_label(&[9.0]));
        assert!(!m.predict_label(&[1.0]));
    }

    #[test]
    fn classifier_rejects_non_binary() {
        let data = Dataset::new(vec![vec![0.0], vec![1.0]], vec![0.0, 3.0]).unwrap();
        assert!(KnnClassifier::new(1).fit(&data).is_err());
    }

    #[test]
    fn scaling_makes_features_comparable() {
        // Feature 1 has a huge scale but is irrelevant; with
        // standardization the relevant feature 0 still dominates.
        let x: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i % 10) as f64, (i as f64) * 1e6])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0]).collect();
        let data = Dataset::new(x, y).unwrap();
        let mut m = KnnRegressor::new(5);
        m.fit(&data).unwrap();
        let p = m.predict(&[3.0, 25.0e6]);
        assert!(p.is_finite());
    }

    /// A random 4-feature dataset on a coarse integer lattice, so rows
    /// repeat (exact distance ties with different targets) and lattice
    /// queries land exactly on training rows.
    fn lattice_dataset(rng: &mut StdRng, rows: usize) -> Dataset {
        let mut x = Vec::with_capacity(rows);
        let mut y = Vec::with_capacity(rows);
        for _ in 0..rows {
            let row = vec![
                rng.gen_range(0..4) as f64 * 250.0,
                rng.gen_range(1..6) as f64,
                1.2 + 0.25 * rng.gen_range(0..4) as f64,
                rng.gen_range(0..5) as f64,
            ];
            if rng.gen_range(0..4) == 0 {
                // Duplicate features under a different target.
                x.push(row.clone());
                y.push(rng.gen_range(0..1000) as f64 / 10.0);
            }
            x.push(row);
            y.push(rng.gen_range(0..1000) as f64 / 10.0);
        }
        Dataset::new(x, y).unwrap()
    }

    /// Lattice axes mixing on-lattice and off-lattice values.
    fn axes(rng: &mut StdRng) -> (f64, Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut axis = |n: usize, on: &dyn Fn(&mut StdRng) -> f64| -> Vec<f64> {
            (0..n)
                .map(|_| {
                    let v = on(rng);
                    if rng.gen_range(0..3) == 0 {
                        v + rng.gen_range(-0.5..0.5)
                    } else {
                        v
                    }
                })
                .collect()
        };
        let x0 = axis(1, &|r| r.gen_range(0..4) as f64 * 250.0)[0];
        let x1 = axis(3, &|r| r.gen_range(1..6) as f64);
        let x2 = axis(2, &|r| 1.2 + 0.25 * r.gen_range(0..4) as f64);
        let x3 = axis(4, &|r| r.gen_range(0..5) as f64);
        (x0, x1, x2, x3)
    }

    /// The textbook scan the kernels replace: row-major rows, summed
    /// squared differences, one push/pop heap. Point queries must match
    /// it bit for bit.
    fn reference_predict(data: &Dataset, k: usize, mode: Aggregation, x: &[f64]) -> f64 {
        let scaler = Standardizer::fit(data);
        let q = scaler.transformed(x);
        let mut heap = BinaryHeap::new();
        for (row, &y) in data.x.iter().zip(&data.y) {
            let row = scaler.transformed(row);
            let dist2: f64 = q.iter().zip(&row).map(|(a, b)| (a - b).powi(2)).sum();
            if heap.len() < k {
                heap.push(Neighbor { dist2, y });
            } else if dist2 < heap.peek().unwrap().dist2 {
                heap.pop();
                heap.push(Neighbor { dist2, y });
            }
        }
        aggregate(&heap.into_vec(), mode)
    }

    fn check_grid_matches_points(
        model: &dyn Regressor,
        rng: &mut StdRng,
    ) -> Result<(), TestCaseError> {
        let (x0, x1, x2, x3) = axes(rng);
        let cells = x1.len() * x2.len() * x3.len();
        let mask: Vec<bool> = (0..cells).map(|_| rng.gen_range(0..3) != 0).collect();
        for mask in [None, Some(mask.as_slice())] {
            let mut out = vec![f64::NAN; cells];
            model.predict_grid(x0, &x1, &x2, &x3, mask, &mut out);
            let mut cell = 0;
            for &a in &x1 {
                for &b in &x2 {
                    for &c in &x3 {
                        if mask.is_none_or(|m| m[cell]) {
                            let want = model.predict(&[x0, a, b, c]);
                            prop_assert_eq!(out[cell].to_bits(), want.to_bits());
                        } else {
                            prop_assert!(out[cell].is_nan(), "masked cell {} written", cell);
                        }
                        cell += 1;
                    }
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn predict_grid_is_bit_identical_to_predict(seed in 0u64..u64::MAX, rows in 5usize..160) {
            let mut rng = StdRng::seed_from_u64(seed);
            let data = lattice_dataset(&mut rng, rows);
            let k = rng.gen_range(1..6);
            let mut models: Vec<Box<dyn Regressor>> = vec![
                Box::new(KnnRegressor::new(k)),
                Box::new(KnnRegressor::weighted(k)),
                Box::new(KnnRegressor::peak(k)),
                Box::new(DecisionTreeRegressor::default()),
            ];
            for model in &mut models {
                model.fit(&data).unwrap();
                check_grid_matches_points(model.as_ref(), &mut rng)?;
            }
            for (model, mode) in models.iter().zip([Aggregation::Mean, Aggregation::Weighted, Aggregation::Peak]) {
                for row in data.x.iter().step_by(7) {
                    let mut x = row.clone();
                    x[3] += 0.5;
                    for x in [row, &x] {
                        let want = reference_predict(&data, k, mode, x);
                        prop_assert_eq!(model.predict(x).to_bits(), want.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn weighted_grid_short_circuits_exact_matches() {
        let mut rng = StdRng::seed_from_u64(11);
        let data = lattice_dataset(&mut rng, 120);
        let mut m = KnnRegressor::weighted(3);
        m.fit(&data).unwrap();
        // Query exactly at a training row: the 1e-18 short-circuit must
        // fire on the lattice path just as it does per point.
        let row = &data.x[7];
        let mut out = [0.0];
        m.predict_grid(row[0], &row[1..2], &row[2..3], &row[3..4], None, &mut out);
        assert_eq!(out[0].to_bits(), m.predict(row).to_bits());
        assert!(data
            .x
            .iter()
            .zip(&data.y)
            .any(|(r, &y)| r == row && y == out[0]));
    }
}
