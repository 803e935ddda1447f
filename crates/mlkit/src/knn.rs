//! K-nearest-neighbour regression and classification.
//!
//! The paper finds KNN regression "the most suitable for the power model
//! of both LS/BE applications" and competitive for BE performance models
//! (Fig. 6/7), and the controller asks these models hundreds of questions
//! per decision. Queries therefore go through an exact KD-tree rather than
//! a scan of every training row.
//!
//! Training rows are stored standardized. A row's squared distance to a
//! query is the left fold, from 0, of its per-feature terms in feature
//! order. The `k` nearest are the first `k` rows ranked by the canonical
//! key `(dist2, row)`, and predictions aggregate them in that order, so
//! no visiting order can change a bit of a prediction.
//!
//! The tree ([`KdTree`]) is built over the standardized rows on the first
//! query after a fit (a [`OnceLock`], so fitting stays as cheap as copying
//! the data). Each node splits its rows at the median of its widest
//! feature and records the box bounding them. A query walks the nearer
//! child first and skips a node only when the box's distance bound is
//! strictly greater than the worst held distance. The bound folds, left
//! to right, each feature's term to the nearest point of the box; every
//! term is ≤ the same term for any row in the box and rounding is
//! monotone, so the bound is ≤ every such row's distance. A skipped row
//! is therefore strictly farther than the worst held one and could not
//! get in, not even on the row tie-break: the tree finds exactly the
//! neighbours a full scan finds.
//!
//! A query allocates nothing: the standardized query, the traversal stack
//! and the held neighbours live in per-thread buffers that are reused.

use crate::model::{check_binary_targets, Classifier, Dataset, MlError, Regressor};
use crate::preprocess::Standardizer;
use std::cell::RefCell;
use std::sync::OnceLock;

/// Most training rows in one KD-tree leaf.
const LEAF: usize = 16;

/// A training row's squared distance to the query, with its row index
/// and target. Neighbours are ranked by the canonical key
/// `(dist2, row)`, so the `k` nearest are one set, held in one order,
/// whatever order the rows are visited in.
#[derive(Debug, Clone, Copy)]
struct Neighbor {
    dist2: f64,
    row: usize,
    y: f64,
}

impl Neighbor {
    /// True when `self` ranks strictly before `other` on `(dist2, row)`.
    #[inline]
    fn before(&self, other: &Neighbor) -> bool {
        self.dist2 < other.dist2 || (self.dist2 == other.dist2 && self.row < other.row)
    }
}

/// One feature's term of the squared distance.
#[inline]
fn term(q: f64, x: f64) -> f64 {
    (q - x).powi(2)
}

/// The `k` nearest candidates offered so far, ascending by
/// `(dist2, row)`. A row gets in when it ranks before the worst held
/// candidate.
#[derive(Debug, Default)]
struct NearestK {
    k: usize,
    held: Vec<Neighbor>,
    /// The worst held distance once `k` candidates are held, `+∞` before.
    bound: f64,
}

impl NearestK {
    /// Empties the set for a new query with neighbourhood size `k`,
    /// keeping its buffer.
    fn reset(&mut self, k: usize) {
        self.k = k;
        self.held.clear();
        self.bound = f64::INFINITY;
    }

    #[inline]
    fn full(&self) -> bool {
        self.held.len() >= self.k
    }

    /// Offers one row. Most rows are strictly farther than the worst held
    /// candidate and fail the first comparison; the row tie-break only
    /// runs on an exact distance tie.
    #[inline]
    fn offer(&mut self, dist2: f64, row: usize, y: f64) {
        if dist2 <= self.bound
            && (dist2 < self.bound || !self.full() || row < self.held[self.k - 1].row)
        {
            self.insert(Neighbor { dist2, row, y });
        }
    }

    fn insert(&mut self, n: Neighbor) {
        if self.full() {
            self.held.pop();
        }
        let at = self.held.partition_point(|h| h.before(&n));
        self.held.insert(at, n);
        if self.full() {
            self.bound = self.held[self.k - 1].dist2;
        }
    }
}

/// A KD-tree node: the rows `start..end` of the tree's leaf order, split
/// into two children unless it is a leaf. Nodes are stored depth-first,
/// so an inner node's left child directly follows it.
#[derive(Debug, Clone)]
struct Node {
    start: usize,
    end: usize,
    /// The right child's id, `0` for a leaf (the root is nobody's child).
    right: usize,
    /// The split feature and value: `left` holds the rows ranked below
    /// the median on `(value, row)`, `right` the rest.
    dim: usize,
    split: f64,
}

/// A KD-tree over standardized training rows.
#[derive(Debug, Clone)]
struct KdTree {
    dims: usize,
    /// Node 0 is the root.
    nodes: Vec<Node>,
    /// Each node's bounding box, `lo[node · dims + j] ..= hi[node · dims + j]`.
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// The training rows in leaf order.
    rows: Vec<usize>,
}

impl KdTree {
    /// Builds the tree over the `n` standardized rows stored row-major in
    /// `x`.
    fn build(dims: usize, x: &[f64], n: usize) -> Self {
        let mut order: Vec<usize> = (0..n).collect();
        let mut tree = Self {
            dims,
            nodes: Vec::new(),
            lo: Vec::new(),
            hi: Vec::new(),
            rows: Vec::new(),
        };
        tree.grow(x, &mut order, 0);
        tree.rows = order;
        tree
    }

    /// Adds the node over `order` (which starts at leaf position `start`)
    /// and its subtree, permuting `order` into leaf order; returns its id.
    fn grow(&mut self, x: &[f64], order: &mut [usize], start: usize) -> usize {
        let dims = self.dims;
        let id = self.nodes.len();
        for j in 0..dims {
            let values = order.iter().map(|&r| x[r * dims + j]);
            self.lo.push(values.clone().fold(f64::INFINITY, f64::min));
            self.hi.push(values.fold(f64::NEG_INFINITY, f64::max));
        }
        self.nodes.push(Node {
            start,
            end: start + order.len(),
            right: 0,
            dim: 0,
            split: 0.0,
        });
        if order.len() <= LEAF {
            return id;
        }
        let (lo, hi) = (&self.lo[id * dims..], &self.hi[id * dims..]);
        let dim = (0..dims).fold(0, |best, j| {
            if hi[j] - lo[j] > hi[best] - lo[best] {
                j
            } else {
                best
            }
        });
        let mid = order.len() / 2;
        order.select_nth_unstable_by(mid, |&a, &b| {
            x[a * dims + dim]
                .total_cmp(&x[b * dims + dim])
                .then(a.cmp(&b))
        });
        let split = x[order[mid] * dims + dim];
        let (left, right) = order.split_at_mut(mid);
        self.grow(x, left, start);
        let right = self.grow(x, right, start + mid);
        let node = &mut self.nodes[id];
        (node.right, node.dim, node.split) = (right, dim, split);
        id
    }

    /// A lower bound on the distance from `q` to every row in `node`'s
    /// box: the left fold of each feature's term to the box's nearest
    /// point.
    #[inline]
    fn box_dist2(&self, node: usize, q: &[f64]) -> f64 {
        let lo = &self.lo[node * self.dims..(node + 1) * self.dims];
        let hi = &self.hi[node * self.dims..(node + 1) * self.dims];
        let mut d = 0.0;
        for ((&qj, &l), &h) in q.iter().zip(lo).zip(hi) {
            d += term(qj, qj.clamp(l, h));
        }
        d
    }

    /// Offers `near` every row of `x` (features) and `y` (targets) that
    /// could be among the nearest to `q`.
    fn search(&self, x: &[f64], y: &[f64], q: &[f64], near: &mut NearestK, stack: &mut Vec<usize>) {
        stack.clear();
        stack.push(0);
        while let Some(id) = stack.pop() {
            if self.box_dist2(id, q) > near.bound {
                continue;
            }
            let node = &self.nodes[id];
            let left = id + 1;
            if node.right == 0 {
                for &row in &self.rows[node.start..node.end] {
                    let mut d = 0.0;
                    for (&qj, &v) in q.iter().zip(&x[row * self.dims..(row + 1) * self.dims]) {
                        d += term(qj, v);
                    }
                    near.offer(d, row, y[row]);
                }
            } else if q[node.dim] < node.split {
                stack.extend([node.right, left]);
            } else {
                stack.extend([left, node.right]);
            }
        }
    }
}

/// The buffers one query works in, reused across queries on a thread.
#[derive(Debug, Default)]
struct Scratch {
    q: Vec<f64>,
    near: NearestK,
    stack: Vec<usize>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Shared KNN core: standardizes features at fit time and finds the `k`
/// nearest training rows at query time.
#[derive(Debug, Clone)]
struct KnnCore {
    k: usize,
    dims: usize,
    /// Standardized training features, row-major: feature `j` of row `r`
    /// is `x[r · dims + j]`.
    x: Vec<f64>,
    y: Vec<f64>,
    scaler: Option<Standardizer>,
    /// Built from `x` on the first query after a fit.
    tree: OnceLock<KdTree>,
}

impl KnnCore {
    fn new(k: usize) -> Self {
        Self {
            k,
            dims: 0,
            x: Vec::new(),
            y: Vec::new(),
            scaler: None,
            tree: OnceLock::new(),
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
        self.x = data
            .x
            .iter()
            .flat_map(|row| row.iter().enumerate().map(|(j, &v)| scaler.scale(j, v)))
            .collect();
        self.y = data.y.clone();
        self.scaler = Some(scaler);
        self.tree = OnceLock::new();
        Ok(())
    }

    /// Aggregates the `k` nearest neighbours of `x`, ascending by
    /// `(dist2, row)`, with `f`.
    fn with_nearest<R>(&self, x: &[f64], f: impl FnOnce(&[Neighbor]) -> R) -> R {
        let scaler = self.scaler.as_ref().expect("predict before fit");
        let tree = self
            .tree
            .get_or_init(|| KdTree::build(self.dims, &self.x, self.y.len()));
        SCRATCH.with_borrow_mut(|s| {
            s.q.clear();
            s.q.extend((0..self.dims).map(|j| scaler.scale(j, x[j])));
            s.near.reset(self.k);
            tree.search(&self.x, &self.y, &s.q, &mut s.near, &mut s.stack);
            f(&s.near.held)
        })
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
        self.core.with_nearest(x, |near| aggregate(near, self.mode))
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
        self.core
            .with_nearest(x, |near| aggregate(near, Aggregation::Mean))
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

    /// The textbook scan the tree replaces: row-major rows, summed
    /// squared differences, all rows sorted by `(dist2, row)` and the
    /// first `k` aggregated in that order. Point queries must match it bit
    /// for bit.
    fn reference_predict(data: &Dataset, k: usize, mode: Aggregation, x: &[f64]) -> f64 {
        let scaler = Standardizer::fit(data);
        let q = scaler.transformed(x);
        let mut all: Vec<Neighbor> = data
            .x
            .iter()
            .zip(&data.y)
            .enumerate()
            .map(|(row, (features, &y))| {
                let features = scaler.transformed(features);
                let dist2 = q.iter().zip(&features).map(|(a, b)| (a - b).powi(2)).sum();
                Neighbor { dist2, row, y }
            })
            .collect();
        all.sort_by(|a, b| a.dist2.total_cmp(&b.dist2).then(a.row.cmp(&b.row)));
        aggregate(&all[..k], mode)
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

    /// A `dims`-feature dataset on a coarse integer lattice: rows repeat
    /// under different targets, so exact distance ties are common. With
    /// `flat`, the last column is constant, like BE power's masked ways.
    fn tie_dataset(rng: &mut StdRng, rows: usize, dims: usize, flat: bool) -> Dataset {
        let mut x: Vec<Vec<f64>> = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = if r > 0 && rng.gen_range(0..4) == 0 {
                x[rng.gen_range(0..r)].clone()
            } else {
                (0..dims)
                    .map(|j| (rng.gen_range(0..4) * (j + 1)) as f64)
                    .collect()
            };
            x.push(row);
        }
        if flat {
            for row in &mut x {
                row[dims - 1] = 3.0;
            }
        }
        let y = (0..rows)
            .map(|_| rng.gen_range(0..1000) as f64 / 10.0)
            .collect();
        Dataset::new(x, y).unwrap()
    }

    /// Queries on training rows, between them, and far outside the box.
    fn tie_queries(rng: &mut StdRng, data: &Dataset) -> Vec<Vec<f64>> {
        let mut queries = Vec::new();
        for row in data.x.iter().take(24) {
            queries.push(row.clone());
            queries.push(row.iter().map(|v| v + rng.gen_range(-1.5..1.5)).collect());
            queries.push(row.iter().map(|v| v * 1e4 - 3e4).collect());
        }
        queries
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn tree_predict_is_bit_identical_to_a_sorted_scan(
            seed in 0u64..u64::MAX,
            rows in prop_oneof![1usize..LEAF, Just(LEAF), LEAF + 1..8 * LEAF],
            dims in 1usize..6,
            flat in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let data = tie_dataset(&mut rng, rows, dims, flat);
            let queries = tie_queries(&mut rng, &data);
            for k in [1, rng.gen_range(1..=rows), rows] {
                for mode in [Aggregation::Mean, Aggregation::Weighted, Aggregation::Peak] {
                    let mut model = KnnRegressor { core: KnnCore::new(k), mode };
                    model.fit(&data).unwrap();
                    for q in &queries {
                        let want = reference_predict(&data, k, mode, q);
                        prop_assert_eq!(model.predict(q).to_bits(), want.to_bits());
                    }
                }
                let labels: Vec<f64> = data.y.iter().map(|&y| f64::from(y >= 50.0)).collect();
                let binary = Dataset::new(data.x.clone(), labels).unwrap();
                let mut classifier = KnnClassifier::new(k);
                classifier.fit(&binary).unwrap();
                for q in &queries {
                    let want = reference_predict(&binary, k, Aggregation::Mean, q);
                    prop_assert_eq!(classifier.predict_score(q).to_bits(), want.to_bits());
                }
            }
        }
    }

    #[test]
    fn concurrent_first_queries_return_identical_bits() {
        let mut rng = StdRng::seed_from_u64(5);
        let data = tie_dataset(&mut rng, 600, 4, false);
        let queries = tie_queries(&mut rng, &data);
        let mut serial = KnnRegressor::weighted(5);
        serial.fit(&data).unwrap();
        let want: Vec<u64> = queries
            .iter()
            .map(|q| serial.predict(q).to_bits())
            .collect();
        for _ in 0..8 {
            // A fresh fit, so the threads race to build its tree.
            let mut shared = KnnRegressor::weighted(5);
            shared.fit(&data).unwrap();
            let barrier = std::sync::Barrier::new(4);
            std::thread::scope(|s| {
                let runs: Vec<_> = (0..4)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            queries
                                .iter()
                                .map(|q| shared.predict(q).to_bits())
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for run in runs {
                    assert_eq!(run.join().unwrap(), want);
                }
            });
        }
    }

    #[test]
    fn refit_rebuilds_the_tree() {
        let mut rng = StdRng::seed_from_u64(9);
        let first = tie_dataset(&mut rng, 90, 3, false);
        let second = tie_dataset(&mut rng, 70, 3, true);
        let queries = tie_queries(&mut rng, &second);
        let mut model = KnnRegressor::weighted(4);
        model.fit(&first).unwrap();
        model.predict(&queries[0]);
        model.fit(&second).unwrap();
        for q in &queries {
            let want = reference_predict(&second, 4, Aggregation::Weighted, q);
            assert_eq!(model.predict(q).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn weighted_grid_short_circuits_exact_matches() {
        let mut rng = StdRng::seed_from_u64(11);
        let data = lattice_dataset(&mut rng, 120);
        let mut m = KnnRegressor::weighted(3);
        m.fit(&data).unwrap();
        // Query exactly at a training row: the 1e-18 short-circuit must
        // fire on the lattice path just as it does per point, and return
        // the target of the lowest such row.
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
