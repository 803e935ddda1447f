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
//! query after a fit (a [`LazyLock`], so fitting stays as cheap as copying
//! the data). Each node records the box bounding its rows and splits them
//! on its widest feature: at the middle of the box when that leaves each
//! child at least a third of the rows, else at the median. A query walks
//! the nearer child first and skips a node only when the box's distance bound is
//! strictly greater than the worst held distance. The bound folds, left
//! to right, each feature's term to the nearest point of the box; every
//! term is ≤ the same term for any row in the box and rounding is
//! monotone, so the bound is ≤ every such row's distance. A skipped row
//! is therefore strictly farther than the worst held one and could not
//! get in, not even on the row tie-break: the tree finds exactly the
//! neighbours a full scan finds.
//!
//! The tree is laid out so that a query reads contiguous memory. Nodes
//! are stored depth-first, so a left child follows its parent, and each
//! node's box is one run of `(lo, hi)` pairs at the node's index (64
//! bytes for four features). The build moves the training rows into leaf
//! order: a leaf's values of each standardized feature, its targets and
//! its row ids are each one contiguous run, and the tree holds the only
//! copy of them. A leaf folds its rows' distances a feature column at a
//! time, the same left fold per row as a row-at-a-time scan. The `k` nearest are kept sorted in a buffer of `k`
//! slots that starts filled with sentinels farther than any row, so a
//! candidate is placed by shifting the worse ones down one slot.
//!
//! A query allocates nothing: the standardized query, the traversal stack
//! and the held neighbours live in per-thread buffers that are reused.

use crate::model::{check_binary_targets, Classifier, Dataset, MlError, Regressor};
use crate::preprocess::Standardizer;
use std::cell::RefCell;
use std::sync::LazyLock;

/// Most training rows in one KD-tree leaf. A leaf's distances are summed
/// a feature column at a time, so a wider leaf costs little more to scan
/// than a narrow one and saves node visits.
const LEAF: usize = 32;

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
    /// Fills the slots no row has taken yet: every row ranks before it,
    /// even one at an infinite distance.
    const SENTINEL: Self = Self {
        dist2: f64::INFINITY,
        row: usize::MAX,
        y: 0.0,
    };

    /// True when `(dist2, row)` ranks strictly before `self`.
    #[inline]
    fn after(&self, dist2: f64, row: usize) -> bool {
        dist2 < self.dist2 || (dist2 == self.dist2 && row < self.row)
    }
}

/// One feature's term of the squared distance.
#[inline]
fn term(q: f64, x: f64) -> f64 {
    (q - x).powi(2)
}

/// The `k` nearest candidates offered so far, ascending by
/// `(dist2, row)`, in a buffer of exactly `k` slots; the slots no
/// candidate has reached yet hold [`Neighbor::SENTINEL`].
#[derive(Debug, Default)]
struct NearestK {
    slots: Vec<Neighbor>,
    /// Candidates held, at most `k`.
    len: usize,
    /// The worst held distance once `k` candidates are held, `+∞` before.
    bound: f64,
}

impl NearestK {
    /// Empties the set for a new query with neighbourhood size `k`,
    /// keeping its buffer.
    fn reset(&mut self, k: usize) {
        self.slots.clear();
        self.slots.resize(k, Neighbor::SENTINEL);
        self.len = 0;
        self.bound = f64::INFINITY;
    }

    /// The held candidates, nearest first.
    fn held(&self) -> &[Neighbor] {
        &self.slots[..self.len]
    }

    /// Offers one row whose distance passed the caller's
    /// `dist2 <= bound` reject. It gets in when it ranks before the worst
    /// slot; the row tie-break only decides an exact distance tie.
    #[inline]
    fn offer(&mut self, dist2: f64, row: usize, y: f64) {
        let mut at = self.slots.len() - 1;
        if !self.slots[at].after(dist2, row) {
            return;
        }
        while at > 0 && self.slots[at - 1].after(dist2, row) {
            self.slots[at] = self.slots[at - 1];
            at -= 1;
        }
        self.slots[at] = Neighbor { dist2, row, y };
        self.len = (self.len + 1).min(self.slots.len());
        self.bound = self.slots[self.slots.len() - 1].dist2;
    }
}

/// A KD-tree node: the rows `start..end` of the tree's leaf order, split
/// into two children unless it is a leaf. Nodes are stored depth-first,
/// so an inner node's left child directly follows it.
#[derive(Debug, Clone)]
struct Node {
    start: u32,
    end: u32,
    /// The right child's id, `0` for a leaf (the root is nobody's child).
    right: u32,
    /// The split feature and value: the left child holds the rows ranked
    /// below the cut on `(value, row)`, the right one the rest, starting
    /// with the row whose value is `split`.
    dim: u32,
    split: f64,
}

/// A KD-tree that owns the standardized training rows in leaf order.
#[derive(Debug, Clone)]
struct KdTree {
    dims: usize,
    /// Node 0 is the root.
    nodes: Vec<Node>,
    /// Each node's bounding box as `(lo, hi)` pairs, one per feature:
    /// feature `j` of node `n` spans `bounds[2 · (n · dims + j)]
    /// ..= bounds[2 · (n · dims + j) + 1]`.
    bounds: Vec<f64>,
    /// Standardized features in leaf order, one column per feature:
    /// feature `j` of leaf-order row `i` is `x[j · n + i]`, `n` rows in
    /// all, so a leaf's values of one feature are contiguous.
    x: Vec<f64>,
    /// Targets in leaf order.
    y: Vec<f64>,
    /// Each leaf-order row's index in the training set.
    rows: Vec<usize>,
}

impl KdTree {
    /// Builds the tree over the `y.len()` standardized rows stored one
    /// column per feature in `x`, and permutes `x` and `y` into leaf order
    /// in place, a column at a time.
    fn build(dims: usize, mut x: Vec<f64>, mut y: Vec<f64>) -> Self {
        let n = y.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut tree = Self {
            dims,
            nodes: Vec::new(),
            bounds: Vec::new(),
            x: Vec::new(),
            y: Vec::new(),
            rows: Vec::new(),
        };
        tree.grow(&x, &mut order, 0);
        let mut permuted = vec![0.0; n];
        for column in x.chunks_exact_mut(n).chain([y.as_mut_slice()]) {
            for (value, &row) in permuted.iter_mut().zip(&order) {
                *value = column[row];
            }
            column.copy_from_slice(&permuted);
        }
        (tree.x, tree.y, tree.rows) = (x, y, order);
        tree
    }

    /// Adds the node over `order` (which starts at leaf position `start`)
    /// and its subtree, permuting `order` into leaf order; returns its id.
    /// `x` holds the rows one column per feature, in training order.
    fn grow(&mut self, x: &[f64], order: &mut [usize], start: usize) -> usize {
        let dims = self.dims;
        let column = |j: usize| {
            let n = x.len() / dims;
            &x[j * n..(j + 1) * n]
        };
        let id = self.nodes.len();
        for j in 0..dims {
            let values = order.iter().map(|&r| column(j)[r]);
            self.bounds
                .push(values.clone().fold(f64::INFINITY, f64::min));
            self.bounds.push(values.fold(f64::NEG_INFINITY, f64::max));
        }
        self.nodes.push(Node {
            start: start as u32,
            end: (start + order.len()) as u32,
            right: 0,
            dim: 0,
            split: 0.0,
        });
        if order.len() <= LEAF {
            return id;
        }
        let (pairs, _) = self.bounds[2 * id * dims..].as_chunks::<2>();
        let span = |j: usize| pairs[j][1] - pairs[j][0];
        let dim = (0..dims).fold(0, |best, j| if span(j) > span(best) { j } else { best });
        let values = column(dim);
        // Cut the widest side at its middle, so boxes stay square-ish on
        // the lattice-shaped profiles, unless that leaves either child
        // with less than a third of the rows; then cut at the median.
        let centre = 0.5 * (pairs[dim][0] + pairs[dim][1]);
        let below = order.iter().filter(|&&r| values[r] < centre).count();
        let third = order.len() / 3;
        let mid = if (third..=order.len() - third).contains(&below) {
            below
        } else {
            order.len() / 2
        };
        order.select_nth_unstable_by(mid, |&a, &b| {
            values[a].total_cmp(&values[b]).then(a.cmp(&b))
        });
        let split = values[order[mid]];
        let (left, right) = order.split_at_mut(mid);
        self.grow(x, left, start);
        let right = self.grow(x, right, start + mid);
        let node = &mut self.nodes[id];
        (node.right, node.dim, node.split) = (right as u32, dim as u32, split);
        id
    }

    /// A lower bound on the distance from `q` to every row in `node`'s
    /// box: the left fold of each feature's term to the box's nearest
    /// point.
    #[inline]
    fn box_dist2(&self, node: usize, q: &[f64]) -> f64 {
        let bounds = &self.bounds[2 * node * self.dims..2 * (node + 1) * self.dims];
        let (pairs, _) = bounds.as_chunks::<2>();
        let mut d = 0.0;
        for (&qj, &[lo, hi]) in q.iter().zip(pairs) {
            d += term(qj, qj.clamp(lo, hi));
        }
        d
    }

    /// Offers `near` every row that could be among the nearest to `q`.
    fn search(&self, q: &[f64], near: &mut NearestK, stack: &mut Vec<u32>) {
        let n = self.y.len();
        stack.clear();
        stack.push(0);
        while let Some(id) = stack.pop() {
            let id = id as usize;
            if self.box_dist2(id, q) > near.bound {
                continue;
            }
            let node = &self.nodes[id];
            if node.right == 0 {
                // Each row's distance is still the left fold over its
                // features in order; the leaf just folds all its rows
                // one feature at a time.
                let rows = node.start as usize..node.end as usize;
                let mut dist = [0.0; LEAF];
                let dist = &mut dist[..rows.len()];
                for (j, &qj) in q.iter().enumerate() {
                    let column = &self.x[j * n + rows.start..j * n + rows.end];
                    for (d, &v) in dist.iter_mut().zip(column) {
                        *d += term(qj, v);
                    }
                }
                for (i, &d) in rows.zip(dist.iter()) {
                    if d <= near.bound {
                        near.offer(d, self.rows[i], self.y[i]);
                    }
                }
            } else if q[node.dim as usize] < node.split {
                stack.extend([node.right, id as u32 + 1]);
            } else {
                stack.extend([id as u32 + 1, node.right]);
            }
        }
    }
}

/// The buffers one query works in, reused across queries on a thread.
#[derive(Debug, Default)]
struct Scratch {
    q: Vec<f64>,
    near: NearestK,
    stack: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Builds a fitted model's tree from its standardized rows on first use.
type TreeBuild = Box<dyn FnOnce() -> KdTree + Send>;

/// Shared KNN core: standardizes features at fit time and finds the `k`
/// nearest training rows at query time.
#[derive(Debug)]
struct KnnCore {
    k: usize,
    scaler: Option<Standardizer>,
    /// The fitted rows, moved into a tree on the first query after a fit.
    tree: Option<LazyLock<KdTree, TreeBuild>>,
}

impl Clone for KnnCore {
    /// Builds the tree if no query has yet (the unbuilt rows live in the
    /// build closure, which cannot be cloned).
    fn clone(&self) -> Self {
        let tree = self.tree.as_ref().map(|tree| {
            let tree = KdTree::clone(tree);
            LazyLock::new(Box::new(move || tree) as TreeBuild)
        });
        Self {
            k: self.k,
            scaler: self.scaler.clone(),
            tree,
        }
    }
}

impl KnnCore {
    fn new(k: usize) -> Self {
        Self {
            k,
            scaler: None,
            tree: None,
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
        let dims = data.dims();
        let standardize = |j: usize, v: f64| scaler.scale(j, v);
        // One column per feature, in training order.
        let x: Vec<f64> = (0..dims)
            .flat_map(|j| data.x.iter().map(move |row| standardize(j, row[j])))
            .collect();
        let y = data.y.clone();
        self.tree = Some(LazyLock::new(Box::new(move || KdTree::build(dims, x, y))));
        self.scaler = Some(scaler);
        Ok(())
    }

    /// Aggregates the `k` nearest neighbours of `x`, ascending by
    /// `(dist2, row)`, with `f`.
    fn with_nearest<R>(&self, x: &[f64], f: impl FnOnce(&[Neighbor]) -> R) -> R {
        let (Some(scaler), Some(tree)) = (&self.scaler, &self.tree) else {
            panic!("predict before fit");
        };
        let tree: &KdTree = tree;
        SCRATCH.with_borrow_mut(|s| {
            s.q.clear();
            s.q.extend((0..tree.dims).map(|j| scaler.scale(j, x[j])));
            s.near.reset(self.k);
            tree.search(&s.q, &mut s.near, &mut s.stack);
            f(s.near.held())
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
    fn clones_before_and_after_the_first_query_agree() {
        let mut rng = StdRng::seed_from_u64(13);
        let data = tie_dataset(&mut rng, 120, 4, false);
        let queries = tie_queries(&mut rng, &data);
        let mut model = KnnRegressor::weighted(5);
        model.fit(&data).unwrap();
        let unbuilt = model.clone();
        let want: Vec<u64> = queries.iter().map(|q| model.predict(q).to_bits()).collect();
        let built = model.clone();
        for clone in [unbuilt, built] {
            let got: Vec<u64> = queries.iter().map(|q| clone.predict(q).to_bits()).collect();
            assert_eq!(got, want);
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
