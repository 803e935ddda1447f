//! Dataset preprocessing: feature standardization and deterministic
//! train/test splitting.

use crate::model::{Dataset, MlError};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Z-score standardizer: `x' = (x − mean) / std` per feature column.
///
/// Distance-based (KNN), margin-based (SVM) and gradient-based (MLP,
/// logistic) learners all need comparable feature scales; Sturgeon's raw
/// features span 1.2–2.2 (GHz) next to 60 000 (QPS), so standardization is
/// load-bearing, not cosmetic.
#[derive(Debug, Clone, Default)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Learns per-column mean and standard deviation.
    pub fn fit(data: &Dataset) -> Self {
        let d = data.dims();
        let n = data.len() as f64;
        let mut means = vec![0.0; d];
        for row in &data.x {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![0.0; d];
        for row in &data.x {
            for ((s, v), m) in stds.iter_mut().zip(row).zip(&means) {
                *s += (v - m).powi(2);
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt();
            // Constant columns carry no information; map them to 0 rather
            // than dividing by zero.
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Self { means, stds }
    }

    /// Transforms one row in place.
    pub fn transform_row(&self, row: &mut [f64]) {
        for ((v, m), s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
            *v = (*v - m) / s;
        }
    }

    /// Standardizes one value of feature column `col` — bit-identical to
    /// that column's entry after [`transform_row`](Self::transform_row).
    #[inline]
    pub(crate) fn scale(&self, col: usize, v: f64) -> f64 {
        (v - self.means[col]) / self.stds[col]
    }

    /// Returns a standardized copy of the row.
    pub fn transformed(&self, row: &[f64]) -> Vec<f64> {
        let mut out = row.to_vec();
        self.transform_row(&mut out);
        out
    }

    /// Standardizes a whole dataset (targets untouched).
    pub fn transform(&self, data: &Dataset) -> Dataset {
        Dataset {
            x: data.x.iter().map(|r| self.transformed(r)).collect(),
            y: data.y.clone(),
        }
    }

    /// Number of feature columns the standardizer was fitted on.
    pub fn dims(&self) -> usize {
        self.means.len()
    }
}

/// Deterministically shuffles and splits a dataset. `test_fraction` must be
/// in `(0, 1)` and both sides of the split must be non-empty.
pub fn train_test_split(
    data: &Dataset,
    test_fraction: f64,
    seed: u64,
) -> Result<(Dataset, Dataset), MlError> {
    if !(0.0..1.0).contains(&test_fraction) || test_fraction == 0.0 {
        return Err(MlError::InvalidParameter(format!(
            "test_fraction {test_fraction} not in (0, 1)"
        )));
    }
    let n = data.len();
    let n_test = ((n as f64) * test_fraction).round() as usize;
    if n_test == 0 || n_test == n {
        return Err(MlError::InvalidDataset(format!(
            "split of {n} rows at {test_fraction} leaves an empty side"
        )));
    }
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    let (test_idx, train_idx) = idx.split_at(n_test);
    let take = |ids: &[usize]| Dataset {
        x: ids.iter().map(|&i| data.x[i].clone()).collect(),
        y: ids.iter().map(|&i| data.y[i]).collect(),
    };
    Ok((take(train_idx), take(test_idx)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            (0..10).map(|i| vec![i as f64, 2.0 * i as f64]).collect(),
            (0..10).map(|i| i as f64).collect(),
        )
        .unwrap()
    }

    #[test]
    fn standardizer_zero_mean_unit_var() {
        let d = toy();
        let s = Standardizer::fit(&d);
        let t = s.transform(&d);
        for col in 0..2 {
            let vals: Vec<f64> = t.x.iter().map(|r| r[col]).collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
            assert!(mean.abs() < 1e-9, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-9, "var {var}");
        }
    }

    #[test]
    fn standardizer_constant_column_is_safe() {
        let d = Dataset::new(vec![vec![3.0], vec![3.0]], vec![0.0, 1.0]).unwrap();
        let s = Standardizer::fit(&d);
        let t = s.transform(&d);
        assert!(t.x.iter().all(|r| r[0].is_finite()));
    }

    #[test]
    fn split_sizes_and_disjointness() {
        let d = toy();
        let (train, test) = train_test_split(&d, 0.3, 42).unwrap();
        assert_eq!(test.len(), 3);
        assert_eq!(train.len(), 7);
        // Every original row appears exactly once across the split (rows
        // here are unique, so multiset equality is set equality).
        let mut all: Vec<f64> = train.y.iter().chain(test.y.iter()).copied().collect();
        all.sort_by(f64::total_cmp);
        assert_eq!(all, (0..10).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let d = toy();
        let (a, _) = train_test_split(&d, 0.3, 7).unwrap();
        let (b, _) = train_test_split(&d, 0.3, 7).unwrap();
        assert_eq!(a.y, b.y);
    }

    #[test]
    fn split_rejects_degenerate_fractions() {
        let d = toy();
        assert!(train_test_split(&d, 0.0, 1).is_err());
        assert!(train_test_split(&d, 1.0, 1).is_err());
        assert!(train_test_split(&d, 0.999, 1).is_err());
    }
}
