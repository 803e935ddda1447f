//! Seeded matrix factorization with bias terms for collaborative
//! filtering over a partially-observed matrix.
//!
//! The Sturgeon growth direction "interference scoring for unseen apps"
//! follows CuttleSys: performance/power of an *unprofiled* application is
//! predicted from the profiled app×config matrix by factorizing the
//! observed cells into low-rank latent factors. The model is
//!
//! ```text
//! r̂(i, j) = μ + b_i + c_j + p_i · q_j
//! ```
//!
//! with global mean `μ`, per-row and per-column biases, and `k`-dimensional
//! latent vectors, trained by plain SGD over the observed cells. Training
//! is fully deterministic for a given seed: factor initialization and the
//! per-epoch visit order both come from one seeded RNG, and no parallelism
//! is involved within one fit — two fits with identical inputs are
//! bit-identical. Callers may run independent fits concurrently;
//! `sturgeon::scoring::ColdStartPredictor` fits its three metric planes
//! that way, each with its own seed.

use crate::model::MlError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Hyper-parameters for [`MatrixFactorization`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MfParams {
    /// Latent dimensionality `k`.
    pub latent_dim: usize,
    /// SGD step size.
    pub learning_rate: f64,
    /// L2 penalty on biases and factors.
    pub regularization: f64,
    /// Full passes over the observed cells.
    pub epochs: usize,
    /// Half-width of the uniform factor initialization (scaled by
    /// `1/√k` so the initial dot products stay O(init_scale)).
    pub init_scale: f64,
    /// RNG seed for initialization and visit order.
    pub seed: u64,
}

impl Default for MfParams {
    fn default() -> Self {
        Self {
            latent_dim: 8,
            learning_rate: 0.02,
            regularization: 0.005,
            epochs: 300,
            init_scale: 0.1,
            seed: 0x5EED,
        }
    }
}

/// One observed cell: `(row, col, value)`.
pub type MfCell = (usize, usize, f64);

/// Biased matrix factorization trained by seeded SGD.
#[derive(Debug, Clone)]
pub struct MatrixFactorization {
    params: MfParams,
    rows: usize,
    cols: usize,
    mean: f64,
    row_bias: Vec<f64>,
    col_bias: Vec<f64>,
    /// Row-major `rows × k`.
    row_factors: Vec<f64>,
    /// Row-major `cols × k`.
    col_factors: Vec<f64>,
    fitted: bool,
}

impl MatrixFactorization {
    /// An unfitted model; validates the hyper-parameters.
    pub fn new(params: MfParams) -> Result<Self, MlError> {
        if params.latent_dim == 0 {
            return Err(MlError::InvalidParameter("latent_dim must be ≥ 1".into()));
        }
        if params.learning_rate <= 0.0 || !params.learning_rate.is_finite() {
            return Err(MlError::InvalidParameter(
                "learning_rate must be positive and finite".into(),
            ));
        }
        if params.regularization < 0.0 || !params.regularization.is_finite() {
            return Err(MlError::InvalidParameter(
                "regularization must be non-negative and finite".into(),
            ));
        }
        if params.epochs == 0 {
            return Err(MlError::InvalidParameter("epochs must be ≥ 1".into()));
        }
        Ok(Self {
            params,
            rows: 0,
            cols: 0,
            mean: 0.0,
            row_bias: Vec::new(),
            col_bias: Vec::new(),
            row_factors: Vec::new(),
            col_factors: Vec::new(),
            fitted: false,
        })
    }

    /// The hyper-parameters in force.
    pub fn params(&self) -> &MfParams {
        &self.params
    }

    /// Fits the factorization to the observed cells of a `rows × cols`
    /// matrix, replacing any previous fit.
    pub fn fit(&mut self, rows: usize, cols: usize, cells: &[MfCell]) -> Result<(), MlError> {
        if rows == 0 || cols == 0 {
            return Err(MlError::InvalidDataset(
                "matrix must have at least one row and column".into(),
            ));
        }
        if cells.is_empty() {
            return Err(MlError::InvalidDataset("no observed cells".into()));
        }
        for &(r, c, v) in cells {
            if r >= rows || c >= cols {
                return Err(MlError::InvalidDataset(format!(
                    "cell ({r}, {c}) outside {rows}×{cols} matrix"
                )));
            }
            if !v.is_finite() {
                return Err(MlError::InvalidDataset("non-finite cell value".into()));
            }
        }
        let k = self.params.latent_dim;
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let half = self.params.init_scale / (k as f64).sqrt();
        self.rows = rows;
        self.cols = cols;
        self.mean = cells.iter().map(|&(_, _, v)| v).sum::<f64>() / cells.len() as f64;
        self.row_bias = vec![0.0; rows];
        self.col_bias = vec![0.0; cols];
        self.row_factors = (0..rows * k).map(|_| rng.gen_range(-half..half)).collect();
        self.col_factors = (0..cols * k).map(|_| rng.gen_range(-half..half)).collect();

        let lr = self.params.learning_rate;
        let reg = self.params.regularization;
        let mut order: Vec<usize> = (0..cells.len()).collect();
        for _ in 0..self.params.epochs {
            order.shuffle(&mut rng);
            for &ix in &order {
                let (r, c, v) = cells[ix];
                let p = &mut self.row_factors[r * k..(r + 1) * k];
                let q = &mut self.col_factors[c * k..(c + 1) * k];
                let dot: f64 = p.iter().zip(q.iter()).map(|(a, b)| a * b).sum();
                let err = v - (self.mean + self.row_bias[r] + self.col_bias[c] + dot);
                if !err.is_finite() {
                    return Err(MlError::Numerical("SGD diverged (non-finite error)".into()));
                }
                self.row_bias[r] += lr * (err - reg * self.row_bias[r]);
                self.col_bias[c] += lr * (err - reg * self.col_bias[c]);
                // Both old values are read before either is updated.
                for (pd, qd) in p.iter_mut().zip(q.iter_mut()) {
                    let (pf, qf) = (*pd, *qd);
                    *pd += lr * (err * qf - reg * pf);
                    *qd += lr * (err * pf - reg * qf);
                }
            }
        }
        self.fitted = true;
        Ok(())
    }

    /// True once [`fit`](Self::fit) succeeded.
    pub fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// Matrix shape `(rows, cols)` of the last fit.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Predicted value of cell `(row, col)`. Panics when unfitted or out
    /// of range (use [`try_predict`](Self::try_predict) for user input).
    pub fn predict(&self, row: usize, col: usize) -> f64 {
        self.try_predict(row, col)
            .expect("predict called before fit or outside the matrix")
    }

    /// Predicted value, or an error when unfitted / out of range.
    pub fn try_predict(&self, row: usize, col: usize) -> Result<f64, MlError> {
        if !self.fitted {
            return Err(MlError::NotFitted);
        }
        if row >= self.rows || col >= self.cols {
            return Err(MlError::InvalidParameter(format!(
                "cell ({row}, {col}) outside {}×{} matrix",
                self.rows, self.cols
            )));
        }
        let k = self.params.latent_dim;
        let p = &self.row_factors[row * k..(row + 1) * k];
        let q = &self.col_factors[col * k..(col + 1) * k];
        let dot: f64 = p.iter().zip(q.iter()).map(|(a, b)| a * b).sum();
        Ok(self.mean + self.row_bias[row] + self.col_bias[col] + dot)
    }

    /// Root-mean-square error of the fitted model over a cell set (e.g.
    /// the held-out cells of a masked matrix).
    pub fn rmse(&self, cells: &[MfCell]) -> f64 {
        if cells.is_empty() {
            return 0.0;
        }
        let sse: f64 = cells
            .iter()
            .map(|&(r, c, v)| {
                let e = v - self.predict(r, c);
                e * e
            })
            .sum();
        (sse / cells.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smooth rank-2-plus-bias synthetic matrix.
    fn synthetic(rows: usize, cols: usize) -> Vec<MfCell> {
        let mut cells = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let v = 1.0
                    + 0.3 * r as f64 / rows as f64
                    + 0.2 * c as f64 / cols as f64
                    + 0.5 * (r as f64 / rows as f64) * (c as f64 / cols as f64);
                cells.push((r, c, v));
            }
        }
        cells
    }

    #[test]
    fn reconstructs_low_rank_matrix() {
        let all = synthetic(12, 40);
        // Hide every 7th cell (stride coprime to the width, so no
        // column goes fully dark); train on the rest.
        let train: Vec<MfCell> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 7 != 0)
            .map(|(_, &c)| c)
            .collect();
        let held: Vec<MfCell> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 7 == 0)
            .map(|(_, &c)| c)
            .collect();
        let mut mf = MatrixFactorization::new(MfParams::default()).unwrap();
        mf.fit(12, 40, &train).unwrap();
        assert!(mf.rmse(&train) < 0.02, "train rmse {}", mf.rmse(&train));
        assert!(mf.rmse(&held) < 0.05, "held-out rmse {}", mf.rmse(&held));
    }

    #[test]
    fn deterministic_per_seed() {
        let cells = synthetic(6, 20);
        let fit = |seed| {
            let mut mf = MatrixFactorization::new(MfParams {
                seed,
                epochs: 50,
                ..MfParams::default()
            })
            .unwrap();
            mf.fit(6, 20, &cells).unwrap();
            (0..6)
                .flat_map(|r| (0..20).map(move |c| (r, c)))
                .map(|(r, c)| mf.predict(r, c).to_bits())
                .collect::<Vec<u64>>()
        };
        assert_eq!(fit(7), fit(7), "same seed must be bit-identical");
        assert_ne!(fit(7), fit(8), "different seeds must differ");
    }

    #[test]
    fn predictions_are_pinned() {
        // Every predicted cell of the default fit on the 12×40 matrix,
        // folded into one value. A change to the SGD kernel that moves
        // any bit (operation order, update order, RNG use) changes it.
        let cells = synthetic(12, 40);
        let mut mf = MatrixFactorization::new(MfParams::default()).unwrap();
        mf.fit(12, 40, &cells).unwrap();
        let fold = (0..12)
            .flat_map(|r| (0..40).map(move |c| (r, c)))
            .fold(0u64, |h, (r, c)| {
                (h ^ mf.predict(r, c).to_bits()).wrapping_mul(0x0100_0000_01B3)
            });
        assert_eq!(fold, 0x16ee_7e25_7eae_1fc8, "fold {fold:#018x}");
    }

    #[test]
    fn bias_terms_carry_cold_rows() {
        // A row with a single observed cell still predicts near the
        // column profile: biases generalize where factors cannot.
        let mut cells = synthetic(8, 30);
        let cold_row = 7usize;
        cells.retain(|&(r, c, _)| r != cold_row || c == 0);
        let mut mf = MatrixFactorization::new(MfParams::default()).unwrap();
        mf.fit(8, 30, &cells).unwrap();
        let truth = synthetic(8, 30);
        let cold: Vec<MfCell> = truth
            .iter()
            .filter(|&&(r, _, _)| r == cold_row)
            .copied()
            .collect();
        assert!(mf.rmse(&cold) < 0.25, "cold-row rmse {}", mf.rmse(&cold));
    }

    #[test]
    fn rejects_bad_parameters_and_cells() {
        assert!(MatrixFactorization::new(MfParams {
            latent_dim: 0,
            ..MfParams::default()
        })
        .is_err());
        assert!(MatrixFactorization::new(MfParams {
            learning_rate: 0.0,
            ..MfParams::default()
        })
        .is_err());
        assert!(MatrixFactorization::new(MfParams {
            epochs: 0,
            ..MfParams::default()
        })
        .is_err());
        let mut mf = MatrixFactorization::new(MfParams::default()).unwrap();
        assert!(mf.fit(0, 4, &[(0, 0, 1.0)]).is_err());
        assert!(mf.fit(2, 2, &[]).is_err());
        assert!(mf.fit(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(mf.fit(2, 2, &[(0, 0, f64::NAN)]).is_err());
        assert!(mf.try_predict(0, 0).is_err(), "unfitted predict must fail");
        mf.fit(2, 2, &[(0, 0, 1.0), (1, 1, 2.0), (0, 1, 1.5)])
            .unwrap();
        assert!(mf.try_predict(2, 0).is_err());
    }
}
