//! Common model traits and the dataset container shared by every learner.

use std::fmt;

/// Errors produced while fitting or evaluating models.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// The training set was empty or features/targets had mismatched lengths.
    InvalidDataset(String),
    /// A hyper-parameter was out of its valid range.
    InvalidParameter(String),
    /// Numerical failure (singular system, divergence, NaN loss).
    Numerical(String),
    /// Predict was called before fit.
    NotFitted,
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::InvalidDataset(m) => write!(f, "invalid dataset: {m}"),
            MlError::InvalidParameter(m) => write!(f, "invalid parameter: {m}"),
            MlError::Numerical(m) => write!(f, "numerical error: {m}"),
            MlError::NotFitted => write!(f, "model is not fitted"),
        }
    }
}

impl std::error::Error for MlError {}

/// A dense supervised-learning dataset: row-major features plus one target
/// per row. Targets are `f64` for regression and `0.0 / 1.0` labels for
/// binary classification (the LS-service QoS model only needs to answer
/// "violated or not", paper §V-C).
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Row-major feature matrix; every row must have the same length.
    pub x: Vec<Vec<f64>>,
    /// One target per feature row.
    pub y: Vec<f64>,
}

impl Dataset {
    /// Builds a dataset, validating shape invariants.
    pub fn new(x: Vec<Vec<f64>>, y: Vec<f64>) -> Result<Self, MlError> {
        if x.len() != y.len() {
            return Err(MlError::InvalidDataset(format!(
                "{} feature rows but {} targets",
                x.len(),
                y.len()
            )));
        }
        if x.is_empty() {
            return Err(MlError::InvalidDataset("empty dataset".into()));
        }
        let d = x[0].len();
        if d == 0 {
            return Err(MlError::InvalidDataset("zero-width feature rows".into()));
        }
        if let Some(bad) = x.iter().find(|r| r.len() != d) {
            return Err(MlError::InvalidDataset(format!(
                "ragged feature rows: expected {d}, found {}",
                bad.len()
            )));
        }
        if x.iter().flatten().chain(y.iter()).any(|v| !v.is_finite()) {
            return Err(MlError::InvalidDataset("non-finite value".into()));
        }
        Ok(Self { x, y })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when the dataset holds no rows.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Feature dimensionality.
    pub fn dims(&self) -> usize {
        self.x.first().map_or(0, Vec::len)
    }

    /// Returns a new dataset containing only the listed feature columns.
    /// Used after Lasso feature selection to refit on selected features.
    pub fn select_features(&self, cols: &[usize]) -> Result<Self, MlError> {
        let d = self.dims();
        if let Some(&c) = cols.iter().find(|&&c| c >= d) {
            return Err(MlError::InvalidParameter(format!(
                "feature column {c} out of range (dims = {d})"
            )));
        }
        let x = self
            .x
            .iter()
            .map(|row| cols.iter().map(|&c| row[c]).collect())
            .collect();
        Ok(Self {
            x,
            y: self.y.clone(),
        })
    }
}

/// A regression model: predicts a real value from a feature vector.
pub trait Regressor {
    /// Fits the model to the dataset, replacing any previous fit.
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError>;
    /// Predicts the target for one feature row.
    fn predict(&self, x: &[f64]) -> f64;

    /// Predicts what [`predict`](Self::predict) does, bit for bit, for a
    /// caller that asks the same features `1..` again at new values of
    /// feature 0 (a load drifting between profiled levels). KNN answers
    /// such repeats from a candidate set it keeps per pattern (see
    /// [`knn`](crate::knn)); every other family just predicts.
    fn predict_drifting(&self, x: &[f64]) -> f64 {
        self.predict(x)
    }

    /// Convenience batch prediction.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|r| self.predict(r)).collect()
    }

    /// Predicts over the lattice `[x0, a, b, c]` for every `a` in `x1`,
    /// `b` in `x2` and `c` in `x3`, row-major: `out[(i·|x2| + j)·|x3| + k]`
    /// receives `predict(&[x0, x1[i], x2[j], x3[k]])`, bit for bit.
    ///
    /// # Panics
    /// If `out` does not hold exactly one entry per cell.
    fn predict_grid(&self, x0: f64, x1: &[f64], x2: &[f64], x3: &[f64], out: &mut [f64]) {
        let cells = x1.len() * x2.len() * x3.len();
        assert_eq!(out.len(), cells, "predict_grid: one output per cell");
        let mut row = [x0, 0.0, 0.0, 0.0];
        let mut cell = out.iter_mut();
        for &a in x1 {
            row[1] = a;
            for &b in x2 {
                row[2] = b;
                for &c in x3 {
                    row[3] = c;
                    *cell.next().expect("one output per cell") = self.predict(&row);
                }
            }
        }
    }
}

/// A binary classifier: predicts a probability-like score and a hard label.
pub trait Classifier {
    /// Fits the model to the dataset (targets must be 0.0 or 1.0).
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError>;
    /// Returns a score in `[0, 1]`; ≥ 0.5 means the positive class.
    fn predict_score(&self, x: &[f64]) -> f64;

    /// Hard 0/1 prediction.
    fn predict_label(&self, x: &[f64]) -> bool {
        self.predict_score(x) >= 0.5
    }
}

/// Validates that classification targets are 0/1.
pub(crate) fn check_binary_targets(data: &Dataset) -> Result<(), MlError> {
    if data.y.iter().any(|&v| v != 0.0 && v != 1.0) {
        return Err(MlError::InvalidDataset(
            "classification targets must be 0.0 or 1.0".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_rejects_mismatched_lengths() {
        let err = Dataset::new(vec![vec![1.0]], vec![]).unwrap_err();
        assert!(matches!(err, MlError::InvalidDataset(_)));
    }

    #[test]
    fn dataset_rejects_empty() {
        assert!(Dataset::new(vec![], vec![]).is_err());
    }

    #[test]
    fn dataset_rejects_ragged_rows() {
        let err = Dataset::new(vec![vec![1.0, 2.0], vec![3.0]], vec![0.0, 1.0]).unwrap_err();
        assert!(matches!(err, MlError::InvalidDataset(_)));
    }

    #[test]
    fn dataset_rejects_nan() {
        let err = Dataset::new(vec![vec![f64::NAN]], vec![0.0]).unwrap_err();
        assert!(matches!(err, MlError::InvalidDataset(_)));
    }

    #[test]
    fn select_features_projects_columns() {
        let d = Dataset::new(
            vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]],
            vec![0.0, 1.0],
        )
        .unwrap();
        let p = d.select_features(&[2, 0]).unwrap();
        assert_eq!(p.x, vec![vec![3.0, 1.0], vec![6.0, 4.0]]);
        assert_eq!(p.y, d.y);
    }

    #[test]
    fn select_features_rejects_out_of_range() {
        let d = Dataset::new(vec![vec![1.0]], vec![0.0]).unwrap();
        assert!(d.select_features(&[1]).is_err());
    }

    #[test]
    fn binary_target_check() {
        let ok = Dataset::new(vec![vec![1.0], vec![2.0]], vec![0.0, 1.0]).unwrap();
        assert!(check_binary_targets(&ok).is_ok());
        let bad = Dataset::new(vec![vec![1.0]], vec![0.5]).unwrap();
        assert!(check_binary_targets(&bad).is_err());
    }
}
