//! # sturgeon-mlkit
//!
//! A small, dependency-light machine-learning toolkit implemented from
//! scratch for the Sturgeon reproduction. Sturgeon's online predictor
//! (paper §V) relies on offline-trained performance and power models; the
//! paper evaluates six model families (Fig. 6 and Fig. 7) and selects
//! features with Lasso regression. This crate provides all of them:
//!
//! * [`linear::LinearRegression`] — ordinary least squares (ridge-stabilized)
//! * [`lasso::Lasso`] — L1-regularized regression via coordinate descent,
//!   used for the paper's feature selection
//! * [`logistic::LogisticRegression`] — binary classifier
//! * [`knn::KnnRegressor`] / [`knn::KnnClassifier`] — k-nearest neighbours,
//!   answered by an exact KD-tree
//! * [`tree::DecisionTreeRegressor`] / [`tree::DecisionTreeClassifier`] — CART
//! * [`mlp::MlpRegressor`] / [`mlp::MlpClassifier`] — multi-layer perceptron
//! * [`svm::SvmClassifier`] / [`svm::SvmRegressor`] — linear SVM via SGD
//!
//! Beyond the paper's families, [`mf`] adds the matrix factorization
//! behind cold-start co-runner scoring.
//!
//! All models implement the common [`model::Regressor`] or
//! [`model::Classifier`] traits so the predictor can swap families per
//! application, exactly as the paper stores "all offline-trained models on
//! the server and the most suitable one can be deployed" (§V-C).
//!
//! The implementations favour clarity and determinism over raw speed: the
//! feature spaces in Sturgeon are tiny (4 features — input size, cores,
//! frequency, LLC ways) and the datasets are thousands of rows, so O(n·d)
//! passes are fast enough for training. The exception is KNN prediction,
//! which the controller calls hundreds of times per decision: it walks a
//! KD-tree that skips only rows provably farther than the current `k`
//! nearest, so it returns the same bits as a full scan in about 1–2 µs
//! per query (the paper reports 0.04 ms per prediction).
//!
//! ```
//! use sturgeon_mlkit::{Dataset, KnnRegressor, Regressor, r2_score};
//!
//! // y = 2·x over a small grid.
//! let data = Dataset::new(
//!     (0..50).map(|i| vec![i as f64]).collect(),
//!     (0..50).map(|i| 2.0 * i as f64).collect(),
//! ).unwrap();
//! let mut model = KnnRegressor::new(3);
//! model.fit(&data).unwrap();
//! let pred = model.predict_batch(&data.x);
//! assert!(r2_score(&data.y, &pred) > 0.99);
//! ```

pub mod knn;
pub mod lasso;
pub mod linear;
pub mod logistic;
pub mod metrics;
pub mod mf;
pub mod mlp;
pub mod model;
pub mod preprocess;
pub mod svm;
pub mod tree;

pub use knn::{KnnClassifier, KnnRegressor};
pub use lasso::Lasso;
pub use linear::LinearRegression;
pub use logistic::LogisticRegression;
pub use metrics::{accuracy, mean_absolute_error, mean_squared_error, r2_score};
pub use mf::{MatrixFactorization, MfCell, MfParams};
pub use mlp::{MlpClassifier, MlpRegressor};
pub use model::{Classifier, Dataset, MlError, Regressor};
pub use preprocess::{train_test_split, Standardizer};
pub use svm::{SvmClassifier, SvmRegressor};
pub use tree::{DecisionTreeClassifier, DecisionTreeRegressor};
