//! # sturgeon-workloads
//!
//! Ground-truth application models for the Sturgeon reproduction: the
//! three latency-sensitive services of the paper (*memcached*, *xapian*,
//! *img-dnn*) and the six PARSEC best-effort applications (*blackscholes,
//! facesim, ferret, raytrace, swaptions, fluidanimate*), plus open-loop
//! load generation and the unmanaged-resource interference the balancer
//! exists to reject.
//!
//! These models replace the paper's real workloads (see DESIGN.md for the
//! substitution argument). The essential behaviours are preserved:
//!
//! * LS tail latency follows an Erlang-C (M/M/c) queueing surface over
//!   (cores, frequency, LLC ways, QPS) with a heavy-tailed service-time
//!   correction — the hockey-stick latency cliff that makes "just enough"
//!   allocations meaningful.
//! * BE throughput combines Amdahl scaling in cores, a per-app frequency
//!   sensitivity, and an LLC miss curve — the heterogeneity that creates
//!   the paper's core-preferring vs frequency-preferring split (Fig. 3).
//! * Per-app power activity factors make BE applications out-draw the LS
//!   service they replace, producing the Fig. 2 overload.
//! * A stochastic interference process (memory-bandwidth pressure from the
//!   BE co-runner + random OS jitter) perturbs LS latency beyond what any
//!   predictor can foresee, which is what Algorithm 2 compensates for.
//!
//! The [`env::CoLocationEnv`] ties it all together: one call to
//! [`env::CoLocationEnv::step`] simulates a 1-second monitoring interval
//! under the current resource configuration and returns exactly the
//! observations a real node would expose (p95 latency, power, throughput).

pub mod be;
pub mod catalog;
pub mod env;
pub mod interference;
pub mod loadgen;
pub mod ls;
pub mod querysim;
pub mod queueing;

pub use be::{BeAppModel, BeAppParams};
pub use catalog::{be_apps, ls_services, BeAppId, LsServiceId};
pub use env::{CoLocationEnv, Observation};
pub use interference::{InterferenceModel, InterferenceParams, JitterChain, SojournLaw};
pub use loadgen::LoadProfile;
pub use ls::{LsServiceModel, LsServiceParams};
pub use querysim::{MeasuredColocation, MeasuredLatency, QueryLevelSim};
pub use queueing::{erlang_c, MmcQueue};
