//! # sturgeon-simnode
//!
//! A simulated power-constrained server node. This crate is the substrate
//! substitution for the paper's physical testbed (Table II: a 2-socket
//! Intel Xeon E5-2630 v4, 20 logical cores per socket with hyper-threading,
//! 10 DVFS steps between 1.2 and 2.2 GHz, a 25 MB / 20-way L3) and for the
//! partitioning/measurement tools of Table III (cpuset cgroups, Intel CAT,
//! the ACPI frequency driver, and RAPL).
//!
//! Everything Sturgeon's controller touches goes through the same four
//! interfaces the paper uses:
//!
//! * [`actuator::CoreAllocator`] — cpuset-style core partitioning
//! * [`actuator::CacheAllocator`] — CAT-style LLC way partitioning
//! * [`actuator::FrequencyDriver`] — ACPI-style per-partition DVFS
//! * [`actuator::PowerMeter`] — RAPL-style package power readings
//!
//! The simulated backends ([`actuator::SimActuators`]) implement those
//! traits over an in-memory [`alloc::PairConfig`]; a real backend would
//! implement them over sysfs/resctrl without touching the controller.
//!
//! The [`power`] module contains the analytic CMOS power model used as
//! ground truth: per-core dynamic power scales with `f³` (frequency ×
//! voltage², with voltage roughly linear in frequency over the DVFS
//! range), plus frequency-dependent leakage and a constant uncore/static
//! component. Applications modulate it through an *activity factor* — the
//! mechanism by which best-effort applications draw more power than
//! latency-sensitive services at equal allocations, which is exactly what
//! creates the paper's Fig. 2 overload.

pub mod actuator;
pub mod alloc;
pub mod audit;
pub mod faults;
pub mod power;
pub mod spec;
pub mod telemetry;

pub use actuator::{CacheAllocator, CoreAllocator, FrequencyDriver, PowerMeter, SimActuators};
pub use alloc::{Allocation, ConfigError, PairConfig};
pub use audit::{ActuationOutcome, AuditEntry, AuditLog};
pub use faults::{
    ActuationFault, FaultInjector, FaultPlan, FaultStats, FaultyActuators, IntervalFault,
    TelemetryFault,
};
pub use power::{CorePowerParams, PowerModel};
pub use spec::NodeSpec;
pub use telemetry::{IntervalSample, TelemetryLog};
