//! Open-loop load generation for LS services.
//!
//! LS services experience a diurnal pattern (§II-B); the paper's
//! evaluation drives each service with a fluctuating load that climbs
//! from 20% to 80% of peak and back (§VII-A), and the Fig. 11 case study
//! uses a 20%→50% ramp.

use serde::{Deserialize, Serialize};

/// A deterministic load profile: maps time to a fraction of peak load.
///
/// ```
/// use sturgeon_workloads::loadgen::LoadProfile;
///
/// let load = LoadProfile::paper_fluctuating(600.0); // 20% → 80% → 20%
/// assert!((load.fraction_at(0.0) - 0.2).abs() < 1e-12);
/// assert!((load.fraction_at(300.0) - 0.8).abs() < 1e-12);
/// assert_eq!(load.qps_at(300.0, 60_000.0), 48_000.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LoadProfile {
    /// Constant fraction of peak.
    Constant {
        /// Load fraction in `[0, 1]`.
        fraction: f64,
    },
    /// Linear ramp between two fractions over a duration, then hold.
    Ramp {
        /// Starting fraction.
        from: f64,
        /// Final fraction.
        to: f64,
        /// Seconds over which the ramp runs.
        duration_s: f64,
    },
    /// The paper's evaluation load: rise `low → high` over the first half
    /// of the period, fall back over the second half, repeating.
    Triangle {
        /// Trough fraction (paper: 0.2).
        low: f64,
        /// Crest fraction (paper: 0.8).
        high: f64,
        /// Full up-down period in seconds.
        period_s: f64,
    },
    /// A smooth 24-hour-like pattern: sinusoid between `low` and `high`
    /// with the crest at half period ("load reaches the maximum near
    /// midday and the lowest during night").
    Diurnal {
        /// Night-time trough fraction.
        low: f64,
        /// Midday crest fraction.
        high: f64,
        /// Length of the simulated day in seconds.
        day_s: f64,
    },
    /// Step change at a given time (for disturbance-rejection tests).
    Step {
        /// Fraction before the step.
        before: f64,
        /// Fraction after the step.
        after: f64,
        /// Step time in seconds.
        at_s: f64,
    },
    /// Replay of a recorded trace: load fractions sampled every `dt_s`
    /// seconds, linearly interpolated, holding the last sample afterwards.
    Trace {
        /// Fraction-of-peak samples (clamped to `[0, 1]` on evaluation).
        samples: Vec<f64>,
        /// Spacing between samples in seconds.
        dt_s: f64,
    },
    /// A flash crowd layered on a base profile: the load multiplier
    /// ramps from 1 to `magnitude` over `ramp_s`, holds for `hold_s`,
    /// then decays back to 1 over `decay_s` (the trace shape of a viral
    /// event or a retry storm). The product is still clamped to `[0, 1]`
    /// of peak.
    FlashCrowd {
        /// The everyday load underneath the event.
        base: Box<LoadProfile>,
        /// Event start time (s).
        at_s: f64,
        /// Seconds from onset to full magnitude.
        ramp_s: f64,
        /// Seconds held at full magnitude.
        hold_s: f64,
        /// Seconds to decay back to the base load.
        decay_s: f64,
        /// Peak load multiplier (≥ 1 to model a surge).
        magnitude: f64,
    },
    /// A regional failover layered on a base profile. The `Failing`
    /// role's load drops to zero for `outage_s` seconds starting at
    /// `at_s`; the `Survivor` role absorbs the spill, serving
    /// `base × (1 + takeover)` for the same window.
    Failover {
        /// The steady-state regional load.
        base: Box<LoadProfile>,
        /// Outage start time (s).
        at_s: f64,
        /// Outage duration (s).
        outage_s: f64,
        /// Extra load fraction shifted onto each surviving region
        /// during the outage.
        takeover: f64,
        /// Which side of the failover this region plays.
        role: FailoverRole,
    },
}

/// Which side of a [`LoadProfile::Failover`] a region plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailoverRole {
    /// The region that goes dark during the outage window.
    Failing,
    /// A region that absorbs the failed region's traffic.
    Survivor,
}

impl LoadProfile {
    /// The paper's §VII-A fluctuating input: 20% → 80% → 20% of peak.
    pub fn paper_fluctuating(period_s: f64) -> Self {
        LoadProfile::Triangle {
            low: 0.2,
            high: 0.8,
            period_s,
        }
    }

    /// The Fig. 11 case-study ramp: 20% → 50% of peak.
    pub fn fig11_ramp(duration_s: f64) -> Self {
        LoadProfile::Ramp {
            from: 0.2,
            to: 0.5,
            duration_s,
        }
    }

    /// Canonical lowercase profile name, used by trace/metrics labels.
    pub fn name(&self) -> &'static str {
        match self {
            LoadProfile::Constant { .. } => "constant",
            LoadProfile::Ramp { .. } => "ramp",
            LoadProfile::Triangle { .. } => "triangle",
            LoadProfile::Diurnal { .. } => "diurnal",
            LoadProfile::Step { .. } => "step",
            LoadProfile::Trace { .. } => "trace",
            LoadProfile::FlashCrowd { .. } => "flash_crowd",
            LoadProfile::Failover { .. } => "failover",
        }
    }

    /// Load fraction at time `t_s`, always clamped to `[0, 1]`.
    pub fn fraction_at(&self, t_s: f64) -> f64 {
        let t = t_s.max(0.0);
        let f = match self {
            &LoadProfile::Constant { fraction } => fraction,
            &LoadProfile::Ramp {
                from,
                to,
                duration_s,
            } => {
                if duration_s <= 0.0 || t >= duration_s {
                    to
                } else {
                    from + (to - from) * (t / duration_s)
                }
            }
            &LoadProfile::Triangle {
                low,
                high,
                period_s,
            } => {
                if period_s <= 0.0 {
                    low
                } else {
                    let phase = (t % period_s) / period_s; // 0..1
                    let tri = if phase < 0.5 {
                        phase * 2.0
                    } else {
                        2.0 - phase * 2.0
                    };
                    low + (high - low) * tri
                }
            }
            &LoadProfile::Diurnal { low, high, day_s } => {
                if day_s <= 0.0 {
                    low
                } else {
                    let phase = (t % day_s) / day_s;
                    let s = 0.5 - 0.5 * (std::f64::consts::TAU * phase).cos();
                    low + (high - low) * s
                }
            }
            &LoadProfile::Step {
                before,
                after,
                at_s,
            } => {
                if t < at_s {
                    before
                } else {
                    after
                }
            }
            LoadProfile::Trace { samples, dt_s } => {
                let dt_s = *dt_s;
                if samples.is_empty() || dt_s <= 0.0 {
                    0.0
                } else {
                    let pos = t / dt_s;
                    let i = pos.floor() as usize;
                    if i + 1 >= samples.len() {
                        *samples.last().expect("non-empty")
                    } else {
                        let frac = pos - i as f64;
                        samples[i] * (1.0 - frac) + samples[i + 1] * frac
                    }
                }
            }
            LoadProfile::FlashCrowd {
                base,
                at_s,
                ramp_s,
                hold_s,
                decay_s,
                magnitude,
            } => {
                let since = t - at_s;
                let surge = magnitude - 1.0;
                let mult = if since < 0.0 {
                    1.0
                } else if since < *ramp_s {
                    1.0 + surge * (since / ramp_s)
                } else if since < ramp_s + hold_s {
                    *magnitude
                } else if since < ramp_s + hold_s + decay_s {
                    let into_decay = since - ramp_s - hold_s;
                    *magnitude - surge * (into_decay / decay_s)
                } else {
                    1.0
                };
                base.fraction_at(t) * mult
            }
            LoadProfile::Failover {
                base,
                at_s,
                outage_s,
                takeover,
                role,
            } => {
                let in_outage = t >= *at_s && t < at_s + outage_s;
                match (role, in_outage) {
                    (FailoverRole::Failing, true) => 0.0,
                    (FailoverRole::Survivor, true) => base.fraction_at(t) * (1.0 + takeover),
                    (_, false) => base.fraction_at(t),
                }
            }
        };
        f.clamp(0.0, 1.0)
    }

    /// QPS at time `t_s` for a service with the given peak.
    pub fn qps_at(&self, t_s: f64, peak_qps: f64) -> f64 {
        self.fraction_at(t_s) * peak_qps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let p = LoadProfile::Constant { fraction: 0.35 };
        assert_eq!(p.fraction_at(0.0), 0.35);
        assert_eq!(p.fraction_at(1e6), 0.35);
    }

    #[test]
    fn ramp_interpolates_then_holds() {
        let p = LoadProfile::Ramp {
            from: 0.2,
            to: 0.5,
            duration_s: 100.0,
        };
        assert!((p.fraction_at(0.0) - 0.2).abs() < 1e-12);
        assert!((p.fraction_at(50.0) - 0.35).abs() < 1e-12);
        assert!((p.fraction_at(100.0) - 0.5).abs() < 1e-12);
        assert!((p.fraction_at(500.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn triangle_peaks_at_half_period() {
        let p = LoadProfile::paper_fluctuating(600.0);
        assert!((p.fraction_at(0.0) - 0.2).abs() < 1e-12);
        assert!((p.fraction_at(300.0) - 0.8).abs() < 1e-12);
        assert!((p.fraction_at(600.0) - 0.2).abs() < 1e-12);
        // Symmetric rise/fall.
        assert!((p.fraction_at(150.0) - p.fraction_at(450.0)).abs() < 1e-12);
    }

    #[test]
    fn diurnal_trough_and_crest() {
        let p = LoadProfile::Diurnal {
            low: 0.1,
            high: 0.9,
            day_s: 86_400.0,
        };
        assert!((p.fraction_at(0.0) - 0.1).abs() < 1e-9);
        assert!((p.fraction_at(43_200.0) - 0.9).abs() < 1e-9);
    }

    #[test]
    fn step_switches_at_time() {
        let p = LoadProfile::Step {
            before: 0.2,
            after: 0.7,
            at_s: 10.0,
        };
        assert_eq!(p.fraction_at(9.999), 0.2);
        assert_eq!(p.fraction_at(10.0), 0.7);
    }

    #[test]
    fn qps_scales_with_peak() {
        let p = LoadProfile::Constant { fraction: 0.2 };
        assert!((p.qps_at(0.0, 60_000.0) - 12_000.0).abs() < 1e-9);
    }

    #[test]
    fn fractions_always_clamped() {
        let p = LoadProfile::Ramp {
            from: -0.5,
            to: 1.5,
            duration_s: 10.0,
        };
        for t in 0..20 {
            let f = p.fraction_at(t as f64);
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    fn trace_interpolates_and_holds() {
        let p = LoadProfile::Trace {
            samples: vec![0.2, 0.4, 0.8],
            dt_s: 10.0,
        };
        assert!((p.fraction_at(0.0) - 0.2).abs() < 1e-12);
        assert!((p.fraction_at(5.0) - 0.3).abs() < 1e-12);
        assert!((p.fraction_at(10.0) - 0.4).abs() < 1e-12);
        assert!((p.fraction_at(15.0) - 0.6).abs() < 1e-12);
        // Past the end: hold the last sample.
        assert!((p.fraction_at(100.0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn degenerate_periods_safe() {
        let p = LoadProfile::Triangle {
            low: 0.3,
            high: 0.9,
            period_s: 0.0,
        };
        assert_eq!(p.fraction_at(5.0), 0.3);
    }

    #[test]
    fn flash_crowd_ramps_holds_and_decays() {
        let p = LoadProfile::FlashCrowd {
            base: Box::new(LoadProfile::Constant { fraction: 0.3 }),
            at_s: 100.0,
            ramp_s: 10.0,
            hold_s: 20.0,
            decay_s: 10.0,
            magnitude: 2.0,
        };
        assert!((p.fraction_at(0.0) - 0.3).abs() < 1e-12, "before the event");
        assert!((p.fraction_at(105.0) - 0.45).abs() < 1e-12, "mid-ramp");
        assert!((p.fraction_at(120.0) - 0.6).abs() < 1e-12, "held at 2x");
        assert!((p.fraction_at(135.0) - 0.45).abs() < 1e-12, "mid-decay");
        assert!((p.fraction_at(200.0) - 0.3).abs() < 1e-12, "after decay");
        assert_eq!(p.name(), "flash_crowd");
        // A surge past peak saturates instead of overflowing.
        let hot = LoadProfile::FlashCrowd {
            base: Box::new(LoadProfile::Constant { fraction: 0.8 }),
            at_s: 0.0,
            ramp_s: 1.0,
            hold_s: 10.0,
            decay_s: 1.0,
            magnitude: 3.0,
        };
        assert_eq!(hot.fraction_at(5.0), 1.0);
    }

    #[test]
    fn failover_roles_mirror_each_other() {
        let base = Box::new(LoadProfile::Constant { fraction: 0.4 });
        let failing = LoadProfile::Failover {
            base: base.clone(),
            at_s: 50.0,
            outage_s: 30.0,
            takeover: 0.5,
            role: FailoverRole::Failing,
        };
        let survivor = LoadProfile::Failover {
            base,
            at_s: 50.0,
            outage_s: 30.0,
            takeover: 0.5,
            role: FailoverRole::Survivor,
        };
        // Before and after the outage both serve the base load.
        for t in [0.0, 49.9, 80.0, 200.0] {
            assert!((failing.fraction_at(t) - 0.4).abs() < 1e-12, "t={t}");
            assert!((survivor.fraction_at(t) - 0.4).abs() < 1e-12, "t={t}");
        }
        // During the outage the failing region goes dark and the
        // survivor serves base × 1.5.
        assert_eq!(failing.fraction_at(60.0), 0.0);
        assert!((survivor.fraction_at(60.0) - 0.6).abs() < 1e-12);
        assert_eq!(failing.name(), "failover");
    }
}
