//! Hierarchical power budgets: node → rack → row → datacenter.
//!
//! The paper manages one node against one cap. A datacenter does not
//! hand every node an independent cap — breakers and busbars impose
//! caps at every level of the power-delivery tree, and when an upstream
//! cap tightens (oversubscription reclaim, utility curtailment) the
//! slack has to be taken *from somewhere below*. [`BudgetTree`] models
//! that delivery tree over the fleet's serving units and implements
//! **proportional reclamation**: when a parent cap no longer covers the
//! sum of its children's caps, each child keeps its measured demand and
//! gives up headroom in proportion to how much headroom it has. Loaded
//! children are protected; idle children fund the cut.
//!
//! Leaves are the fleet's control units (shards — see
//! [`crate::fleet::Fleet`], where one controller governs a contiguous
//! node range), racks group leaves the way regions group shards, rows
//! group racks, and the single datacenter root caps everything. Each
//! leaf's effective cap divides across its nodes, and every node's
//! `SturgeonController` observes a cap change as a budget-cut: the
//! warm-started search state anchored to the old budget is invalidated
//! and the next interval re-searches under the new one
//! ([`crate::controller::SturgeonController::set_budget_w`]).

use crate::error::SturgeonError;

/// The four levels of the power-delivery tree, leaf to root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetLevel {
    /// A leaf: one serving unit (a fleet shard / contiguous node range).
    Node,
    /// A contiguous group of leaves (the fleet maps regions here).
    Rack,
    /// A contiguous group of racks.
    Row,
    /// The single root spanning the whole fleet.
    Datacenter,
}

impl BudgetLevel {
    /// Stable lowercase name (manifest values, trace events).
    pub fn as_str(&self) -> &'static str {
        match self {
            BudgetLevel::Node => "node",
            BudgetLevel::Rack => "rack",
            BudgetLevel::Row => "row",
            BudgetLevel::Datacenter => "datacenter",
        }
    }

    /// Parses a manifest-style level name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "node" => Some(BudgetLevel::Node),
            "rack" => Some(BudgetLevel::Rack),
            "row" => Some(BudgetLevel::Row),
            "datacenter" => Some(BudgetLevel::Datacenter),
            _ => None,
        }
    }
}

/// A new cap value for one element of the tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetCap {
    /// Absolute watts.
    Watts(f64),
    /// A fraction of the element's *nominal* cap (the sum of its leaves'
    /// construction-time caps) — the manifest-friendly form, because it
    /// needs no knowledge of the fleet's absolute power numbers.
    FractionOfNominal(f64),
}

/// A scheduled cap change: at `at_s`, install `cap` on `(level, index)`.
/// The fleet applies due events at interval boundaries and runs a
/// reclamation pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetEvent {
    /// Interval timestamp (s) at which the change takes effect.
    pub at_s: f64,
    /// Which level's cap changes.
    pub level: BudgetLevel,
    /// Element index within that level.
    pub index: usize,
    /// The new cap.
    pub cap: BudgetCap,
}

/// One level of the tree as parallel arrays: the operator-set cap, the
/// construction-time nominal cap, the post-reclamation effective cap,
/// and each element's child range in the level below (empty for
/// leaves).
#[derive(Debug, Clone)]
struct Level {
    cap_w: Vec<f64>,
    nominal_w: Vec<f64>,
    eff_w: Vec<f64>,
    child_lo: Vec<usize>,
    child_hi: Vec<usize>,
}

impl Level {
    fn len(&self) -> usize {
        self.cap_w.len()
    }
}

/// The power-delivery tree. Construction fixes the geometry and the
/// per-leaf nominal caps; [`BudgetTree::set_cap`] tightens or relaxes
/// any element's cap, and [`BudgetTree::reclaim`] re-apportions
/// effective caps top-down so that at every level the children's
/// effective caps sum to no more than the parent's.
#[derive(Debug, Clone)]
pub struct BudgetTree {
    /// `levels[0]` = leaves, `[1]` = racks, `[2]` = rows, `[3]` = the
    /// datacenter root (always exactly one element).
    levels: [Level; 4],
}

impl BudgetTree {
    /// Builds the tree from per-leaf nominal caps and contiguous group
    /// sizes: `rack_sizes` partitions the leaves, `row_sizes` partitions
    /// the racks; a single root spans the rows. Every group size must be
    /// positive and the sizes must sum to the level below's length.
    pub fn new(
        leaf_caps_w: &[f64],
        rack_sizes: &[usize],
        row_sizes: &[usize],
    ) -> Result<Self, SturgeonError> {
        if leaf_caps_w.is_empty() {
            return Err(SturgeonError::setup("budget tree needs at least one leaf"));
        }
        if leaf_caps_w.iter().any(|&c| !c.is_finite() || c < 0.0) {
            return Err(SturgeonError::setup(
                "leaf caps must be finite and non-negative",
            ));
        }
        let leaves = Level {
            cap_w: leaf_caps_w.to_vec(),
            nominal_w: leaf_caps_w.to_vec(),
            eff_w: leaf_caps_w.to_vec(),
            child_lo: vec![0; leaf_caps_w.len()],
            child_hi: vec![0; leaf_caps_w.len()],
        };
        let racks = Self::group(&leaves, rack_sizes, "rack")?;
        let rows = Self::group(&racks, row_sizes, "row")?;
        let root = Self::group(&rows, &[rows.len()], "datacenter")?;
        Ok(Self {
            levels: [leaves, racks, rows, root],
        })
    }

    /// A uniform tree: `leaves` leaves of `leaf_cap_w` each, split
    /// evenly into `racks` racks and those into `rows` rows (remainders
    /// go to the earliest groups, mirroring the fleet's shard split).
    pub fn uniform(
        leaves: usize,
        leaf_cap_w: f64,
        racks: usize,
        rows: usize,
    ) -> Result<Self, SturgeonError> {
        let caps = vec![leaf_cap_w; leaves];
        Self::new(
            &caps,
            &even_split(leaves, racks)?,
            &even_split(racks, rows)?,
        )
    }

    /// The degenerate tree used by the equivalence tests: every level's
    /// cap equals the sum of its children, so reclamation never binds.
    pub fn single_level(leaf_caps_w: &[f64]) -> Result<Self, SturgeonError> {
        Self::new(leaf_caps_w, &[leaf_caps_w.len()], &[1])
    }

    fn group(below: &Level, sizes: &[usize], what: &str) -> Result<Level, SturgeonError> {
        if sizes.is_empty() || sizes.contains(&0) {
            return Err(SturgeonError::setup(format!(
                "every {what} group must be non-empty"
            )));
        }
        if sizes.iter().sum::<usize>() != below.len() {
            return Err(SturgeonError::setup(format!(
                "{what} group sizes must cover the level below exactly"
            )));
        }
        let mut lo = 0usize;
        let mut cap_w = Vec::with_capacity(sizes.len());
        let mut child_lo = Vec::with_capacity(sizes.len());
        let mut child_hi = Vec::with_capacity(sizes.len());
        for &s in sizes {
            let hi = lo + s;
            cap_w.push(below.nominal_w[lo..hi].iter().sum());
            child_lo.push(lo);
            child_hi.push(hi);
            lo = hi;
        }
        Ok(Level {
            nominal_w: cap_w.clone(),
            eff_w: cap_w.clone(),
            cap_w,
            child_lo,
            child_hi,
        })
    }

    fn level_ix(level: BudgetLevel) -> usize {
        match level {
            BudgetLevel::Node => 0,
            BudgetLevel::Rack => 1,
            BudgetLevel::Row => 2,
            BudgetLevel::Datacenter => 3,
        }
    }

    /// Element count at a level.
    pub fn len(&self, level: BudgetLevel) -> usize {
        self.levels[Self::level_ix(level)].len()
    }

    /// True when the tree has no leaves (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.levels[0].len() == 0
    }

    /// The nominal cap (W) of one element — what it was built with,
    /// independent of later `set_cap` calls.
    pub fn nominal_cap_w(&self, level: BudgetLevel, index: usize) -> f64 {
        self.levels[Self::level_ix(level)].nominal_w[index]
    }

    /// The currently set cap (W) of one element.
    pub fn cap_w(&self, level: BudgetLevel, index: usize) -> f64 {
        self.levels[Self::level_ix(level)].cap_w[index]
    }

    /// The effective cap (W) of one element after the last
    /// [`BudgetTree::reclaim`] pass.
    pub fn effective_cap_w(&self, level: BudgetLevel, index: usize) -> f64 {
        self.levels[Self::level_ix(level)].eff_w[index]
    }

    /// Effective per-leaf caps, in leaf order.
    pub fn leaf_caps_w(&self) -> &[f64] {
        &self.levels[0].eff_w
    }

    /// Total watts reclamation is currently withholding from the leaves
    /// (nominal minus effective, summed).
    pub fn reclaimed_w(&self) -> f64 {
        self.levels[0]
            .nominal_w
            .iter()
            .zip(&self.levels[0].eff_w)
            .map(|(n, e)| n - e)
            .sum()
    }

    /// Installs a new cap on one element. Resolves
    /// [`BudgetCap::FractionOfNominal`] against the element's nominal
    /// cap, clamps to non-negative, and returns the installed watts.
    /// Callers must run [`BudgetTree::reclaim`] afterwards to push the
    /// change down to the leaves.
    pub fn set_cap(
        &mut self,
        level: BudgetLevel,
        index: usize,
        cap: BudgetCap,
    ) -> Result<f64, SturgeonError> {
        let l = &mut self.levels[Self::level_ix(level)];
        if index >= l.len() {
            return Err(SturgeonError::setup(format!(
                "budget {} index {index} out of range (len {})",
                level.as_str(),
                l.len()
            )));
        }
        let watts = match cap {
            BudgetCap::Watts(w) => w,
            BudgetCap::FractionOfNominal(f) => f * l.nominal_w[index],
        };
        if !watts.is_finite() || watts < 0.0 {
            return Err(SturgeonError::setup("budget cap must be finite and >= 0"));
        }
        l.cap_w[index] = watts;
        Ok(watts)
    }

    /// Re-apportions effective caps top-down. `leaf_demands_w`, when
    /// given (one entry per leaf), is each leaf's measured draw; a
    /// binding parent first covers every child's demand and then splits
    /// the surplus in proportion to headroom (`cap − demand`), so the
    /// cut lands on the children that were not using their allowance.
    /// Without demands the split is proportional to the caps themselves.
    ///
    /// Post-condition (the reclamation invariant): at every internal
    /// element, the children's effective caps sum to at most the
    /// element's effective cap, and every element's effective cap is at
    /// most its set cap. Reclamation never grants: a leaf's effective
    /// cap is also at most its nominal cap, even when a node-level
    /// relax set it higher.
    pub fn reclaim(&mut self, leaf_demands_w: Option<&[f64]>) {
        if let Some(d) = leaf_demands_w {
            assert_eq!(d.len(), self.levels[0].len(), "one demand per leaf");
        }
        let leaf_caps: Vec<f64> = self.levels[0]
            .cap_w
            .iter()
            .zip(&self.levels[0].nominal_w)
            .map(|(&c, &n)| c.min(n))
            .collect();
        // Aggregate demands bottom-up: an element's demand is the sum of
        // its leaves' demands, clamped into [0, set cap].
        let mut demands: [Vec<f64>; 4] = [
            match leaf_demands_w {
                Some(d) => d
                    .iter()
                    .zip(&leaf_caps)
                    .map(|(&d, &c)| d.max(0.0).min(c))
                    .collect(),
                None => vec![0.0; self.levels[0].len()],
            },
            Vec::new(),
            Vec::new(),
            Vec::new(),
        ];
        for ix in 1..4 {
            let l = &self.levels[ix];
            demands[ix] = (0..l.len())
                .map(|i| {
                    demands[ix - 1][l.child_lo[i]..l.child_hi[i]]
                        .iter()
                        .sum::<f64>()
                        .min(l.cap_w[i])
                })
                .collect();
        }
        // Root: effective = set cap.
        self.levels[3].eff_w[0] = self.levels[3].cap_w[0];
        // Push down: each internal element apportions its effective cap
        // across its children.
        for ix in (1..4).rev() {
            let (below, level) = {
                let (a, b) = self.levels.split_at_mut(ix);
                (&mut a[ix - 1], &b[0])
            };
            for i in 0..level.len() {
                let lo = level.child_lo[i];
                let hi = level.child_hi[i];
                let caps = if ix == 1 { &leaf_caps } else { &below.cap_w };
                apportion(
                    level.eff_w[i],
                    &caps[lo..hi],
                    &demands[ix - 1][lo..hi],
                    &mut below.eff_w[lo..hi],
                );
            }
        }
    }

    /// Checks the reclamation invariant everywhere; returns the first
    /// violation as an error string (test/diagnostic helper).
    pub fn check_invariants(&self) -> Result<(), String> {
        for (ix, name) in [(1, "rack"), (2, "row"), (3, "datacenter")] {
            let l = &self.levels[ix];
            let below = &self.levels[ix - 1];
            for i in 0..l.len() {
                let child_sum: f64 = below.eff_w[l.child_lo[i]..l.child_hi[i]].iter().sum();
                if child_sum > l.eff_w[i] * (1.0 + 1e-9) + 1e-9 {
                    return Err(format!(
                        "{name} {i}: children sum {child_sum:.6} W > effective {:.6} W",
                        l.eff_w[i]
                    ));
                }
            }
        }
        for (ix, name) in [(0, "leaf"), (1, "rack"), (2, "row"), (3, "datacenter")] {
            let l = &self.levels[ix];
            for i in 0..l.len() {
                if l.eff_w[i] > l.cap_w[i] * (1.0 + 1e-9) + 1e-9 {
                    return Err(format!(
                        "{name} {i}: effective {:.6} W > set cap {:.6} W",
                        l.eff_w[i], l.cap_w[i]
                    ));
                }
                if l.eff_w[i] < 0.0 {
                    return Err(format!("{name} {i}: negative effective cap"));
                }
            }
        }
        Ok(())
    }
}

/// Splits `n` elements into `groups` contiguous groups as evenly as
/// possible (remainders to the earliest groups — the fleet's split).
pub(crate) fn even_split(n: usize, groups: usize) -> Result<Vec<usize>, SturgeonError> {
    if groups == 0 || groups > n {
        return Err(SturgeonError::setup(format!(
            "group count must be in 1..={n}, got {groups}"
        )));
    }
    let base = n / groups;
    let extra = n % groups;
    Ok((0..groups).map(|g| base + usize::from(g < extra)).collect())
}

/// Headroom-proportional apportionment of `parent_eff` watts across
/// children with the given caps and (cap-clamped) demands, written into
/// `out`. When the caps already fit under the parent nothing shrinks;
/// when even the demands do not fit, the children shrink pro-rata on
/// demand (pro-rata on cap if all demands are zero).
fn apportion(parent_eff: f64, caps: &[f64], demands: &[f64], out: &mut [f64]) {
    let cap_sum: f64 = caps.iter().sum();
    if cap_sum <= parent_eff {
        out.copy_from_slice(caps);
        return;
    }
    let demand_sum: f64 = demands.iter().sum();
    if parent_eff <= demand_sum {
        // Even demand cannot be met: scale demand pro-rata.
        if demand_sum > 0.0 {
            for ((o, &d), &c) in out.iter_mut().zip(demands).zip(caps) {
                *o = (parent_eff * d / demand_sum).min(c);
            }
        } else {
            for (o, &c) in out.iter_mut().zip(caps) {
                *o = if cap_sum > 0.0 {
                    parent_eff * c / cap_sum
                } else {
                    0.0
                };
            }
        }
        return;
    }
    // Demand fits: each child keeps its demand plus a share of the
    // surplus proportional to its headroom. `cap_sum > parent_eff >=
    // demand_sum` guarantees positive total headroom.
    let surplus = parent_eff - demand_sum;
    let headroom: f64 = cap_sum - demand_sum;
    for ((o, &d), &c) in out.iter_mut().zip(demands).zip(caps) {
        *o = (d + surplus * (c - d) / headroom).min(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_leaves(t: &BudgetTree) -> f64 {
        t.leaf_caps_w().iter().sum()
    }

    #[test]
    fn unconstrained_tree_passes_nominal_through() {
        let mut t = BudgetTree::uniform(8, 100.0, 4, 2).unwrap();
        t.reclaim(None);
        assert_eq!(t.leaf_caps_w(), &[100.0; 8]);
        assert_eq!(t.nominal_cap_w(BudgetLevel::Datacenter, 0), 800.0);
        assert_eq!(t.reclaimed_w(), 0.0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn datacenter_cut_without_demand_scales_proportionally() {
        let mut t = BudgetTree::uniform(4, 100.0, 2, 1).unwrap();
        t.set_cap(
            BudgetLevel::Datacenter,
            0,
            BudgetCap::FractionOfNominal(0.5),
        )
        .unwrap();
        t.reclaim(None);
        for &c in t.leaf_caps_w() {
            assert!((c - 50.0).abs() < 1e-9, "leaf cap {c}");
        }
        assert!((t.reclaimed_w() - 200.0).abs() < 1e-9);
        t.check_invariants().unwrap();
    }

    #[test]
    fn cut_lands_on_headroom_not_on_demand() {
        let mut t = BudgetTree::uniform(2, 100.0, 1, 1).unwrap();
        t.set_cap(BudgetLevel::Datacenter, 0, BudgetCap::Watts(150.0))
            .unwrap();
        // Leaf 0 draws 90 W, leaf 1 idles at 10 W: the 50 W cut comes
        // out of headroom (10 vs 90), so the loaded leaf keeps 95 W.
        t.reclaim(Some(&[90.0, 10.0]));
        let caps = t.leaf_caps_w();
        assert!((caps[0] - 95.0).abs() < 1e-9, "loaded leaf got {}", caps[0]);
        assert!((caps[1] - 55.0).abs() < 1e-9, "idle leaf got {}", caps[1]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn cut_below_demand_scales_demand_pro_rata() {
        let mut t = BudgetTree::uniform(2, 100.0, 1, 1).unwrap();
        t.set_cap(BudgetLevel::Datacenter, 0, BudgetCap::Watts(60.0))
            .unwrap();
        t.reclaim(Some(&[90.0, 30.0]));
        let caps = t.leaf_caps_w();
        assert!((caps[0] - 45.0).abs() < 1e-9);
        assert!((caps[1] - 15.0).abs() < 1e-9);
        t.check_invariants().unwrap();
    }

    #[test]
    fn rack_cut_only_touches_its_own_leaves() {
        let mut t = BudgetTree::uniform(4, 100.0, 2, 1).unwrap();
        t.set_cap(BudgetLevel::Rack, 0, BudgetCap::Watts(120.0))
            .unwrap();
        t.reclaim(None);
        let caps = t.leaf_caps_w();
        assert!((caps[0] - 60.0).abs() < 1e-9);
        assert!((caps[1] - 60.0).abs() < 1e-9);
        assert_eq!(caps[2], 100.0);
        assert_eq!(caps[3], 100.0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn relaxing_restores_nominal() {
        let mut t = BudgetTree::uniform(4, 100.0, 2, 2).unwrap();
        t.set_cap(
            BudgetLevel::Datacenter,
            0,
            BudgetCap::FractionOfNominal(0.6),
        )
        .unwrap();
        t.reclaim(Some(&[80.0, 20.0, 50.0, 50.0]));
        assert!(sum_leaves(&t) <= 240.0 + 1e-9);
        t.set_cap(
            BudgetLevel::Datacenter,
            0,
            BudgetCap::FractionOfNominal(1.0),
        )
        .unwrap();
        t.reclaim(Some(&[80.0, 20.0, 50.0, 50.0]));
        assert_eq!(t.leaf_caps_w(), &[100.0; 4]);
        assert_eq!(t.reclaimed_w(), 0.0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn node_relax_above_nominal_grants_nothing() {
        let mut t = BudgetTree::uniform(2, 100.0, 1, 1).unwrap();
        t.set_cap(BudgetLevel::Node, 0, BudgetCap::FractionOfNominal(1.4))
            .unwrap();
        t.reclaim(Some(&[130.0, 20.0]));
        assert_eq!(t.leaf_caps_w(), &[100.0, 100.0]);
        t.set_cap(BudgetLevel::Datacenter, 0, BudgetCap::Watts(150.0))
            .unwrap();
        t.reclaim(Some(&[130.0, 20.0]));
        let caps = t.leaf_caps_w();
        assert!(caps[0] <= 100.0 && caps[1] <= 100.0, "caps {caps:?}");
        assert!((caps[0] + caps[1] - 150.0).abs() < 1e-9);
        t.check_invariants().unwrap();
    }

    #[test]
    fn nested_cuts_compose() {
        let mut t = BudgetTree::uniform(8, 100.0, 4, 2).unwrap();
        t.set_cap(BudgetLevel::Row, 0, BudgetCap::Watts(300.0))
            .unwrap();
        t.set_cap(BudgetLevel::Datacenter, 0, BudgetCap::Watts(500.0))
            .unwrap();
        t.reclaim(None);
        t.check_invariants().unwrap();
        // Row 0 (leaves 0..4) is bound by its own 300 W; the remaining
        // 200 W of the datacenter cap bounds row 1.
        let caps = t.leaf_caps_w();
        let row0: f64 = caps[..4].iter().sum();
        let row1: f64 = caps[4..].iter().sum();
        assert!(row0 <= 300.0 + 1e-9);
        assert!(row0 + row1 <= 500.0 + 1e-9);
    }

    #[test]
    fn single_level_tree_is_inert() {
        let mut t = BudgetTree::single_level(&[80.0, 90.0, 100.0]).unwrap();
        t.reclaim(Some(&[70.0, 70.0, 70.0]));
        assert_eq!(t.leaf_caps_w(), &[80.0, 90.0, 100.0]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn rejects_bad_geometry_and_caps() {
        assert!(BudgetTree::new(&[], &[], &[]).is_err());
        assert!(BudgetTree::new(&[1.0, 2.0], &[1], &[1]).is_err());
        assert!(BudgetTree::new(&[1.0, 2.0], &[2, 0], &[2]).is_err());
        assert!(BudgetTree::new(&[f64::NAN], &[1], &[1]).is_err());
        assert!(BudgetTree::uniform(4, 100.0, 5, 1).is_err());
        let mut t = BudgetTree::uniform(2, 100.0, 1, 1).unwrap();
        assert!(t
            .set_cap(BudgetLevel::Rack, 3, BudgetCap::Watts(1.0))
            .is_err());
        assert!(t
            .set_cap(BudgetLevel::Datacenter, 0, BudgetCap::Watts(-5.0))
            .is_err());
    }

    #[test]
    fn level_names_round_trip() {
        for level in [
            BudgetLevel::Node,
            BudgetLevel::Rack,
            BudgetLevel::Row,
            BudgetLevel::Datacenter,
        ] {
            assert_eq!(BudgetLevel::parse(level.as_str()), Some(level));
        }
        assert_eq!(BudgetLevel::parse("pdu"), None);
    }
}
