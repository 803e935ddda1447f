//! Property-based tests over the extension modules: resctrl/cpuset
//! rendering and the trace load profile.

use proptest::prelude::*;
use sturgeon_simnode::audit::{cpuset_lists, resctrl_schemata};
use sturgeon_simnode::{Allocation, NodeSpec, PairConfig};
use sturgeon_workloads::loadgen::LoadProfile;

fn spec() -> NodeSpec {
    NodeSpec::xeon_e5_2630_v4()
}

/// Strategy for a valid pair configuration.
fn valid_pair() -> impl Strategy<Value = PairConfig> {
    (1u32..19, 0usize..10, 1u32..19, 0usize..10).prop_map(|(c1, f1, l1, f2)| {
        PairConfig::new(
            Allocation::new(c1, f1, l1),
            Allocation::new(20 - c1, f2, 20 - l1),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn resctrl_masks_are_disjoint_with_correct_popcounts(cfg in valid_pair()) {
        let s = spec();
        let (ls_line, be_line) = resctrl_schemata(&s, &cfg);
        let parse = |line: &str| {
            u64::from_str_radix(line.strip_prefix("L3:0=").expect("prefix"), 16).expect("hex")
        };
        let ls_mask = parse(&ls_line);
        let be_mask = parse(&be_line);
        prop_assert_eq!(ls_mask & be_mask, 0, "overlapping CAT masks");
        prop_assert_eq!(ls_mask.count_ones(), cfg.ls.llc_ways);
        prop_assert_eq!(be_mask.count_ones(), cfg.be.llc_ways);
        // Both masks fit in the node's way universe.
        let universe = (1u64 << s.total_llc_ways) - 1;
        prop_assert_eq!(ls_mask & !universe, 0);
        prop_assert_eq!(be_mask & !universe, 0);
    }

    #[test]
    fn cpuset_lists_cover_all_cores_without_overlap(cfg in valid_pair()) {
        let (ls, be) = cpuset_lists(&cfg);
        let expand = |s: &str| -> Vec<u32> {
            if s.is_empty() {
                return vec![];
            }
            match s.split_once('-') {
                Some((a, b)) => (a.parse().unwrap()..=b.parse().unwrap()).collect(),
                None => vec![s.parse().unwrap()],
            }
        };
        let ls_cores = expand(&ls);
        let be_cores = expand(&be);
        prop_assert_eq!(ls_cores.len() as u32, cfg.ls.cores);
        prop_assert_eq!(be_cores.len() as u32, cfg.be.cores);
        let mut all = ls_cores;
        all.extend(&be_cores);
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len() as u32, cfg.ls.cores + cfg.be.cores, "overlap");
        prop_assert!(all.iter().all(|&c| c < 20));
    }

    #[test]
    fn trace_profile_stays_within_sample_hull(
        samples in proptest::collection::vec(0.0f64..1.0, 2..30),
        t in 0.0f64..5_000.0,
        dt in 0.5f64..120.0,
    ) {
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(0.0f64, f64::max);
        let p = LoadProfile::Trace { samples, dt_s: dt };
        let f = p.fraction_at(t);
        prop_assert!(f >= lo - 1e-12 && f <= hi + 1e-12, "{f} outside [{lo}, {hi}]");
    }
}
