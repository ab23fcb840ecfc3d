//! StatCC: statistical cache-contention modeling for multiprogrammed
//! workloads (§4.2).
//!
//! Eklov et al.'s StatCC predicts how independent applications interact
//! when sharing a cache, from *solo* reuse profiles only: each
//! application's reuse distances are stretched by the ratio of the
//! combined access rate to its own rate (co-runners' accesses interleave
//! into every reuse window), the shared-cache miss ratios follow from
//! StatStack, the miss ratios update each application's CPI, and the new
//! CPIs change the access rates — a small fixpoint that converges in a
//! few iterations.
//!
//! The paper (§4.2) notes that combining StatCC with DeLorean would
//! replace StatCC's simplistic CPI estimate with detailed simulation; the
//! solver below exposes the CPI model as an input so either can be
//! plugged in.

use crate::reuse::ReuseProfile;

/// One application's solo characterization.
#[derive(Clone, Debug)]
pub struct StatCcApp {
    /// Display name.
    pub name: String,
    /// Solo reuse profile (distances in the application's own accesses).
    pub profile: ReuseProfile,
    /// Memory accesses per kilo-instruction.
    pub apki: f64,
    /// CPI with a perfect (never-missing) shared cache.
    pub base_cpi: f64,
    /// CPI added per miss (memory latency after overlap).
    pub miss_penalty_cycles: f64,
}

/// Converged sharing prediction.
#[derive(Clone, Debug, Default)]
pub struct StatCcSolution {
    /// Predicted CPI per application, input order.
    pub cpi: Vec<f64>,
    /// Predicted shared-cache miss ratio per application.
    pub miss_ratio: Vec<f64>,
    /// Effective reuse-stretch factor applied to each application.
    pub stretch: Vec<f64>,
    /// Iterations to convergence.
    pub iterations: u32,
}

/// StatCC fixpoint solver.
#[derive(Copy, Clone, Debug)]
pub struct StatCc {
    /// Maximum fixpoint iterations.
    pub max_iterations: u32,
    /// Convergence tolerance on CPI.
    pub tolerance: f64,
}

impl Default for StatCc {
    fn default() -> Self {
        StatCc {
            max_iterations: 50,
            tolerance: 1e-6,
        }
    }
}

impl StatCc {
    /// A solver with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Predict per-application CPI and miss ratio when `apps` share an
    /// LRU cache of `shared_lines` lines.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty or any rate parameter is non-positive.
    pub fn solve(&self, apps: &[StatCcApp], shared_lines: u64) -> StatCcSolution {
        assert!(!apps.is_empty(), "need at least one application");
        for a in apps {
            assert!(
                a.apki > 0.0 && a.base_cpi > 0.0,
                "{}: rates must be positive",
                a.name
            );
        }
        let n = apps.len();
        let mut cpi: Vec<f64> = apps.iter().map(|a| a.base_cpi).collect();
        let mut miss = vec![0.0; n];
        let mut stretch = vec![1.0; n];
        let mut iterations = 0;
        for _ in 0..self.max_iterations {
            iterations += 1;
            // Access rates in accesses per cycle.
            let rates: Vec<f64> = apps
                .iter()
                .zip(&cpi)
                .map(|(a, &c)| a.apki / (1000.0 * c))
                .collect();
            let total_rate: f64 = rates.iter().sum();
            let mut max_delta = 0.0f64;
            for i in 0..n {
                stretch[i] = (total_rate / rates[i]).max(1.0);
                let shared_profile = apps[i].profile.scaled(stretch[i]);
                miss[i] = shared_profile.miss_ratio(shared_lines);
                let new_cpi = apps[i].base_cpi
                    + miss[i] * apps[i].apki * apps[i].miss_penalty_cycles / 1000.0;
                max_delta = max_delta.max((new_cpi - cpi[i]).abs());
                // Damping keeps the rate/CPI loop stable.
                cpi[i] = 0.5 * cpi[i] + 0.5 * new_cpi;
            }
            if max_delta < self.tolerance {
                break;
            }
        }
        StatCcSolution {
            cpi,
            miss_ratio: miss,
            stretch,
            iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(name: &str, rd: u64, weight: f64, apki: f64) -> StatCcApp {
        let mut profile = ReuseProfile::new();
        profile.record(rd, weight);
        profile.record_cold(weight / 100.0);
        StatCcApp {
            name: name.into(),
            profile,
            apki,
            base_cpi: 0.5,
            miss_penalty_cycles: 60.0,
        }
    }

    #[test]
    fn symmetric_pair_splits_the_cache_evenly() {
        let a = app("a", 1_000, 100.0, 300.0);
        let b = app("b", 1_000, 100.0, 300.0);
        let sol = StatCc::new().solve(&[a, b], 4_096);
        assert!((sol.cpi[0] - sol.cpi[1]).abs() < 1e-9, "{:?}", sol.cpi);
        // Equal rates → each sees its distances doubled.
        assert!((sol.stretch[0] - 2.0).abs() < 0.05, "{:?}", sol.stretch);
    }

    #[test]
    fn sharing_never_helps() {
        let solo = app("solo", 2_000, 100.0, 300.0);
        let solo_miss = solo.profile.miss_ratio(4_096);
        let streamer = app("streamer", 1 << 22, 100.0, 400.0);
        let sol = StatCc::new().solve(&[solo, streamer], 4_096);
        assert!(
            sol.miss_ratio[0] >= solo_miss - 1e-9,
            "sharing reduced misses: {} < {solo_miss}",
            sol.miss_ratio[0]
        );
    }

    #[test]
    fn aggressive_corunner_hurts_cache_friendly_app() {
        // The friendly app fits the cache alone (rd 3k < 4096 lines), but
        // a streaming co-runner stretches its reuses past capacity. (rd
        // values near capacity/2 sit on a knife edge where the mutual-
        // slowdown feedback oscillates between fit and thrash — a real
        // property of the fixpoint, avoided here by picking rd = 3000,
        // which misses under any stretch ≥ 1.4.)
        let friendly = app("friendly", 3_000, 100.0, 300.0);
        let alone = friendly.profile.miss_ratio(4_096);
        let streamer = app("streamer", 1 << 22, 100.0, 900.0);
        let sol = StatCc::new().solve(&[friendly, streamer], 4_096);
        assert!(alone < 0.05, "friendly app should fit alone: {alone}");
        assert!(
            sol.miss_ratio[0] > alone + 0.2,
            "contention should evict the friendly app: {} vs {alone}",
            sol.miss_ratio[0]
        );
        // And its CPI rises accordingly.
        assert!(sol.cpi[0] > 0.5 + 0.2 * 300.0 * 60.0 / 1000.0 * 0.5);
    }

    #[test]
    fn single_app_reduces_to_statstack() {
        let a = app("a", 10_000, 100.0, 300.0);
        let expected = a.profile.miss_ratio(1_024);
        let sol = StatCc::new().solve(&[a], 1_024);
        assert!((sol.miss_ratio[0] - expected).abs() < 1e-9);
        assert!((sol.stretch[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn converges_quickly() {
        let apps: Vec<StatCcApp> = (0..4)
            .map(|i| {
                app(
                    &format!("app{i}"),
                    500 * (i + 1) as u64,
                    100.0,
                    200.0 + 50.0 * i as f64,
                )
            })
            .collect();
        let sol = StatCc::new().solve(&apps, 8_192);
        assert!(sol.iterations < 50, "iterations {}", sol.iterations);
        assert_eq!(sol.cpi.len(), 4);
        assert!(sol.cpi.iter().all(|&c| c.is_finite() && c > 0.0));
    }

    #[test]
    #[should_panic(expected = "need at least one application")]
    fn empty_input_rejected() {
        let _ = StatCc::new().solve(&[], 1024);
    }
}
