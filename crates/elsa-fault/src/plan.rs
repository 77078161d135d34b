//! Seeded, replayable fault plans.
//!
//! A [`FaultPlan`] is a *pure function* from `(seed, site)` to fault
//! decisions: whether unit `u` is dead, whether attempt `a` of request `r`
//! on unit `u` errors, how slow a straggling unit runs, and whether a result
//! is numerically corrupted. Decisions are derived by mixing the site
//! labels through the `elsa-testkit` PRNG, **never** by drawing from a
//! shared stateful stream — so the same plan gives the same answers
//! regardless of evaluation order, worker count, or how often a site is
//! queried. That property is what lets the chaos battery demand bit-exact
//! replay at any `ELSA_THREADS`.

use elsa_testkit::rng::{SplitMix64, TestRng};

/// Per-site fault probabilities (all in `[0, 1]`; values outside are
/// clamped at decision time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability that a unit is dead for the whole batch.
    pub unit_death: f64,
    /// Per-attempt probability that a dispatched job errors transiently.
    pub transient: f64,
    /// Probability that a `(unit, request)` pairing straggles.
    pub straggler: f64,
    /// Largest slowdown factor a straggler can exhibit (`≥ 1`); the factor
    /// is drawn uniformly from `[1, straggler_max_factor)`.
    pub straggler_max_factor: f64,
    /// Probability that a completed job's result is numerically corrupted
    /// (a NaN / ±∞ / saturated output value or an empty candidate set: a
    /// result the serving guard catches).
    pub corrupt: f64,
}

impl FaultRates {
    /// No faults of any kind.
    #[must_use]
    pub const fn none() -> Self {
        Self {
            unit_death: 0.0,
            transient: 0.0,
            straggler: 0.0,
            straggler_max_factor: 1.0,
            corrupt: 0.0,
        }
    }

    /// A moderately hostile pool: occasional dead units, transient errors,
    /// 4× stragglers, and rare numeric corruption. A convenient chaos-test
    /// starting point.
    #[must_use]
    pub const fn chaotic() -> Self {
        Self {
            unit_death: 0.15,
            transient: 0.1,
            straggler: 0.2,
            straggler_max_factor: 4.0,
            corrupt: 0.05,
        }
    }
}

impl Default for FaultRates {
    fn default() -> Self {
        Self::none()
    }
}

/// A deterministic, replayable fault-injection plan.
///
/// # Examples
///
/// ```
/// use elsa_fault::{FaultPlan, FaultRates};
///
/// let plan = FaultPlan::seeded(7, FaultRates { unit_death: 0.5, ..FaultRates::none() });
/// // Decisions are pure: asking twice gives the same answer.
/// assert_eq!(plan.unit_dead(3), plan.unit_dead(3));
/// // And zero-rate plans never fault.
/// assert!(!FaultPlan::none().unit_dead(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rates: FaultRates,
}

/// Decision-domain separators, so e.g. `unit_dead(5)` and
/// `straggler_factor(5, 0)` never reuse a stream.
const DOMAIN_DEATH: u64 = 0xDEAD_0001;
const DOMAIN_TRANSIENT: u64 = 0xDEAD_0002;
const DOMAIN_STRAGGLER: u64 = 0xDEAD_0003;
const DOMAIN_CORRUPT: u64 = 0xDEAD_0004;
/// Stream-split domain for [`FaultPlan::fork`].
const DOMAIN_FORK: u64 = 0xDEAD_0006;

impl FaultPlan {
    /// The zero-fault plan: every decision is "healthy", with no PRNG work
    /// on the hot path (rates short-circuit before any mixing).
    #[must_use]
    pub const fn none() -> Self {
        Self { seed: 0, rates: FaultRates::none() }
    }

    /// A plan with explicit seed and rates.
    #[must_use]
    pub const fn seeded(seed: u64, rates: FaultRates) -> Self {
        Self { seed, rates }
    }

    /// The plan's seed.
    #[must_use]
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// Splits off an independent child plan for stream `stream` (same
    /// rates, statistically independent decisions). This is the SplitMix
    /// stream split used by the cluster layer: one fleet-level seed forks
    /// into one plan per node, so node `i`'s unit faults are uncorrelated
    /// with node `j`'s even though both replay from the single reported
    /// seed. Forking is pure — `plan.fork(s)` is the same plan no matter
    /// when or how often it is derived — and composes (`fork(a).fork(b)`
    /// differs from `fork(b).fork(a)`).
    #[must_use]
    pub fn fork(&self, stream: u64) -> Self {
        let h = SplitMix64::mix(self.seed ^ SplitMix64::mix(DOMAIN_FORK));
        let seed = SplitMix64::mix(h ^ stream.wrapping_add(SplitMix64::GAMMA));
        Self { seed, rates: self.rates }
    }

    /// The plan's rates.
    #[must_use]
    pub const fn rates(&self) -> FaultRates {
        self.rates
    }

    /// Whether this plan can never inject any fault.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        let r = self.rates;
        r.unit_death <= 0.0 && r.transient <= 0.0 && r.straggler <= 0.0 && r.corrupt <= 0.0
    }

    /// Derives the decision stream for one site: a hash chain over
    /// `(seed, domain, labels…)`, independent of call order.
    fn site_rng(&self, domain: u64, labels: &[u64]) -> TestRng {
        let mut h = SplitMix64::mix(self.seed ^ SplitMix64::mix(domain));
        for &label in labels {
            h = SplitMix64::mix(h ^ label.wrapping_add(SplitMix64::GAMMA));
        }
        TestRng::new(h)
    }

    /// Is unit `unit` dead for the whole batch?
    #[must_use]
    pub fn unit_dead(&self, unit: usize) -> bool {
        self.rates.unit_death > 0.0
            && self.site_rng(DOMAIN_DEATH, &[unit as u64]).bernoulli(self.rates.unit_death)
    }

    /// Does attempt `attempt` of request `request` error transiently on
    /// unit `unit`?
    #[must_use]
    pub fn transient_fault(&self, unit: usize, request: usize, attempt: u32) -> bool {
        self.rates.transient > 0.0
            && self
                .site_rng(
                    DOMAIN_TRANSIENT,
                    &[unit as u64, request as u64, u64::from(attempt)],
                )
                .bernoulli(self.rates.transient)
    }

    /// Slowdown factor for request `request` on unit `unit` (`1.0` when the
    /// pairing does not straggle; always `≥ 1`).
    #[must_use]
    pub fn straggler_factor(&self, unit: usize, request: usize) -> f64 {
        if self.rates.straggler <= 0.0 || self.rates.straggler_max_factor <= 1.0 {
            return 1.0;
        }
        let mut rng = self.site_rng(DOMAIN_STRAGGLER, &[unit as u64, request as u64]);
        if rng.bernoulli(self.rates.straggler) {
            rng.uniform_in(1.0, self.rates.straggler_max_factor)
        } else {
            1.0
        }
    }

    /// Is request `request`'s result on unit `unit` numerically corrupted?
    /// A corrupted result is one the serving guard catches, so the engine
    /// degrades it to exact attention.
    #[must_use]
    pub fn corrupts(&self, unit: usize, request: usize) -> bool {
        self.rates.corrupt > 0.0
            && self
                .site_rng(DOMAIN_CORRUPT, &[unit as u64, request as u64])
                .bernoulli(self.rates.corrupt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_order_independent() {
        let plan = FaultPlan::seeded(42, FaultRates::chaotic());
        // Query sites in two different orders; answers must match.
        let forward: Vec<bool> = (0..32).map(|u| plan.unit_dead(u)).collect();
        let backward: Vec<bool> = (0..32).rev().map(|u| plan.unit_dead(u)).collect();
        let backward_reversed: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward_reversed);
        assert_eq!(
            plan.straggler_factor(3, 17).to_bits(),
            plan.straggler_factor(3, 17).to_bits()
        );
        assert_eq!(plan.corrupts(2, 9), plan.corrupts(2, 9));
    }

    #[test]
    fn same_seed_same_plan_different_seed_different_plan() {
        let rates = FaultRates::chaotic();
        let a: Vec<bool> = (0..256).map(|u| FaultPlan::seeded(7, rates).unit_dead(u)).collect();
        let b: Vec<bool> = (0..256).map(|u| FaultPlan::seeded(7, rates).unit_dead(u)).collect();
        let c: Vec<bool> = (0..256).map(|u| FaultPlan::seeded(8, rates).unit_dead(u)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_plan_never_faults_anywhere() {
        let plan = FaultPlan::none();
        assert!(plan.is_zero());
        for u in 0..16 {
            assert!(!plan.unit_dead(u));
            for r in 0..16 {
                assert!(!plan.transient_fault(u, r, 0));
                assert_eq!(plan.straggler_factor(u, r), 1.0);
                assert!(!plan.corrupts(u, r));
            }
        }
    }

    #[test]
    fn rates_shape_decision_frequencies() {
        let heavy = FaultPlan::seeded(3, FaultRates { transient: 0.5, ..FaultRates::none() });
        let light = FaultPlan::seeded(3, FaultRates { transient: 0.02, ..FaultRates::none() });
        let count = |plan: &FaultPlan| {
            (0..2000).filter(|&r| plan.transient_fault(0, r, 0)).count()
        };
        let heavy_count = count(&heavy);
        let light_count = count(&light);
        assert!(heavy_count > 800 && heavy_count < 1200, "heavy {heavy_count}");
        assert!(light_count < 120, "light {light_count}");
    }

    #[test]
    fn straggler_factors_bounded_and_sometimes_slow() {
        let plan = FaultPlan::seeded(5, FaultRates {
            straggler: 0.5,
            straggler_max_factor: 4.0,
            ..FaultRates::none()
        });
        let mut slow = 0;
        for r in 0..500 {
            let f = plan.straggler_factor(1, r);
            assert!((1.0..4.0).contains(&f), "factor {f}");
            if f > 1.0 {
                slow += 1;
            }
        }
        assert!(slow > 150 && slow < 350, "stragglers {slow}");
    }

    #[test]
    fn fork_is_pure_and_preserves_rates() {
        let parent = FaultPlan::seeded(42, FaultRates::chaotic());
        let a = parent.fork(3);
        let b = parent.fork(3);
        assert_eq!(a, b, "forking is a pure function of (seed, stream)");
        assert_eq!(a.rates(), parent.rates());
        assert_ne!(a.seed(), parent.seed(), "child must not replay the parent stream");
    }

    #[test]
    fn forked_streams_are_decorrelated() {
        // Per-node plans forked from one seed must not share fault sites:
        // correlated faults would make "3 nodes die together" the common
        // case instead of the rare one. Check that sibling streams disagree
        // on a decision vector and that agreement stays near the base rate.
        let parent = FaultPlan::seeded(7, FaultRates { transient: 0.5, ..FaultRates::none() });
        let decisions = |plan: &FaultPlan| -> Vec<bool> {
            (0..2000).map(|r| plan.transient_fault(0, r, 0)).collect()
        };
        let node0 = decisions(&parent.fork(0));
        let node1 = decisions(&parent.fork(1));
        assert_ne!(node0, node1);
        let agree = node0.iter().zip(&node1).filter(|(a, b)| a == b).count();
        // Independent p=0.5 streams agree ~50% of the time.
        assert!((800..1200).contains(&agree), "agreement {agree}/2000");
    }

    #[test]
    fn fork_composes_by_path_not_by_set() {
        let parent = FaultPlan::seeded(9, FaultRates::chaotic());
        assert_ne!(parent.fork(1).fork(2).seed(), parent.fork(2).fork(1).seed());
        assert_ne!(parent.fork(1).seed(), parent.fork(2).seed());
    }

    #[test]
    fn attempts_get_independent_transient_draws() {
        let plan = FaultPlan::seeded(13, FaultRates { transient: 0.5, ..FaultRates::none() });
        // Over many requests, some must fault on attempt 0 but not attempt 1
        // (retries on the same unit are not doomed to repeat).
        let recovered = (0..200)
            .filter(|&r| plan.transient_fault(0, r, 0) && !plan.transient_fault(0, r, 1))
            .count();
        assert!(recovered > 20, "recovered {recovered}");
    }
}
