//! Long-context workload zoo (8k–64k tokens) and extreme length-skew mixes.
//!
//! Every other workload in this crate tops out at `n = 512` — the paper's
//! evaluation regime — yet candidate selection pays off most where the
//! `O(n²)` similarity term dominates. This module supplies that regime with
//! two seeded, replayable trace families built on the structured target
//! sampling of [`crate::synthetic`]:
//!
//! * **Long-document** ([`LongCtxKind::LongDocument`]) — a handful of decode
//!   queries standing at the trailing positions of an 8k–64k document, each
//!   attending mostly inside its own trailing locality window
//!   ([`TargetStructure::Local`]) — the sliding-window sparsity long-context
//!   transformers exhibit.
//! * **Retrieval-augmented** ([`LongCtxKind::Retrieval`]) — a short query
//!   set attending over many concatenated passages, with each row's score
//!   mass skewed into one relevant passage ([`TargetStructure::Passage`]).
//!
//! Both families produce ordinary [`WorkloadTrace`]s, so the whole existing
//! stack — `ElsaAttention::forward`, the pooled-KV rival in
//! `elsa_sparse::pool`, serving arrival generators — replays them
//! bit-identically from text.
//!
//! [`LengthMix`] models the serving-side counterpart: weighted length
//! distributions whose extremes (66 real tokens next to 64k) stress
//! length-bucketed batching and the `ServiceEstimator` in ways the paper's
//! ≤512 mix never does. Sampling is a single uniform draw walked over the
//! components in construction order (the `FleetMix` idiom), so mixes are
//! deterministic under any `ELSA_THREADS`.

use elsa_linalg::reduce::sum_f64;
use elsa_linalg::SeededRng;

use crate::synthetic::{AttentionPatternConfig, TargetStructure};
use crate::trace::{TraceEntry, WorkloadTrace};

/// The long-context sequence lengths of the zoo: 8k, 16k and 64k keys.
pub const LONG_LENGTHS: [usize; 3] = [8192, 16384, 65536];

/// A long-context trace family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LongCtxKind {
    /// Decode queries over a long document with trailing-window locality.
    LongDocument,
    /// A short query set over concatenated passages with one relevant
    /// passage per query.
    Retrieval,
}

impl LongCtxKind {
    /// Both families, in zoo order.
    #[must_use]
    pub const fn all() -> [LongCtxKind; 2] {
        [LongCtxKind::LongDocument, LongCtxKind::Retrieval]
    }

    /// Stable display name.
    #[must_use]
    pub const fn name(&self) -> &'static str {
        match self {
            LongCtxKind::LongDocument => "long-document",
            LongCtxKind::Retrieval => "retrieval",
        }
    }

    /// The generator configuration for one invocation with `n` keys.
    ///
    /// Long documents run 16 decode queries with an 8-target, window-512
    /// locality profile; retrieval runs 4 queries whose 12 targets all land
    /// in one 256-key passage with high dominance (relevance-skewed mass).
    /// All knobs clamp gracefully for small `n` so tests can shrink.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn pattern(&self, n: usize) -> AttentionPatternConfig {
        assert!(n > 0, "need at least one key");
        match self {
            LongCtxKind::LongDocument => AttentionPatternConfig {
                n_queries: 16.min(n),
                structure: TargetStructure::Local { window: 512.min(n) },
                ..AttentionPatternConfig::new(n, 64, 8.min(n), 2.0)
            },
            LongCtxKind::Retrieval => AttentionPatternConfig {
                n_queries: 4.min(n),
                structure: TargetStructure::Passage { passage_len: 256.min(n) },
                ..AttentionPatternConfig::new(n, 64, 12.min(n), 3.0)
            },
        }
    }

    /// Records a replayable trace of `count` invocations with `n` keys,
    /// seeding each entry from an independent fork of `rng` (the
    /// `Workload::sample_entry` idiom).
    #[must_use]
    pub fn record_trace(&self, n: usize, count: usize, rng: &mut SeededRng) -> WorkloadTrace {
        let pattern = self.pattern(n);
        let entries = (0..count)
            .map(|i| TraceEntry { pattern, seed: rng.fork(i as u64).uniform().to_bits() })
            .collect();
        WorkloadTrace { d: 64, entries }
    }
}

/// The full long-context zoo: one labeled trace per (family, length) pair,
/// `count` entries each, derived from a single seed.
#[must_use]
pub fn zoo(count: usize, seed: u64) -> Vec<(String, WorkloadTrace)> {
    let mut rng = SeededRng::new(seed);
    let mut out = Vec::new();
    for kind in LongCtxKind::all() {
        for &n in &LONG_LENGTHS {
            let label = format!("{} n={n}", kind.name());
            let mut stream = rng.fork(out.len() as u64);
            out.push((label, kind.record_trace(n, count, &mut stream)));
        }
    }
    out
}

/// A weighted mixture of request lengths for serving experiments.
///
/// # Examples
///
/// ```
/// use elsa_workloads::longctx::LengthMix;
/// use elsa_linalg::SeededRng;
///
/// let mix = LengthMix::extreme_skew();
/// let lengths = mix.sample_lengths(100, &mut SeededRng::new(1));
/// assert_eq!(lengths.len(), 100);
/// assert!(lengths.iter().all(|&n| n == 66 || n == 65536));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LengthMix {
    /// `(length, weight)` components, sampled in construction order.
    pub components: Vec<(usize, f64)>,
}

impl LengthMix {
    /// Builds a mix from `(length, weight)` components.
    ///
    /// # Panics
    ///
    /// Panics on an empty component list, a zero length, or a non-positive
    /// or non-finite weight.
    #[must_use]
    pub fn new(components: Vec<(usize, f64)>) -> Self {
        assert!(!components.is_empty(), "need at least one component");
        for &(n, w) in &components {
            assert!(n > 0, "lengths must be positive");
            assert!(w.is_finite() && w > 0.0, "weights must be positive and finite");
        }
        Self { components }
    }

    /// The issue's 66-vs-64k stress mix: 99% tiny 66-token requests with a
    /// 1% tail of full 64k-context requests — the regime where pad-to-max
    /// batching charges every tiny request a 64k invocation.
    #[must_use]
    pub fn extreme_skew() -> Self {
        Self::new(vec![(66, 0.99), (65536, 0.01)])
    }

    /// A graded long-context mix over the zoo lengths (half 8k, 30% 16k,
    /// 20% 64k) — skewed but without the tiny-request spike.
    #[must_use]
    pub fn long_tail() -> Self {
        Self::new(vec![(8192, 0.5), (16384, 0.3), (65536, 0.2)])
    }

    /// Sum of the component weights.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        sum_f64(self.components.iter().map(|&(_, w)| w))
    }

    /// Weight-averaged request length.
    #[must_use]
    pub fn expected_length(&self) -> f64 {
        sum_f64(self.components.iter().map(|&(n, w)| n as f64 * w)) / self.total_weight()
    }

    /// The longest component length.
    #[must_use]
    pub fn max_length(&self) -> usize {
        self.components.iter().map(|&(n, _)| n).max().unwrap_or(0)
    }

    /// Samples one length: a single uniform draw walked over the components
    /// in construction order.
    #[must_use]
    pub fn sample(&self, rng: &mut SeededRng) -> usize {
        let mut remaining = rng.uniform() * self.total_weight();
        for &(n, w) in &self.components {
            if remaining < w {
                return n;
            }
            remaining -= w;
        }
        // Floating-point edge: the draw landed exactly on the total weight.
        self.components[self.components.len() - 1].0
    }

    /// Samples `count` lengths.
    #[must_use]
    pub fn sample_lengths(&self, count: usize, rng: &mut SeededRng) -> Vec<usize> {
        (0..count).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_covers_every_family_and_length() {
        let zoo = zoo(2, 42);
        assert_eq!(zoo.len(), LongCtxKind::all().len() * LONG_LENGTHS.len());
        for (label, trace) in &zoo {
            assert_eq!(trace.entries.len(), 2);
            let n = trace.entries[0].pattern.n_real;
            assert!(LONG_LENGTHS.contains(&n), "{label}: unexpected n {n}");
            assert!(label.contains(&format!("n={n}")));
            // Every zoo entry is a few-queries-over-many-keys invocation.
            assert!(trace.entries[0].pattern.n_queries <= 16);
        }
        // Replayable: the zoo is a pure function of its seed.
        assert_eq!(zoo, super::zoo(2, 42));
        assert_ne!(zoo, super::zoo(2, 43));
    }

    #[test]
    fn zoo_traces_round_trip_through_text() {
        for (label, trace) in zoo(2, 7) {
            let back = WorkloadTrace::from_text(&trace.to_text()).expect("parses");
            assert_eq!(trace, back, "{label}");
        }
    }

    #[test]
    fn patterns_shrink_gracefully() {
        for kind in LongCtxKind::all() {
            for n in [1usize, 2, 5, 64] {
                let cfg = kind.pattern(n);
                let inputs = cfg.generate(&mut SeededRng::new(1));
                assert_eq!(inputs.num_keys(), n);
                assert!(inputs.num_queries() >= 1);
            }
        }
    }

    #[test]
    fn extreme_skew_samples_both_extremes() {
        let mix = LengthMix::extreme_skew();
        let mut rng = SeededRng::new(5);
        let lengths = mix.sample_lengths(2000, &mut rng);
        let tiny = lengths.iter().filter(|&&n| n == 66).count();
        let huge = lengths.iter().filter(|&&n| n == 65536).count();
        assert_eq!(tiny + huge, 2000);
        assert!(huge > 0, "the 1% tail must appear in 2000 draws");
        let huge_frac = huge as f64 / 2000.0;
        assert!((0.002..=0.03).contains(&huge_frac), "tail fraction {huge_frac}");
    }

    #[test]
    fn mix_statistics() {
        let mix = LengthMix::long_tail();
        assert_eq!(mix.max_length(), 65536);
        let expected = (8192.0 * 0.5 + 16384.0 * 0.3 + 65536.0 * 0.2) / 1.0;
        assert!((mix.expected_length() - expected).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn rejects_bad_weight() {
        let _ = LengthMix::new(vec![(10, 0.0)]);
    }
}
