//! Pooled-KV attention: the ESA/EASA-style rival that *compresses* the
//! key/value sequence to a fixed budget `m ≪ n` with adaptive pooling and
//! runs dense attention over the pooled rows. The crate documentation
//! describes the pooling semantics and the `budget ≥ n` exactness property.

use crate::cost::PooledAttentionOps;
use crate::{selection_stats, Rival};
use elsa_attention::exact::{self, AttentionInputs};
use elsa_core::SelectionStats;
use elsa_linalg::Matrix;

/// How key segments are reduced to one pooled row.
///
/// Values are always average-pooled regardless of the key mode: a max-pooled
/// value row would not approximate any convex combination the exact softmax
/// could produce, while the segment mean is the exact output in the limit of
/// uniform in-segment attention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolMode {
    /// Segment mean (accumulated in `f64`, rounded once to `f32`).
    Average,
    /// Element-wise segment maximum — keeps the sharpest key feature per
    /// coordinate, trading score calibration for peak retention.
    Max,
}

impl PoolMode {
    /// Stable display name used in benchmark tables.
    #[must_use]
    pub const fn name(&self) -> &'static str {
        match self {
            PoolMode::Average => "avg",
            PoolMode::Max => "max",
        }
    }
}

/// Deterministic pooled-KV attention with a fixed budget.
///
/// [`Rival::forward`] reports `m = min(budget, n)` attended keys per query:
/// `selected_pairs = n_q·m` out of `total_pairs = n_q·n`.
///
/// # Examples
///
/// ```
/// use elsa_attention::exact::{self, AttentionInputs};
/// use elsa_linalg::{Matrix, SeededRng};
/// use elsa_sparse::{PoolMode, PooledKvAttention, Rival};
///
/// let mut rng = SeededRng::new(9);
/// let inputs = AttentionInputs::new(
///     Matrix::from_fn(4, 8, |_, _| rng.standard_normal() as f32),
///     Matrix::from_fn(32, 8, |_, _| rng.standard_normal() as f32),
///     Matrix::from_fn(32, 8, |_, _| rng.standard_normal() as f32),
/// );
/// let pool = PooledKvAttention::new(8, PoolMode::Average);
/// let (out, stats) = pool.forward(&inputs);
/// assert_eq!(out.rows(), 4);
/// assert_eq!(stats.selected_pairs, 4 * 8);
/// // A budget covering every key degenerates to exact attention, bitwise.
/// let (exact_out, _) = PooledKvAttention::new(32, PoolMode::Average).forward(&inputs);
/// assert_eq!(exact_out.max_abs_diff(&exact::attention(&inputs)), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PooledKvAttention {
    /// Target number of pooled key/value rows `m`.
    pub budget: usize,
    /// Key reduction mode.
    pub mode: PoolMode,
}

impl PooledKvAttention {
    /// Creates a pooled-KV model with the given budget and key mode.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    #[must_use]
    pub fn new(budget: usize, mode: PoolMode) -> Self {
        assert!(budget > 0, "pooling budget must be positive");
        Self { budget, mode }
    }

    /// Stable label for benchmark tables, e.g. `pooled-avg m=256`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("pooled-{} m={}", self.mode.name(), self.budget)
    }

    /// Pools the key/value sequence down to `min(budget, n)` rows, leaving
    /// the queries untouched.
    fn pool(&self, inputs: &AttentionInputs) -> AttentionInputs {
        let m = self.budget.min(inputs.num_keys());
        let pooled_k = pool_rows(inputs.key(), m, self.mode);
        let pooled_v = pool_rows(inputs.value(), m, PoolMode::Average);
        AttentionInputs::new(inputs.query().clone(), pooled_k, pooled_v)
    }
}

impl Rival for PooledKvAttention {
    /// Pools, then runs the same unscaled exact attention the ELSA candidate
    /// path reduces to.
    fn forward(&self, inputs: &AttentionInputs) -> (Matrix, SelectionStats) {
        let pooled = self.pool(inputs);
        let (n_q, m) = (inputs.num_queries(), pooled.num_keys());
        (
            exact::attention(&pooled),
            selection_stats(n_q, inputs.num_keys(), n_q * m),
        )
    }

    /// [`PooledAttentionOps`] with a square value dimension.
    fn ops(&self, stats: &SelectionStats, d: usize) -> u64 {
        PooledAttentionOps::count(stats.num_queries, stats.num_keys, d, d, self.budget).total()
    }
}

/// Adaptive-pools `input` down to `segments` rows. Segment `j` covers rows
/// `⌊j·n/s⌋ .. ⌊(j+1)·n/s⌋`, non-empty whenever `segments ≤ n`.
fn pool_rows(input: &Matrix, segments: usize, mode: PoolMode) -> Matrix {
    let n = input.rows();
    let d = input.cols();
    assert!(segments >= 1 && segments <= n, "need 1 <= segments <= rows");
    let mut out = Matrix::zeros(segments, d);
    for j in 0..segments {
        let start = j * n / segments;
        let end = (j + 1) * n / segments;
        let row = out.row_mut(j);
        match mode {
            PoolMode::Average => {
                let mut acc = vec![0.0f64; d];
                for i in start..end {
                    for (a, &x) in acc.iter_mut().zip(input.row(i)) {
                        *a += f64::from(x);
                    }
                }
                let inv = 1.0 / (end - start) as f64;
                for (o, a) in row.iter_mut().zip(&acc) {
                    *o = (a * inv) as f32;
                }
            }
            PoolMode::Max => {
                row.copy_from_slice(input.row(start));
                for i in start + 1..end {
                    for (o, &x) in row.iter_mut().zip(input.row(i)) {
                        if x > *o {
                            *o = x;
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsa_linalg::SeededRng;

    fn random_inputs(n_q: usize, n: usize, d: usize, seed: u64) -> AttentionInputs {
        let mut rng = SeededRng::new(seed);
        AttentionInputs::new(
            Matrix::from_fn(n_q, d, |_, _| rng.standard_normal() as f32),
            Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32),
            Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32),
        )
    }

    #[test]
    fn full_budget_is_bitwise_exact() {
        let inputs = random_inputs(6, 40, 16, 3);
        for mode in [PoolMode::Average, PoolMode::Max] {
            let (out, stats) = PooledKvAttention::new(40, mode).forward(&inputs);
            assert_eq!(stats.selected_pairs, stats.total_pairs);
            assert_eq!(out.max_abs_diff(&exact::attention(&inputs)), 0.0);
        }
        // Over-budget clamps to n and stays exact.
        let (out, stats) = PooledKvAttention::new(1000, PoolMode::Average).forward(&inputs);
        assert_eq!(stats.selected_pairs, 6 * 40);
        assert_eq!(out.max_abs_diff(&exact::attention(&inputs)), 0.0);
    }

    #[test]
    fn segments_partition_rows() {
        // Non-divisible n: segment bounds must tile [0, n) exactly.
        for (n, m) in [(37usize, 8usize), (64, 5), (9, 9), (100, 1)] {
            let mut covered = 0usize;
            for j in 0..m {
                let start = j * n / m;
                let end = (j + 1) * n / m;
                assert!(end > start, "empty segment {j} of {m} over {n}");
                assert_eq!(start, covered, "gap before segment {j}");
                covered = end;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn average_pooling_averages() {
        let k = Matrix::from_fn(4, 2, |i, j| (i * 2 + j) as f32);
        let pooled = pool_rows(&k, 2, PoolMode::Average);
        assert_eq!(pooled.row(0), &[1.0, 2.0]); // mean of rows 0,1
        assert_eq!(pooled.row(1), &[5.0, 6.0]); // mean of rows 2,3
        let maxed = pool_rows(&k, 2, PoolMode::Max);
        assert_eq!(maxed.row(0), &[2.0, 3.0]);
        assert_eq!(maxed.row(1), &[6.0, 7.0]);
    }

    #[test]
    fn forward_is_deterministic() {
        let inputs = random_inputs(4, 200, 32, 11);
        let pool = PooledKvAttention::new(16, PoolMode::Average);
        let (a, stats_a) = pool.forward(&inputs);
        let (b, stats_b) = pool.forward(&inputs);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        assert_eq!(stats_a, stats_b);
        assert_eq!(stats_a.fallback_queries, 0);
    }

    #[test]
    fn tighter_budgets_cost_less_and_approximate_worse() {
        let inputs = random_inputs(8, 256, 32, 7);
        let reference = exact::attention(&inputs);
        let loose = PooledKvAttention::new(128, PoolMode::Average);
        let tight = PooledKvAttention::new(8, PoolMode::Average);
        let (out_loose, s_loose) = loose.forward(&inputs);
        let (out_tight, s_tight) = tight.forward(&inputs);
        assert!(s_tight.candidate_fraction() < s_loose.candidate_fraction());
        assert!(loose.ops(&s_loose, 32) > tight.ops(&s_tight, 32));
        let err_loose = reference.relative_frobenius_error(&out_loose);
        let err_tight = reference.relative_frobenius_error(&out_tight);
        assert!(
            err_tight > err_loose,
            "tight budget should hurt: {err_tight} vs {err_loose}"
        );
    }

    #[test]
    fn stats_and_label() {
        let pool = PooledKvAttention::new(256, PoolMode::Max);
        assert_eq!(pool.label(), "pooled-max m=256");
        let (_, stats) = pool.forward(&random_inputs(2, 65536, 4, 5));
        assert_eq!(stats.total_pairs, 2 * 65536);
        assert_eq!(stats.selected_pairs, 2 * 256);
        // 256x compression: each query attends 1/256 of the keys.
        assert!((1.0 / stats.candidate_fraction() - 256.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn rejects_zero_budget() {
        let _ = PooledKvAttention::new(0, PoolMode::Average);
    }
}
