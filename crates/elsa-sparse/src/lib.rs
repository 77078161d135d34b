//! The rival approximations ELSA is compared against, behind one trait.
//!
//! §V-E of the ELSA paper argues that software-only sparse attention fails
//! to deliver wall-clock speedups at practical sequence lengths: "Reformer
//! fails to achieve any speedup for sequence length less than 2048, due to
//! its huge constant in their time complexity", and windowed/sparse schemes
//! deliver "very little speedup (e.g., 20% speedup for 2% accuracy loss)".
//! To make that comparison concrete, this crate implements the
//! representative schemes **as algorithms**, each producing an output and
//! attended-pair statistics comparable with ELSA's operator:
//!
//! * [`reformer`] — LSH bucketed attention (Kitaev et al., ICLR 2020):
//!   multi-round sign-random-projection bucketing, intra-bucket attention;
//! * [`local`] — sliding-window attention with optional global tokens
//!   (the Longformer/sparse-transformer family);
//! * [`segmented`] — fixed-segment attention, the §I status-quo workaround
//!   whose cross-segment blindness motivates cheap long-range attention;
//! * [`pool`] — ESA/EASA-style pooled-KV attention, which *compresses* the
//!   key/value sequence to a budget `m ≪ n` instead of *selecting* a
//!   candidate subset per query: no hashing hardware, no per-query
//!   selection, a compute cost independent of the attention pattern.
//!
//! # One interface
//!
//! Every rival, and ELSA itself, implements [`Rival`]: `AttentionInputs` in,
//! output matrix plus [`SelectionStats`] out, and an analytic operation
//! count at the measured operating point. Comparisons therefore run one
//! loop over a `dyn Rival` list on **identical inputs** — the §V-E table
//! (`cmp_software_sparse`) and the long-context frontier
//! (`fig10_accuracy_vs_p`, `BENCH_longctx.json`) both do.
//!
//! The candidate rivals reuse the exact candidate-restricted kernel from
//! `elsa-attention`, so quality comparisons against ELSA are
//! apples-to-apples. Their operation counts share one account (see
//! [`cost`]): `2·d` per attended pair, the convention of
//! `elsa_attention::flops::ApproxAttentionOps`, plus the bucketing hashes
//! for LSH. ELSA is charged its full `ApproxAttentionOps` (key
//! preprocessing, query hashing, per-pair similarity, selected attention);
//! pooled-KV its [`cost::PooledAttentionOps`].
//!
//! # Pooled-KV semantics
//!
//! PyTorch-style adaptive pooling: output segment `j` of `m` covers input
//! rows `⌊j·n/m⌋ .. ⌊(j+1)·n/m⌋`, so the segments tile `[0, n)` exactly and
//! are non-empty whenever `m ≤ n`. Keys are reduced by [`PoolMode`]
//! (segment mean, or element-wise max — the sharpest feature per
//! coordinate, at worse score calibration). Values are **always** the
//! segment mean: a max-pooled value row approximates no convex combination
//! the exact softmax could produce, while the mean is the exact output in
//! the limit of uniform in-segment attention. Queries are untouched.
//!
//! Averages accumulate in `f64` and round once to `f32`, so a singleton
//! segment is an exact identity: **with `budget ≥ n`, pooled attention is
//! bitwise equal to exact attention**, for both key modes and at any
//! `ELSA_THREADS`. The budget therefore sweeps a genuine frontier from
//! exact down to 64 pooled rows, with bit-identical replay at every point.
//!
//! [`cost::PooledAttentionOps::count`] charges pooling (one streaming pass
//! over the `n·(d+d_v)` inputs plus the `m·(d+d_v)` pooled writes), dense
//! attention over the pooled rows ([`cost::dense_attention_ops`]), and the
//! compulsory K/V, pooled, query and output bytes.
//!
//! On the committed long-context zoo (§E-LONGCTX in `EXPERIMENTS.md`),
//! pooled-KV is the cheapest rival (3–16% of exact ops) but collapses
//! ranking fidelity — NDCG@10 ≈ 0, relative Frobenius error ≈ 1 — because
//! uniform pooling washes the planted relevant keys into their segment
//! means, while ELSA holds NDCG@10 = 1.0 at 27–36% of exact compute.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod cost;
pub mod local;
pub mod pool;
pub mod reformer;
pub mod segmented;

pub use local::LocalAttention;
pub use pool::{PoolMode, PooledKvAttention};
pub use reformer::{LshAttention, LshAttentionConfig};
pub use segmented::SegmentedAttention;

use elsa_attention::exact::{self, AttentionInputs};
use elsa_attention::flops::ApproxAttentionOps;
use elsa_core::attention::ElsaAttention;
use elsa_core::SelectionStats;
use elsa_linalg::Matrix;

/// One approximate attention operator under comparison.
///
/// # Examples
///
/// ```
/// use elsa_attention::AttentionInputs;
/// use elsa_linalg::{Matrix, SeededRng};
/// use elsa_sparse::{LocalAttention, PoolMode, PooledKvAttention, Rival, SegmentedAttention};
///
/// let mut rng = SeededRng::new(0);
/// let mut mk = || Matrix::from_fn(64, 16, |_, _| rng.standard_normal() as f32);
/// let inputs = AttentionInputs::new(mk(), mk(), mk());
/// let rivals: Vec<Box<dyn Rival>> = vec![
///     Box::new(LocalAttention::new(4, 1)),
///     Box::new(SegmentedAttention::new(16)),
///     Box::new(PooledKvAttention::new(8, PoolMode::Average)),
/// ];
/// for rival in &rivals {
///     let (out, stats) = rival.forward(&inputs);
///     assert_eq!(out.rows(), 64);
///     assert!(stats.selected_pairs <= stats.total_pairs);
///     assert!(rival.ops(&stats, 16) > 0);
/// }
/// ```
pub trait Rival {
    /// Runs the operator on one invocation: output rows plus the attended
    /// pair statistics (`total_pairs = n_q·n`).
    fn forward(&self, inputs: &AttentionInputs) -> (Matrix, SelectionStats);

    /// Analytic operation count of the invocation `stats` came from, at key
    /// dimension `d` (values of the same width).
    fn ops(&self, stats: &SelectionStats, d: usize) -> u64;
}

impl Rival for ElsaAttention {
    fn forward(&self, inputs: &AttentionInputs) -> (Matrix, SelectionStats) {
        ElsaAttention::forward(self, inputs)
    }

    /// The full [`ApproxAttentionOps`] account at the observed candidate
    /// load.
    fn ops(&self, stats: &SelectionStats, d: usize) -> u64 {
        ApproxAttentionOps::count_queries(
            stats.num_queries,
            stats.num_keys,
            d,
            stats.avg_candidates_per_query(),
        )
        .total()
    }
}

/// Unscaled exact attention restricted to a candidate selection.
fn attend(
    (candidates, stats): (Vec<Vec<usize>>, SelectionStats),
    inputs: &AttentionInputs,
) -> (Matrix, SelectionStats) {
    (exact::attention_with_candidates(inputs, &candidates, 1.0), stats)
}

/// Statistics of an invocation with no fallback path: `selected_pairs` out
/// of `num_queries · num_keys`.
fn selection_stats(num_queries: usize, num_keys: usize, selected_pairs: usize) -> SelectionStats {
    SelectionStats {
        total_pairs: num_queries * num_keys,
        selected_pairs,
        num_queries,
        num_keys,
        fallback_queries: 0,
    }
}
