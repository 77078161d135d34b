//! Operation counts for the rivals, in the decomposition style of
//! `elsa_attention::flops` (one multiply-accumulate = 2 FLOPs, one
//! exponential = 1 op), so every rival is charged on the same scale as ELSA.
//!
//! All counter math widens into `u128` and narrows back with saturation:
//! 64k-class long-context shapes must never wrap a `u64` mid-expression.

/// Widens a dimension counter into `u128` so chained products of 64k-class
/// lengths cannot overflow mid-expression.
const fn wide(x: usize) -> u128 {
    x as u128
}

/// Narrows a `u128` operation count back into the `u64` counter domain,
/// saturating instead of wrapping if a configuration ever exceeds it.
fn saturating_u64(x: u128) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

/// Dense rectangular attention of `n_queries` queries over `n` keys: scores
/// `2·n_q·n·d`, softmax `n_q·n`, weighted sum `2·n_q·n·d_v`.
///
/// With `n` the full key count this is the exact kernel (the 100% compute
/// reference of the long-context frontier); with `n` the pooled row count
/// it is the attention term of [`PooledAttentionOps`].
#[must_use]
pub fn dense_attention_ops(n_queries: usize, n: usize, d: usize, d_v: usize) -> u64 {
    let (nq, n128) = (wide(n_queries), wide(n));
    saturating_u64(2 * nq * n128 * wide(d) + nq * n128 + 2 * nq * n128 * wide(d_v))
}

/// Attention restricted to candidate sets: `2·d` per attended query–key
/// pair, the `ApproxAttentionOps::selected_attention_macs` convention.
#[must_use]
pub(crate) fn candidate_attention_ops(selected_pairs: usize, d: usize) -> u64 {
    saturating_u64(2 * wide(selected_pairs) * wide(d))
}

/// Sign-random-projection bucketing of `n_queries` queries and `n` keys:
/// `2·bits·d` per vector per hashing round.
#[must_use]
pub(crate) fn lsh_hash_ops(
    n_queries: usize,
    n: usize,
    bits: usize,
    d: usize,
    rounds: usize,
) -> u64 {
    saturating_u64(2 * (wide(n_queries) + wide(n)) * wide(bits) * wide(d) * wide(rounds))
}

/// Operation counts for one pooled-KV invocation: `n_q` queries over `n`
/// keys of dimension `d` (values of dimension `d_v`), pooled to
/// `m = min(budget, n)` rows.
///
/// # Examples
///
/// ```
/// use elsa_attention::flops::exact_attention_ops;
/// use elsa_sparse::cost::PooledAttentionOps;
///
/// let ops = PooledAttentionOps::count(16, 65536, 64, 64, 256);
/// // The dense attention term shrinks by the 256x compression ratio...
/// assert!(ops.attention_flops < exact_attention_ops(65536, 64));
/// // ...while pooling touches each input element exactly once.
/// assert_eq!(ops.pooling_flops, 65536 * 128 + 256 * 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PooledAttentionOps {
    /// Adaptive pooling: one accumulate per input K/V element
    /// (`n·(d + d_v)`) plus one divide per pooled element (`m·(d + d_v)`).
    pub pooling_flops: u64,
    /// Dense attention over the pooled sequence:
    /// [`dense_attention_ops`]`(n_q, m, d, d_v)`.
    pub attention_flops: u64,
    /// Compulsory HBM traffic in `f32` bytes: stream K/V once to pool,
    /// read Q and the pooled K/V for attention, write the output.
    pub bytes: u64,
    /// Pooled rows actually attended over.
    pub pooled: u64,
}

impl PooledAttentionOps {
    /// Counts operations for an `n_q × n` invocation pooled to
    /// `min(budget, n)` rows.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    #[must_use]
    pub fn count(n_queries: usize, n: usize, d: usize, d_v: usize, budget: usize) -> Self {
        assert!(budget > 0, "pooling budget must be positive");
        let m = budget.min(n);
        let (nq, n128, m128) = (wide(n_queries), wide(n), wide(m));
        let kv_width: u128 = wide(d) + wide(d_v);
        let pooling_flops = saturating_u64(n128 * kv_width + m128 * kv_width);
        let attention_flops = dense_attention_ops(n_queries, m, d, d_v);
        // Bytes: stream K/V for pooling, write + re-read pooled K/V, read Q,
        // write the output.
        let bytes =
            saturating_u64(4 * (n128 * kv_width + m128 * kv_width + nq * wide(d) + nq * wide(d_v)));
        Self {
            pooling_flops,
            attention_flops,
            bytes,
            pooled: saturating_u64(m128),
        }
    }

    /// Total arithmetic operations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.pooling_flops.saturating_add(self.attention_flops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsa_attention::flops::exact_attention_ops;

    #[test]
    fn dense_rectangle_formula() {
        let ops = dense_attention_ops(16, 8192, 64, 64);
        assert_eq!(ops, 2 * 16 * 8192 * 64 + 16 * 8192 + 2 * 16 * 8192 * 64);
        // Square and `d_v = d`: the exact kernel plus its `2·n²·d` output sum.
        let square = dense_attention_ops(128, 128, 64, 64);
        assert_eq!(square, exact_attention_ops(128, 64) + 2 * 128 * 128 * 64);
    }

    #[test]
    fn cost_fits_u64_at_64k() {
        let ops = PooledAttentionOps::count(65536, 65536, 64, 64, 1024);
        // Leading term is 4·n_q·m·d ≈ 1.7e13 — far from u64 overflow, and
        // far below the exact kernel's 5.5e11-per-row quadratic blowup.
        assert!(ops.total() < u64::MAX / 1024);
        assert!(ops.total() < exact_attention_ops(65536, 64));
        assert_eq!(ops.pooled, 1024);
    }

    #[test]
    fn budget_monotonicity() {
        let tight = PooledAttentionOps::count(16, 16384, 64, 64, 64);
        let loose = PooledAttentionOps::count(16, 16384, 64, 64, 1024);
        assert!(tight.total() < loose.total());
        assert!(tight.bytes < loose.bytes);
    }

    #[test]
    fn candidate_accounts() {
        assert_eq!(candidate_attention_ops(17 * 128, 64), 2 * 17 * 128 * 64);
        assert_eq!(lsh_hash_ops(512, 512, 4, 64, 2), 2 * 1024 * 4 * 64 * 2);
        // Saturates instead of wrapping.
        assert_eq!(candidate_attention_ops(usize::MAX, 4), u64::MAX);
    }
}
