//! Equivalence battery for the deterministic parallel execution layer.
//!
//! Every property compares a computation pinned to one worker thread against
//! the same computation at 2, 4, or 8 workers and requires **bit-for-bit**
//! equality (`f32::to_bits`, never an epsilon): `elsa-parallel` promises that
//! worker count is unobservable in results, and these tests are that promise.
//!
//! Shapes are drawn large enough that a slice of each run genuinely crosses
//! `elsa_parallel::MIN_PARALLEL_WORK` and takes the fan-out path (the gate
//! only affects scheduling, so sub-threshold cases are still valid checks).
//!
//! Reproduce any failure with the reported seed:
//! `ELSA_TESTKIT_SEED=0x... cargo test --test parallel_equivalence`.

use elsa::attention::exact::{self, AttentionInputs};
use elsa::attention::MultiHeadAttention;
use elsa::algorithm::attention::{ElsaAttention, ElsaParams};
use elsa::algorithm::SrpHasher;
use elsa::linalg::{Matrix, SeededRng};
use elsa::parallel::with_threads;
use elsa::sparse::{
    LocalAttention, LshAttention, LshAttentionConfig, PoolMode, PooledKvAttention, Rival,
    SegmentedAttention,
};
use elsa_testkit::prelude::*;

/// The worker counts the battery sweeps: serial plus three parallel widths.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn random_matrix(rows: usize, cols: usize, rng: &mut SeededRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.standard_normal() as f32)
}

/// Exact bit pattern of a matrix — the only equality these tests accept.
fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

props! {
    config: Config::with_cases(24);

    fn matmul_bits_equal_across_worker_counts(
        m in ints(24, 72),
        k in ints(24, 72),
        n in ints(24, 72),
        widx in ints(0, 4),
    ) {
        let mut rng = SeededRng::new((m * 1_000_000 + k * 1_000 + n) as u64);
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        let serial = with_threads(1, || a.matmul(&b));
        let parallel = with_threads(WORKER_COUNTS[widx], || a.matmul(&b));
        prop_assert_eq!(bits(&serial), bits(&parallel));
    }

    fn matmul_transpose_b_bits_equal_across_worker_counts(
        m in ints(24, 72),
        k in ints(24, 72),
        n in ints(24, 72),
        widx in ints(0, 4),
    ) {
        let mut rng = SeededRng::new((n * 1_000_000 + m * 1_000 + k) as u64);
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(n, k, &mut rng);
        let serial = with_threads(1, || a.matmul_transpose_b(&b));
        let parallel = with_threads(WORKER_COUNTS[widx], || a.matmul_transpose_b(&b));
        prop_assert_eq!(bits(&serial), bits(&parallel));
    }

    fn exact_attention_bits_equal_across_worker_counts(
        n in ints(48, 96),
        d in ints(16, 48),
        widx in ints(0, 4),
    ) {
        let mut rng = SeededRng::new((n * 10_000 + d) as u64);
        let inputs = AttentionInputs::new(
            random_matrix(n, d, &mut rng),
            random_matrix(n, d, &mut rng),
            random_matrix(n, d, &mut rng),
        );
        let serial = with_threads(1, || exact::scaled_attention(&inputs));
        let parallel = with_threads(WORKER_COUNTS[widx], || exact::scaled_attention(&inputs));
        prop_assert_eq!(bits(&serial), bits(&parallel));
    }

    fn multihead_forward_bits_equal_across_worker_counts(
        n in ints(24, 64),
        heads in ints(2, 5),
        widx in ints(0, 4),
    ) {
        let d_head = 16;
        let d_model = heads * d_head;
        let mut rng = SeededRng::new((n * 100 + heads) as u64);
        let mha = MultiHeadAttention::random(d_model, heads, d_head, &mut rng);
        let x = random_matrix(n, d_model, &mut rng);
        let serial = with_threads(1, || mha.forward(&x));
        let parallel = with_threads(WORKER_COUNTS[widx], || mha.forward(&x));
        prop_assert_eq!(bits(&serial), bits(&parallel));
        // The stateful-kernel path must agree with the parallel path too.
        let stateful = with_threads(WORKER_COUNTS[widx], || {
            mha.forward_with(&x, exact::scaled_attention)
        });
        prop_assert_eq!(bits(&serial), bits(&stateful));
    }

    fn hash_signatures_equal_across_worker_counts(
        rows in ints(16, 80),
        widx in ints(0, 4),
    ) {
        let mut rng = SeededRng::new(rows as u64);
        // Dense 64x64: 4096 multiplies per row, so 16+ rows cross the
        // parallel-work threshold.
        let hasher = SrpHasher::dense(64, 64, &mut rng);
        let m = random_matrix(rows, 64, &mut rng);
        let serial = with_threads(1, || hasher.hash_rows(&m));
        let parallel = with_threads(WORKER_COUNTS[widx], || hasher.hash_rows(&m));
        prop_assert_eq!(serial, parallel);
    }

    fn elsa_forward_bits_and_stats_equal_across_worker_counts(
        n in ints(48, 96),
        widx in ints(0, 4),
    ) {
        let mut rng = SeededRng::new(n as u64);
        let inputs = AttentionInputs::new(
            random_matrix(n, 64, &mut rng),
            random_matrix(n, 64, &mut rng),
            random_matrix(n, 64, &mut rng),
        );
        let mut prng = SeededRng::new(n as u64 + 1);
        let elsa = ElsaAttention::with_threshold(ElsaParams::for_dims(64, 64, &mut prng), 0.3);
        let (serial_out, serial_stats) = with_threads(1, || elsa.forward(&inputs));
        let (par_out, par_stats) =
            with_threads(WORKER_COUNTS[widx], || elsa.forward(&inputs));
        prop_assert_eq!(bits(&serial_out), bits(&par_out));
        prop_assert_eq!(serial_stats, par_stats);
    }
}

/// Every rival replays bit-identically at every worker count. At
/// `n = n_q = 256`, `d = 64` and 4 bucket bits, LSH hashes
/// `(n + n_q)·bits·d = 131,072` multiplies per round, twice
/// `MIN_PARALLEL_WORK`, so its bucketing takes the fan-out path.
#[test]
fn every_rival_replays_bit_identically_across_worker_counts() {
    let (n, d) = (256, 64);
    let mut rng = SeededRng::new(0x0512_A15);
    let inputs = AttentionInputs::new(
        random_matrix(n, d, &mut rng),
        random_matrix(n, d, &mut rng),
        random_matrix(n, d, &mut rng),
    );
    let elsa = ElsaAttention::with_threshold(ElsaParams::for_dims(d, d, &mut rng), 0.3);
    let lsh = LshAttention::new(d, LshAttentionConfig { bucket_bits: 4, rounds: 2 }, &mut rng);
    let rivals: [(&str, &dyn Rival); 6] = [
        ("elsa", &elsa),
        ("lsh", &lsh),
        ("local", &LocalAttention::new(16, 2)),
        ("segmented", &SegmentedAttention::new(64)),
        ("pooled-avg", &PooledKvAttention::new(32, PoolMode::Average)),
        ("pooled-max", &PooledKvAttention::new(32, PoolMode::Max)),
    ];
    for (name, rival) in rivals {
        let (serial_out, serial_stats) = with_threads(1, || rival.forward(&inputs));
        assert_eq!(serial_stats.num_queries, n, "{name}");
        assert_eq!(serial_stats.num_keys, n, "{name}");
        assert_eq!(serial_stats.total_pairs, n * n, "{name}");
        assert!(serial_stats.selected_pairs <= serial_stats.total_pairs, "{name}");
        for workers in WORKER_COUNTS {
            let (out, stats) = with_threads(workers, || rival.forward(&inputs));
            assert_eq!(bits(&serial_out), bits(&out), "{name} threads={workers}");
            assert_eq!(serial_stats, stats, "{name} threads={workers}");
        }
    }
}
