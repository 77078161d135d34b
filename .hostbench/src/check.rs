//! Output digests. A digest folds the exact bits of an output, so two runs
//! agree on it only if every value is bit-identical.

use elsa_linalg::Matrix;
use elsa_sim::RunReport;

/// 64-bit FNV-1a.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub const fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.u64(x.to_bits())
    }

    pub fn matrix(&mut self, m: &Matrix) -> &mut Self {
        self.u64(m.rows() as u64).u64(m.cols() as u64);
        for &v in m.as_slice() {
            self.u64(u64::from(v.to_bits()));
        }
        self
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of everything one accelerator run produced: the output bits, the
/// selection statistics, the cycle report and the energy.
pub fn run_digest(run: &RunReport) -> u64 {
    let mut d = Digest::new();
    d.matrix(&run.output);
    let s = &run.stats;
    for x in [
        s.total_pairs,
        s.selected_pairs,
        s.num_queries,
        s.num_keys,
        s.fallback_queries,
    ] {
        d.u64(x as u64);
    }
    let c = &run.cycles;
    d.u64(c.preprocessing).u64(c.execution).u64(c.drain);
    for b in c.bottleneck_counts {
        d.u64(b);
    }
    d.f64(run.energy.total_j());
    d.finish()
}

/// One digest over a sequence of digests, in order.
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut d = Digest::new();
    for x in digests {
        d.u64(x);
    }
    d.finish()
}

/// Whether every output value is finite.
pub fn all_finite(m: &Matrix) -> bool {
    m.as_slice().iter().all(|v| v.is_finite())
}

pub fn hex(x: u64) -> String {
    format!("{x:016x}")
}
