//! Fused and log-domain functional units for the FlashAttention-class
//! streaming baseline (`elsa-baselines::FlashModel`).
//!
//! Two datapath ideas from the post-ELSA accelerator literature (see
//! `PAPERS.md`):
//!
//! * **Fused exponential-multiply** (*Low-Cost FlashAttention*): the
//!   streaming softmax never needs `e^x` on its own — every exponential is
//!   immediately multiplied by a value operand (`e^{s−m} · v`) or by a
//!   running accumulator (the `e^{m_old − m_new}` rescale). Fusing the LUT
//!   exponent stage of [`crate::ExpUnit`] with that multiply removes the
//!   intermediate rounding: one table lookup, one multiplier, **one** output
//!   rounding instead of two.
//! * **Log-domain accumulation** (*H-FA*): keeping the running sum of
//!   exponentials as `log2 Σe^{s_i}` turns every accumulate into a `max`
//!   plus a small correction lookup `log2(1 + 2^{−d})`, and the final
//!   softmax division into a subtraction — no adder tree, no divider.
//!
//! Both units follow the `lut.rs` discipline: segment-midpoint tables and a
//! `worst_case_*_error()` constant derived from the segment geometry, which
//! `tests/fused_properties.rs` verifies against an `f64` reference.

use crate::cfloat::CustomFloat;
use crate::lut::LUT_ENTRIES;

/// The fused exponential-multiply unit: computes `e^x · y` with a single
/// output rounding.
///
/// The exponent stage is identical to [`crate::ExpUnit`] — `(log2 e)·x` is
/// split into integer and fractional parts, and the fraction indexes the
/// same 32-entry midpoint table of `2^((i+0.5)/32)`. Instead of rounding
/// that result into the custom format and multiplying later, the raw
/// mantissa feeds the multiplier directly and only the *product* is rounded.
///
/// # Examples
///
/// ```
/// use elsa_numeric::{ExpMultUnit, ExpUnit};
/// let unit = ExpMultUnit::new();
/// let y = unit.exp_mult(1.0, 3.0).to_f64();
/// let exact = std::f64::consts::E * 3.0;
/// assert!(((y - exact) / exact).abs() < ExpMultUnit::worst_case_relative_error());
/// // Strictly tighter than the unfused exp-then-multiply bound:
/// assert!(ExpMultUnit::worst_case_relative_error() < ExpUnit::worst_case_relative_error()
///     + elsa_numeric::CustomFloat::epsilon() * 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct ExpMultUnit {
    table: [f64; LUT_ENTRIES],
}

impl ExpMultUnit {
    /// Builds the unit, populating the shared 32-entry fractional-power
    /// table (`2^((i + 0.5)/32)`, segment midpoints).
    #[must_use]
    pub fn new() -> Self {
        let mut table = [0.0; LUT_ENTRIES];
        for (i, slot) in table.iter_mut().enumerate() {
            *slot = f64::powf(2.0, (i as f64 + 0.5) / LUT_ENTRIES as f64);
        }
        Self { table }
    }

    /// Computes `e^x · y` in the custom floating-point output format.
    ///
    /// The exponent's integer part merges into the product's exponent field
    /// (exact, as in [`crate::ExpUnit::exp`]); the table mantissa and `y`
    /// meet in one multiplier and the product is rounded once.
    #[must_use]
    pub fn exp_mult(&self, x: f64, y: f64) -> CustomFloat {
        let t = std::f64::consts::LOG2_E * x;
        let floor = t.floor();
        let frac = t - floor;
        let idx = ((frac * LUT_ENTRIES as f64) as usize).min(LUT_ENTRIES - 1);
        let mantissa = self.table[idx];
        CustomFloat::from_f64(mantissa * f64::powi(2.0, floor as i32) * y)
    }

    /// Worst-case relative error: half a table segment in log2 space plus
    /// **one** output rounding. The unfused pipeline pays the same segment
    /// error plus *two* roundings (`exp` output, then product output), so
    /// fusion tightens the bound by exactly one [`CustomFloat::epsilon`].
    #[must_use]
    pub fn worst_case_relative_error() -> f64 {
        let seg = f64::powf(2.0, 0.5 / LUT_ENTRIES as f64) - 1.0;
        seg + CustomFloat::epsilon()
    }
}

impl Default for ExpMultUnit {
    fn default() -> Self {
        Self::new()
    }
}

/// Span of the log-domain correction table: differences `d = |a − b|` are
/// corrected over `[0, 16)`; beyond that `log2(1 + 2^{−d}) < 2.2·10^{−5}`
/// and the unit returns `max(a, b)` unchanged.
pub const LOG_ADD_SPAN: f64 = 16.0;

/// Entries in the log-domain correction table.
pub const LOG_ADD_ENTRIES: usize = 128;

/// The log-domain adder: computes `log2(2^a + 2^b)` as
/// `max(a, b) + log2(1 + 2^{−|a−b|})`, with the correction term a 128-entry
/// segment-midpoint table over `|a − b| ∈ [0, 16)`.
///
/// This is the H-FA accumulator: a streaming softmax that keeps
/// `L = log2 Σ e^{s_i}` needs one `max`, one subtract and one lookup per
/// key — no adder tree — and normalizes by *subtracting* `L` instead of
/// dividing by `Σ e^{s_i}`.
///
/// # Examples
///
/// ```
/// use elsa_numeric::LogDomainAdder;
/// let unit = LogDomainAdder::new();
/// // log2(2^3 + 2^3) = 4 exactly; d = 0 sits in the first table segment.
/// assert!((unit.add(3.0, 3.0) - 4.0).abs() < LogDomainAdder::worst_case_log2_error());
/// // Far-apart operands: the small term vanishes below the table span.
/// assert_eq!(unit.add(0.0, -40.0), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct LogDomainAdder {
    /// `log2(1 + 2^{−d})` at the midpoint of each of the 128 segments.
    table: [f64; LOG_ADD_ENTRIES],
}

impl LogDomainAdder {
    /// Builds the correction table at segment midpoints.
    #[must_use]
    pub fn new() -> Self {
        let mut table = [0.0; LOG_ADD_ENTRIES];
        let seg = LOG_ADD_SPAN / LOG_ADD_ENTRIES as f64;
        for (i, slot) in table.iter_mut().enumerate() {
            let mid = (i as f64 + 0.5) * seg;
            *slot = (1.0 + f64::powf(2.0, -mid)).log2();
        }
        Self { table }
    }

    /// Computes `log2(2^a + 2^b)`.
    ///
    /// `NEG_INFINITY` is the log-domain zero and is absorbed exactly:
    /// `add(a, −∞) = a`.
    #[must_use]
    pub fn add(&self, a: f64, b: f64) -> f64 {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        if lo == f64::NEG_INFINITY {
            return hi;
        }
        let d = hi - lo;
        if d >= LOG_ADD_SPAN {
            return hi;
        }
        let seg = LOG_ADD_SPAN / LOG_ADD_ENTRIES as f64;
        let idx = ((d / seg) as usize).min(LOG_ADD_ENTRIES - 1);
        hi + self.table[idx]
    }

    /// Folds a slice of log-domain values into `log2 Σ 2^{v_i}`, in index
    /// order (the order the streaming kernel visits keys). Returns
    /// `NEG_INFINITY` for an empty slice (the log-domain zero).
    #[must_use]
    pub fn sum(&self, values: &[f64]) -> f64 {
        values.iter().fold(f64::NEG_INFINITY, |acc, &v| self.add(acc, v))
    }

    /// Worst-case absolute error of a single `add`, in the log2 domain.
    ///
    /// The correction `f(d) = log2(1 + 2^{−d})` has `|f′(d)| ≤ 1/2` (at
    /// `d = 0`), so midpoint storage over segments of width `16/128` bounds
    /// the interpolation error by `(16/128)/2 · 1/2 = 2^{−5}`; truncating
    /// the table at `d = 16` adds at most `log2(1 + 2^{−16})`. Total
    /// ≈ `0.03127` — a linear-domain relative error of `2^{0.03127} − 1`
    /// ≈ 2.2% per add
    /// ([`worst_case_relative_error`](Self::worst_case_relative_error)).
    #[must_use]
    pub fn worst_case_log2_error() -> f64 {
        let seg = LOG_ADD_SPAN / LOG_ADD_ENTRIES as f64;
        seg / 2.0 * 0.5 + (1.0 + f64::powf(2.0, -LOG_ADD_SPAN)).log2()
    }

    /// Worst-case *linear-domain* relative error after `n_adds` chained
    /// additions: log2 errors accumulate additively, so the linear bound is
    /// `2^(n · e_log) − 1`.
    #[must_use]
    pub fn worst_case_relative_error(n_adds: usize) -> f64 {
        f64::powf(2.0, n_adds as f64 * Self::worst_case_log2_error()) - 1.0
    }
}

impl Default for LogDomainAdder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_mult_tracks_reference() {
        let unit = ExpMultUnit::new();
        let bound = ExpMultUnit::worst_case_relative_error();
        for i in -20..=20 {
            let x = f64::from(i) * 0.61;
            for &y in &[0.125, 1.0, 3.7, 250.0] {
                let approx = unit.exp_mult(x, y).to_f64();
                let exact = x.exp() * y;
                let rel = ((approx - exact) / exact).abs();
                assert!(rel < bound + 0.02, "exp_mult({x}, {y}): rel err {rel}");
            }
        }
    }

    #[test]
    fn exp_mult_with_unit_y_matches_exp_unit() {
        // y = 1 reduces the fused unit to the plain exponent unit modulo the
        // single rounding; both share the same table, so the mantissa path
        // is identical.
        let fused = ExpMultUnit::new();
        let plain = crate::lut::ExpUnit::new();
        for i in -10..=10 {
            let x = f64::from(i) * 0.9;
            assert_eq!(fused.exp_mult(x, 1.0).to_bits(), plain.exp(x).to_bits());
        }
    }

    #[test]
    fn exp_mult_preserves_sign_of_y() {
        let unit = ExpMultUnit::new();
        assert!(unit.exp_mult(0.5, -2.0).to_f64() < 0.0);
        assert_eq!(unit.exp_mult(0.5, 0.0).to_f64(), 0.0);
    }

    #[test]
    fn log_add_is_commutative_and_tracks_reference() {
        let unit = LogDomainAdder::new();
        let bound = LogDomainAdder::worst_case_log2_error();
        for &(a, b) in &[(0.0, 0.0), (3.0, 1.0), (-2.5, 4.0), (10.0, 9.9), (0.0, -15.9)] {
            let got = unit.add(a, b);
            let exact = (f64::powf(2.0, a) + f64::powf(2.0, b)).log2();
            assert!((got - exact).abs() <= bound, "add({a},{b}): {got} vs {exact}");
            assert_eq!(got.to_bits(), unit.add(b, a).to_bits());
        }
    }

    #[test]
    fn log_add_absorbs_neg_infinity_exactly() {
        let unit = LogDomainAdder::new();
        assert_eq!(unit.add(2.5, f64::NEG_INFINITY), 2.5);
        assert_eq!(unit.add(f64::NEG_INFINITY, f64::NEG_INFINITY), f64::NEG_INFINITY);
        assert_eq!(unit.sum(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn log_sum_bound_scales_with_length() {
        let unit = LogDomainAdder::new();
        let values: Vec<f64> = (0..64).map(|i| f64::from(i) * 0.05).collect();
        let got = unit.sum(&values);
        let exact = values.iter().map(|&v| f64::powf(2.0, v)).sum::<f64>().log2();
        let bound = 64.0 * LogDomainAdder::worst_case_log2_error();
        assert!((got - exact).abs() <= bound, "{got} vs {exact}");
    }
}
