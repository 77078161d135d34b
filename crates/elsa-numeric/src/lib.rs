//! Number formats and special functional units of the ELSA accelerator datapath.
//!
//! The ELSA paper (§IV-E, *Design Details*) specifies a heavily quantized datapath:
//!
//! * key / query / value matrix elements: fixed point, **1 sign + 5 integer + 3
//!   fraction bits** ([`QkvFixed`]);
//! * elements of the pre-defined Kronecker hash matrices: fixed point, **1 sign +
//!   5 fraction bits** ([`HashFixed`]);
//! * intermediate values: the *minimal necessary integer bitwidth to avoid
//!   overflow while maintaining the number of fraction bits* (modelled by
//!   [`Fixed`]'s wide internal representation plus [`Fixed::requantize`]);
//! * outputs of the exponent function and everything downstream of it: a custom
//!   floating-point format with **1 sign + 10 exponent + 5 fraction bits**
//!   ([`CustomFloat`]).
//!
//! The special functional units of §IV-E are modelled bit-accurately where the
//! paper gives enough detail:
//!
//! * [`ExpUnit`] — `e^x = 2^frac((log2 e)·x) · 2^floor((log2 e)·x)` with a
//!   32-entry lookup table for the fractional power of two;
//! * [`ReciprocalUnit`] — a 32-entry lookup table over the 5 mantissa bits;
//! * [`SqrtUnit`] — the *tabulate and multiply* scheme (Takagi; Istoan & Pasca)
//!   using a table lookup followed by an operand-modified multiplication;
//! * [`CosLut`] — the `k+1`-entry `cos(π/k·h − θ_bias)` table used by the
//!   candidate selection modules (§IV-C).
//!
//! The [`fused`] module adds the functional units of the FlashAttention-class
//! streaming competitor (`elsa-baselines::FlashModel`): [`ExpMultUnit`], a
//! fused exponential-multiply with a single output rounding, and
//! [`LogDomainAdder`], the H-FA log-domain accumulator.
//!
//! Everything in this crate is deterministic and allocation-free (after unit
//! construction) so that the cycle-level simulator in `elsa-sim` can call it in
//! its inner loop.
//!
//! # Examples
//!
//! ```
//! use elsa_numeric::{QkvFixed, ExpUnit};
//!
//! // Quantize an activation the way the ELSA datapath would.
//! let x = QkvFixed::from_f32(3.17f32);
//! assert!((x.to_f32() - 3.125).abs() < 1e-6); // 3 fraction bits => 1/8 steps
//!
//! // Exponentiate an attention score through the LUT-based unit.
//! let unit = ExpUnit::new();
//! let e = unit.exp(2.0);
//! assert!((e.to_f32() - 7.389).abs() / 7.389 < 0.05);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod adder_tree;
pub mod cfloat;
pub mod fixed;
pub mod fused;
pub mod lut;

pub use adder_tree::AdderTree;
pub use cfloat::CustomFloat;
pub use fixed::{Fixed, FixedSpec, HashFixed, QkvFixed};
pub use fused::{ExpMultUnit, LogDomainAdder};
pub use lut::{CosLut, ExpUnit, ReciprocalUnit, SqrtUnit};
