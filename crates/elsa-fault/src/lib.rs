//! Deterministic fault decisions for the ELSA accelerator pool.
//!
//! The paper's deployment (§IV-D) is a set of twelve replicated ELSA
//! accelerators serving variable-length attention traffic. Replicated pools
//! at production scale mean dead units, transient job errors, stragglers,
//! and — because the datapath trades the exact softmax for LUT
//! approximations — numerically corrupted results (NaN/∞/saturated values)
//! that must be detected and contained rather than silently served. This
//! crate decides *where* each of those faults strikes, deterministically, so
//! chaos tests are replayable bit-for-bit; the serving engine in
//! `elsa-serve` acts on the decisions:
//!
//! * [`FaultPlan`] / [`FaultRates`] — a seeded plan mapping every fault
//!   site (`unit`, `request`, `attempt`) to a decision via the
//!   `elsa-testkit` PRNG. Decisions are pure functions of the site labels,
//!   never of evaluation order, so results are identical at any
//!   `ELSA_THREADS`, and a failure replays exactly from the plan's seed.
//!   [`FaultPlan::corrupts`] marks a result corrupted; the engine treats it
//!   like a numeric-guard trip and degrades the request to exact attention.
//! * [`HealthTracker`] — quarantines units after repeated faults so a
//!   dispatcher can rebalance over the survivors; [`HealthSnapshot`] is
//!   its read-only view for outside observers (routers, reports).
//! * [`NodeFaultPlan`] / [`NodeFaultRates`] — the same seeded-plan
//!   contract at *node* granularity for the cluster layer: whole-node
//!   death (stochastic or forced prefix kills for monotone-loss sweeps),
//!   uniformly slow nodes, and flapping. One fleet seed forks into
//!   per-node unit plans via [`FaultPlan::fork`] without correlating
//!   faults across nodes.
//!
//! The serial kernels are untouched: faults pre-empt or post-process a run,
//! never alter the computation inside it.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod health;
pub mod node;
pub mod plan;

pub use health::{HealthSnapshot, HealthTracker};
pub use node::{NodeFaultPlan, NodeFaultRates};
pub use plan::{FaultPlan, FaultRates};
