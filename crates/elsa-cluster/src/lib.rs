//! Fault-tolerant cluster serving for the ELSA accelerator fleet.
//!
//! One [`NodeEngine`](elsa_serve::NodeEngine) is a serving node; this crate
//! puts N of them behind a deterministic front-end and makes the fleet
//! survive what production fleets actually face — whole-node death,
//! stragglers, flapping, and load imbalance — without giving up a single
//! bit of replay determinism:
//!
//! * [`router`] — three routing policies (consistent-hash session
//!   affinity, least-loaded, power-of-two-choices) as pure seeded
//!   functions of the eligible set and the load signal;
//! * [`cluster`] — the serial fleet event loop: node-scoped fault plans
//!   ([`elsa_fault::NodeFaultPlan`]) decide death/slowness/flapping,
//!   refused dispatches quarantine nodes (probation, not death), seeded
//!   health probes reinstate them, evacuated queues re-route with bounded
//!   exponential backoff, deadline-tight requests hedge onto the policy's
//!   next-best node, and consistent hashing carries each session's decode
//!   cache affinity so failover pays the honest rebuild cost;
//! * [`autoscale`] — queue-delay-percentile watermark autoscaling over the
//!   provisioned node pool, with graceful drain;
//! * [`report`] — exact per-request accounting (`offered = served + shed +
//!   timed-out + failed`, every request exactly once even under hedging
//!   and node loss) plus per-node and router-level views and the SLO
//!   attainment timeline the recovery experiments plot.
//!
//! The fleet replays any [`SessionTrace`](elsa_serve::SessionTrace); the
//! weighted traffic mix a front-end sees comes from
//! [`SessionTrace::generate_mixed`](elsa_serve::SessionTrace::generate_mixed).
//!
//! Determinism contract (audited by `tests/cluster_fault_tolerance.rs`):
//! for a fixed trace, policy, and seeds the report is bit-identical at any
//! `ELSA_THREADS`, and a one-node zero-fault fleet is bit-identical to the
//! single-node [`OnlineServer`](elsa_serve::OnlineServer).

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod autoscale;
pub mod cluster;
pub mod report;
pub mod router;

pub use autoscale::{AutoscaleConfig, ScaleEvent};
pub use cluster::{Cluster, ClusterConfig};
pub use report::{ClusterRecord, ClusterReport, NodeReport, RouterStats};
pub use router::{HedgeConfig, RoutePolicy, Router};
