//! Online serving for the ELSA accelerator pool.
//!
//! The offline `InferenceServer` in `elsa-runtime` answers "how fast does a
//! batch that is already here finish?". Production serving asks harder questions: how
//! long do requests *queue* at a given offered load, when should a batcher
//! stop waiting, and what do you drop when demand outruns the pool? This
//! crate answers them with a fully deterministic online pipeline:
//!
//! * [`clock`] — a virtual clock in integer nanoseconds; no wall-clock
//!   reads anywhere, so every run replays bit-for-bit on any host at any
//!   `ELSA_THREADS`.
//! * [`arrival`] — seeded open-loop Poisson arrival traces over the
//!   evaluation workloads, with optional burst phases. Shapes and timings
//!   are independent PRNG streams, so one seed sweeps cleanly across λ.
//! * [`queue`] — a bounded, length-bucketed admission queue with three
//!   backpressure policies (block, tail drop, head drop).
//! * [`batcher`] — length-bucketed dynamic batching. ELSA pays real
//!   lengths ([`BatcherMode::Bucketed`]); the [`BatcherMode::Padded`]
//!   emulation charges GPU-style pad-to-batch-max cost, so the padding
//!   waste the paper's architecture avoids is a measured number.
//! * [`estimator`] — closed-form service-time estimates (the paper's
//!   per-query cycle bound) for capacity planning and λ sweeps.
//! * [`skew`] — analytic bucketed-vs-padded replay of a length sequence
//!   through the estimator, for extreme long-context skew (66-vs-64k)
//!   where running the padded engine is infeasible.
//! * [`engine`] — the node-embeddable [`NodeEngine`]: the extracted
//!   serial event loop (admission, batching, failover dispatch) behind a
//!   public API, so a fleet layer can embed one engine per node and drive
//!   admissions itself — with evacuation, backlog, session-cache-loss,
//!   and slow-node hooks for routing and failover.
//! * [`dispatch`] — the [`OnlineServer`] front-end: SLO-aware dispatch
//!   onto the accelerator pool through the engine's failover loop (the
//!   only one in the workspace), emitting one [`OnlineRecord`] per arrival
//!   and a [`ServeReport`] with queue-delay percentiles, SLO attainment,
//!   shed/timeout accounting, and per-bucket occupancy. Its
//!   [`OnlineServer::serve_batch`] serves a batch that is already here —
//!   every request at t = 0 — and returns the served outputs too.
//! * [`session`] — multi-turn decode serving: replayable [`SessionTrace`]s
//!   over one workload or a weighted fleet mix (each arrival is the next
//!   turn of a live session, with session affinity in the batcher), plus
//!   the bounded decode cache — a [`SessionRegistry`] accounting every
//!   session's incremental KV/hash state against a capacity budget with
//!   deterministic LRU or SLO-aware eviction. A cache hit is charged only
//!   the appended tokens' preprocessing; an evicted session pays the full
//!   from-scratch rebuild on its next turn.
//!
//! Degenerate configurations collapse onto the offline baselines: an
//! unbounded queue, batch size 1, and a simultaneous trace reproduce
//! [`elsa_runtime::InferenceServer::serve`] bit-for-bit (enforced by
//! `tests/online_serving.rs`).

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod arrival;
pub mod batcher;
pub mod clock;
pub mod dispatch;
pub mod engine;
pub mod estimator;
pub mod queue;
pub mod session;
pub mod skew;

pub use arrival::{ArrivalConfig, ArrivalRequest, ArrivalTrace, Burst};
pub use batcher::{BatchPolicy, BatcherMode, BucketStats};
pub use clock::VirtualClock;
pub use dispatch::{
    OnlineRecord, OnlineServer, Outcome, ServeConfig, ServeReport, ServedBatch, SessionReport,
};
pub use engine::{
    check_trace_order, plan_health, prepare_turns, session_admissions, NodeEngine, NodeParts,
    PreparedRequest, SessionBook,
};
pub use estimator::ServiceEstimator;
pub use queue::{AdmissionQueue, Backpressure, QueuedRequest};
pub use session::{
    CacheConfig, CacheStats, EvictionPolicy, SessionArrivalConfig, SessionRegistry, SessionTrace,
    SessionTurnRequest,
};
pub use skew::{compare_batching, SkewComparison, SkewOutcome};
