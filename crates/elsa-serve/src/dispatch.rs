//! The serving event loop: admission → batching → SLO-aware dispatch.
//!
//! [`OnlineServer::serve`] replays an [`ArrivalTrace`] through the full
//! online pipeline on the virtual clock:
//!
//! 1. **Precompute** (the only parallel stage): every request's approximate
//!    pipeline runs once and is reduced to a service profile (no inputs
//!    kept), fanned out over worker threads in arrival order exactly like
//!    the offline `InferenceServer`, so the report is bit-identical at any
//!    `ELSA_THREADS`.
//! 2. **Admission**: arrivals enter the bounded
//!    [`AdmissionQueue`](crate::AdmissionQueue); a full queue triggers the
//!    configured [`Backpressure`] policy.
//! 3. **Batching**: a length bucket dispatches when it holds
//!    `max_batch` requests or its oldest waiter has queued `max_wait_ns`.
//! 4. **Dispatch**: each batch member routes to the accelerator unit that
//!    frees first, through the one failover loop of [`NodeEngine`] —
//!    transient retries, straggler slowdowns, quarantine with probation,
//!    corruption degrading to exact attention — plus two online-only
//!    outcomes: a request whose deadline passed while it queued is **timed
//!    out**, and (optionally) a request whose estimated completion would
//!    overshoot its deadline is **shed** before it wastes accelerator time.
//!
//! Every arrival produces exactly one [`OnlineRecord`], so
//! `offered = served + shed + timed-out + failed` holds by construction
//! (and is asserted). A trace out of arrival order is rejected as
//! [`RuntimeError::UnorderedTrace`].
//!
//! [`OnlineServer::serve_sessions`] replays a multi-turn [`SessionTrace`]
//! through the *same* engine with two additions: **session affinity** (every
//! turn of a session dispatches through the bucket pinned at the session's
//! first admission, so one conversation never straddles batching queues)
//! and the **decode cache** (a [`SessionRegistry`] deciding per turn whether
//! the incremental `StreamingSession` state is resident — a hit pays only
//! the appended tokens' preprocessing cycles, a miss pays the full
//! from-scratch rebuild). The cache changes *charged service time only*;
//! functional outputs are byte-identical either way, which is what keeps
//! the degenerate single-turn/unbounded configuration bit-identical to
//! [`OnlineServer::serve`].
//!
//! [`OnlineServer::serve_batch`] is the fault-tolerant offline batch: every
//! request of a materialized batch arrives at t = 0, runs through the same
//! engine, and comes back with its served output — the approximate result,
//! exact attention when the request degraded, nothing when it failed.

use elsa_attention::exact::AttentionInputs;
use elsa_core::ElsaAttention;
use elsa_fault::{FaultPlan, HealthTracker};
use elsa_linalg::ops;
use elsa_linalg::Matrix;
use elsa_runtime::{RequestRecord, RuntimeError, ServingReport};
use elsa_sim::{AcceleratorConfig, ElsaAccelerator};

use crate::arrival::ArrivalTrace;
use crate::batcher::{BatchPolicy, BatcherMode, BucketStats};
use crate::clock::ns_to_secs;
use crate::engine::{
    check_trace_order, entry_admissions, plan_health, precompute, prepare_entries, prepare_turns,
    profile, session_admissions, NodeEngine, PreparedRequest, SessionBook,
};
use crate::queue::{Backpressure, QueuedRequest};
use crate::session::{CacheConfig, CacheStats, SessionRegistry, SessionTrace};

/// Full configuration of the online pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Admission-queue capacity shared across buckets (`None` = unbounded).
    pub queue_capacity: Option<usize>,
    /// What happens to arrivals when the queue is full.
    pub backpressure: Backpressure,
    /// Batch-formation policy.
    pub batch: BatchPolicy,
    /// How batches are charged: real lengths (ELSA) or padded (GPU
    /// emulation).
    pub mode: BatcherMode,
    /// Shed a request at dispatch when its estimated completion (earliest
    /// unit availability + its measured service time) overshoots its
    /// deadline, instead of burning accelerator time on a guaranteed miss.
    pub shed_unmeetable: bool,
    /// Failed attempts per request before the dispatcher gives up.
    pub max_retries: u32,
    /// Consecutive faults on one unit before it is quarantined.
    pub quarantine_after: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: None,
            backpressure: Backpressure::Block,
            batch: BatchPolicy::single_bucket(8, 100_000),
            mode: BatcherMode::Bucketed,
            shed_unmeetable: false,
            max_retries: 16,
            quarantine_after: 3,
        }
    }
}

impl ServeConfig {
    /// No queueing, no batching, no shedding: dispatch every request alone
    /// the moment it arrives. On a simultaneous trace this reduces the
    /// pipeline to the offline [`elsa_runtime::InferenceServer`]
    /// bit-for-bit.
    #[must_use]
    pub fn immediate() -> Self {
        Self { batch: BatchPolicy::immediate(), ..Self::default() }
    }
}

/// How one request left the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed on an accelerator (possibly degraded to exact attention).
    Served {
        /// The numeric guard tripped and the request fell back to the
        /// accelerator's exact base mode.
        degraded: bool,
    },
    /// Dropped by [`Backpressure`] on a full admission queue.
    ShedQueueFull,
    /// Dropped at dispatch: its deadline was provably unmeetable.
    ShedUnmeetable,
    /// Its deadline expired while it waited in the queue.
    TimedOut,
    /// The dispatcher gave up (retry budget exhausted or pool dead).
    Failed,
}

/// Accounting for one request of an online trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineRecord {
    /// Trace id (arrival-order index).
    pub id: usize,
    /// Real sequence length.
    pub n_real: usize,
    /// Length bucket the request was routed to.
    pub bucket: usize,
    /// Arrival instant.
    pub arrival_ns: u64,
    /// Absolute deadline, if the request carried an SLO.
    pub deadline_ns: Option<u64>,
    /// Virtual instant at which the outcome was decided (batch dispatch or
    /// shed).
    pub decided_ns: u64,
    /// Arrival to accelerator start (served) or to the shed/timeout
    /// decision (everything else), in seconds.
    pub queue_delay_s: f64,
    /// Accelerator busy seconds actually charged (0 when not served).
    pub service_s: f64,
    /// Seconds from the virtual origin to completion (served) or to the
    /// give-up/shed instant.
    pub completion_s: f64,
    /// Failed attempts before the final outcome.
    pub retries: u32,
    /// How the request left the pipeline.
    pub outcome: Outcome,
}

impl OnlineRecord {
    /// Whether the request was served within its deadline. Deadline-free
    /// served requests count as met; everything unserved as missed.
    #[must_use]
    pub fn slo_met(&self) -> bool {
        matches!(self.outcome, Outcome::Served { .. })
            && self.deadline_ns.is_none_or(|d| self.completion_s <= ns_to_secs(d))
    }
}

/// The full outcome of one online trace.
///
/// Extends the offline [`ServingReport`] vocabulary with queue-delay
/// percentiles, SLO attainment, shed/timeout accounting, and per-bucket
/// batch occupancy. `PartialEq` compares every `f64` exactly, which is what
/// the cross-thread determinism test relies on.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Per-request records, in arrival (id) order.
    pub records: Vec<OnlineRecord>,
    /// Dispatch accounting per length bucket.
    pub bucket_stats: Vec<BucketStats>,
}

impl ServeReport {
    fn served(&self) -> impl Iterator<Item = &OnlineRecord> {
        self.records.iter().filter(|r| matches!(r.outcome, Outcome::Served { .. }))
    }

    /// Requests offered to the pipeline.
    #[must_use]
    pub fn offered_count(&self) -> usize {
        self.records.len()
    }

    /// Requests served (including degraded).
    #[must_use]
    pub fn served_count(&self) -> usize {
        self.served().count()
    }

    /// Served requests that degraded to exact attention.
    #[must_use]
    pub fn degraded_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Served { degraded: true }))
            .count()
    }

    /// Requests dropped by queue backpressure.
    #[must_use]
    pub fn shed_queue_full_count(&self) -> usize {
        self.records.iter().filter(|r| r.outcome == Outcome::ShedQueueFull).count()
    }

    /// Requests shed at dispatch as unmeetable.
    #[must_use]
    pub fn shed_unmeetable_count(&self) -> usize {
        self.records.iter().filter(|r| r.outcome == Outcome::ShedUnmeetable).count()
    }

    /// All load-shedding drops (queue-full + unmeetable).
    #[must_use]
    pub fn shed_count(&self) -> usize {
        self.shed_queue_full_count() + self.shed_unmeetable_count()
    }

    /// Requests whose deadline expired in the queue.
    #[must_use]
    pub fn timed_out_count(&self) -> usize {
        self.records.iter().filter(|r| r.outcome == Outcome::TimedOut).count()
    }

    /// Requests the dispatcher gave up on.
    #[must_use]
    pub fn failed_count(&self) -> usize {
        self.records.iter().filter(|r| r.outcome == Outcome::Failed).count()
    }

    /// Total failed attempts across all requests.
    #[must_use]
    pub fn total_retries(&self) -> u64 {
        self.records.iter().map(|r| u64::from(r.retries)).sum()
    }

    /// Queue-delay percentile over the served requests (`q` clamped to
    /// `[0, 100]`); `0.0` when nothing was served.
    #[must_use]
    pub fn queue_delay_percentile_s(&self, q: f64) -> f64 {
        let delays: Vec<f64> = self.served().map(|r| r.queue_delay_s).collect();
        if delays.is_empty() {
            0.0
        } else {
            ops::percentile(&delays, q.clamp(0.0, 100.0))
        }
    }

    /// Fraction of deadline-carrying requests served within their deadline;
    /// `1.0` when no request carried a deadline (nothing to miss).
    #[must_use]
    pub fn slo_attainment(&self) -> f64 {
        let (met, total) = self
            .records
            .iter()
            .filter(|r| r.deadline_ns.is_some())
            .fold((0usize, 0usize), |(m, t), r| (m + usize::from(r.slo_met()), t + 1));
        if total == 0 {
            1.0
        } else {
            met as f64 / total as f64
        }
    }

    /// Served requests divided by the last served completion; `0.0` when
    /// nothing was served.
    #[must_use]
    pub fn throughput_per_s(&self) -> f64 {
        let makespan = self.served().map(|r| r.completion_s).fold(0.0f64, f64::max);
        if makespan == 0.0 {
            0.0
        } else {
            self.served_count() as f64 / makespan
        }
    }

    /// Projects the online records onto the offline [`ServingReport`]
    /// vocabulary: served requests keep their service/completion times,
    /// everything else becomes a failed record. On a simultaneous trace
    /// under [`ServeConfig::immediate`], this is bit-identical to
    /// [`elsa_runtime::InferenceServer::serve`] on the materialized
    /// requests.
    #[must_use]
    pub fn to_serving_report(&self) -> ServingReport {
        let records = self
            .records
            .iter()
            .map(|r| match r.outcome {
                Outcome::Served { degraded } => RequestRecord {
                    n_real: r.n_real,
                    service_s: r.service_s,
                    completion_s: r.completion_s,
                    degraded,
                    retries: r.retries,
                    failed: false,
                },
                _ => RequestRecord {
                    n_real: r.n_real,
                    service_s: 0.0,
                    completion_s: r.completion_s,
                    degraded: false,
                    retries: r.retries,
                    failed: true,
                },
            })
            .collect();
        ServingReport { records }
    }
}

/// The outcome of one session-serving run: the ordinary serving report plus
/// the cache's behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Per-turn records and bucket accounting, exactly as
    /// [`OnlineServer::serve`] reports them.
    pub serve: ServeReport,
    /// Hit/miss/eviction accounting of the decode cache.
    pub cache: CacheStats,
}

/// A served batch: the accounting report plus the actual outputs.
///
/// `outputs[i]` is the attention output served for request `i` — exact
/// attention if the request degraded, `None` if it failed. Indices align
/// with `report.records`.
#[derive(Debug, Clone)]
pub struct ServedBatch {
    /// Per-request accounting, in arrival order.
    pub report: ServingReport,
    /// Served output per request (`None` for failed requests).
    pub outputs: Vec<Option<Matrix>>,
}

/// The online serving front-end: one operator, one accelerator pool, one
/// fault plan, one serving configuration.
#[derive(Debug)]
pub struct OnlineServer {
    accel: ElsaAccelerator,
    plan: FaultPlan,
    config: ServeConfig,
}

impl OnlineServer {
    /// Builds the server.
    ///
    /// # Panics
    ///
    /// Panics if the operator does not fit the hardware or the batch policy
    /// is malformed; see [`OnlineServer::try_new`] for the non-panicking
    /// form.
    #[must_use]
    pub fn new(
        accel_config: AcceleratorConfig,
        operator: ElsaAttention,
        plan: FaultPlan,
        config: ServeConfig,
    ) -> Self {
        match Self::try_new(accel_config, operator, plan, config) {
            Ok(server) => server,
            // elsa-lint: allow(panic-policy) reason="documented # Panics wrapper; try_new is the serving-path form"
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the server, reporting a malformed batch policy or an
    /// operator/hardware misfit as a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidBatchPolicy`] when the batch policy
    /// is malformed (zero batch size, no buckets, non-ascending bucket
    /// bounds), or [`RuntimeError::Misfit`] when the hardware configuration
    /// is invalid or the operator's dimensions do not match it.
    pub fn try_new(
        accel_config: AcceleratorConfig,
        operator: ElsaAttention,
        plan: FaultPlan,
        config: ServeConfig,
    ) -> Result<Self, RuntimeError> {
        config.batch.try_validate()?;
        let accel = ElsaAccelerator::try_new(accel_config, operator)?;
        Ok(Self { accel, plan, config })
    }

    /// The serving configuration.
    #[must_use]
    pub const fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The governing fault plan.
    #[must_use]
    pub const fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Replays an arrival trace through the pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnorderedTrace`] for a trace out of arrival
    /// order, [`RuntimeError::Request`] when a request does not fit the
    /// hardware (the trace is rejected before any virtual time passes), or
    /// [`RuntimeError::NoHealthyUnits`] when the fault plan killed every
    /// unit.
    pub fn serve(&self, trace: &ArrivalTrace) -> Result<ServeReport, RuntimeError> {
        check_trace_order(trace.requests.iter().map(|r| (r.id, r.arrival_ns)))?;
        let health = self.healthy_pool()?;

        // Thread-independent precompute, fanned out in arrival order: the
        // serial event loop below never touches the simulator except for
        // padded-timing runs, which are themselves deterministic functions
        // of the trace entries.
        let prepared = prepare_entries(&self.accel, &trace.requests)?;
        let admissions = entry_admissions(&self.config.batch, &trace.requests);
        let inputs = |id: usize| trace.requests[id].entry.materialize();
        let (records, bucket_stats, _) =
            self.run_engine(health, &prepared, &inputs, &admissions, None);
        Ok(ServeReport { records, bucket_stats })
    }

    /// Serves a batch of simultaneously arriving requests and returns the
    /// served outputs alongside the accounting — the fault-tolerant
    /// counterpart of [`elsa_runtime::InferenceServer::serve`].
    ///
    /// Request `i` is admitted at t = 0 with id `i` and runs through the
    /// same engine as [`serve`](Self::serve), so under
    /// [`ServeConfig::immediate`] the report equals
    /// `serve(&ArrivalTrace::simultaneous(..)).to_serving_report()` bit for
    /// bit — and, with a zero-fault plan, `InferenceServer::serve`.
    /// The approximate pipeline runs once per request (fanned out exactly
    /// like [`serve`](Self::serve)); a degraded request's exact output is
    /// computed afterwards, once, through the tiled streaming kernel
    /// (`ElsaAccelerator::run_base_streaming`, bit-identical to `run_base`
    /// with O(n) transient memory).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Request`] when a request does not fit the
    /// hardware (the batch is rejected before any dispatch), or
    /// [`RuntimeError::NoHealthyUnits`] when the fault plan killed every
    /// unit.
    pub fn serve_batch(&self, requests: &[AttentionInputs]) -> Result<ServedBatch, RuntimeError> {
        let runs = precompute(requests.iter().map(|r| (r.num_keys(), r.dim())), |i| {
            profile(&self.accel, self.accel.config(), &requests[i], None)
                .map(|(prepared, run)| (prepared, run.output))
        })?;
        let health = self.healthy_pool()?;
        let (prepared, approximate): (Vec<PreparedRequest>, Vec<Matrix>) =
            runs.into_iter().unzip();
        let admissions: Vec<QueuedRequest> = requests
            .iter()
            .enumerate()
            .map(|(id, r)| {
                let n_real = r.num_keys();
                let bucket = self.config.batch.bucket_of(n_real);
                QueuedRequest { id, arrival_ns: 0, deadline_ns: None, n_real, bucket }
            })
            .collect();
        let inputs = |id: usize| requests[id].clone();
        let (records, bucket_stats, _) =
            self.run_engine(health, &prepared, &inputs, &admissions, None);
        let report = ServeReport { records, bucket_stats }.to_serving_report();
        let outputs = report
            .records
            .iter()
            .zip(approximate)
            .zip(requests)
            .map(|((record, output), inputs)| match (record.failed, record.degraded) {
                (true, _) => None,
                (false, true) => Some(self.accel.run_base_streaming(inputs).output),
                (false, false) => Some(output),
            })
            .collect();
        Ok(ServedBatch { report, outputs })
    }

    /// Replays a multi-turn session trace through the pipeline with session
    /// affinity and the decode cache model (see the module docs). The cache
    /// affects charged service times only — each turn's functional output is
    /// computed from its full inputs regardless — so the accounting
    /// invariant `offered = served + shed + timed-out + failed` and the
    /// bit-identical-at-any-`ELSA_THREADS` contract carry over unchanged.
    ///
    /// A turn is a **hit** when its session was last served with exactly
    /// `prefix_len - appended` tokens of context and its state is still
    /// resident: it is charged the run's cycles with full-context
    /// preprocessing replaced by preprocessing of only the appended tokens.
    /// Anything else (first turns, evicted sessions, sessions desynchronized
    /// by a dropped turn) pays the full from-scratch cost. The registry
    /// commits only when a turn is actually served.
    ///
    /// # Errors
    ///
    /// Same as [`OnlineServer::serve`].
    pub fn serve_sessions(
        &self,
        trace: &SessionTrace,
        cache: CacheConfig,
    ) -> Result<SessionReport, RuntimeError> {
        check_trace_order(trace.requests.iter().map(|r| (r.id, r.arrival_ns)))?;
        let health = self.healthy_pool()?;
        let prepared = prepare_turns(&self.accel, self.accel.config(), &trace.requests)?;
        let admissions = session_admissions(&self.config.batch, &trace.requests);
        let hasher = self.accel.operator().params().hasher();
        let book = SessionBook::new(
            SessionRegistry::new(cache, hasher.dim(), hasher.k()),
            &trace.requests,
        );
        let inputs = |id: usize| trace.requests[id].materialize();
        let (records, bucket_stats, cache_stats) =
            self.run_engine(health, &prepared, &inputs, &admissions, Some(book));
        Ok(SessionReport {
            serve: ServeReport { records, bucket_stats },
            cache: cache_stats.unwrap_or_default(),
        })
    }

    /// The unit-health tracker for one run: plan-dead units marked, an
    /// all-dead pool rejected as [`RuntimeError::NoHealthyUnits`].
    fn healthy_pool(&self) -> Result<HealthTracker, RuntimeError> {
        let units = self.accel.config().num_accelerators;
        let health = plan_health(&self.plan, units, self.config.quarantine_after);
        if health.num_available() == 0 {
            return Err(RuntimeError::NoHealthyUnits);
        }
        Ok(health)
    }

    /// The serial virtual-clock event loop shared by [`serve`](Self::serve)
    /// and [`serve_sessions`](Self::serve_sessions), running on the
    /// extracted [`NodeEngine`]: admissions must be in arrival order with
    /// one entry per prepared request, and `inputs` regenerates a request's
    /// inputs by id for padded timing.
    ///
    /// # Panics
    ///
    /// Panics if the engine leaves any request unaccounted — the
    /// exact-accounting invariant (`offered = served + shed + timed-out +
    /// failed`) that the resulting [`ServeReport`] must never paper over.
    fn run_engine(
        &self,
        health: HealthTracker,
        prepared: &[PreparedRequest],
        inputs: &dyn Fn(usize) -> AttentionInputs,
        admissions: &[QueuedRequest],
        sessions: Option<SessionBook<'_>>,
    ) -> (Vec<OnlineRecord>, Vec<BucketStats>, Option<CacheStats>) {
        let mut engine =
            NodeEngine::new(&self.accel, self.plan, &self.config, prepared, inputs, health);
        if let Some(book) = sessions {
            engine = engine.with_sessions(book);
        }
        for request in admissions {
            engine.flush_expired(request.arrival_ns);
            engine.advance_to(request.arrival_ns);
            engine.admit(*request);
        }
        engine.flush_expired(u64::MAX);

        let parts = engine.into_parts();
        let records: Vec<OnlineRecord> = parts
            .slots
            .into_iter()
            .enumerate()
            // elsa-lint: allow(panic-policy) reason="exact-accounting invariant: every request is finished exactly once; a hole here is a bug the ServeReport must not paper over"
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("request {i} left unaccounted")))
            .collect();
        (records, parts.bucket_stats, parts.cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::{ArrivalConfig, ArrivalTrace};
    use elsa_core::attention::ElsaParams;
    use elsa_linalg::SeededRng;
    use elsa_workloads::{DatasetKind, ModelKind, Workload};

    fn workload() -> Workload {
        Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M }
    }

    fn operator(seed: u64) -> ElsaAttention {
        let mut rng = SeededRng::new(seed);
        let train = workload().generate_batch(1, &mut rng);
        ElsaAttention::learn(
            ElsaParams::for_dims(64, 64, &mut SeededRng::new(seed + 1)),
            &train,
            1.0,
        )
    }

    fn config() -> AcceleratorConfig {
        AcceleratorConfig { n_max: 200, num_accelerators: 4, ..AcceleratorConfig::paper() }
    }

    fn trace(count: usize, lambda: f64, slo_ns: Option<u64>, seed: u64) -> ArrivalTrace {
        let cfg = ArrivalConfig { lambda_per_s: lambda, count, slo_ns, burst: None };
        ArrivalTrace::generate(&workload(), &cfg, &mut SeededRng::new(seed))
    }

    #[test]
    fn every_request_is_accounted_exactly_once() {
        let server = OnlineServer::new(
            config(),
            operator(1),
            FaultPlan::none(),
            ServeConfig {
                queue_capacity: Some(4),
                backpressure: Backpressure::ShedNewest,
                shed_unmeetable: true,
                ..ServeConfig::default()
            },
        );
        let trace = trace(64, 200_000.0, Some(100_000), 2);
        let report = server.serve(&trace).expect("healthy pool");
        assert_eq!(report.offered_count(), 64);
        assert_eq!(
            report.served_count()
                + report.shed_count()
                + report.timed_out_count()
                + report.failed_count(),
            64,
            "exact accounting"
        );
        // Records come back in arrival order.
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.id, i);
        }
    }

    #[test]
    fn light_load_serves_everything_within_slo() {
        let server =
            OnlineServer::new(config(), operator(3), FaultPlan::none(), ServeConfig::immediate());
        // λ far below saturation, generous SLO.
        let trace = trace(24, 1_000.0, Some(crate::clock::NANOS_PER_SEC), 4);
        let report = server.serve(&trace).expect("healthy pool");
        assert_eq!(report.served_count(), 24);
        assert_eq!(report.slo_attainment(), 1.0);
        assert!(report.queue_delay_percentile_s(99.0) < 1e-3);
        assert!(report.throughput_per_s() > 0.0);
    }

    #[test]
    fn shed_oldest_prefers_the_head_of_the_queue() {
        // One unit, capacity 2, huge batch window: the queue fills and the
        // oldest waiters get dropped.
        let server = OnlineServer::new(
            AcceleratorConfig { num_accelerators: 1, ..config() },
            operator(5),
            FaultPlan::none(),
            ServeConfig {
                queue_capacity: Some(2),
                backpressure: Backpressure::ShedOldest,
                batch: BatchPolicy::single_bucket(64, u64::MAX / 2),
                ..ServeConfig::default()
            },
        );
        let trace = trace(12, 1_000_000.0, None, 6);
        let report = server.serve(&trace).expect("healthy pool");
        assert_eq!(report.shed_queue_full_count(), 10, "capacity 2 of 12 survive");
        let shed: Vec<usize> = report
            .records
            .iter()
            .filter(|r| r.outcome == Outcome::ShedQueueFull)
            .map(|r| r.id)
            .collect();
        assert_eq!(shed, (0..10).collect::<Vec<_>>(), "head drop sheds the oldest");
    }

    #[test]
    fn block_backpressure_never_sheds() {
        let server = OnlineServer::new(
            config(),
            operator(7),
            FaultPlan::none(),
            ServeConfig {
                queue_capacity: Some(2),
                backpressure: Backpressure::Block,
                batch: BatchPolicy::single_bucket(8, 1_000_000),
                ..ServeConfig::default()
            },
        );
        let trace = trace(32, 500_000.0, None, 8);
        let report = server.serve(&trace).expect("healthy pool");
        assert_eq!(report.served_count(), 32);
        assert_eq!(report.shed_count(), 0);
    }

    #[test]
    fn unmeetable_deadlines_are_shed_not_burned() {
        // Impossible SLO: shorter than any service time. With shedding on,
        // every request is dropped before occupying a unit.
        let server = OnlineServer::new(
            config(),
            operator(9),
            FaultPlan::none(),
            ServeConfig { shed_unmeetable: true, ..ServeConfig::immediate() },
        );
        let trace = trace(8, 1_000.0, Some(10), 10);
        let report = server.serve(&trace).expect("healthy pool");
        assert_eq!(report.shed_unmeetable_count(), 8);
        assert_eq!(report.slo_attainment(), 0.0);
        assert_eq!(report.throughput_per_s(), 0.0);
    }

    #[test]
    fn batching_waits_are_bounded_by_the_window() {
        let max_wait_ns = 2_000_000; // 2 ms
        let server = OnlineServer::new(
            config(),
            operator(11),
            FaultPlan::none(),
            ServeConfig {
                batch: BatchPolicy::single_bucket(64, max_wait_ns),
                ..ServeConfig::default()
            },
        );
        // λ low enough that batches form by expiry, not by max_batch.
        let trace = trace(16, 5_000.0, None, 12);
        let report = server.serve(&trace).expect("healthy pool");
        assert_eq!(report.served_count(), 16);
        for r in &report.records {
            assert!(
                r.decided_ns <= r.arrival_ns + max_wait_ns,
                "request {} dispatched {}ns after arrival",
                r.id,
                r.decided_ns - r.arrival_ns
            );
        }
        let stats = &report.bucket_stats[0];
        assert!(stats.batches < 16, "batching actually grouped requests");
        assert!(stats.mean_fill() > 1.0);
    }

    #[test]
    fn dead_pool_is_a_typed_error() {
        let plan = FaultPlan::seeded(
            13,
            elsa_fault::FaultRates { unit_death: 1.0, ..elsa_fault::FaultRates::none() },
        );
        let server = OnlineServer::new(config(), operator(14), plan, ServeConfig::default());
        assert_eq!(
            server.serve(&trace(4, 1_000.0, None, 15)).unwrap_err(),
            RuntimeError::NoHealthyUnits
        );
    }

    #[test]
    fn oversized_request_is_rejected_up_front() {
        // n_max = 200 but BertLarge pads to 384 real entities sometimes; use
        // a tiny n_max to force the misfit deterministically.
        let server = OnlineServer::new(
            AcceleratorConfig { n_max: 8, ..config() },
            operator(16),
            FaultPlan::none(),
            ServeConfig::default(),
        );
        let err = server.serve(&trace(6, 1_000.0, None, 17)).unwrap_err();
        assert!(matches!(err, RuntimeError::Request { .. }));
    }

    #[test]
    fn padded_mode_charges_at_least_the_real_cost() {
        let trace = trace(24, 1_000_000.0, None, 18);
        let serve = |mode| {
            let server = OnlineServer::new(
                config(),
                operator(19),
                FaultPlan::none(),
                ServeConfig {
                    batch: BatchPolicy::single_bucket(8, 1_000_000),
                    mode,
                    ..ServeConfig::default()
                },
            );
            server.serve(&trace).expect("healthy pool")
        };
        let bucketed = serve(BatcherMode::Bucketed);
        let padded = serve(BatcherMode::Padded);
        assert_eq!(bucketed.served_count(), padded.served_count());
        for (b, p) in bucketed.records.iter().zip(&padded.records) {
            assert!(p.service_s >= b.service_s, "padding can only add work");
        }
        assert!(padded.bucket_stats[0].padded_rows > 0, "mixed lengths actually padded");
        assert_eq!(bucketed.bucket_stats[0].padded_rows, 0, "ELSA pays no padding");
        assert_eq!(bucketed.bucket_stats[0].padding_waste(), 0.0);
    }

    #[test]
    fn multi_turn_sessions_hit_the_cache() {
        use crate::session::{CacheConfig, SessionArrivalConfig, SessionTrace};
        let server =
            OnlineServer::new(config(), operator(21), FaultPlan::none(), ServeConfig::default());
        let cfg = SessionArrivalConfig {
            lambda_per_s: 5_000.0,
            sessions: 4,
            slo_ns: None,
            max_decode_turns: Some(3),
        };
        let trace = SessionTrace::generate(&workload(), &cfg, &mut SeededRng::new(22));
        let report = server.serve_sessions(&trace, CacheConfig::unbounded()).expect("healthy");
        let r = &report.serve;
        assert_eq!(r.offered_count(), trace.len());
        assert_eq!(
            r.served_count() + r.shed_count() + r.timed_out_count() + r.failed_count(),
            trace.len(),
            "exact accounting"
        );
        // Unbounded cache, nothing dropped: every decode turn after its
        // prefill is a hit, one cold start per session, no staleness.
        assert_eq!(report.cache.cold, 4);
        assert_eq!(report.cache.hits as usize, trace.len() - 4);
        assert_eq!(report.cache.stale, 0);
        assert_eq!(report.cache.evictions, 0);
        assert!(report.cache.peak_bytes > 0);
        // A hit decode turn is charged strictly less than its from-scratch
        // precompute (the skipped context re-hashing).
        let hit_turn = r
            .records
            .iter()
            .zip(&trace.requests)
            .find(|(rec, req)| {
                req.appended == 1 && matches!(rec.outcome, Outcome::Served { degraded: false })
            })
            .map(|(rec, _)| rec)
            .expect("some decode turn served cleanly");
        assert!(hit_turn.service_s > 0.0);
    }

    #[test]
    fn single_turn_unbounded_sessions_match_plain_serving_bitwise() {
        use crate::session::{CacheConfig, SessionTrace};
        let make = || {
            OnlineServer::new(
                config(),
                operator(23),
                FaultPlan::none(),
                ServeConfig {
                    batch: BatchPolicy::single_bucket(4, 500_000),
                    ..ServeConfig::default()
                },
            )
        };
        let arrivals = trace(24, 50_000.0, Some(5_000_000), 24);
        let plain = make().serve(&arrivals).expect("healthy");
        let sessions = make()
            .serve_sessions(&SessionTrace::single_turn(&arrivals), CacheConfig::unbounded())
            .expect("healthy");
        assert_eq!(plain, sessions.serve, "degenerate session serving is bit-identical");
        assert_eq!(sessions.cache.hits, 0);
        assert_eq!(sessions.cache.cold, sessions.serve.served_count() as u64);
    }

    #[test]
    fn dropped_turns_force_stale_rebuilds() {
        use crate::session::{CacheConfig, SessionArrivalConfig, SessionTrace};
        // An SLO so tight that some turns time out in the queue on one unit:
        // the following turn of that session must be stale, never a hit.
        let server = OnlineServer::new(
            AcceleratorConfig { num_accelerators: 1, ..config() },
            operator(25),
            FaultPlan::none(),
            ServeConfig { shed_unmeetable: true, ..ServeConfig::default() },
        );
        let cfg = SessionArrivalConfig {
            lambda_per_s: 500_000.0,
            sessions: 3,
            slo_ns: Some(40_000),
            max_decode_turns: Some(4),
        };
        let trace = SessionTrace::generate(&workload(), &cfg, &mut SeededRng::new(26));
        let report = server.serve_sessions(&trace, CacheConfig::unbounded()).expect("healthy");
        let r = &report.serve;
        assert_eq!(
            r.served_count() + r.shed_count() + r.timed_out_count() + r.failed_count(),
            trace.len(),
            "exact accounting under drops"
        );
        assert!(r.shed_count() + r.timed_out_count() > 0, "overload actually dropped turns");
        // Cache classification only covers served turns.
        assert_eq!(
            report.cache.hits + report.cache.cold + report.cache.stale,
            r.served_count() as u64
        );
    }

    fn requests(count: usize, seed: u64) -> Vec<AttentionInputs> {
        workload().generate_batch(count, &mut SeededRng::new(seed))
    }

    fn batch_server(cfg: AcceleratorConfig, seed: u64, plan: FaultPlan) -> OnlineServer {
        OnlineServer::new(cfg, operator(seed), plan, ServeConfig::immediate())
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn malformed_batch_policy_is_a_typed_error() {
        let serve_config = ServeConfig {
            batch: BatchPolicy { max_batch: 0, ..BatchPolicy::immediate() },
            ..ServeConfig::default()
        };
        let err = OnlineServer::try_new(config(), operator(27), FaultPlan::none(), serve_config)
            .expect_err("max_batch = 0");
        assert!(matches!(err, RuntimeError::InvalidBatchPolicy { .. }));
    }

    #[test]
    fn zero_fault_batch_matches_the_plain_server() {
        let server = batch_server(config(), 1, FaultPlan::none());
        let plain = elsa_runtime::InferenceServer::new(config(), operator(1));
        let batch = requests(16, 2);
        let served = server.serve_batch(&batch).expect("no faults planned");
        assert_eq!(served.report, plain.serve(&batch));
        assert!(served.outputs.iter().all(Option::is_some));
    }

    #[test]
    fn batch_on_a_dead_pool_is_a_typed_error() {
        let rates = elsa_fault::FaultRates { unit_death: 1.0, ..elsa_fault::FaultRates::none() };
        let server = batch_server(config(), 4, FaultPlan::seeded(3, rates));
        assert_eq!(server.serve_batch(&requests(4, 5)).unwrap_err(), RuntimeError::NoHealthyUnits);
    }

    #[test]
    fn batch_misfit_names_the_request() {
        let cfg = AcceleratorConfig { n_max: 8, ..config() };
        let server = batch_server(cfg, 28, FaultPlan::none());
        let err = server.serve_batch(&requests(3, 29)).unwrap_err();
        assert!(matches!(err, RuntimeError::Request { index: 0, .. }));
    }

    #[test]
    fn permanent_transients_exhaust_the_retry_budget() {
        let rates = elsa_fault::FaultRates { transient: 1.0, ..elsa_fault::FaultRates::none() };
        let server = OnlineServer::new(
            config(),
            operator(7),
            FaultPlan::seeded(6, rates),
            ServeConfig { max_retries: 2, quarantine_after: 100, ..ServeConfig::immediate() },
        );
        let served = server.serve_batch(&requests(3, 8)).expect("pool itself is healthy");
        assert_eq!(served.report.failed_count(), 3);
        assert_eq!(served.report.served_count(), 0);
        assert!(served.report.records.iter().all(|r| r.retries == 3), "budget: 1 + max_retries");
        assert!(served.outputs.iter().all(Option::is_none));
        assert_eq!(served.report.throughput_per_s(), 0.0);
    }

    #[test]
    fn forced_corruption_degrades_every_request_to_exact() {
        let rates = elsa_fault::FaultRates { corrupt: 1.0, ..elsa_fault::FaultRates::none() };
        let server = batch_server(config(), 12, FaultPlan::seeded(11, rates));
        let batch = requests(8, 13);
        let served = server.serve_batch(&batch).expect("corruption is survivable");
        assert_eq!(served.report.degraded_count(), batch.len());
        assert_eq!(served.report.failed_count(), 0);
        let accel = ElsaAccelerator::new(config(), operator(12));
        for (request, output) in batch.iter().zip(&served.outputs) {
            let output = output.as_ref().expect("degraded, not failed");
            assert!(output.as_slice().iter().all(|v| v.is_finite()), "no NaN ever served");
            assert_eq!(bits(output), bits(&accel.run_base(request).output), "exact attention");
        }
    }

    #[test]
    fn degraded_requests_pay_exactly_the_base_run() {
        let rates = elsa_fault::FaultRates { corrupt: 1.0, ..elsa_fault::FaultRates::none() };
        let cfg = AcceleratorConfig { num_accelerators: 1, ..config() };
        let healthy = batch_server(cfg, 15, FaultPlan::none());
        let corrupted = batch_server(cfg, 15, FaultPlan::seeded(14, rates));
        let batch = requests(4, 16);
        let clean = healthy.serve_batch(&batch).expect("healthy");
        let degraded = corrupted.serve_batch(&batch).expect("survivable");
        let accel = ElsaAccelerator::new(cfg, operator(15));
        let pairs = clean.report.records.iter().zip(&degraded.report.records);
        for ((c, d), request) in pairs.zip(&batch) {
            assert!(d.degraded);
            // The accounting-only engine charges the base cycle model: the
            // same seconds the streaming fallback run reports.
            let base_s = accel.run_base_streaming(request).cycles.seconds(&cfg);
            assert_eq!(d.service_s.to_bits(), (c.service_s + base_s).to_bits());
        }
    }

    #[test]
    fn unordered_arrival_trace_is_a_typed_error() {
        let server =
            OnlineServer::new(config(), operator(30), FaultPlan::none(), ServeConfig::default());
        let mut unordered = trace(6, 1_000.0, None, 31);
        unordered.requests.swap(2, 3);
        let err = server.serve(&unordered).unwrap_err();
        assert_eq!(err, RuntimeError::UnorderedTrace { index: 2 }, "ids out of order");
        for (id, request) in unordered.requests.iter_mut().enumerate() {
            request.id = id;
        }
        let err = server.serve(&unordered).unwrap_err();
        assert_eq!(err, RuntimeError::UnorderedTrace { index: 3 }, "arrivals out of order");
    }

    #[test]
    fn unordered_session_trace_is_a_typed_error() {
        use crate::session::{CacheConfig, SessionTrace};
        let server =
            OnlineServer::new(config(), operator(32), FaultPlan::none(), ServeConfig::default());
        let mut unordered = SessionTrace::single_turn(&trace(6, 1_000.0, None, 33));
        unordered.requests.swap(2, 3);
        let err = server.serve_sessions(&unordered, CacheConfig::unbounded()).unwrap_err();
        assert_eq!(err, RuntimeError::UnorderedTrace { index: 2 }, "ids out of order");
        for (id, turn) in unordered.requests.iter_mut().enumerate() {
            turn.id = id;
        }
        let err = server.serve_sessions(&unordered, CacheConfig::unbounded()).unwrap_err();
        assert_eq!(err, RuntimeError::UnorderedTrace { index: 3 }, "arrivals out of order");
    }

    #[test]
    fn padded_decode_turns_pad_queries_to_the_batch_not_the_context() {
        use crate::session::{CacheConfig, SessionArrivalConfig, SessionTrace, SessionTurnRequest};
        let cfg = AcceleratorConfig { num_accelerators: 1, ..config() };
        let generated = SessionTrace::generate(
            &workload(),
            &SessionArrivalConfig {
                lambda_per_s: 5_000.0,
                sessions: 6,
                slo_ns: None,
                max_decode_turns: Some(3),
            },
            &mut SeededRng::new(23),
        );
        // The decode turns alone, re-indexed: one padded batch whose every
        // member runs one query over a different context length.
        let requests: Vec<SessionTurnRequest> = generated
            .requests
            .iter()
            .filter(|turn| turn.appended == 1)
            .enumerate()
            .map(|(id, turn)| SessionTurnRequest { id, ..*turn })
            .collect();
        let decode = SessionTrace { requests };
        let server = OnlineServer::new(
            cfg,
            operator(34),
            FaultPlan::none(),
            ServeConfig {
                batch: BatchPolicy::single_bucket(decode.len(), u64::MAX / 2),
                mode: BatcherMode::Padded,
                ..ServeConfig::default()
            },
        );
        let report = server.serve_sessions(&decode, CacheConfig::unbounded()).expect("healthy");
        assert_eq!(report.serve.bucket_stats[0].batches, 1, "one padded batch");
        let padded_n = decode.requests.iter().map(|t| t.prefix_len).max().expect("decode turns");
        let accel = ElsaAccelerator::new(cfg, operator(34));
        let pad = |m: &Matrix| m.vstack(&Matrix::zeros(padded_n - m.rows(), m.cols()));
        let mut padded_turns = 0;
        for (record, turn) in report.serve.records.iter().zip(&decode.requests) {
            assert_eq!(record.outcome, Outcome::Served { degraded: false });
            let inputs = turn.materialize();
            let (key, value) = (pad(inputs.key()), pad(inputs.value()));
            let one_query = AttentionInputs::new(inputs.query().clone(), key, value);
            let expected = accel.run(&one_query).cycles.seconds(&cfg);
            assert_eq!(record.service_s.to_bits(), expected.to_bits(), "turn {}", turn.id);
            padded_turns += usize::from(turn.prefix_len < padded_n);
        }
        assert!(padded_turns > 0, "shorter contexts actually padded");
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let server =
            OnlineServer::new(config(), operator(20), FaultPlan::none(), ServeConfig::default());
        let report = server.serve(&ArrivalTrace { requests: Vec::new() }).expect("empty is fine");
        assert_eq!(report.offered_count(), 0);
        assert_eq!(report.slo_attainment(), 1.0);
        assert_eq!(report.queue_delay_percentile_s(99.0), 0.0);
        assert_eq!(report.throughput_per_s(), 0.0);
    }
}
