//! The node-embeddable serving engine.
//!
//! [`NodeEngine`] is the serial virtual-clock event loop behind
//! [`OnlineServer`](crate::dispatch::OnlineServer), extracted as a public
//! API so a higher layer (the `elsa-cluster` fleet) can embed one engine
//! per node and drive admissions itself. The split is exact: the server's
//! `serve`/`serve_sessions` run on this type unchanged, so a single
//! externally-driven engine is bit-identical to the in-process server.
//!
//! The engine owns everything that happens *after* routing: the bounded
//! admission queue, length-bucketed batch formation, SLO checks, and the
//! per-unit failover loop (transient retries, stragglers, quarantine,
//! degradation to exact attention). It never decides *which* engine a
//! request reaches — that is the caller's routing policy — and it exposes
//! the hooks a router needs:
//!
//! * [`NodeEngine::backlog_s`] — the instantaneous per-unit backlog
//!   (busy seconds remaining + queued service), the load signal for
//!   least-loaded routing and queue-delay autoscaling;
//! * [`NodeEngine::evacuate`] — drain the queue without recording
//!   outcomes, so a dying node's waiters can be re-routed;
//! * [`NodeEngine::clear_session_cache`] — model the loss of a dead
//!   node's decode cache (its sessions rebuild from scratch elsewhere);
//! * [`NodeEngine::with_service_scale`] — a uniform slow-node factor
//!   (scale `1.0` is bit-transparent: `x × 1.0 ≡ x` for every finite
//!   charge, preserving the healthy-path equivalence).
//!
//! The engine is accounting-only: it never produces a served output. A
//! degraded request is charged the base-mode cycle model
//! (`elsa_sim::cycle::simulate_execution_base`, exactly the cycles
//! `ElsaAccelerator::run_base_streaming` reports), and a caller that needs
//! outputs builds them afterwards from the records (see
//! [`OnlineServer::serve_batch`](crate::dispatch::OnlineServer::serve_batch)).
//!
//! Precompute stays outside the engine (e.g. [`prepare_turns`]): the only
//! parallel stage, fanned out in arrival order under the same
//! `elsa_parallel` gate as the offline `InferenceServer`, so reports are
//! bit-identical at any `ELSA_THREADS` no matter how many engines share
//! the prepared slice. It reduces each request to a [`PreparedRequest`]
//! service profile and drops the inputs; the engine re-materializes a
//! request through its input lookup only to time a padded batch.

use elsa_attention::exact::AttentionInputs;
use elsa_fault::{FaultPlan, HealthSnapshot, HealthTracker};
use elsa_linalg::reduce::sum_f64;
use elsa_linalg::Matrix;
use elsa_runtime::RuntimeError;
use elsa_sim::cycle::simulate_execution_base;
use elsa_sim::{AcceleratorConfig, ElsaAccelerator, FitError, RunReport};

use crate::arrival::ArrivalRequest;
use crate::batcher::{BatchPolicy, BatcherMode, BucketStats};
use crate::clock::{ns_to_secs, VirtualClock};
use crate::dispatch::{OnlineRecord, Outcome, ServeConfig};
use crate::queue::{AdmissionQueue, Backpressure, QueuedRequest};
use crate::session::{CacheStats, SessionRegistry, SessionTurnRequest};

/// One request's service profile, reduced from one thread-independent run
/// of the approximate pipeline: everything the engine charges, no inputs.
#[derive(Debug, Clone, Copy)]
pub struct PreparedRequest {
    /// Service seconds of the full from-scratch run.
    pub service_s: f64,
    /// Service seconds when the session cache holds the expected prefix:
    /// the run's cycles with the full-context preprocessing replaced by
    /// preprocessing of only the appended tokens. Equal to `service_s`
    /// outside session serving.
    pub hit_service_s: f64,
    /// Query rows the request runs (for degraded and padded charges).
    pub n_queries: usize,
    /// Whether the numeric guard tripped on the approximate result.
    pub trips: bool,
}

/// The saturation sentinel: the fixed-point accumulator's ceiling mapped
/// into `f32`. A served attention output is a convex combination of value
/// rows, so any element at or beyond this magnitude can only come from a
/// saturated datapath — the serving guard treats it like a non-finite
/// value.
pub(crate) const SATURATION_LIMIT: f32 = f32::MAX;

/// The numeric guard: a result is untrustworthy when a non-empty query set
/// selected nothing (a corrupted hash signature) or any output value is
/// non-finite or saturated. One predicate catches NaN, ±∞, and the
/// fixed-point saturation sentinel: `!(v.abs() < SATURATION_LIMIT)`.
pub(crate) fn guard_trips(report: &RunReport) -> bool {
    (report.stats.num_queries > 0 && report.stats.selected_pairs == 0)
        || report.output.as_slice().iter().any(|v| !(v.abs() < SATURATION_LIMIT))
}

/// Runs one request's approximate pipeline and reduces it to its service
/// profile, keeping the run for a caller that serves its output.
/// `appended` is the token count a session-cache hit preprocesses (`None`
/// outside session serving, where the hit cost is the full cost).
pub(crate) fn profile(
    accel: &ElsaAccelerator,
    accel_config: &AcceleratorConfig,
    inputs: &AttentionInputs,
    appended: Option<usize>,
) -> Result<(PreparedRequest, RunReport), FitError> {
    let run = accel.try_run(inputs)?;
    let service_s = run.cycles.seconds(accel_config);
    let hit_service_s = appended.map_or(service_s, |appended| {
        let hit_cycles = run.cycles.total() - run.cycles.preprocessing
            + accel_config.preprocessing_cycles(appended);
        hit_cycles as f64 * accel_config.cycle_time_s()
    });
    let n_queries = inputs.num_queries();
    Ok((PreparedRequest { service_s, hit_service_s, n_queries, trips: guard_trips(&run) }, run))
}

/// Runs `run_one` over every request in index order — fanned out over
/// worker threads when Σ n²·d over the requests' `(n, d)` shapes clears the
/// `elsa_parallel` gate — and surfaces the first misfit as a typed error.
/// Results are bit-identical at any `ELSA_THREADS`.
pub(crate) fn precompute<T: Send>(
    shapes: impl ExactSizeIterator<Item = (usize, usize)>,
    run_one: impl Fn(usize) -> Result<T, FitError> + Sync,
) -> Result<Vec<T>, RuntimeError> {
    let len = shapes.len();
    let work: usize = shapes.map(|(n, d)| n.saturating_mul(n).saturating_mul(d)).sum();
    let runs: Vec<Result<T, FitError>> = if elsa_parallel::beneficial(work) && len > 1 {
        elsa_parallel::par_map_indexed(len, run_one)
    } else {
        (0..len).map(run_one).collect()
    };
    let mut prepared = Vec::with_capacity(runs.len());
    for (index, run) in runs.into_iter().enumerate() {
        prepared.push(run.map_err(|source| RuntimeError::Request { index, source })?);
    }
    Ok(prepared)
}

/// Checks a trace's `(id, arrival_ns)` pairs: arrivals sorted by time, ids
/// equal to the arrival-order indices. Trace fields are public, so a
/// hand-built trace can break what every constructor guarantees.
///
/// # Errors
///
/// Returns [`RuntimeError::UnorderedTrace`] naming the first request out of
/// order.
pub fn check_trace_order(
    requests: impl IntoIterator<Item = (usize, u64)>,
) -> Result<(), RuntimeError> {
    let mut last_arrival_ns = 0;
    for (index, (id, arrival_ns)) in requests.into_iter().enumerate() {
        if id != index || arrival_ns < last_arrival_ns {
            return Err(RuntimeError::UnorderedTrace { index });
        }
        last_arrival_ns = arrival_ns;
    }
    Ok(())
}

/// Precomputes the service profile of every arrival of a plain trace.
///
/// # Errors
///
/// Returns [`RuntimeError::Request`] for the first request that does not
/// fit the hardware.
pub(crate) fn prepare_entries(
    accel: &ElsaAccelerator,
    requests: &[ArrivalRequest],
) -> Result<Vec<PreparedRequest>, RuntimeError> {
    precompute(requests.iter().map(|r| (r.entry.pattern.n_real, r.entry.pattern.d)), |i| {
        let inputs = requests[i].entry.materialize();
        profile(accel, accel.config(), &inputs, None).map(|(prepared, _)| prepared)
    })
}

/// Precomputes the service profile of every turn of a session trace,
/// full-cost and cache-hit service seconds both.
///
/// # Errors
///
/// Returns [`RuntimeError::Request`] for the first turn that does not fit
/// the hardware.
pub fn prepare_turns(
    accel: &ElsaAccelerator,
    accel_config: &AcceleratorConfig,
    turns: &[SessionTurnRequest],
) -> Result<Vec<PreparedRequest>, RuntimeError> {
    precompute(turns.iter().map(|r| (r.entry.pattern.n_real, r.entry.pattern.d)), |i| {
        let inputs = turns[i].materialize();
        profile(accel, accel_config, &inputs, Some(turns[i].appended)).map(|(prepared, _)| prepared)
    })
}

/// Builds the admission entries of a plain trace: each request routes to
/// the bucket of its real length.
pub(crate) fn entry_admissions(
    batch: &BatchPolicy,
    requests: &[ArrivalRequest],
) -> Vec<QueuedRequest> {
    requests
        .iter()
        .map(|request| {
            let n_real = request.entry.pattern.n_real;
            QueuedRequest {
                id: request.id,
                arrival_ns: request.arrival_ns,
                deadline_ns: request.deadline_ns,
                n_real,
                bucket: batch.bucket_of(n_real),
            }
        })
        .collect()
}

/// Builds the admission entries of a session trace with **session
/// affinity**: the bucket is pinned when a session is first admitted (by
/// its prefill length) and every later turn follows it, even after the
/// context outgrows the bucket's bound. The pin map is deliberately
/// separate from the eviction registry — losing cached state must not
/// reshuffle a conversation across queues.
#[must_use]
pub fn session_admissions(
    batch: &BatchPolicy,
    turns: &[SessionTurnRequest],
) -> Vec<QueuedRequest> {
    let mut affinity: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
    turns
        .iter()
        .map(|request| {
            let bucket = *affinity
                .entry(request.session)
                .or_insert_with(|| batch.bucket_of(request.prefix_len));
            QueuedRequest {
                id: request.id,
                arrival_ns: request.arrival_ns,
                deadline_ns: request.deadline_ns,
                n_real: request.prefix_len,
                bucket,
            }
        })
        .collect()
}

/// A fresh tracker over `units` units with every plan-dead unit marked
/// dead. An all-dead result is a valid answer here: a fleet tolerates a
/// node that is dead on arrival, while a lone server rejects it as
/// [`RuntimeError::NoHealthyUnits`].
#[must_use]
pub fn plan_health(plan: &FaultPlan, units: usize, quarantine_after: u32) -> HealthTracker {
    let mut health = HealthTracker::new(units, quarantine_after);
    for unit in (0..units).filter(|&unit| plan.unit_dead(unit)) {
        health.mark_dead(unit);
    }
    health
}

/// Session bookkeeping threaded through one engine run: the node's decode
/// cache registry plus hit/cold/stale classification against the trace's
/// turns.
#[derive(Debug)]
pub struct SessionBook<'a> {
    registry: SessionRegistry,
    /// The trace's turns, indexed by request id.
    meta: &'a [SessionTurnRequest],
    hits: u64,
    cold: u64,
    stale: u64,
    rebuilt_tokens: u64,
}

impl<'a> SessionBook<'a> {
    /// A fresh book over `meta` (the full trace's turns, indexed by
    /// request id — an engine serving a subset still indexes into the
    /// shared slice).
    #[must_use]
    pub const fn new(registry: SessionRegistry, meta: &'a [SessionTurnRequest]) -> Self {
        Self { registry, meta, hits: 0, cold: 0, stale: 0, rebuilt_tokens: 0 }
    }

    /// Whether the turn's session holds exactly the prefix the turn expects
    /// (read-only; the registry is committed only when the turn is served).
    fn is_hit(&self, m: &SessionTurnRequest) -> bool {
        let expected = m.prefix_len - m.appended;
        expected > 0 && self.registry.cached_len(m.session) == Some(expected)
    }

    /// The book's final cache statistics.
    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            cold: self.cold,
            stale: self.stale,
            rebuilt_tokens: self.rebuilt_tokens,
            evictions: self.registry.evictions(),
            peak_bytes: self.registry.peak_bytes(),
        }
    }
}

/// Everything one engine run leaves behind: the per-request record slots
/// (indexed by trace id; `None` where this engine never finished the
/// request), per-bucket dispatch accounting, cache statistics when session
/// serving was on, and the final unit-health snapshot.
#[derive(Debug)]
pub struct NodeParts {
    /// One slot per trace id; `Some` exactly where this engine decided the
    /// request's outcome.
    pub slots: Vec<Option<OnlineRecord>>,
    /// Dispatch accounting per length bucket.
    pub bucket_stats: Vec<BucketStats>,
    /// Decode-cache behavior, when the engine carried a [`SessionBook`].
    pub cache: Option<CacheStats>,
    /// Unit health at the end of the run.
    pub health: HealthSnapshot,
}

/// Mutable state of one serving run: the serial event loop of one node.
pub struct NodeEngine<'a> {
    accel: &'a ElsaAccelerator,
    plan: FaultPlan,
    cfg: &'a ServeConfig,
    prepared: &'a [PreparedRequest],
    inputs: &'a dyn Fn(usize) -> AttentionInputs,
    clock: VirtualClock,
    queue: AdmissionQueue,
    free_at: Vec<f64>,
    health: HealthTracker,
    slots: Vec<Option<OnlineRecord>>,
    stats: Vec<BucketStats>,
    sessions: Option<SessionBook<'a>>,
    service_scale: f64,
}

impl std::fmt::Debug for NodeEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeEngine").field("now_ns", &self.clock.now_ns()).finish_non_exhaustive()
    }
}

impl<'a> NodeEngine<'a> {
    /// A fresh engine over an accelerator pool. `prepared` is the *whole*
    /// trace's precompute, indexed by request id — an engine that serves
    /// only a routed subset still sizes its record slots to the full
    /// trace, so fleet-level merges are a positional union. `inputs`
    /// regenerates a request's attention inputs by id; the engine calls it
    /// only to time a padded batch member that actually pads.
    #[must_use]
    pub fn new(
        accel: &'a ElsaAccelerator,
        plan: FaultPlan,
        cfg: &'a ServeConfig,
        prepared: &'a [PreparedRequest],
        inputs: &'a dyn Fn(usize) -> AttentionInputs,
        health: HealthTracker,
    ) -> Self {
        let units = accel.config().num_accelerators;
        Self {
            accel,
            plan,
            cfg,
            prepared,
            inputs,
            clock: VirtualClock::new(),
            queue: AdmissionQueue::new(cfg.batch.num_buckets(), cfg.queue_capacity),
            free_at: vec![0.0f64; units],
            health,
            slots: (0..prepared.len()).map(|_| None).collect(),
            stats: cfg
                .batch
                .length_buckets
                .iter()
                .map(|&bound| BucketStats { bound, ..BucketStats::default() })
                .collect(),
            sessions: None,
            service_scale: 1.0,
        }
    }

    /// Attaches session bookkeeping (the decode cache model).
    #[must_use]
    pub fn with_sessions(mut self, book: SessionBook<'a>) -> Self {
        self.sessions = Some(book);
        self
    }

    /// Applies a uniform slow-node factor to every charged service time.
    /// Scale `1.0` is bit-transparent (`x × 1.0 ≡ x` for finite `x`), so a
    /// healthy node's records are unchanged by this hook existing.
    ///
    /// # Panics
    ///
    /// Panics unless `scale ≥ 1` and finite.
    #[must_use]
    pub fn with_service_scale(mut self, scale: f64) -> Self {
        assert!(scale >= 1.0 && scale.is_finite(), "service scale must be ≥ 1, got {scale}");
        self.service_scale = scale;
        self
    }

    /// Current virtual instant.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Advances the engine's clock (monotone; panics on a backward step).
    pub fn advance_to(&mut self, t_ns: u64) {
        self.clock.advance_to(t_ns);
    }

    /// Instantaneous backlog in seconds per available unit: remaining busy
    /// time on the units plus the full-cost service of everything queued,
    /// divided by the available-unit count (`+∞` when no unit is
    /// available). This is the router's load signal — a *pure read* of
    /// engine state, so routing policies built on it stay deterministic.
    #[must_use]
    pub fn backlog_s(&self) -> f64 {
        let avail = self.health.available_units();
        if avail.is_empty() {
            return f64::INFINITY;
        }
        let now_s = self.clock.now_s();
        let busy = sum_f64(avail.iter().map(|&u| (self.free_at[u] - now_s).max(0.0)));
        let queued = sum_f64(
            self.queue.iter().map(|r| self.prepared[r.id].service_s * self.service_scale),
        );
        (busy + queued) / avail.len() as f64
    }

    /// Drains every queued request *without* recording an outcome, in
    /// global arrival order (ties by id) — the evacuation path when this
    /// node dies and its waiters must be re-routed by the caller.
    pub fn evacuate(&mut self) -> Vec<QueuedRequest> {
        let mut evacuated = Vec::with_capacity(self.queue.len());
        for bucket in 0..self.cfg.batch.num_buckets() {
            evacuated.extend(self.queue.drain_bucket(bucket, usize::MAX));
        }
        evacuated.sort_by_key(|r| (r.arrival_ns, r.id));
        evacuated
    }

    /// Drops every resident session from the node's decode cache (the
    /// node died; its incremental state is gone). Lifetime counters
    /// (evictions, peak bytes) survive — they are accounting, not state.
    pub fn clear_session_cache(&mut self) {
        if let Some(s) = &mut self.sessions {
            s.registry.clear();
        }
    }

    /// Consumes the engine, returning its records and accounting.
    #[must_use]
    pub fn into_parts(self) -> NodeParts {
        NodeParts {
            health: self.health.snapshot(),
            cache: self.sessions.as_ref().map(SessionBook::stats),
            slots: self.slots,
            bucket_stats: self.stats,
        }
    }

    /// Dispatches every bucket whose batching window expires at or before
    /// `horizon_ns`, in expiry order, advancing the clock to each expiry.
    pub fn flush_expired(&mut self, horizon_ns: u64) {
        while let Some((expiry, bucket)) = self.queue.earliest_expiry(self.cfg.batch.max_wait_ns)
        {
            if expiry > horizon_ns {
                break;
            }
            self.clock.advance_to(expiry.max(self.clock.now_ns()));
            self.dispatch_bucket(bucket);
        }
    }

    /// Admits one arrival at the current instant, applying backpressure if
    /// the queue is full and dispatching its bucket if that fills it.
    pub fn admit(&mut self, request: QueuedRequest) {
        if self.queue.is_full() {
            match self.cfg.backpressure {
                Backpressure::ShedNewest => {
                    let now_s = self.clock.now_s();
                    self.finish(request, 0.0, 0.0, now_s, 0, Outcome::ShedQueueFull);
                    return;
                }
                Backpressure::ShedOldest => {
                    // elsa-lint: allow(panic-policy) reason="is_full() implies the queue is nonempty, so an oldest victim always exists"
                    let victim = self.queue.pop_oldest().expect("full queue is nonempty");
                    let now_s = self.clock.now_s();
                    let delay = now_s - ns_to_secs(victim.arrival_ns);
                    self.finish(victim, delay, 0.0, now_s, 0, Outcome::ShedQueueFull);
                }
                Backpressure::Block => {
                    // elsa-lint: allow(panic-policy) reason="is_full() implies the queue is nonempty, so an oldest bucket always exists"
                    let bucket = self.queue.oldest_bucket().expect("full queue is nonempty");
                    self.dispatch_bucket(bucket);
                }
            }
        }
        self.queue.push(request);
        if self.queue.bucket_len(request.bucket) >= self.cfg.batch.max_batch {
            self.dispatch_bucket(request.bucket);
        }
    }

    /// Forms a batch from one bucket at the current instant and dispatches
    /// its members in FIFO order.
    fn dispatch_bucket(&mut self, bucket: usize) {
        let batch = self.queue.drain_bucket(bucket, self.cfg.batch.max_batch);
        if batch.is_empty() {
            return;
        }
        self.stats[bucket].batches += 1;
        self.stats[bucket].requests += batch.len() as u64;
        // Padding is a formation-time decision: the batch maxima (key rows
        // and query rows) are fixed over everything drained, before
        // deadline checks, exactly as a pad-to-max kernel launch would be
        // shaped.
        let (padded_n, padded_q) = match self.cfg.mode {
            BatcherMode::Bucketed => (0, 0),
            BatcherMode::Padded => (
                batch.iter().map(|r| r.n_real).max().unwrap_or(0),
                batch.iter().map(|r| self.prepared[r.id].n_queries).max().unwrap_or(0),
            ),
        };
        for request in batch {
            self.stats[bucket].real_rows += request.n_real as u64;
            let charged = match self.cfg.mode {
                BatcherMode::Bucketed => self.bucketed_service_s(request.id),
                BatcherMode::Padded => {
                    self.stats[bucket].padded_rows += (padded_n - request.n_real) as u64;
                    self.padded_service_s(&request, padded_n, padded_q)
                }
            };
            self.dispatch_one(request, charged * self.service_scale);
        }
    }

    /// The bucketed (real-length) service seconds of one request: the
    /// cache-discounted hit cost when session serving holds the expected
    /// prefix, the full precomputed cost otherwise. Read-only — the
    /// registry commits in [`commit_session`](Self::commit_session), which
    /// runs before the next request of the batch is charged, so the
    /// classification made here is the one committed.
    fn bucketed_service_s(&self, id: usize) -> f64 {
        match &self.sessions {
            Some(s) if s.is_hit(&s.meta[id]) => self.prepared[id].hit_service_s,
            _ => self.prepared[id].service_s,
        }
    }

    /// Session bookkeeping for one *served* turn: classify hit/cold/stale
    /// against the registry, then commit the session's new context length
    /// (or release it on its final turn). Dropped turns never reach this,
    /// so a shed/timed-out/failed turn leaves the cached state behind —
    /// the session's next turn then misses and rebuilds from scratch.
    fn commit_session(&mut self, id: usize) {
        let Some(s) = &mut self.sessions else { return };
        let m = &s.meta[id];
        let expected = m.prefix_len - m.appended;
        if expected == 0 {
            s.cold += 1;
        } else if s.registry.cached_len(m.session) == Some(expected) {
            s.hits += 1;
        } else {
            s.stale += 1;
            s.rebuilt_tokens += expected as u64;
        }
        if m.last_turn {
            s.registry.remove(m.session);
        } else {
            s.registry.commit(m.session, m.prefix_len);
        }
    }

    /// The service seconds of one request padded with zero rows to the
    /// batch maxima — `padded_q` query rows, `padded_n` key/value rows —
    /// the GPU-emulation cost. Falls back to the precomputed time when no
    /// padding is needed; otherwise re-materializes the request's inputs
    /// through the engine's lookup and times the padded run.
    fn padded_service_s(&self, request: &QueuedRequest, padded_n: usize, padded_q: usize) -> f64 {
        let p = &self.prepared[request.id];
        if padded_n <= request.n_real && padded_q <= p.n_queries {
            return p.service_s;
        }
        let inputs = (self.inputs)(request.id);
        let pad = |m: &Matrix, rows: usize| m.vstack(&Matrix::zeros(rows - m.rows(), m.cols()));
        let padded = AttentionInputs::new(
            pad(inputs.query(), padded_q),
            pad(inputs.key(), padded_n),
            pad(inputs.value(), padded_n),
        );
        self.accel.run(&padded).cycles.seconds(self.accel.config())
    }

    /// Routes one request through deadline checks and the failover loop.
    fn dispatch_one(&mut self, request: QueuedRequest, charged_service: f64) {
        let now_ns = self.clock.now_ns();
        let now_s = self.clock.now_s();
        let waited_s = now_s - ns_to_secs(request.arrival_ns);
        if let Some(deadline) = request.deadline_ns {
            if deadline < now_ns {
                self.finish(request, waited_s, 0.0, now_s, 0, Outcome::TimedOut);
                return;
            }
            if self.cfg.shed_unmeetable {
                let earliest = self
                    .health
                    .available_units()
                    .into_iter()
                    .map(|u| self.free_at[u])
                    .min_by(f64::total_cmp);
                if let Some(earliest) = earliest {
                    if earliest.max(now_s) + charged_service > ns_to_secs(deadline) {
                        self.finish(request, waited_s, 0.0, now_s, 0, Outcome::ShedUnmeetable);
                        return;
                    }
                }
            }
        }
        let mut retries = 0u32;
        let mut attempt = 0u32;
        loop {
            // FIFO over survivors: the available unit that frees first
            // (first minimum, matching the offline `InferenceServer`).
            let Some(unit) = self.health.available_units().into_iter().min_by(|&a, &b| {
                self.free_at[a].total_cmp(&self.free_at[b])
            }) else {
                // Quarantine is probation, not death: reinstate and retry
                // (circuit-breaker half-open), unless the pool is truly
                // dead.
                for u in 0..self.free_at.len() {
                    self.health.reinstate(u);
                }
                if self.health.num_available() == 0 {
                    let gave_up = self.free_at.iter().copied().fold(now_s, f64::max);
                    self.finish(request, waited_s, 0.0, gave_up, retries, Outcome::Failed);
                    return;
                }
                continue;
            };
            let start = self.free_at[unit].max(now_s);
            let slowdown = self.plan.straggler_factor(unit, request.id);
            if self.plan.transient_fault(unit, request.id, attempt) {
                // The failed attempt still occupied the unit.
                self.free_at[unit] = start + charged_service * slowdown;
                self.health.record_fault(unit);
                retries += 1;
                attempt += 1;
                if retries > self.cfg.max_retries {
                    let gave_up = self.free_at[unit];
                    self.finish(request, waited_s, 0.0, gave_up, retries, Outcome::Failed);
                    return;
                }
                continue;
            }
            self.health.record_success(unit);
            let prepared = &self.prepared[request.id];
            let (service_s, degraded) = if prepared.trips || self.plan.corrupts(unit, request.id) {
                // Degrade to exact attention: charge the base-mode cycle
                // model, the same cycles `run_base_streaming` reports.
                let config = self.accel.config();
                let base = simulate_execution_base(config, request.n_real, prepared.n_queries);
                ((charged_service + base.seconds(config)) * slowdown, true)
            } else {
                (charged_service * slowdown, false)
            };
            self.free_at[unit] = start + service_s;
            let completion_s = self.free_at[unit];
            let queue_delay_s = start - ns_to_secs(request.arrival_ns);
            self.commit_session(request.id);
            self.finish(
                request,
                queue_delay_s,
                service_s,
                completion_s,
                retries,
                Outcome::Served { degraded },
            );
            return;
        }
    }

    /// Writes the single record a request is allowed.
    fn finish(
        &mut self,
        request: QueuedRequest,
        queue_delay_s: f64,
        service_s: f64,
        completion_s: f64,
        retries: u32,
        outcome: Outcome,
    ) {
        let slot = &mut self.slots[request.id];
        assert!(slot.is_none(), "request {} accounted twice", request.id);
        *slot = Some(OnlineRecord {
            id: request.id,
            n_real: request.n_real,
            bucket: request.bucket,
            arrival_ns: request.arrival_ns,
            deadline_ns: request.deadline_ns,
            decided_ns: self.clock.now_ns(),
            queue_delay_s,
            service_s,
            completion_s,
            retries,
            outcome,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::{guard_trips, AcceleratorConfig, ElsaAccelerator, Matrix, PreparedRequest};
    use elsa_core::attention::{ElsaAttention, ElsaParams};
    use elsa_linalg::SeededRng;
    use elsa_workloads::{DatasetKind, ModelKind, Workload};

    #[test]
    fn a_service_profile_is_a_few_scalars() {
        assert!(std::mem::size_of::<PreparedRequest>() <= 40);
    }

    /// A corrupted result is modelled as one the guard catches, so every
    /// poison class must trip `guard_trips` on a real accelerator report.
    #[test]
    fn guard_trips_on_every_poison_class_and_nothing_else() {
        let workload = Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M };
        let inputs = workload.generate_batch(1, &mut SeededRng::new(3));
        let params = ElsaParams::for_dims(64, 64, &mut SeededRng::new(4));
        let operator = ElsaAttention::learn(params, &inputs, 1.0);
        let config = AcceleratorConfig { n_max: 200, ..AcceleratorConfig::paper() };
        let clean = ElsaAccelerator::new(config, operator).run(&inputs[0]);
        assert!(clean.stats.num_queries > 0 && clean.stats.selected_pairs > 0);
        assert!(!guard_trips(&clean), "an unmodified report must pass");

        let last = (clean.output.rows() - 1, clean.output.cols() - 1);
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MAX] {
            let mut report = clean.clone();
            report.output[last] = poison;
            assert!(guard_trips(&report), "output value {poison} evades the guard");
        }

        let mut empty_candidates = clean.clone();
        empty_candidates.stats.selected_pairs = 0;
        assert!(guard_trips(&empty_candidates), "an empty candidate set evades the guard");

        let mut no_queries = clean;
        no_queries.output = Matrix::zeros(0, no_queries.output.cols());
        no_queries.stats.num_queries = 0;
        no_queries.stats.selected_pairs = 0;
        assert!(!guard_trips(&no_queries), "an empty query set selects nothing legitimately");
    }
}
