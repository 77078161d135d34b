//! Serving-style simulation: a stream of variable-length attention requests
//! through the twelve-accelerator deployment.
//!
//! Real serving traffic (the paper's SQuAD/MovieLens datasets) mixes
//! sequence lengths; because ELSA skips padding, short requests finish
//! early, and request-level latency percentiles — not just means — decide
//! deployability. This module models a simple FIFO dispatcher: requests are
//! assigned to accelerators in arrival order, each accelerator serializes
//! its queue, and per-request completion times fall out.

use elsa_attention::exact::AttentionInputs;
use elsa_core::ElsaAttention;
use elsa_linalg::ops;
use elsa_linalg::reduce::sum_f64;
use elsa_sim::{AcceleratorConfig, ElsaAccelerator};

use crate::error::RuntimeError;

/// Completion record of one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// Number of real entities in the request.
    pub n_real: usize,
    /// Pure execution latency on its accelerator.
    pub service_s: f64,
    /// Time from arrival (all requests arrive at t = 0) to completion,
    /// including queueing behind earlier requests. For a failed request this
    /// is the time at which the dispatcher gave up.
    pub completion_s: f64,
    /// The approximate pipeline tripped a numeric guard and the request was
    /// served by exact attention instead.
    pub degraded: bool,
    /// Failed attempts (transient faults) before the final outcome.
    pub retries: u32,
    /// The request was never served: retry budget exhausted, or no healthy
    /// unit remained.
    pub failed: bool,
}

impl RequestRecord {
    /// A record for a request served cleanly on the first attempt (the only
    /// outcome the fault-free [`InferenceServer`] produces).
    #[must_use]
    pub const fn served(n_real: usize, service_s: f64, completion_s: f64) -> Self {
        Self { n_real, service_s, completion_s, degraded: false, retries: 0, failed: false }
    }
}

/// Aggregated serving metrics.
///
/// Latency and throughput statistics are computed **over the survivors**
/// (records with `failed == false`): a request the dispatcher gave up on has
/// no meaningful completion latency, and folding its give-up time into a
/// percentile would reward fast failures. Empty and all-failed record sets
/// yield `0.0` everywhere — never `NaN`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Per-request records, in arrival order.
    pub records: Vec<RequestRecord>,
}

impl ServingReport {
    fn survivors(&self) -> impl Iterator<Item = &RequestRecord> {
        self.records.iter().filter(|r| !r.failed)
    }

    /// Completion-time percentile (e.g. 50.0, 95.0, 99.0) over the
    /// survivors; `0.0` when no request survived.
    ///
    /// `q` is clamped to `[0, 100]` (the `[0, 1]` quantile range) before it
    /// reaches `ops::percentile`, so an out-of-range quantile from a caller
    /// computing e.g. `100.0 * (1.0 + eps)` degrades to the max, never to an
    /// out-of-bounds rank.
    #[must_use]
    pub fn completion_percentile_s(&self, q: f64) -> f64 {
        let times: Vec<f64> = self.survivors().map(|r| r.completion_s).collect();
        if times.is_empty() {
            0.0
        } else {
            ops::percentile(&times, q.clamp(0.0, 100.0))
        }
    }

    /// Mean pure service time over the survivors; `0.0` when no request
    /// survived.
    #[must_use]
    pub fn mean_service_s(&self) -> f64 {
        let count = self.survivors().count();
        if count == 0 {
            0.0
        } else {
            sum_f64(self.survivors().map(|r| r.service_s)) / count as f64
        }
    }

    /// Aggregate throughput: surviving requests divided by their last
    /// completion time; `0.0` when no request survived.
    #[must_use]
    pub fn throughput_per_s(&self) -> f64 {
        let makespan = self.survivors().map(|r| r.completion_s).fold(0.0f64, f64::max);
        if makespan == 0.0 {
            0.0
        } else {
            self.survivors().count() as f64 / makespan
        }
    }

    /// Requests served (approximately or degraded-to-exact).
    #[must_use]
    pub fn served_count(&self) -> usize {
        self.survivors().count()
    }

    /// Requests the dispatcher gave up on.
    #[must_use]
    pub fn failed_count(&self) -> usize {
        self.records.len() - self.served_count()
    }

    /// Requests that fell back to exact attention after a numeric guard
    /// tripped.
    #[must_use]
    pub fn degraded_count(&self) -> usize {
        self.records.iter().filter(|r| r.degraded).count()
    }

    /// Total failed attempts across all requests (including requests that
    /// ultimately failed).
    #[must_use]
    pub fn total_retries(&self) -> u64 {
        self.records.iter().map(|r| u64::from(r.retries)).sum()
    }
}

/// A FIFO multi-accelerator inference server around one trained operator.
#[derive(Debug)]
pub struct InferenceServer {
    accel: ElsaAccelerator,
}

impl InferenceServer {
    /// Builds the server.
    ///
    /// # Panics
    ///
    /// Panics if the operator does not fit the hardware configuration; see
    /// [`InferenceServer::try_new`] for the non-panicking form.
    #[must_use]
    pub fn new(accel_config: AcceleratorConfig, operator: ElsaAttention) -> Self {
        match Self::try_new(accel_config, operator) {
            Ok(server) => server,
            // elsa-lint: allow(panic-policy) reason="documented # Panics wrapper; try_new is the serving-path form"
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the server, reporting an operator/hardware misfit as a typed
    /// error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Misfit`] when the hardware configuration is
    /// invalid or the operator's dimensions do not match it.
    pub fn try_new(
        accel_config: AcceleratorConfig,
        operator: ElsaAttention,
    ) -> Result<Self, RuntimeError> {
        Ok(Self { accel: ElsaAccelerator::try_new(accel_config, operator)? })
    }

    /// Serves a batch of requests arriving simultaneously, dispatching them
    /// FIFO over the configured number of accelerators.
    ///
    /// Request simulations are independent of each other, so they fan out
    /// across worker threads when the batch is large; the FIFO assignment of
    /// completion times is then folded serially in arrival order, so the
    /// report is identical at any worker count.
    ///
    /// # Panics
    ///
    /// Panics if any request exceeds the hardware's `n_max`; see
    /// [`InferenceServer::try_serve`] for the non-panicking form.
    #[must_use]
    pub fn serve(&self, requests: &[AttentionInputs]) -> ServingReport {
        match self.try_serve(requests) {
            Ok(report) => report,
            // elsa-lint: allow(panic-policy) reason="documented # Panics wrapper; try_serve is the serving-path form"
            Err(e) => panic!("{e}"),
        }
    }

    /// Serves a batch, reporting a request that does not fit the hardware
    /// as a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Request`] naming the first offending request
    /// when one exceeds the hardware's `n_max` or has the wrong head
    /// dimension; the batch is rejected before any work is simulated.
    pub fn try_serve(&self, requests: &[AttentionInputs]) -> Result<ServingReport, RuntimeError> {
        let accel = &self.accel;
        for (index, request) in requests.iter().enumerate() {
            accel
                .try_check_fit(request)
                .map_err(|source| RuntimeError::Request { index, source })?;
        }
        let run_one = |i: usize| accel.run(&requests[i]).cycles.seconds(accel.config());
        let work: usize = requests
            .iter()
            .map(|r| r.num_queries().saturating_mul(r.num_keys()).saturating_mul(r.dim()))
            .sum();
        let service_times: Vec<f64> = if elsa_parallel::beneficial(work) && requests.len() > 1 {
            elsa_parallel::par_map_indexed(requests.len(), run_one)
        } else {
            (0..requests.len()).map(run_one).collect()
        };
        let mut free_at = vec![0.0f64; accel.config().num_accelerators];
        let mut records = Vec::with_capacity(requests.len());
        for (request, service) in requests.iter().zip(service_times) {
            // FIFO: take the accelerator that frees up first. First minimum,
            // so ties keep the lowest unit index; a plain scan avoids any
            // panicking comparator (try_validate guarantees the pool is
            // nonempty).
            let mut idx = 0usize;
            for (j, &t) in free_at.iter().enumerate() {
                if t < free_at[idx] {
                    idx = j;
                }
            }
            free_at[idx] += service;
            records.push(RequestRecord::served(request.num_keys(), service, free_at[idx]));
        }
        Ok(ServingReport { records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsa_core::attention::ElsaParams;
    use elsa_linalg::SeededRng;
    use elsa_workloads::{DatasetKind, ModelKind, Workload};

    fn server(seed: u64) -> InferenceServer {
        server_with_units(seed, AcceleratorConfig::paper().num_accelerators)
    }

    fn server_with_units(seed: u64, num_accelerators: usize) -> InferenceServer {
        let workload = Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M };
        let mut rng = SeededRng::new(seed);
        let train = workload.generate_batch(1, &mut rng);
        let operator = ElsaAttention::learn(
            ElsaParams::for_dims(64, 64, &mut SeededRng::new(seed + 1)),
            &train,
            1.0,
        );
        InferenceServer::new(
            AcceleratorConfig { n_max: 200, num_accelerators, ..AcceleratorConfig::paper() },
            operator,
        )
    }

    fn requests(count: usize, seed: u64) -> Vec<AttentionInputs> {
        let workload = Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M };
        let mut rng = SeededRng::new(seed);
        workload.generate_batch(count, &mut rng)
    }

    #[test]
    fn percentiles_are_ordered() {
        let server = server(1);
        let report = server.serve(&requests(24, 2));
        let p50 = report.completion_percentile_s(50.0);
        let p95 = report.completion_percentile_s(95.0);
        let p99 = report.completion_percentile_s(99.0);
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p50 > 0.0);
    }

    #[test]
    fn percentile_quantile_is_clamped() {
        let report = ServingReport {
            records: vec![
                RequestRecord::served(10, 1.0, 1.0),
                RequestRecord::served(10, 1.0, 2.0),
                RequestRecord::served(10, 1.0, 3.0),
            ],
        };
        // Out-of-range quantiles clamp to the extremes instead of indexing
        // out of bounds or extrapolating.
        assert_eq!(report.completion_percentile_s(-10.0), 1.0);
        assert_eq!(report.completion_percentile_s(0.0), 1.0);
        assert_eq!(report.completion_percentile_s(100.0), 3.0);
        assert_eq!(report.completion_percentile_s(250.0), 3.0);
    }

    #[test]
    fn short_requests_have_short_service() {
        let server = server(3);
        let report = server.serve(&requests(24, 4));
        // Service time must correlate with request length: compare the
        // shortest and longest requests directly.
        let min = report.records.iter().min_by_key(|r| r.n_real).expect("nonempty");
        let max = report.records.iter().max_by_key(|r| r.n_real).expect("nonempty");
        if max.n_real > min.n_real + 40 {
            assert!(max.service_s > min.service_s, "padding-free service times");
        }
    }

    #[test]
    fn throughput_scales_with_accelerators() {
        let workload_requests = requests(48, 5);
        let one = server_with_units(6, 1).serve(&workload_requests).throughput_per_s();
        let twelve = server_with_units(6, 12).serve(&workload_requests).throughput_per_s();
        let ratio = twelve / one;
        assert!(ratio > 6.0, "12-accelerator scaling only {ratio}x");
    }

    #[test]
    fn empty_request_stream() {
        let server = server(7);
        let report = server.serve(&[]);
        assert_eq!(report.throughput_per_s(), 0.0);
        assert_eq!(report.mean_service_s(), 0.0);
        assert_eq!(report.completion_percentile_s(99.0), 0.0);
        assert_eq!(report.served_count(), 0);
        assert_eq!(report.failed_count(), 0);
    }

    #[test]
    fn all_failed_records_yield_zero_metrics_without_nan() {
        let report = ServingReport {
            records: vec![
                RequestRecord {
                    n_real: 10,
                    service_s: 0.0,
                    completion_s: 1.0,
                    degraded: false,
                    retries: 3,
                    failed: true,
                },
                RequestRecord {
                    n_real: 20,
                    service_s: 0.0,
                    completion_s: 2.0,
                    degraded: false,
                    retries: 5,
                    failed: true,
                },
            ],
        };
        for value in [
            report.throughput_per_s(),
            report.mean_service_s(),
            report.completion_percentile_s(50.0),
            report.completion_percentile_s(99.0),
        ] {
            assert_eq!(value, 0.0, "all-failed batches must report 0, never NaN");
            assert!(!value.is_nan());
        }
        assert_eq!(report.served_count(), 0);
        assert_eq!(report.failed_count(), 2);
        assert_eq!(report.total_retries(), 8);
    }

    #[test]
    fn failed_records_are_excluded_from_latency_metrics() {
        let served = RequestRecord::served(10, 2.0, 4.0);
        let failed = RequestRecord {
            n_real: 10,
            service_s: 0.0,
            // A fast give-up must not drag percentiles down, nor a slow one
            // inflate the makespan.
            completion_s: 1000.0,
            degraded: false,
            retries: 16,
            failed: true,
        };
        let report = ServingReport { records: vec![served, failed] };
        assert_eq!(report.completion_percentile_s(99.0), 4.0);
        assert_eq!(report.mean_service_s(), 2.0);
        assert_eq!(report.throughput_per_s(), 1.0 / 4.0);
        assert_eq!(report.served_count(), 1);
        assert_eq!(report.failed_count(), 1);
        assert_eq!(report.total_retries(), 16);
    }

    #[test]
    fn try_new_rejects_misfit_operator_without_panicking() {
        let workload = Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M };
        let mut rng = SeededRng::new(11);
        let train = workload.generate_batch(1, &mut rng);
        let operator = ElsaAttention::learn(
            ElsaParams::for_dims(64, 64, &mut SeededRng::new(12)),
            &train,
            1.0,
        );
        let config = AcceleratorConfig { d: 32, ..AcceleratorConfig::paper() };
        let err = InferenceServer::try_new(config, operator).expect_err("operator d = 64 vs 32");
        assert!(err.to_string().contains("does not fit hardware d"));
    }

    #[test]
    fn try_serve_rejects_oversized_request_without_panicking() {
        let server = server(13);
        let workload = Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M };
        let mut rng = SeededRng::new(14);
        let mut batch = workload.generate_batch(3, &mut rng);
        // server() caps the hardware at n_max = 200.
        let mut oversized_rng = SeededRng::new(15);
        let mut mk =
            || elsa_linalg::Matrix::from_fn(300, 64, |_, _| oversized_rng.standard_normal() as f32);
        batch.insert(1, AttentionInputs::new(mk(), mk(), mk()));
        let err = server.try_serve(&batch).expect_err("request 1 exceeds n_max");
        assert!(matches!(err, crate::RuntimeError::Request { index: 1, .. }));
        assert!(err.to_string().contains("exceeds hardware n_max"));
    }

    #[test]
    fn serve_is_identical_serial_and_parallel() {
        // The per-request fan-out must not change a single bit of the report:
        // same service times, same FIFO completion times, any worker count.
        let server = server(8);
        let batch = requests(24, 9);
        let serial = elsa_parallel::with_threads(1, || server.serve(&batch));
        let parallel = elsa_parallel::with_threads(4, || server.serve(&batch));
        assert_eq!(serial, parallel);
    }
}
