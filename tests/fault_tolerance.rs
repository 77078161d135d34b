//! Chaos battery for the seeded fault plans and fault-tolerant batch
//! serving (`OnlineServer::serve_batch` under immediate dispatch).
//!
//! Four promises are under test, per the fault-tolerance design:
//!
//! * **(a) Zero faults are free** — with a zero-fault [`FaultPlan`], the
//!   fault-tolerant batch's report is bit-for-bit identical
//!   (`f64::to_bits`, never an epsilon) to the plain `InferenceServer`, at
//!   any `ELSA_THREADS`.
//! * **(b) Failover completes everything** — under injected unit death
//!   with at least one survivor, every request completes, with no
//!   duplicated or dropped `RequestRecord`s.
//! * **(c) Corruption never escapes** — a result the plan marks corrupted
//!   (a NaN/∞/saturated value or empty candidate set, the classes the
//!   serving guard catches) always triggers the exact-attention fallback;
//!   a NaN is never served.
//! * **(d) One dispatch loop** — the batch path is the online pipeline: its
//!   report equals `serve(&ArrivalTrace::simultaneous(..))` projected onto
//!   the offline vocabulary, bit for bit, under chaotic plans.
//!
//! Reproduce any failure with the reported seed:
//! `ELSA_TESTKIT_SEED=0x... cargo test --test fault_tolerance`.

use std::sync::OnceLock;

use elsa::algorithm::attention::{ElsaAttention, ElsaParams};
use elsa::attention::exact::{self, AttentionInputs};
use elsa::fault::{FaultPlan, FaultRates};
use elsa::linalg::{Matrix, SeededRng};
use elsa::parallel::with_threads;
use elsa::runtime::{InferenceServer, RuntimeError};
use elsa::serve::{ArrivalTrace, OnlineServer, ServeConfig};
use elsa::sim::cost::EnergyBreakdown;
use elsa::sim::cycle::simulate_execution;
use elsa::sim::{AcceleratorConfig, ElsaAccelerator};
use elsa::workloads::{DatasetKind, ModelKind, Workload, WorkloadTrace};
use elsa_testkit::prelude::*;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn config() -> AcceleratorConfig {
    AcceleratorConfig { n_max: 200, num_accelerators: 4, ..AcceleratorConfig::paper() }
}

/// One learned operator shared by the whole battery (learning is the
/// expensive step and is orthogonal to the fault layer).
fn operator() -> &'static ElsaAttention {
    static OPERATOR: OnceLock<ElsaAttention> = OnceLock::new();
    OPERATOR.get_or_init(|| {
        let workload = Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M };
        let mut rng = SeededRng::new(0xE15A);
        let train = workload.generate_batch(1, &mut rng);
        ElsaAttention::learn(ElsaParams::for_dims(64, 64, &mut SeededRng::new(0xE15B)), &train, 1.0)
    })
}

/// Fault-tolerant batch serving: immediate dispatch under `plan`.
fn batch_server(plan: FaultPlan) -> OnlineServer {
    OnlineServer::new(config(), operator().clone(), plan, ServeConfig::immediate())
}

fn requests(count: usize, seed: u64) -> Vec<AttentionInputs> {
    let workload = Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M };
    let mut rng = SeededRng::new(seed);
    workload.generate_batch(count, &mut rng)
}

fn record_bits(report: &elsa::runtime::ServingReport) -> Vec<(usize, u64, u64, bool, u32, bool)> {
    report
        .records
        .iter()
        .map(|r| {
            (r.n_real, r.service_s.to_bits(), r.completion_s.to_bits(), r.degraded, r.retries, r.failed)
        })
        .collect()
}

fn matrix_bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

props! {
    config: Config::with_cases(6);

    // (a) A zero-fault plan is bit-identical to the plain server, at any
    // worker count, and the fault-tolerant path agrees with itself across
    // worker counts.
    fn zero_fault_plan_is_bit_identical_to_plain_serving(
        count in ints(6, 14),
        batch_seed in ints_u64(1, 1 << 32),
        widx in ints(0, 4),
    ) {
        let batch = requests(count, batch_seed);
        let plain = InferenceServer::new(config(), operator().clone());
        let server = batch_server(FaultPlan::none());
        let baseline = with_threads(1, || plain.serve(&batch));
        let served = with_threads(WORKER_COUNTS[widx], || server.serve_batch(&batch))
            .expect("zero-fault plan cannot fail");
        prop_assert_eq!(record_bits(&baseline), record_bits(&served.report));
        // Outputs are the approximate pipeline's, bit-for-bit.
        let accel = ElsaAccelerator::new(config(), operator().clone());
        for (request, output) in batch.iter().zip(&served.outputs) {
            let output = output.as_ref().expect("no faults, no failures");
            prop_assert_eq!(matrix_bits(output), matrix_bits(&accel.run(request).output));
        }
    }

    // (b) Unit death with >= 1 survivor: every request completes via
    // failover, no records duplicated or dropped.
    fn unit_death_fails_over_and_accounts_for_every_request(
        count in ints(6, 14),
        batch_seed in ints_u64(1, 1 << 32),
        plan_seed in ints_u64(1, 1 << 32),
        widx in ints(0, 4),
    ) {
        // 10%–90% death rate, derived from the plan seed (the props! tuple
        // generator carries at most four dimensions).
        let death_pct = 10 + plan_seed % 81;
        let rates = FaultRates { unit_death: death_pct as f64 / 100.0, ..FaultRates::none() };
        let plan = FaultPlan::seeded(plan_seed, rates);
        let batch = requests(count, batch_seed);
        let server = batch_server(plan);
        match with_threads(WORKER_COUNTS[widx], || server.serve_batch(&batch)) {
            Err(RuntimeError::NoHealthyUnits) => {
                // The plan killed the whole pool: the error is the contract.
                prop_assert!((0..4).all(|u| plan.unit_dead(u)));
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
            Ok(served) => {
                prop_assert!((0..4).any(|u| !plan.unit_dead(u)));
                // One record per request, in arrival order: nothing dropped,
                // nothing duplicated.
                prop_assert_eq!(served.report.records.len(), batch.len());
                prop_assert_eq!(served.outputs.len(), batch.len());
                let order: Vec<usize> = served.report.records.iter().map(|r| r.n_real).collect();
                let expected: Vec<usize> = batch.iter().map(|r| r.num_keys()).collect();
                prop_assert_eq!(order, expected);
                // Death alone (no transients, no deadline) fails nothing.
                prop_assert_eq!(served.report.failed_count(), 0);
                prop_assert_eq!(served.report.served_count(), batch.len());
                prop_assert_eq!(served.report.total_retries(), 0);
                for output in &served.outputs {
                    let output = output.as_ref().expect("completed via failover");
                    prop_assert!(output.as_slice().iter().all(|v| v.is_finite()));
                }
                // Dead units never accumulate completions: every completion
                // time must be reachable by the survivors alone.
                let survivors = (0..4).filter(|&u| !plan.unit_dead(u)).count();
                let plain = InferenceServer::new(
                    AcceleratorConfig { num_accelerators: survivors, ..config() },
                    operator().clone(),
                );
                prop_assert_eq!(record_bits(&plain.serve(&batch)), record_bits(&served.report));
            }
        }
    }

    // (c) Injected corruption always degrades to exact attention; a NaN is
    // never served.
    fn corruption_always_degrades_to_exact_and_never_serves_nan(
        count in ints(4, 10),
        batch_seed in ints_u64(1, 1 << 32),
        plan_seed in ints_u64(1, 1 << 32),
        widx in ints(0, 4),
    ) {
        // 20%–100% corruption rate, derived from the plan seed.
        let corrupt_pct = 20 + plan_seed % 81;
        let rates = FaultRates { corrupt: corrupt_pct as f64 / 100.0, ..FaultRates::none() };
        let plan = FaultPlan::seeded(plan_seed, rates);
        let batch = requests(count, batch_seed);
        let server = batch_server(plan);
        let served = with_threads(WORKER_COUNTS[widx], || server.serve_batch(&batch))
            .expect("corruption is survivable");
        let accel = ElsaAccelerator::new(config(), operator().clone());
        prop_assert_eq!(served.report.failed_count(), 0);
        let mut degraded = 0;
        for (i, (request, output)) in batch.iter().zip(&served.outputs).enumerate() {
            let output = output.as_ref().expect("corruption degrades, never fails");
            prop_assert!(
                output.as_slice().iter().all(|v| v.is_finite()),
                "request {i}: NaN/∞ served"
            );
            let record = served.report.records[i];
            // The plan says which (unit, request) pairs were poisoned; the
            // engine must have degraded every one of them. The unit is whichever
            // one the FIFO picked, so check the record tag instead: any
            // poisoned request is degraded, and degraded outputs are exactly
            // the base (exact-attention) run.
            if record.degraded {
                degraded += 1;
                prop_assert_eq!(
                    matrix_bits(output),
                    matrix_bits(&accel.run_base(request).output)
                );
            } else {
                prop_assert_eq!(matrix_bits(output), matrix_bits(&accel.run(request).output));
            }
        }
        prop_assert_eq!(degraded, served.report.degraded_count());
        if corrupt_pct >= 100 {
            prop_assert_eq!(degraded, batch.len(), "corrupt rate 1.0 must degrade everything");
        }
    }

    // Regression for the streaming fallback: forced corruption (rate 1.0)
    // degrades every request, and the degraded outputs — produced by the
    // tiled streaming kernel behind `run_base` — are bit-identical to the
    // naive exact kernel, at any worker count.
    fn forced_corruption_streaming_fallback_matches_run_base_bitwise(
        count in ints(4, 10),
        batch_seed in ints_u64(1, 1 << 32),
        plan_seed in ints_u64(1, 1 << 32),
        widx in ints(0, 4),
    ) {
        let rates = FaultRates { corrupt: 1.0, ..FaultRates::none() };
        let plan = FaultPlan::seeded(plan_seed, rates);
        let batch = requests(count, batch_seed);
        let server = batch_server(plan);
        let served = with_threads(WORKER_COUNTS[widx], || server.serve_batch(&batch))
            .expect("corruption is survivable");
        prop_assert_eq!(served.report.degraded_count(), batch.len());
        let accel = ElsaAccelerator::new(config(), operator().clone());
        for (request, output) in batch.iter().zip(&served.outputs) {
            let output = output.as_ref().expect("degraded, never failed");
            let base = accel.run_base(request);
            // The served output IS the base run's, and the base run IS the
            // naive exact kernel, bit for bit — and its cycle/energy
            // accounting (what the service time was charged from) IS the
            // per-query cycle model over full candidate lists.
            prop_assert_eq!(matrix_bits(output), matrix_bits(&base.output));
            prop_assert_eq!(matrix_bits(output), matrix_bits(&exact::attention(request)));
            let (nq, n) = (request.num_queries(), request.num_keys());
            let cycles = simulate_execution(&config(), n, &exact::full_candidates(nq, n), false);
            let energy = EnergyBreakdown::from_run(&config(), &cycles, nq, nq * n, n);
            prop_assert_eq!(&base.cycles, &cycles);
            prop_assert_eq!(base.energy.total_j().to_bits(), energy.total_j().to_bits());
        }
    }

    // Full chaos: every fault class at once; the report accounts for 100%
    // of requests and replays identically at any worker count.
    fn chaotic_plans_account_for_every_request_and_replay(
        count in ints(6, 12),
        batch_seed in ints_u64(1, 1 << 32),
        plan_seed in ints_u64(1, 1 << 32),
    ) {
        let plan = FaultPlan::seeded(plan_seed, FaultRates::chaotic());
        let batch = requests(count, batch_seed);
        let server = batch_server(plan);
        let serial = with_threads(1, || server.serve_batch(&batch));
        let parallel = with_threads(4, || server.serve_batch(&batch));
        match (serial, parallel) {
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (Ok(serial), Ok(parallel)) => {
                prop_assert_eq!(record_bits(&serial.report), record_bits(&parallel.report));
                let report = &serial.report;
                prop_assert_eq!(report.records.len(), batch.len());
                prop_assert_eq!(report.served_count() + report.failed_count(), batch.len());
                prop_assert!(report.degraded_count() <= report.served_count());
                for (record, output) in report.records.iter().zip(&serial.outputs) {
                    prop_assert_eq!(record.failed, output.is_none());
                    if let Some(output) = output {
                        prop_assert!(output.as_slice().iter().all(|v| v.is_finite()));
                    }
                }
                // NaN-free aggregate metrics even under chaos.
                for q in [50.0, 95.0, 99.0] {
                    prop_assert!(!report.completion_percentile_s(q).is_nan());
                }
                prop_assert!(!report.throughput_per_s().is_nan());
                prop_assert!(!report.mean_service_s().is_nan());
            }
            (a, b) => prop_assert!(false, "outcomes diverged across worker counts: {a:?} vs {b:?}"),
        }
    }

    // (d) One dispatch loop: the batch path is the online pipeline with
    // every request arriving at t = 0, so its report equals the projected
    // report of a simultaneous trace bit for bit — at 1, 2 and 4 units,
    // under plans mixing every fault class (a dead pool errors alike).
    fn serve_batch_is_simultaneous_online_serving_under_chaos(
        count in ints(6, 12),
        trace_seed in ints_u64(1, 1 << 32),
        plan_seed in ints_u64(1, 1 << 32),
        uidx in ints(0, 3),
    ) {
        let workload = Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M };
        let recorded = WorkloadTrace::record(&workload, count, &mut SeededRng::new(trace_seed));
        let server = OnlineServer::new(
            AcceleratorConfig { num_accelerators: [1, 2, 4][uidx], ..config() },
            operator().clone(),
            FaultPlan::seeded(plan_seed, FaultRates::chaotic()),
            ServeConfig::immediate(),
        );
        let batch = server.serve_batch(&recorded.materialize());
        let online = server.serve(&ArrivalTrace::simultaneous(&recorded));
        match (batch, online) {
            (Ok(batch), Ok(online)) => prop_assert_eq!(
                record_bits(&batch.report),
                record_bits(&online.to_serving_report())
            ),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "batch and online outcomes diverged: {a:?} vs {b:?}"),
        }
    }
}
