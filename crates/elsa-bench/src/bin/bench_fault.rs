//! **E-FAULT** — fault-injection overhead and graceful-degradation sweep,
//! emitted as JSON for the committed `BENCH_fault.json` at the repo root.
//!
//! Capture: `cargo run --release -p elsa-bench --bin bench_fault > BENCH_fault.json`
//!
//! Two measurements:
//!
//! 1. **Zero-fault overhead** — wall-clock of `OnlineServer::serve_batch`
//!    (immediate dispatch, `FaultPlan::none()`) against the plain
//!    `InferenceServer::serve` on the same batch. Both run the approximate
//!    pipeline once per request; `serve_batch` adds the event loop, the
//!    plan lookups, and keeping the outputs it already computed. Timings
//!    are min-of-samples, with the quartiles of the per-pair ratios as the
//!    noise band; the reports themselves are bit-identical (enforced by
//!    `tests/fault_tolerance.rs`).
//! 2. **Fault-rate sweep** — one fault class at a time at increasing
//!    rates, reporting the simulated-clock p99 completion latency, the
//!    degraded fraction, the failed fraction, and mean retries. Latencies
//!    come from the simulator's deterministic virtual clock, so the sweep
//!    is reproducible anywhere; only the overhead timings vary with the
//!    host.

use std::time::Instant;

use elsa_core::attention::{ElsaAttention, ElsaParams};
use elsa_fault::{FaultPlan, FaultRates};
use elsa_linalg::{ops, SeededRng};
use elsa_runtime::InferenceServer;
use elsa_serve::{OnlineServer, ServeConfig};
use elsa_sim::AcceleratorConfig;
use elsa_workloads::{DatasetKind, ModelKind, Workload};

const BATCH: usize = 48;
const PLAN_SEED: u64 = 0xE15A_FA11;

fn config() -> AcceleratorConfig {
    AcceleratorConfig { n_max: 200, num_accelerators: 4, ..AcceleratorConfig::paper() }
}

struct SweepRow {
    fault: &'static str,
    rate: f64,
    p99_s: f64,
    degraded_fraction: f64,
    failed_fraction: f64,
    mean_retries: f64,
}

fn main() {
    let workload = Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M };
    let operator = {
        let mut rng = SeededRng::new(20);
        let train = workload.generate_batch(1, &mut rng);
        ElsaAttention::learn(ElsaParams::for_dims(64, 64, &mut SeededRng::new(21)), &train, 1.0)
    };
    let batch = {
        let mut rng = SeededRng::new(22);
        workload.generate_batch(BATCH, &mut rng)
    };

    // 1. Zero-fault wrapper overhead.
    let plain = InferenceServer::new(config(), operator.clone());
    let batched =
        OnlineServer::new(config(), operator.clone(), FaultPlan::none(), ServeConfig::immediate());
    // The overhead being measured is sub-percent, so raw timings drown in
    // host noise. Take *paired* samples — each iteration times both servers
    // back to back, alternating which goes first so neither side
    // systematically runs on a warmer cache — and report the ratio of the
    // per-side *minima*: timing noise on a shared host is strictly
    // additive, so the minimum over many samples converges on the true
    // cost while a median ratio still wobbles by several percent (reported
    // too, with its quartiles, to show that wobble). Pinned to one worker:
    // the thread pool's scheduling jitter would otherwise swamp the signal,
    // and the chaos layer's cost (plan lookups in the serial event loop) is
    // worker-independent.
    let pairs = 40;
    let samples: Vec<(f64, f64)> = elsa_parallel::with_threads(1, || {
        let time = |run: &dyn Fn()| {
            let t = Instant::now();
            run();
            t.elapsed().as_secs_f64()
        };
        let plain_run = || drop(std::hint::black_box(plain.serve(&batch)));
        let batch_run =
            || drop(std::hint::black_box(batched.serve_batch(&batch).expect("zero-fault plan")));
        time(&plain_run);
        time(&batch_run);
        (0..pairs)
            .map(|i| {
                if i % 2 == 0 {
                    let p = time(&plain_run);
                    (p, time(&batch_run))
                } else {
                    let b = time(&batch_run);
                    (time(&plain_run), b)
                }
            })
            .collect()
    });
    let plain_s = samples.iter().map(|s| s.0).fold(f64::INFINITY, f64::min);
    let batch_s = samples.iter().map(|s| s.1).fold(f64::INFINITY, f64::min);
    let overhead_pct = (batch_s / plain_s - 1.0) * 100.0;
    let pair_pct: Vec<f64> = samples.iter().map(|(p, b)| (b / p - 1.0) * 100.0).collect();
    let [pair_p25, pair_median, pair_p75] =
        [25.0, 50.0, 75.0].map(|q| ops::percentile(&pair_pct, q));

    // 2. Fault-rate sweep, one class at a time.
    let sweeps: [(&'static str, fn(f64) -> FaultRates); 3] = [
        ("transient", |r| FaultRates { transient: r, ..FaultRates::none() }),
        ("straggler", |r| FaultRates {
            straggler: r,
            straggler_max_factor: 4.0,
            ..FaultRates::none()
        }),
        ("corrupt", |r| FaultRates { corrupt: r, ..FaultRates::none() }),
    ];
    let mut rows: Vec<SweepRow> = Vec::new();
    for (fault, rates) in sweeps {
        for rate in [0.0, 0.05, 0.1, 0.2, 0.4] {
            let server = OnlineServer::new(
                config(),
                operator.clone(),
                FaultPlan::seeded(PLAN_SEED, rates(rate)),
                ServeConfig::immediate(),
            );
            let report = server.serve_batch(&batch).expect("no unit death in the sweep").report;
            let n = report.records.len() as f64;
            rows.push(SweepRow {
                fault,
                rate,
                p99_s: report.completion_percentile_s(99.0),
                degraded_fraction: report.degraded_count() as f64 / n,
                failed_fraction: report.failed_count() as f64 / n,
                mean_retries: report.total_retries() as f64 / n,
            });
        }
    }

    println!("{{");
    println!("  \"bench\": \"fault_injection_serving\",");
    println!(
        "  \"capture_command\": \"cargo run --release -p elsa-bench --bin bench_fault > BENCH_fault.json\","
    );
    println!("  \"batch\": {BATCH},");
    println!("  \"num_accelerators\": 4,");
    println!("  \"plan_seed\": {PLAN_SEED},");
    println!(
        "  \"note\": \"zero_fault is host wall-clock of OnlineServer::serve_batch (immediate dispatch, zero-fault plan) vs InferenceServer::serve on the same batch: both run the approximate pipeline once per request, serve_batch adds the event loop over per-request service profiles, plan lookups and keeping the outputs. overhead_pct is the ratio of the per-side minima over alternating paired samples; pair_overhead_*_pct are the quartiles of the per-pair ratios, the noise band the overhead is read against. Shared hosts add a few percent of one-sided noise. Sweep latencies are the simulator's deterministic virtual clock and reproduce exactly on any host.\","
    );
    println!("  \"zero_fault\": {{");
    println!("    \"plain_serve_min_s\": {plain_s:.6},");
    println!("    \"serve_batch_min_s\": {batch_s:.6},");
    println!("    \"overhead_pct\": {overhead_pct:.3},");
    println!("    \"pairs\": {pairs},");
    println!("    \"pair_overhead_p25_pct\": {pair_p25:.3},");
    println!("    \"pair_overhead_median_pct\": {pair_median:.3},");
    println!("    \"pair_overhead_p75_pct\": {pair_p75:.3}");
    println!("  }},");
    println!("  \"sweep\": [");
    let last = rows.len() - 1;
    for (i, r) in rows.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        println!(
            "    {{ \"fault\": \"{}\", \"rate\": {:.2}, \"p99_completion_s\": {:.6}, \"degraded_fraction\": {:.4}, \"failed_fraction\": {:.4}, \"mean_retries\": {:.4} }}{comma}",
            r.fault, r.rate, r.p99_s, r.degraded_fraction, r.failed_fraction, r.mean_retries
        );
    }
    println!("  ]");
    println!("}}");
}
