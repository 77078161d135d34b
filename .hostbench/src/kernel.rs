//! `prefill-2k` and `longdoc-16k`: one caller runs
//! `ElsaAccelerator::try_run` back to back over a small pool of seeded
//! invocations.
//!
//! The two workloads load the same layers in opposite proportions. At
//! n = n_q = 2048, candidate selection and candidate attention do most of
//! the work and key hashing is a few percent; at n = 16384 keys with 16
//! queries, building the key index is most of the op. A selection gain
//! should show on `prefill-2k` and not on `longdoc-16k`; a hashing gain
//! mostly on `longdoc-16k`.

use std::hint::black_box;
use std::time::Instant;

use elsa_attention::exact::{self, AttentionInputs};
use elsa_core::attention::{ElsaAttention, ElsaParams, PreprocessedKeys, SelectionStats};
use elsa_linalg::SeededRng;
use elsa_sim::{cycle, AcceleratorConfig, ElsaAccelerator, EnergyBreakdown, RunReport};
use elsa_workloads::trace::TraceEntry;
use elsa_workloads::{AttentionPatternConfig, DatasetKind, LongCtxKind, ModelKind};

use crate::check::{all_finite, combine, hex, run_digest};
use crate::json::Json;
use crate::stats::{mean, peak_rss_mb, percentile, timed_setup};
use crate::trace::{self, Recorder, Timed, ROOT};
use crate::{Args, RunResult, Workload};

/// Invocations in the measured pool. Each is materialized once in set-up;
/// the loop cycles through them.
const POOL: usize = 8;
/// Held-out invocations the threshold is learned from. The learned
/// threshold scales with each invocation's largest key norm, so with few
/// of them the candidate fraction, and with it the work per op, swings from
/// seed to seed: its spread between seeds was 6% with 4 invocations and 4%
/// with 8.
const TRAINING: usize = 8;
/// Approximation degree the threshold is learned at (§III-E).
const P: f64 = 1.0;
/// The seed the README's figures and the pinned digests use.
pub const DEFAULT_SEED: u64 = 42;

struct Spec {
    n: usize,
    pattern: AttentionPatternConfig,
    /// Digest of the pool's run reports at [`DEFAULT_SEED`].
    pinned: u64,
}

fn spec(workload: Workload) -> Spec {
    match workload {
        // BERT-large's attention profile: 6 relevant keys, dominance 2.0.
        Workload::Prefill2k => Spec {
            n: 2048,
            pattern: elsa_workloads::Workload {
                model: ModelKind::BertLarge,
                dataset: DatasetKind::SquadV11,
            }
            .pattern_config(2048),
            pinned: 0xcc5f_5003_df13_5637,
        },
        Workload::Longdoc16k => Spec {
            n: 16384,
            pattern: LongCtxKind::LongDocument.pattern(16384),
            pinned: 0x7054_4c7f_fa50_ab9a,
        },
        Workload::DecodeFleet => unreachable!("decode-fleet is not a kernel workload"),
    }
}

struct Setup {
    accel: ElsaAccelerator,
    pool: Vec<AttentionInputs>,
}

/// Input generation, threshold learning on held-out invocations, and
/// accelerator construction.
fn build(spec: &Spec, seed: u64) -> Setup {
    let mut rng = SeededRng::new(seed);
    let entries: Vec<TraceEntry> = (0..TRAINING + POOL)
        .map(|i| TraceEntry {
            pattern: spec.pattern,
            seed: rng.fork(i as u64).uniform().to_bits(),
        })
        .collect();
    let mut pool: Vec<AttentionInputs> = entries.iter().map(TraceEntry::materialize).collect();
    let training: Vec<AttentionInputs> = pool.drain(..TRAINING).collect();
    let params = ElsaParams::for_dims(64, 64, &mut rng.fork(0x9A8A_0001));
    let operator = ElsaAttention::learn(params, &training, P);
    let config = AcceleratorConfig {
        n_max: spec.n,
        ..AcceleratorConfig::paper()
    };
    let accel = ElsaAccelerator::try_new(config, operator).expect("the operator fits the hardware");
    Setup { accel, pool }
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

pub fn run(args: &Args) -> RunResult {
    let spec = spec(args.workload);
    let (setup, setup_s, setup_reps) = timed_setup(|| build(&spec, args.seed));
    let Setup { accel, pool } = &setup;

    // Warm-up: one op per pool entry, whose reports are the references
    // every later op of the same entry must reproduce bit for bit.
    let reference: Vec<RunReport> = pool
        .iter()
        .map(|x| accel.try_run(x).expect("the invocation fits"))
        .collect();
    let peak_mb = peak_rss_mb().unwrap_or(0.0);
    let pool_digest = combine(reference.iter().map(run_digest));
    let mut correct = reference.iter().all(|r| all_finite(&r.output));
    if args.seed == DEFAULT_SEED && pool_digest != spec.pinned {
        eprintln!(
            "hostbench: {} digest {} differs from the pinned {}",
            args.workload.name(),
            hex(pool_digest),
            hex(spec.pinned)
        );
        correct = false;
    }

    let ref_stats = reference[0].stats;
    let fraction = mean(
        &reference
            .iter()
            .map(|r| r.stats.candidate_fraction())
            .collect::<Vec<_>>(),
    );
    let mut context = vec![
        ("n", Json::Int(spec.n as u64)),
        ("n_q", Json::Int(ref_stats.num_queries as u64)),
        ("d", Json::Int(64)),
        ("p", Json::Num(P)),
        ("threshold", Json::Num(accel.operator().threshold())),
        ("candidate_fraction", Json::Num(fraction)),
        ("pool", Json::Int(POOL as u64)),
        ("training_invocations", Json::Int(TRAINING as u64)),
        ("setup_reps", Json::Int(setup_reps as u64)),
        ("digest", Json::Str(hex(pool_digest))),
    ];

    let mut result = if args.trace {
        traced(args, accel, pool, &reference, &mut context)
    } else {
        untraced(
            args,
            accel,
            pool,
            &reference,
            (setup_s, peak_mb),
            &mut context,
        )
    };
    if !correct {
        // Every op reproduces the warm-up's outputs, so a wrong or
        // non-finite warm-up output makes every op wrong.
        result.failed = result.attempted;
        result.correct = false;
    }
    result.context = context;
    result
}

fn untraced(
    args: &Args,
    accel: &ElsaAccelerator,
    pool: &[AttentionInputs],
    reference: &[RunReport],
    (setup_s, peak_mb): (f64, f64),
    context: &mut Vec<(&'static str, Json)>,
) -> RunResult {
    let digests: Vec<u64> = reference.iter().map(run_digest).collect();
    let mut op_s = Vec::new();
    let mut failed = 0u64;
    let start = Instant::now();
    while op_s.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let i = op_s.len() % pool.len();
        let t0 = Instant::now();
        let run = accel.try_run(black_box(&pool[i]));
        op_s.push(t0.elapsed().as_secs_f64());
        let ok = run.is_ok_and(|r| all_finite(&r.output) && run_digest(&r) == digests[i]);
        failed += u64::from(!ok);
    }
    let ops = op_s.len() as u64;
    // The virtual clock is deterministic: one sample per pool entry.
    let config = accel.config();
    let cycles: Vec<f64> = reference.iter().map(|r| r.cycles.total() as f64).collect();
    let energy_uj: Vec<f64> = reference.iter().map(|r| r.energy.total_j() * 1e6).collect();
    let latency_us: Vec<f64> = reference
        .iter()
        .map(|r| r.latency_s(config) * 1e6)
        .collect();
    context.push(("op_samples", Json::Int(ops)));
    context.push((
        "virtual_latency_samples",
        Json::Int(latency_us.len() as u64),
    ));
    let metrics = vec![
        ("ops_per_s", ops as f64 / op_s.iter().sum::<f64>()),
        ("op_ms_p50", ms(percentile(&op_s, 50.0))),
        ("op_ms_p90", ms(percentile(&op_s, 90.0))),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_mb),
        ("sim_cycles_per_op", mean(&cycles)),
        ("sim_energy_uj_per_op", mean(&energy_uj)),
        ("virtual_latency_us_p50", percentile(&latency_us, 50.0)),
        ("virtual_latency_us_p99", percentile(&latency_us, 99.0)),
        // No deadline is attached to a kernel op, so an op meets its SLO
        // when it completes with correct output (the serving convention).
        ("slo_attainment", (ops - failed) as f64 / ops as f64),
    ];
    RunResult {
        attempted: ops,
        failed,
        correct: failed == 0,
        metrics,
        context: Vec::new(),
    }
}

/// `try_run` decomposed into one span per call into each layer, in the
/// order and under the fan-out gate `ElsaAccelerator::try_run` and
/// `ElsaAttention::candidates` use. Returns the op's report and its
/// candidate sets.
pub fn decomposed(
    accel: &ElsaAccelerator,
    inputs: &AttentionInputs,
    rec: &mut Recorder,
    parent: u32,
    op: u32,
) -> (RunReport, Vec<Vec<usize>>) {
    let operator = accel.operator();
    let params = operator.params();
    let config = accel.config();
    let (n, nq) = (inputs.num_keys(), inputs.num_queries());
    let root = rec.open("sim.try_run", parent, op);
    accel.try_check_fit(inputs).expect("the invocation fits");
    let pre = rec.span("core.key_preprocess", root, op, || {
        PreprocessedKeys::compute(params, inputs.key())
    });

    let fan = rec.open("parallel.fanout", root, op);
    let epoch = rec.epoch;
    let select_one = |i: usize| {
        let (hash, th) = Timed::run(epoch, "core.query_hash", || {
            params.hasher().hash(inputs.query().row(i))
        });
        let (selected, ts) = Timed::run(epoch, "core.select", || {
            operator.select_candidates(&hash, &pre)
        });
        (selected, th, ts)
    };
    let work = nq.saturating_mul(params.hasher().multiplication_count() + n);
    let per_query: Vec<_> = if elsa_parallel::beneficial(work) {
        elsa_parallel::par_map_indexed(nq, select_one)
    } else {
        (0..nq).map(select_one).collect()
    };
    let mut stats = SelectionStats {
        total_pairs: nq * n,
        num_queries: nq,
        num_keys: n,
        ..SelectionStats::default()
    };
    let mut candidates = Vec::with_capacity(nq);
    let mut timings = Vec::with_capacity(2 * nq);
    for ((cand, fallback), th, ts) in per_query {
        stats.selected_pairs += cand.len();
        stats.fallback_queries += usize::from(fallback);
        candidates.push(cand);
        timings.push(th);
        timings.push(ts);
    }
    rec.close(fan);
    for t in timings {
        rec.attach(t, fan);
    }

    let output = rec.span("attention.candidates", root, op, || {
        exact::attention_with_candidates(inputs, &candidates, params.scale())
    });
    let (cycles, energy) = rec.span("sim.cycle_model", root, op, || {
        let cycles = cycle::simulate_execution(config, n, &candidates, false);
        let energy = EnergyBreakdown::from_run(config, &cycles, nq, stats.selected_pairs, n);
        (cycles, energy)
    });
    rec.close(root);
    (
        RunReport {
            output,
            stats,
            cycles,
            energy,
        },
        candidates,
    )
}

/// Span names whose self time is glue between layer calls rather than a
/// layer's own work.
const GLUE: [&str; 3] = ["op", "serve.turn", "sim.try_run"];

/// Per-layer times from the spans of `ops` operations, and the traced op
/// time they add up to (both in ms per op). Only the trees rooted at `op`
/// spans are counted; the worker statistics come from the `fanout` spans,
/// the ones that actually spread work over threads.
pub fn layer_metrics(
    spans: &[trace::Span],
    ops: f64,
    fanout: &str,
) -> (Vec<(&'static str, f64)>, f64) {
    let layers = trace::attribute(spans, Some("op"));
    let wall = |name: &str| layers.get(name).map_or(0.0, |t| t.wall_self_ns) / 1e6 / ops;
    let (workers, busy_over_wall) = trace::fanout(spans, fanout);
    let traced_ms = layers.keys().map(|name| wall(name)).sum::<f64>();
    let metrics = vec![
        ("core.key_preprocess.ms_per_op", wall("core.key_preprocess")),
        ("core.query_hash.ms_per_op", wall("core.query_hash")),
        ("core.select.ms_per_op", wall("core.select")),
        (
            "attention.candidates.ms_per_op",
            wall("attention.candidates"),
        ),
        ("sim.cycle_model.ms_per_op", wall("sim.cycle_model")),
        (
            "workloads.materialize.ms_per_op",
            wall("workloads.materialize"),
        ),
        (
            "workloads.turn_inputs.ms_per_op",
            wall("workloads.turn_inputs"),
        ),
        (
            "parallel.fanout.ms_per_op",
            wall("parallel.fanout") + wall("parallel.turn_fanout"),
        ),
        ("parallel.workers", workers),
        ("parallel.busy_over_wall", busy_over_wall),
        (
            "trace.unattributed_ms_per_op",
            GLUE.iter().map(|g| wall(g)).sum(),
        ),
    ];
    (metrics, traced_ms)
}

/// Virtual-clock per-layer metrics, averaged over one report per input.
pub fn report_metrics(reports: &[RunReport], d: usize) -> Vec<(&'static str, f64)> {
    let n = reports.len() as f64;
    let mean_of = |f: &dyn Fn(&RunReport) -> f64| reports.iter().map(f).sum::<f64>() / n;
    let d = d as f64;
    let selected = mean_of(&|r| r.stats.selected_pairs as f64);
    let nq = mean_of(&|r| r.stats.num_queries as f64);
    let bottleneck = |stage: usize| mean_of(&|r| r.cycles.bottleneck_counts[stage] as f64);
    vec![
        (
            "core.key_preprocess.keys_per_op",
            mean_of(&|r| r.stats.num_keys as f64),
        ),
        ("core.query_hash.queries_per_op", nq),
        (
            "core.select.pairs_scanned_per_op",
            mean_of(&|r| r.stats.total_pairs as f64),
        ),
        (
            "core.select.candidate_fraction",
            selected / mean_of(&|r| r.stats.total_pairs as f64),
        ),
        (
            "core.select.fallback_queries",
            mean_of(&|r| r.stats.fallback_queries as f64),
        ),
        // One multiply-accumulate per dimension for each candidate's score
        // and for its value row; f32 reads of the candidate key and value
        // rows, plus the query row in and the output row out.
        ("attention.candidates.macs_per_op", selected * 2.0 * d),
        (
            "attention.candidates.bytes_per_op",
            4.0 * d * (2.0 * selected + 2.0 * nq),
        ),
        (
            "sim.cycles.preprocessing",
            mean_of(&|r| r.cycles.preprocessing as f64),
        ),
        (
            "sim.cycles.execution",
            mean_of(&|r| r.cycles.execution as f64),
        ),
        ("sim.cycles.drain", mean_of(&|r| r.cycles.drain as f64)),
        ("sim.bottleneck.hash", bottleneck(0)),
        ("sim.bottleneck.scan", bottleneck(1)),
        ("sim.bottleneck.attend", bottleneck(2)),
        ("sim.bottleneck.divide", bottleneck(3)),
    ]
}

fn traced(
    args: &Args,
    accel: &ElsaAccelerator,
    pool: &[AttentionInputs],
    reference: &[RunReport],
    context: &mut Vec<(&'static str, Json)>,
) -> RunResult {
    let mut rec = Recorder::new();
    let mut untraced_ms = Vec::new();
    let mut failed = 0u64;
    let start = Instant::now();
    while untraced_ms.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let i = untraced_ms.len() % pool.len();
        let op = u32::try_from(untraced_ms.len()).expect("op count fits u32");
        let inputs = &pool[i];
        let untraced = |untraced_ms: &mut Vec<f64>| {
            let t0 = Instant::now();
            let run = accel
                .try_run(black_box(inputs))
                .expect("the invocation fits");
            untraced_ms.push(ms(t0.elapsed().as_secs_f64()));
            run
        };
        let traced = |rec: &mut Recorder| {
            let root = rec.open("op", ROOT, op);
            let out = decomposed(accel, inputs, rec, root, op);
            rec.close(root);
            out
        };
        // Alternate which form runs first, so neither always finds the
        // caches the other left.
        let (run, (report, candidates)) = if op % 2 == 0 {
            let run = untraced(&mut untraced_ms);
            (run, traced(&mut rec))
        } else {
            let d = traced(&mut rec);
            (untraced(&mut untraced_ms), d)
        };
        let expected = run_digest(&reference[i]);
        let ok = run_digest(&report) == expected
            && run_digest(&run) == expected
            && accel.operator().candidates(inputs).0 == candidates;
        failed += u64::from(!ok);
    }
    let ops = untraced_ms.len() as f64;
    let (mut metrics, traced_ms) = layer_metrics(&rec.spans, ops, "parallel.fanout");
    let untraced = mean(&untraced_ms);
    metrics.push((
        "trace.overhead_pct",
        100.0 * (traced_ms - untraced) / untraced,
    ));
    metrics.extend(report_metrics(reference, accel.config().d));
    // Inputs are materialized once per pool entry, in set-up.
    metrics.push(("workloads.materialize.calls_per_entry", 1.0));
    context.push(("op_samples", Json::Int(untraced_ms.len() as u64)));
    context.push(("untraced_op_ms_mean", Json::Num(untraced)));
    context.push(("traced_op_ms_mean", Json::Num(traced_ms)));
    context.push(("spans", Json::Int(rec.spans.len() as u64)));
    match trace::write(args.workload.name(), args.seed, &rec.spans) {
        Ok(path) => context.push(("trace_file", Json::Str(path))),
        Err(e) => eprintln!("hostbench: could not write the trace: {e}"),
    }
    RunResult {
        attempted: ops as u64,
        failed,
        correct: failed == 0,
        metrics,
        context: Vec::new(),
    }
}
