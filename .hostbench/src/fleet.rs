//! `decode-fleet`: a closed loop on the host that replays `Cluster::serve`
//! back to back over one seeded multi-turn decode trace.
//!
//! On the virtual clock the trace is an open loop: Poisson turn arrivals at
//! a fixed rate, about 0.9× of the fleet's saturation at the commit that
//! defined this benchmark, pinned here and never recalibrated per run. The
//! fleet is 4 nodes × 4 units with consistent-hash routing and a bounded
//! LRU session cache (half the unbounded per-node peak), so hits, misses and
//! evictions all occur. Every turn re-materializes its session's whole
//! context, so input materialization and per-turn key hashing dominate host
//! time; selection and attention are small because decode turns run one
//! query.

use std::hint::black_box;
use std::time::Instant;

use elsa_cluster::{Cluster, ClusterConfig, ClusterReport};
use elsa_core::attention::{ElsaAttention, ElsaParams};
use elsa_linalg::SeededRng;
use elsa_serve::engine::prepare_turns;
use elsa_serve::{
    BatchPolicy, CacheConfig, Outcome, ServeConfig, SessionArrivalConfig, SessionTrace,
};
use elsa_sim::{AcceleratorConfig, ElsaAccelerator, RunReport};
use elsa_workloads::sessions::turn_inputs;
use elsa_workloads::{DatasetKind, ModelKind, Workload};

use crate::check::{all_finite, combine, hex, run_digest, Digest};
use crate::json::Json;
use crate::kernel::{self, DEFAULT_SEED};
use crate::stats::{peak_rss_mb, percentile, timed_setup};
use crate::trace::{self, Recorder, ROOT};
use crate::{Args, RunResult};

/// Seed of the trace's shape (see [`build`]).
const TRACE_SEED: u64 = 0x5E55_0042;
const SESSIONS: usize = 200;
/// Held-out full-length invocations the threshold is learned from.
const TRAINING: usize = 8;
/// Each session is its prompt prefill plus at most this many decode turns.
const MAX_DECODE_TURNS: usize = 16;
const NODES: usize = 4;
const UNITS_PER_NODE: usize = 4;
/// Offered turn rate on the virtual clock: 0.9 × the saturation
/// throughput (5.05e7 turns/s) `--calibrate-fleet` measured at
/// [`DEFAULT_SEED`] with the bounded cache below.
const LAMBDA_PER_S: f64 = 4.54e7;
/// Per-turn latency SLO on the virtual clock: about 7× the p99 turn
/// latency at [`DEFAULT_SEED`], so that no turn's deadline passes while it
/// is queued (a timed-out turn would count as a failed operation).
const SLO_NS: u64 = 50_000;
/// Session-cache capacity of each node: half the per-node peak of an
/// unbounded cache on the default trace.
const CACHE_BYTES_PER_NODE: u64 = 996_336;
/// Digests of the cluster records and of the per-turn outputs at
/// [`DEFAULT_SEED`].
const PINNED_RECORDS: u64 = 0xfc81_e6f4_8b50_a1f4;
const PINNED_OUTPUTS: u64 = 0x999b_c84c_d204_a626;

fn workload() -> Workload {
    Workload {
        model: ModelKind::SasRec,
        dataset: DatasetKind::MovieLens1M,
    }
}

fn accel_config() -> AcceleratorConfig {
    AcceleratorConfig {
        n_max: 200,
        num_accelerators: UNITS_PER_NODE,
        ..AcceleratorConfig::paper()
    }
}

struct Setup {
    trace: SessionTrace,
    cluster: Cluster,
    accel: ElsaAccelerator,
}

/// Trace generation, threshold learning on held-out invocations, and
/// fleet construction.
///
/// The trace's shape — session lengths, prompt splits, turn order and
/// arrival instants — is drawn from [`TRACE_SEED`] and is part of the
/// workload's definition, as n is for the kernel workloads. `seed` draws
/// the contents of every session's invocation, the hash projection and the
/// threshold-training invocation.
fn build(seed: u64, lambda_per_s: f64, slo_ns: Option<u64>, cache: CacheConfig) -> Setup {
    let mut rng = SeededRng::new(seed);
    let training = workload()
        .pattern_config(workload().padded_length())
        .generate_batch(TRAINING, &mut rng.fork(1));
    let params = ElsaParams::for_dims(64, 64, &mut rng.fork(2));
    let operator = ElsaAttention::learn(params, &training, 1.0);
    let mut trace = SessionTrace::generate(
        &workload(),
        &SessionArrivalConfig {
            lambda_per_s,
            sessions: SESSIONS,
            slo_ns,
            max_decode_turns: Some(MAX_DECODE_TURNS),
        },
        &mut SeededRng::new(TRACE_SEED),
    );
    for turn in &mut trace.requests {
        turn.entry.seed = SeededRng::new(seed).fork(turn.session).uniform().to_bits();
    }
    let serve = ServeConfig {
        batch: BatchPolicy::single_bucket(4, 500),
        ..ServeConfig::default()
    };
    let config = ClusterConfig {
        cache: Some(cache),
        ..ClusterConfig::baseline(NODES, accel_config(), serve)
    };
    let cluster = Cluster::try_new(config, operator.clone()).expect("the operator fits the fleet");
    let accel = ElsaAccelerator::try_new(accel_config(), operator).expect("the operator fits");
    Setup {
        trace,
        cluster,
        accel,
    }
}

fn build_pinned(seed: u64) -> Setup {
    build(
        seed,
        LAMBDA_PER_S,
        Some(SLO_NS),
        CacheConfig::lru(CACHE_BYTES_PER_NODE),
    )
}

fn outcome_code(o: Outcome) -> u64 {
    match o {
        Outcome::Served { degraded } => u64::from(degraded),
        Outcome::ShedQueueFull => 2,
        Outcome::ShedUnmeetable => 3,
        Outcome::TimedOut => 4,
        Outcome::Failed => 5,
    }
}

/// Digest of every record, the cache statistics and the router counters.
fn records_digest(report: &ClusterReport) -> u64 {
    let mut d = Digest::new();
    for c in &report.records {
        let r = &c.record;
        d.u64(r.id as u64)
            .u64(r.n_real as u64)
            .u64(r.bucket as u64)
            .u64(r.arrival_ns);
        d.u64(r.deadline_ns.unwrap_or(u64::MAX)).u64(r.decided_ns);
        d.f64(r.queue_delay_s).f64(r.service_s).f64(r.completion_s);
        d.u64(u64::from(r.retries)).u64(outcome_code(r.outcome));
        d.u64(c.node.map_or(u64::MAX, |n| n as u64))
            .u64(u64::from(c.reroutes))
            .u64(u64::from(c.hedged));
    }
    if let Some(s) = report.cache() {
        for x in [
            s.hits,
            s.cold,
            s.stale,
            s.rebuilt_tokens,
            s.evictions,
            s.peak_bytes,
        ] {
            d.u64(x);
        }
    }
    d.u64(report.router.admissions).u64(report.router.reroutes);
    d.finish()
}

/// Every offered turn is accounted for exactly once.
fn accounted(report: &ClusterReport, turns: usize) -> bool {
    report.offered_count() == turns
        && report.served_count()
            + report.shed_count()
            + report.timed_out_count()
            + report.failed_count()
            == turns
}

fn unserved(report: &ClusterReport) -> u64 {
    (report.offered_count() - report.served_count()) as u64
}

/// One turn's accelerator run, as `prepare_turns` computes it.
struct TurnRef {
    digest: u64,
    finite: bool,
    energy_j: f64,
    selected: usize,
    pairs: usize,
}

/// Runs every turn through `try_run` (fanned out over turns like
/// `prepare_turns`) for the output checks and the energy the fleet report
/// does not carry.
fn turn_refs(accel: &ElsaAccelerator, trace: &SessionTrace) -> Vec<TurnRef> {
    elsa_parallel::par_map_indexed(trace.requests.len(), |i| {
        let r = &trace.requests[i];
        let full = r.entry.materialize();
        let run = accel
            .try_run(&turn_inputs(&full, r.prefix_len, r.appended))
            .expect("the turn fits");
        TurnRef {
            digest: run_digest(&run),
            finite: all_finite(&run.output),
            energy_j: run.energy.total_j(),
            selected: run.stats.selected_pairs,
            pairs: run.stats.total_pairs,
        }
    })
}

/// Distinct recorded invocations behind the trace: one per session.
fn distinct_entries(trace: &SessionTrace) -> usize {
    let mut sessions: Vec<u64> = trace.requests.iter().map(|r| r.session).collect();
    sessions.sort_unstable();
    sessions.dedup();
    sessions.len()
}

pub fn run(args: &Args) -> RunResult {
    let (setup, setup_s, setup_reps) = timed_setup(|| build_pinned(args.seed));
    let Setup {
        trace,
        cluster,
        accel,
    } = &setup;
    let turns = trace.len();

    let refs = turn_refs(accel, trace);
    // Warm-up replay; its report is the reference every later replay must
    // reproduce bit for bit.
    let reference = cluster.serve(trace).expect("every turn fits");
    let peak_mb = peak_rss_mb().unwrap_or(0.0);
    let ref_digest = records_digest(&reference);
    let out_digest = combine(refs.iter().map(|r| r.digest));
    let mut correct = accounted(&reference, turns) && refs.iter().all(|r| r.finite);
    if args.seed == DEFAULT_SEED && (ref_digest, out_digest) != (PINNED_RECORDS, PINNED_OUTPUTS) {
        eprintln!(
            "hostbench: decode-fleet digests {}/{} differ from the pinned {}/{}",
            hex(ref_digest),
            hex(out_digest),
            hex(PINNED_RECORDS),
            hex(PINNED_OUTPUTS)
        );
        correct = false;
    }

    let selected: usize = refs.iter().map(|r| r.selected).sum();
    let pairs: usize = refs.iter().map(|r| r.pairs).sum();
    let mean_n = trace
        .requests
        .iter()
        .map(|r| r.prefix_len as f64)
        .sum::<f64>()
        / turns as f64;
    let mean_nq = trace
        .requests
        .iter()
        .map(|r| r.appended as f64)
        .sum::<f64>()
        / turns as f64;
    let mut context = vec![
        ("sessions", Json::Int(SESSIONS as u64)),
        ("max_decode_turns", Json::Int(MAX_DECODE_TURNS as u64)),
        ("turns", Json::Int(turns as u64)),
        (
            "distinct_entries",
            Json::Int(distinct_entries(trace) as u64),
        ),
        ("mean_n", Json::Num(mean_n)),
        ("mean_n_q", Json::Num(mean_nq)),
        ("p", Json::Num(1.0)),
        (
            "candidate_fraction",
            Json::Num(selected as f64 / pairs as f64),
        ),
        ("offered_turns_per_virtual_s", Json::Num(LAMBDA_PER_S)),
        ("slo_ns", Json::Int(SLO_NS)),
        ("nodes", Json::Int(NODES as u64)),
        ("units_per_node", Json::Int(UNITS_PER_NODE as u64)),
        ("cache_bytes_per_node", Json::Int(CACHE_BYTES_PER_NODE)),
        ("routing", Json::str("consistent-hash")),
        ("setup_reps", Json::Int(setup_reps as u64)),
        ("records_digest", Json::Str(hex(ref_digest))),
        ("outputs_digest", Json::Str(hex(out_digest))),
    ];

    let mut result = if args.trace {
        traced(args, &setup, &reference, &refs, &mut context)
    } else {
        untraced(
            args,
            &setup,
            &reference,
            &refs,
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
    setup: &Setup,
    reference: &ClusterReport,
    refs: &[TurnRef],
    (setup_s, peak_mb): (f64, f64),
    context: &mut Vec<(&'static str, Json)>,
) -> RunResult {
    let Setup { trace, cluster, .. } = setup;
    let turns = trace.len();
    let ref_digest = records_digest(reference);
    let mut replay_s = Vec::new();
    let mut failed = 0u64;
    let start = Instant::now();
    while replay_s.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        let report = cluster.serve(black_box(trace));
        replay_s.push(t0.elapsed().as_secs_f64());
        failed += match report {
            Ok(r) if records_digest(&r) == ref_digest && accounted(&r, turns) => unserved(&r),
            _ => turns as u64,
        };
    }
    let replays = replay_s.len();
    let attempted = (replays * turns) as u64;
    let cycle_s = accel_config().cycle_time_s();
    let served: Vec<_> = reference
        .records
        .iter()
        .map(|c| c.record)
        .filter(|r| matches!(r.outcome, Outcome::Served { .. }))
        .collect();
    let latency_us: Vec<f64> = served
        .iter()
        .map(|r| (r.completion_s - r.arrival_ns as f64 * 1e-9) * 1e6)
        .collect();
    let per_turn_ms: Vec<f64> = replay_s.iter().map(|s| s * 1e3 / turns as f64).collect();
    context.push(("replay_samples", Json::Int(replays as u64)));
    context.push((
        "virtual_latency_samples",
        Json::Int(latency_us.len() as u64),
    ));
    let metrics = vec![
        ("ops_per_s", attempted as f64 / replay_s.iter().sum::<f64>()),
        ("op_ms_p50", percentile(&per_turn_ms, 50.0)),
        ("op_ms_p90", percentile(&per_turn_ms, 90.0)),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_mb),
        (
            "sim_cycles_per_op",
            served.iter().map(|r| r.service_s).sum::<f64>() / cycle_s / served.len() as f64,
        ),
        (
            "sim_energy_uj_per_op",
            refs.iter().map(|r| r.energy_j).sum::<f64>() * 1e6 / turns as f64,
        ),
        ("virtual_latency_us_p50", percentile(&latency_us, 50.0)),
        ("virtual_latency_us_p99", percentile(&latency_us, 99.0)),
        ("slo_attainment", reference.slo_attainment()),
    ];
    let correct = failed == unserved(reference) * replays as u64;
    RunResult {
        attempted,
        failed,
        correct,
        metrics,
        context: Vec::new(),
    }
}

fn traced(
    args: &Args,
    setup: &Setup,
    reference: &ClusterReport,
    refs: &[TurnRef],
    context: &mut Vec<(&'static str, Json)>,
) -> RunResult {
    let Setup {
        trace,
        cluster,
        accel,
    } = setup;
    let config = accel.config();
    let turns = trace.len();
    let ref_digest = records_digest(reference);
    let mut rec = Recorder::new();
    let (mut prepare_s, mut serve_s) = (Vec::new(), Vec::new());
    let mut first_runs: Vec<RunReport> = Vec::new();
    let mut iterations = 0u32;
    let mut failed = 0u64;
    // The gate `prepare_turns` fans its turns out under.
    let work: usize = trace
        .requests
        .iter()
        .map(|r| {
            r.entry
                .pattern
                .n_real
                .saturating_mul(r.entry.pattern.n_real)
                .saturating_mul(r.entry.pattern.d)
        })
        .sum();
    let parallel = elsa_parallel::beneficial(work) && turns > 1;
    let start = Instant::now();
    while iterations == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let op = iterations;
        // The decomposed precompute: per turn, materialize → slice → the
        // kernel spans, exactly as `prepare_turns` runs them.
        let root = rec.open("op", ROOT, op);
        let fan = rec.open("parallel.turn_fanout", root, op);
        let epoch = rec.epoch;
        let one = |i: usize| {
            let r = &trace.requests[i];
            let mut local = Recorder::with_epoch(epoch);
            let turn = local.open("serve.turn", ROOT, 0);
            let full = local.span("workloads.materialize", turn, 0, || r.entry.materialize());
            let inputs = local.span("workloads.turn_inputs", turn, 0, || {
                turn_inputs(&full, r.prefix_len, r.appended)
            });
            let (run, _) = kernel::decomposed(accel, &inputs, &mut local, turn, 0);
            let hit_cycles = run.cycles.total() - run.cycles.preprocessing
                + config.preprocessing_cycles(r.appended);
            let service = (
                run.cycles.seconds(config),
                hit_cycles as f64 * config.cycle_time_s(),
            );
            local.close(turn);
            (local, run, service)
        };
        let per_turn: Vec<_> = if parallel {
            elsa_parallel::par_map_indexed(turns, one)
        } else {
            (0..turns).map(one).collect()
        };
        rec.close(fan);
        rec.close(root);
        let mut services = Vec::with_capacity(turns);
        let mut ok = true;
        for (i, (local, run, service)) in per_turn.into_iter().enumerate() {
            rec.merge(local, fan);
            ok &= run_digest(&run) == refs[i].digest;
            services.push(service);
            if op == 0 {
                first_runs.push(run);
            }
        }

        let t0 = Instant::now();
        let id = rec.open("serve.prepare_turns", ROOT, op);
        let prepared = prepare_turns(accel, config, &trace.requests).expect("every turn fits");
        rec.close(id);
        prepare_s.push(t0.elapsed().as_secs_f64());
        ok &= prepared.iter().zip(&services).all(|(p, &(full, hit))| {
            p.service_s.to_bits() == full.to_bits() && p.hit_service_s.to_bits() == hit.to_bits()
        });
        drop(prepared);

        let t0 = Instant::now();
        let id = rec.open("cluster.serve", ROOT, op);
        let report = cluster.serve(black_box(trace));
        rec.close(id);
        serve_s.push(t0.elapsed().as_secs_f64());
        ok &= report.is_ok_and(|r| records_digest(&r) == ref_digest);
        failed += if ok {
            unserved(reference)
        } else {
            turns as u64
        };
        iterations += 1;
    }

    let ops = f64::from(iterations) * turns as f64;
    let (mut metrics, traced_ms) = kernel::layer_metrics(&rec.spans, ops, "parallel.turn_fanout");
    let per_turn_ms = |s: &[f64]| s.iter().sum::<f64>() * 1e3 / ops;
    let (prepare_ms, serve_ms) = (per_turn_ms(&prepare_s), per_turn_ms(&serve_s));
    // The decomposition stands in for `prepare_turns`; the engine loop is
    // the rest of `Cluster::serve`. It is a small difference of two large
    // times, so it is taken between their fastest replays, which host
    // noise inflates least.
    let fastest = |s: &[f64]| s.iter().copied().fold(f64::INFINITY, f64::min) * 1e3 / turns as f64;
    metrics.push((
        "trace.overhead_pct",
        100.0 * (traced_ms - prepare_ms) / serve_ms,
    ));
    metrics.push(("serve.prepare.ms_per_op", prepare_ms));
    metrics.push((
        "serve.engine.ms_per_op",
        fastest(&serve_s) - fastest(&prepare_s),
    ));
    metrics.extend(kernel::report_metrics(&first_runs, config.d));
    metrics.extend(fleet_metrics(reference));
    // Every turn re-materializes its session's whole context.
    metrics.push((
        "workloads.materialize.calls_per_entry",
        turns as f64 / distinct_entries(trace) as f64,
    ));
    context.push(("replay_samples", Json::Int(u64::from(iterations))));
    context.push(("untraced_turn_ms_mean", Json::Num(serve_ms)));
    context.push((
        "traced_turn_ms_mean",
        Json::Num(traced_ms + serve_ms - prepare_ms),
    ));
    context.push(("spans", Json::Int(rec.spans.len() as u64)));
    match trace::write(args.workload.name(), args.seed, &rec.spans) {
        Ok(path) => context.push(("trace_file", Json::Str(path))),
        Err(e) => eprintln!("hostbench: could not write the trace: {e}"),
    }
    let correct = failed == unserved(reference) * u64::from(iterations);
    RunResult {
        attempted: ops as u64,
        failed,
        correct,
        metrics,
        context: Vec::new(),
    }
}

/// Virtual-clock serving and routing metrics of one fleet report.
fn fleet_metrics(report: &ClusterReport) -> Vec<(&'static str, f64)> {
    let buckets = report.to_serve_report().bucket_stats;
    let requests: u64 = buckets.iter().map(|b| b.requests).sum();
    let batches: u64 = buckets.iter().map(|b| b.batches).sum();
    let cache = report.cache().unwrap_or_default();
    let decided: Vec<f64> = report.nodes.iter().map(|n| n.decided as f64).collect();
    let max = decided.iter().copied().fold(0.0, f64::max);
    let mean = decided.iter().sum::<f64>() / decided.len() as f64;
    vec![
        (
            "serve.queue_delay_us_p50",
            report.queue_delay_percentile_s(50.0) * 1e6,
        ),
        (
            "serve.queue_delay_us_p99",
            report.queue_delay_percentile_s(99.0) * 1e6,
        ),
        ("serve.batch.mean_fill", requests as f64 / batches as f64),
        ("serve.shed", report.shed_count() as f64),
        ("serve.timed_out", report.timed_out_count() as f64),
        ("serve.failed", report.failed_count() as f64),
        ("serve.cache.hit_rate", cache.hit_rate()),
        ("serve.cache.evictions", cache.evictions as f64),
        (
            "serve.cache.peak_mb",
            cache.peak_bytes as f64 / f64::from(1u32 << 20),
        ),
        ("cluster.router.reroutes", report.router.reroutes as f64),
        ("cluster.node.turns_max_over_mean", max / mean),
    ]
}

/// `--calibrate-fleet`: measures, at [`DEFAULT_SEED`], the constants this
/// workload pins — the fleet's saturation throughput, the unbounded
/// cache's per-node peak, and the latency spread the SLO is chosen from.
pub fn calibrate() {
    let firehose = 1e12;
    let serve = |s: &Setup| s.cluster.serve(&s.trace).expect("every turn fits");
    let unbounded = serve(&build(
        DEFAULT_SEED,
        firehose,
        None,
        CacheConfig::unbounded(),
    ));
    let peak = unbounded.cache().unwrap_or_default().peak_bytes;
    let cache = peak / NODES as u64 / 2;
    let saturated = serve(&build(
        DEFAULT_SEED,
        firehose,
        None,
        CacheConfig::lru(cache),
    ));
    let saturation = saturated.throughput_per_s();
    let lambda = 0.9 * saturation;
    let at_rate = build(DEFAULT_SEED, lambda, None, CacheConfig::lru(cache));
    let report = serve(&at_rate);
    let records: Vec<_> = report.records.iter().map(|c| c.record).collect();
    let latency: Vec<f64> = records
        .iter()
        .map(|r| r.completion_s - r.arrival_ns as f64 * 1e-9)
        .collect();
    let queue: Vec<f64> = records.iter().map(|r| r.queue_delay_s).collect();
    let service: Vec<f64> = records.iter().map(|r| r.service_s).collect();
    println!("turns {}", at_rate.trace.len());
    println!("unbounded_cache_peak_bytes (all nodes) {peak}");
    println!("cache_bytes_per_node (half the per-node peak) {cache}");
    println!("saturation_turns_per_s (bounded cache) {saturation}");
    println!("lambda_per_s (0.9x) {lambda}");
    println!("cache at lambda {:?}", report.cache());
    for (name, v) in [
        ("latency_s", &latency),
        ("queue_delay_s", &queue),
        ("service_s", &service),
    ] {
        println!(
            "{name}: p50 {} p90 {} p99 {} max {}",
            percentile(v, 50.0),
            percentile(v, 90.0),
            percentile(v, 99.0),
            percentile(v, 100.0)
        );
    }
}
