//! Host-clock benchmark of the ELSA reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path .hostbench/Cargo.toml -- \
//!     --workload prefill-2k --seed 42 --seconds 20 --trace 0
//! ```
//!
//! Three seeded workloads drive the public API of the workspace crates in a
//! closed loop for `--seconds` of host time. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` re-runs the same operations decomposed
//! into one span per call into each layer and reports per-layer metrics.
//! Every operation's outputs are checked; a failed check makes the command
//! exit non-zero. The last line of standard output is the result object;
//! the line before it is the run context (host, build, workload parameters,
//! sample counts, digests).

mod check;
mod fleet;
mod json;
mod kernel;
mod stats;
mod trace;

use std::process::ExitCode;

use json::Json;

/// `(name, unit)` of every end-to-end metric, as `BENCHMARK.json` lists
/// them. Every workload reports each of them.
const END_TO_END: [(&str, &str); 10] = [
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_cycles_per_op", "cycles"),
    ("sim_energy_uj_per_op", "uJ"),
    ("virtual_latency_us_p50", "us"),
    ("virtual_latency_us_p99", "us"),
    ("slo_attainment", "fraction"),
];

/// `(name, unit)` of every per-layer metric of the traced run. A layer a
/// workload does not pass through reports 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("core.key_preprocess.ms_per_op", "ms"),
    ("core.key_preprocess.keys_per_op", "keys"),
    ("core.query_hash.ms_per_op", "ms"),
    ("core.query_hash.queries_per_op", "queries"),
    ("core.select.ms_per_op", "ms"),
    ("core.select.pairs_scanned_per_op", "pairs"),
    ("core.select.candidate_fraction", "fraction"),
    ("core.select.fallback_queries", "queries"),
    ("attention.candidates.ms_per_op", "ms"),
    ("attention.candidates.macs_per_op", "MAC"),
    ("attention.candidates.bytes_per_op", "B"),
    ("parallel.fanout.ms_per_op", "ms"),
    ("parallel.workers", "threads"),
    ("parallel.busy_over_wall", "ratio"),
    ("sim.cycle_model.ms_per_op", "ms"),
    ("sim.cycles.preprocessing", "cycles"),
    ("sim.cycles.execution", "cycles"),
    ("sim.cycles.drain", "cycles"),
    ("sim.bottleneck.hash", "queries"),
    ("sim.bottleneck.scan", "queries"),
    ("sim.bottleneck.attend", "queries"),
    ("sim.bottleneck.divide", "queries"),
    ("workloads.materialize.ms_per_op", "ms"),
    ("workloads.materialize.calls_per_entry", "calls"),
    ("workloads.turn_inputs.ms_per_op", "ms"),
    ("serve.prepare.ms_per_op", "ms"),
    ("serve.engine.ms_per_op", "ms"),
    ("serve.queue_delay_us_p50", "us"),
    ("serve.queue_delay_us_p99", "us"),
    ("serve.batch.mean_fill", "turns"),
    ("serve.shed", "turns"),
    ("serve.timed_out", "turns"),
    ("serve.failed", "turns"),
    ("serve.cache.hit_rate", "fraction"),
    ("serve.cache.evictions", "sessions"),
    ("serve.cache.peak_mb", "MiB"),
    ("cluster.router.reroutes", "turns"),
    ("cluster.node.turns_max_over_mean", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_ms_per_op", "ms"),
];

/// What a workload run hands back to `main`.
pub struct RunResult {
    /// Operations attempted (kernel invocations, or simulated turns).
    pub attempted: u64,
    /// Operations whose output check failed, plus turns the fleet did not
    /// serve.
    pub failed: u64,
    /// Every output check passed.
    pub correct: bool,
    /// Metric values by name; units come from [`END_TO_END`] /
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Workload parameters, sample counts and digests for the context line.
    pub context: Vec<(&'static str, Json)>,
}

impl RunResult {
    fn to_json(&self, trace: bool) -> Json {
        let table: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for (name, _) in &self.metrics {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric {name} is not in the table"
            );
        }
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, v)| v);
                assert!(
                    value.is_some() || trace,
                    "end-to-end metric {name} was not measured"
                );
                let value = Json::Num(value.unwrap_or(0.0));
                (
                    name,
                    Json::Obj(vec![("value", value), ("unit", Json::str(unit))]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// The parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Prefill2k,
    Longdoc16k,
    DecodeFleet,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::Prefill2k,
        Workload::Longdoc16k,
        Workload::DecodeFleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Prefill2k => "prefill-2k",
            Workload::Longdoc16k => "longdoc-16k",
            Workload::DecodeFleet => "decode-fleet",
        }
    }
}

const USAGE: &str = "usage: hostbench --workload <prefill-2k|longdoc-16k|decode-fleet> \
                     --seed <u64> --seconds <s> --trace <0|1>\n       hostbench --calibrate-fleet";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit of the checkout, read from `.git` without running git (so no
/// file outside the checkout is read); `unknown` outside a git checkout.
fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.len() == 1 && raw[0] == "--calibrate-fleet" {
        fleet::calibrate();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Load comes from this one process with one worker per host core,
    // unless ELSA_THREADS says otherwise. The worker count is read once by
    // `elsa-parallel`, so it is pinned before any workspace code runs.
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if std::env::var_os("ELSA_THREADS").is_none() {
        std::env::set_var("ELSA_THREADS", nproc.to_string());
    }
    let threads = elsa_parallel::current_threads();

    let result = match args.workload {
        Workload::Prefill2k | Workload::Longdoc16k => kernel::run(&args),
        Workload::DecodeFleet => fleet::run(&args),
    };

    let mut context = vec![
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Int(args.seed)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Int(nproc as u64)),
        ("elsa_threads", Json::Int(threads as u64)),
        ("rustc", Json::str(env!("HOSTBENCH_RUSTC_VERSION"))),
        ("commit", Json::Str(commit())),
    ];
    context.extend(result.context.iter().map(|(k, v)| (*k, v.clone())));
    println!("{}", Json::Obj(vec![("context", Json::Obj(context))]));
    println!("{}", result.to_json(args.trace));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("hostbench: output checks failed");
        ExitCode::FAILURE
    }
}
