#!/usr/bin/env bash
# Tier-1 verification gate, fully offline.
#
# 1. cargo build --release --offline  +  cargo test -q --offline (tier-1)
# 2. workspace-wide unit tests, run twice — pinned to one worker thread and
#    to four — so the deterministic-parallelism contract (bit-identical
#    results at any worker count; see crates/elsa-parallel) is exercised on
#    every gate run, plus byte-for-byte diffs of the pinned BENCH_*.json
#    artifacts and rival tables, bench smoke runs and a one-second run of
#    each host-benchmark workload (BENCHMARK.json's command) at its pinned
#    seed
# 3. rustdoc with warnings denied, so stale intra-doc links fail the gate
# 4. static analysis: `elsa-lint` (in-tree, zero-dependency) scans every .rs
#    file and Cargo.toml and enforces the determinism, reduction-order,
#    arithmetic-headroom, panic-policy/pairing/reachability, and
#    unsafe-hygiene contracts; any unwaived finding, over-budget rule, or
#    stale waiver fails the gate, and the machine-readable report must match
#    the committed results/lint_report.json byte-for-byte.
# 5. dependency guard: every [dependencies]/[dev-dependencies] entry in every
#    Cargo.toml must be an in-tree path dependency (directly or via
#    workspace = true); anything resolving to crates.io fails the gate. This
#    is elsa-lint's O1 rule — no external interpreter required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release --offline"
cargo build --release --offline

echo "==> tier-1: cargo test -q --offline"
cargo test -q --offline

echo "==> workspace tests (all crates, ELSA_THREADS=1)"
ELSA_THREADS=1 cargo test -q --offline --workspace

echo "==> workspace tests (all crates, ELSA_THREADS=4)"
ELSA_THREADS=4 cargo test -q --offline --workspace

echo "==> chaos battery (fixed seed, ELSA_THREADS=1 and 4)"
# The fault-tolerance properties promise bit-identical serving reports at
# any worker count and full accounting under any seeded FaultPlan; run them
# under a pinned seed so a gate failure reproduces exactly.
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=1 cargo test -q --offline --test fault_tolerance
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=4 cargo test -q --offline --test fault_tolerance

echo "==> online serving battery (fixed seed, ELSA_THREADS=1 and 4)"
# The serving acceptance tests promise bit-identical ServeReports at any
# worker count, offline equivalence of the degenerate pipeline, exact
# overload accounting, and the bucketed-vs-padded throughput ordering.
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=1 cargo test -q --offline --test online_serving
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=4 cargo test -q --offline --test online_serving

echo "==> flash equivalence battery (fixed seed, ELSA_THREADS=1 and 4)"
# The tiled streaming kernel promises bitwise equality with naive exact
# attention across all tile sizes and worker counts (a 0-ulp bound); run the
# battery under a pinned seed at both thread counts so a failure reproduces.
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=1 cargo test -q --offline --test flash_equivalence
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=4 cargo test -q --offline --test flash_equivalence

echo "==> session equivalence battery (fixed seed, ELSA_THREADS=1 and 4)"
# The incremental decode session promises bitwise equality with from-scratch
# preprocessing (signatures, norms, candidate sets, output rows — 0 ulp)
# across the workload zoo, plus the eviction-model properties; run it under
# a pinned seed at both thread counts so a failure reproduces.
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=1 cargo test -q --offline --test session_equivalence
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=4 cargo test -q --offline --test session_equivalence

echo "==> cluster fault-tolerance battery (fixed seed, ELSA_THREADS=1 and 4)"
# The multi-node fleet promises bit-identical ClusterReports at any worker
# count and any node count, exact request accounting under node death /
# stragglers / flapping, monotone SLO degradation under node loss, and
# session failover with cache rebuild; run under a pinned seed at both
# thread counts so a gate failure reproduces exactly.
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=1 cargo test -q --offline --test cluster_fault_tolerance
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=4 cargo test -q --offline --test cluster_fault_tolerance

echo "==> long-context battery (fixed seed, ELSA_THREADS=1 and 4)"
# §E-LONGCTX: longctx trace round-trip stability, length-mix accounting,
# bitwise thread-replay of ELSA candidate selection and the pooled-KV rival
# on 8k-key invocations, and the bucketed-vs-padded skew ordering; run under
# a pinned seed at both thread counts so a gate failure reproduces exactly.
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=1 cargo test -q --offline --test longctx
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=4 cargo test -q --offline --test longctx

echo "==> serving regression (bench_serve vs committed BENCH_serve.json)"
# bench_serve replays seeded arrival traces on the virtual clock only —
# λ sweep, bucketed-vs-padded batching, offline bit-identity check — so the
# JSON reproduces byte-for-byte on any host.
cargo run -q --release --offline -p elsa-bench --bin bench_serve | diff - BENCH_serve.json \
  || { echo "FAIL: bench_serve output diverged from committed BENCH_serve.json"; exit 1; }

echo "==> fault sweep regression (bench_fault sweep rows vs committed BENCH_fault.json)"
# The fault-rate sweep is virtual-clock accounting from a pinned plan seed,
# so its rows reproduce byte-for-byte; the zero_fault block is host
# wall-clock and is deliberately left out of the comparison.
sweep_rows() { grep '"fault": '; }
diff <(cargo run -q --release --offline -p elsa-bench --bin bench_fault | sweep_rows) \
  <(sweep_rows < BENCH_fault.json) \
  || { echo "FAIL: bench_fault sweep rows diverged from committed BENCH_fault.json"; exit 1; }

echo "==> flash accounting regression (bench_flash vs committed BENCH_flash.json)"
# bench_flash reads no wall clock: every value is an analytic FLOP/byte
# count or a deterministic model cycle count from pinned seeds, so the
# output must reproduce the committed file byte-for-byte on any host.
cargo run -q --release --offline -p elsa-bench --bin bench_flash | diff - BENCH_flash.json \
  || { echo "FAIL: bench_flash output diverged from committed BENCH_flash.json"; exit 1; }

echo "==> session cache regression (bench_session vs committed BENCH_session.json)"
# bench_session is equally host-independent: closed-form decode-step cycles
# and the deterministic cache registry from pinned seeds, byte-for-byte.
cargo run -q --release --offline -p elsa-bench --bin bench_session | diff - BENCH_session.json \
  || { echo "FAIL: bench_session output diverged from committed BENCH_session.json"; exit 1; }

echo "==> cluster serving regression (bench_cluster vs committed BENCH_cluster.json)"
# bench_cluster runs entirely on the simulator's virtual clock: scaling
# sweep, routing-policy comparison, and the node-death recovery timeline
# are all deterministic functions of pinned seeds, byte-for-byte.
cargo run -q --release --offline -p elsa-bench --bin bench_cluster | diff - BENCH_cluster.json \
  || { echo "FAIL: bench_cluster output diverged from committed BENCH_cluster.json"; exit 1; }

echo "==> long-context regression (bench_longctx vs committed BENCH_longctx.json)"
# bench_longctx is pure seeded arithmetic: the rival frontier (ELSA hashing
# vs pooled-KV on identical 8k-64k traces) and the closed-form skew model
# read no clocks and no host state, so the JSON reproduces byte-for-byte.
cargo run -q --release --offline -p elsa-bench --bin bench_longctx | diff - BENCH_longctx.json \
  || { echo "FAIL: bench_longctx output diverged from committed BENCH_longctx.json"; exit 1; }

echo "==> rival tables (cmp_software_sparse, cmp_segmentation vs results/, default, ELSA_THREADS=1 and 4)"
# The §V-E and §I rival comparisons run every rival through the one
# `elsa_sparse::Rival` interface from pinned seeds; their tables must
# reproduce the committed captures byte-for-byte at any worker count.
for bin in cmp_software_sparse cmp_segmentation; do
  cargo run -q --release --offline -p elsa-bench --bin "$bin" | diff - "results/$bin.txt" \
    || { echo "FAIL: $bin output diverged from results/$bin.txt"; exit 1; }
  for threads in 1 4; do
    ELSA_THREADS=$threads cargo run -q --release --offline -p elsa-bench --bin "$bin" \
      | diff - "results/$bin.txt" \
      || { echo "FAIL: $bin at ELSA_THREADS=$threads diverged from results/$bin.txt"; exit 1; }
  done
done

echo "==> host benchmark (BENCHMARK.json command, every workload, seed 42)"
# The host-clock benchmark in .hostbench/ drives the public serving and
# kernel APIs and exits nonzero when a check fails; at seed 42 it also pins
# digests of the fleet records and outputs. A one-second run of each
# workload therefore catches both API drift and changed fleet records.
for workload in prefill-2k longdoc-16k decode-fleet; do
  cargo run --release --offline --quiet --manifest-path .hostbench/Cargo.toml -- \
    --workload "$workload" --seed 42 --seconds 1 --trace 0 \
    || { echo "FAIL: host benchmark workload $workload"; exit 1; }
done

echo "==> bench smoke runs (each benchmark body once)"
cargo test -q --offline --workspace --benches

echo "==> rustdoc (every crate, warnings denied)"
# Broken or ambiguous intra-doc links fail the gate, so a doc comment that
# still links to a deleted or private item is caught when the item goes.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> static analysis (elsa-lint, strict waivers)"
# All rules: nondeterminism (D1), hash-collections (D2), threads-env (D3),
# reduction-order (F1), arithmetic-headroom (A1), panic-policy (P1),
# try-panic-pairing (C1), panic-reachability (P2), offline-deps (O1),
# unsafe-safety (U1), waiver-syntax (W0). Exits nonzero on any unwaived
# finding, any rule over its per-rule waiver budget, or — because of
# --strict-waivers — any stale waiver that no longer suppresses anything.
# `--list-waivers` shows the audit view; `--waiver-report` the budget table.
cargo run -q --offline -p elsa-lint -- --strict-waivers

echo "==> lint report snapshot (elsa-lint --format json vs results/lint_report.json)"
# The JSON report is stable-ordered by construction (findings by file/line/
# rule, rules in table order), so the live render must match the committed
# snapshot byte-for-byte; a rule, waiver, or fix that changes lint state
# must regenerate the snapshot in the same commit.
cargo run -q --offline -p elsa-lint -- --format json | diff - results/lint_report.json \
  || { echo "FAIL: lint JSON diverged; regenerate with: cargo run -p elsa-lint -- --format json > results/lint_report.json"; exit 1; }

echo "==> dependency guard: no external (non-path) dependencies"
# elsa-lint's O1 rule parses every Cargo.toml directly: each dependency entry
# must be an in-tree `path` dependency or a `workspace = true` inheritance of
# one (the workspace-level table is itself checked). It also pins a set of
# known manifests so a layout change cannot silently drop the scan. This
# catches a registry dep even when a populated local cache lets it build.
cargo run -q --offline -p elsa-lint -- --rule offline-deps

echo "OK: tier-1 green, workspace green, lint clean, zero external dependencies"
