#!/usr/bin/env bash
# Tier-1 CI: everything here runs fully offline — the workspace has no
# external dependencies by policy (see README "Hermetic build"), so a
# network-less container must be able to build, test, and lint.
#
#   scripts/ci.sh          # build + tests + format check + gates + benchmark check
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
# --workspace: the serve gates spawn the td_serve binary next to themselves,
# which a root-package build alone does not produce.
cargo build --release --offline --workspace

echo "== tests (offline) =="
cargo test -q --offline --workspace

echo "== format check =="
cargo fmt --check

echo "== traced schedule smoke (observability) =="
# Runs the quickstart schedule with tracing on; the binary validates the
# Chrome trace JSON (std-only validator) and fails on an empty event
# stream or missing span/instant structure.
mkdir -p target
TD_TRACE=target/trace_smoke.json cargo run -q --release --offline -p td-bench --bin td_gate -- trace_smoke
test -s target/trace_smoke.json || { echo "trace_smoke.json is empty"; exit 1; }

echo "== concurrent engine smoke (td-sched) =="
# Same batch at 1 and 4 workers; the binary fails on output divergence,
# on a cold->warm cache miss, or on a merged trace that breaks the lane
# rule (lane = worker + 1, the caller being worker 0) by exact count: the
# 1-worker run leaves nothing off the caller's lane, the 4-worker run is
# exactly lanes 1-4 with one workerN span each, both have one job span
# per job, and every job span lies inside its batch span.
TD_TRACE=target/sched_smoke_trace.json cargo run -q --release --offline -p td-bench --bin td_gate -- sched_smoke
test -s target/sched_smoke_trace.json || { echo "sched_smoke_trace.json is empty"; exit 1; }

echo "== provenance journal smoke (attribution + bisection + batch report) =="
# Runs a tiled-matmul schedule with TD_JOURNAL set and asserts: the journal
# attributes the original loop's erasure to transform.loop.tile, bisection
# emits a non-empty minimized repro schedule for a known-failing pipeline,
# and a 4-worker td-sched batch merges per-worker journals into one report
# whose JSON passes the std-only validator.
TD_JOURNAL=target/journal_smoke.json cargo run -q --release --offline -p td-bench --bin td_gate -- journal_smoke
test -s target/journal_smoke.json || { echo "journal_smoke.json is empty"; exit 1; }

echo "== chaos smoke (fault injection + transactional rollback) =="
# Replays the sched_smoke batch under silenceable, panic, and deadline
# fault plans. The binary fails if outcomes diverge between 1 and 4
# workers, if any output IR is invalid, if no rollbacks/faults were
# counted, if the failure budget does not degrade gracefully, if an
# injected failure of any kind at any step index leaves the payload
# different from a clean run of the committed steps, or if the median
# txn=always / txn=never pair costs more than 1.10x.
cargo run -q --release --offline -p td-bench --bin td_gate -- chaos_smoke

echo "== observability smoke (histograms + flight recorder + profiler) =="
# Four gates: p50/p90/p99/p999 percentile fields must appear in the batch
# report JSON and the coordinator metrics snapshot (metrics::snapshot);
# an injected panic plan must dump a flight bundle into TD_FLIGHT_DIR that
# replays the failing step's attribution; TD_PROFILE must write a
# speedscope-loadable collapsed profile; and the always-on flight recorder
# must cost < 3% idle (EXPERIMENTS.md "Flight recorder overhead"
# methodology).
cargo run -q --release --offline -p td-bench --bin td_gate -- obs_smoke

echo "== generative fuzz smoke (differential oracle) =="
# Fixed-seed fuzz run: 200 generated (schedule, payload) pairs pushed
# through all six oracle modes (direct, engine 1w/4w, journal on, cache
# cold/warm) with zero divergences allowed, a prefix of them swept for
# rollback == "the step never ran" at every fault point; the committed
# regression corpus under tests/golden/fuzz/ replays clean; an injected
# silenceable fault is shown to auto-minimize into a replayable
# corpus-format repro; and the alternatives metamorphic family holds on
# 200 seeds. TD_FUZZ_SEED / TD_FUZZ_BUDGET override the defaults for soak
# runs.
cargo run -q --release --offline -p td-bench --bin td_gate -- fuzz_smoke

echo "== serve smoke (daemon + persistent cache + multi-tenant chaos soak) =="
# Two gates. Restart: a real td_serve daemon subprocess (stdio transport)
# runs a mixed two-tenant batch cold, shuts down, and a fresh daemon over
# the same TD_SERVE_CACHE_DIR must serve >90% of the rerun from the
# on-disk result cache with byte-identical outputs. Soak: a TD_FAULT plan
# injects silenceable/panic/deadline faults into three tenants' fault
# lanes under concurrent load; the unfaulted tenant's outputs must be
# byte-identical to a no-fault baseline and the drain must deliver every
# admitted job.
cargo run -q --release --offline -p td-bench --bin td_gate -- serve_smoke

echo "== serve observability (request-id correlation + STATS counters) =="
# Two gates. Live daemon: a td_serve subprocess (unix socket) with four
# tenants — one fault-injected to sleep past its deadline — must serve
# artifacts by request id and answer STATS as valid JSON whose per-tenant
# deadline-miss counters are nonzero only for the faulted tenant, whose
# disk counters show evictions from the size-capped cache, and which
# carries the live internal registry. Correlation: one request id
# supplied at SUBMIT must be retrievable from the RESULT, the journal
# report, the flight bundle (injected panic plan), and the Chrome trace's
# queue-wait and run spans.
cargo run -q --release --offline -p td-bench --bin td_gate -- serve_obs

echo "== IR storage statistics (arity histogram, block edits, allocations) =="
# One TOSA-pipeline job per Table 1 model with a counting allocator:
# allocations per phase, storage counters and the arity histogram the
# inline list capacities were sized from (DESIGN.md "Entity storage").
cargo run -q --release --offline --example ir_storage_stats

echo "== benchmark harness (builds against the workspace + quick check) =="
# benchmark/ is a workspace of its own with path dependencies on crates/*,
# so a public-API change that stops it compiling would otherwise surface
# only in the merge pipeline. --check runs one small round per workload
# with full output verification (< 60 s after the build).
cargo build --release --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --check

echo "CI OK"
