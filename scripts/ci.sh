#!/usr/bin/env bash
# Tier-1 gate: formatting, lints (including the unwrap/expect ban from
# clippy.toml), and the root test suite. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# Library crates only: tests and benches are exempt from the
# disallowed-methods ban, and vendor/ stubs carry a crate-level allow.
echo "==> cargo clippy -D warnings (library crates)"
cargo clippy --offline --lib --bins \
    -p hummingbird -p hb-tensor -p hb-backend -p hb-ml -p hb-pipeline \
    -p hb-data -p hb-core -p hb-json -p hb-serve \
    -- -D warnings

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

echo "==> cargo test -q --workspace"
cargo test -q --offline --workspace

# Memory-planner gate, explicitly: per-batch plan determinism,
# steady-state zero-allocation compiled inference, bit identity and
# equal cost accounting between planned and refcount runs, and
# allocation counters that concurrent runs on other threads cannot
# disturb. The built binary runs 10 times with default test threads, so
# a cross-thread leak into the counters cannot pass by luck of timing.
echo "==> test memplan x10 (plan determinism + zero-alloc steady state)"
memplan_bin=$(cargo test --offline --test memplan --no-run --message-format=json 2>/dev/null \
    | grep -o '"executable":"[^"]*/memplan-[0-9a-f]*"' | cut -d'"' -f4)
for _ in $(seq 10); do
    "$memplan_bin" -q
done

# Abstract-interpretation gate, explicitly: randomized soundness of the
# interval/taint analysis (every eager intermediate inside its inferred
# fact, NaN only where taint permits, before and after optimization)
# plus the memory-plan auditor regression suite.
echo "==> cargo test -q --test absint_soundness --test plan_audit (value analysis gates)"
cargo test -q --offline --test absint_soundness
cargo test -q --offline --test plan_audit

# Register-LIR gate, explicitly: every compiled fused kernel must carry
# a verifier-passed LIR whose register allocation replays clean, the
# seeded-corrupt negatives (use-before-def, out-of-range operand,
# type-confused operand, dead output register, clobbered location
# table) must be rejected with their exact typed errors, and the
# randomized differential suite must show the register VM bit-identical
# to the stack interpreter, NaN payloads and min/max laundering
# asymmetry included.
echo "==> cargo test -q --test lir (register-LIR verifier + differential gate)"
cargo test -q --offline --test lir

# Codegen-tier gate, explicitly: every specialized kernel class the
# stage-2 pattern compiler emits (chain2/chain3/bin2-then/select/
# sanitize-clamp) must stay bit-identical with the generic register VM
# and the legacy stack interpreter over NaN/±Inf/-0.0-seeded inputs,
# in-place evaluation must match out-of-place, and real compiled models
# must produce bit-identical planned outputs on every dispatch rung and
# at every pinned thread count.
echo "==> cargo test -q --test codegen (specialized-kernel differential + determinism gate)"
cargo test -q --offline --test codegen

# Static graph audit: export compiled artifacts (graph + signature +
# value facts) for every tree strategy plus an end-to-end pipeline,
# then run the hb-lint verifier over them. --deny-analysis promotes any
# new analysis finding (probability escaping [0,1], dead where-branch,
# 0-crossing denominator) to an error; --audit-plans replays each
# artifact's memory plans through the independent auditor; --buckets
# checks every graph can scatter per-record results for the serving
# front door's coalescing bucket set (a warning, not a gate — such a
# graph still serves, just uncoalesced). hb-lint exits non-zero on any
# error-level diagnostic.
echo "==> hb-lint over exported graphs (--audit-plans --deny-analysis --deny-cost --buckets)"
rm -rf target/ci-graphs
./target/release/hb-export target/ci-graphs
./target/release/hb-lint --audit-plans --deny-analysis --deny-cost --buckets 1,2,4,8,16,32 \
    target/ci-graphs/*.json

# Cost-certification gate, explicitly: the static certifier's counters
# must match a real execution bit-for-bit across the model zoo at every
# batch bucket (they are the same integer sums evaluated two ways), the
# certified arena must equal the audited plan, and the measured wall
# must land inside the calibrated envelope widened by eps = 0.5. The
# cost bench repeats the same gate per tree strategy and emits
# bench_results/cost.json; --deny-cost above already promotes any
# stale-cert drift or cost regression in the exported artifacts to an
# error.
echo "==> cargo test -q --test cost_soundness (certified-vs-measured cost gate)"
cargo test -q --offline --test cost_soundness
echo "==> cost bench gate (certified envelope vs measured, per strategy x bucket)"
RUST_BACKTRACE=1 cargo run -q --offline --release -p hb-bench --bin tables -- cost

# Chaos suite, explicitly and with backtraces: every fault injected
# into the supervised worker pool must surface typed or degraded —
# worker deaths, lost quarantines, and non-monotonic incident logs all
# fail here.
echo "==> cargo test -q --test chaos (supervisor chaos suite)"
RUST_BACKTRACE=1 cargo test -q --offline --test chaos

# Bounded concurrent soak gate: a short multi-threaded hammer over the
# supervisor under each fault plan. The soak binary asserts its own
# invariants (zero worker deaths, monotonic incidents, non-deadlocking
# drain, no silently wrong answer) and exits non-zero on violation.
#
# The soak's final two scenarios are the overload gate: 128 clients
# hammer a queue of 64 (arrival >= 2x capacity) with a 50ms deadline,
# once uncoalesced and once through the micro-batching front door. The
# binary asserts the coalesced run forms batches, holds e2e p99 <= the
# deadline budget, sheds doomed requests early instead of serving them
# late (no `ok` reply past its deadline, bit-identical outputs to solo
# execution), keeps all workers alive with zero panics, and sustains
# >= 2x the uncoalesced ok-throughput.
echo "==> serving soak gate (bounded, incl. 2x-capacity overload gate)"
RUST_BACKTRACE=1 cargo run -q --offline --release -p hb-bench --bin tables -- \
    soak --soak-secs 1.0 --clients 6

# Multi-model store gate: (a) the store chaos suite — 50 models plus
# one poisoned neighbor behind one supervised store, asserting fault
# isolation (healthy models keep >=95% ok-throughput, zero cross-model
# incident leakage, zero worker deaths), hot-swap promote/rollback,
# fair-share no-starvation under a greedy flood, and typed budget
# rejections; (b) the store bench — 48 replicas must grow measured
# memory sub-linearly (<= 0.5x naive via constant dedup) and a seeded
# divergent v2 must auto-roll-back. Both exit non-zero on violation.
echo "==> cargo test -q --test store_chaos (multi-model fault isolation)"
RUST_BACKTRACE=1 cargo test -q --offline --test store_chaos
echo "==> store bench gate (sub-linear memory + hot-swap rollback)"
RUST_BACKTRACE=1 cargo run -q --offline --release -p hb-bench --bin tables -- store

echo "CI green."
