#!/usr/bin/env bash
# Offline CI gate: build, test, format, lint. No network access needed —
# the workspace has zero external dependencies.
#
# Usage: scripts/ci.sh [--quick]
#   --quick   skip the feature-gated property tests and bench build
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

# Determinism probe: `cargo run -q --release <args>` twice; the two
# outputs must be byte-identical, else print $1 and the diff and fail.
replays_identically() {
    local diverged=$1 a b
    shift
    a="$(cargo run -q --release "$@")"
    b="$(cargo run -q --release "$@")"
    if [[ "$a" != "$b" ]]; then
        echo "$diverged" >&2
        diff <(printf '%s\n' "$a") <(printf '%s\n' "$b") >&2 || true
        exit 1
    fi
}

echo "==> audit stage: kaas-audit static pass + sim-sanitizer test run"
# Static determinism/resource-safety lint over the whole workspace, in
# machine-readable mode: each finding is one JSON object which we turn
# into a CI error annotation before failing the gate.
if ! audit_out="$(cargo run -q --release -p kaas-audit -- --format=json)"; then
    printf '%s\n' "$audit_out" | sed -n 's/^{.*}$/::error ::&/p' >&2
    printf '%s\n' "$audit_out" | tail -n 1 >&2
    exit 1
fi
# The full suite again with the runtime invariant auditor attached to
# every server (chaos + dataplane included): zero violations expected.
cargo test -q --release --workspace --features sim-sanitizer

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --release --workspace

if [[ $quick -eq 0 ]]; then
    echo "==> cargo test -q --all-features (property tests + bench harness)"
    cargo test -q --release --workspace --all-features
fi

echo "==> chaos stage: seeded fault storm + determinism replay"
cargo test -q --release --test chaos
# Replay check: the same seeded storm twice; the example's recovery
# timeline (and everything else it prints) must be byte-identical.
replays_identically "chaos replay diverged between two same-seed runs" --example chaos

echo "==> dataplane stage: cache/eviction tests + bench determinism"
cargo test -q --release --test dataplane
# The data-plane bench must replay byte-identically run to run.
replays_identically "dataplane bench diverged between two runs" -p kaas-bench --bin dataplane -- --quick

echo "==> dataflow stage: workflow DAG tests + bench determinism"
cargo test -q --release --test workflow_dataflow
# The registered-flow bench must replay byte-identically run to run.
replays_identically "dataflow bench diverged between two runs" -p kaas-bench --bin dataflow -- --quick

echo "==> cluster stage: sharded-dispatch tests + bench determinism"
cargo test -q --release --test dispatch_shard
# The dispatch A/B bench (serialized knee vs sharded+batched) must
# replay byte-identically run to run.
replays_identically "cluster bench diverged between two runs" -p kaas-bench --bin cluster -- --quick

echo "==> overload stage: overload-control tests + bench determinism"
cargo test -q --release --test overload
# The metastable-failure A/B bench must replay byte-identically run to
# run (burst timing, sheds, ejections, budget denials included).
replays_identically "overload bench diverged between two runs" -p kaas-bench --bin overload -- --quick

echo "==> guest stage: guest runtime tests + coldstart bench determinism"
cargo test -q --release -p kaas-guest
cargo test -q --release --test guest_runtime
# The two-path cold-start sweep must replay byte-identically run to run.
replays_identically "coldstart bench diverged between two runs" -p kaas-bench --bin coldstart -- --quick

echo "==> verify stage: bytecode verifier differential test + bench determinism"
cargo test -q --release -p kaas-guest --test differential
# The checking-vs-fast-path sweep is modeled from instruction/check
# counters, so it must replay byte-identically run to run.
replays_identically "verify bench diverged between two runs" -p kaas-bench --bin verify -- --quick

echo "==> cargo build --features trace --examples"
cargo build --release --features trace --examples

echo "==> cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --release --workspace --all-targets -- -D warnings
if [[ $quick -eq 0 ]]; then
    cargo clippy --release --workspace --all-targets --all-features -- -D warnings
fi

echo "CI OK"
