#!/usr/bin/env bash
# Builds the server (`ppanns-cli`, the repository's own package) and the
# benchmark (this directory's package) into one target directory, then runs
# the benchmark with the arguments given. Run from the repository root:
#
#   bash perf_ledger/run.sh --workload deep2k-rtt --seed 1 --seconds 10 --trace 0
#   bash perf_ledger/run.sh --seed 1 --out /tmp/ledger        # every workload, both runs
#   bash perf_ledger/run.sh compare A.json B.json
set -euo pipefail

if [ ! -f Cargo.toml ] || [ ! -f perf_ledger/Cargo.toml ] || [ ! -d crates/service ]; then
    echo "perf_ledger/run.sh: run from the root of a checkout that holds the workspace" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --quiet --bin ppanns-cli >&2
cargo build --release --quiet --manifest-path perf_ledger/Cargo.toml >&2
case "$CARGO_TARGET_DIR" in
    /*) bin="$CARGO_TARGET_DIR/release/perf_ledger" ;;
    *) bin="./$CARGO_TARGET_DIR/release/perf_ledger" ;;
esac
exec "$bin" "$@"
