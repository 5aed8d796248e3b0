#!/usr/bin/env bash
# Runs the benchmark binary, building it first when it is missing or any
# source it is built from is newer than it. Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Why not `cargo run`: outside a git checkout (a source export) the
# tirm_obs build script's rerun-if-changed paths under .git/ do not
# exist, so cargo re-runs it on every invocation and recompiles tirm_obs
# and every crate above it — about half a minute per run.
set -euo pipefail

target="${CARGO_TARGET_DIR:-perfbench/target}"
bin="$target/release/tirm_perfbench"
if [ ! -x "$bin" ] || [ -n "$(find Cargo.toml Cargo.lock crates vendor perfbench \
        -path perfbench/target -prune -o -type f -newer "$bin" -print -quit)" ]; then
    cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
fi
exec "$bin" "$@"
