#!/usr/bin/env bash
# Gate of the benchmark itself: builds offline, checks BENCHMARK.json against
# the metric registry, and runs every workload twice at a smoke scale to see
# that the exactly-repeating metrics repeat exactly. Timing is not gated
# here: three short reps on a shared runner say nothing about speed.
#
# Not wired into .github/workflows/ci.yml yet: the PR that defines the
# benchmark may touch nothing outside benchmark/ and BENCHMARK.json.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test --release --offline -q
bin="${CARGO_TARGET_DIR:-target}/release/rfid-benchmark"
out="out/ci"
rm -rf "$out"

"$bin" list --manifest ../BENCHMARK.json
for set in a b; do
    "$bin" run --all --seed 1234 --reps 3 --horizon 600 --out "$out/$set" >/dev/null
done
"$bin" agree "$out/a" "$out/b" --exact
