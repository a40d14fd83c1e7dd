#!/usr/bin/env bash
# Smoke-test giant-graph scalability: run experiment E20 in quick mode
# (N up to 4096) against the checked-in BENCH_scale.json baseline and
# fail on a >2x ns/proc regression at any common size. E20 itself
# verifies the condensed solver byte-for-byte against the per-node
# solver at every quick size, so this also gates correctness. E20
# writes BENCH_scale.json into its working directory, so the binary
# runs from a temporary directory and the checkout is left as it was.
# CI runs this as the scale-smoke job.
set -euo pipefail

cd "$(dirname "$0")/.."

fail() { echo "scale_smoke: FAIL: $*" >&2; exit 1; }

[ -f BENCH_scale.json ] || fail "checked-in BENCH_scale.json baseline missing"

baseline="$PWD/BENCH_scale.json"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/experiments" ./cmd/experiments

(cd "$tmpdir" && ./experiments -run E20 -quick -scale-baseline "$baseline") ||
	fail "E20 quick run failed (regression >2x ns/proc vs baseline, or condensed/per-node mismatch)"

echo "scale_smoke: PASS"
