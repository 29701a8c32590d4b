#!/usr/bin/env bash
# Builds the benchmark and the lwtserved worker from the checkout it sits
# in, then runs one workload:
#
#   bash perfbench/run.sh --workload dag --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ at the root
# of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
if [ -z "$commit" ]; then
  # Not a git checkout: stamp a digest of the Go sources instead.
  commit="src-$(cd "$root" && find . -path ./.bench_build -prune -o -name '*.go' -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
cd "$root/perfbench"
go build -o "$out/bin/perfbench" .
go build -o "$out/bin/lwtserved" repro/cmd/lwtserved
cd "$root"
exec "$out/bin/perfbench" --out "$out" --lwtserved "$out/bin/lwtserved" --commit "$commit" "$@"
