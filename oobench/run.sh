#!/usr/bin/env bash
# Builds oodbd, waldump and the benchmark driver from this checkout's
# sources, then runs the driver with the given arguments, e.g.
#
#   bash oobench/run.sh --workload bank-wire --seed 3 --seconds 10 --trace 0
#
# Everything the build and the runs leave behind goes to .bench_build/ at
# the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off CGO_ENABLED=0
go build -o "$out/bin/" ./cmd/oodbd ./cmd/waldump >&2
(cd oobench && go build -o "$out/bin/oobench" .) >&2
case "${1:-}" in
compare | gen-history) exec "$out/bin/oobench" "$@" ;;
esac
exec "$out/bin/oobench" -bin "$out/bin" -work "$out/work" -data "$root/oobench/testdata" "$@"
