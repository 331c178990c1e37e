#!/usr/bin/env bash
# Builds ufpserve and the benchmark program from this checkout and runs
# one benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output, the Go build and module caches, Go's local telemetry,
# the server log and span files all stay under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/ufpserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ufpserve and perfbench/ are needed)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/go-tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/go-config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/ufpserve" ./cmd/ufpserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/ufpserve" -out "$out/perfbench-run" "$@"
