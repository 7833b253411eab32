#!/usr/bin/env bash
# Builds the neurofail binary and the service benchmark from the checkout
# this script sits in, then runs the benchmark with the given arguments.
#
#   bash svcbench/run.sh --workload query --seed 1 --seconds 20 --trace 0
#   bash svcbench/run.sh compare parent.jsonl change.jsonl
#
# Everything the build and the runs write (Go caches, binaries, stores,
# trace files) stays under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# With telemetry on (the default is "local"), the go command starts a
# detached child process that outlives the build; turning it off keeps
# every process this script starts inside its own lifetime.
printf 'off\n' >"$out/config/go/telemetry/mode"
(cd "$root" && go build -o "$out/neurofail" ./cmd/neurofail) >&2
(cd "$here" && go build -o "$out/svcbench" .) >&2
if [ "${1:-}" = compare ]; then
	shift
	exec "$out/svcbench" compare -benchmark "$root/BENCHMARK.json" "$@"
fi
exec "$out/svcbench" -bin "$out/neurofail" -work "$out/work" "$@"
