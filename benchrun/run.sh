#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given flags. Run it from the checkout's root:
#
#   bash benchrun/run.sh --workload cold-solve --seed 1 --seconds 20 --trace 0
#
# Every file the build writes (Go build cache, temporaries, the binary) and
# the traced run's span files stay under .bench_build at the root.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off
(cd "$here" && go build -o "$out/benchrun" .)
exec "$out/benchrun" "$@"
