#!/usr/bin/env bash
# The one command CI or a human calls (and BENCHMARK.json's command):
#
#   bash bench/run.sh                       every workload -> bench/out/result.json
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash bench/run.sh compare A.json B.json
#
# Noise discipline: build first, then let the machine settle before any
# timing — the binary spins a fixed calibration loop until three readings
# in a row agree, because medians drift by tens of percent for a while
# after a build. Everything it writes (build cache, binary, results) stays
# under bench/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"

export GOCACHE="$PWD/.build/gocache" GOPATH="$PWD/.build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT

go build -o .build/bench .
exec ./.build/bench "$@"
