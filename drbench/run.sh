#!/usr/bin/env bash
# Builds draid from the checkout in the current directory and the drbench
# load generator, then runs drbench with the given arguments. Everything the
# build and the runs leave behind goes under ./.bench_build.
#
#   bash drbench/run.sh --workload epoch --seed 1 --seconds 8 --trace 0
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/draid" ] || [ ! -f "$root/drbench/go.mod" ]; then
	echo "drbench: run from the repository root (cmd/draid or drbench/go.mod not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# The go command also keeps its env file and telemetry under the user
# config dir; point that into the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bin/draid" ./cmd/draid
(cd "$root/drbench" && go build -o "$out/bin/drbench" .)
exec "$out/bin/drbench" -draid "$out/bin/draid" -out "$out" "$@"
