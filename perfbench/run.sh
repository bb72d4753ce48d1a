#!/usr/bin/env bash
# Builds the server and the benchmark from this checkout's sources, then
# runs one benchmark run. Run from the repository root:
#
#   bash perfbench/run.sh --workload office-locate --seed 1 --seconds 20 --trace 0
#
# Everything the run writes stays under .bench_build/ in the checkout:
# the binaries, the Go build cache and temporary files, the go command's
# config directory, and each run's data dirs, logs, spans and record.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/iupdater" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/iupdater and perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off
go build -o "$out/iupdater" ./cmd/iupdater
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/iupdater" -work "$out" "$@"
