#!/usr/bin/env bash
# Builds the fedml benchmark from the source tree it sits in and runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Every build output (binary, Go build cache, span files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Fall back to the Go distribution's default install location.
command -v go >/dev/null 2>&1 || PATH="$PATH:/usr/local/go/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
