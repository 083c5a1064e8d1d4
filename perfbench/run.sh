#!/usr/bin/env bash
# Builds p4wnd and the benchmark from this checkout, then runs one workload.
#
#   bash perfbench/run.sh --workload profile_deep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# daemon stores and span dumps all stay under .bench_build/ in the checkout.
# The last line of standard output is the JSON result.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/p4wnd" ]; then
  echo "perfbench: run from the repository root (no go.mod or cmd/p4wnd here)" >&2
  exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its config and telemetry under XDG_CONFIG_HOME.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/bin/p4wnd" ./cmd/p4wnd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" -work "$out/work" "$@"
