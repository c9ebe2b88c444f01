#!/usr/bin/env bash
# Builds the benchmark and the telamallocd daemon from this checkout's
# sources, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash telabench/run.sh --workload compile-tight --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binaries, span files, result
# records) goes under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off CGO_ENABLED=0

# Record the source revision when the checkout is a git work tree; never
# look above the checkout for one.
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || true)"
export TELABENCH_COMMIT="${commit:-unknown}"

(cd "$root/telabench" && go build -o "$out/telabench" . && go build -o "$out/telamallocd" telamalloc/cmd/telamallocd) >&2
export TELABENCH_DAEMON="$out/telamallocd"
exec "$out/telabench" --out "$out" "$@"
