#!/usr/bin/env bash
# Builds the benchmark driver from source and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything it builds or writes (Go build
# cache, binary, data dirs, spans, result files) goes under $CARGO_TARGET_DIR
# when set, else .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE=$out/gocache
export GOMODCACHE=$out/gomod
export GOTMPDIR=$out/tmp
export TMPDIR=$out/tmp
export GOTOOLCHAIN=local
export GOPROXY=off
if [ -z "${BENCH_GIT_COMMIT:-}" ] && [ -e "$root/.git" ]; then
	BENCH_GIT_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	export BENCH_GIT_COMMIT
fi

go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
