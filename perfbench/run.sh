#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload frame-gen --seed 1 --seconds 20 --trace 0
# Run it from the repository root. Everything the build and the run
# write stays under ${CARGO_TARGET_DIR:-.bench_build} in the current
# directory: the compiler cache, the binary, and in tmp/ the scratch
# files and the span dumps of traced runs.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export TMPDIR=$out/tmp

# The revision recorded with every result; only a git checkout has one.
rev=unknown
if [ -d "$root/.git" ] && rev=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	[ -z "$(git -C "$root" status --porcelain 2>/dev/null)" ] || rev=$rev+modified
fi
export PERFBENCH_REV=$rev

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
