#!/usr/bin/env bash
# Builds perfbench from source inside the checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the go command's own state all
# live under $CARGO_TARGET_DIR (default .bench_build), so nothing is
# written outside the checkout. The build needs the repository's
# module at the root; in a directory holding only the benchmark it
# fails and the script exits non-zero.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/home"

env HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOCACHE="$out/gocache" GOPATH="$out/home/go" GOENV=off GOFLAGS= \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	go -C perfbench build -o "$out/perfbench" .

exec "$out/perfbench" "$@"
