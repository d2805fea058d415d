#!/usr/bin/env bash
# Reach audit: which functions no production entry point reaches.
#
# Builds every entry point with coverage of all efind packages into a
# temp dir, runs the audit's traffic with one shared GOCOVERDIR, and
# writes the sorted `file: func` list of functions at 0 % — line numbers
# stripped, so unrelated edits do not churn it — to unreached.txt beside
# this script. The traffic:
#   - efind-bench -quick (all experiments, as the TestQuickGate test and
#     CI's gate run them) with -gate -profile -trace, and -quick -fig 12
#     (the -fig lookup, no trace);
#   - efind-plan with no flags, with -build-total, and -profile of the
#     run's profile;
#   - the four examples;
#   - bench -workload all -seconds 1, with and without -trace 1.
#
# Usage (from anywhere in the checkout; ≈ 3.5 min on 2 vCPUs):
#   reach.sh          rewrite unreached.txt
#   reach.sh -check   exit 1, naming them, if a function is unreached
#                     that unreached.txt does not list
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
list="$here/unreached.txt"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/bin" "$tmp/cov" "$tmp/out"
export GOCOVERDIR="$tmp/cov"

cd "$root"
for pkg in ./cmd/efind-bench ./cmd/efind-plan ./examples/*; do
	go build -cover -coverpkg=efind/... -o "$tmp/bin/$(basename "$pkg")" "$pkg"
done
# bench/ is its own module; -coverpkg resolves efind/... through its replace.
(cd bench && go build -cover -coverpkg=efind/... -o "$tmp/bin/bench" .)

run() { "$@" >/dev/null 2>&1 || { echo "reach: $* failed" >&2; exit 1; }; }
run "$tmp/bin/efind-bench" -quick -label reach -gate BENCH_baseline.json \
	-profile "$tmp/out/profile.json" -trace "$tmp/out/trace.json"
run "$tmp/bin/efind-bench" -quick -fig 12
run "$tmp/bin/efind-plan"
run "$tmp/bin/efind-plan" -pos head -build-total 240 -build-covered 60
run "$tmp/bin/efind-plan" -profile "$tmp/out/profile.json"
for ex in examples/*; do
	run "$tmp/bin/$(basename "$ex")"
done
run "$tmp/bin/bench" -workload all -seconds 1 -out "$tmp/out"
run "$tmp/bin/bench" -workload all -seconds 1 -trace 1 -out "$tmp/out"

go tool covdata textfmt -i="$GOCOVERDIR" -o "$tmp/cover.raw"
# go tool cover cannot resolve the bench module's files from here.
grep -v '^efind/bench/' "$tmp/cover.raw" >"$tmp/cover.out"
# "efind/internal/x/f.go:12:	Name	0.0%" -> "internal/x/f.go: Name"
go tool cover -func="$tmp/cover.out" |
	awk '$NF == "0.0%" { sub(/^efind\//, "", $1); sub(/:[0-9]+:$/, ":", $1); print $1, $2 }' |
	LC_ALL=C sort >"$tmp/unreached.txt"

if [ "${1:-}" != "-check" ]; then
	cp "$tmp/unreached.txt" "$list"
	echo "reach: $(wc -l <"$list") unreached functions written to $list"
	exit 0
fi
new="$(LC_ALL=C comm -23 "$tmp/unreached.txt" "$list")"
if [ -n "$new" ]; then
	echo "reach: unreached functions without a verdict (add a Reach audit row in DESIGN.md and rerun reach.sh):" >&2
	echo "$new" >&2
	exit 1
fi
echo "reach: every unreached function is listed in $list"
