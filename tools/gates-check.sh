#!/bin/sh
# gates-check: every name a -run, -bench or -fuzz pattern in the
# Makefile's recipes selects must be defined by some package of the
# module — a test, fuzz target, benchmark or example for -run, a
# benchmark for -bench, a fuzz target for -fuzz — so that deleting or
# renaming one cannot silently drop it out of a gate (go test exits 0
# when a pattern matches nothing). A pattern is split at '|', and each
# alternative must match a defined name the way go test matches it: as
# an unanchored regular expression. '^$' (run nothing) is exempt.
#
# Run it from anywhere: sh tools/gates-check.sh (make gates-check).
set -euf
cd "$(dirname "$0")/.."
defined=$(grep -rhoE '^func (Test|Fuzz|Benchmark|Example)[A-Za-z0-9_]*' --include='*_test.go' --exclude-dir=.bench_build . |
	cut -d' ' -f2 | sort -u)

# patterns FLAG prints the alternatives of every FLAG pattern in the
# Makefile's recipes, one a line.
patterns() {
	grep -E '^	' Makefile | grep -oE -- "-$1[= ]('[^']*'|[^ ']+)" |
		sed -E "s/^-$1[= ]//; s/'//g; s/[$][$]/\$/g" | tr '|' '\n' | sort -u
}

missing=
total=0
# check FLAG NAMES: every FLAG alternative matches one of NAMES.
check() {
	for alt in $(patterns "$1"); do
		[ "$alt" = '^$' ] && continue
		total=$((total + 1))
		printf '%s\n' "$2" | grep -qE -- "$alt" || missing="$missing -$1 $alt"
	done
}
check run "$defined"
check bench "$(printf '%s\n' "$defined" | grep '^Benchmark')"
check fuzz "$(printf '%s\n' "$defined" | grep '^Fuzz')"
if [ -n "$missing" ]; then
	echo "gates-check: no package defines what these Makefile patterns select:$missing" >&2
	exit 1
fi
echo "gates-check ok: $total -run/-bench/-fuzz alternatives, each selects a defined name"
