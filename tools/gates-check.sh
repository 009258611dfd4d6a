#!/bin/sh
# gates-check: every name a -run pattern in the Makefile's recipes
# selects must be a test, fuzz target, benchmark or example that some
# package of the module defines, so that deleting or renaming a test
# cannot silently drop it out of a gate. A pattern is split at '|', and
# each alternative must match a defined name the way go test matches
# it: as an unanchored regular expression. '^$' (run nothing) is exempt.
#
# Run it from anywhere: sh tools/gates-check.sh (make gates-check).
set -euf
cd "$(dirname "$0")/.."
defined=$(grep -rhoE '^func (Test|Fuzz|Benchmark|Example)[A-Za-z0-9_]*' --include='*_test.go' --exclude-dir=.bench_build . |
	cut -d' ' -f2 | sort -u)
patterns=$(grep -E '^	' Makefile | grep -oE -- "-run[= ]('[^']*'|[^ ']+)" |
	sed -E "s/^-run[= ]//; s/'//g; s/[$][$]/\$/g" | tr '|' '\n' | sort -u)
missing=
for alt in $patterns; do
	[ "$alt" = '^$' ] && continue
	printf '%s\n' "$defined" | grep -qE -- "$alt" || missing="$missing $alt"
done
if [ -n "$missing" ]; then
	echo "gates-check: no package defines a test these Makefile -run patterns select:$missing" >&2
	exit 1
fi
echo "gates-check ok: $(printf '%s\n' "$patterns" | grep -cv '^\^\$$') -run alternatives, each selects a defined test"
