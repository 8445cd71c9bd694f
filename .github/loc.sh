#!/usr/bin/env bash
# Prints the non-test Go line count of every package directory, then the
# total: the one number simplicity changes report. A last line gives the
# _test.go total, since code moved into tests is not a reduction. Run
# from the repo root:
#   bash .github/loc.sh
set -euo pipefail
total=0
for dir in $(find . -name '*.go' ! -name '*_test.go' -printf '%h\n' | sort -u); do
	n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)
	printf '%7d %s\n' "$n" "$dir"
	total=$((total + n))
done
printf '%7d total\n' "$total"
printf '%7d test total\n' "$(find . -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
