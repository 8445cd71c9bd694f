#!/usr/bin/env bash
# check-ranges.sh URL N K: send K aggregate queries over spread-out ranges
# of [0, N) to a crackserver or coordinator at URL and check each answer
# against the closed form for a permutation of [0, N):
# count = hi-lo, sum = (lo+hi-1)*count/2. Any non-200 or wrong answer
# exits 1. Needs curl and jq.
set -o pipefail
url=$1 n=$2 k=$3
for i in $(seq "$k"); do
  lo=$((i * 7919 % (n - 1000))); hi=$((lo + 1 + i * 31 % 1000))
  curl -sf -X POST "$url/v1/query" -d "{\"lo\":$lo,\"hi\":$hi,\"aggregate\":true}" \
    | jq -e --argjson lo "$lo" --argjson hi "$hi" \
        '.results[0].count == $hi - $lo and .results[0].sum == ($lo + $hi - 1) * ($hi - $lo) / 2' >/dev/null \
    || { echo "query [$lo, $hi) failed or answered wrong"; exit 1; }
done
