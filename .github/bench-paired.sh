#!/usr/bin/env bash
# bench-paired.sh BASE_TREE: build the gated kernel packages' test binaries
# from BASE_TREE (a checkout of the merge-base) and from the current
# directory (HEAD), then run every benchmark of both builds, one count at a
# time, into bench-base.txt and bench-head.txt. The two sides of each
# benchmark run back to back, seconds apart, and alternate which goes
# first, so sample i of a benchmark in each file saw the same moment of
# the machine: `benchgate -base bench-base.txt -head bench-head.txt`
# compares them pair by pair, and its -match list picks the gated ones.
set -euo pipefail
base=$(cd "$1" && pwd)
head=$(pwd)
pkgs="column core"
rounds=6 # samples per benchmark and side: the gate's median of 6 pairs
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
for p in $pkgs; do
  (cd "$base" && go test -c -o "$bin/base-$p.test" "./internal/$p")
  (cd "$head" && go test -c -o "$bin/head-$p.test" "./internal/$p")
done
: >"$head/bench-base.txt"
: >"$head/bench-head.txt"
for r in $(seq "$rounds"); do
  order="base head"
  if [ $((r % 2)) = 0 ]; then order="head base"; fi
  for p in $pkgs; do
    # Both builds' benchmarks: one only the base has still runs there, so
    # the gate sees it missing from HEAD.
    names=$(for s in base head; do "$bin/$s-$p.test" -test.list '^Benchmark'; done | sort -u)
    for name in $names; do
      # MDD1R's fused scalar loop is bound by the core, not by memory, and
      # its 1 s samples swing far wider than the other kernels' on a
      # shared host: same-code pairs read up to +/-20 %, near the gate's
      # 15 %. It samples for 5 s.
      benchtime=1s
      if [ "$name" = BenchmarkMDD1RMaterialize ]; then benchtime=5s; fi
      for side in $order; do
        tree=$base
        if [ "$side" = head ]; then tree=$head; fi
        (cd "$tree/internal/$p" && "$bin/$side-$p.test" -test.run '^$' -test.bench "^$name\$" -test.benchtime "$benchtime" -test.count 1 -test.timeout 30m) \
          >>"$head/bench-$side.txt"
      done
    done
  done
done
