#!/usr/bin/env bash
# Perf-regression gate (make bench-gate, CI bench-gate): a paired A/B of
# the single-worker 54-cell headline sweep (BenchmarkHeadlineSweep) on
# this host. The checked-out tree is the head; its parent commit HEAD~1
# is the base, so commit before gating local work.
#
# Both sides are built as `go test -c` binaries of the root package and
# run in five alternating pairs. Each side's best (minimum) run is
# compared, which discards transient host contention. The gate fails when
#
#   cells/sec    (base ns/op / head ns/op)     is below 0.90,
#   events/sec   (events/op per second)        is below 0.90,
#   allocs/sweep (head / base allocs/op)       is above 1.10.
#
# The head/base wall ratio is printed as the tracing-disabled overhead
# (target < 2%, report-only). One extra profiled run per side writes
# bench_{base,head}_{cpu,mem}.pprof to $TMPDIR (default /tmp); on failure
# the top of the profile diff names the code that moved.
set -euo pipefail
cd "$(dirname "$0")/.."

prof=${TMPDIR:-/tmp}
work=$(mktemp -d)
trap 'git worktree remove --force "$work/base-src" >/dev/null 2>&1 || true; rm -rf "$work"' EXIT

base=$(git rev-parse --quiet --verify 'HEAD~1^{commit}') || {
	echo "bench_gate: no parent commit to compare against (check out at least 2 commits)" >&2
	exit 1
}
git worktree add --quiet --detach "$work/base-src" "$base"
(cd "$work/base-src" && go test -c -o "$work/base.test" .)
go test -c -o "$work/head.test" .

# bench <side> [test flags]: one sweep; prints "ns/op events/op allocs/op",
# with "-" for a metric the side's benchmark does not report.
bench() {
	local side=$1 dir=$PWD out
	shift
	[ "$side" = base ] && dir=$work/base-src
	out=$(cd "$dir" && "$work/$side.test" -test.run '^$' -test.bench '^BenchmarkHeadlineSweep$' \
		-test.benchtime 1x -test.benchmem -test.timeout 10m "$@" 2>&1) || {
		echo "$out" >&2
		echo "bench_gate: $side sweep failed" >&2
		return 1
	}
	awk '/^BenchmarkHeadlineSweep/ {
		for (i = 2; i < NF; i++) v[$(i + 1)] = $i
		print v["ns/op"], ("events/op" in v ? v["events/op"] : "-"), v["allocs/op"]
	}' <<<"$out"
}

echo "bench_gate: base $(git rev-parse --short "$base") (HEAD~1) vs head (checked-out tree)"
for pair in 1 2 3 4 5; do
	order="base head"
	[ $((pair % 2)) -eq 0 ] && order="head base"
	line="bench_gate: pair $pair"
	for side in $order; do
		r=$(bench "$side")
		echo "$r" >>"$work/$side.runs"
		line="$line  $side $(awk '{ printf "%.3fs", $1 / 1e9 }' <<<"$r")"
	done
	echo "$line"
done

# best <side>: the minimum-wall run's ns/op and events/op, and the
# minimum allocs/op across runs.
best() {
	awk 'NR == 1 || $1 < ns { ns = $1; ev = $2 }
		NR == 1 || $3 < al { al = $3 }
		END { print ns, ev, al }' "$work/$1.runs"
}

# memprofilerate 1 records every allocation, so the allocation diff is
# exact rather than sampled.
for side in base head; do
	bench "$side" -test.cpuprofile "$prof/bench_${side}_cpu.pprof" \
		-test.memprofile "$prof/bench_${side}_mem.pprof" -test.memprofilerate 1 >/dev/null
done

# The sweep is 9 Figure 2/3 workloads x 6 Table V configurations.
status=0
awk -v b="$(best base)" -v h="$(best head)" -v cells=54 '
function check(name, bv, hv, bound, floor,   ratio, bad) {
	ratio = hv / bv
	bad = floor ? ratio < bound : ratio > bound
	printf "bench_gate: %-13s base=%-11.6g head=%-11.6g ratio=%.3f (%s %.2f) %s\n",
		name, bv, hv, ratio, floor ? "floor" : "ceiling", bound, bad ? "REGRESSED" : "ok"
	return bad
}
BEGIN {
	split(b, B, " "); split(h, H, " ")
	slow = check("cells/sec", cells * 1e9 / B[1], cells * 1e9 / H[1], 0.90, 1)
	if (B[2] == "-")
		printf "bench_gate: %-13s not reported by base\n", "events/sec"
	else
		slow += check("events/sec", B[2] * 1e9 / B[1], H[2] * 1e9 / H[1], 0.90, 1)
	fat = check("allocs/sweep", B[3], H[3], 1.10, 0)
	printf "bench_gate: overhead      %+.2f%% head/base wall (tracing disabled; target < 2%%, report-only)\n",
		(H[1] / B[1] - 1) * 100
	exit (slow ? 1 : 0) + (fat ? 2 : 0)
}' || status=$?

# pdiff <cpu|mem> [pprof flags]: the top of head's profile diffed
# against base's.
pdiff() {
	local kind=$1
	shift
	echo "bench_gate: go tool pprof -top -diff_base (head vs base, $kind):"
	go tool pprof -top "$@" -diff_base "$prof/bench_base_$kind.pprof" \
		"$prof/bench_head_$kind.pprof" 2>/dev/null | head -n 30 || true
}
[ $((status & 1)) -ne 0 ] && pdiff cpu
[ $((status & 2)) -ne 0 ] && pdiff mem -sample_index=alloc_objects
if [ "$status" -ne 0 ]; then
	echo "bench_gate: REGRESSED vs base $(git rev-parse --short "$base")" >&2
	exit 1
fi
echo "bench_gate: within bounds of base $(git rev-parse --short "$base")"
