#!/usr/bin/env bash
# CLI smoke (make cli-smoke, CI build-test job): the commands' shared front
# end keeps their output bytes, and bad input fails before anything is
# run or written.
#
#   - spandex-metrics and spandex-trace -mode export of litmus/SDD must
#     hash to pinned SHA-256 digests (go1.24; regenerate only for a
#     reviewed change to the simulator or the export formats);
#   - spandex-fuzz with an unknown -configs name must exit 1 before any
#     seed runs, leaving its -out directory empty;
#   - a bad -mode, -format or -addr must exit 1 and leave an existing -o
#     file unchanged.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
for c in metrics trace fuzz; do
	go build -o "$work/spandex-$c" "./cmd/spandex-$c"
done

fail=0
check() { # check <what> <1 if it held>
	if [ "$2" = 1 ]; then echo "ok: $1"; else echo "FAIL: $1" >&2; fail=1; fi
}

digest() { "$@" | sha256sum | cut -d' ' -f1; }
want=33af7e78b5012929d97578dabd08c367b1e423ab41f63fad4320f75c03eb735d
got=$(digest "$work/spandex-metrics" -mode export -workload litmus -config SDD)
check "spandex-metrics -mode export litmus/SDD sha256 $got (want $want)" "$([ "$got" = "$want" ] && echo 1)"
want=54f654b856b2242a206a74e4bf48eb69eccac3e164acd4876c454a41297d6b0e
got=$(digest "$work/spandex-trace" -mode export -workload litmus -config SDD)
check "spandex-trace -mode export litmus/SDD sha256 $got (want $want)" "$([ "$got" = "$want" ] && echo 1)"

# fails <cmd...>: prints 1 if the command exits with status 1.
fails() {
	local rc=0
	"$@" >/dev/null 2>&1 || rc=$?
	if [ "$rc" = 1 ]; then echo 1; fi
}

mkdir "$work/out"
ok=$(fails "$work/spandex-fuzz" -seeds 0:1 -configs SDD,XYZ -shrink=false -out "$work/out")
[ -z "$(ls -A "$work/out")" ] || ok=
check "spandex-fuzz -configs SDD,XYZ exits 1 and writes nothing" "$ok"

keep=$work/keep.txt
for args in "spandex-metrics -mode bogus" "spandex-metrics -mode heatmap -format svg" \
	"spandex-trace -mode jsonl -addr zz"; do
	echo keep >"$keep"
	# shellcheck disable=SC2086 # args is a word list
	ok=$(fails "$work/"$args -o "$keep")
	[ "$(cat "$keep")" = keep ] || ok=
	check "$args -o FILE exits 1 and leaves FILE unchanged" "$ok"
done

exit $fail
