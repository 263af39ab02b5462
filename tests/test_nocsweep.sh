#!/usr/bin/env bash
# CLI test for tools/nocsweep.
#
# Malformed flag values must exit 2 with a message naming the flag and the
# value. A small all-rates curve must print the same bytes for 1 and 3
# workers, with and without a cache, on a fully cached rerun, and under
# the invariant checker; those bytes must equal the committed golden file.
#
# Usage: test_nocsweep.sh <nocsweep binary> <golden file>
set -u
nocsweep=$1
golden=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
unset NOCALLOC_SWEEP_CACHE
status=0
small="warmup_cycles=300 measure_cycles=400 drain_cycles=1000"

# expect_usage_error FLAG VALUE ARGS...: nocsweep ARGS exits 2 and says
# "bad value 'VALUE' for FLAG".
expect_usage_error() {
  local flag=$1 value=$2
  shift 2
  "$nocsweep" $small "$@" >/dev/null 2>"$work/err"
  local rc=$?
  if [ "$rc" -ne 2 ] || ! grep -qF -- "'$value' for $flag" "$work/err"; then
    echo "FAIL: nocsweep $* exited $rc, stderr:"
    cat "$work/err"
    status=1
  fi
}

expect_usage_error --rates abc --rates=0,abc
expect_usage_error --rates -0.2 --rates=-0.2,0.1
expect_usage_error --rates 0.2x --rates=0.05:0.2x:0.05
expect_usage_error --rates 0.05:0.2:0.05:1 --rates=0.05:0.2:0.05:1
expect_usage_error --fork-warmup abc --rates=0.1 --fork-warmup=abc
expect_usage_error --workers 2abc --rates=0.1 --workers=2abc
expect_usage_error --workers 0 --rates=0.1 --workers=0

# expect_golden NAME ARGS...: nocsweep ARGS succeeds and prints the golden.
expect_golden() {
  local name=$1
  shift
  if ! "$nocsweep" $small --fork-warmup=200 --rates=0.1:0.5:0.1 "$@" \
      >"$work/$name.txt"; then
    echo "FAIL: $name: nocsweep $* exited non-zero"
    status=1
  elif ! diff "$golden" "$work/$name.txt"; then
    echo "FAIL: $name: stdout differs from $golden"
    status=1
  fi
}

expect_golden workers1 --workers=1
expect_golden workers3_cold --workers=3 --cache="$work/cache"
expect_golden workers3_cached --workers=3 --cache="$work/cache"
expect_golden workers1_cached --workers=1 --cache="$work/cache"
expect_golden checked --workers=3 check_invariants=true

exit $status
