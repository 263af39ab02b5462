#!/usr/bin/env bash
# CLI test for tools/noclint's numeric and boolean keys.
#
# A value that is not a whole positive integer (ports=-1, ports=5x,
# vcs=+2) or a sparse= value other than 0, 1, true or false must exit 2
# with a message naming the key and the value; a well-formed single-point
# lint must exit 0.
#
# Usage: test_noclint.sh <noclint binary>
set -u
noclint=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
status=0

# expect_usage_error KEY VALUE ARGS...: noclint ARGS exits 2 and says
# "bad value 'VALUE' for KEY".
expect_usage_error() {
  local key=$1 value=$2
  shift 2
  "$noclint" "$@" >/dev/null 2>"$work/err"
  local rc=$?
  if [ "$rc" -ne 2 ] || ! grep -qF -- "bad value '$value' for $key" \
      "$work/err"; then
    echo "FAIL: noclint $* exited $rc, stderr:"
    cat "$work/err"
    status=1
  fi
}

expect_usage_error ports -1 vc ports=-1
expect_usage_error ports 5x vc ports=5x
expect_usage_error ports 0 sa ports=0
expect_usage_error vcs +2 sa vcs=+2
expect_usage_error vcs_per_class 2.0 vc vcs_per_class=2.0
expect_usage_error sparse yes vc sparse=yes

for args in "vc ports=5" "vc ports=5 sparse=false" "sa ports=5 vcs=2"; do
  if ! "$noclint" $args >"$work/out" 2>&1; then
    echo "FAIL: noclint $args exited non-zero:"
    cat "$work/out"
    status=1
  fi
done

exit $status
