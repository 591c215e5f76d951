#!/usr/bin/env bash
# Pins cref_serve's per-request error handling: a request whose program
# file is missing or does not parse, names an unknown relation, or is not
# a well-formed line is answered with an error line in its place (text
# and --json), every other request of the batch is still answered, and
# the run exits 1. With --twice --assert-warm the failed requests are
# skipped and the well-formed ones must still come back as validated
# warm hits.
set -u

SERVE="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

cat > "$WORK/ring.gcl" <<'GCL'
system ring {
  var x : 0..2;
  action a @0 : x == 1 -> x := 0;
  action b @0 : x == 2 -> x := 1;
}
GCL
cat > "$WORK/broken.gcl" <<'GCL'
system broken {
  var x : 0..2
  action
GCL
cat > "$WORK/good.txt" <<'TXT'
everywhere ring.gcl ring.gcl
stabilizing ring.gcl ring.gcl
TXT
cat > "$WORK/mixed.txt" <<'TXT'
everywhere ring.gcl ring.gcl
convergence missing.gcl ring.gcl
stabilizing broken.gcl ring.gcl
sideways ring.gcl ring.gcl
everywhere ring.gcl
stabilizing ring.gcl ring.gcl
TXT

fails=0
fail() {
  echo "FAIL: $*" >&2
  fails=$((fails + 1))
}

# expect_lines FILE PATTERN... — line i of FILE must match PATTERN i.
expect_lines() {
  local file="$1"
  shift
  local n
  n=$(wc -l < "$file")
  [ "$n" -eq "$#" ] || fail "$file has $n lines, expected $#"
  local i=1
  for pat in "$@"; do
    sed -n "${i}p" "$file" | grep -q -- "$pat" || fail "$file line $i does not match '$pat'"
    i=$((i + 1))
  done
}

"$SERVE" --batch "$WORK/good.txt" > "$WORK/good.out" 2> /dev/null
code=$?
[ "$code" -eq 0 ] || fail "all-good batch exited $code"

"$SERVE" --batch "$WORK/mixed.txt" > "$WORK/text.out" 2> "$WORK/text.err"
code=$?
[ "$code" -eq 1 ] || fail "mixed batch exited $code, expected 1"
expect_lines "$WORK/text.out" \
  '^everywhere ring.gcl ring.gcl holds' \
  '^convergence missing.gcl ring.gcl ERROR error="cannot open' \
  '^stabilizing broken.gcl ring.gcl ERROR error=' \
  '^sideways ring.gcl ring.gcl ERROR error=' \
  'ERROR error="bad request line: everywhere ring.gcl"' \
  '^stabilizing ring.gcl ring.gcl \(holds\|FAILS\)'

"$SERVE" --batch "$WORK/mixed.txt" --json > "$WORK/json.out" 2> /dev/null
code=$?
[ "$code" -eq 1 ] || fail "mixed --json batch exited $code, expected 1"
expect_lines "$WORK/json.out" \
  '"holds": true' \
  '"c": "missing.gcl", "a": "ring.gcl", "error": "cannot open' \
  '"c": "broken.gcl", "a": "ring.gcl", "error": ' \
  '"relation": "sideways", .*"error": ' \
  '"error": "bad request line: everywhere ring.gcl"' \
  '"relation": "stabilizing", "c": "ring.gcl", .*"holds": '

"$SERVE" --batch "$WORK/mixed.txt" --cache-dir "$WORK/cache" --twice --assert-warm \
  > "$WORK/twice.out" 2> "$WORK/twice.err"
code=$?
[ "$code" -eq 1 ] || fail "mixed --twice batch exited $code, expected 1"
[ "$(wc -l < "$WORK/twice.out")" -eq 12 ] || fail "--twice did not answer both passes in full"
grep -q 'assert-warm: all 2 warm answers validated and byte-identical' "$WORK/twice.err" ||
  fail "--assert-warm did not validate the two well-formed requests"

[ "$fails" -eq 0 ] || exit 1
echo "all cref_serve bad-request checks passed"
