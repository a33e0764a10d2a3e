#!/usr/bin/env bash
# Plan-catalog smoke test, runnable locally and in CI (`make plan-smoke`):
#
#   1. run the curated plans/ catalog serially and in parallel and require
#      byte-identical stdout plus a passing junit report,
#   2. run the catalog again with -checkpoint and SIGTERM it as soon as the
#      journal records a finished cell, then resume and require the resumed
#      stdout and junit report to be byte-identical to the uninterrupted run,
#   3. run each seeded must-fail plan and require a non-zero exit plus a
#      junit <failure> naming what it violates: an impossible SLO, a false
#      cross-system compare, and the audit tripwire (deliberate mid-run
#      corruption via audit_self_test, caught by the sharded barrier auditor).
#
# The catalog includes the federation storm/flap plans, so their stranded-user
# SLOs and cross-system compares ride through all three steps. Any SLO
# regression, torn journal, resume divergence, or a seeded violation that the
# harness fails to catch fails the script.
set -euo pipefail

cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP/experiments" ./cmd/experiments

echo "plan-smoke: curated catalog, serial"
"$TMP/experiments" -plan-catalog plans -parallel 1 -junit "$TMP/serial.xml" \
    >"$TMP/serial.out" 2>/dev/null

echo "plan-smoke: curated catalog, parallel"
"$TMP/experiments" -plan-catalog plans -parallel 4 -junit "$TMP/parallel.xml" \
    >"$TMP/parallel.out" 2>/dev/null

cmp "$TMP/serial.out" "$TMP/parallel.out"
cmp "$TMP/serial.xml" "$TMP/parallel.xml"
grep -q 'failures="0" errors="0"' "$TMP/serial.xml"
grep -q 'stranded_users == 0' "$TMP/serial.out"
grep -q '^PASS.compare degraded_seconds' "$TMP/serial.out"
echo "plan-smoke: catalog passes; stdout and junit are byte-identical across -parallel"

echo "plan-smoke: interrupted catalog (SIGTERM once a cell is checkpointed)"
"$TMP/experiments" -plan-catalog plans -parallel 1 -checkpoint "$TMP/ck" \
    >"$TMP/partial.out" 2>"$TMP/partial.err" &
pid=$!
for _ in $(seq 1 200); do
    grep -q '"id"' "$TMP/ck/journal.json" 2>/dev/null && break
    sleep 0.05
done
kill -TERM "$pid" 2>/dev/null || true
if wait "$pid"; then
    echo "plan-smoke: catalog finished before the signal landed; resume will replay the full journal"
else
    echo "plan-smoke: catalog interrupted with $(grep -c '"id"' "$TMP/ck/journal.json") cell(s) checkpointed"
fi

echo "plan-smoke: resuming from $TMP/ck"
"$TMP/experiments" -plan-catalog plans -parallel 1 -resume "$TMP/ck" \
    -junit "$TMP/resumed.xml" >"$TMP/resumed.out" 2>/dev/null

cmp "$TMP/serial.out" "$TMP/resumed.out"
cmp "$TMP/serial.xml" "$TMP/resumed.xml"
echo "plan-smoke: resumed stdout and junit are byte-identical to the uninterrupted run"

# Seeded must-fail plans: the plan file, then the string its junit <failure>
# must carry.
while read -r seeded want; do
    name=$(basename "$seeded" .json)
    echo "plan-smoke: seeded plan $name must fail"
    if "$TMP/experiments" -plan "$seeded" -junit "$TMP/$name.xml" \
        </dev/null >"$TMP/$name.out" 2>/dev/null; then
        echo "plan-smoke: FAIL — seeded plan $name passed" >&2
        exit 1
    fi
    grep -q '<failure message=' "$TMP/$name.xml"
    grep -q "$want" "$TMP/$name.xml"
    echo "plan-smoke: OK — $name failed with '$want' in the junit report"
done <<'EOF'
plans/seeded/bad-slo.json p99_user_inconsistency
plans/seeded/bad-compare.json compare degraded_seconds
plans/seeded/bad-audit-tripwire.json audit_violations
EOF
