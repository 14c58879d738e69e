#!/bin/sh
# Self-test for the observability tool chain: generate a real
# report/trace pair with flexon_sim, validate both with
# tools/check_report and tools/trace_summary, then corrupt each
# artifact and assert the validators reject it non-zero. Also covers
# the health fault-injection exit codes (detector abort = 3,
# watchdog = 4) and the Prometheus snapshot shape.
#
# Usage: tools_selftest.sh <flexon_sim> <check_report> <trace_summary>
set -eu

SIM=$1
CHECK_REPORT=$2
TRACE_SUMMARY=$3

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

# Each check writes its output to a *.out file and each run to a *.log
# file in the work directory, which the EXIT trap removes; a failure
# prints them all first, so the failing check can be read from the
# test's own output.
fail() {
    echo "tools_selftest: FAIL: $1" >&2
    for f in *.out *.log; do
        [ -f "$f" ] || continue
        echo "--- $f" >&2
        cat "$f" >&2
    done
    exit 1
}

# --- A healthy run: report + trace validate cleanly. ----------------
"$SIM" --benchmark Vogels-Abbott --scale 20 --steps 300 \
    --telemetry --report run.json --trace trace.json \
    --metrics-out metrics.prom --metrics-every 64 \
    > sim.log 2>&1 || fail "baseline run exited $?"

"$CHECK_REPORT" run.json > check_report.out 2>&1 \
    || fail "check_report rejected a good report"
"$TRACE_SUMMARY" trace.json > trace_summary.out 2>&1 \
    || fail "trace_summary rejected a good trace"
"$TRACE_SUMMARY" trace.json --report run.json > cross_check.out 2>&1 \
    || fail "trace_summary cross-check rejected a good pair"

grep -q '"flexon-run-report-v8"' run.json \
    || fail "report is not schema v8"
grep -q '"health"' run.json || fail "report lacks a health section"

# --- A restored run: save at step 200, restore, run 100 more. --------
# The phase timers restart at the restore while the counters continue,
# so the report's measured step cost must divide by the timed steps.
"$SIM" --benchmark Vogels-Abbott --scale 1 --steps 200 \
    --checkpoint-every 200 > ckpt.log 2>&1 \
    || fail "checkpointing run exited $?"
"$SIM" --benchmark Vogels-Abbott --scale 1 --restore checkpoint-200.fxc \
    --steps 100 --report restored.json > restored.log 2>&1 \
    || fail "restored run exited $?"
"$CHECK_REPORT" restored.json > check_restored.out 2>&1 \
    || fail "check_report rejected the restored run's report"

# --- Prometheus snapshot shape. -------------------------------------
grep -q '^# TYPE flexon_export_step gauge$' metrics.prom \
    || fail "metrics snapshot lacks the export_step TYPE line"
grep -q '^flexon_export_step{session="Vogels-Abbott"} ' \
    metrics.prom || fail "metrics snapshot lacks session labels"
test -s metrics.prom.jsonl || fail "metrics JSONL history is empty"

# --- Corrupted artifacts must fail non-zero. ------------------------
sed 's/"flexon-run-report-v8"/"flexon-run-report-v99"/' run.json \
    > bad_schema.json
if "$CHECK_REPORT" bad_schema.json > /dev/null 2>&1; then
    fail "check_report accepted an unknown schema version"
fi

sed 's/"health\.sweeps": [0-9]*/"health.sweeps": 999999/' run.json \
    > bad_health.json
if "$CHECK_REPORT" bad_health.json > /dev/null 2>&1; then
    fail "check_report accepted an impossible sweep count"
fi

# v8 plan sections carry no engine strategy.
python3 -c "
import json
d = json.load(open('run.json'))
d['plan']['strategy'] = 'dense'
json.dump(d, open('bad_plan.json', 'w'))
"
if "$CHECK_REPORT" bad_plan.json > /dev/null 2>&1; then
    fail "check_report accepted a plan section with a strategy"
fi

head -c 100 run.json > truncated.json
if "$CHECK_REPORT" truncated.json > /dev/null 2>&1; then
    fail "check_report accepted truncated JSON"
fi

head -c 50 trace.json > truncated_trace.json
if "$TRACE_SUMMARY" truncated_trace.json > /dev/null 2>&1; then
    fail "trace_summary accepted a truncated trace"
fi

# A report whose phase timer disagrees wildly with the trace spans
# must fail the cross-check.
python3 -c "
import json, sys
d = json.load(open('run.json'))
d['metrics']['timers']['phase.neuron']['seconds'] += 10.0
json.dump(d, open('bad_phase.json', 'w'))
"
if "$TRACE_SUMMARY" trace.json --report bad_phase.json \
    > /dev/null 2>&1; then
    fail "trace_summary cross-check accepted a mismatched report"
fi

# --- Fault injection: the right detector, the right exit code. ------
set +e
FLEXON_HEALTH_INJECT=nan@50 "$SIM" --benchmark Vogels-Abbott \
    --scale 20 --steps 200 --health nan:abort,sample=1 \
    --crash-dump nan_dump.json > nan.log 2>&1
rc=$?
set -e
test "$rc" -eq 3 || fail "NaN injection exited $rc, expected 3"
grep -q '"flexon-crash-dump-v1"' nan_dump.json \
    || fail "NaN abort left no readable crash dump"

set +e
FLEXON_HEALTH_INJECT=rate@100 "$SIM" --benchmark Vogels-Abbott \
    --scale 20 --steps 200 --health rate:abort,sample=8,warmup=32 \
    --crash-dump rate_dump.json > rate.log 2>&1
rc=$?
set -e
test "$rc" -eq 3 || fail "rate injection exited $rc, expected 3"

set +e
FLEXON_HEALTH_INJECT=stall@50 "$SIM" --benchmark Vogels-Abbott \
    --scale 20 --steps 200 --watchdog-timeout 0.5 \
    --crash-dump stall_dump.json > stall.log 2>&1
rc=$?
set -e
test "$rc" -eq 4 || fail "stall injection exited $rc, expected 4"
grep -q '"traceEvents"' stall_dump.json \
    || fail "watchdog dump lacks the flight-recorder trace"
# The watchdog arms the recorder implicitly, so the dumped trace must
# hold real events ("ph" phase keys), not just an empty array.
grep -q '"ph"' stall_dump.json \
    || fail "watchdog dump's flight-recorder trace is empty"

# --- Strict CLI parsing still rejects trailing garbage (exit 2). ----
for bad in "--health nan:maybe" "--health ring:warn" \
    "--metrics-every 12x" "--watchdog-timeout fast"; do
    set +e
    # shellcheck disable=SC2086
    "$SIM" --benchmark Vogels-Abbott --scale 20 --steps 1 $bad \
        > /dev/null 2>&1
    rc=$?
    set -e
    test "$rc" -eq 2 || fail "'$bad' exited $rc, expected 2"
done

echo "tools_selftest: OK"
