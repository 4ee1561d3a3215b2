#!/usr/bin/env bash
# Kill-and-resume smoke test for the campaign journal.
#
# 1. Runs a reference campaign to completion with a journal, saving its
#    normalized summary.
# 2. Starts the same campaign again, SIGKILLs it mid-run (no chance to
#    clean up — the hardest crash shape), then resumes from the surviving
#    journal.
# 3. Diffs the merged summary against the reference: they must be
#    byte-identical.
#
# If the second run finishes before the kill lands (fast machine), the
# resume degenerates into "everything already settled" — still a valid
# exercise of the replay path, and the diff still gates.
#
# Usage: scripts/kill_resume_smoke.sh [path-to-gqed-binary]
set -u

GQED="${1:-target/release/gqed}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# A campaign long enough to survive until the kill: every flow of two
# designs, single worker, no deadline.
ARGS=(campaign relu vecadd --jobs 1 --engines bmc)

echo "== reference run =="
"$GQED" "${ARGS[@]}" --journal "$WORK/ref.j1" --summary-out "$WORK/ref.txt" \
  >/dev/null || { echo "reference run failed"; exit 1; }

echo "== interrupted run (SIGKILL mid-campaign) =="
"$GQED" "${ARGS[@]}" --journal "$WORK/crash.j1" >/dev/null 2>&1 &
PID=$!
sleep 2
kill -9 "$PID" 2>/dev/null && echo "killed pid $PID" || echo "run finished before the kill"
wait "$PID" 2>/dev/null
SETTLED_BEFORE=$(grep -c '"type":"verdict"' "$WORK/crash.j1" || true)
echo "journal holds $SETTLED_BEFORE settled verdict(s) at crash time"

echo "== resume =="
"$GQED" "${ARGS[@]}" --resume "$WORK/crash.j1" --summary-out "$WORK/resumed.txt" \
  >/dev/null || { echo "resume run failed"; exit 1; }

if diff -u "$WORK/ref.txt" "$WORK/resumed.txt"; then
  echo "OK: merged summary is byte-identical to the uninterrupted run"
else
  echo "FAIL: resumed summary diverges from the reference"
  exit 1
fi
