#!/usr/bin/env bash
# Fault-injection smoke for CI: a small seeded campaign must complete
# with every trial classified, survive a mid-campaign stop, resume from
# its journal (also from a torn or unterminated last line) to the exact
# same per-trial records, and replay a single trial bit-identically to
# its journal line.
#
#   usage: scripts/ci_inject_smoke.sh <ruusim-binary> [workdir]
#
# Exit nonzero on the first deviation.
set -euo pipefail

RUUSIM=${1:?usage: $0 <ruusim-binary> [workdir]}
WORKDIR=${2:-$(mktemp -d)}
mkdir -p "$WORKDIR"

CORES="tomasulo,rstu,ruu,spec_ruu,history"
WORKLOAD="lll03"
TRIALS=64
SEED=2026

run_inject() {
    "$RUUSIM" inject "$WORKLOAD" --cores "$CORES" --trials "$TRIALS" \
        --seed "$SEED" "$@"
}

echo "== full campaign ($TRIALS trials, cores $CORES, $WORKLOAD)"
run_inject --journal "$WORKDIR/full.jsonl" \
    --bench-out "$WORKDIR/BENCH_inject_smoke.json" --json \
    > "$WORKDIR/full_summary.json"

echo "== zero unclassified trials"
if grep -c '"outcome": "unclassified"' "$WORKDIR/full.jsonl"; then
    echo "unclassified trials in the journal" >&2
    exit 1
fi
lines=$(wc -l < "$WORKDIR/full.jsonl")
if [ "$lines" -ne $((TRIALS + 1)) ]; then
    echo "journal has $lines lines, want $((TRIALS + 1))" >&2
    exit 1
fi

echo "== interrupted campaign resumes to the identical journal"
half=$((TRIALS / 2))
status=0
run_inject --journal "$WORKDIR/split.jsonl" --stop-after "$half" \
    >/dev/null || status=$?
if [ "$status" -ne 3 ]; then
    echo "--stop-after should exit 3, got $status" >&2
    exit 1
fi
# Two damaged copies of the split journal, as a kill mid-append leaves
# them: half a trial line after the last record, and a last record
# whose '\n' never landed. Both must resume to the same journal.
half_line=$(sed -n '2p' "$WORKDIR/split.jsonl")
cp "$WORKDIR/split.jsonl" "$WORKDIR/torn.jsonl"
printf '%s' "${half_line:0:$((${#half_line} / 2))}" >> "$WORKDIR/torn.jsonl"
head -c -1 "$WORKDIR/split.jsonl" > "$WORKDIR/unterminated.jsonl"
for journal in split torn unterminated; do
    run_inject --journal "$WORKDIR/$journal.jsonl" >/dev/null
    if ! cmp -s "$WORKDIR/full.jsonl" "$WORKDIR/$journal.jsonl"; then
        echo "resumed $journal journal differs from the uninterrupted one" >&2
        diff "$WORKDIR/full.jsonl" "$WORKDIR/$journal.jsonl" | head >&2
        exit 1
    fi
done

echo "== single-trial replay matches its journal record"
replay_index=$((TRIALS / 3))
run_inject --replay-trial "$replay_index" --json \
    > "$WORKDIR/replayed.jsonl"
expected=$(sed -n "$((replay_index + 2))p" "$WORKDIR/full.jsonl")
actual=$(cat "$WORKDIR/replayed.jsonl")
if [ "$expected" != "$actual" ]; then
    echo "replayed trial $replay_index differs from the journal:" >&2
    echo "  journal: $expected" >&2
    echo "  replay:  $actual" >&2
    exit 1
fi

echo "== inject smoke passed ($TRIALS trials, journal + resume + replay)"
