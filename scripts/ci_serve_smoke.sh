#!/usr/bin/env bash
# Simulation-service smoke for CI: a ruusimd daemon must serve the
# whole kernel suite byte-identically to cold `ruusim run` output,
# serve a second pass almost entirely from the content-addressed cache,
# recover from a SIGKILL mid-batch to byte-identical results, shed
# overload with an explicit verdict, and survive hostile bytes and
# hostile jobs without dying. No job worker may outlive `--stop`, and
# the workers of a SIGKILLed daemon must exit on their own.
#
#   usage: scripts/ci_serve_smoke.sh <ruusim-binary> [workdir] [bench-out]
#
# Writes cold/warm timings and the warm hit rate to bench-out (default
# BENCH_serve.json in the workdir). Exit nonzero on the first deviation.
set -euo pipefail

RUUSIM=${1:?usage: $0 <ruusim-binary> [workdir] [bench-out]}
WORKDIR=${2:-$(mktemp -d)}
BENCH_OUT=${3:-$WORKDIR/BENCH_serve.json}
mkdir -p "$WORKDIR"

SOCK="$WORKDIR/ruusimd.sock"
DAEMON_PID=

submit() {
    "$RUUSIM" submit "$@" --socket "$SOCK"
}

start_daemon() {
    "$RUUSIM" serve --socket "$SOCK" --cache "$WORKDIR/cache" \
        --journal "$WORKDIR/journal" -j 4 "$@" \
        2>>"$WORKDIR/serve.log" &
    DAEMON_PID=$!
}

# The daemon's job workers (serve/worker.hh), by pid.
workers_of() {
    pgrep -P "$1" -f __serve-worker || true
}

# alive <pid>: the process exists and is not a zombie.
alive() {
    local state
    state=$(ps -o stat= -p "$1" 2>/dev/null) || return 1
    [ -n "$state" ] && [ "${state#Z}" = "$state" ]
}

stop_daemon() {
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        local workers
        workers=$(workers_of "$DAEMON_PID")
        submit --stop >/dev/null 2>&1 || kill "$DAEMON_PID" || true
        wait "$DAEMON_PID" 2>/dev/null || true
        # The daemon reaps its workers before it exits.
        for pid in $workers; do
            if alive "$pid"; then
                echo "job worker $pid outlived the daemon's --stop" >&2
                exit 1
            fi
        done
    fi
    DAEMON_PID=
}
trap 'stop_daemon' EXIT

status_field() {
    # status_field <name>: one counter out of the status line.
    submit --status | sed -n "s/.*\"$1\": \([0-9]*\).*/\1/p"
}

now() { date +%s.%N; }

echo "== cold pass: the full suite through the daemon"
start_daemon
t0=$(now)
submit suite > "$WORKDIR/cold.json"
t1=$(now)
KERNELS=$(wc -l < "$WORKDIR/cold.json")
if [ "$KERNELS" -lt 14 ]; then
    echo "cold pass returned $KERNELS payloads, want 14" >&2
    exit 1
fi

echo "== served payloads are byte-identical to cold serial runs"
for kernel in lll01 lll05 lll11 lll14; do
    "$RUUSIM" run "$kernel" --core ruu --json > "$WORKDIR/ref.json"
    if ! grep -Fxq "$(cat "$WORKDIR/ref.json")" "$WORKDIR/cold.json"; then
        echo "daemon payload for $kernel differs from 'ruusim run'" >&2
        exit 1
    fi
done

echo "== warm pass: >=90% cache hits, byte-identical output"
hits_before=$(status_field cache_hits)
t2=$(now)
submit suite > "$WORKDIR/warm.json"
t3=$(now)
hits_after=$(status_field cache_hits)
if ! cmp -s "$WORKDIR/cold.json" "$WORKDIR/warm.json"; then
    echo "warm pass output differs from the cold pass" >&2
    diff "$WORKDIR/cold.json" "$WORKDIR/warm.json" | head >&2
    exit 1
fi
warm_hits=$((hits_after - hits_before))
min_hits=$((KERNELS * 90 / 100))
if [ "$warm_hits" -lt "$min_hits" ]; then
    echo "warm pass hit $warm_hits/$KERNELS, want >=$min_hits" >&2
    exit 1
fi

echo "== hostile job is a per-job verdict, not a dead daemon"
printf '  florp A1, $!\n  halt\n' > "$WORKDIR/bad.s"
status=0
submit "$WORKDIR/bad.s" >/dev/null 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
    echo "hostile job should exit 1, got $status" >&2
    exit 1
fi
submit --ping >/dev/null

echo "== malformed bytes draw diagnostics, never kill the daemon"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$SOCK" <<'EOF'
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
for line in (b"garbage", b'{"op": "explode"}', b'{"op": "submit"}',
             b'{\xff\xfe', b'{"op": "status", "stray": 1}'):
    s.sendall(line + b"\n")
    reply = b""
    while not reply.endswith(b"\n"):
        chunk = s.recv(4096)
        assert chunk, "daemon hung up on malformed input"
        reply += chunk
    assert b'"ok": 0' in reply, reply
s.close()
EOF
    submit --ping >/dev/null
else
    echo "   (python3 unavailable; covered by tests/test_fuzz.cc)"
fi
stop_daemon

echo "== SIGKILL mid-batch, restart, resubmit: byte-identical"
rm -rf "$WORKDIR/cache" "$WORKDIR/journal"
start_daemon
submit suite > "$WORKDIR/killed.json" 2>/dev/null &
SUBMIT_PID=$!
sleep 0.2
orphans=$(workers_of "$DAEMON_PID")
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=
wait "$SUBMIT_PID" 2>/dev/null || true
# A worker whose daemon died reads EOF on its input once its job ends.
for pid in $orphans; do
    for _ in $(seq 100); do
        alive "$pid" || break
        sleep 0.1
    done
    if alive "$pid"; then
        echo "job worker $pid outlived its SIGKILLed daemon by 10 s" >&2
        exit 1
    fi
done

start_daemon
submit suite > "$WORKDIR/recovered.json"
if ! cmp -s "$WORKDIR/cold.json" "$WORKDIR/recovered.json"; then
    echo "post-crash resubmission differs from the cold pass" >&2
    diff "$WORKDIR/cold.json" "$WORKDIR/recovered.json" | head >&2
    exit 1
fi
recovered=$(status_field recovered)
stop_daemon

echo "== bounded admission queue sheds with an explicit verdict"
SOCK="$WORKDIR/shed.sock"
"$RUUSIM" serve --socket "$SOCK" --queue-limit 2 -j 2 \
    2>>"$WORKDIR/serve.log" &
DAEMON_PID=$!
status=0
submit suite >/dev/null 2>"$WORKDIR/shed.log" || status=$?
if [ "$status" -ne 1 ]; then
    echo "overloaded batch should exit 1, got $status" >&2
    exit 1
fi
if ! grep -q overloaded "$WORKDIR/shed.log"; then
    echo "no 'overloaded' verdict in the shed submits" >&2
    cat "$WORKDIR/shed.log" >&2
    exit 1
fi
submit --ping >/dev/null
stop_daemon

cold=$(awk -v a="$t0" -v b="$t1" 'BEGIN {printf "%.4f", b - a}')
warm=$(awk -v a="$t2" -v b="$t3" 'BEGIN {printf "%.4f", b - a}')
awk -v kernels="$KERNELS" -v cold="$cold" -v warm="$warm" \
    -v hits="$warm_hits" -v recovered="$recovered" 'BEGIN {
    printf("{\"kernels\": %d, \"cold_wall_seconds\": %s, " \
           "\"warm_wall_seconds\": %s, \"warm_speedup\": %.2f, " \
           "\"warm_hit_rate\": %.4f, \"recovered\": %d}\n",
           kernels, cold, warm, cold / warm, hits / kernels,
           recovered)
}' > "$BENCH_OUT"

echo "== serve smoke passed ($KERNELS kernels, $warm_hits warm hits," \
     "$recovered recovered after SIGKILL)"
