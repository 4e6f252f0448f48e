#!/usr/bin/env bash
# Repo gate: formatting, lints, tests. Run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== no source file over 1000 lines =="
# A file that size is a decision to take in review, not an accident.
LONG="$(find crates/*/src -name '*.rs' -exec wc -l {} + | awk '$2 != "total" && $1 > 1000')"
if [ -n "$LONG" ]; then
    echo "source files over 1000 lines:" >&2
    echo "$LONG" >&2
    exit 1
fi

echo "== no JSON field accessor outside crates/json =="
# Reading a field, and what the error says when it is wrong, has one
# home (escape_json::wire). A second copy is a decision, not an accident.
ACCESSORS="$(git grep -nE 'fn (str|u64|f64|bool|arr)_(field|of)\b' -- crates ':!crates/json' || true)"
if [ -n "$ACCESSORS" ]; then
    echo "field accessors defined outside crates/json:" >&2
    echo "$ACCESSORS" >&2
    exit 1
fi

echo "== no attach_telemetry in crates =="
# A component is built with the registry it counts into; re-homing
# counters after birth is how one fact came to be counted twice.
REHOMES="$(git grep -nE 'fn attach_telemetry\b' -- crates || true)"
if [ -n "$REHOMES" ]; then
    echo "counters re-homed after construction:" >&2
    echo "$REHOMES" >&2
    exit 1
fi

# outside_tests PATTERN SKIP_DOCS FILE...: prints the lines of each FILE
# that match the awk regex PATTERN and lie before its test module. The
# scan ends at a #[cfg(test)] whose next line opens a `mod`; a
# #[cfg(test)] item above production code does not end it. With
# SKIP_DOCS=1, doc-comment lines are exempt: doctests compile as tests.
# A FILE that does not exist fails the call, so a renamed or deleted
# file cannot silently drop out of a gate's list.
outside_tests() {
    local pattern="$1" skip_docs="$2"
    shift 2
    for f in "$@"; do
        if [ ! -f "$f" ]; then
            echo "$f: listed for a scan but does not exist" >&2
            return 1
        fi
        awk -v f="$f" -v pat="$pattern" -v docs="$skip_docs" '
            armed && /^(pub(\([a-z]+\))? )?mod / { exit }
            { armed = /^#\[cfg\(test\)\]/ }
            docs && /^[[:space:]]*\/\/[\/!]/ { next }
            $0 ~ pat { print f ":" FNR ": " $0 }' "$f"
    done
}

echo "== no bare unwrap in any crate's source =="
# From a --domains file, a socket, the WAL, a NETCONF message, a JSON
# document or an OpenFlow message to every frame's parsers, rewrites and
# elements, the trace ring and the SLA verdicts: a panic site names the
# invariant that makes it unreachable (expect), or input that can reach
# it gets a typed error. Every source file under crates/*/src is
# scanned; test modules and doc comments are exempt.
mapfile -t SOURCES < <(find crates/*/src -name '*.rs' | sort)
UNWRAPS="$(outside_tests '[.]unwrap[(][)]' 1 "${SOURCES[@]}")"
if [ -n "$UNWRAPS" ]; then
    echo "bare unwrap outside a test module:" >&2
    echo "$UNWRAPS" >&2
    exit 1
fi

echo "== one door to the virtual clock in crates/escape/src =="
# Every move of the clock goes through Escape::advance (env/mod.rs), the
# one place that decides whether a move pauses at sampler boundaries. A
# second caller of the simulator is a clock move the door never sees.
# A call rustfmt wrapped onto its own line counts too. Test modules are
# exempt.
mapfile -t ESCAPE_SOURCES < <(find crates/escape/src -name '*.rs' | sort)
CLOCK="$(outside_tests '(sim|^[[:space:]]*)[.](run_until[(]|run[(]|step[(][)])' 1 \
    "${ESCAPE_SOURCES[@]}")"
if [ "$(grep -c . <<<"$CLOCK")" -ne 1 ] \
    || ! grep -q '^crates/escape/src/env/mod.rs:' <<<"$CLOCK"; then
    echo "the simulator runs outside Escape::advance (want one line, in env/mod.rs):" >&2
    echo "$CLOCK" >&2
    exit 1
fi

echo "== every fsync in crates/*/src lives in crates/ctl/src/wal.rs =="
# A barrier costs about as much as a whole request's work. The WAL
# decides which record needs one; a sync_data or sync_all anywhere else
# is a barrier on some path that nobody priced. Test modules and doc
# comments are exempt.
FSYNCS="$(outside_tests 'sync_(data|all)[(]' 1 "${SOURCES[@]}" \
    | grep -v '^crates/ctl/src/wal[.]rs:' || true)"
if [ -n "$FSYNCS" ]; then
    echo "fsync outside crates/ctl/src/wal.rs:" >&2
    echo "$FSYNCS" >&2
    exit 1
fi

echo "== cargo clippy (-D warnings) =="
# clippy.toml disallows std's HashMap and HashSet everywhere, tests
# included: a map that is walked is a BTreeMap, and one that is only
# probed is an escape_packet::LookupMap, so no output can depend on a
# hash order.
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (-D warnings) =="
# A doc link that no longer resolves is a stale claim about the code.
# The vendored crates are left out: vendor/proptest warns on its own.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --exclude proptest --exclude bytes --exclude rand

echo "== cargo test =="
# tests/restart.rs kill -9's daemons, which cannot unlink their own
# sockets: whatever it creates in the temp dir it must remove itself.
# --no-fail-fast: one red run reports every witness that moved, and each
# leaves its current document under target/tmp/witness.
TEST_STAMP="$(mktemp)"
if ! cargo test -q --no-fail-fast; then
    rm -f "$TEST_STAMP"
    WITNESS="${CARGO_TARGET_DIR:-target}/tmp/witness"
    MOVED="$(cd "$WITNESS" 2>/dev/null && find . -type f | sed 's|^\./|  |' | sort || true)"
    if [ -n "$MOVED" ]; then
        echo "cargo test: witnesses moved (current documents under $WITNESS):" >&2
        echo "$MOVED" >&2
        echo "a deliberate model change re-records them with scripts/rerecord.sh" >&2
    fi
    exit 1
fi
LEAKED="$(find "${TMPDIR:-/tmp}" -maxdepth 1 -name 'escape-restart-*' -newer "$TEST_STAMP")"
rm -f "$TEST_STAMP"
if [ -n "$LEAKED" ]; then
    echo "cargo test: tests/restart.rs leaked into the temp dir:" >&2
    echo "$LEAKED" >&2
    exit 1
fi

echo "== invariant soak (escape soak --steps 2000 --seed 7) =="
# The op mix through a Session, every conservation invariant checked
# after every step; exits non-zero on the first leak.
cargo run --release -q --bin escape -- soak --steps 2000 --seed 7 --json

echo "== end-to-end harness: unit tests and full-script replays (benchmark/) =="
# The replays on seeds 7 and 11 fail on any mapping that stops fitting.
(cd benchmark && cargo test -q --offline)

echo "== end-to-end harness smoke (lifecycle_churn through a real escaped) =="
HARNESS_OUT="$(bash benchmark/run.sh --workload lifecycle_churn --seed 7 --seconds 5 --trace 0)"
echo "$HARNESS_OUT" | tail -n 1 | grep -q '"correct":true' \
    || { echo "harness smoke: run not correct" >&2; echo "$HARNESS_OUT" >&2; exit 1; }
if pgrep -f "escaped --socket target/benchmark/run/" >/dev/null; then
    echo "harness smoke: daemon left behind" >&2
    pgrep -af "escaped --socket target/benchmark/run/" >&2
    exit 1
fi

echo "== virtual digests (scripts/digests.sh against tests/digests.txt) =="
# Same flags => same digest: the eight end-to-end runs of the four
# workloads on seeds 7 and 11 must print exactly the committed lines. A
# change that moves one re-records tests/digests.txt in the same diff
# that says why.
if ! DIGESTS="$(bash scripts/digests.sh)"; then
    echo "digests: a run was not correct" >&2
    echo "$DIGESTS" >&2
    exit 1
fi
if ! diff tests/digests.txt - <<<"$DIGESTS"; then
    echo "virtual digests differ from tests/digests.txt (< committed, > this tree)" >&2
    exit 1
fi

# The three smokes below run one daemon at a time. start_daemon spawns
# it and waits for its socket; stop_daemon shuts it down through the
# socket and checks that it left nothing behind. Whatever a failing step
# in between leaves (the process, sockets, scratch files), the EXIT trap
# removes.
DAEMON_PID=""
SMOKE_FILES=()
cleanup_smoke() {
    [ -z "$DAEMON_PID" ] || kill -9 "$DAEMON_PID" 2>/dev/null || true
    rm -rf "${SMOKE_FILES[@]}"
}
trap cleanup_smoke EXIT

# start_daemon SMOKE SOCKET [escaped options...]
start_daemon() {
    SMOKE="$1"
    DAEMON_SOCK="$2"
    shift 2
    SMOKE_FILES+=("$DAEMON_SOCK")
    target/release/escaped --socket "$DAEMON_SOCK" "$@" &
    DAEMON_PID=$!
    for _ in $(seq 1 50); do
        [ -S "$DAEMON_SOCK" ] && break
        sleep 0.1
    done
    [ -S "$DAEMON_SOCK" ] || { echo "$SMOKE: socket never appeared" >&2; exit 1; }
}

stop_daemon() {
    target/release/escape ctl --socket "$DAEMON_SOCK" shutdown
    wait "$DAEMON_PID"
    if [ -e "$DAEMON_SOCK" ]; then
        echo "$SMOKE: leaked socket $DAEMON_SOCK" >&2
        exit 1
    fi
    if kill -0 "$DAEMON_PID" 2>/dev/null; then
        echo "$SMOKE: orphaned daemon process $DAEMON_PID" >&2
        exit 1
    fi
    DAEMON_PID=""
}

echo "== daemon smoke (escaped + escape ctl) =="
cargo build --release -q --bin escape --bin escaped
SOCK="$(mktemp -u /tmp/escaped-check-XXXXXX.sock)"
start_daemon "daemon smoke" "$SOCK" --seed 7
target/release/escape ctl --socket "$SOCK" status
target/release/escape ctl --socket "$SOCK" metrics --prom | grep -q escape_deploys
stop_daemon

echo "== watch smoke (escaped + streaming escape ctl watch) =="
WSOCK="$(mktemp -u /tmp/escaped-watch-XXXXXX.sock)"
WATCH_OUT="$(mktemp /tmp/escape-watch-XXXXXX.log)"
SMOKE_FILES+=("$WATCH_OUT")
start_daemon "watch smoke" "$WSOCK" --seed 11
target/release/escape ctl --socket "$WSOCK" watch >"$WATCH_OUT" 2>&1 &
WATCH_PID=$!
# The "watching:" ack means the subscription is registered ahead of
# every command issued after it — nothing below can be missed. A loaded
# 2-CPU host can take seconds to start the subscriber: wait up to 30 s.
for _ in $(seq 1 300); do
    grep -q "watching:" "$WATCH_OUT" && break
    sleep 0.1
done
if ! grep -q "watching:" "$WATCH_OUT"; then
    echo "watch smoke: subscriber never acked" >&2
    if kill -0 "$WATCH_PID" 2>/dev/null; then
        echo "watch smoke: the watch process is still running" >&2
    else
        echo "watch smoke: the watch process has exited" >&2
    fi
    echo "watch smoke: watch log follows" >&2
    cat "$WATCH_OUT" >&2
    exit 1
fi
target/release/escape ctl --socket "$WSOCK" deploy examples/data/demo.sg
target/release/escape ctl --socket "$WSOCK" traffic sap0:sap1:50:128:200
target/release/escape ctl --socket "$WSOCK" run-for 20
target/release/escape ctl --socket "$WSOCK" run-for 20
# The verdict path through a real daemon: the verb's count over the
# trace ring, pinned, and the publisher's frame for each chain (below).
SLA="$(target/release/escape ctl --socket "$WSOCK" sla)"
grep -qxF "demo: PASS delivered=50 dropped=0 loss=0.000 max_latency=217374ns" <<<"$SLA" \
    || { echo "watch smoke: demo verdict moved" >&2; echo "$SLA" >&2; exit 1; }
stop_daemon
if ! wait "$WATCH_PID"; then
    echo "watch smoke: subscriber exited non-zero" >&2
    cat "$WATCH_OUT" >&2
    exit 1
fi
grep -q "deploy-committed" "$WATCH_OUT" \
    || { echo "watch smoke: no deploy event seen" >&2; cat "$WATCH_OUT" >&2; exit 1; }
for chain in back demo; do
    grep -qE "sla-verdict +chain $chain: " "$WATCH_OUT" \
        || { echo "watch smoke: no sla-verdict for $chain" >&2; cat "$WATCH_OUT" >&2; exit 1; }
done
DELTAS=$(grep -c "metrics-delta" "$WATCH_OUT" || true)
if [ "$DELTAS" -lt 2 ]; then
    echo "watch smoke: only $DELTAS metrics-delta frames (want >=2)" >&2
    cat "$WATCH_OUT" >&2
    exit 1
fi
rm -f "$WATCH_OUT"

echo "== crash-recovery smoke (escaped --state-dir, kill -9, restart) =="
RSTATE="$(mktemp -d /tmp/escaped-state-XXXXXX)"
RSOCK1="$(mktemp -u /tmp/escaped-crash-XXXXXX.sock)"
RSOCK2="$(mktemp -u /tmp/escaped-crash-XXXXXX.sock)"
SMOKE_FILES+=("$RSTATE")
start_daemon "crash smoke" "$RSOCK1" --seed 7 --state-dir "$RSTATE"
target/release/escape ctl --socket "$RSOCK1" deploy examples/data/demo.sg
target/release/escape ctl --socket "$RSOCK1" run-for 20
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
[ -f "$RSTATE/wal.log" ] \
    || { echo "crash smoke: no intent log left behind by kill -9" >&2; exit 1; }
start_daemon "crash smoke" "$RSOCK2" --seed 7 --state-dir "$RSTATE"
target/release/escape ctl --socket "$RSOCK2" status \
    | grep -E "restarted: recovered [1-9]" \
    || { echo "crash smoke: restarted daemon recovered no chains" >&2; exit 1; }
stop_daemon
if [ -e "$RSTATE/wal.log" ] || [ -e "$RSTATE/snapshot.json" ]; then
    echo "crash smoke: leaked state-dir artifacts in $RSTATE" >&2
    ls -l "$RSTATE" >&2
    exit 1
fi
# A kill -9'd daemon cannot unlink its socket; the smoke does.
rm -rf "$RSTATE" "$RSOCK1"

echo "all checks passed"
