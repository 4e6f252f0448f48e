#!/usr/bin/env bash
# Repo gate: formatting, lints, tests. Run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== no source file over 1200 lines =="
# A file that size is a decision to take in review, not an accident.
LONG="$(find crates/*/src -name '*.rs' -exec wc -l {} + | awk '$2 != "total" && $1 > 1200')"
if [ -n "$LONG" ]; then
    echo "source files over 1200 lines:" >&2
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

echo "== no bare unwrap on the multi-domain, flight-recorder, per-frame, control and socket/file paths =="
# Between a --domains file and the coordinator, from the node logic that
# produces trace records through the trace ring to an SLA verdict, in
# the parsers, writers, rewrites and elements every frame passes
# through, in the controller's packet-in path and every OpenFlow
# decoder, in the code that reads sockets, the WAL, NETCONF messages and
# JSON, in the code that renders telemetry and the control protocol's
# frames, and in the parsers of the Click text, service graphs and
# topologies that arrive over the socket, a panic site names the invariant that makes it
# unreachable (expect), or input that can reach it gets a typed error.
# Test modules are exempt.
UNWRAPS="$(for f in crates/escape/src/domains.rs crates/domain/src/*.rs \
    crates/escape/src/flight.rs crates/escape/src/env/observe.rs crates/netem/src/trace.rs \
    crates/netem/src/{sim,queue,link}.rs crates/openflow/src/{switch,action,wire,ofmatch,table,cache}.rs \
    crates/click/src/{router,lang,registry,element}.rs crates/escape/src/container.rs \
    crates/packet/src/{ether,ipv4,udp,tcp,flowkey,builder,rewrite,pool,lookup,checksum}.rs \
    crates/netem/src/host.rs crates/click/src/elements/*.rs crates/pox/src/{core,steering,component}.rs \
    crates/ctl/src/wal.rs crates/ctl/src/server/*.rs crates/netconf/src/*.rs \
    crates/ctl/src/{proto,frame,client,remote}.rs crates/telemetry/src/*.rs \
    crates/json/src/*.rs crates/sg/src/*.rs crates/catalog/src/lib.rs; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /\.unwrap\(\)/ { print f ":" FNR ": " $0 }' "$f"
done)"
if [ -n "$UNWRAPS" ]; then
    echo "bare unwrap on a gated path:" >&2
    echo "$UNWRAPS" >&2
    exit 1
fi

echo "== no std hash map in the per-frame files =="
# A frame is looked up in these files' maps: they hash with the fixed
# FxHasher behind escape_packet::LookupMap, which cannot iterate, and a
# map that must be walked is a BTreeMap. std's SipHash costs more per
# frame, and its per-process keys reach any output that iterates it.
# Test modules are exempt.
HASHMAPS="$(for f in crates/openflow/src/{cache,switch}.rs crates/click/src/router.rs \
    crates/click/src/elements/nat.rs crates/packet/src/pool.rs \
    crates/netem/src/{sim,queue,host,link}.rs crates/escape/src/container.rs; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /Hash(Map|Set)([^A-Za-z0-9_]|$)/ { print f ":" FNR ": " $0 }' "$f"
done)"
if [ -n "$HASHMAPS" ]; then
    echo "std hash map in a per-frame file:" >&2
    echo "$HASHMAPS" >&2
    exit 1
fi

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (-D warnings) =="
# A doc link that no longer resolves is a stale claim about the code.
# The vendored crates are left out: vendor/proptest warns on its own.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --exclude proptest --exclude bytes --exclude rand

echo "== cargo test =="
# tests/restart.rs kill -9's daemons, which cannot unlink their own
# sockets: whatever it creates in the temp dir it must remove itself.
TEST_STAMP="$(mktemp)"
cargo test -q
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
# every command issued after it — nothing below can be missed.
for _ in $(seq 1 50); do
    grep -q "watching:" "$WATCH_OUT" && break
    sleep 0.1
done
grep -q "watching:" "$WATCH_OUT" || { echo "watch smoke: subscriber never acked" >&2; exit 1; }
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
