#!/usr/bin/env bash
# Re-records every pinned witness after a deliberate model change:
#
#   bash scripts/rerecord.sh
#
# Every corpus test writes a mismatch to target/tmp/witness/<the
# committed file's path>. This script clears that directory, runs the
# whole test suite, copies every mirrored file over its committed path,
# and repeats until a pass writes nothing; EXPERIMENTS.md follows
# tests/experiments.txt one pass later, so a third pass that still
# writes fails. It then re-records tests/digests.txt from
# scripts/digests.sh and prints what moved: `path: +A -D` for each file,
# and one line for each section that moved in a file of `##`/`###`
# sections. A test that still fails after re-recording is not a
# witness: the script names it and exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."

TARGET="${CARGO_TARGET_DIR:-target}"
MIRROR="$TARGET/tmp/witness"
LOG="$TARGET/tmp/rerecord.log"
mkdir -p "$TARGET/tmp"
# The committed text of every file re-recorded, for the summary.
BEFORE="$(mktemp -d)"
trap 'rm -rf "$BEFORE"' EXIT

keep() {
    if [ ! -e "$BEFORE/$1" ]; then
        mkdir -p "$(dirname "$BEFORE/$1")"
        cp "$1" "$BEFORE/$1"
    fi
}

status=0
for pass in 1 2 3; do
    rm -rf "$MIRROR"
    echo "== pass $pass: cargo test -q --no-fail-fast (log in $LOG) =="
    status=0
    cargo test -q --no-fail-fast >"$LOG" 2>&1 || status=$?
    mapfile -t MOVED < <(cd "$MIRROR" 2>/dev/null && find . -type f | sed 's|^\./||' | sort)
    if [ "${#MOVED[@]}" -eq 0 ]; then
        break
    fi
    if [ "$pass" -eq 3 ]; then
        echo "rerecord: witnesses still move after three passes:" >&2
        printf '  %s\n' "${MOVED[@]}" >&2
        exit 1
    fi
    for f in "${MOVED[@]}"; do
        keep "$f"
        cp "$MIRROR/$f" "$f"
    done
done

echo "== virtual digests (scripts/digests.sh) =="
if ! DIGESTS="$(bash scripts/digests.sh)"; then
    echo "rerecord: a digest run was not correct; tests/digests.txt left as it is" >&2
    echo "$DIGESTS" >&2
    exit 1
fi
if [ "$DIGESTS" != "$(cat tests/digests.txt)" ]; then
    keep tests/digests.txt
    printf '%s\n' "$DIGESTS" >tests/digests.txt
fi

echo "== what moved =="
mapfile -t CHANGED < <(cd "$BEFORE" && find . -type f | sed 's|^\./||' | sort)
if [ "${#CHANGED[@]}" -eq 0 ]; then
    echo "nothing"
fi
for f in "${CHANGED[@]}"; do
    CHANGES="$(diff "$BEFORE/$f" "$f" || true)"
    echo "$f: +$(grep -c '^>' <<<"$CHANGES" || true) −$(grep -c '^<' <<<"$CHANGES" || true)"
    # One line per section whose body changed, that is new or that is
    # gone; a title line starts with `## ` or `### `.
    awk '
        FNR == 1 { file++; name = "" }
        /^###? / { name = $0; sub(/^#+ /, "", name); seen[file, name] = 1
                   if (file == 2) order[++n] = name; else old[++m] = name; next }
        { body[file, name] = body[file, name] $0 "\n" }
        END {
            for (i = 1; i <= n; i++) {
                k = order[i]
                if (!((1, k) in seen)) print "  § " k ": new"
                else if (body[1, k] != body[2, k]) print "  § " k ": changed"
            }
            for (i = 1; i <= m; i++)
                if (!((2, old[i]) in seen)) print "  § " old[i] ": gone"
        }' "$BEFORE/$f" "$f"
done

if [ "$status" -ne 0 ]; then
    echo "rerecord: tests fail that no re-record mends (see $LOG):" >&2
    grep -E '^---- .* stdout ----$|^    `-p .*`$|^error' "$LOG" >&2 || tail -n 20 "$LOG" >&2
    exit 1
fi
