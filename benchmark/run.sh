#!/usr/bin/env bash
# Builds the repository's release `escaped` and the benchmark harness,
# then runs the harness with the given arguments from the checkout root:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh selfcheck [--seconds S]
#   benchmark/run.sh noise
#
# Fails (no result line) when the repository's sources are absent.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Both builds honour CARGO_TARGET_DIR when the caller sets it; otherwise
# each workspace uses its own target directory.
if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
  CARGO_TARGET_DIR="$(realpath -m "$CARGO_TARGET_DIR")"
  export CARGO_TARGET_DIR
  daemon_dir="$CARGO_TARGET_DIR"
  harness_dir="$CARGO_TARGET_DIR"
else
  daemon_dir="$root/target"
  harness_dir="$here/target"
fi

cargo build --release --offline --quiet \
  --manifest-path "$root/Cargo.toml" -p escape-ctl --bin escaped >&2
cargo build --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" >&2

exec "$harness_dir/release/escape-e2e-bench" \
  --escaped "$daemon_dir/release/escaped" "$@"
