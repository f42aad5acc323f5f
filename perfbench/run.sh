#!/usr/bin/env bash
# Build and run the benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# `--trace 0` runs the end-to-end runner (`perfbench`), `--trace 1` the
# traced runner (`perfbench-layers`). Only the runner asked for is built,
# so a change that breaks the traced runner leaves the end-to-end one
# working. Builds go to $CARGO_TARGET_DIR (default .bench_build); per-run
# scratch and span files go under it too. The last line of standard output
# is the result object.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in
  /*) target="$CARGO_TARGET_DIR" ;;
  *) target="$PWD/$CARGO_TARGET_DIR" ;;
esac

bin=perfbench
prev=""
for arg in "$@"; do
  if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then
    bin=perfbench-layers
  fi
  prev="$arg"
done

cargo build --release --offline --quiet \
  --manifest-path "$root/perfbench/Cargo.toml" --bin "$bin" >&2
exec "$target/release/$bin" "$@" --root "$root" --work-dir "$target/perfbench"
