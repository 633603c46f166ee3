#!/usr/bin/env bash
# Builds the benchmark and the priograph-server binary from source, then
# runs the benchmark with the given arguments. Run from the repository
# root; build output goes to $CARGO_TARGET_DIR (default: target).
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p priograph-serve --bin priograph-server >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --server "$target/release/priograph-server" "$@"
