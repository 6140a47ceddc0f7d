#!/usr/bin/env bash
# The command of BENCHMARK.json: build ntbench from source, then run it with
# the arguments given. Run from the repository root.
#
# -align-all-functions=6 starts every function on a 64-byte line of its own.
# Without it the JSON decode loop behind every durable log-store read runs at
# 16, 20 or 31 replay steps/s depending on where the linker happened to put
# it: seven layouts of one source (a longer checkout path, a longer usage
# string) read 16.0 - 31.3 steps/s on `snapshot_replay`, and five of them
# rebuilt with the flag 27.7 - 30.2. Two checkouts of one commit are two
# layouts (the crates are path dependencies, so symbol hashes follow the
# checkout's path), so without the flag this workload compares the linker's
# luck, not the code.
set -euo pipefail
export RUSTFLAGS="${RUSTFLAGS:-} -C llvm-args=-align-all-functions=6"
cargo build --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/ntbench" "$@"
