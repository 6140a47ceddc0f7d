#!/usr/bin/env bash
# The steps of CI. .github/workflows/ci.yml runs `lint` and `test` as its two
# jobs, so a builder who passes this script passes CI, and vice versa.
#
#   scripts/ci_local.sh          # everything (lint job, then test job)
#   scripts/ci_local.sh lint     # just the lint job
#   scripts/ci_local.sh test     # just the test job
#   scripts/ci_local.sh fence    # the benchmark fence ledger, citations checked
#   scripts/ci_local.sh lines    # non-test product lines, per file and total
#   scripts/ci_local.sh lines <git-ref>   # the same, <git-ref> -> working tree:
#                                         # every file that differs, both totals
#
# Every exact fact CI gates on (golden replay and service digests,
# equivalence proofs, pinned counts) is a tier-1 test; numbers come from
# ntbench (benchmark/) and are not gated here.

set -euo pipefail
cd "$(dirname "$0")/.."

lint() {
    echo "==> [lint] cargo fmt --all --check"
    cargo fmt --all --check

    # clippy.toml disallows std's HashMap and HashSet: every map goes through
    # nt_intern::{IdMap, IdSet}, and only those aliases and the vendored
    # serde's generic impls name std's types.
    echo "==> [lint] cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings

    echo '==> [lint] RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps'
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

    # Every doc example is a doctest that compiles and runs: one marked
    # `ignore` would be checked by nothing.
    echo '==> [lint] no ```ignore doc examples under crates/*/src'
    if grep -rnE '^[[:space:]]*//[/!][[:space:]]*```ignore' crates/*/src; then
        echo 'lint: a doc example is marked ignore; give it hidden setup lines instead' >&2
        return 1
    fi
}

test_job() {
    echo "==> [test] cargo build --release --workspace"
    cargo build --release --workspace

    # Among them, the oracles of the storage layout:
    #   nt-runtime proptest_probe_mask — a table indexing a random column set
    #     reads like one indexing every column;
    #   nt-runtime proptest_columnar_equivalence (key_order_matches_the_row_store)
    #     — the sorted-slot key index orders tuples as a B-tree row store kept
    #     in the test file does; it catches a key index ordered by slot, the
    #     last key column left out of ColumnStore::find, and a Str arm in
    #     dict_code; full retraction empties every table and the outbox and
    #     retracts every shipped derivation once;
    #   nt-runtime proptest_slot_equivalence — the one join kernel derives,
    #     step by step, what a naive name-keyed evaluator kept in the test
    #     file derives;
    #   nettrails-bench join_probes_regression — the exact join candidates of
    #     two ladder convergences, at least 2x under the full-scan counts
    #     they replaced;
    #   scenario programs::tests (every_probe_site_of_every_shipped_program_is_indexed,
    #     the_benchmark_programs_index_a_third_of_their_columns) — the probe
    #     sets of the shipped programs, pinned, and no probe site outside them;
    #   nettrails bytes_per_node — counted heap per empty node and per stored
    #     tuple under pinned ceilings, live blocks once seeded no higher than
    #     before shared handles, the exact allocations from seeding to the
    #     fixpoint, and all of it back on drop; the heap census
    #     (NetTrails::heap_census) row by row at the fixpoint and after 40
    #     seeded link flaps, held to the counting allocator;
    #   nt-intern heap_model — the layout rules the census reads (vector
    #     capacity, hash-table buckets, shared slices) against a counting
    #     allocator;
    #   nettrails heap_ladder, heap_ladder_reversed — heap per stored tuple
    #     flat from 500 to 8,000 nodes, and the same with either network's
    #     names minted first (a dictionary's form follows the names sent, not
    #     the mint order).
    # the oracles of the one equality (the compiler decides which columns
    # hold addresses; storage and every matcher follow with ==):
    #   scenario address_census — over every shipped program after
    #     convergence and churn, no non-address in an address column, no
    #     address elsewhere, no refused fact; and no non-address column of a
    #     workload program holding two kinds (Int, Double, other);
    #   scenario provenance_rewrite — the paper's prov / ruleExec rewrite of
    #     every shipped program compiles, prov's RLoc an address column and
    #     ruleExec's rule name not;
    #   nt-runtime proptest_probe_mask, proptest_columnar_equivalence,
    #     proptest_slot_equivalence — a text probe never finds an address;
    # the oracles of one placement (ndlog::localize decides where a rule runs):
    #   scenario provenance_rewrite
    #     (rule_exec_and_prov_sit_where_localization_runs_the_rule) — for every
    #     derivation rule of every shipped localized program, ruleExec's @ and
    #     prov's RLoc are ndlog::exec_location's term;
    #   nt-runtime compile::tests::localization_refusals_come_in_order_and_name_the_rule
    #     — unlinked locations, then more than two, then a first atom pinned
    #     to a constant, each an Err naming the rule;
    # the oracle of a replay diff keyed by identity:
    #   logstore cursor_equivalence — between and the in-place step equal a
    #     between_reference keyed by (node, tuple id), never by rendering;
    # the laws of one identity per value, shared or not:
    #   nt-runtime proptest_value_laws (a_shared_list_is_its_content,
    #     canonicalizing_a_shared_list_copies_it) — a clone and a rebuilt
    #     copy are one value to ==, Ord, Hash, {:?}, encoding and tuple id, and a
    #     tuple never rewrites a list another holder keeps;
    # the oracle of the dictionary discipline:
    #   nettrails dictionary_discipline — every DeltaBatch and QueryBatch
    #     decodable from the headers delivered before it, a name shipped
    #     once, header bytes pinned; and a log record's bytes depend on the
    #     record alone: every payload decodes on its own with exactly its
    #     names in its table, the payload bytes of three checkpoint cadences
    #     pinned, one capture stream appended twice (once while another
    #     thread mints names) is the same bytes;
    # the oracle and the price of the message plane's bookkeeping:
    #   simnet proptest_traffic_view — TrafficStats counts under handles and
    #     reads (codec bytes, {:?}, merge) like the string-keyed counters
    #     it replaced, which the test file keeps;
    #   simnet send_allocations, nettrails allocations_per_session — counted
    #     heap allocations per message (none once its link is counted) and
    #     per query session (under a pinned ceiling);
    # the oracles of the log store's binary codec:
    #   nettrails codec_equivalence — every record of seeded platform capture
    #     streams (the snapshot_replay network, the four replay_determinism
    #     families) round-trips through nt_runtime::codec to itself and its
    #     bytes, a reopened segment store materializes the captures; hand-built
    #     values bit for bit; a hand-written frame spelling 3 as 3.0 decodes
    #     to the Int spelling's tuple;
    #   logstore hostile_bytes — every truncation, seeded mutations and
    #     random buffers: the decoder never panics, never reserves past the
    #     bytes left, caps list nesting;
    #   logstore byte_accounting — on both backends uploaded_bytes is the
    #     sum of codec::encode lengths, the memory footprint equals it, the
    #     segment footprint adds 21 B per frame and the footers; compaction
    #     carries a payload that does not decode byte for byte;
    # the oracles of a snapshot's one order and its names:
    #   nt-runtime proptest_value_laws (tuple_order_is_a_total_order_consistent_with_eq_and_id,
    #     tuple_order_reads_names_not_handles) — Tuple's Ord is Equal exactly
    #     when == and one id, antisymmetric, transitive, and reads names, not
    #     interning order;
    #   logstore snapshot::tests::a_capture_does_not_depend_on_insertion_order_or_slot_reuse
    #     — one set of facts inserted in two orders, with slot reuse, captures alike;
    #   logstore cursor_equivalence, nettrails codec_equivalence — the name
    #     table of every checkpoint's and materialized snapshot's frame equals
    #     the text-set walk kept in crates/logstore/tests/common, and
    #     capture_record's records equal the capture-then-capturer stream
    #     byte for byte;
    # the oracles of what a provenance vertex and a firing carry:
    #   nettrails integration_incremental
    #     (provenance_stats_after_link_churn_equal_a_fresh_computation) — MINCOST
    #     on ring(4) and internet_as(200, 2, 2011) under seeded link downs and
    #     recoveries: after every event the provenance counters (prov entries,
    #     rule executions, tuple vertices, record bytes) equal a fresh
    #     computation's, so no store keeps a tuple for a vertex it dropped; it
    #     catches a vertex kept after its last prov entry goes;
    #   nt-runtime engine::tests::firing_over_stored_inputs_materializes_no_tuple
    #     — an engine run whose firings join stored inputs (local and remote
    #     heads, an aggregate) leaves tuple_materializations() where it was: a
    #     firing names its inputs by id;
    # the pin of the engine's output stream (a generation applies its deltas,
    # then replays its events once, each trigger fired where its event replays):
    #   nettrails engine_output_stream — every StepOutput (firings, local
    #     changes, each DeltaBatch's dictionary and records) of seeded
    #     convergences and churn on four programs (anchored path vectors, the
    #     same with a negation rule, MINCOST, PATH-VECTOR), in order, digested
    #     with the engines' counters; pinned before the generation loop became
    #     one pass, it caught an appearance that runs its monotonic triggers
    #     after its aggregate and negation triggers, and a disappearance that
    #     fires monotonic rules;
    # the pin of the query executor's session stream (one frame kind for
    # vertices and rule executions, one scan whose width is the traversal
    # order):
    #   nettrails query_session_stream — every frame each poll seals (records,
    #     qids, frame ids, dictionaries) and every session's result and
    #     stats, over depth-/breadth-first x kinds x cache x bounds plus a
    #     cancellation wave per kind, on MINCOST and anchored path vectors
    #     before and after a link down and on a seeded graph swept with cold
    #     caches; digested before the scan became one routine, it caught a
    #     childless breadth-first frame completing inline, depth-first at
    #     width 2 and a rule execution's inputs issued in reverse order;
    # the oracles of one retraction per lost derivation:
    #   nt-runtime engine::tests::the_dependency_index_keeps_only_what_its_cascade_retracts
    #     — two engines exchange a remote derivation and one holds a min<>
    #     head: every dependency key is a tuple stored at its node and no
    #     entry names the aggregate head;
    #   nt-runtime proptest_slot_equivalence — every derivation that went
    #     fires once, aggregate and negation rules included;
    # the oracles of the query executor's frames and cycle guard:
    #   provenance query::executor::tests::one_poll_ships_one_frame_per_endpoints_and_direction
    #     — a hand-staged flush and every poll of concurrent drains against
    #     frames built the obvious way: one per (from, to, direction) in
    #     first-staged order, none mixing directions, each session's records
    #     together and in staging order, each contributing session charged
    #     one message, its records and the names it is first to ship; it
    #     caught records sealed in staging order, a frame's message charged
    #     to its first session only, every member charged the whole frame's
    #     dictionary header, and direction left out of the frame key;
    #   nettrails proptest_query_equivalence (concurrent_sessions_match_their_solo_runs)
    #     — under cancellation storms every session that is not cancelled
    #     equals its query run alone on an identically built platform, the
    #     sessions' bytes add up to the executor's, and the run ships no
    #     more frames than the solo runs; it caught a frame's message
    #     charged to its first session only and every member charged the
    #     whole frame's dictionary header;
    #   nettrails dictionary_discipline (check_sealed) — every QueryBatch's
    #     stored length is its header plus the per-record walk
    #     (QueryOp::wire_size);
    #   provenance query::executor::tests::cyclic_stores_across_nodes_terminate
    #     — a two-node cycle whose path rides ExpandExec requests ends as the
    #     recursion does, cache on and off, both traversals, one derivation
    #     per vertex or all;
    # the fold oracle (each query kind is one fold, evaluated where the data
    # is; crates/provenance/tests/common/oracle.rs keeps the whole-tree
    # projection it replaced):
    #   provenance size_independence
    #     (every_kind_folds_to_its_lineage_projection_at_any_size) — every
    #     kind x traversal x cache x depth bound equals project_result of the
    #     lineage tree a per-kind shadow engine computes, on 500- and
    #     1,000-node rings carrying a proof of 2^64 derivations; it caught the
    #     three seeded mutations: a pruned vertex counted 0, a rule
    #     execution's node missing from the node set, a non-saturating count;
    #   nettrails proptest_query_equivalence, scenario
    #     service::tests::flash_crowd_of_1280_sessions_holds_its_exact_counts
    #     — the same oracle on random protocol networks under churn and on
    #     every completed session of the flash crowd;
    #   provenance query::wire::tests — a count is 8 B and names nothing, a
    #     node set 2 + 4 B per node and names only nodes, a base set names its
    #     tuples;
    # the ProQL oracle (NetTrails::proql compiles a query to lineage
    # sessions; tests/proql_sessions.rs keeps the graph walk it replaced):
    #   nettrails proql_sessions (sessions_answer_what_the_graph_walk_answers)
    #     — every shipped protocol on a ladder, at quiescence and after a
    #     link down, every derived relation with and without a node, through
    #     fourteen step lists, equals the walk over provenance_graph(); it
    #     caught `back N` issued as max_depth N+1, `bases` keeping every
    #     pruned leaf, `@n` ignored and `nodes` taken from a
    #     ParticipatingNodes fold;
    # the laws of the one map hasher:
    #   nt-intern id_hasher — equal keys hash equal, and the low 16 bits and
    #     the top-7-bit tags of four key families (sequential handles, tuple
    #     ids, words differing in their top bits, node names) spread;
    # and the paper's shapes:
    #   nettrails-bench report_golden — the E2-E8 tables `report` prints, one
    #     golden text (crates/bench/tests/golden/report.txt).
    echo "==> [test] cargo test -q --workspace"
    cargo test -q --workspace

    # The shims benchmark/ still compiles against: every cited benchmark
    # line must still name its shim (tests/benchmark_fence.rs holds what the
    # shims do).
    echo "==> [test] benchmark fence ledger"
    fence

    # The counting-allocator probe behind those ceilings, at 200 nodes: one
    # line per phase (start / new / seed / fixpoint / drop) with live bytes,
    # blocks, per node, per tuple and VmHWM. `-- 2000` is converge_as.
    echo "==> [test] bytes_per_node example, 200 nodes"
    cargo run --release --quiet --example bytes_per_node -- 200

    # ntbench's LayeredNet recomposes the platform round loop from the
    # public layer calls and every traced run compares its end state with the
    # product's. Run both here so a product loop that diverges from the twin
    # ("layer trace diverged from product loop") fails in CI and not in the
    # benchmark pipeline.
    echo "==> [test] ntbench tests (product loop vs its layered twin)"
    (cd benchmark && cargo test --release --offline)

    # One 2 s traced smoke per workload; each is there for the layer it drives.
    # churn_as: the round loop on tiny generations, deletes and re-derivation.
    # snapshot_replay: the durable read path end to end — capture, segment
    #   files, reopen, replay, seeks and every get(i) against the in-memory
    #   captures. A logstore or serde-facade change that breaks a read fails
    #   here.
    # query_storm: the query plane end to end — the layered twin drives
    #   QueryExecutor and ProvenanceSystem directly and must end in the
    #   product's state, and one session in sixteen is checked against the
    #   in-process oracle. A change to vertex resolution or frame sealing that
    #   moves a result fails here.
    # converge_as: the join kernel on large generations — a cold convergence
    #   of the 2,000-node topology pushes thousands of deltas through one
    #   engine run, and the layered twin must still end in the product's state.
    # churn_query_mixed: the `Mixed` program — three rule families in one
    #   engine, aggregates under churn, and the only aggregate whose variable
    #   an assignment binds (`dx3 ... L := f_size(P)`); then a cached query
    #   wave beside the writes.
    for workload in churn_as snapshot_replay query_storm converge_as churn_query_mixed; do
        echo "==> [test] ntbench traced smoke: $workload, 2 s"
        bash benchmark/run.sh --workload "$workload" --seed 12 --seconds 2 --trace 1 > /dev/null
    done
}

# The fence ledger: every name benchmark/ still compiles against after the
# machinery behind it was deleted. A shim is the item below a tag
#     // fence: benchmark/src/<file>:<line>     (Rust: fn, const, static, field)
#     # fence: benchmark/Cargo.lock             (a crate's Cargo.toml dependency)
# and several tags may stack on one item. Prints one line per citation, then
# the ledger length; fails when a cited benchmark line no longer contains the
# shim's name, or the lock no longer lists the dependency for that crate.
fence() {
    local entries status=0 shims=0 citations=0
    entries=$(find crates -path crates/compat -prune -o \( -name '*.rs' -o -name Cargo.toml \) -print |
        sort | xargs awk '
            FNR == 1 { n = 0 }
            match($0, /^[ \t]*(\/\/|#) fence: benchmark\/[^ ]+/) {
                cite[n++] = substr($0, index($0, "benchmark/"))
                next
            }
            n > 0 && $0 !~ /^[ \t]*(\/\/|#\[|$)/ {
                line = $0
                sub(/^[ \t]*(pub(\([a-z]+\))? )?/, "", line)
                sub(/^(fn|const|static) /, "", line)
                match(line, /^[A-Za-z_][A-Za-z0-9_-]*/)
                name = substr(line, 1, RLENGTH)
                for (i = 0; i < n; i++) print FILENAME, name, cite[i]
                n = 0
            }')
    while read -r file name cite; do
        [ -n "$file" ] || continue
        citations=$((citations + 1))
        local where="${cite%%:*}" line="${cite#*:}" ok=no
        if [ "$where" = benchmark/Cargo.lock ]; then
            local package
            package=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$file" | head -1)
            awk -v pkg="$package" -v dep="$name" '
                /^\[\[package\]\]/ { inpkg = 0 }
                $0 == "name = \"" pkg "\"" { inpkg = 1 }
                inpkg && $0 ~ "^ \"" dep "\",?$" { found = 1 }
                END { exit !found }' benchmark/Cargo.lock && ok=yes
        elif [ "$line" != "$cite" ] && sed -n "${line}p" "$where" | grep -qw -- "$name"; then
            ok=yes
        fi
        if [ $ok = yes ]; then
            printf '  %-44s %-28s %s\n' "$file" "$name" "$cite"
        else
            printf '  %-44s %-28s %s  STALE: the cited line does not name it\n' "$file" "$name" "$cite"
            status=1
        fi
    done <<< "$entries"
    shims=$(printf '%s\n' "$entries" | awk 'NF { print $1, $2 }' | sort -u | wc -l)
    echo "fence ledger: $shims shims, $citations citations"
    return $status
}

# What a [simplicity] PR reports (ROADMAP ground rules): the lines of every
# file under crates/*/src outside crates/compat, each up to its trailing
# `#[cfg(test)] mod`. Not a CI job. With a git ref, the parent -> change
# table: the files whose count differs between that ref and the working
# tree, and both totals.
product_lines() {
    awk '
        held != "" && /^mod / { held = ""; exit }
        held != "" { n++; held = "" }
        /^#\[cfg\(test\)\]$/ { held = $0; next }
        { n++ }
        END { if (held != "") n++; print n + 0 }'
}

lines() {
    find crates/*/src -name '*.rs' -not -path 'crates/compat/*' | sort | while read -r file; do
        printf '%7d %s\n' "$(product_lines < "$file")" "$file"
    done | awk '{ total += $1; print } END { printf "%7d total\n", total }'
}

lines_since() {
    local ref="$1"
    git rev-parse --verify --quiet "$ref^{commit}" > /dev/null || {
        echo "lines: not a commit: $ref" >&2
        exit 2
    }
    {
        git ls-tree -r --name-only "$ref" -- crates | grep -E '^crates/[^/]+/src/.*\.rs$' |
            grep -v '^crates/compat/' | while read -r file; do
            printf 'parent %d %s\n' "$(git show "$ref:$file" | product_lines)" "$file"
        done
        lines | awk '$2 != "total" { print "change", $1, $2 }'
    } | awk -v ref="$ref" '
        { files[$3] = 1 }
        $1 == "parent" { parent[$3] = $2; parent_total += $2 }
        $1 == "change" { change[$3] = $2; change_total += $2 }
        END {
            for (f in files)
                if (parent[f] + 0 != change[f] + 0)
                    printf "0\t%s\t%7d -> %7d  %+6d  %s\n", f, parent[f], change[f], change[f] - parent[f], f
            printf "1\t\t%7d -> %7d  %+6d  total (%s -> working tree)\n",
                parent_total, change_total, change_total - parent_total, ref
        }' | sort -t "$(printf '\t')" -k1,1n -k2,2 | cut -f3
}

case "${1:-all}" in
    lint) lint ;;
    test) test_job ;;
    fence) fence ;;
    lines)
        if [ $# -ge 2 ]; then lines_since "$2"; else lines; fi
        exit 0
        ;;
    all)
        lint
        test_job
        ;;
    *)
        echo "usage: $0 [lint|test|fence|lines [<git-ref>]|all]" >&2
        exit 2
        ;;
esac

echo "ci_local: all requested jobs passed"
