//! Memory linear in the network: the live heap per stored tuple at the
//! fixpoint of an 8,000-node network stays within 10 % of a 500-node one's,
//! counted — not sampled — by wrapping the system allocator. Both run the
//! anchored path-vector program over `Topology::internet_as(n, 2, 2011)`
//! with `ntbench`'s eight anchors, as `examples/bytes_per_node.rs` does; one
//! test in its own binary, so the counts repeat exactly.
//!
//! A structure that every node or link holds and that grows with the
//! network fails it. The one it was written against is the sender's memory
//! of the names each destination has been sent (`nt_runtime::Dictionary`):
//! while it was a bitmap up to the highest name sent, a destination sent one
//! late-minted name held a bit for every name minted before it, and the run
//! read 1,142 B per tuple at 500 nodes and 1,336 B at 8,000 (+17 %). As a
//! sorted handle list until the bitmap is smaller it reads 972 and 1,027 B
//! (+5.7 %).
//!
//! The larger network runs first. Its topology mints every node name the
//! smaller one uses and the program's names come after them, the order a
//! single `ntbench` process interns them in. `heap_ladder_reversed.rs` runs
//! the other order and must read the same bytes.

mod ladder;

use ladder::{Rung, LARGE, SMALL};

#[test]
fn heap_per_stored_tuple_is_flat_from_500_to_8000_nodes() {
    let large = Rung::converge(LARGE);
    let small = Rung::converge(SMALL);
    ladder::check(&small, &large);
}
