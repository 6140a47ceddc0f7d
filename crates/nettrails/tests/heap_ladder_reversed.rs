//! The heap ladder in the other order: the 500-node network runs first, so
//! the program's names and the small network's node names are minted before
//! the 8,000-node network's. Its heap per stored tuple must be what
//! `heap_ladder.rs` reads with the large network first: the memory of the
//! names a destination was sent depends on which names it was sent, not on
//! the order the process minted them in.
//!
//! While a `Dictionary` that had become a bitmap stayed one however far it
//! grew, this order read 1,199 B per tuple at 8,000 nodes against 1,027 B
//! (+16.7 %, about 17 MB): the bitmap was chosen when every handle sent was
//! small, then grew to every late-minted node name.

mod ladder;

use ladder::{Rung, LARGE, SMALL};

#[test]
fn heap_per_stored_tuple_does_not_depend_on_mint_order() {
    let small = Rung::converge(SMALL);
    let large = Rung::converge(LARGE);
    ladder::check(&small, &large);
}
