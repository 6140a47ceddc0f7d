//! The laws of `IdHasher`, the hasher of every product map: equal keys hash
//! equal, and the hashes of four key families spread over the two parts of a
//! hash hashbrown reads — the low bits (the bucket index) and the top seven
//! (the control byte of every slot).
//!
//! Each family is 65,536 keys the product's maps hold or could hold:
//! sequential `u32` handles (a `NodeId` or `Sym` hashes as its pool index),
//! the `TupleId`s of sequentially built tuples, `u64`s that differ only in
//! their top 24 bits, and the node names the interner's string index hashes.
//!
//! * The low 16 bits take at least 20,000 distinct values. A uniform hash
//!   leaves 65,536 · (1 − 1/e) ≈ 41,427 of them, and the digests and the
//!   names read within 400 of that at every key drawn. One multiply has
//!   structure on sequential words: over 300,000 sampled process keys the
//!   handles read 40,000 or more at 99.4 % of them, and 26,942 at the worst.
//! * Each of the 128 top-7-bit tags holds 512 ± 25 % of the keys (one
//!   standard deviation of a uniform hash is 22.5 keys per tag).
//!
//! The hasher is keyed per process, so each run of this test draws a new key.
//!
//! Seeded mutations this test caught, and the checks that failed:
//! * `finish` returns the last word unmixed: the tags of the handles (all
//!   65,536 in tag 0), and the low bits of the top-24 family and of the names
//!   (one value each; a `str`'s last word is its `0xff` terminator);
//! * only the low half of the product is kept: the low bits of the top-24
//!   family (one value: a product's low bits never see a factor's high bits)
//!   and of the names (43 values);
//! * `write` drops a string's trailing partial word: the low bits of the
//!   names (5 values: a name under eight bytes hashes as its length).

use nt_intern::{IdHasher, IdMap, NodeId};
use nt_runtime::{Tuple, Value};
use std::hash::{BuildHasher, BuildHasherDefault, Hash};

const KEYS: usize = 1 << 16;

fn hash<K: Hash + ?Sized>(key: &K) -> u64 {
    BuildHasherDefault::<IdHasher>::default().hash_one(key)
}

fn handles() -> Vec<u64> {
    (0..KEYS as u32).map(|i| hash(&i)).collect()
}

fn tuple_ids() -> Vec<u64> {
    (0..KEYS as i64)
        .map(|i| hash(&Tuple::new("link", vec![Value::addr("n1"), Value::Int(i)]).id()))
        .collect()
}

fn top_bits() -> Vec<u64> {
    (0..KEYS as u64).map(|i| hash(&(i << 40))).collect()
}

fn names() -> Vec<u64> {
    (0..KEYS).map(|i| hash(format!("n{i}").as_str())).collect()
}

fn assert_spread(family: &str, hashes: &[u64]) {
    let mut low = vec![false; 1 << 16];
    for h in hashes {
        low[(h & 0xffff) as usize] = true;
    }
    let distinct = low.iter().filter(|&&seen| seen).count();
    assert!(
        distinct >= 20_000,
        "{family}: the low 16 bits take {distinct} values"
    );

    let mut tags = [0usize; 128];
    for h in hashes {
        tags[(h >> 57) as usize] += 1;
    }
    let expected = hashes.len() / 128;
    for (tag, &count) in tags.iter().enumerate() {
        assert!(
            count.abs_diff(expected) * 4 <= expected,
            "{family}: tag {tag} holds {count} keys, expected {expected} ± 25 %"
        );
    }
}

#[test]
fn equal_keys_hash_equal() {
    let (a, b) = (String::from("as-1207"), "as-".to_string() + "1207");
    assert_eq!(hash(a.as_str()), hash(b.as_str()));
    let (t, u) = (
        Tuple::new("link", vec![Value::addr("n1"), Value::Int(3)]),
        Tuple::new("link", vec![Value::addr("n1"), Value::Double(3.0)]),
    );
    assert_eq!(
        hash(&(t.id(), NodeId::new("n2"))),
        hash(&(u.id(), NodeId::new("n2")))
    );
    assert_eq!(hash(&7u32), hash(&7u32));
    assert_eq!(hash(&(7u64 << 40)), hash(&(7u64 << 40)));

    // Two maps built apart find each other's keys.
    let mut by_name = IdMap::default();
    by_name.insert(a, 1);
    let mut wide = IdMap::with_capacity_and_hasher(1024, Default::default());
    wide.extend(by_name.clone());
    assert_eq!(wide.get(b.as_str()), Some(&1));
    assert_eq!(wide, by_name);
}

#[test]
fn sequential_handles_spread() {
    assert_spread("u32 handles", &handles());
}

#[test]
fn tuple_ids_spread() {
    assert_spread("tuple ids", &tuple_ids());
}

#[test]
fn words_differing_in_their_top_bits_spread() {
    assert_spread("top 24 bits", &top_bits());
}

#[test]
fn names_spread() {
    assert_spread("names", &names());
}
