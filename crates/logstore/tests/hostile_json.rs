//! `LogStore::from_json` on text it did not write.
//!
//! The visualizer's export is also an import, so the loader meets whatever a
//! file holds. Fed every truncation and seeded byte mutations of the two
//! `store_pr21_*` fixtures, and arrays nested past the vendored parser's
//! depth cap, it never panics: every document it refuses is an `Err`, and
//! every store it accepts reads back — each snapshot materializes from the
//! payload `append_record` encoded for it.
//!
//! Seeded mutations and who caught them:
//!
//! | mutation | caught by |
//! |---|---|
//! | `ProvGraph`'s deserializer keeping a vertex under another vertex's id | `seeded_mutations_…`: the encoder's "a vertex is keyed by its own id" assertion panicked inside `from_json` |

use logstore::{LogStore, NodeSnapshot, SystemSnapshot};
use nt_runtime::{Tuple, Value};

const INTS: &str = include_str!("fixtures/store_pr21_ints.json");
const DOUBLES: &str = include_str!("fixtures/store_pr21_doubles.json");

/// Load `text`; a store that loads must materialize every snapshot.
fn loads(text: &str) -> bool {
    let Ok(store) = LogStore::from_json(text) else {
        return false;
    };
    for i in 0..store.len() {
        assert!(store.get(i).is_some(), "snapshot {i} of a loaded store");
    }
    true
}

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn every_truncation_of_a_stored_document_is_an_error() {
    for text in [DOUBLES, INTS] {
        assert!(loads(text));
        for cut in 0..text.len() {
            assert!(!loads(&text[..cut]), "cut at {cut} of {}", text.len());
        }
    }
}

#[test]
fn seeded_mutations_load_or_fail_without_panicking() {
    // Bytes that move JSON's structure or a value's meaning.
    const SIGNIFICANT: &[u8] = b"{}[]\":,-.0123456789eE tfnaINDx\\";
    let mut rng = Rng(29);
    let (mut loaded, mut refused) = (0, 0);
    for original in [DOUBLES, INTS] {
        for _ in 0..1500 {
            let mut bytes = original.as_bytes().to_vec();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bytes.len());
                let byte = SIGNIFICANT[rng.below(SIGNIFICANT.len())];
                match rng.below(5) {
                    0 => bytes[at] = byte,
                    1 => bytes.insert(at, byte),
                    2 => drop(bytes.remove(at)),
                    // A number past every integer width where a digit was.
                    3 => {
                        bytes.splice(at..at, *b"184467440737095516160");
                    }
                    _ => {
                        let end = (at + 1 + rng.below(24)).min(bytes.len());
                        let copy = bytes[at..end].to_vec();
                        let to = rng.below(bytes.len());
                        bytes.splice(to..to, copy);
                    }
                }
            }
            let text = String::from_utf8(bytes).expect("ASCII in, ASCII out");
            if loads(&text) {
                loaded += 1;
            } else {
                refused += 1;
            }
        }
    }
    assert!(
        loaded > 0 && refused > 0,
        "{loaded} loaded, {refused} refused"
    );
}

#[test]
fn arrays_nested_past_the_depth_cap_are_an_error() {
    for depth in [129, 100_000] {
        let nested = format!(
            r#"{{"snapshots": {}{}, "uploaded_bytes": 0}}"#,
            "[".repeat(depth),
            "]".repeat(depth)
        );
        assert!(!loads(&nested), "depth {depth}");
    }
    // Inside a tuple: each `List` level is an object and an array.
    let list = |depth: usize| {
        let mut value = Value::Int(7);
        for _ in 0..depth {
            value = Value::list(vec![value]);
        }
        let mut node = NodeSnapshot {
            node: "deep".into(),
            ..Default::default()
        };
        let tuples = vec![Tuple::new("d", vec![value])];
        node.relations.insert("d".into(), tuples);
        let mut store = LogStore::new();
        let mut snapshot = SystemSnapshot::default();
        snapshot.nodes.insert("deep".into(), node);
        store.add(snapshot);
        store.to_json().expect("stores serialize")
    };
    assert!(loads(&list(3)));
    assert!(!loads(&list(64)));
}
