//! The parser against its own writer, against escapes the writer never
//! emits, against hostile input, and against the clock: decoding must cost
//! what the bytes cost.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Every escape the writer has, control characters, quotes, and UTF-8 of
/// every encoded length up to the last code point on either side of the
/// surrogate gap.
const ALPHABET: &[char] = &[
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{8}',
    '\u{c}',
    '\0',
    '\u{1f}',
    '\u{7f}',
    'a',
    'u',
    '0',
    ' ',
    'é',
    'ß',
    '中',
    '€',
    '\u{d7ff}',
    '\u{e000}',
    '\u{ffff}',
    '😀',
    '\u{10ffff}',
];

fn text() -> impl Strategy<Value = String> {
    collection::vec(0usize..ALPHABET.len(), 0..40)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

/// `s` as a JSON string in which every character is a `\uXXXX` escape
/// (a surrogate pair above the basic plane).
fn all_escaped(s: &str) -> String {
    let mut json = String::from("\"");
    for unit in s.encode_utf16() {
        json.push_str(&format!("\\u{unit:04x}"));
    }
    json.push('"');
    json
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn strings_round_trip_bare_nested_as_keys_and_pretty(a in text(), b in text()) {
        let json = serde_json::to_string(&a).unwrap();
        prop_assert_eq!(&serde_json::from_str::<String>(&json).unwrap(), &a);

        let doc: BTreeMap<String, Vec<String>> =
            BTreeMap::from([(a.clone(), vec![b.clone(), a.clone()]), (b.clone(), vec![])]);
        let compact = serde_json::to_string(&doc).unwrap();
        prop_assert_eq!(&serde_json::from_str::<BTreeMap<String, Vec<String>>>(&compact).unwrap(), &doc);
        let pretty = serde_json::to_string_pretty(&doc).unwrap();
        prop_assert_eq!(&serde_json::from_str::<BTreeMap<String, Vec<String>>>(&pretty).unwrap(), &doc);
    }

    #[test]
    fn unicode_escapes_decode_to_the_same_text(a in text()) {
        prop_assert_eq!(&serde_json::from_str::<String>(&all_escaped(&a)).unwrap(), &a);
    }
}

#[test]
fn escapes_the_writer_never_emits_still_decode() {
    let s: String = serde_json::from_str(r#""a\/b\b\fé中""#).unwrap();
    assert_eq!(s, "a/b\u{8}\u{c}é中");
}

fn error_of(json: &str) -> String {
    serde_json::from_str::<Vec<String>>(json)
        .unwrap_err()
        .to_string()
}

#[test]
fn surrogate_pairs_decode_and_lone_surrogates_are_errors() {
    let s: String = serde_json::from_str(r#""\ud83d\ude00 \uD83D\uDE00""#).unwrap();
    assert_eq!(s, "😀 😀");
    for lone in [
        r#"["\ud83d"]"#,
        r#"["\ud83d x"]"#,
        r#"["\ud83d\n"]"#,
        r#"["\ud83dA"]"#,
        r#"["\ud83d\ud83d"]"#,
        r#"["\ude00"]"#,
    ] {
        assert!(
            error_of(lone).contains("lone surrogate"),
            "{lone}: {}",
            error_of(lone)
        );
    }
}

#[test]
fn unicode_escapes_take_exactly_four_hex_digits() {
    for bad in [r#"["\u+041"]"#, r#"["\u00g1"]"#, r#"["\u 041"]"#] {
        assert_eq!(error_of(bad), "JSON error: bad \\u escape", "{bad}");
    }
}

#[test]
fn nesting_is_limited_to_128_levels() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let tree: serde_json::Result<Tree> = serde_json::from_str(&nested(128));
    assert!(tree.is_ok());
    let err = serde_json::from_str::<Tree>(&nested(129)).unwrap_err();
    assert!(err.to_string().contains("recursion limit"), "{err}");
    // Far past the limit, unclosed, and through objects: an error, not a
    // stack overflow.
    let hostile = "[{\"k\":".repeat(200_000);
    let err = serde_json::from_str::<Tree>(&hostile).unwrap_err();
    assert!(err.to_string().contains("recursion limit"), "{err}");
}

/// Any document, kept as the facade's tree.
#[derive(Debug)]
struct Tree(#[allow(dead_code)] serde::Content);

impl serde::Deserialize for Tree {
    fn deserialize<'de, D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.into_content().map(Tree)
    }
}

#[test]
fn every_truncation_of_a_document_is_an_error_not_a_panic() {
    let doc = r#"{"a":[true,false,null,-1.5e3,"xé😀\n"],"b":{"c":"é😀"}}"#;
    assert!(serde_json::from_str::<Tree>(doc).is_ok());
    for cut in (0..doc.len()).filter(|i| doc.is_char_boundary(*i)) {
        assert!(
            serde_json::from_str::<Tree>(&doc[..cut]).is_err(),
            "prefix of {cut} bytes parsed"
        );
    }
    for literal in ["n", "nul", "t", "tru", "f", "fals", "[tru", "[nul"] {
        assert!(serde_json::from_str::<Tree>(literal).is_err(), "{literal}");
    }
}

/// The parser used to re-validate the rest of the document at every
/// character of every string, so a 2 MB document took minutes. The bound is
/// far from a linear parser's time (well under a second, unoptimised).
#[test]
fn a_two_megabyte_string_heavy_document_decodes_in_linear_time() {
    let row = r#"{"relation":"path","values":["n1","n2","é中😀 \"quoted\"\n",[1,2,3]]}"#;
    let rows = 2 * 1024 * 1024 / row.len() + 1;
    let doc = format!("[{}]", vec![row; rows].join(","));
    assert!(doc.len() >= 2 * 1024 * 1024);
    let started = Instant::now();
    let parsed: Vec<BTreeMap<String, Tree>> = serde_json::from_str(&doc).unwrap();
    let took = started.elapsed();
    assert_eq!(parsed.len(), rows);
    assert!(took < Duration::from_secs(5), "decode took {took:?}");
}
