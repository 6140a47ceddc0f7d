//! The E2–E8 shape tables `report` prints, pinned as one golden text: the
//! paper's figures as exact counts. A change that moves one of them moves
//! this file, and says why.
//!
//! To regenerate after an intended change:
//! `cargo run --release -p nettrails-bench --bin report > crates/bench/tests/golden/report.txt`

#[test]
fn report_prints_the_golden_text() {
    let golden = include_str!("golden/report.txt");
    let text = nettrails_bench::report_text();
    for (i, (got, want)) in text.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "line {} of the report moved", i + 1);
    }
    assert_eq!(text, golden);
}
