//! Round-trip property tests for the three graph serialization formats:
//! `parse(write(g)) == g` for PACE `.gr`, DIMACS `.col`, and plain edge
//! lists, on arbitrary graphs (including disconnected ones and graphs with
//! isolated trailing vertices, which only survive thanks to the headers).

mod common;

use common::arbitrary_graph;
use mtr_graph::io::{
    parse_dimacs, parse_edge_list, parse_pace, write_dimacs, write_edge_list, write_pace,
    ParseError,
};
use mtr_graph::Graph;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pace_roundtrip(g in arbitrary_graph(1, 24)) {
        let written = write_pace(&g);
        let parsed = parse_pace(&written).expect("own output must parse");
        prop_assert_eq!(parsed, g);
    }

    #[test]
    fn dimacs_roundtrip(g in arbitrary_graph(1, 24)) {
        let written = write_dimacs(&g);
        let parsed = parse_dimacs(&written).expect("own output must parse");
        prop_assert_eq!(parsed, g);
    }

    #[test]
    fn edge_list_roundtrip(g in arbitrary_graph(1, 24)) {
        let written = write_edge_list(&g);
        let parsed = parse_edge_list(&written).expect("own output must parse");
        prop_assert_eq!(parsed, g);
    }

    /// Cross-format: PACE and DIMACS encode the same graph.
    #[test]
    fn pace_and_dimacs_agree(g in arbitrary_graph(1, 16)) {
        let via_pace = parse_pace(&write_pace(&g)).unwrap();
        let via_dimacs = parse_dimacs(&write_dimacs(&g)).unwrap();
        prop_assert_eq!(via_pace, via_dimacs);
    }

    /// A vertex count or index of 2^32 or more, in a header or an edge
    /// line, is a typed error in every format, never a panic. (Counts
    /// between about 10^4 and 2^32 parse, and allocate n² bits.)
    #[test]
    fn vertex_tokens_past_u32_are_errors(big in (1u64 << 32)..=u64::MAX) {
        prop_assert!(parse_pace(&format!("p tw {big} 1\n1 2\n")).is_err());
        prop_assert!(parse_pace(&format!("p tw 2 1\n1 {big}\n")).is_err());
        prop_assert!(parse_dimacs(&format!("p edge {big} 1\ne 1 2\n")).is_err());
        prop_assert!(parse_dimacs(&format!("p edge 2 1\ne {big} 1\n")).is_err());
        prop_assert!(parse_edge_list(&format!("n {big}\n0 1\n")).is_err());
        prop_assert!(parse_edge_list(&format!("n 2\n0 {big}\n")).is_err());
        prop_assert!(parse_edge_list(&format!("{big} 0\n")).is_err());
    }
}

/// Vertex counts and indices past `u32` must not be cut to `u32` after the
/// range checks: each of these inputs is a typed error, not a panic or a
/// truncated graph.
#[test]
fn counts_past_u32_are_typed_errors() {
    let huge_pace = "p tw 4294967297 1\n1 2\n";
    assert!(matches!(
        parse_pace(huge_pace),
        Err(ParseError::BadHeader(_))
    ));
    let huge_dimacs = "p edge 4294967297 1\ne 1 2\n";
    assert!(matches!(
        parse_dimacs(huge_dimacs),
        Err(ParseError::BadHeader(_))
    ));
    let huge_edge_list = "n 4294967297\n0 1\n";
    assert!(matches!(
        parse_edge_list(huge_edge_list),
        Err(ParseError::BadHeader(_))
    ));
    assert!(matches!(
        parse_edge_list("0 4294967296\n"),
        Err(ParseError::VertexOutOfRange {
            vertex: 4294967296,
            ..
        })
    ));
    assert!(matches!(
        parse_pace("p tw 4294967296 0\n"),
        Err(ParseError::BadHeader(_))
    ));
}

#[test]
fn empty_and_isolated_graphs_roundtrip() {
    for g in [Graph::new(0), Graph::new(5)] {
        assert_eq!(parse_pace(&write_pace(&g)).unwrap(), g);
        assert_eq!(parse_dimacs(&write_dimacs(&g)).unwrap(), g);
        assert_eq!(parse_edge_list(&write_edge_list(&g)).unwrap(), g);
    }
}
