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

/// An out-of-range edge is reported on the line it was read from, with the
/// range in the format's own numbering: 0-based for edge lists, 1-based
/// for PACE and DIMACS.
#[test]
fn out_of_range_vertices_name_their_line_and_range() {
    let err = parse_edge_list("# a comment\nn 3\n0 1\n1 7\n").unwrap_err();
    assert_eq!(
        err,
        ParseError::VertexOutOfRange {
            line_number: 4,
            vertex: 7,
            n: 3,
            first: 0,
        }
    );
    assert_eq!(
        err.to_string(),
        "vertex 7 on line 4 is outside the declared range 0..=2"
    );
    // A count declared after the edges still bounds them.
    let late = parse_edge_list("0 1\n\n2 3\nn 3\n").unwrap_err();
    assert!(matches!(
        late,
        ParseError::VertexOutOfRange {
            line_number: 3,
            vertex: 3,
            ..
        }
    ));
    let pace = parse_pace("p tw 3 2\nc a comment\n1 2\n2 4\n").unwrap_err();
    assert_eq!(
        pace.to_string(),
        "vertex 4 on line 4 is outside the declared range 1..=3"
    );
    let dimacs = parse_dimacs("p edge 3 1\ne 0 1\n").unwrap_err();
    assert_eq!(
        dimacs.to_string(),
        "vertex 0 on line 2 is outside the declared range 1..=3"
    );
    let empty = parse_edge_list("n 0\n0 0\n").unwrap_err();
    assert_eq!(
        empty.to_string(),
        "vertex 0 on line 2 is outside the declared range: the graph has no vertices"
    );
}

#[test]
fn empty_and_isolated_graphs_roundtrip() {
    for g in [Graph::new(0), Graph::new(5)] {
        assert_eq!(parse_pace(&write_pace(&g)).unwrap(), g);
        assert_eq!(parse_dimacs(&write_dimacs(&g)).unwrap(), g);
        assert_eq!(parse_edge_list(&write_edge_list(&g)).unwrap(), g);
    }
}
