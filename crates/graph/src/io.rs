//! Parsing and writing graphs in the formats used by the paper's datasets.
//!
//! Three textual formats are supported:
//!
//! * **PACE** `.gr` (the PACE 2016 treewidth competition format): a
//!   `p tw <n> <m>` header followed by one `u v` line per edge, 1-based.
//! * **DIMACS** `.col` (graph-coloring instances): a `p edge <n> <m>` header
//!   and `e u v` edge lines, 1-based.
//! * **Edge list**: `u v` per line, 0-based, vertices inferred from the
//!   maximum index (an optional first line `n <count>` fixes the count).
//!
//! Comments (`c …`, `#…`, `%…`) and blank lines are ignored everywhere.

use crate::graph::Graph;
use crate::vertexset::Vertex;
use std::fmt::Write as _;

/// Errors produced while parsing a graph file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The header line (`p …`) is missing or malformed.
    BadHeader(String),
    /// An edge line could not be parsed.
    BadEdge {
        /// 1-based line number of the offending line.
        line_number: usize,
        /// The offending line text.
        line: String,
    },
    /// An edge endpoint is outside the declared vertex range.
    VertexOutOfRange {
        /// 1-based line number of the offending line.
        line_number: usize,
        /// The out-of-range vertex as written in the file.
        vertex: usize,
        /// The declared number of vertices.
        n: usize,
        /// The first vertex index of the format: 1 for PACE and DIMACS,
        /// 0 for edge lists. The valid indices are `first..first + n`.
        first: usize,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader(line) => write!(f, "malformed or missing header: {line:?}"),
            ParseError::BadEdge { line_number, line } => {
                write!(f, "malformed edge on line {line_number}: {line:?}")
            }
            ParseError::VertexOutOfRange {
                line_number,
                vertex,
                n: 0,
                ..
            } => write!(
                f,
                "vertex {vertex} on line {line_number} is outside the declared range: \
                 the graph has no vertices"
            ),
            ParseError::VertexOutOfRange {
                line_number,
                vertex,
                n,
                first,
            } => write!(
                f,
                "vertex {vertex} on line {line_number} is outside the declared range {first}..={}",
                first + n - 1
            ),
        }
    }
}

impl std::error::Error for ParseError {}

fn is_comment(line: &str) -> bool {
    let t = line.trim_start();
    t.is_empty()
        || t.starts_with('c') && t[1..].starts_with([' ', '\t'])
        || t == "c"
        || t.starts_with('#')
        || t.starts_with('%')
}

/// Parses a PACE 2016 `.gr` file (`p tw n m`, 1-based `u v` edge lines).
pub fn parse_pace(input: &str) -> Result<Graph, ParseError> {
    let mut n: Option<usize> = None;
    let mut g: Option<Graph> = None;
    for (idx, raw) in input.lines().enumerate() {
        let line_number = idx + 1;
        if is_comment(raw) {
            continue;
        }
        let line = raw.trim();
        if line.starts_with("p ") || line.starts_with("p\t") {
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.len() < 4 || parts[1] != "tw" {
                return Err(ParseError::BadHeader(line.to_string()));
            }
            // Vertex ids are `u32`: a count that does not fit is malformed.
            let declared = parts[2]
                .parse::<u32>()
                .map_err(|_| ParseError::BadHeader(line.to_string()))?;
            n = Some(declared as usize);
            g = Some(Graph::new(declared));
            continue;
        }
        let graph = g
            .as_mut()
            .ok_or_else(|| ParseError::BadHeader(String::from("edge before header")))?;
        let n = n.expect("n set together with g");
        let mut parts = line.split_whitespace();
        let (u, v) = match (parts.next(), parts.next()) {
            (Some(a), Some(b)) => (
                a.parse::<usize>().map_err(|_| ParseError::BadEdge {
                    line_number,
                    line: line.to_string(),
                })?,
                b.parse::<usize>().map_err(|_| ParseError::BadEdge {
                    line_number,
                    line: line.to_string(),
                })?,
            ),
            _ => {
                return Err(ParseError::BadEdge {
                    line_number,
                    line: line.to_string(),
                })
            }
        };
        for &x in &[u, v] {
            if x == 0 || x > n {
                return Err(ParseError::VertexOutOfRange {
                    line_number,
                    vertex: x,
                    n,
                    first: 1,
                });
            }
        }
        if u != v {
            graph.add_edge((u - 1) as Vertex, (v - 1) as Vertex);
        }
    }
    g.ok_or_else(|| ParseError::BadHeader(String::from("no header found")))
}

/// Writes a graph in PACE 2016 `.gr` format.
pub fn write_pace(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "p tw {} {}", g.n(), g.m());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "{} {}", u + 1, v + 1);
    }
    out
}

/// Parses a DIMACS `.col` file (`p edge n m`, `e u v` edge lines, 1-based).
pub fn parse_dimacs(input: &str) -> Result<Graph, ParseError> {
    let mut n: Option<usize> = None;
    let mut g: Option<Graph> = None;
    for (idx, raw) in input.lines().enumerate() {
        let line_number = idx + 1;
        if is_comment(raw) {
            continue;
        }
        let line = raw.trim();
        if line.starts_with("p ") || line.starts_with("p\t") {
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.len() < 4 || (parts[1] != "edge" && parts[1] != "edges" && parts[1] != "col") {
                return Err(ParseError::BadHeader(line.to_string()));
            }
            // Vertex ids are `u32`: a count that does not fit is malformed.
            let declared = parts[2]
                .parse::<u32>()
                .map_err(|_| ParseError::BadHeader(line.to_string()))?;
            n = Some(declared as usize);
            g = Some(Graph::new(declared));
            continue;
        }
        if let Some(rest) = line.strip_prefix('e') {
            let graph = g
                .as_mut()
                .ok_or_else(|| ParseError::BadHeader(String::from("edge before header")))?;
            let n = n.expect("n set together with g");
            let mut parts = rest.split_whitespace();
            let (u, v) = match (parts.next(), parts.next()) {
                (Some(a), Some(b)) => (
                    a.parse::<usize>().map_err(|_| ParseError::BadEdge {
                        line_number,
                        line: line.to_string(),
                    })?,
                    b.parse::<usize>().map_err(|_| ParseError::BadEdge {
                        line_number,
                        line: line.to_string(),
                    })?,
                ),
                _ => {
                    return Err(ParseError::BadEdge {
                        line_number,
                        line: line.to_string(),
                    })
                }
            };
            for &x in &[u, v] {
                if x == 0 || x > n {
                    return Err(ParseError::VertexOutOfRange {
                        line_number,
                        vertex: x,
                        n,
                        first: 1,
                    });
                }
            }
            if u != v {
                graph.add_edge((u - 1) as Vertex, (v - 1) as Vertex);
            }
        }
    }
    g.ok_or_else(|| ParseError::BadHeader(String::from("no header found")))
}

/// Writes a graph in DIMACS `.col` format (`p edge n m`, 1-based `e u v`
/// edge lines) — the counterpart of [`parse_dimacs`].
pub fn write_dimacs(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "p edge {} {}", g.n(), g.m());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "e {} {}", u + 1, v + 1);
    }
    out
}

/// Parses a plain 0-based edge list. An optional leading `n <count>` line
/// declares the vertex count; otherwise it is inferred as `max index + 1`.
pub fn parse_edge_list(input: &str) -> Result<Graph, ParseError> {
    let mut declared_n: Option<usize> = None;
    // Each edge with the line it was read from, for the range check below.
    let mut edges: Vec<(usize, usize, usize)> = Vec::new();
    let mut max_v = 0usize;
    for (idx, raw) in input.lines().enumerate() {
        let line_number = idx + 1;
        if is_comment(raw) {
            continue;
        }
        let line = raw.trim();
        if let Some(rest) = line.strip_prefix("n ") {
            declared_n = Some(
                rest.trim()
                    .parse::<u32>()
                    .map_err(|_| ParseError::BadHeader(line.to_string()))? as usize,
            );
            continue;
        }
        let mut parts = line.split_whitespace();
        let (u, v) = match (parts.next(), parts.next()) {
            (Some(a), Some(b)) => (
                a.parse::<usize>().map_err(|_| ParseError::BadEdge {
                    line_number,
                    line: line.to_string(),
                })?,
                b.parse::<usize>().map_err(|_| ParseError::BadEdge {
                    line_number,
                    line: line.to_string(),
                })?,
            ),
            _ => {
                return Err(ParseError::BadEdge {
                    line_number,
                    line: line.to_string(),
                })
            }
        };
        max_v = max_v.max(u).max(v);
        edges.push((u, v, line_number));
    }
    // Vertex ids are `u32`: an index whose `max + 1` does not fit is out of
    // range of the largest count a graph can have.
    let n = match declared_n {
        Some(n) => n,
        None if edges.is_empty() => 0,
        None => max_v.saturating_add(1).min(u32::MAX as usize),
    };
    // The range is known only once every line is read: an `n` line may
    // follow the edges.
    for &(u, v, line_number) in &edges {
        if u >= n || v >= n {
            return Err(ParseError::VertexOutOfRange {
                line_number,
                vertex: u.max(v),
                n,
                first: 0,
            });
        }
    }
    let mut g = Graph::new(n as u32);
    for (u, v, _) in edges {
        if u != v {
            g.add_edge(u as Vertex, v as Vertex);
        }
    }
    Ok(g)
}

/// Writes a graph as a 0-based edge list with an `n <count>` header.
pub fn write_edge_list(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "n {}", g.n());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "{u} {v}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pace_roundtrip() {
        let input = "c a comment\np tw 4 3\n1 2\n2 3\n3 4\n";
        let g = parse_pace(input).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2) && g.has_edge(2, 3));
        let written = write_pace(&g);
        let g2 = parse_pace(&written).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn pace_errors() {
        assert!(matches!(parse_pace("1 2\n"), Err(ParseError::BadHeader(_))));
        assert!(matches!(
            parse_pace("p tw 2 1\n1 5\n"),
            Err(ParseError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            parse_pace("p tw 2 1\nfoo bar\n"),
            Err(ParseError::BadEdge { .. })
        ));
        assert!(matches!(parse_pace(""), Err(ParseError::BadHeader(_))));
    }

    #[test]
    fn dimacs_parse() {
        let input = "c coloring instance\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n";
        let g = parse_dimacs(input).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn dimacs_roundtrip() {
        let input = "p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n";
        let g = parse_dimacs(input).unwrap();
        let written = write_dimacs(&g);
        let g2 = parse_dimacs(&written).unwrap();
        assert_eq!(g, g2);
        assert!(written.starts_with("p edge 4 3"));
        assert!(written.contains("e 1 2"));
    }

    #[test]
    fn dimacs_self_loops_and_duplicates_ignored() {
        let input = "p edge 3 4\ne 1 1\ne 1 2\ne 2 1\ne 2 3\n";
        let g = parse_dimacs(input).unwrap();
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn edge_list_roundtrip() {
        let input = "# comment\n0 1\n1 2\n";
        let g = parse_edge_list(input).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
        let written = write_edge_list(&g);
        let g2 = parse_edge_list(&written).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_with_declared_n() {
        let input = "n 10\n0 1\n";
        let g = parse_edge_list(input).unwrap();
        assert_eq!(g.n(), 10);
        assert_eq!(g.m(), 1);
        // Declared n too small is an error.
        assert!(parse_edge_list("n 2\n0 5\n").is_err());
    }

    #[test]
    fn empty_edge_list() {
        let g = parse_edge_list("").unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
    }
}
