//! `mtr-pmc`: potential maximal cliques.
//!
//! A potential maximal clique (PMC) of `G` is a vertex set that appears as a
//! maximal clique of some minimal triangulation of `G` — equivalently, as a
//! bag of some proper tree decomposition. The Bouchitté–Todinca optimizer
//! (and therefore the paper's `MinTriang` / `RankedTriang`) needs the full
//! list `PMC(G)`.
//!
//! * [`test`](mod@test) — the polynomial PMC test (no full component + cliquish);
//! * [`enumerate`] — the incremental "one more vertex" enumeration, with a
//!   bounded-size variant for the bounded-width algorithms;
//! * [`brute`] — exhaustive subset enumeration used to cross-validate the
//!   incremental algorithm in tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute;
pub mod enumerate;
pub mod test;

pub use brute::potential_maximal_cliques_bruteforce;
pub use enumerate::{
    potential_maximal_cliques, potential_maximal_cliques_bounded, potential_maximal_cliques_until,
    PmcDeadlineExceeded, PmcEnumeration,
};
pub use test::is_potential_maximal_clique;
