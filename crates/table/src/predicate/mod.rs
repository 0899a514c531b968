//! Predicate language: conjunctive range / set-containment predicates,
//! their algebra (containment, intersection, bounding-box union,
//! adjacency, carving), and their bitmap evaluation.

mod clause;
#[allow(clippy::module_inception)]
mod predicate;

pub use clause::Clause;
pub use predicate::Predicate;
