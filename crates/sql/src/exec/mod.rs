//! What the executor runs: compiled expression programs ([`compile`]), the
//! batch kernels heap scans drive them through ([`vector`]) and the sinks
//! its scans and joins push their rows into (`sink`: the streaming
//! aggregator, the ORDER BY / Top-N buffer, plain row buffers).
//!
//! The plan finalizer compiles every predicate, join key, projection, group
//! key, aggregate argument and sort key into a [`compile::CompiledExpr`]; an
//! expression that does not compile fails the plan.  The executor evaluates
//! nothing else per row.  The tree-walking interpreter in [`crate::expr`]
//! stays as the reference `compiled_equivalence.rs` tests programs against,
//! and evaluates the once-per-statement expressions (TVF arguments, seek
//! bounds) and DML row predicates.

pub mod compile;
pub(crate) mod sink;
pub mod vector;
