//! What the executor runs: compiled expression programs ([`compile`]), the
//! batch kernels heap scans drive them through ([`vector`]) and the sinks
//! its scans and joins push their rows into (`sink`: the streaming
//! aggregator, the ORDER BY / Top-N buffer, plain row buffers).
//!
//! The plan finalizer compiles every predicate, join key, projection, group
//! key, aggregate argument and sort key into a [`compile::CompiledExpr`]; an
//! expression that does not compile fails the plan.  The executor evaluates
//! nothing else: once-per-statement expressions (TVF arguments, seek
//! bounds) and the DML statements' values compile too, when they run.

pub mod compile;
pub(crate) mod sink;
pub mod vector;
