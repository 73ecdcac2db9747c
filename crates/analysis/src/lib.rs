//! # raqlet-analysis
//!
//! Static analyses over DLIR (Section 4 of the paper). Every analysis is
//! implemented once, at the DLIR level, independent of the source query
//! language:
//!
//! * [`mod@linearity`] — is every recursive rule *linear* (at most one recursive
//!   atom in its body)? Backends limited to recursive CTEs require this.
//! * [`mod@monotonicity`] — is the program monotonic under set inclusion
//!   (no negation, no aggregation over a recursive predicate)?
//! * [`mod@termination`] — may the program fail to terminate (value-inventing
//!   arithmetic in recursive rules without a bound or a lattice annotation)?
//! * [`report`] — a combined [`AnalysisReport`] (including the groups of
//!   mutually recursive predicates, which RDBMS backends reject) plus
//!   backend capability checks used by the compiler driver to reject or
//!   warn early.
//!
//! None of these works out SCCs, recursion or output reachability itself:
//! [`raqlet_dlir::DepGraph`] computes the SCCs once per program and owns
//! those facts, and every analysis and lint here reads them from it.
//!
//! On top of these sits **raqcheck**, the static-analysis and lint layer:
//!
//! * [`dataflow`] — abstract interpretation over DLIR: per-column
//!   type/constant lattice inference, emptiness propagation, reachability;
//! * [`lints`] — the RAQ001–RAQ008 lint suite (unused relations,
//!   never-firing rules, cartesian products, type mismatches, duplicate
//!   rules, magic-sets-defeating outputs, stats-seeded plan advisories);
//! * [`stats`] — [`EdbStats`] collected from a live database, feeding the
//!   plan lints and the future cost model;
//! * [`raqcheck`] — the [`RaqCheck`] driver combining DLIR validation and
//!   the lint suite under a configurable severity policy.
//!
//! See `docs/diagnostics.md` for the full diagnostic code table.

// Robustness: non-test code must not unwrap/expect its way into a panic on a
// reachable path — every justified exception carries an `#[allow]` with its
// invariant spelled out. Tests keep the ergonomic forms.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod dataflow;
pub mod linearity;
pub mod lints;
pub mod monotonicity;
pub mod raqcheck;
pub mod report;
pub mod stats;
pub mod termination;

pub use dataflow::{analyze_dataflow, AbsVal, Dataflow, DeadReason, TypeConflict};
pub use linearity::{is_linear, linearity, Linearity};
pub use monotonicity::{is_monotonic, monotonicity, Monotonicity};
pub use raqcheck::RaqCheck;
pub use report::{analyze, check_backend, AnalysisReport, BackendCapabilities};
pub use stats::{EdbStats, RelationStats};
pub use termination::{termination, TerminationRisk};

// Re-export the diagnostic currency so analyzer users need only this crate.
pub use raqlet_common::diag::{DiagCode, Diagnostic, Severity, SeverityConfig};
