//! Combined analysis report and backend capability checks.
//!
//! The compiler driver runs [`analyze`] once per query and uses the report to
//! (1) reject queries a chosen backend cannot execute, and (2) surface
//! warnings (termination risks) to the user — the three goals listed in
//! Section 4 of the paper.

use raqlet_common::{RaqletError, Result};
use raqlet_dlir::{stratify, DepGraph, DlirProgram};

use crate::linearity::{linearity, Linearity};
use crate::monotonicity::{monotonicity, Monotonicity};
use crate::termination::{termination, TerminationRisk};

/// The combined result of all DLIR-level static analyses.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Linearity classification.
    pub linearity: Linearity,
    /// Mutually recursive predicate groups: the SCCs of the dependency graph
    /// with more than one member, in dependency order (empty when none).
    /// `WITH RECURSIVE` cannot express these, so SQL backends reject them.
    pub mutual_groups: Vec<Vec<String>>,
    /// Monotonicity classification.
    pub monotonicity: Monotonicity,
    /// Potential non-termination risks (warnings, not errors).
    pub termination_risks: Vec<TerminationRisk>,
    /// Number of strata when the program stratifies.
    pub stratum_count: Option<usize>,
    /// Strongly connected components of the rule-head dependency graph
    /// (the units the engine schedules), and how many of them need a
    /// fixpoint loop (self- or mutual recursion). `looping_scc_count == 0`
    /// means the whole program evaluates in single-round passes.
    pub scc_count: usize,
    /// SCCs that require iterating to fixpoint.
    pub looping_scc_count: usize,
    /// True if any relation is recursive.
    pub recursive: bool,
}

impl AnalysisReport {
    /// True if the program has mutual recursion.
    pub fn has_mutual_recursion(&self) -> bool {
        !self.mutual_groups.is_empty()
    }

    /// Human-readable one-line-per-finding summary (used by examples and the
    /// CLI-style driver).
    pub fn summary(&self) -> Vec<String> {
        let mut lines = Vec::new();
        lines.push(format!("recursive:          {}", self.recursive));
        lines.push(format!("linearity:          {:?}", self.linearity));
        lines.push(format!("mutual recursion:   {}", self.has_mutual_recursion()));
        lines.push(format!("monotonicity:       {:?}", self.monotonicity));
        lines.push(format!(
            "strata:             {}",
            self.stratum_count.map(|n| n.to_string()).unwrap_or_else(|| "n/a".into())
        ));
        lines.push(format!(
            "sccs:               {} ({} looping)",
            self.scc_count, self.looping_scc_count
        ));
        lines.push(format!("termination risks:  {}", self.termination_risks.len()));
        lines
    }
}

/// What a target backend supports. Used to reject queries early with a
/// helpful message instead of a backend-side failure.
#[derive(Debug, Clone)]
pub struct BackendCapabilities {
    /// Backend name used in error messages.
    pub name: String,
    /// Does the backend support recursion at all?
    pub supports_recursion: bool,
    /// Does it support non-linear recursion (more than one recursive atom)?
    pub supports_non_linear: bool,
    /// Does it support mutual recursion?
    pub supports_mutual_recursion: bool,
    /// Does it support stratified negation?
    pub supports_negation: bool,
    /// Does it support aggregation?
    pub supports_aggregation: bool,
    /// Does it support lattice/monotonic aggregation inside recursion
    /// (needed for unbounded shortest paths)?
    pub supports_lattice_recursion: bool,
}

impl BackendCapabilities {
    /// Capabilities of a Soufflé-style deductive engine.
    pub fn souffle_like() -> Self {
        BackendCapabilities {
            name: "souffle".into(),
            supports_recursion: true,
            supports_non_linear: true,
            supports_mutual_recursion: true,
            supports_negation: true,
            supports_aggregation: true,
            supports_lattice_recursion: true,
        }
    }

    /// Capabilities of a recursive-SQL (DuckDB/HyPer-style) backend.
    pub fn recursive_sql() -> Self {
        BackendCapabilities {
            name: "recursive-sql".into(),
            supports_recursion: true,
            supports_non_linear: false,
            supports_mutual_recursion: false,
            supports_negation: true,
            supports_aggregation: true,
            supports_lattice_recursion: true,
        }
    }

    /// Capabilities of a Cypher/graph-pattern backend.
    pub fn cypher_like() -> Self {
        BackendCapabilities {
            name: "cypher".into(),
            supports_recursion: true,
            supports_non_linear: false,
            supports_mutual_recursion: false,
            supports_negation: false,
            supports_aggregation: true,
            supports_lattice_recursion: true,
        }
    }
}

/// Run every analysis on the program.
pub fn analyze(program: &DlirProgram) -> AnalysisReport {
    let lin = linearity(program);
    let recursive = !matches!(lin, Linearity::NonRecursive);
    let graph = DepGraph::build(program);
    let mut heads: Vec<String> = Vec::new();
    for rule in &program.rules {
        if !heads.contains(&rule.head.relation) {
            heads.push(rule.head.relation.clone());
        }
    }
    let groups = graph.condense(&heads);
    let looping_scc_count = groups.iter().filter(|g| g.looping).count();
    AnalysisReport {
        linearity: lin,
        mutual_groups: graph.sccs().iter().filter(|scc| scc.len() > 1).cloned().collect(),
        monotonicity: monotonicity(program),
        termination_risks: termination(program),
        stratum_count: stratify(program).ok().map(|s| s.len()),
        scc_count: groups.len(),
        looping_scc_count,
        recursive,
    }
}

/// Check a program against a backend's capabilities, returning a
/// `BackendRejected` error describing the first unsupported feature.
pub fn check_backend(program: &DlirProgram, caps: &BackendCapabilities) -> Result<AnalysisReport> {
    let report = analyze(program);
    let reject = |reason: &str| -> Result<AnalysisReport> {
        Err(RaqletError::BackendRejected { backend: caps.name.clone(), reason: reason.to_string() })
    };

    if report.recursive && !caps.supports_recursion {
        return reject("the query is recursive but the backend does not support recursion");
    }
    if !report.linearity.is_linear_or_nonrecursive() && !caps.supports_non_linear {
        return reject("the query uses non-linear recursion");
    }
    if report.has_mutual_recursion() && !caps.supports_mutual_recursion {
        return reject("the query uses mutual recursion");
    }
    match &report.monotonicity {
        Monotonicity::NonMonotonic { reason } => {
            return Err(RaqletError::BackendRejected {
                backend: caps.name.clone(),
                reason: format!("the query is not stratifiable: {reason}"),
            })
        }
        Monotonicity::Stratified => {
            let uses_negation = program.rules.iter().any(|r| !r.negative_dependencies().is_empty());
            let uses_aggregation = program.rules.iter().any(|r| r.aggregation.is_some());
            if uses_negation && !caps.supports_negation {
                return reject("the query uses negation");
            }
            if uses_aggregation && !caps.supports_aggregation {
                return reject("the query uses aggregation");
            }
        }
        Monotonicity::LatticeMonotonic => {
            if !caps.supports_lattice_recursion {
                return reject("the query needs monotonic aggregation inside recursion");
            }
        }
        Monotonicity::Monotonic => {}
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqlet_dlir::{Atom, BodyElem, Rule};

    fn atom(name: &str, vars: &[&str]) -> BodyElem {
        BodyElem::Atom(Atom::with_vars(name, vars))
    }

    fn linear_tc() -> DlirProgram {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
        ));
        p
    }

    fn nonlinear_tc() -> DlirProgram {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("tc", &["z", "y"])],
        ));
        p
    }

    #[test]
    fn report_summarises_all_analyses() {
        let report = analyze(&linear_tc());
        assert!(report.recursive);
        assert_eq!(report.linearity, Linearity::Linear);
        assert!(!report.has_mutual_recursion());
        assert_eq!(report.monotonicity, Monotonicity::Monotonic);
        assert!(report.termination_risks.is_empty());
        assert_eq!(report.stratum_count, Some(1));
        assert_eq!(report.scc_count, 1);
        assert_eq!(report.looping_scc_count, 1);
        assert_eq!(report.summary().len(), 7);
    }

    #[test]
    fn scc_counts_distinguish_looping_from_single_round_components() {
        // tc loops; a downstream projection of it does not.
        let mut p = linear_tc();
        p.add_rule(Rule::new(Atom::with_vars("twice", &["x", "y"]), vec![atom("tc", &["x", "y"])]));
        let report = analyze(&p);
        assert_eq!(report.scc_count, 2);
        assert_eq!(report.looping_scc_count, 1);

        // A fully non-recursive program needs no fixpoint anywhere.
        let mut flat = DlirProgram::default();
        flat.add_rule(Rule::new(
            Atom::with_vars("hop2", &["x", "z"]),
            vec![atom("edge", &["x", "y"]), atom("edge", &["y", "z"])],
        ));
        let flat_report = analyze(&flat);
        assert_eq!(flat_report.scc_count, 1);
        assert_eq!(flat_report.looping_scc_count, 0);
        assert!(!flat_report.recursive);
    }

    #[test]
    fn souffle_accepts_nonlinear_recursion() {
        assert!(check_backend(&nonlinear_tc(), &BackendCapabilities::souffle_like()).is_ok());
    }

    #[test]
    fn recursive_sql_rejects_nonlinear_recursion() {
        let err =
            check_backend(&nonlinear_tc(), &BackendCapabilities::recursive_sql()).unwrap_err();
        assert!(matches!(err, RaqletError::BackendRejected { .. }));
        assert!(err.to_string().contains("non-linear"));
    }

    #[test]
    fn recursive_sql_rejects_mutual_recursion() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("even", &["x"]), vec![atom("zero", &["x"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("even", &["x"]),
            vec![atom("odd", &["y"]), atom("succ", &["y", "x"])],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("odd", &["x"]),
            vec![atom("even", &["y"]), atom("succ", &["y", "x"])],
        ));
        let err = check_backend(&p, &BackendCapabilities::recursive_sql()).unwrap_err();
        assert!(err.to_string().contains("mutual"));
    }

    #[test]
    fn self_recursion_is_not_mutual() {
        let report = analyze(&linear_tc());
        assert!(!report.has_mutual_recursion());
        assert!(report.mutual_groups.is_empty());
    }

    #[test]
    fn even_odd_is_mutual() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("even", &["x"]), vec![atom("zero", &["x"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("even", &["x"]),
            vec![atom("odd", &["y"]), atom("succ", &["y", "x"])],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("odd", &["x"]),
            vec![atom("even", &["y"]), atom("succ", &["y", "x"])],
        ));
        let report = analyze(&p);
        assert!(report.has_mutual_recursion());
        assert_eq!(report.mutual_groups.len(), 1);
        let mut g = report.mutual_groups[0].clone();
        g.sort();
        assert_eq!(g, vec!["even".to_string(), "odd".to_string()]);
    }

    #[test]
    fn non_recursive_program_has_no_groups() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("q", &["x"]), vec![atom("edge", &["x", "y"])]));
        assert!(!analyze(&p).has_mutual_recursion());
    }

    #[test]
    fn three_way_cycle_is_one_group() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("a", &["x"]), vec![atom("b", &["x"])]));
        p.add_rule(Rule::new(Atom::with_vars("b", &["x"]), vec![atom("c", &["x"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("c", &["x"]),
            vec![atom("a", &["x"]), atom("base", &["x"])],
        ));
        let groups = analyze(&p).mutual_groups;
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 3);
    }

    #[test]
    fn cypher_backend_rejects_negation() {
        let mut p = linear_tc();
        p.add_rule(Rule::new(
            Atom::with_vars("unreachable", &["x"]),
            vec![atom("node", &["x"]), BodyElem::Negated(Atom::with_vars("tc", &["s", "x"]))],
        ));
        let err = check_backend(&p, &BackendCapabilities::cypher_like()).unwrap_err();
        assert!(err.to_string().contains("negation"));
    }

    #[test]
    fn non_stratifiable_programs_are_rejected_for_every_backend() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("p", &["x"]),
            vec![atom("base", &["x"]), BodyElem::Negated(Atom::with_vars("p", &["x"]))],
        ));
        for caps in [
            BackendCapabilities::souffle_like(),
            BackendCapabilities::recursive_sql(),
            BackendCapabilities::cypher_like(),
        ] {
            assert!(check_backend(&p, &caps).is_err());
        }
    }
}
