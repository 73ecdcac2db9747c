//! Termination analysis.
//!
//! Bottom-up evaluation of a Datalog program terminates when the set of
//! derivable facts is finite. Two DLIR features can break that:
//!
//! * *value invention*: arithmetic in a recursive rule (e.g. `l = l0 + 1`)
//!   creates values not present in the EDBs, so the Herbrand universe is no
//!   longer finite. This is fine if the new value (or an operand of the
//!   arithmetic) is bounded by a comparison against a constant in the same
//!   rule, or if the relation carries a `@min`/`@max` lattice
//!   annotation (distances can only improve, so the fixpoint still converges
//!   on cyclic data);
//! * *bag semantics*: not applicable here — all Raqlet relations are sets.
//!
//! The analysis is conservative: it reports *risks*, mirroring the paper's
//! goal of warning users that "their queries may not terminate under certain
//! conditions, for example over cyclic data".

use raqlet_dlir::{BodyElem, CmpOp, DepGraph, DlExpr, DlirProgram, LatticeMerge};

/// One potential non-termination risk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TerminationRisk {
    /// Index of the offending rule in `DlirProgram::rules`.
    pub rule_index: usize,
    /// Human-readable explanation.
    pub reason: String,
}

/// Analyse a program for non-termination risks. An empty result means the
/// analysis can prove termination (finite EDB ⇒ finite fixpoint).
pub fn termination(program: &DlirProgram) -> Vec<TerminationRisk> {
    let graph = DepGraph::build(program);
    let mut risks = Vec::new();

    for (idx, rule) in program.rules.iter().enumerate() {
        let head = &rule.head.relation;
        if !graph.is_recursive(head) {
            continue;
        }
        // Lattice-annotated relations converge by subsumption.
        if !matches!(program.lattice_for(head), LatticeMerge::Set) {
            continue;
        }

        // Does the rule invent values via arithmetic? Collect the variables
        // of those constraints: the assigned variable and the operands.
        let mut invented = Vec::new();
        for elem in &rule.body {
            if let BodyElem::Constraint { lhs, rhs, .. } = elem {
                if matches!(lhs, DlExpr::Arith { .. }) || matches!(rhs, DlExpr::Arith { .. }) {
                    lhs.variables(&mut invented);
                    rhs.variables(&mut invented);
                }
            }
        }
        if invented.is_empty() {
            continue;
        }

        // A bound on one of those variables (a non-equality comparison of an
        // expression over it against a constant, in the same rule) restores
        // termination. A comparison on an unrelated variable does not.
        let has_bound = rule.body.iter().any(|b| match b {
            BodyElem::Constraint { op, lhs, rhs } if !matches!(op, CmpOp::Eq) => {
                let bounded = match (lhs, rhs) {
                    (DlExpr::Const(_), e) | (e, DlExpr::Const(_)) => e,
                    _ => return false,
                };
                let mut vars = Vec::new();
                bounded.variables(&mut vars);
                vars.iter().any(|v| invented.contains(v))
            }
            _ => false,
        });
        if !has_bound {
            risks.push(TerminationRisk {
                rule_index: idx,
                reason: format!(
                    "recursive rule `{}` performs arithmetic over an unbounded domain; it may not \
                     terminate on cyclic data",
                    rule
                ),
            });
        }
    }
    risks
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqlet_dlir::{ArithOp, Atom, BodyElem, Rule};

    fn atom(name: &str, vars: &[&str]) -> BodyElem {
        BodyElem::Atom(Atom::with_vars(name, vars))
    }

    fn plus_one(out: &str, inp: &str) -> BodyElem {
        BodyElem::eq(
            DlExpr::var(out),
            DlExpr::Arith {
                op: ArithOp::Add,
                lhs: Box::new(DlExpr::var(inp)),
                rhs: Box::new(DlExpr::int(1)),
            },
        )
    }

    #[test]
    fn plain_tc_terminates() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
        ));
        assert!(termination(&p).is_empty());
    }

    #[test]
    fn unbounded_counter_recursion_is_flagged() {
        // dist(s, d, l) :- dist(s, m, l0), edge(m, d), l = l0 + 1.
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("dist", &["s", "d", "l"]),
            vec![atom("edge", &["s", "d"]), BodyElem::eq(DlExpr::var("l"), DlExpr::int(1))],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("dist", &["s", "d", "l"]),
            vec![atom("dist", &["s", "m", "l0"]), atom("edge", &["m", "d"]), plus_one("l", "l0")],
        ));
        let risks = termination(&p);
        assert_eq!(risks.len(), 1);
        assert_eq!(risks[0].rule_index, 1);
        assert!(risks[0].reason.contains("may not"));
    }

    #[test]
    fn bounded_counter_recursion_is_fine() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("dist", &["s", "d", "l"]),
            vec![atom("edge", &["s", "d"]), BodyElem::eq(DlExpr::var("l"), DlExpr::int(1))],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("dist", &["s", "d", "l"]),
            vec![
                atom("dist", &["s", "m", "l0"]),
                atom("edge", &["m", "d"]),
                plus_one("l", "l0"),
                BodyElem::Constraint { op: CmpOp::Lt, lhs: DlExpr::var("l0"), rhs: DlExpr::int(5) },
            ],
        ));
        assert!(termination(&p).is_empty());
    }

    #[test]
    fn bound_on_an_unrelated_variable_is_not_a_bound() {
        // dist(s, d, l) :- dist(s, m, l0), edge(m, d), l = l0 + 1, d < 5.
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("dist", &["s", "d", "l"]),
            vec![atom("edge", &["s", "d"]), BodyElem::eq(DlExpr::var("l"), DlExpr::int(1))],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("dist", &["s", "d", "l"]),
            vec![
                atom("dist", &["s", "m", "l0"]),
                atom("edge", &["m", "d"]),
                plus_one("l", "l0"),
                BodyElem::Constraint { op: CmpOp::Lt, lhs: DlExpr::var("d"), rhs: DlExpr::int(5) },
            ],
        ));
        let risks = termination(&p);
        assert_eq!(risks.len(), 1);
        assert_eq!(risks[0].rule_index, 1);

        // Bounding the assigned variable itself, constant on the left, is a
        // bound.
        p.rules[1].body[3] =
            BodyElem::Constraint { op: CmpOp::Gt, lhs: DlExpr::int(5), rhs: DlExpr::var("l") };
        assert!(termination(&p).is_empty());
    }

    #[test]
    fn lattice_annotated_distance_recursion_is_fine() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("dist", &["s", "d", "l"]),
            vec![atom("edge", &["s", "d"]), BodyElem::eq(DlExpr::var("l"), DlExpr::int(1))],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("dist", &["s", "d", "l"]),
            vec![atom("dist", &["s", "m", "l0"]), atom("edge", &["m", "d"]), plus_one("l", "l0")],
        ));
        p.set_lattice("dist", raqlet_dlir::LatticeMerge::MinOnColumn(2));
        assert!(termination(&p).is_empty());
    }

    #[test]
    fn arithmetic_in_non_recursive_rules_is_fine() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x", "y"]),
            vec![atom("edge", &["x", "z"]), plus_one("y", "z")],
        ));
        assert!(termination(&p).is_empty());
    }
}
