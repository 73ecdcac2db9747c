//! Predicate dependency graph: the one fact base for SCCs, recursion and
//! reachability.
//!
//! The dependency graph has one vertex per relation; there is an edge
//! `p → q` when some rule with head `p` mentions `q` in its body. Edges are
//! tagged with the polarity (positive / negated) and with whether the rule
//! also aggregates.
//!
//! [`DepGraph::build`] runs Tarjan's algorithm once and stores the strongly
//! connected components with a relation → component index. Every other
//! crate asks this graph, and only this graph, which relations share an SCC
//! ([`DepGraph::scc_of`]), which are recursive ([`DepGraph::is_recursive`]),
//! how a relation set condenses into evaluation groups
//! ([`DepGraph::condense`]) and which relations an output depends on
//! ([`DepGraph::reachable_from`]). Stratification, linearity, mutual
//! recursion, magic sets, dead-rule elimination, the lints, the SQL lowering
//! and the Datalog engine's SCC schedule all read these lookups.

use std::collections::{BTreeMap, BTreeSet};

use crate::ir::DlirProgram;

/// Polarity / kind of a dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Head depends on a positive body atom.
    Positive,
    /// Head depends on a negated body atom.
    Negative,
    /// Head depends on a body atom through an aggregation.
    Aggregated,
}

/// The predicate dependency graph of a DLIR program, with its strongly
/// connected components.
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    /// Adjacency: for each head relation, the relations it depends on.
    edges: BTreeMap<String, Vec<(String, DepKind)>>,
    /// All relation names appearing anywhere (heads and bodies).
    nodes: BTreeSet<String>,
    /// Strongly connected components in dependency order.
    sccs: Vec<Vec<String>>,
    /// Index into `sccs` of the component holding each node.
    scc_index: BTreeMap<String, usize>,
}

impl DepGraph {
    /// Build the dependency graph of a program and compute its SCCs.
    pub fn build(program: &DlirProgram) -> Self {
        let mut graph = DepGraph::default();
        for rule in &program.rules {
            let head = rule.head.relation.clone();
            graph.nodes.insert(head.clone());
            let entry = graph.edges.entry(head).or_default();
            let aggregated = rule.aggregation.is_some();
            for dep in rule.positive_dependencies() {
                graph.nodes.insert(dep.to_string());
                let kind = if aggregated { DepKind::Aggregated } else { DepKind::Positive };
                entry.push((dep.to_string(), kind));
            }
            for dep in rule.negative_dependencies() {
                graph.nodes.insert(dep.to_string());
                entry.push((dep.to_string(), DepKind::Negative));
            }
        }
        graph.sccs = graph.tarjan();
        for (i, scc) in graph.sccs.iter().enumerate() {
            for name in scc {
                graph.scc_index.insert(name.clone(), i);
            }
        }
        graph
    }

    /// All relation names (sorted).
    pub fn nodes(&self) -> impl Iterator<Item = &String> {
        self.nodes.iter()
    }

    /// Dependencies of a relation (empty for EDBs).
    pub fn dependencies_of(&self, name: &str) -> &[(String, DepKind)] {
        self.edges.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// True if `from` depends (directly) on `to`.
    pub fn depends_on(&self, from: &str, to: &str) -> bool {
        self.dependencies_of(from).iter().any(|(d, _)| d == to)
    }

    /// Strongly connected components in reverse topological order
    /// (dependencies come before dependents).
    pub fn sccs(&self) -> &[Vec<String>] {
        &self.sccs
    }

    /// The SCC containing `name` (a singleton for non-recursive relations;
    /// empty for relations the program never mentions).
    pub fn scc_of(&self, name: &str) -> &[String] {
        self.scc_index.get(name).map_or(&[], |&i| &self.sccs[i])
    }

    /// True if the relation is recursive: it is in a multi-element SCC, or it
    /// depends directly on itself.
    pub fn is_recursive(&self, name: &str) -> bool {
        self.scc_of(name).len() > 1 || self.depends_on(name, name)
    }

    /// Every relation reachable from `roots` along dependency edges of any
    /// kind (a negated or aggregated dependency is still a dependency), the
    /// roots included even when no rule mentions them.
    pub fn reachable_from(&self, roots: &[String]) -> BTreeSet<String> {
        let mut seen = BTreeSet::new();
        let mut work: Vec<&str> = roots.iter().map(String::as_str).collect();
        while let Some(name) = work.pop() {
            if seen.insert(name.to_string()) {
                work.extend(self.dependencies_of(name).iter().map(|(dep, _)| dep.as_str()));
            }
        }
        seen
    }

    /// Condense the subgraph induced by `members` into its strongly
    /// connected components, in dependency order (a component's
    /// dependencies among `members` always precede it). Each group is
    /// marked `looping` when a fixpoint is required: either the component
    /// has more than one relation (mutual recursion) or its single relation
    /// depends directly on itself. Members unknown to the graph (heads of
    /// fact rules never referenced elsewhere, for example) come back as
    /// non-looping singletons.
    pub fn condense(&self, members: &[String]) -> Vec<SccGroup> {
        let wanted: BTreeSet<&String> = members.iter().collect();
        let mut groups = Vec::new();
        for scc in &self.sccs {
            let relations: Vec<String> =
                scc.iter().filter(|n| wanted.contains(n)).cloned().collect();
            if relations.is_empty() {
                continue;
            }
            let looping = relations.len() > 1 || relations.iter().any(|r| self.depends_on(r, r));
            groups.push(SccGroup { relations, looping });
        }
        for member in members {
            if !self.scc_index.contains_key(member) {
                groups.push(SccGroup { relations: vec![member.clone()], looping: false });
            }
        }
        groups
    }

    /// Tarjan's algorithm over the adjacency built so far; called once, by
    /// [`DepGraph::build`].
    fn tarjan(&self) -> Vec<Vec<String>> {
        struct Tarjan<'g> {
            graph: &'g DepGraph,
            index: usize,
            indices: BTreeMap<String, usize>,
            lowlink: BTreeMap<String, usize>,
            on_stack: BTreeSet<String>,
            stack: Vec<String>,
            sccs: Vec<Vec<String>>,
        }

        impl<'g> Tarjan<'g> {
            fn strongconnect(&mut self, v: &str) {
                self.indices.insert(v.to_string(), self.index);
                self.lowlink.insert(v.to_string(), self.index);
                self.index += 1;
                self.stack.push(v.to_string());
                self.on_stack.insert(v.to_string());

                let deps: Vec<String> =
                    self.graph.dependencies_of(v).iter().map(|(d, _)| d.clone()).collect();
                // Invariant: `v` got index/lowlink entries at the top of this
                // call, and `w` gets them inside `strongconnect` (first arm)
                // or already has an index (second arm's guard).
                #[allow(clippy::unwrap_used)]
                for w in deps {
                    if !self.indices.contains_key(&w) {
                        self.strongconnect(&w);
                        let low =
                            (*self.lowlink.get(v).unwrap()).min(*self.lowlink.get(&w).unwrap());
                        self.lowlink.insert(v.to_string(), low);
                    } else if self.on_stack.contains(&w) {
                        let low =
                            (*self.lowlink.get(v).unwrap()).min(*self.indices.get(&w).unwrap());
                        self.lowlink.insert(v.to_string(), low);
                    }
                }

                if self.lowlink.get(v) == self.indices.get(v) {
                    let mut component = Vec::new();
                    while let Some(w) = self.stack.pop() {
                        self.on_stack.remove(&w);
                        let done = w == v;
                        component.push(w);
                        if done {
                            break;
                        }
                    }
                    component.reverse();
                    self.sccs.push(component);
                }
            }
        }

        let mut t = Tarjan {
            graph: self,
            index: 0,
            indices: BTreeMap::new(),
            lowlink: BTreeMap::new(),
            on_stack: BTreeSet::new(),
            stack: Vec::new(),
            sccs: Vec::new(),
        };
        for node in &self.nodes {
            if !t.indices.contains_key(node) {
                t.strongconnect(node);
            }
        }
        t.sccs
    }
}

/// One strongly connected component of the dependency graph, restricted to a
/// caller-chosen set of relations (see [`DepGraph::condense`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SccGroup {
    /// The relations in the component.
    pub relations: Vec<String>,
    /// Whether evaluating the component requires iterating to fixpoint
    /// (self- or mutual recursion). Non-looping components are fully
    /// derivable in a single rule application round.
    pub looping: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Atom, BodyElem, Rule};

    fn program_tc() -> DlirProgram {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![BodyElem::Atom(Atom::with_vars("edge", &["x", "y"]))],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![
                BodyElem::Atom(Atom::with_vars("tc", &["x", "z"])),
                BodyElem::Atom(Atom::with_vars("edge", &["z", "y"])),
            ],
        ));
        p
    }

    fn program_mutual() -> DlirProgram {
        // even(x) :- zero(x).
        // even(x) :- odd(y), succ(y, x).
        // odd(x)  :- even(y), succ(y, x).
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("even", &["x"]),
            vec![BodyElem::Atom(Atom::with_vars("zero", &["x"]))],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("even", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("odd", &["y"])),
                BodyElem::Atom(Atom::with_vars("succ", &["y", "x"])),
            ],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("odd", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("even", &["y"])),
                BodyElem::Atom(Atom::with_vars("succ", &["y", "x"])),
            ],
        ));
        p
    }

    #[test]
    fn builds_edges_with_polarity() {
        let mut p = program_tc();
        p.add_rule(Rule::new(
            Atom::with_vars("unreachable", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("node", &["x"])),
                BodyElem::Negated(Atom::with_vars("tc", &["s", "x"])),
            ],
        ));
        let g = DepGraph::build(&p);
        assert!(g.depends_on("tc", "edge"));
        assert!(g.depends_on("tc", "tc"));
        assert!(g.depends_on("unreachable", "tc"));
        let kinds: Vec<DepKind> =
            g.dependencies_of("unreachable").iter().map(|(_, k)| *k).collect();
        assert!(kinds.contains(&DepKind::Negative));
    }

    #[test]
    fn detects_self_recursion() {
        let g = DepGraph::build(&program_tc());
        assert!(g.is_recursive("tc"));
        assert!(!g.is_recursive("edge"));
        let recursive: Vec<&String> = g.nodes().filter(|n| g.is_recursive(n)).collect();
        assert_eq!(recursive, vec!["tc"]);
    }

    #[test]
    fn detects_mutual_recursion_as_one_scc() {
        let g = DepGraph::build(&program_mutual());
        let scc = g.scc_of("even");
        assert_eq!(scc.len(), 2);
        assert!(scc.contains(&"odd".to_string()));
        assert!(g.is_recursive("even"));
        assert!(g.is_recursive("odd"));
        assert_eq!(g.scc_of("zero"), ["zero".to_string()]);
        assert!(g.scc_of("ghost").is_empty());
    }

    #[test]
    fn scc_index_matches_the_components() {
        let g = DepGraph::build(&program_mutual());
        for (i, scc) in g.sccs().iter().enumerate() {
            for name in scc {
                assert_eq!(g.scc_index[name], i);
                assert_eq!(g.scc_of(name), scc.as_slice());
            }
        }
        assert!(g.scc_index.keys().eq(g.nodes()));
    }

    #[test]
    fn reachability_follows_negated_edges() {
        let mut p = program_tc();
        p.add_rule(Rule::new(
            Atom::with_vars("unreachable", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("node", &["x"])),
                BodyElem::Negated(Atom::with_vars("tc", &["s", "x"])),
            ],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("orphan", &["x"]),
            vec![BodyElem::Atom(Atom::with_vars("raw", &["x"]))],
        ));
        let g = DepGraph::build(&p);
        let live = g.reachable_from(&["unreachable".to_string()]);
        let expected: BTreeSet<String> =
            ["unreachable", "node", "tc", "edge"].iter().map(|s| s.to_string()).collect();
        assert_eq!(live, expected);
    }

    #[test]
    fn reachability_from_no_roots_is_empty() {
        let g = DepGraph::build(&program_tc());
        assert!(g.reachable_from(&[]).is_empty());
    }

    #[test]
    fn reachability_covers_recursive_cones_and_unknown_roots() {
        let mut p = program_mutual();
        p.add_rule(Rule::new(
            Atom::with_vars("out", &["x"]),
            vec![BodyElem::Atom(Atom::with_vars("odd", &["x"]))],
        ));
        let g = DepGraph::build(&p);
        let cone = g.reachable_from(&["out".to_string()]);
        let expected: BTreeSet<String> =
            ["out", "odd", "even", "zero", "succ"].iter().map(|s| s.to_string()).collect();
        assert_eq!(cone, expected);
        // A recursive relation reaches its own SCC; a root no rule mentions
        // is still reported.
        assert!(g.reachable_from(&["even".to_string()]).contains("odd"));
        let ghost = g.reachable_from(&["ghost".to_string()]);
        assert_eq!(ghost.into_iter().collect::<Vec<_>>(), vec!["ghost".to_string()]);
    }

    #[test]
    fn sccs_are_in_dependency_order() {
        let g = DepGraph::build(&program_tc());
        let sccs = g.sccs();
        let pos_edge = sccs.iter().position(|s| s.contains(&"edge".to_string())).unwrap();
        let pos_tc = sccs.iter().position(|s| s.contains(&"tc".to_string())).unwrap();
        assert!(pos_edge < pos_tc, "dependencies must come before dependents: {sccs:?}");
    }

    #[test]
    fn condensation_orders_components_and_marks_looping() {
        // B :- A. (two single-relation components in one stratum, no loop)
        let mut p = program_tc();
        p.add_rule(Rule::new(
            Atom::with_vars("twice", &["x", "y"]),
            vec![BodyElem::Atom(Atom::with_vars("tc", &["x", "y"]))],
        ));
        let g = DepGraph::build(&p);
        let groups = g.condense(&["twice".to_string(), "tc".to_string(), "ghost".to_string()]);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0], SccGroup { relations: vec!["tc".into()], looping: true });
        assert_eq!(groups[1], SccGroup { relations: vec!["twice".into()], looping: false });
        // Members the graph has never seen become trailing non-looping
        // singletons.
        assert_eq!(groups[2], SccGroup { relations: vec!["ghost".into()], looping: false });
    }

    #[test]
    fn condensation_keeps_mutual_recursion_together() {
        let g = DepGraph::build(&program_mutual());
        let groups = g.condense(&["even".to_string(), "odd".to_string()]);
        assert_eq!(groups.len(), 1);
        assert!(groups[0].looping);
        assert_eq!(groups[0].relations.len(), 2);
        assert!(groups[0].relations.contains(&"even".to_string()));
        assert!(groups[0].relations.contains(&"odd".to_string()));
    }

    #[test]
    fn edbs_have_no_dependencies() {
        let g = DepGraph::build(&program_tc());
        assert!(g.dependencies_of("edge").is_empty());
    }

    #[test]
    fn aggregated_dependencies_are_tagged() {
        use crate::ir::{AggFunc, Aggregation};
        let mut p = DlirProgram::default();
        let mut rule = Rule::new(
            Atom::with_vars("degree", &["x", "d"]),
            vec![BodyElem::Atom(Atom::with_vars("edge", &["x", "y"]))],
        );
        rule.aggregation = Some(Aggregation {
            func: AggFunc::Count,
            input_var: Some("y".into()),
            output_var: "d".into(),
            group_by: vec!["x".into()],
            distinct: false,
        });
        p.add_rule(rule);
        let g = DepGraph::build(&p);
        assert_eq!(g.dependencies_of("degree")[0].1, DepKind::Aggregated);
    }
}
