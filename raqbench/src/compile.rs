//! The traced compile: `Raqlet::compile` taken apart into its public
//! stages, with a span around each, so the traced run can say where
//! compile time goes. [`check`] tests, outside the clock, that
//! the stages still add up to exactly what `Raqlet::compile` returns.

use raqlet::{AnalysisReport, CompiledQuery, DlirProgram, OptLevel, PgirQuery, Raqlet, Result};
use raqlet_dlir::LoweredQuery;
use raqlet_opt::{
    eliminate_dead_rules, inline, linearize, magic_sets, optimize_joins, propagate_constants,
    OptimizedProgram, PassConfig, TargetBackend,
};

use crate::ops::QueryOp;
use crate::trace::Tracer;

/// Every stage's output, as `Raqlet::compile` would hold it.
#[derive(Debug)]
pub struct Staged {
    pub pgir: PgirQuery,
    pub lowered: LoweredQuery,
    pub analysis: AnalysisReport,
    pub any: OptimizedProgram,
    pub sql: OptimizedProgram,
}

/// Compile `op` stage by stage under `tr`.
pub fn compile(raqlet: &Raqlet, op: &QueryOp, tr: &mut Tracer) -> Result<Staged> {
    let ast = tr.span("cypher.parse", || raqlet_cypher::parse(op.query().cypher))?;
    let mut options = raqlet_pgir::LowerOptions::new();
    for (name, value) in op.params() {
        options = options.with_param(name, value);
    }
    let pgir = tr.span("pgir.lower", || raqlet_pgir::lower_query(&ast, &options))?;
    let lowered = tr.span("dlir.lower", || {
        raqlet_dlir::lower_pgir_with_schema(raqlet.pg_schema(), raqlet.dl_schema().clone(), &pgir)
    })?;
    tr.count("dlir.rules_out", lowered.program.rules.len() as f64);
    tr.span("dlir.validate", || raqlet_dlir::validate(&lowered.program))?;
    let analysis = tr.span("analysis.analyze", || raqlet_analysis::analyze(&lowered.program));
    let any = optimize(&lowered.program, TargetBackend::Any, "opt.any", tr)?;
    let sql = optimize(&lowered.program, TargetBackend::Sql, "opt.sql", tr)?;
    Ok(Staged { pgir, lowered, analysis, any, sql })
}

/// One optimizer pass: the name it reports in `applied_passes`, its metric
/// stem, its switch in [`PassConfig`], and the pass itself.
struct Pass {
    applied: &'static str,
    span: &'static str,
    fired: &'static str,
    enabled: fn(&PassConfig) -> bool,
    run: fn(&DlirProgram, &PassConfig) -> (DlirProgram, bool),
}

/// The passes in the order `raqlet_opt::optimize_with` runs them.
const PASSES: &[Pass] = &[
    Pass {
        applied: "inline",
        span: "opt.inline",
        fired: "opt.inline.fired",
        enabled: |c| c.inline,
        run: |p, c| inline(p, &c.inline_config),
    },
    Pass {
        applied: "constant-propagation",
        span: "opt.constprop",
        fired: "opt.constprop.fired",
        enabled: |c| c.constant_propagation,
        run: |p, _| propagate_constants(p),
    },
    Pass {
        applied: "semantic-joins",
        span: "opt.semantic_joins",
        fired: "opt.semantic_joins.fired",
        enabled: |c| c.semantic_joins,
        run: |p, _| optimize_joins(p),
    },
    Pass {
        applied: "dead-rule-elimination",
        span: "opt.dead",
        fired: "opt.dead.fired",
        enabled: |c| c.dead_rule_elimination,
        run: |p, _| eliminate_dead_rules(p),
    },
    Pass {
        applied: "linearization",
        span: "opt.linearize",
        fired: "opt.linearize.fired",
        enabled: |c| c.linearization,
        run: |p, _| linearize(p),
    },
    Pass {
        applied: "magic-sets",
        span: "opt.magic_sets",
        fired: "opt.magic_sets.fired",
        enabled: |c| c.magic_sets,
        run: |p, _| magic_sets(p),
    },
];

/// `raqlet_opt::optimize_for(program, Full, target)`, looped the same way
/// `optimize_with` loops it, with a span per pass.
fn optimize(
    program: &DlirProgram,
    target: TargetBackend,
    span: &'static str,
    tr: &mut Tracer,
) -> Result<OptimizedProgram> {
    let id = tr.enter(span);
    let config = PassConfig::for_target(OptLevel::Full, target);
    let rules_before = program.rules.len();
    let mut current = program.clone();
    let mut applied = Vec::new();
    for _ in 0..config.max_iterations {
        tr.count("opt.rounds", 1.0);
        let mut changed_this_round = false;
        for pass in PASSES.iter().filter(|p| (p.enabled)(&config)) {
            let (next, changed) = tr.span(pass.span, || (pass.run)(&current, &config));
            if changed {
                tr.count(pass.fired, 1.0);
                applied.push(pass.applied.to_string());
                current = next;
                changed_this_round = true;
            }
        }
        if !changed_this_round {
            break;
        }
    }
    let valid = raqlet_dlir::validate(&current);
    tr.exit(id);
    valid?;
    tr.count("opt.rules_out", current.rules.len() as f64);
    Ok(OptimizedProgram {
        rules_after: current.rules.len(),
        program: current,
        applied_passes: applied,
        rules_before,
    })
}

/// Off the clock: the staged compile of `op` equals `Raqlet::compile`'s.
pub fn check(raqlet: &Raqlet, op: &QueryOp, staged: &Staged) -> std::result::Result<(), String> {
    let compiled = raqlet.compile(op.query().cypher, &op.options()).map_err(|e| e.to_string())?;
    match staged.mismatch(&compiled) {
        Some(what) => Err(format!("traced compile differs from Raqlet::compile in its {what}")),
        None => Ok(()),
    }
}

impl Staged {
    /// A mismatch against `Raqlet::compile`'s result, if there is one.
    pub fn mismatch(&self, compiled: &CompiledQuery) -> Option<&'static str> {
        let same = |a: &OptimizedProgram, b: &OptimizedProgram| {
            a.program == b.program
                && a.applied_passes == b.applied_passes
                && a.rules_before == b.rules_before
                && a.rules_after == b.rules_after
        };
        if self.pgir != compiled.pgir {
            Some("pgir")
        } else if self.lowered.program != compiled.unoptimized {
            Some("unoptimized program")
        } else if self.lowered.output != compiled.output
            || self.lowered.output_columns != compiled.output_columns
        {
            Some("output relation")
        } else if self.analysis.summary() != compiled.analysis.summary() {
            Some("analysis")
        } else if !same(&self.any, &compiled.optimized) {
            Some("Datalog-targeted program")
        } else if !same(&self.sql, &compiled.sql_optimized) {
            Some("SQL-targeted program")
        } else {
            None
        }
    }
}
