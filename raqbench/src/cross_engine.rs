//! `cross-engine`: one Cypher text, four engines. Each op compiles a corpus
//! query and runs it on neo4j-sim (the graph engine on PGIR), souffle-sim
//! (a cold Datalog engine), duckdb-sim and hyper-sim (the SQL engine's two
//! profiles) at SF 0.25. The op fails if the four row sets differ. The graph
//! engine interprets PGIR without DLIR, the optimizer or SQIR, so it is the
//! golden reference for the other three.
//!
//! At 25 persons one seed's graph can be much denser than another's, so a
//! run cycles its ops over [`DATASETS`] graphs generated from its seed.

use std::collections::BTreeMap;

use raqlet::{
    Database, DatalogEngine, GraphEngine, PropertyGraph, Raqlet, Relation, SqlEngine,
    SqlLowerOptions, SqlProfile, TableCatalog,
};
use raqlet_ldbc::{generate, to_database, to_property_graph, GeneratorConfig, SNB_PG_SCHEMA};

use crate::compile::{self, Staged};
use crate::measure::{repeat_setup, Meter};
use crate::ops::{Persons, QueryOp, QueryStream, QUERY_ROUND_LEN};
use crate::trace::Tracer;
use crate::{layer_metrics, Args, Outcome};

/// 25 persons: the SQL engines re-join whole working tables per recursive
/// round, so this is the scale where every corpus query stays interactive.
pub const SCALE: f64 = 0.25;
/// Set-up is about a millisecond, so take the median of many.
const SETUP_REPS: usize = 15;
/// Share of traced ops whose stages are checked against `Raqlet::compile`.
const SAMPLE_RATE: f64 = 0.1;

/// Graphs per run; op `n` runs on graph `n % DATASETS`.
pub const DATASETS: u64 = 16;

/// One generated graph in both stores.
struct Data {
    db: Database,
    graph: PropertyGraph,
}

struct State {
    /// Person ids; every graph of one scale factor numbers them alike.
    persons: Vec<i64>,
    raqlet: Raqlet,
    data: Vec<Data>,
}

/// Set-up: generate the graphs and load each into both stores.
fn setup(seed: u64, tr: &mut Tracer) -> Result<State, String> {
    let mut persons = Vec::new();
    let mut data = Vec::new();
    for k in 0..DATASETS {
        let seed = seed.wrapping_mul(DATASETS).wrapping_add(k);
        let network =
            tr.span("ldbc.generate", || generate(&GeneratorConfig { scale: SCALE, seed }));
        let (db, graph) =
            tr.span("ldbc.load", || (to_database(&network), to_property_graph(&network)));
        persons = network.persons.iter().map(|p| p.id).collect();
        data.push(Data { db, graph });
    }
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).map_err(|e| e.to_string())?;
    Ok(State { persons, raqlet, data })
}

/// Rows of the four engines, in the order graph, Datalog, duckdb, hyper.
type Rows = [Relation; 4];

/// The untraced op: the public facade, as a user calls it.
fn run_all(raqlet: &Raqlet, data: &Data, op: &QueryOp) -> raqlet::Result<Rows> {
    let compiled = raqlet.compile(op.query().cypher, &op.options())?;
    Ok([
        compiled.execute_graph(&data.graph)?,
        compiled.execute_datalog(&data.db)?,
        compiled.execute_sql(&data.db, SqlProfile::Duck)?,
        compiled.execute_sql(&data.db, SqlProfile::Hyper)?,
    ])
}

/// One SQL engine run the way `CompiledQuery::execute_sql` makes it.
fn run_sql(
    staged: &Staged,
    db: &Database,
    profile: SqlProfile,
    span: &'static str,
    tr: &mut Tracer,
) -> raqlet::Result<Relation> {
    let program = &staged.sql.program;
    let sqir = tr.span("sqir.lower", || {
        raqlet_sqir::lower_to_sqir(program, &staged.lowered.output, &SqlLowerOptions::default())
    })?;
    let result = tr.span(span, || {
        let catalog = TableCatalog::from_schema(&program.schema);
        SqlEngine { profile }.execute(&sqir, db, &catalog)
    })?;
    tr.count("sql.recursive_iterations", result.stats.recursive_iterations as f64);
    tr.count("sql.rows_produced", result.stats.rows_produced as f64);
    Ok(result.rows)
}

/// The traced op: staged compile, then each engine in its own span.
fn run_all_staged(
    raqlet: &Raqlet,
    data: &Data,
    op: &QueryOp,
    n: u64,
    tr: &mut Tracer,
) -> raqlet::Result<(Rows, Staged)> {
    let root = tr.enter_op(n);
    let out = (|| {
        let staged = compile::compile(raqlet, op, tr)?;
        let graph = tr.span("graph", || GraphEngine::new().execute(&staged.pgir, &data.graph))?;
        tr.count("graph.expansions", graph.stats.expansions as f64);
        tr.count("graph.intermediate_rows", graph.stats.intermediate_rows as f64);
        let datalog = tr.span("engine.cold", || {
            DatalogEngine::new().run_output(&staged.any.program, &data.db, &staged.lowered.output)
        })?;
        let duck = run_sql(&staged, &data.db, SqlProfile::Duck, "sql.duck", tr)?;
        let hyper = run_sql(&staged, &data.db, SqlProfile::Hyper, "sql.hyper", tr)?;
        Ok(([graph.rows, datalog, duck, hyper], staged))
    })();
    tr.exit(root);
    out
}

/// Every engine's rows must equal the graph engine's.
fn agree(rows: &Rows) -> Result<(), String> {
    const NAMES: [&str; 4] = ["neo4j-sim", "souffle-sim", "duckdb-sim", "hyper-sim"];
    let reference = rows[0].sorted();
    for (name, rel) in NAMES.iter().zip(rows).skip(1) {
        if rel.sorted() != reference {
            return Err(format!(
                "{name} returned {} rows, {} returned {}",
                rel.len(),
                NAMES[0],
                reference.len()
            ));
        }
    }
    Ok(())
}

fn pass(state: &State, args: &Args, tr: &mut Tracer) -> Meter {
    let mut meter = Meter::new(args.seconds, QUERY_ROUND_LEN);
    let persons = Persons::Uniform { ids: state.persons.clone() };
    let mut ops = QueryStream::new(args.seed, persons, SAMPLE_RATE);
    let mut n = 0u64;
    while meter.running() {
        let op = ops.next_op();
        let data = &state.data[(n % DATASETS) as usize];
        n += 1;
        let traced = tr.enabled();
        let out = meter.time(op.query().name, || {
            if traced {
                run_all_staged(&state.raqlet, data, &op, n, tr).map(|(rows, s)| (rows, Some(s)))
            } else {
                run_all(&state.raqlet, data, &op).map(|rows| (rows, None))
            }
        });
        let checked = meter.off_clock(|_| {
            let (rows, staged) = out.map_err(|e| e.to_string())?;
            agree(&rows)?;
            match staged {
                Some(staged) if op.sampled => compile::check(&state.raqlet, &op, &staged),
                _ => Ok(()),
            }
        });
        if let Err(e) = checked {
            meter.fail(format!("{}: {e}", op.query().name));
        }
    }
    meter.stop();
    meter
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut tr = Tracer::new(false);
    let (state, setup_s) = repeat_setup(SETUP_REPS, || setup(args.seed, &mut tr));
    let state = state?;

    let mut layers = BTreeMap::new();
    let mut traced = None;
    if args.trace {
        let mut tr = Tracer::new(true);
        let fresh = setup(args.seed, &mut tr)?;
        let meter = pass(&fresh, args, &mut tr);
        layers = layer_metrics(&tr, &tr.summary());
        traced = Some(meter);
    }
    let meter = pass(&state, args, &mut tr);
    if let Some(t) = &traced {
        layers.insert("trace.overhead", t.throughput() / meter.throughput());
    }
    Ok(Outcome {
        setup_s,
        meter,
        layers,
        traced,
        facts: vec![("scale_factor", format!("{SCALE}")), ("graphs", format!("{DATASETS}"))],
    })
}
