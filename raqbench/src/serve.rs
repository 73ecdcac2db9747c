//! `serve`: Cypher text in, rows out, on one warm store. Each op compiles a
//! corpus query at `OptLevel::Full` and runs it with
//! `execute_datalog_prepared` on a `PreparedDatabase` at SF 32. Person
//! parameters are Zipf-skewed, so some texts repeat and plan-cache reuse
//! can show. Each run spreads its ops over three such stores, built from
//! graphs generated from its seed.

use std::collections::BTreeMap;

use raqlet::{PreparedDatabase, PropertyGraph, Raqlet, Relation};
use raqlet_ldbc::{
    generate, to_database, to_property_graph, GeneratorConfig, SocialNetwork, SNB_PG_SCHEMA,
};

use crate::compile::{self, Staged};
use crate::measure::{repeat_setup, Meter};
use crate::ops::{Persons, QueryOp, QueryStream, Zipf, QUERY_ROUND_LEN};
use crate::trace::Tracer;
use crate::{layer_metrics, Args, Outcome};

/// 3,200 persons.
pub const SCALE: f64 = 32.0;
const SETUP_REPS: usize = 5;
/// Zipf exponent of the person parameters.
const ZIPF_S: f64 = 1.0;
/// Share of ops checked against the graph engine after the loop.
const SAMPLE_RATE: f64 = 0.01;

struct State {
    network: SocialNetwork,
    raqlet: Raqlet,
    prepared: PreparedDatabase,
}

/// Set-up: generate and load the data, then warm the store with one run of
/// every corpus query.
fn setup(seed: u64, tr: &mut Tracer) -> Result<State, String> {
    let network = tr.span("ldbc.generate", || generate(&GeneratorConfig { scale: SCALE, seed }));
    let db = tr.span("ldbc.load", || to_database(&network));
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).map_err(|e| e.to_string())?;
    let mut prepared = PreparedDatabase::new(db);
    let ids = vec![network.sample_person()];
    let mut warm = QueryStream::new(seed, Persons::Uniform { ids }, 0.0);
    for _ in raqlet_ldbc::ALL_QUERIES {
        let op = warm.next_op();
        let compiled =
            raqlet.compile(op.query().cypher, &op.options()).map_err(|e| e.to_string())?;
        compiled.execute_datalog_prepared(&mut prepared).map_err(|e| e.to_string())?;
    }
    Ok(State { network, raqlet, prepared })
}

fn stream(seed: u64, network: &SocialNetwork) -> QueryStream {
    let ids: Vec<i64> = network.persons.iter().map(|p| p.id).collect();
    let zipf = Zipf::new(ids.len(), ZIPF_S);
    QueryStream::new(seed, Persons::Zipf { ids, zipf }, SAMPLE_RATE)
}

/// The untraced op: the public facade, as a user calls it.
fn serve(state: &mut State, op: &QueryOp) -> Result<Relation, String> {
    let compiled =
        state.raqlet.compile(op.query().cypher, &op.options()).map_err(|e| e.to_string())?;
    compiled.execute_datalog_prepared(&mut state.prepared).map_err(|e| e.to_string())
}

/// The traced op: staged compile, then one prepared run with the engine's
/// counters read around it.
fn serve_staged(
    state: &mut State,
    op: &QueryOp,
    n: u64,
    tr: &mut Tracer,
) -> Result<(Relation, Staged), String> {
    let root = tr.enter_op(n);
    let out = (|| {
        let staged = compile::compile(&state.raqlet, op, tr).map_err(|e| e.to_string())?;
        let compiles = state.prepared.plan_compiles();
        let builds = state.prepared.index_builds();
        let id = tr.enter("engine.run");
        let rows = state.prepared.run(&staged.any.program, &staged.lowered.output);
        let took = tr.exit(id);
        let rows = rows.map_err(|e| e.to_string())?;
        engine_counters(&state.prepared, compiles, builds, took, rows.len(), tr);
        Ok((rows, staged))
    })();
    tr.exit(root);
    out
}

/// Record one prepared run's engine counters.
pub fn engine_counters(
    prepared: &PreparedDatabase,
    compiles_before: usize,
    builds_before: usize,
    took: std::time::Duration,
    rows: usize,
    tr: &mut Tracer,
) {
    let stats = prepared.last_stats();
    tr.count("engine.runs", 1.0);
    if prepared.plan_compiles() > compiles_before {
        tr.count("engine.run.miss_busy_ms", took.as_secs_f64() * 1e3);
    } else {
        tr.count("engine.plan_hits", 1.0);
    }
    tr.count("engine.index_builds", prepared.index_builds().saturating_sub(builds_before) as f64);
    tr.count("engine.iterations", stats.iterations as f64);
    tr.count("engine.rule_applications", stats.rule_applications as f64);
    tr.count("engine.tuples_derived", stats.tuples_derived as f64);
    tr.count("engine.rows_out", rows as f64);
}

/// The engine ratios derived from [`engine_counters`].
pub fn engine_ratios(tr: &Tracer, layers: &mut BTreeMap<&'static str, f64>) {
    let runs = tr.counter("engine.runs");
    if runs > 0.0 {
        layers.insert("engine.plan_hit_ratio", tr.counter("engine.plan_hits") / runs);
    }
    let derived = tr.counter("engine.tuples_derived");
    if derived > 0.0 {
        layers.insert("engine.rows_per_derived", tr.counter("engine.rows_out") / derived);
    }
}

/// Off the clock: the rows a sampled op returned equal a reference run on
/// the same data, and a traced op's stages equal `Raqlet::compile`'s. The
/// reference is the graph engine on the same PGIR. The graph engine
/// enumerates variable-length paths, which does not finish at this scale
/// (REACH takes about a minute at SF 32), so recursive queries are checked
/// against a cold Datalog engine on a copy of the data instead: no warm
/// state, no plan cache. The optimizer itself is checked against the graph
/// engine by `translate` and `cross-engine`.
fn check_sample(
    state: &State,
    graph: &PropertyGraph,
    op: &QueryOp,
    rows: &Relation,
    staged: Option<&Staged>,
) -> Result<(), String> {
    let compiled =
        state.raqlet.compile(op.query().cypher, &op.options()).map_err(|e| e.to_string())?;
    if let Some(what) = staged.and_then(|s| s.mismatch(&compiled)) {
        return Err(format!("traced compile differs from Raqlet::compile in its {what}"));
    }
    let (reference, name) = if op.query().recursive {
        (compiled.execute_datalog(state.prepared.database()), "a cold Datalog engine")
    } else {
        (compiled.execute_graph(graph), "graph engine")
    };
    let reference = reference.map_err(|e| e.to_string())?;
    if reference.sorted() != rows.sorted() {
        return Err(format!(
            "prepared run ({} rows) and {name} ({} rows) disagree",
            rows.len(),
            reference.len()
        ));
    }
    Ok(())
}

/// One pass of the closed loop on a fresh set-up, traced or not.
/// Graphs per run; op `n` runs on graph `n % DATASETS`. One seed's graph
/// can make the recursive queries noticeably dearer than another's.
pub const DATASETS: usize = 3;

/// Set up [`DATASETS`] warm stores from graphs generated from `seed`.
fn setup_all(seed: u64, tr: &mut Tracer) -> Result<Vec<State>, String> {
    let n = DATASETS as u64;
    (0..n).map(|k| setup(seed.wrapping_mul(n).wrapping_add(k), tr)).collect()
}

fn pass(states: &mut [State], args: &Args, tr: &mut Tracer) -> Meter {
    let mut meter = Meter::new(args.seconds, QUERY_ROUND_LEN);
    // Every graph of one scale factor numbers its persons alike.
    let mut ops = stream(args.seed, &states[0].network);
    let mut samples = Vec::new();
    let mut n = 0u64;
    while meter.running() {
        let op = ops.next_op();
        let k = n as usize % states.len();
        let state = &mut states[k];
        n += 1;
        let traced = tr.enabled();
        let out = meter.time(op.query().name, || {
            if traced {
                serve_staged(state, &op, n, tr).map(|(rows, staged)| (rows, Some(staged)))
            } else {
                serve(state, &op).map(|rows| (rows, None))
            }
        });
        match out {
            Ok((rows, staged)) if op.sampled => samples.push((k, op, rows, staged)),
            Ok(_) => {}
            Err(e) => meter.fail(format!("{}: {e}", op.query().name)),
        }
    }
    meter.stop();
    let was = tr.enabled();
    tr.set_enabled(false);
    meter.off_clock(|meter| {
        let graphs: Vec<PropertyGraph> =
            states.iter().map(|s| to_property_graph(&s.network)).collect();
        for (k, op, rows, staged) in samples {
            if let Err(e) = check_sample(&states[k], &graphs[k], &op, &rows, staged.as_ref()) {
                meter.fail(format!("{}: {e}", op.query().name));
            }
        }
    });
    tr.set_enabled(was);
    meter
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut tr = Tracer::new(false);
    let (states, setup_s) = repeat_setup(SETUP_REPS, || setup_all(args.seed, &mut tr));
    let mut states = states?;

    let mut layers = BTreeMap::new();
    let mut traced = None;
    if args.trace {
        // The traced pass gets a set-up of its own, so both passes start
        // from the same cold plan cache.
        let mut tr = Tracer::new(true);
        let mut fresh = setup_all(args.seed, &mut tr)?;
        let meter = pass(&mut fresh, args, &mut tr);
        layers = layer_metrics(&tr, &tr.summary());
        engine_ratios(&tr, &mut layers);
        traced = Some(meter);
    }
    let meter = pass(&mut states, args, &mut tr);
    if let Some(t) = &traced {
        layers.insert("trace.overhead", t.throughput() / meter.throughput());
    }
    Ok(Outcome {
        setup_s,
        meter,
        layers,
        traced,
        facts: vec![
            ("scale_factor", format!("{SCALE}")),
            ("graphs", format!("{DATASETS}")),
            ("zipf_s", format!("{ZIPF_S}")),
        ],
    })
}
