//! `translate`: Cypher text in, Soufflé and SQL text out. Each op compiles
//! one corpus query at `OptLevel::Full` with parameters no earlier op used,
//! then renders it with `to_souffle` and `to_sql(DuckDb)`. No engine runs on
//! the clock, so engine changes must not move this workload.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::hint::black_box;

use raqlet::{
    CompiledQuery, Database, PropertyGraph, Raqlet, SouffleOptions, SqlDialect, SqlLowerOptions,
};
use raqlet_ldbc::{generate, to_database, to_property_graph, GeneratorConfig, SNB_PG_SCHEMA};

use crate::compile::{self, Staged};
use crate::measure::{repeat_setup, Meter};
use crate::ops::{Persons, QueryOp, QueryStream, QUERY_ROUND_LEN};
use crate::trace::Tracer;
use crate::{layer_metrics, Args, Outcome};

/// Set-up is a few milliseconds, so take the median of many.
const SETUP_REPS: usize = 9;
/// Scale factor of the data the sampled ops are checked against.
const CHECK_SCALE: f64 = 1.0;
/// Share of ops checked against the graph engine after the loop.
const SAMPLE_RATE: f64 = 0.005;

fn digest(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// Set-up: the compiler for the SNB schema, warmed by one compile of every
/// corpus query.
fn setup() -> Result<Raqlet, String> {
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).map_err(|e| e.to_string())?;
    let mut warm = QueryStream::new(0, Persons::Uniform { ids: vec![1000] }, 0.0);
    for _ in raqlet_ldbc::ALL_QUERIES {
        let op = warm.next_op();
        let compiled =
            raqlet.compile(op.query().cypher, &op.options()).map_err(|e| e.to_string())?;
        black_box(compiled.to_souffle());
        black_box(compiled.to_sql(SqlDialect::DuckDb).map_err(|e| e.to_string())?);
    }
    Ok(raqlet)
}

/// The data sampled ops are checked on, in both stores.
struct CheckData {
    persons: Vec<i64>,
    db: Database,
    graph: PropertyGraph,
}

impl CheckData {
    fn new(seed: u64) -> Self {
        let network = generate(&GeneratorConfig { scale: CHECK_SCALE, seed });
        CheckData {
            persons: network.persons.iter().map(|p| p.id).collect(),
            db: to_database(&network),
            graph: to_property_graph(&network),
        }
    }

    /// The Datalog engine on the compiled program against the graph engine
    /// on the same PGIR.
    fn check(&self, compiled: &CompiledQuery) -> Result<(), String> {
        let datalog = compiled.execute_datalog(&self.db).map_err(|e| e.to_string())?;
        let graph = compiled.execute_graph(&self.graph).map_err(|e| e.to_string())?;
        if datalog.sorted() != graph.sorted() {
            return Err(format!(
                "Datalog ({} rows) and graph engine ({} rows) disagree",
                datalog.len(),
                graph.len()
            ));
        }
        Ok(())
    }
}

/// A sampled op with what the clock saw it produce.
struct Sample {
    op: QueryOp,
    souffle: u64,
    sql: u64,
    /// The traced run's stages, checked against `Raqlet::compile`.
    staged: Option<Staged>,
}

/// One untimed pass of the closed loop, traced or not.
fn pass(raqlet: &Raqlet, data: &CheckData, args: &Args, tr: &mut Tracer) -> Meter {
    let mut meter = Meter::new(args.seconds, QUERY_ROUND_LEN);
    let mut stream =
        QueryStream::new(args.seed, Persons::Fresh { data: data.persons.clone() }, SAMPLE_RATE);
    let mut samples = Vec::new();
    let mut n = 0u64;
    while meter.running() {
        let op = stream.next_op();
        n += 1;
        let traced = tr.enabled();
        let out = meter.time(op.query().name, || {
            if traced {
                translate_staged(raqlet, &op, n, tr)
            } else {
                translate(raqlet, &op)
            }
        });
        match out {
            Ok((souffle, sql, staged)) if op.sampled => {
                samples.push(Sample { op, souffle, sql, staged })
            }
            Ok(_) => {}
            Err(e) => meter.fail(format!("{}: {e}", op.query().name)),
        }
    }
    meter.stop();
    let was = tr.enabled();
    tr.set_enabled(false);
    meter.off_clock(|meter| {
        for s in samples {
            if let Err(e) = check_sample(raqlet, data, &s) {
                meter.fail(format!("{}: {e}", s.op.query().name));
            }
        }
    });
    tr.set_enabled(was);
    meter
}

type Rendered = (u64, u64, Option<Staged>);

/// The untraced op: the public facade, as a user calls it.
fn translate(raqlet: &Raqlet, op: &QueryOp) -> Result<Rendered, String> {
    let compiled = raqlet.compile(op.query().cypher, &op.options()).map_err(|e| e.to_string())?;
    let souffle = compiled.to_souffle();
    let sql = compiled.to_sql(SqlDialect::DuckDb).map_err(|e| e.to_string())?;
    Ok((digest(black_box(&souffle)), digest(black_box(&sql)), None))
}

/// The traced op: the same work, stage by stage.
fn translate_staged(
    raqlet: &Raqlet,
    op: &QueryOp,
    n: u64,
    tr: &mut Tracer,
) -> Result<Rendered, String> {
    let root = tr.enter_op(n);
    let out = (|| {
        let staged = compile::compile(raqlet, op, tr).map_err(|e| e.to_string())?;
        let souffle = tr.span("unparse.souffle", || {
            raqlet::to_souffle(&staged.any.program, &SouffleOptions::default())
        });
        let sqir = tr
            .span("sqir.lower", || {
                raqlet_sqir::lower_to_sqir(
                    &staged.sql.program,
                    &staged.lowered.output,
                    &SqlLowerOptions::default(),
                )
            })
            .map_err(|e| e.to_string())?;
        let sql = tr.span("unparse.sql", || raqlet::to_sql(&sqir, SqlDialect::DuckDb));
        tr.count("unparse.bytes_out", (souffle.len() + sql.len()) as f64);
        Ok((digest(&souffle), digest(&sql), Some(staged)))
    })();
    tr.exit(root);
    out
}

/// Off the clock: the text the op produced is what `Raqlet::compile`
/// renders, the traced stages equal `Raqlet::compile`'s programs, and the
/// program's rows equal the graph engine's on the check data.
fn check_sample(raqlet: &Raqlet, data: &CheckData, s: &Sample) -> Result<(), String> {
    let compiled =
        raqlet.compile(s.op.query().cypher, &s.op.options()).map_err(|e| e.to_string())?;
    if let Some(staged) = &s.staged {
        if let Some(what) = staged.mismatch(&compiled) {
            return Err(format!("traced compile differs from Raqlet::compile in its {what}"));
        }
    }
    let sql = compiled.to_sql(SqlDialect::DuckDb).map_err(|e| e.to_string())?;
    if digest(&compiled.to_souffle()) != s.souffle || digest(&sql) != s.sql {
        return Err("rendered text differs from a fresh compile".into());
    }
    data.check(&compiled)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (raqlet, setup_s) = repeat_setup(SETUP_REPS, setup);
    let raqlet = raqlet?;
    let data = CheckData::new(args.seed);

    let mut layers = BTreeMap::new();
    let mut traced = None;
    if args.trace {
        let mut tr = Tracer::new(true);
        let meter = pass(&raqlet, &data, args, &mut tr);
        layers = layer_metrics(&tr, &tr.summary());
        traced = Some(meter);
    }
    let meter = pass(&raqlet, &data, args, &mut Tracer::new(false));
    if let Some(t) = &traced {
        layers.insert("trace.overhead", t.throughput() / meter.throughput());
    }
    Ok(Outcome {
        setup_s,
        meter,
        layers,
        traced,
        facts: vec![("check_scale_factor", format!("{CHECK_SCALE}"))],
    })
}
