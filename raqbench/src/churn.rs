//! `churn`: writes beside reads on a durable store with standing views.
//!
//! A `DurableDatabase` at SF 4 maintains three views of one focus person:
//! REACH (transitive closure), CQ13 (shortest path, an `@min` lattice) and
//! AGG1 (an aggregate). Each op is a pendant-edge insert or delete batch,
//! a dense delete-and-reinsert of an in-component edge, a message insert or
//! delete batch that moves AGG1, a warm read plus a view read, or the
//! checkpoint that closes every round. Compile runs only at set-up. Each
//! run drives ten such stores, built from graphs generated from its
//! seed, and sends its ops to them in turn.
//!
//! Untraced, a write applies its batch to the store's working set, and the
//! round's checkpoint makes it durable. The benchmark may only write inside
//! its checkout, so the store sits on that disk, where a per-batch WAL
//! fsync made runs of the same code differ by up to half. The traced pass
//! writes through `log_delta`, WAL and fsync included, and first applies
//! every batch to a twin `PreparedDatabase` (same data, same views, no log)
//! inside an `ivm.*` span, so the store's `log_delta` time minus the twin's
//! is the storage layer's share.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use raqlet::{
    Database, DurableDatabase, EdbDelta, PreparedDatabase, Raqlet, Relation, StoreOptions, Value,
    ViewSpec,
};
use raqlet_ldbc::{
    generate, to_database, GeneratorConfig, SocialNetwork, CQ1, CQ13, CQ2, FRIEND_MESSAGE_COUNTS,
    REACHABILITY, SNB_PG_SCHEMA, SQ3,
};

use crate::measure::{repeat_setup, Meter};
use crate::ops::{
    ChurnContext, ChurnKind, ChurnOp, ChurnStream, QueryOp, CHURN_ROUND_LEN, FIRST_NAMES,
};
use crate::serve::{engine_counters, engine_ratios};
use crate::trace::Tracer;
use crate::{layer_metrics, Args, Outcome};

/// 400 persons.
pub const SCALE: f64 = 4.0;
const SETUP_REPS: usize = 5;
/// Where stores live, relative to the working directory.
const STORE_ROOT: &str = ".raqbench";
/// Persons each read query is compiled for at set-up.
const READ_PERSONS: usize = 4;
/// In-component edges the dense op may cut.
const DENSE_EDGES: usize = 64;

const KNOWS: &str = "Person_KNOWS_Person";
const MESSAGE: &str = "Message";
const HAS_CREATOR: &str = "Message_HAS_CREATOR_Person";

/// A compiled program and the relation it answers in.
struct Program {
    program: raqlet::DlirProgram,
    output: String,
}

struct Store {
    store: DurableDatabase,
    /// The traced pass's log-free copy of the store.
    twin: Option<PreparedDatabase>,
    views: Vec<ViewSpec>,
    reads: Vec<Program>,
    ctx: ChurnContext,
}

impl Drop for Store {
    fn drop(&mut self) {
        let dir = self.store.dir().to_path_buf();
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir(STORE_ROOT);
    }
}

/// A directory no other store of this process uses.
fn store_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    Path::new(STORE_ROOT).join(format!("churn-{}-{n}", std::process::id()))
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Persons reachable from `from` over KNOWS in either direction, in BFS
/// order.
fn component(network: &SocialNetwork, from: i64) -> Vec<i64> {
    let mut adj: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for &(a, b, _) in &network.knows {
        adj.entry(a).or_default().push(b);
        adj.entry(b).or_default().push(a);
    }
    let mut seen = BTreeSet::from([from]);
    let mut order = vec![from];
    let mut queue = VecDeque::from([from]);
    while let Some(p) = queue.pop_front() {
        for &q in adj.get(&p).into_iter().flatten() {
            if seen.insert(q) {
                order.push(q);
                queue.push_back(q);
            }
        }
    }
    order
}

fn compile(raqlet: &Raqlet, cypher: &str, op: &QueryOp) -> Result<Program, String> {
    let compiled = raqlet.compile(cypher, &op.options()).map_err(err)?;
    Ok(Program { program: compiled.dlir().clone(), output: compiled.output })
}

/// Set-up: generate and load SF 4, compile the views and the read
/// programs, create the store, install the views and checkpoint.
fn setup(seed: u64, twin: bool, tr: &mut Tracer) -> Result<Store, String> {
    let network = tr.span("ldbc.generate", || generate(&GeneratorConfig { scale: SCALE, seed }));
    let db = tr.span("ldbc.load", || to_database(&network));
    let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).map_err(err)?;

    // The focus person is the oldest, best-connected one; the CQ13 target
    // is the last person of its component in BFS order, the farthest hop.
    let focus = network.sample_person();
    let members = component(&network, focus);
    let target = *members.last().ok_or("empty component")?;
    let param = |person: i64, other: i64| QueryOp {
        query: 0,
        person,
        other,
        max_date: 20_190_101,
        first_name: FIRST_NAMES[(person % FIRST_NAMES.len() as i64) as usize],
        sampled: false,
    };
    let views: Vec<ViewSpec> = [REACHABILITY, CQ13, FRIEND_MESSAGE_COUNTS]
        .iter()
        .map(|q| {
            compile(&raqlet, q.cypher, &param(focus, target))
                .map(|p| ViewSpec::new(p.program, p.output))
        })
        .collect::<Result<_, _>>()?;
    let mut reads = Vec::new();
    for q in [SQ3, CQ2, CQ1] {
        for &person in members.iter().take(READ_PERSONS) {
            reads.push(compile(&raqlet, q.cypher, &param(person, target))?);
        }
    }
    let friends: Vec<i64> = network
        .knows
        .iter()
        .filter_map(|&(a, b, _)| (a == focus).then_some(b).or((b == focus).then_some(a)))
        .collect();
    let in_component: BTreeSet<i64> = members.iter().copied().collect();
    let dense_edges: Vec<Vec<Value>> = db
        .get(KNOWS)
        .ok_or("no KNOWS relation")?
        .sorted()
        .into_iter()
        .filter(|row| matches!(row[0], Value::Int(a) if in_component.contains(&a)))
        .take(DENSE_EDGES)
        .collect();
    if friends.is_empty() || dense_edges.is_empty() {
        return Err("the focus person has no friends".into());
    }

    let twin = twin.then(|| db.clone());
    let dir = store_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = tr
        .span("storage.open", || DurableDatabase::create_with(&dir, db, StoreOptions::default()))
        .map_err(err)?;
    for v in &views {
        tr.span("ivm.install", || store.prepared_mut().install_view(&v.program, &v.output))
            .map_err(err)?;
    }
    tr.span("storage.checkpoint", || store.checkpoint()).map_err(err)?;
    for r in &reads {
        store.prepared_mut().run(&r.program, &r.output).map_err(err)?;
    }
    let twin = match twin {
        Some(db) => {
            let mut twin = PreparedDatabase::new(db);
            twin.compact_edb();
            for v in &views {
                twin.install_view(&v.program, &v.output).map_err(err)?;
            }
            Some(twin)
        }
        None => None,
    };
    let ctx = ChurnContext {
        component: members,
        friends,
        dense_edges,
        reads: reads.len(),
        views: views.len(),
    };
    Ok(Store { store, twin, views, reads, ctx })
}

fn knows_delta(rows: &[Vec<Value>], insert: bool) -> EdbDelta {
    let mut d = EdbDelta::new();
    for row in rows {
        if insert {
            d.insert(KNOWS, row.clone());
        } else {
            d.delete(KNOWS, row.clone());
        }
    }
    d
}

fn message_delta(rows: &[(Vec<Value>, Vec<Value>)], insert: bool) -> EdbDelta {
    let mut d = EdbDelta::new();
    for (message, creator) in rows {
        if insert {
            d.insert(MESSAGE, message.clone()).insert(HAS_CREATOR, creator.clone());
        } else {
            d.delete(MESSAGE, message.clone()).delete(HAS_CREATOR, creator.clone());
        }
    }
    d
}

/// The batches an op writes, in order, and the IVM layer they exercise.
fn batches(op: &ChurnOp) -> (Vec<EdbDelta>, &'static str) {
    match op {
        ChurnOp::Insert(rows) => (vec![knows_delta(rows, true)], "ivm.insert"),
        ChurnOp::Delete(rows) => (vec![knows_delta(rows, false)], "ivm.delete"),
        ChurnOp::Dense(row) => {
            let row = std::slice::from_ref(row);
            (vec![knows_delta(row, false), knows_delta(row, true)], "ivm.dense")
        }
        ChurnOp::MsgInsert(rows) => (vec![message_delta(rows, true)], "ivm.insert"),
        ChurnOp::MsgDelete(rows) => (vec![message_delta(rows, false)], "ivm.delete"),
        ChurnOp::Read { .. } | ChurnOp::Checkpoint => (Vec::new(), ""),
    }
}

/// Read every row of a view, as a client fetching it would.
fn read_view(store: &DurableDatabase, view: usize) -> Result<usize, String> {
    let rel = store.prepared().view(view).ok_or("missing view")?;
    Ok(black_box(rel.iter().count()))
}

/// The untraced op. Writes apply to the store's working set and become
/// durable at the checkpoint that closes the round (see the module docs).
fn apply(state: &mut Store, op: &ChurnOp) -> Result<(), String> {
    match op {
        ChurnOp::Read { query, view } => {
            let r = &state.reads[*query];
            black_box(state.store.prepared_mut().run(&r.program, &r.output).map_err(err)?);
            read_view(&state.store, *view).map(drop)
        }
        ChurnOp::Checkpoint => state.store.checkpoint().map_err(err),
        _ => {
            for delta in batches(op).0 {
                state.store.prepared_mut().apply_delta(delta).map_err(err)?;
            }
            Ok(())
        }
    }
}

/// A warm-up write, untimed and untraced: to the twin if there is one, and
/// to the store the way the pass writes.
fn warm_up(state: &mut Store, op: &ChurnOp, traced: bool) -> Result<(), String> {
    for delta in batches(op).0 {
        if let Some(twin) = state.twin.as_mut() {
            twin.apply_delta(delta.clone()).map_err(err)?;
        }
        if traced {
            state.store.log_delta(delta).map_err(err)?;
        } else {
            state.store.prepared_mut().apply_delta(delta).map_err(err)?;
        }
    }
    Ok(())
}

/// Storage-side byte counts gathered in the traced pass.
#[derive(Default)]
struct Bytes {
    wal: f64,
    snapshot: f64,
}

fn file_len(path: PathBuf) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// The traced op: each batch first on the twin (a shadow `ivm.*` span),
/// then through the store's `log_delta`.
fn apply_traced(
    state: &mut Store,
    op: &ChurnOp,
    n: u64,
    bytes: &mut Bytes,
    tr: &mut Tracer,
) -> Result<(), String> {
    let root = tr.enter_op(n);
    let out = (|| {
        let twin = state.twin.as_mut().ok_or("the traced pass needs a twin")?;
        match op {
            ChurnOp::Read { query, view } => {
                let r = &state.reads[*query];
                let prepared = state.store.prepared_mut();
                let (compiles, builds) = (prepared.plan_compiles(), prepared.index_builds());
                let id = tr.enter("engine.run");
                let rows = prepared.run(&r.program, &r.output);
                let took = tr.exit(id);
                let rows = rows.map_err(err)?;
                engine_counters(prepared, compiles, builds, took, rows.len(), tr);
                read_view(&state.store, *view).map(drop)
            }
            ChurnOp::Checkpoint => {
                bytes.wal += file_len(state.store.dir().join("wal.raq"));
                tr.shadow("twin.compact", || twin.compact_edb());
                tr.span("storage.checkpoint", || state.store.checkpoint()).map_err(err)?;
                bytes.snapshot += file_len(state.store.dir().join("snapshot.raq"));
                Ok(())
            }
            _ => {
                let (deltas, layer) = batches(op);
                let view_rows: usize =
                    (0..twin.view_count()).filter_map(|i| twin.view(i)).map(Relation::len).sum();
                let stats = tr.shadow(layer, || {
                    deltas
                        .iter()
                        .map(|d| twin.apply_delta(d.clone()))
                        .collect::<Result<Vec<_>, _>>()
                });
                let derived: usize = stats.map_err(err)?.iter().map(|s| s.tuples_derived).sum();
                match layer {
                    "ivm.insert" => tr.count("ivm.insert.tuples_derived", derived as f64),
                    "ivm.delete" => {
                        tr.count("ivm.delete.tuples_derived", derived as f64);
                        tr.count("ivm.delete.view_rows", view_rows as f64);
                    }
                    _ => {}
                }
                for delta in deltas {
                    tr.span("storage.log_delta", || state.store.log_delta(delta)).map_err(err)?;
                }
                Ok(())
            }
        }
    })();
    tr.exit(root);
    out
}

/// Off the clock, at each checkpoint: every view equals a from-scratch
/// warm run of its program, and the twin's views equal the store's.
fn check_views(state: &mut Store, meter: &mut Meter) {
    for (i, spec) in state.views.iter().enumerate() {
        let fresh = state.store.prepared_mut().run(&spec.program, &spec.output);
        let view = state.store.prepared().view(i).map(Relation::sorted);
        match (fresh, view) {
            (Ok(fresh), Some(view)) if fresh.sorted() == view => {}
            (Ok(fresh), Some(view)) => meter.fail(format!(
                "view {} holds {} rows, a fresh run derives {}",
                spec.output,
                view.len(),
                fresh.len()
            )),
            (Err(e), _) => meter.fail(format!("fresh run of view {i}: {e}")),
            (_, None) => meter.fail(format!("view {i} is missing")),
        }
        if let Some(twin) = &state.twin {
            if twin.view(i).map(Relation::sorted)
                != state.store.prepared().view(i).map(Relation::sorted)
            {
                meter.fail(format!("twin and store disagree on view {i}"));
            }
        }
    }
}

/// Every relation of a database, sorted, for comparing across a reopen.
fn snapshot_rows(db: &Database) -> BTreeMap<String, Vec<Vec<Value>>> {
    db.iter().filter(|(_, r)| !r.is_empty()).map(|(n, r)| (n.clone(), r.sorted())).collect()
}

/// Off the clock, after the loop: reopening the store recovers the same
/// data and the same views.
fn check_recovery(state: &mut Store, meter: &mut Meter) {
    let edb = snapshot_rows(state.store.database());
    let views: Vec<Option<Vec<Vec<Value>>>> = (0..state.views.len())
        .map(|i| state.store.prepared().view(i).map(Relation::sorted))
        .collect();
    let dir = state.store.dir().to_path_buf();
    match DurableDatabase::open_with(&dir, StoreOptions::default(), &state.views) {
        Ok(reopened) => {
            if snapshot_rows(reopened.database()) != edb {
                meter.fail("the reopened store's data differs".into());
            }
            for (i, rows) in views.iter().enumerate() {
                if reopened.prepared().view(i).map(Relation::sorted) != *rows {
                    meter.fail(format!("the reopened store's view {i} differs"));
                }
            }
            state.store = reopened;
        }
        Err(e) => meter.fail(format!("reopening the store failed: {e}")),
    }
}

/// Stores per run; op `n` goes to store `n % STORES`. At SF 4 one seed's
/// graph can make deletes much dearer than another's.
pub const STORES: usize = 10;

/// Set up [`STORES`] stores from graphs generated from `seed`.
fn setup_all(seed: u64, twin: bool, tr: &mut Tracer) -> Result<Vec<Store>, String> {
    (0..STORES as u64)
        .map(|k| setup(seed.wrapping_mul(STORES as u64).wrapping_add(k), twin, tr))
        .collect()
}

fn pass(stores: &mut [Store], args: &Args, tr: &mut Tracer) -> (Meter, Bytes) {
    let mut meter = Meter::new(args.seconds, CHURN_ROUND_LEN * stores.len());
    let mut streams: Vec<ChurnStream> = stores
        .iter()
        .enumerate()
        .map(|(k, s)| {
            ChurnStream::new(
                args.seed.wrapping_mul(STORES as u64).wrapping_add(k as u64),
                s.ctx.clone(),
            )
        })
        .collect();
    let traced = tr.enabled();
    for (state, stream) in stores.iter_mut().zip(&mut streams) {
        for op in stream.warm_up() {
            if let Err(e) = meter.off_clock(|_| warm_up(state, &op, traced)) {
                meter.fail(format!("warm-up {}: {e}", op.kind().name()));
            }
        }
    }
    let mut bytes = Bytes::default();
    let io_before: u64 = stores.iter().map(|s| s.store.io_ops()).sum();
    let mut n = 0u64;
    while meter.running() {
        let k = n as usize % stores.len();
        let (state, op) = (&mut stores[k], streams[k].next_op());
        n += 1;
        let out = meter.time(op.kind().name(), || {
            if traced {
                apply_traced(state, &op, n, &mut bytes, tr)
            } else {
                apply(state, &op)
            }
        });
        if let Err(e) = out {
            meter.fail(format!("{}: {e}", op.kind().name()));
        }
        if op.kind() == ChurnKind::Checkpoint {
            meter.off_clock(|meter| check_views(state, meter));
        }
    }
    meter.stop();
    let io_after: u64 = stores.iter().map(|s| s.store.io_ops()).sum();
    tr.count("storage.io_ops", (io_after - io_before) as f64);
    for state in stores.iter_mut() {
        bytes.wal += file_len(state.store.dir().join("wal.raq"));
        meter.off_clock(|meter| check_recovery(state, meter));
    }
    (meter, bytes)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut tr = Tracer::new(false);
    let (stores, setup_s) = repeat_setup(SETUP_REPS, || setup_all(args.seed, false, &mut tr));
    let mut stores = stores?;

    let mut layers = BTreeMap::new();
    let mut traced = None;
    if args.trace {
        let mut tr = Tracer::new(true);
        let mut fresh = setup_all(args.seed, true, &mut tr)?;
        let (meter, bytes) = pass(&mut fresh, args, &mut tr);
        drop(fresh);
        let s = tr.summary();
        layers = layer_metrics(&tr, &s);
        engine_ratios(&tr, &mut layers);
        let twin_ms: f64 =
            ["ivm.insert", "ivm.delete", "ivm.dense"].iter().map(|l| s.busy_ms(l)).sum();
        layers.insert("storage.wal.self_ms", s.busy_ms("storage.log_delta") - twin_ms);
        layers.insert("storage.wal_bytes", bytes.wal);
        layers.insert("storage.snapshot_bytes", bytes.snapshot);
        let view_rows = tr.counter("ivm.delete.view_rows");
        if view_rows > 0.0 {
            layers.insert(
                "ivm.delete.derived_per_view_row",
                tr.counter("ivm.delete.tuples_derived") / view_rows,
            );
        }
        traced = Some(meter);
    }
    let (meter, _) = pass(&mut stores, args, &mut tr);
    if let Some(t) = &traced {
        layers.insert("trace.overhead", t.throughput() / meter.throughput());
        for kind in ChurnKind::ALL {
            layers.insert(kind.p50_metric(), meter.kind_p50(kind.name()));
        }
    }
    Ok(Outcome {
        setup_s,
        meter,
        layers,
        traced,
        facts: vec![
            ("scale_factor", format!("{SCALE}")),
            ("stores", format!("{STORES}")),
            ("store", format!("{STORE_ROOT}/ in the working directory")),
            ("fsync", "each checkpoint; each log_delta batch in the traced pass".into()),
        ],
    })
}
