//! Seeded op streams. Every workload draws its operations from here, so the
//! same `--seed` always yields the same inputs, whatever the program under
//! test does with them.
//!
//! Streams walk their op mix in rounds: each round is a fresh seeded
//! permutation of one fixed multiset of ops, so every run carries the same
//! mix and only the order and the parameters change with the seed. The
//! benchmark measures whole rounds only.

use raqlet::{CompileOptions, OptLevel, Value};
use raqlet_common::SplitMix64;
use raqlet_ldbc::{BenchmarkQuery, ALL_QUERIES};

/// First names the SNB generator draws from (the `$firstName` domain).
pub const FIRST_NAMES: &[&str] =
    &["Alice", "Bob", "Carol", "Dave", "Erin", "Frank", "Grace", "Heidi", "Ivan", "Judy"];

/// Message creation dates span `20_120_101 .. 20_190_101` in the generator.
const DATE_LO: i64 = 20_120_101;
const DATE_HI: i64 = 20_190_101;

/// A uniform float in `[0, 1)`.
fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Shuffle `items` in place (Fisher–Yates).
fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_index(0..i + 1));
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = unit(rng);
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// One compile request: a corpus query plus its parameter bindings. Every
/// query is bound with all four corpus parameters; unused ones are ignored.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOp {
    /// Index into [`ALL_QUERIES`].
    pub query: usize,
    pub person: i64,
    pub other: i64,
    pub max_date: i64,
    pub first_name: &'static str,
    /// Drawn for the outside-the-clock correctness sample.
    pub sampled: bool,
}

impl QueryOp {
    pub fn query(&self) -> &'static BenchmarkQuery {
        &ALL_QUERIES[self.query]
    }

    pub fn options(&self) -> CompileOptions {
        CompileOptions::new(OptLevel::Full)
            .with_param("personId", self.person)
            .with_param("otherId", self.other)
            .with_param("maxDate", self.max_date)
            .with_param("firstName", self.first_name)
    }

    /// The parameter bindings as the PGIR lowering takes them.
    pub fn params(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("personId", Value::Int(self.person)),
            ("otherId", Value::Int(self.other)),
            ("maxDate", Value::Int(self.max_date)),
            ("firstName", Value::str(self.first_name)),
        ]
    }
}

/// How a query stream picks person parameters.
#[derive(Debug, Clone)]
pub enum Persons {
    /// Every op gets ids no earlier op used, so inputs share no work;
    /// sampled ops draw from `data` instead, so their check sees real rows.
    Fresh { data: Vec<i64> },
    /// Zipf-skewed over `ids` (rank 0 = `ids[0]`), so some texts repeat.
    Zipf { ids: Vec<i64>, zipf: Zipf },
    /// Uniform over `ids`.
    Uniform { ids: Vec<i64> },
}

/// An endless, seeded stream of [`QueryOp`]s.
#[derive(Debug, Clone)]
pub struct QueryStream {
    rng: SplitMix64,
    persons: Persons,
    /// Share of ops drawn into the correctness sample.
    sample_rate: f64,
    round: Vec<usize>,
    issued: u64,
}

/// Ops in one round of a [`QueryStream`]: every corpus query once.
pub const QUERY_ROUND_LEN: usize = ALL_QUERIES.len();

impl QueryStream {
    pub fn new(seed: u64, persons: Persons, sample_rate: f64) -> Self {
        QueryStream {
            rng: SplitMix64::seed_from_u64(seed ^ 0x5EED_F0B5),
            persons,
            sample_rate,
            round: Vec::new(),
            issued: 0,
        }
    }

    pub fn next_op(&mut self) -> QueryOp {
        if self.round.is_empty() {
            self.round = (0..QUERY_ROUND_LEN).collect();
            shuffle(&mut self.rng, &mut self.round);
        }
        let query = self.round.pop().expect("a fresh round is never empty");
        let sampled = unit(&mut self.rng) < self.sample_rate;
        let issued = self.issued as i64;
        self.issued += 1;
        let (person, other, max_date) = match &self.persons {
            Persons::Fresh { data } if sampled => (
                data[self.rng.gen_index(0..data.len())],
                data[self.rng.gen_index(0..data.len())],
                self.rng.gen_range(DATE_LO..DATE_HI),
            ),
            // Fresh ids live far above the generator's id space (persons
            // start at 1000, messages at 100_000).
            Persons::Fresh { .. } => {
                (10_000_000 + 2 * issued, 10_000_001 + 2 * issued, DATE_LO + issued)
            }
            Persons::Zipf { ids, zipf } => (
                ids[zipf.sample(&mut self.rng)],
                ids[zipf.sample(&mut self.rng)],
                self.rng.gen_range(DATE_LO..DATE_HI),
            ),
            Persons::Uniform { ids } => (
                ids[self.rng.gen_index(0..ids.len())],
                ids[self.rng.gen_index(0..ids.len())],
                self.rng.gen_range(DATE_LO..DATE_HI),
            ),
        };
        let first_name = FIRST_NAMES[self.rng.gen_index(0..FIRST_NAMES.len())];
        QueryOp { query, person, other, max_date, first_name, sampled }
    }
}

/// The fixed facts a churn stream is generated against: who the standing
/// views are about, who may anchor a pendant edge, and which existing edges
/// the dense case may cut.
#[derive(Debug, Clone)]
pub struct ChurnContext {
    /// Persons in the component of the views' focus person.
    pub component: Vec<i64>,
    /// Direct friends of the focus person (message creators that move AGG1).
    pub friends: Vec<i64>,
    /// Existing in-component KNOWS rows.
    pub dense_edges: Vec<Vec<Value>>,
    /// Number of read programs compiled at setup.
    pub reads: usize,
    /// Number of standing views.
    pub views: usize,
}

/// A churn op kind, also the key of the per-kind latency metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    Insert,
    Delete,
    Dense,
    MsgInsert,
    MsgDelete,
    Read,
    Checkpoint,
}

impl ChurnKind {
    pub const ALL: [ChurnKind; 7] = [
        ChurnKind::Insert,
        ChurnKind::Delete,
        ChurnKind::Dense,
        ChurnKind::MsgInsert,
        ChurnKind::MsgDelete,
        ChurnKind::Read,
        ChurnKind::Checkpoint,
    ];

    pub fn name(self) -> &'static str {
        self.names().0
    }

    /// The per-layer metric holding this kind's median latency.
    pub fn p50_metric(self) -> &'static str {
        self.names().1
    }

    fn names(self) -> (&'static str, &'static str) {
        match self {
            ChurnKind::Insert => ("insert", "op.insert_p50_us"),
            ChurnKind::Delete => ("delete", "op.delete_p50_us"),
            ChurnKind::Dense => ("dense", "op.dense_p50_us"),
            ChurnKind::MsgInsert => ("msg_insert", "op.msg_insert_p50_us"),
            ChurnKind::MsgDelete => ("msg_delete", "op.msg_delete_p50_us"),
            ChurnKind::Read => ("read", "op.read_p50_us"),
            ChurnKind::Checkpoint => ("checkpoint", "op.checkpoint_p50_us"),
        }
    }
}

/// A message and its creator edge: `(Message row, HAS_CREATOR row)`.
pub type MessageRows = (Vec<Value>, Vec<Value>);

/// One churn operation.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnOp {
    /// Insert pendant `Person_KNOWS_Person` rows (each to a fresh node).
    Insert(Vec<Vec<Value>>),
    /// Delete pendant rows an earlier insert added.
    Delete(Vec<Vec<Value>>),
    /// Delete an existing in-component edge, then insert it again.
    Dense(Vec<Value>),
    MsgInsert(Vec<MessageRows>),
    MsgDelete(Vec<MessageRows>),
    /// Run read program `query` on the warm store, then read view `view`.
    Read {
        query: usize,
        view: usize,
    },
    Checkpoint,
}

impl ChurnOp {
    pub fn kind(&self) -> ChurnKind {
        match self {
            ChurnOp::Insert(_) => ChurnKind::Insert,
            ChurnOp::Delete(_) => ChurnKind::Delete,
            ChurnOp::Dense(_) => ChurnKind::Dense,
            ChurnOp::MsgInsert(_) => ChurnKind::MsgInsert,
            ChurnOp::MsgDelete(_) => ChurnKind::MsgDelete,
            ChurnOp::Read { .. } => ChurnKind::Read,
            ChurnOp::Checkpoint => ChurnKind::Checkpoint,
        }
    }
}

/// Rows per pendant-edge or message batch. Large batches keep the per-batch
/// WAL fsync a small share of each write, so disk noise moves the figures
/// less.
pub const CHURN_BATCH: usize = 48;
/// One round of churn: a seeded permutation of this multiset of kinds,
/// followed by a checkpoint.
const CHURN_ROUND: &[(ChurnKind, usize)] = &[
    (ChurnKind::Insert, 8),
    (ChurnKind::Delete, 8),
    (ChurnKind::Dense, 4),
    (ChurnKind::MsgInsert, 4),
    (ChurnKind::MsgDelete, 4),
    (ChurnKind::Read, 12),
];
/// Ops in one round of a [`ChurnStream`], the checkpoint included.
pub const CHURN_ROUND_LEN: usize = 41;

/// An endless, seeded stream of [`ChurnOp`]s. The stream models the rows it
/// has added itself, so deletes only ever name rows an earlier op inserted
/// and the stream never depends on the system's answers. The ids of deleted
/// rows are handed out again, so the value dictionary, the snapshots and
/// the cost of each op stop growing once the live rows reach their steady
/// size.
#[derive(Debug, Clone)]
pub struct ChurnStream {
    rng: SplitMix64,
    ctx: ChurnContext,
    round: Vec<ChurnKind>,
    live_edges: Vec<Vec<Value>>,
    live_messages: Vec<MessageRows>,
    next_id: i64,
    /// Ids of deleted rows, reused before any new one.
    free_ids: Vec<i64>,
}

impl ChurnStream {
    pub fn new(seed: u64, ctx: ChurnContext) -> Self {
        ChurnStream {
            rng: SplitMix64::seed_from_u64(seed ^ 0xC4_0A_11),
            ctx,
            round: Vec::new(),
            live_edges: Vec::new(),
            live_messages: Vec::new(),
            // Fresh node, message and edge ids, above every generated id.
            next_id: 50_000_000,
            free_ids: Vec::new(),
        }
    }

    /// An id no live row holds: a freed one, or one above every id so far.
    fn fresh_id(&mut self) -> i64 {
        self.free_ids.pop().unwrap_or_else(|| {
            self.next_id += 1;
            self.next_id
        })
    }

    /// Hand the ids at `cols` of a deleted row back for reuse.
    fn free(&mut self, row: &[Value], cols: &[usize]) {
        for &c in cols {
            if let Value::Int(id) = row[c] {
                self.free_ids.push(id);
            }
        }
    }

    fn next_kind(&mut self) -> ChurnKind {
        if self.round.is_empty() {
            self.round = CHURN_ROUND.iter().flat_map(|&(k, n)| std::iter::repeat_n(k, n)).collect();
            shuffle(&mut self.rng, &mut self.round);
            // Popped from the back, so the checkpoint closes the round.
            self.round.insert(0, ChurnKind::Checkpoint);
        }
        self.round.pop().expect("a fresh round is never empty")
    }

    /// Take up to a batch of live rows, chosen at random.
    fn take_live<T>(rng: &mut SplitMix64, live: &mut Vec<T>) -> Vec<T> {
        (0..CHURN_BATCH.min(live.len()))
            .map(|_| live.swap_remove(rng.gen_index(0..live.len())))
            .collect()
    }

    /// Insert batches to apply before the loop, one for each delete batch
    /// of a round. A round's deletes can run ahead of its inserts by at most
    /// that many batches, so after the warm-up no delete ever comes up
    /// short, and every round ends with as many live rows as it began with.
    /// Without it the live rows, and the cost of each op, would creep up
    /// through the run.
    pub fn warm_up(&mut self) -> Vec<ChurnOp> {
        let batches = |kind: ChurnKind| {
            CHURN_ROUND.iter().filter(|&&(k, _)| k == kind).map(|&(_, n)| n).sum::<usize>()
        };
        let mut ops = Vec::new();
        for _ in 0..batches(ChurnKind::Delete) {
            ops.push(self.op(ChurnKind::Insert));
        }
        for _ in 0..batches(ChurnKind::MsgDelete) {
            ops.push(self.op(ChurnKind::MsgInsert));
        }
        ops
    }

    pub fn next_op(&mut self) -> ChurnOp {
        let mut kind = self.next_kind();
        // A delete with nothing live to delete becomes the matching insert.
        if kind == ChurnKind::Delete && self.live_edges.is_empty() {
            kind = ChurnKind::Insert;
        }
        if kind == ChurnKind::MsgDelete && self.live_messages.is_empty() {
            kind = ChurnKind::MsgInsert;
        }
        self.op(kind)
    }

    fn op(&mut self, kind: ChurnKind) -> ChurnOp {
        match kind {
            ChurnKind::Insert => {
                let rows: Vec<Vec<Value>> = (0..CHURN_BATCH)
                    .map(|_| {
                        let anchor =
                            self.ctx.component[self.rng.gen_index(0..self.ctx.component.len())];
                        let node = self.fresh_id();
                        let edge = self.fresh_id();
                        let date = self.rng.gen_range(20_110_101..20_190_101);
                        vec![
                            Value::Int(anchor),
                            Value::Int(node),
                            Value::Int(edge),
                            Value::Int(date),
                        ]
                    })
                    .collect();
                self.live_edges.extend(rows.iter().cloned());
                ChurnOp::Insert(rows)
            }
            ChurnKind::Delete => {
                let rows = Self::take_live(&mut self.rng, &mut self.live_edges);
                for row in &rows {
                    // The pendant node and the edge.
                    self.free(row, &[1, 2]);
                }
                ChurnOp::Delete(rows)
            }
            ChurnKind::Dense => ChurnOp::Dense(
                self.ctx.dense_edges[self.rng.gen_index(0..self.ctx.dense_edges.len())].clone(),
            ),
            ChurnKind::MsgInsert => {
                let rows: Vec<MessageRows> = (0..CHURN_BATCH)
                    .map(|_| {
                        let creator =
                            self.ctx.friends[self.rng.gen_index(0..self.ctx.friends.len())];
                        let id = self.fresh_id();
                        let edge = self.fresh_id();
                        let date = self.rng.gen_range(DATE_LO..DATE_HI);
                        let message = vec![
                            Value::Int(id),
                            Value::Int(date),
                            Value::str(format!("message-{id}")),
                            Value::Int(self.rng.gen_range(10..200)),
                        ];
                        (message, vec![Value::Int(id), Value::Int(creator), Value::Int(edge)])
                    })
                    .collect();
                self.live_messages.extend(rows.iter().cloned());
                ChurnOp::MsgInsert(rows)
            }
            ChurnKind::MsgDelete => {
                let rows = Self::take_live(&mut self.rng, &mut self.live_messages);
                for (message, creator) in &rows {
                    self.free(message, &[0]);
                    self.free(creator, &[2]);
                }
                ChurnOp::MsgDelete(rows)
            }
            ChurnKind::Read => ChurnOp::Read {
                query: self.rng.gen_index(0..self.ctx.reads),
                view: self.rng.gen_index(0..self.ctx.views),
            },
            ChurnKind::Checkpoint => ChurnOp::Checkpoint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn persons() -> Vec<i64> {
        (1000..1100).collect()
    }

    fn all_persons() -> Vec<Persons> {
        vec![
            Persons::Fresh { data: persons() },
            Persons::Zipf { ids: persons(), zipf: Zipf::new(100, 1.0) },
            Persons::Uniform { ids: persons() },
        ]
    }

    fn query_ops(seed: u64, persons: Persons, n: usize) -> Vec<QueryOp> {
        let mut stream = QueryStream::new(seed, persons, 0.05);
        (0..n).map(|_| stream.next_op()).collect()
    }

    fn churn_ctx() -> ChurnContext {
        ChurnContext {
            component: persons(),
            friends: vec![1001, 1002, 1003],
            dense_edges: vec![vec![
                Value::Int(1000),
                Value::Int(1001),
                Value::Int(1),
                Value::Int(2),
            ]],
            reads: 6,
            views: 3,
        }
    }

    fn churn_ops(seed: u64, n: usize) -> Vec<ChurnOp> {
        let mut stream = ChurnStream::new(seed, churn_ctx());
        (0..n).map(|_| stream.next_op()).collect()
    }

    #[test]
    fn same_seed_gives_an_identical_query_stream() {
        for persons in all_persons() {
            assert_eq!(query_ops(7, persons.clone(), 500), query_ops(7, persons, 500));
        }
    }

    #[test]
    fn different_seeds_give_different_query_streams() {
        for persons in all_persons() {
            assert_ne!(query_ops(7, persons.clone(), 500), query_ops(8, persons, 500));
        }
    }

    #[test]
    fn same_seed_gives_an_identical_churn_stream() {
        assert_eq!(churn_ops(3, 1000), churn_ops(3, 1000));
    }

    #[test]
    fn different_seeds_give_different_churn_streams() {
        assert_ne!(churn_ops(3, 1000), churn_ops(4, 1000));
    }

    #[test]
    fn every_round_carries_the_whole_corpus() {
        let ops = query_ops(11, Persons::Uniform { ids: persons() }, QUERY_ROUND_LEN * 5);
        for round in ops.chunks(QUERY_ROUND_LEN) {
            let mut seen: Vec<usize> = round.iter().map(|op| op.query).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..ALL_QUERIES.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_churn_round_ends_with_a_checkpoint() {
        let total: usize = CHURN_ROUND.iter().map(|&(_, n)| n).sum();
        assert_eq!(total + 1, CHURN_ROUND_LEN);
        let ops = churn_ops(2, CHURN_ROUND_LEN * 3);
        for round in ops.chunks(CHURN_ROUND_LEN) {
            let checkpoints: Vec<usize> =
                (0..round.len()).filter(|&i| round[i].kind() == ChurnKind::Checkpoint).collect();
            assert_eq!(checkpoints, vec![CHURN_ROUND_LEN - 1]);
        }
    }

    #[test]
    fn fresh_params_never_repeat_outside_the_sample() {
        let ops = query_ops(5, Persons::Fresh { data: persons() }, 2000);
        let mut keys: Vec<(i64, i64, i64)> = ops
            .iter()
            .filter(|op| !op.sampled)
            .map(|op| (op.person, op.other, op.max_date))
            .collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n);
        assert!(ops.iter().any(|op| op.sampled), "the sample must not be empty");
    }

    #[test]
    fn churn_reuses_the_ids_of_deleted_rows_and_never_a_live_one() {
        let int = |v: &Value| match v {
            Value::Int(i) => *i,
            other => panic!("expected an id, got {other:?}"),
        };
        let mut live = std::collections::HashSet::new();
        let (mut handed_out, mut distinct) = (0, std::collections::HashSet::new());
        for op in churn_ops(9, 4000) {
            let (added, removed): (Vec<i64>, Vec<i64>) = match &op {
                ChurnOp::Insert(rows) => {
                    (rows.iter().flat_map(|r| [int(&r[1]), int(&r[2])]).collect(), vec![])
                }
                ChurnOp::Delete(rows) => {
                    (vec![], rows.iter().flat_map(|r| [int(&r[1]), int(&r[2])]).collect())
                }
                ChurnOp::MsgInsert(rows) => {
                    (rows.iter().flat_map(|(m, c)| [int(&m[0]), int(&c[2])]).collect(), vec![])
                }
                ChurnOp::MsgDelete(rows) => {
                    (vec![], rows.iter().flat_map(|(m, c)| [int(&m[0]), int(&c[2])]).collect())
                }
                _ => (vec![], vec![]),
            };
            for id in removed {
                assert!(live.remove(&id));
            }
            for id in added {
                assert!(live.insert(id), "id {id} handed out while a live row holds it");
                handed_out += 1;
                distinct.insert(id);
            }
        }
        assert!(distinct.len() * 4 < handed_out, "{} distinct of {handed_out}", distinct.len());
    }

    #[test]
    fn after_the_warm_up_every_round_keeps_the_live_rows_steady() {
        let mut stream = ChurnStream::new(4, churn_ctx());
        let warm = stream.warm_up();
        assert!(warm
            .iter()
            .all(|op| matches!(op.kind(), ChurnKind::Insert | ChurnKind::MsgInsert)));
        let live = (stream.live_edges.len(), stream.live_messages.len());
        assert_eq!(live, (8 * CHURN_BATCH, 4 * CHURN_BATCH));
        for _ in 0..20 {
            for _ in 0..CHURN_ROUND_LEN {
                match stream.next_op() {
                    ChurnOp::Delete(rows) | ChurnOp::Insert(rows) => {
                        assert_eq!(rows.len(), CHURN_BATCH)
                    }
                    ChurnOp::MsgDelete(rows) | ChurnOp::MsgInsert(rows) => {
                        assert_eq!(rows.len(), CHURN_BATCH)
                    }
                    _ => {}
                }
            }
            assert_eq!((stream.live_edges.len(), stream.live_messages.len()), live);
        }
    }

    #[test]
    fn churn_deletes_only_name_rows_inserted_earlier() {
        let mut live_edges = std::collections::HashSet::new();
        let mut live_messages = std::collections::HashSet::new();
        let mut checkpoints = 0;
        for op in churn_ops(9, 2000) {
            match op {
                ChurnOp::Insert(rows) => live_edges.extend(rows),
                ChurnOp::Delete(rows) => {
                    assert!(!rows.is_empty());
                    for row in rows {
                        assert!(live_edges.remove(&row), "deleted a row never inserted");
                    }
                }
                ChurnOp::MsgInsert(rows) => live_messages.extend(rows),
                ChurnOp::MsgDelete(rows) => {
                    assert!(!rows.is_empty());
                    for row in rows {
                        assert!(live_messages.remove(&row), "deleted a message never inserted");
                    }
                }
                ChurnOp::Checkpoint => checkpoints += 1,
                ChurnOp::Dense(_) | ChurnOp::Read { .. } => {}
            }
        }
        assert_eq!(checkpoints, 2000 / CHURN_ROUND_LEN);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(1000, 1.0);
        let mut rng = SplitMix64::seed_from_u64(1);
        let draws: Vec<usize> = (0..10_000).map(|_| zipf.sample(&mut rng)).collect();
        let top = draws.iter().filter(|&&r| r == 0).count();
        let tail = draws.iter().filter(|&&r| r == 999).count();
        assert!(top > 500 && tail < 20, "top {top}, tail {tail}");
        assert!(draws.iter().all(|&r| r < 1000));
    }
}
