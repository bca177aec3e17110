//! The three workloads and the seeded op stream each one replays.
//!
//! A workload fixes a graph (generated from a constant seed, so every run
//! serves the same data), an index regime, and the shape of its traffic.
//! Every pass of 64 reads holds the same multiset of requests; the
//! `--seed` argument drives the op stream: the order of the reads in
//! each pass, how Zipf reads are respelled, and which edges are written.
//! One seed gives a byte-identical stream of request bodies.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rpq_bench::querygen::{generate_pq, generate_rq, QueryParams};
use rpq_core::incremental::Update;
use rpq_core::pq::Pq;
use rpq_core::predicate::Predicate;
use rpq_core::rq::Rq;
use rpq_engine::Query;
use rpq_graph::gen::{clustered, youtube_like};
use rpq_graph::{Color, Graph, NodeId};
use rpq_regex::canon::runs;
use rpq_regex::{Atom, FRegex, Quant};
use rpq_server::wire;
use std::collections::{HashMap, HashSet};

/// Which index a workload's reads plan on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// The per-color distance matrix (graphs up to the matrix node limit).
    Matrix,
    /// Pruned 2-hop labels (graphs over the limit).
    Hop,
}

/// How read requests are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reads {
    /// `querygen` queries, 7 RQs and 1 PQ per request, from a pool of
    /// distinct requests that no graph version reads twice.
    Unique,
    /// Two queries per request in exact Zipf(1.1) shares of a 12-RQ
    /// pool, 30% of them respelled and some of those narrowed.
    Zipf,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub regime: Regime,
    pub reads: Reads,
    /// Read requests between two writes.
    pub reads_per_write: usize,
    /// Standing PQs registered at setup (maintained by every write).
    pub standing: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Write cycles the traced pass replays (a fixed op count, so its
    /// counts repeat exactly for one seed).
    pub traced_cycles: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "dm-unique",
        regime: Regime::Matrix,
        reads: Reads::Unique,
        reads_per_write: 8,
        standing: 2,
        setups: 5,
        traced_cycles: 12,
    },
    Workload {
        name: "hop-unique",
        regime: Regime::Hop,
        reads: Reads::Unique,
        reads_per_write: 16,
        standing: 0,
        setups: 5,
        traced_cycles: 8,
    },
    Workload {
        name: "hop-zipf",
        regime: Regime::Hop,
        reads: Reads::Zipf,
        reads_per_write: 64,
        standing: 0,
        setups: 5,
        traced_cycles: 8,
    },
];

/// Seed of every workload graph: the data stay fixed across runs.
const GRAPH_SEED: u64 = 7;
/// Effective updates per write: this many deletes of present edges,
/// then as many inserts of absent ones.
pub const DELETES_PER_WRITE: usize = 2;
pub const INSERTS_PER_WRITE: usize = 2;
/// RQs and PQs per `Reads::Unique` request.
const UNIQUE_RQS: usize = 7;
const UNIQUE_PQS: usize = 1;
/// Queries per `Reads::Zipf` request, and the mix's parameters.
const ZIPF_BATCH: usize = 2;
pub const ZIPF_S: f64 = 1.1;
const ZIPF_VARIANT_RATE: f64 = 0.3;
/// Share of the respelled variants whose source predicate is narrowed.
const ZIPF_NARROWED_RATE: f64 = 1.0 / 3.0;
/// Read requests per pass of the stream; a multiple of every workload's
/// `reads_per_write`.
pub const PASS_READS: usize = 64;
/// Seed of the `Reads::Unique` request pool: every run reads the same
/// requests, in its own order.
const POOL_SEED: u64 = 11;

/// Standing PQs of the matrix workload (youtube_like vocabulary), each
/// anchored at one uploader's videos and non-empty on the initial graph.
const STANDING: [&str; 2] = [
    "node a: uid = 6; node b: cat = \"Music\"; edge a -> b: fr^3;",
    "node a: uid = 4; node b: view >= 100000; node c: cat = \"Comedy\"; \
     edge a -> b: _^3; edge b -> c: _^3;",
];

/// PQ shape of the unique reads.
const PQ_PARAMS: QueryParams = QueryParams {
    nodes: 3,
    edges: 3,
    preds: 2,
    bound: 3,
    colors: 2,
    redundant: false,
};

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The workload's graph: `youtube_like(2000)` under the 2048-node
    /// matrix limit, `clustered(4000, 14000, …)` over it.
    pub fn graph(&self) -> Graph {
        match self.regime {
            Regime::Matrix => youtube_like(2000, GRAPH_SEED),
            Regime::Hop => clustered(4000, 14_000, 8, 2, 3, 3, GRAPH_SEED),
        }
    }

    /// The standing PQs registered before serving: patterns anchored at
    /// one uploader's videos (about 8 of 2000), the shape a user follows.
    pub fn standing_queries(&self, g: &Graph) -> Vec<Pq> {
        STANDING
            .iter()
            .take(self.standing)
            .map(|text| {
                rpq_core::lang::parse_pq(text, g.schema(), g.alphabet())
                    .expect("standing query parses against the workload graph")
            })
            .collect()
    }

    pub fn queries_per_read(&self) -> usize {
        match self.reads {
            Reads::Unique => UNIQUE_RQS + UNIQUE_PQS,
            Reads::Zipf => ZIPF_BATCH,
        }
    }
}

/// One request of the stream with its wire body.
#[derive(Debug, Clone)]
pub enum Op {
    Read { queries: Vec<Query>, body: String },
    Write { updates: Vec<Update>, body: String },
}

impl Op {
    #[cfg(test)]
    pub fn body(&self) -> &str {
        match self {
            Op::Read { body, .. } | Op::Write { body, .. } => body,
        }
    }
}

/// How often each of `ranks` Zipf(s) ranks occurs among `total` draws:
/// the exact Zipf shares of `total`, rounded by largest remainder so they
/// sum to `total`. Each pass of a stream holds exactly these counts, so
/// runs differ in order, not in how much of each query they read.
pub fn zipf_counts(ranks: usize, s: f64, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=ranks).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..ranks).collect();
    by_remainder.sort_by(|&a, &b| {
        let frac = |i: usize| exact[i] - exact[i].floor();
        frac(b).total_cmp(&frac(a)).then(a.cmp(&b))
    });
    let short = total - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(xs: &mut [T], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_range(0..i + 1));
    }
}

/// How a Zipf read respells its pool query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// The pool query as written.
    Plain,
    /// Same language, quantifier slack moved within each run.
    Respelled,
    /// Respelled, with a narrowed source predicate.
    Narrowed,
}

/// The edge set the stream writes against, mirrored on the client side
/// so that every delete names a present edge and every insert an absent
/// one. Kept as a vector plus a position map: sampling is by index, so
/// the draw order never depends on hash iteration order.
struct EdgeSet {
    edges: Vec<(NodeId, NodeId, Color)>,
    position: HashMap<(NodeId, NodeId, Color), usize>,
}

impl EdgeSet {
    fn new(g: &Graph) -> Self {
        let edges: Vec<_> = g.edges().collect();
        let position = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        EdgeSet { edges, position }
    }

    fn contains(&self, e: &(NodeId, NodeId, Color)) -> bool {
        self.position.contains_key(e)
    }

    fn remove_at(&mut self, i: usize) -> (NodeId, NodeId, Color) {
        let e = self.edges.swap_remove(i);
        self.position.remove(&e);
        if let Some(&moved) = self.edges.get(i) {
            self.position.insert(moved, i);
        }
        e
    }

    fn insert(&mut self, e: (NodeId, NodeId, Color)) {
        self.position.insert(e, self.edges.len());
        self.edges.push(e);
    }
}

/// The endless, seeded stream of requests: `reads_per_write` reads, then
/// one write, repeated. Reads come in passes of [`PASS_READS`] requests,
/// each pass the same multiset in a fresh seeded order (see
/// [`OpStream::new`]).
pub struct OpStream<'g> {
    workload: Workload,
    graph: &'g Graph,
    rng: StdRng,
    edges: EdgeSet,
    colors: Vec<Color>,
    /// `Reads::Unique`: the pool of read requests, one pass's worth.
    unique: Vec<(Vec<Query>, String)>,
    /// `Reads::Zipf`: the popular RQs and one pass's (rank, variant) mix.
    pool: Vec<(Rq, String)>,
    zipf_mix: Vec<(usize, Variant)>,
    /// The current pass, as indices into `unique` or `zipf_mix`.
    order: Vec<usize>,
    emitted: usize,
}

impl<'g> OpStream<'g> {
    /// The stream over `graph` (the workload's initial graph; updates
    /// never change its vocabulary or node attributes, so every query is
    /// generated against it).
    ///
    /// Every pass reads the same multiset of requests: for
    /// `Reads::Unique` a pool of [`PASS_READS`] `querygen` requests
    /// generated from a constant seed, for `Reads::Zipf` the pool RQs in
    /// their exact Zipf shares, 30% of each respelled and a third of
    /// those narrowed. `seed` decides the order within each pass, the
    /// respellings and the written edges. Passes start on a write
    /// boundary, so no request repeats within one graph version.
    pub fn new(workload: Workload, graph: &'g Graph, seed: u64) -> Self {
        assert_eq!(PASS_READS % workload.reads_per_write, 0);
        let mut stream = OpStream {
            workload,
            graph,
            rng: StdRng::seed_from_u64(seed),
            edges: EdgeSet::new(graph),
            colors: graph.alphabet().colors().collect(),
            unique: Vec::new(),
            pool: Vec::new(),
            zipf_mix: Vec::new(),
            order: Vec::new(),
            emitted: 0,
        };
        match workload.reads {
            Reads::Unique => stream.unique = unique_pool(graph),
            Reads::Zipf => {
                stream.pool = zipf_pool(graph);
                stream.zipf_mix = zipf_mix(stream.pool.len(), PASS_READS * ZIPF_BATCH);
            }
        }
        stream
    }

    /// The next pass's order, freshly shuffled.
    fn start_pass(&mut self) {
        let n = match self.workload.reads {
            Reads::Unique => self.unique.len(),
            Reads::Zipf => self.zipf_mix.len(),
        };
        self.order = (0..n).collect();
        shuffle(&mut self.order, &mut self.rng);
    }

    fn read(&mut self) -> Op {
        let g = self.graph;
        if self.order.is_empty() {
            self.start_pass();
        }
        let (queries, body) = match self.workload.reads {
            Reads::Unique => {
                let i = self.order.pop().expect("a pass holds a read");
                self.unique[i].clone()
            }
            Reads::Zipf => {
                let queries: Vec<Query> = (0..ZIPF_BATCH)
                    .map(|_| {
                        let i = self.order.pop().expect("a pass holds whole requests");
                        let (rank, variant) = self.zipf_mix[i];
                        let (base, from_text) = &self.pool[rank];
                        let mut rq = base.clone();
                        if variant != Variant::Plain {
                            rq.regex = respell(&rq.regex, &mut self.rng);
                        }
                        if variant == Variant::Narrowed {
                            rq.from =
                                Predicate::parse(&format!("{from_text} && a1 <= 7"), g.schema())
                                    .expect("narrowed pool predicate parses");
                        }
                        Query::Rq(rq)
                    })
                    .collect();
                let body = wire::encode_queries(&queries, g);
                (queries, body)
            }
        };
        Op::Read { queries, body }
    }

    fn write(&mut self) -> Op {
        let n = self.graph.node_count() as u32;
        let mut touched = HashSet::new();
        let mut updates = Vec::with_capacity(DELETES_PER_WRITE + INSERTS_PER_WRITE);
        for _ in 0..DELETES_PER_WRITE {
            let e = self
                .edges
                .remove_at(self.rng.gen_range(0..self.edges.edges.len()));
            touched.insert(e);
            updates.push(Update::Delete(e.0, e.1, e.2));
        }
        while updates.len() < DELETES_PER_WRITE + INSERTS_PER_WRITE {
            let u = NodeId(self.rng.gen_range(0..n));
            let v = NodeId(self.rng.gen_range(0..n));
            let c = self.colors[self.rng.gen_range(0..self.colors.len())];
            let e = (u, v, c);
            if u == v || self.edges.contains(&e) || touched.contains(&e) {
                continue;
            }
            self.edges.insert(e);
            touched.insert(e);
            updates.push(Update::Insert(u, v, c));
        }
        let body = wire::encode_updates(&updates, self.graph);
        Op::Write { updates, body }
    }
}

impl Iterator for OpStream<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let cycle = self.workload.reads_per_write + 1;
        let op = if self.emitted % cycle == self.workload.reads_per_write {
            self.write()
        } else {
            self.read()
        };
        self.emitted += 1;
        Some(op)
    }
}

/// The [`PASS_READS`] requests of a `Reads::Unique` pass: fresh
/// `querygen` queries, 7 RQs and 1 PQ each, never two alike.
fn unique_pool(g: &Graph) -> Vec<(Vec<Query>, String)> {
    let mut rng = StdRng::seed_from_u64(POOL_SEED);
    (0..PASS_READS)
        .map(|_| {
            let mut qs: Vec<Query> = (0..UNIQUE_RQS)
                .map(|_| Query::Rq(generate_rq(g, 2, 3, 2, rng.next_u64())))
                .collect();
            qs.extend(
                (0..UNIQUE_PQS).map(|_| Query::Pq(generate_pq(g, &PQ_PARAMS, rng.next_u64()))),
            );
            let body = wire::encode_queries(&qs, g);
            (qs, body)
        })
        .collect()
}

/// One pass's `total` Zipf queries over `ranks` pool RQs as (rank,
/// variant) pairs: each rank its exact Zipf share, of which 30%
/// (rounded) respelled and a third of those narrowed.
fn zipf_mix(ranks: usize, total: usize) -> Vec<(usize, Variant)> {
    let mut mix = Vec::with_capacity(total);
    for (rank, count) in zipf_counts(ranks, ZIPF_S, total).into_iter().enumerate() {
        let variants = (count as f64 * ZIPF_VARIANT_RATE).round() as usize;
        let narrowed = (variants as f64 * ZIPF_NARROWED_RATE).round() as usize;
        mix.extend((0..count).map(|i| {
            let variant = if i < narrowed {
                Variant::Narrowed
            } else if i < variants {
                Variant::Respelled
            } else {
                Variant::Plain
            };
            (rank, variant)
        }));
    }
    mix
}

/// The 12 popular RQs of the Zipf mix, each with its source-predicate
/// text so narrowed forms can append a conjunct.
fn zipf_pool(g: &Graph) -> Vec<(Rq, String)> {
    const REGEXES: [&str; 12] = [
        "c0^3", "c1^2 c0", "c0 c1^3", "c2^2 c1", "c0+", "c1^4", "c2 c0^2", "c1 c2^2", "c0^2 c2",
        "c2+", "c0 c1 c0", "c1^3 c2",
    ];
    REGEXES
        .iter()
        .enumerate()
        .map(|(i, regex)| {
            let from = format!("a0 <= {}", 4 + i % 4);
            let to = format!("a1 >= {}", i % 3);
            let rq = Rq::new(
                Predicate::parse(&from, g.schema()).expect("pool source predicate parses"),
                Predicate::parse(&to, g.schema()).expect("pool target predicate parses"),
                FRegex::parse(regex, g.alphabet()).expect("pool regex parses"),
            );
            (rq, from)
        })
        .collect()
}

/// A syntactic variant of `re` with the same language: each maximal
/// same-color run keeps its (min, max) interval, with the quantifier
/// slack moved to a random position of the run.
fn respell(re: &FRegex, rng: &mut StdRng) -> FRegex {
    let mut atoms = Vec::new();
    for run in runs(re) {
        let n = run.min as usize;
        let pos = rng.gen_range(0..n);
        let tail = match run.max {
            None => Quant::Plus,
            Some(m) => match (m - run.min as u64) as u32 {
                0 => Quant::One,
                slack => Quant::AtMost(slack + 1),
            },
        };
        for j in 0..n {
            atoms.push(Atom::new(
                run.color,
                if j == pos { tail } else { Quant::One },
            ));
        }
    }
    FRegex::new(atoms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_graph::gen::clustered;

    fn small_graph() -> Graph {
        clustered(300, 1_000, 4, 2, 3, 3, 1)
    }

    fn stream_bytes(w: Workload, g: &Graph, seed: u64, ops: usize) -> String {
        OpStream::new(w, g, seed)
            .take(ops)
            .map(|op| op.body().to_owned())
            .collect::<Vec<_>>()
            .join("\u{1e}")
    }

    #[test]
    fn zipf_counts_are_exact_shares() {
        let total = PASS_READS * ZIPF_BATCH;
        let counts = zipf_counts(12, ZIPF_S, total);
        assert_eq!(counts.iter().sum::<usize>(), total);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        assert!(counts[11] > 0, "every pool RQ is read in each pass");
        let weight = |r: usize| 1.0 / (r as f64).powf(ZIPF_S);
        let sum: f64 = (1..=12).map(weight).sum();
        for (rank, c) in counts.iter().enumerate() {
            let share = weight(rank + 1) / sum * total as f64;
            assert!((*c as f64 - share).abs() < 1.0, "{c} vs {share}");
        }
        let mix = zipf_mix(12, PASS_READS * ZIPF_BATCH);
        let variants = mix.iter().filter(|(_, v)| *v != Variant::Plain).count();
        assert!((variants as f64 / mix.len() as f64 - ZIPF_VARIANT_RATE).abs() < 0.05);
        assert!(mix.iter().any(|(_, v)| *v == Variant::Narrowed));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let shuffled = |seed| {
            let mut xs: Vec<usize> = (0..100).collect();
            shuffle(&mut xs, &mut StdRng::seed_from_u64(seed));
            xs
        };
        assert_eq!(shuffled(5), shuffled(5));
        assert_ne!(shuffled(5), shuffled(6));
        let mut sorted = shuffled(5);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn passes_repeat_one_multiset_and_versions_never_repeat_a_read() {
        let g = small_graph();
        for w in WORKLOADS {
            let reads = |seed| -> Vec<Vec<String>> {
                let bodies: Vec<String> = OpStream::new(w, &g, seed)
                    .take(2 * PASS_READS / w.reads_per_write * (w.reads_per_write + 1))
                    .filter_map(|op| match op {
                        Op::Read { body, .. } => Some(body),
                        Op::Write { .. } => None,
                    })
                    .collect();
                bodies.chunks(PASS_READS).map(<[String]>::to_vec).collect()
            };
            let sorted = |mut xs: Vec<String>| {
                xs.sort();
                xs
            };
            let (a, b) = (reads(1), reads(2));
            assert_eq!(a.len(), 2);
            assert_ne!(a, b, "{}: the seed orders the reads", w.name);
            if w.reads == Reads::Unique {
                // same requests in every pass and every run
                assert_eq!(sorted(a[0].clone()), sorted(a[1].clone()), "{}", w.name);
                assert_eq!(sorted(a[0].clone()), sorted(b[0].clone()), "{}", w.name);
                for version in a[0].chunks(w.reads_per_write) {
                    let distinct: HashSet<&String> = version.iter().collect();
                    assert_eq!(distinct.len(), version.len(), "{}", w.name);
                }
            }
        }
    }

    #[test]
    fn one_seed_gives_a_byte_identical_stream() {
        let g = small_graph();
        for w in WORKLOADS {
            let ops = 2 * (w.reads_per_write + 1);
            let a = stream_bytes(w, &g, 42, ops);
            assert_eq!(a, stream_bytes(w, &g, 42, ops), "{}", w.name);
            assert_ne!(a, stream_bytes(w, &g, 43, ops), "{}", w.name);
        }
    }

    #[test]
    fn every_write_changes_the_graph() {
        let g = small_graph();
        let w = Workload::by_name("dm-unique").unwrap();
        let mut dynamic = rpq_core::incremental::DynamicGraph::new(g.clone());
        let mut writes = 0;
        for op in OpStream::new(w, &g, 9).take(40 * (w.reads_per_write + 1)) {
            if let Op::Write { updates, body } = op {
                assert_eq!(wire::parse_update_body(&body, &g).unwrap(), updates);
                let effective = dynamic.apply(&updates);
                assert_eq!(effective.len(), DELETES_PER_WRITE + INSERTS_PER_WRITE);
                writes += 1;
            }
        }
        assert_eq!(writes, 40);
    }

    #[test]
    fn standing_queries_have_answers_on_the_workload_graph() {
        let w = Workload::by_name("dm-unique").unwrap();
        let g = w.graph();
        let standing = w.standing_queries(&g);
        assert_eq!(standing.len(), w.standing);
        for pq in standing {
            assert!(pq.eval_naive(&g).size() > 0);
        }
    }

    #[test]
    fn read_bodies_parse_back_to_the_generated_queries() {
        let g = small_graph();
        for w in WORKLOADS {
            for op in OpStream::new(w, &g, 3).take(w.reads_per_write) {
                let Op::Read { queries, body } = op else {
                    panic!("a stream opens with reads")
                };
                let parsed = wire::parse_query_body(&body, &g).unwrap();
                assert_eq!(parsed.len(), w.queries_per_read());
                assert_eq!(wire::encode_queries(&parsed, &g), body);
                assert_eq!(queries.len(), parsed.len());
            }
        }
    }
}
