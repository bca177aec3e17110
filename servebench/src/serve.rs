//! Set-up and the untraced pass: an in-process `rpq-server` on loopback,
//! driven by one keep-alive client in a closed loop.

use crate::workload::{Op, OpStream, Regime, Workload, DELETES_PER_WRITE, INSERTS_PER_WRITE};
use rpq_engine::{
    BatchItem, EngineConfig, Query, QueryEngine, QueryOutput, Snapshot, UpdatableEngine,
};
use rpq_graph::{DistanceMatrix, Graph};
use rpq_server::json::Json;
use rpq_server::{wire, Client, Server, ServerConfig};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine worker threads, fixed so that runs compare across machines.
pub const WORKERS: usize = 2;
/// One read in this many is checked against index-free evaluation.
const VERIFY_EVERY: u64 = 16;
/// At most this many reads are checked per pass.
const VERIFY_MAX: usize = 8;

pub fn engine_config() -> EngineConfig {
    EngineConfig::builder()
        .workers(WORKERS)
        .build()
        .expect("fixed worker count is a valid config")
}

/// A configuration with every index disabled: answers come from search
/// alone, an independent reference for the indexed plans.
fn search_only_config() -> EngineConfig {
    EngineConfig::builder()
        .workers(WORKERS)
        .matrix_node_limit(0)
        .hop_label_budget(0)
        .build()
        .expect("index-free config is valid")
}

/// Make `snapshot`'s index usable now, through the engine's public
/// calls, and return its size in bytes.
pub fn ready_index(regime: Regime, snapshot: &Snapshot) -> Result<u64, String> {
    let engine = snapshot.engine();
    match regime {
        Regime::Matrix => engine
            .matrix()
            .map(|_| DistanceMatrix::bytes_for(snapshot.graph()) as u64)
            .ok_or_else(|| "graph is over the matrix node limit".to_owned()),
        Regime::Hop => engine
            .force_hop_labels()
            .map(|labels| labels.bytes() as u64)
            .ok_or_else(|| "hop-label build refused or over budget".to_owned()),
    }
}

/// The live engine of a workload: graph generated, standing queries
/// registered, initial index built. Returns the engine and its index size.
pub fn build_engine(w: &Workload) -> Result<(Arc<UpdatableEngine>, u64), String> {
    let engine = Arc::new(UpdatableEngine::with_config(w.graph(), engine_config()));
    let graph = Arc::clone(engine.snapshot().graph());
    for pq in w.standing_queries(&graph) {
        engine.register_pq(pq);
    }
    let bytes = ready_index(w.regime, &engine.snapshot())?;
    Ok((engine, bytes))
}

/// A running deployment: the engine, its server, one connected client.
pub struct Served {
    pub engine: Arc<UpdatableEngine>,
    pub index_bytes: u64,
    server: Server,
    client: Client,
}

impl Served {
    /// Stop the server and wait for its threads.
    pub fn stop(self) {
        drop(self.client);
        self.server.shutdown();
    }
}

/// Everything `setup_s` covers: graph generation, engine and standing
/// queries, the initial index build, server start and the connection.
pub fn start(w: &Workload) -> Result<(Served, f64), String> {
    let t = Instant::now();
    let (engine, index_bytes) = build_engine(w)?;
    let server = Server::start(Arc::clone(&engine), ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    Ok((
        Served {
            engine,
            index_bytes,
            server,
            client,
        },
        secs,
    ))
}

/// When a pass ends.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Time(Duration),
    Ops(usize),
}

/// A read kept for checking after the pass.
struct Sample {
    graph: Arc<Graph>,
    body: String,
    answer: String,
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub read_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    pub fresh_ms: Vec<f64>,
    pub queries: u64,
    pub attempted: u64,
    pub failed: u64,
    pub reads: u64,
    pub writes: u64,
    pub verified: u64,
    /// Digest of each read's answers, plans left out, in stream order
    /// (`None` for a failed read).
    pub digests: Vec<Option<u64>>,
}

impl Pass {
    /// Queries answered per second of read-request time.
    pub fn read_qps(&self) -> f64 {
        self.queries as f64 / (self.read_ms.iter().sum::<f64>() / 1e3)
    }
}

/// The answer lines without their `"plan"` field: plans differ between
/// backends while answers must not.
pub fn strip_plans(body: &str) -> String {
    let mut out = String::with_capacity(body.len());
    for line in body.lines() {
        match line.find("\"plan\":\"") {
            Some(start) => {
                let value = start + "\"plan\":\"".len();
                let end = line[value..]
                    .find('"')
                    .map_or(line.len(), |i| value + i + 1);
                let end = if line[end..].starts_with(',') {
                    end + 1
                } else {
                    end
                };
                out.push_str(&line[..start]);
                out.push_str(&line[end..]);
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

pub fn digest(answers: &str) -> u64 {
    let mut h = DefaultHasher::new();
    strip_plans(answers).hash(&mut h);
    h.finish()
}

fn applied(body: &str) -> Option<u64> {
    Json::parse(body).ok()?.get("applied")?.as_u64()
}

/// Replay the op stream of `seed` against the server until `budget` is
/// spent. Reads and writes are never in flight together; after each
/// acknowledged write the new version's index is made ready before the
/// next read (`fresh_ms` covers write plus that wait).
pub fn run(w: &Workload, served: &mut Served, graph: &Graph, seed: u64, budget: Budget) -> Pass {
    let mut pass = Pass::default();
    let mut samples = Vec::new();
    let start = Instant::now();
    for op in OpStream::new(*w, graph, seed) {
        let done = match budget {
            Budget::Time(d) => start.elapsed() >= d,
            Budget::Ops(n) => pass.attempted as usize >= n,
        };
        if done {
            break;
        }
        pass.attempted += 1;
        match op {
            Op::Read { queries, body } => {
                let snapshot = served.engine.snapshot();
                let t = Instant::now();
                let response = served.client.request("POST", "/v1/query", &body);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let read = pass.reads;
                pass.reads += 1;
                match response {
                    Ok(r)
                        if r.is_ok()
                            && r.version == Some(snapshot.version())
                            && r.lines().count() == queries.len() =>
                    {
                        pass.read_ms.push(ms);
                        pass.queries += queries.len() as u64;
                        pass.digests.push(Some(digest(&r.body)));
                        if read % VERIFY_EVERY == seed % VERIFY_EVERY && samples.len() < VERIFY_MAX
                        {
                            samples.push(Sample {
                                graph: Arc::clone(snapshot.graph()),
                                body,
                                answer: r.body,
                            });
                        }
                    }
                    _ => {
                        pass.failed += 1;
                        pass.digests.push(None);
                    }
                }
            }
            Op::Write { body, .. } => {
                // pin the version being replaced, as a reader still using
                // it would: releasing it is then paid after the
                // acknowledgement, inside `fresh_ms`, not inside `write_ms`
                let superseded = served.engine.snapshot();
                let t = Instant::now();
                let response = served.client.request("POST", "/v1/update", &body);
                let ack = t.elapsed();
                drop(superseded);
                pass.writes += 1;
                let effective = (DELETES_PER_WRITE + INSERTS_PER_WRITE) as u64;
                let fresh = matches!(&response, Ok(r) if r.is_ok() && applied(&r.body) == Some(effective))
                    && ready_index(w.regime, &served.engine.snapshot()).is_ok();
                if fresh {
                    pass.write_ms.push(ack.as_secs_f64() * 1e3);
                    pass.fresh_ms.push(t.elapsed().as_secs_f64() * 1e3);
                } else {
                    pass.failed += 1;
                }
            }
        }
    }
    pass.failed += verify(&samples);
    pass.verified = samples.len() as u64;
    pass
}

/// Re-answer each sampled read without any index on the graph version
/// that served it; returns how many answers differ. RQs go through a
/// search-only engine; PQs through `Pq::eval_naive`, the reference
/// semantics (the search-only engine's cached PQ backend takes seconds
/// per pattern at 4000 nodes).
fn verify(samples: &[Sample]) -> u64 {
    samples
        .iter()
        .filter(|s| match wire::parse_query_body(&s.body, &s.graph) {
            Ok(queries) => {
                strip_plans(&reference_answers(&s.graph, &queries)) != strip_plans(&s.answer)
            }
            Err(_) => true,
        })
        .count() as u64
}

fn reference_answers(graph: &Arc<Graph>, queries: &[Query]) -> String {
    let search = QueryEngine::with_config(Arc::clone(graph), search_only_config());
    let items: Vec<BatchItem> = queries
        .iter()
        .map(|q| match q {
            Query::Rq(_) => search.run_batch(std::slice::from_ref(q)).items()[0].clone(),
            Query::Pq(pq) => BatchItem {
                output: QueryOutput::Pq(Arc::new(pq.eval_naive(graph))),
                plan: search.plan_query(q),
                time: Duration::ZERO,
                profile: None,
            },
        })
        .collect();
    wire::encode_items(&items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_stripped_from_answers() {
        let a = "{\"kind\":\"rq\",\"plan\":\"DM\",\"pairs\":[[0,1]]}\n\
                 {\"kind\":\"pq\",\"plan\":\"JoinMatch/hop\",\"nodes\":[[1]],\"edges\":[]}\n";
        let b = "{\"kind\":\"rq\",\"plan\":\"BFS+memo\",\"pairs\":[[0,1]]}\n\
                 {\"kind\":\"pq\",\"plan\":\"JoinMatch/cache\",\"nodes\":[[1]],\"edges\":[]}\n";
        assert_eq!(strip_plans(a), strip_plans(b));
        assert_eq!(
            strip_plans(a).lines().next(),
            Some("{\"kind\":\"rq\",\"pairs\":[[0,1]]}")
        );
        assert_eq!(digest(a), digest(b));
        assert_ne!(digest(a), digest(&a.replace("[0,1]", "[0,2]")));
    }
}
