//! The traced pass: the same op stream replayed in-process, with a span
//! around each call into a layer's public function.
//!
//! A read goes through the calls the server makes for `/v1/query` —
//! `wire::parse_query_body`, `Snapshot::run_batch`, `wire::encode_items` —
//! plus `rpq_core::canonical_rq`/`canonical_pq` and
//! `Snapshot::plan_query`, which `run_batch` also performs internally and
//! which are timed here on their own. A write is `UpdatableEngine::apply`
//! followed by the index build of the new snapshot. Spans stay in memory
//! and are written out when the pass ends.

use crate::serve::{digest, ready_index};
use crate::stats::sanitize;
use crate::workload::{Op, OpStream, Workload};
use rpq_core::{canonical_pq, canonical_rq};
use rpq_engine::{IndexState, Plan, Query, SemanticStats, UpdatableEngine};
use rpq_graph::Graph;
use rpq_server::wire;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Every plan the engine can pick, in a fixed order (the `match` makes
/// adding a variant a compile error here, so no plan goes uncounted).
pub const PLANS: [Plan; 14] = [
    Plan::RqDm,
    Plan::RqHop,
    Plan::RqBiBfs,
    Plan::RqBfsMemo,
    Plan::PqJoinMatrix,
    Plan::PqJoinHop,
    Plan::PqJoinCached,
    Plan::PqSplitMatrix,
    Plan::PqSplitHop,
    Plan::PqSplitCached,
    Plan::RqSharded,
    Plan::PqJoinSharded,
    Plan::PqSplitSharded,
    Plan::PqStanding,
];

fn plan_slot(plan: Plan) -> usize {
    match plan {
        Plan::RqDm => 0,
        Plan::RqHop => 1,
        Plan::RqBiBfs => 2,
        Plan::RqBfsMemo => 3,
        Plan::PqJoinMatrix => 4,
        Plan::PqJoinHop => 5,
        Plan::PqJoinCached => 6,
        Plan::PqSplitMatrix => 7,
        Plan::PqSplitHop => 8,
        Plan::PqSplitCached => 9,
        Plan::RqSharded => 10,
        Plan::PqJoinSharded => 11,
        Plan::PqSplitSharded => 12,
        Plan::PqStanding => 13,
    }
}

/// The metric name counting queries served by `plan`.
pub fn plan_metric(plan: Plan) -> String {
    format!("plan.{}", sanitize(plan.name()))
}

/// The `ApplyReport` phases reported as `apply.<phase>_ms`.
pub const APPLY_PHASES: [&str; 5] = ["validate", "apply", "standing", "carry", "publish"];

/// One timed call: which op it served, the layer, its parent span, and
/// its interval in microseconds since the pass began.
struct Span {
    op: u64,
    name: &'static str,
    parent: &'static str,
    start_us: f64,
    dur_us: f64,
}

struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn time<T>(
        &mut self,
        op: u64,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let t = Instant::now();
        let out = f();
        let dur = t.elapsed();
        self.spans.push(Span {
            op,
            name,
            parent,
            start_us: (t - self.origin).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
        });
        (out, dur)
    }
}

/// Per-layer totals of one traced pass.
#[derive(Debug, Default)]
pub struct Layers {
    pub read_ms: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub canonicalize_us: Vec<f64>,
    pub plan_us: Vec<f64>,
    pub eval_ms: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub rq_us: Vec<f64>,
    pub pq_us: Vec<f64>,
    pub plans: [u64; PLANS.len()],
    pub memo: SemanticStats,
    pub answer_pairs: u64,
    pub apply_ms: Vec<f64>,
    pub phase_ms: [Vec<f64>; APPLY_PHASES.len()],
    pub build_ms: Vec<f64>,
    pub repaired: u64,
    pub landmarks_invalidated: u64,
    pub attempted: u64,
    pub failed: u64,
    pub digests: Vec<Option<u64>>,
}

impl Layers {
    pub fn memo_hit_ratio(&self) -> f64 {
        let hits = self.memo.hits();
        hits as f64 / (hits + self.memo.misses).max(1) as f64
    }

    pub fn repaired_ratio(&self) -> f64 {
        self.repaired as f64 / self.apply_ms.len().max(1) as f64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Replay the first `ops` requests of `seed`'s stream against `engine`
/// in-process. Returns the layer totals and the spans as JSON lines.
pub fn run(
    w: &Workload,
    engine: &UpdatableEngine,
    graph: &Graph,
    seed: u64,
    ops: usize,
) -> (Layers, String) {
    let mut layers = Layers::default();
    let mut spans = Spans {
        origin: Instant::now(),
        spans: Vec::with_capacity(ops * 8),
    };
    for (id, op) in OpStream::new(*w, graph, seed).take(ops).enumerate() {
        let id = id as u64;
        layers.attempted += 1;
        match op {
            Op::Read { body, .. } => {
                let t = Instant::now();
                let snapshot = engine.snapshot();
                let (parsed, decode) = spans.time(id, "wire.decode", "read", || {
                    wire::parse_query_body(&body, snapshot.graph())
                });
                let Ok(queries) = parsed else {
                    layers.failed += 1;
                    layers.digests.push(None);
                    continue;
                };
                let (canonical, canonicalize) = spans.time(id, "canonicalize", "read", || {
                    queries
                        .iter()
                        .map(|q| match q {
                            Query::Rq(rq) => Query::Rq(canonical_rq(rq)),
                            Query::Pq(pq) => Query::Pq(canonical_pq(pq)),
                        })
                        .collect::<Vec<_>>()
                });
                let (_, plan) = spans.time(id, "plan", "read", || {
                    canonical
                        .iter()
                        .map(|q| snapshot.plan_query(q))
                        .collect::<Vec<_>>()
                });
                let memo0 = snapshot.semantic_stats();
                let (batch, eval) = spans.time(id, "eval", "read", || snapshot.run_batch(&queries));
                let memo1 = snapshot.semantic_stats();
                let (answers, encode) = spans.time(id, "wire.encode", "read", || {
                    wire::encode_items(batch.items())
                });
                let read = t.elapsed();
                spans.spans.push(Span {
                    op: id,
                    name: "read",
                    parent: "",
                    start_us: (t - spans.origin).as_secs_f64() * 1e6,
                    dur_us: us(read),
                });

                layers.read_ms.push(ms(read));
                layers.decode_us.push(us(decode));
                layers.canonicalize_us.push(us(canonicalize));
                layers.plan_us.push(us(plan));
                layers.eval_ms.push(ms(eval));
                layers.encode_us.push(us(encode));
                for (item, query) in batch.items().iter().zip(&queries) {
                    layers.plans[plan_slot(item.plan)] += 1;
                    layers.answer_pairs += item.output.match_count() as u64;
                    match query {
                        Query::Rq(_) => layers.rq_us.push(us(item.time)),
                        Query::Pq(_) => layers.pq_us.push(us(item.time)),
                    }
                }
                layers.memo.exact_hits += memo1.exact_hits - memo0.exact_hits;
                layers.memo.subsumption_hits += memo1.subsumption_hits - memo0.subsumption_hits;
                layers.memo.misses += memo1.misses - memo0.misses;
                layers.memo.filter_time += memo1.filter_time - memo0.filter_time;
                layers.digests.push(Some(digest(&answers)));
            }
            Op::Write { updates, .. } => {
                let t = Instant::now();
                // pinned like the untraced pass does: `apply` excludes
                // releasing the replaced version, the write span covers it
                let superseded = engine.snapshot();
                let (report, apply) = spans.time(id, "apply", "write", || engine.apply(&updates));
                drop(superseded);
                let report = match report {
                    Ok(r) if r.applied == updates.len() => r,
                    _ => {
                        layers.failed += 1;
                        continue;
                    }
                };
                let (bytes, build) = spans.time(id, "index.build", "write", || {
                    ready_index(w.regime, &report.snapshot)
                });
                spans.spans.push(Span {
                    op: id,
                    name: "write",
                    parent: "",
                    start_us: (t - spans.origin).as_secs_f64() * 1e6,
                    dur_us: us(t.elapsed()),
                });
                if bytes.is_err() {
                    layers.failed += 1;
                    continue;
                }
                layers.apply_ms.push(ms(apply));
                layers.build_ms.push(ms(build));
                for (name, d) in &report.index.phases {
                    if let Some(i) = APPLY_PHASES.iter().position(|p| p == name) {
                        layers.phase_ms[i].push(ms(*d));
                    }
                }
                if report.index.state == IndexState::Repaired {
                    layers.repaired += 1;
                }
                layers.landmarks_invalidated += report.index.landmarks_invalidated as u64;
            }
        }
    }
    let mut lines = String::new();
    for s in &spans.spans {
        let _ = writeln!(
            lines,
            "{{\"op\": {}, \"span\": \"{}\", \"parent\": \"{}\", \"start_us\": {:.1}, \"dur_us\": {:.1}}}",
            s.op, s.name, s.parent, s.start_us, s.dur_us
        );
    }
    (layers, lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    #[test]
    fn every_plan_has_its_own_valid_metric_name() {
        let names: Vec<String> = PLANS.iter().map(|&p| plan_metric(p)).collect();
        for (i, (&plan, name)) in PLANS.iter().zip(&names).enumerate() {
            assert_eq!(plan_slot(plan), i);
            assert!(valid_metric_name(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "sanitizing merged two plans");
    }
}
