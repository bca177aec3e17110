//! Closed-loop serving benchmark for `rpq-server`.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <dm-unique|hop-unique|hop-zipf> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the benchmark starts an in-process server over a live
//! engine (2 workers, process tracer off) on loopback and drives it from
//! one keep-alive client in a closed loop for `--seconds`: a seeded,
//! fixed order of read and write requests, never two in flight. After
//! each acknowledged write the client makes the new version's index
//! ready before the next read. A seeded sample of answers is checked
//! against index-free evaluation after the loop. It prints the end-to-end
//! metrics.
//!
//! With `--trace 1` it replays a fixed-length prefix of the same stream
//! twice: once through the server, untraced, and once in-process with a
//! span around each layer call (see [`traced`]). It prints the per-layer
//! metrics, writes the spans to `servebench/traces/`, and checks that
//! both passes gave the same answers.
//!
//! The second-to-last line of output is the run's provenance; the last
//! is the result. `LAYERS.md` maps each layer metric to the end-to-end
//! metric it should move.

mod serve;
mod stats;
mod traced;
mod workload;

use serve::{Budget, Pass};
use stats::{
    interquartile_mean, json_number, json_string, mean, percentile, tail_percentile, Metrics, Pct,
};
use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;
use traced::{plan_metric, Layers, APPLY_PHASES, PLANS};
use workload::Workload;

const USAGE: &str = "usage: servebench --workload <dm-unique|hop-unique|hop-zipf> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("no workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The commit being measured, read from `.git` in the working directory
/// when there is one.
fn git_rev() -> String {
    let read = |p: &str| fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_owned(),
        Some(name) => read(name)
            .map(|r| r.trim().to_owned())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(name))
                    .and_then(|l| l.split(' ').next().map(str::to_owned))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn pct_json(p: Option<Pct>) -> String {
    match p {
        Some(p) => format!(
            "{{\"value\": {}, \"q\": {}, \"n\": {}}}",
            json_number(p.value),
            json_number(p.q),
            p.n
        ),
        None => "null".into(),
    }
}

/// The provenance line printed before the result.
fn provenance(
    args: &Args,
    mode: &str,
    graph: &rpq_graph::Graph,
    pass: &Pass,
    extra: &[(&str, String)],
) -> String {
    let w = &args.workload;
    let mut fields = vec![
        ("workload", json_string(w.name)),
        ("mode", json_string(mode)),
        ("seed", args.seed.to_string()),
        ("git_rev", json_string(&git_rev())),
        ("nproc", nproc().to_string()),
        ("workers", serve::WORKERS.to_string()),
        ("graph_nodes", graph.node_count().to_string()),
        ("graph_edges", graph.edge_count().to_string()),
        ("reads_per_write", w.reads_per_write.to_string()),
        ("queries_per_read", w.queries_per_read().to_string()),
        ("standing_queries", w.standing.to_string()),
        ("reads", pass.reads.to_string()),
        ("writes", pass.writes.to_string()),
        ("queries", pass.queries.to_string()),
        ("verified_reads", pass.verified.to_string()),
        ("read_ms.p50", pct_json(percentile(&pass.read_ms, 0.5))),
        (
            "read_ms.p95",
            pct_json(tail_percentile(&pass.read_ms, 0.95)),
        ),
        ("write_ms.p50", pct_json(percentile(&pass.write_ms, 0.5))),
        (
            "write_ms.iqm",
            format!("{{\"n\": {}}}", pass.write_ms.len()),
        ),
        ("fresh_ms.p50", pct_json(percentile(&pass.fresh_ms, 0.5))),
    ];
    fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

fn value(p: Option<Pct>) -> f64 {
    p.map_or(0.0, |p| p.value)
}

/// The end-to-end metrics of an untraced pass.
fn end_to_end(setup_s: &[f64], index_bytes: u64, pass: &Pass) -> Metrics {
    let mut m = Metrics::default();
    m.add("setup_s", value(percentile(setup_s, 0.5)), "s");
    m.add("read_ms.p50", value(percentile(&pass.read_ms, 0.5)), "ms");
    m.add(
        "read_ms.p95",
        value(tail_percentile(&pass.read_ms, 0.95)),
        "ms",
    );
    m.add("read_qps", pass.read_qps(), "1/s");
    m.add("write_ms.iqm", interquartile_mean(&pass.write_ms), "ms");
    m.add("fresh_ms.p50", value(percentile(&pass.fresh_ms, 0.5)), "ms");
    m.add("index_bytes", index_bytes as f64, "bytes");
    m
}

/// The per-layer metrics of a traced pass; `untraced_p50` is the read
/// median of the untraced pass over the same ops.
fn per_layer(l: &Layers, untraced_p50: f64) -> Metrics {
    let mut m = Metrics::default();
    m.add("wire.decode_us", mean(&l.decode_us), "us");
    m.add("wire.encode_us", mean(&l.encode_us), "us");
    m.add("canonicalize_us", mean(&l.canonicalize_us), "us");
    m.add("plan_us", mean(&l.plan_us), "us");
    for (plan, count) in PLANS.iter().zip(l.plans) {
        m.add(plan_metric(*plan), count as f64, "count");
    }
    m.add("memo.exact", l.memo.exact_hits as f64, "count");
    m.add("memo.subsumption", l.memo.subsumption_hits as f64, "count");
    m.add("memo.miss", l.memo.misses as f64, "count");
    m.add("memo.hit_ratio", l.memo_hit_ratio(), "ratio");
    m.add(
        "memo.filter_ms",
        l.memo.filter_time.as_secs_f64() * 1e3,
        "ms",
    );
    m.add("eval_ms", mean(&l.eval_ms), "ms");
    m.add("eval.rq_us", mean(&l.rq_us), "us");
    m.add("eval.pq_us", mean(&l.pq_us), "us");
    m.add("index.build_ms", mean(&l.build_ms), "ms");
    m.add("apply_ms", mean(&l.apply_ms), "ms");
    for (i, phase) in APPLY_PHASES.iter().enumerate() {
        m.add(format!("apply.{phase}_ms"), mean(&l.phase_ms[i]), "ms");
    }
    m.add("apply.repaired_ratio", l.repaired_ratio(), "ratio");
    m.add(
        "apply.landmarks_invalidated",
        l.landmarks_invalidated as f64,
        "count",
    );
    m.add("answers.pairs", l.answer_pairs as f64, "count");
    let traced_p50 = value(percentile(&l.read_ms, 0.5));
    m.add("trace.read_ms.p50", traced_p50, "ms");
    m.add("trace.untraced_read_ms.p50", untraced_p50, "ms");
    m.add("trace.overhead_ratio", traced_p50 / untraced_p50, "ratio");
    m
}

fn run_untraced(args: &Args) -> Result<(), String> {
    let w = &args.workload;
    let mut setup_s = Vec::with_capacity(w.setups);
    let mut served: Option<serve::Served> = None;
    for _ in 0..w.setups {
        if let Some(previous) = served.take() {
            previous.stop();
        }
        let (s, secs) = serve::start(w)?;
        setup_s.push(secs);
        served = Some(s);
    }
    let mut served = served.expect("at least one set-up");
    let graph = std::sync::Arc::clone(served.engine.snapshot().graph());
    let pass = serve::run(
        w,
        &mut served,
        &graph,
        args.seed,
        Budget::Time(Duration::from_secs(args.seconds)),
    );
    let index_bytes = served.index_bytes;
    served.stop();
    let setups = format!("{{\"n\": {}}}", setup_s.len());
    println!(
        "{}",
        provenance(args, "served", &graph, &pass, &[("setup_s", setups)])
    );
    println!(
        "{}",
        end_to_end(&setup_s, index_bytes, &pass).result_line(pass.attempted, pass.failed)
    );
    Ok(())
}

fn run_traced(args: &Args) -> Result<(), String> {
    let w = &args.workload;
    let ops = w.traced_cycles * (w.reads_per_write + 1);
    let (mut served, _) = serve::start(w)?;
    let graph = std::sync::Arc::clone(served.engine.snapshot().graph());
    let pass = serve::run(w, &mut served, &graph, args.seed, Budget::Ops(ops));
    served.stop();

    let (engine, _) = serve::build_engine(w)?;
    let (layers, spans) = traced::run(w, &engine, &graph, args.seed, ops);
    // both passes replay one stream from one start state: their answers
    // must agree read for read
    let disagreements = pass
        .digests
        .iter()
        .zip(&layers.digests)
        .filter(|(a, b)| a.is_some() && b.is_some() && a != b)
        .count() as u64;

    let trace_file = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.jsonl", w.name, args.seed));
    let untraced_p50 = value(percentile(&pass.read_ms, 0.5));
    let line = provenance(
        args,
        "traced",
        &graph,
        &pass,
        &[
            ("traced_ops", layers.attempted.to_string()),
            ("traced_reads", layers.read_ms.len().to_string()),
            ("traced_writes", layers.apply_ms.len().to_string()),
            ("answer_disagreements", disagreements.to_string()),
            ("trace_file", json_string(&trace_file.display().to_string())),
        ],
    );
    fs::create_dir_all(trace_file.parent().expect("trace file has a directory"))
        .and_then(|()| fs::write(&trace_file, format!("{line}\n{spans}")))
        .map_err(|e| format!("writing {}: {e}", trace_file.display()))?;
    println!("{line}");
    println!(
        "{}",
        per_layer(&layers, untraced_p50).result_line(
            pass.attempted + layers.attempted,
            pass.failed + layers.failed + disagreements
        )
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_server::json::Json;

    /// Metric names listed under `key` in the repository's BENCHMARK.json.
    fn manifest_names(key: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        json.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect()
    }

    fn names(m: &Metrics) -> Vec<String> {
        m.0.iter().map(|(n, _, _)| n.clone()).collect()
    }

    #[test]
    fn printed_metrics_match_the_manifest() {
        let e2e = end_to_end(&[1.0], 1, &Pass::default());
        assert_eq!(names(&e2e), manifest_names("end_to_end"));
        let layers = per_layer(&Layers::default(), 1.0);
        assert_eq!(names(&layers), manifest_names("per_layer"));
        for name in names(&e2e).iter().chain(&names(&layers)) {
            assert!(stats::valid_metric_name(name), "{name}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload hop-zipf --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("hop-zipf", 3, 10, true)
        );
        assert!(parse("--workload nope --seed 3 --seconds 10").is_err());
        assert!(parse("--workload hop-zipf --seconds 10").is_err());
        assert!(parse("--workload hop-zipf --seed x --seconds 10").is_err());
        assert!(parse("--workload hop-zipf --seed 1 --seconds 10 --trace 2").is_err());
    }
}
