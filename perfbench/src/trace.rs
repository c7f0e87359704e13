//! The traced run: replay one run's generated inputs in-process through
//! each layer's public functions and time every call from outside.
//!
//! Spans are kept in memory and written out once, at the end. The
//! replay runs twice, with spans off and on; the difference in the
//! replay loop's wall time is the tracing overhead.

use crate::e2e::{self, E2e};
use crate::gen::Inputs;
use crate::report::Metric;
use crate::stats::{median, Samples};
use crate::workload::Workload;
use lfpr_core::{RunStatus, StepStats, UpdateSession};
use lfpr_graph::io::load_graph;
use lfpr_graph::selfloops::add_self_loops;
use lfpr_graph::{BatchUpdate, DynGraph, GraphFormat};
use lockfree_pagerank::durable::Durability;
use lockfree_pagerank::protocol::{encode_response, parse_request, Request, Response, ShardEpochs};
use lockfree_pagerank::ServeConfig;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Each set-up call is timed this many times; its metric is the median.
const SETUP_REPEATS: usize = 3;

/// Reads replayed after each commit.
const READS_PER_COMMIT: usize = 10;

/// One timed call at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The commit or read this call served.
    pub req: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder; records nothing when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Rename the most recently opened span.
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(s) = self.spans.last_mut() {
            s.name = name;
        }
    }

    /// Durations of the spans named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| Duration::from_nanos(s.end_ns - s.start_ns))
            .collect()
    }

    /// Median duration of the spans named `name`, in seconds.
    pub fn median_s(&self, name: &str) -> f64 {
        let mut s = Samples::default();
        self.durations(name).into_iter().for_each(|d| s.record(d));
        s.percentile(50.0).unwrap_or(f64::NAN)
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"id": {i}, "name": "{}", "req": {}, "parent": {parent}, "start_ns": {}, "end_ns": {}}}"#,
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// What one replay did, beside its spans.
struct Replay {
    steps: Vec<StepStats>,
    /// WAL growth of each commit that did not checkpoint.
    wal_growth: Vec<u64>,
    replayed_commits: u64,
    loop_time: Duration,
    final_topk: String,
    problems: Vec<String>,
}

fn status_str(s: RunStatus) -> &'static str {
    match s {
        RunStatus::Converged => "converged",
        RunStatus::MaxIterations => "max-iterations",
        RunStatus::Stalled => "stalled",
    }
}

/// Replay the inputs the way the server applies them: load, session,
/// WAL, then each commit followed by [`READS_PER_COMMIT`] reads, then
/// recovery from the WAL.
fn replay(
    w: &Workload,
    inputs: &Inputs,
    work: &Path,
    t: &mut Tracer,
    repeats: usize,
) -> Result<Replay, String> {
    let args = e2e::server_args(w, &inputs.graph_path, work, false);
    let cfg = ServeConfig::from_args(&args[1..])?;
    let (opts, dopts) = (cfg.pagerank_options(), cfg.durability_options());
    let path = &inputs.graph_path;
    let wal = work.join("replay-wal");

    let mut graph = None;
    for _ in 0..repeats {
        graph = Some(t.span("graph.load", 0, |_| {
            let mut g = load_graph(path, GraphFormat::detect(path)).map_err(|e| e.to_string())?;
            add_self_loops(&mut g);
            Ok::<DynGraph, String>(g)
        })?);
    }
    let graph = graph.expect("repeats >= 1");
    let mut session = None;
    for _ in 0..repeats {
        let g = graph.clone();
        session = Some(t.span("core.session_new", 0, |_| {
            let mut s = UpdateSession::new_with_layout(g, cfg.algo, opts.clone(), cfg.layout);
            s.enable_delta_tracking();
            s
        }));
    }
    let mut session = session.expect("repeats >= 1");
    drop(graph);
    let mut durable = None;
    for _ in 0..repeats {
        let _ = std::fs::remove_dir_all(&wal);
        durable = Some(t.span("durable.create", 0, |_| {
            Durability::create(&wal, &mut session, dopts.clone())
        })?);
    }
    let mut durable = durable.expect("repeats >= 1");
    let wal_stats = durable.stats_handle();
    let reader = session.reader();

    let mut out = Replay {
        steps: Vec::with_capacity(inputs.commits.len()),
        wal_growth: Vec::new(),
        replayed_commits: 0,
        loop_time: Duration::ZERO,
        final_topk: String::new(),
        problems: Vec::new(),
    };
    let mut reads = inputs.reads.iter().cycle();
    let started = Instant::now();
    for (i, script) in inputs.commits.iter().enumerate() {
        let req = i as u64 + 1;
        t.span("commit", req, |t| {
            let mut batch = BatchUpdate::default();
            for line in script.lines() {
                match t.span("protocol.parse", req, |_| parse_request(line)) {
                    Some(Ok(Request::Delete { u, v })) => batch.deletions.push((u, v)),
                    Some(Ok(Request::Insert { u, v })) => batch.insertions.push((u, v)),
                    Some(Ok(Request::Batch)) => {}
                    other => out
                        .problems
                        .push(format!("commit line {line:?} parsed as {other:?}")),
                }
            }
            let stats = match t.span("core.step", req, |_| session.step(&batch)) {
                Ok(stats) => stats,
                Err(e) => {
                    out.problems.push(format!("step {req}: {e}"));
                    return;
                }
            };
            out.steps.push(stats);
            let before = wal_stats.bytes();
            if let Err(e) = t.span("durable.log_commit", req, |_| {
                durable.log_commit(&mut session, &batch)
            }) {
                out.problems.push(format!("log_commit {req}: {e}"));
            }
            let after = wal_stats.bytes();
            if after < before {
                t.rename_last("durable.checkpoint");
            } else {
                out.wal_growth.push(after - before);
            }
            let resp = Response::BatchOk {
                batch: batch.len(),
                m: session.graph().num_edges(),
                status: status_str(stats.status).to_string(),
                iters: stats.iterations,
                epochs: ShardEpochs::Single(session.steps()),
            };
            t.span("protocol.encode", req, |_| encode_response(&resp));
        });
        for _ in 0..READS_PER_COMMIT {
            let line = reads.next().expect("the read script is not empty");
            t.span("read", req, |t| {
                let resp = match t.span("protocol.parse", req, |_| parse_request(line)) {
                    Some(Ok(Request::Rank { v, view: None })) => {
                        t.span("core.view_rank", req, |_| {
                            let view = reader.view();
                            Response::Rank {
                                v,
                                rank: view.rank(v),
                                epoch: view.epoch(),
                                view: None,
                            }
                        })
                    }
                    Some(Ok(Request::TopK { k, view: None })) => {
                        t.span("core.view_topk", req, |_| {
                            let view = reader.view();
                            Response::TopK {
                                entries: view.top_k(k),
                                epochs: ShardEpochs::Single(view.epoch()),
                                view: None,
                            }
                        })
                    }
                    other => {
                        out.problems
                            .push(format!("read line {line:?} parsed as {other:?}"));
                        return;
                    }
                };
                t.span("protocol.encode", req, |_| encode_response(&resp));
            });
        }
    }
    out.loop_time = started.elapsed();

    let view = reader.view();
    // The wire form: the encoded block plus its line terminator.
    out.final_topk = encode_response(&Response::TopK {
        entries: view.top_k(view.ranks().len()),
        epochs: ShardEpochs::Single(view.epoch()),
        view: None,
    }) + "\n";
    // Recover as after a crash: the log is synced on every commit.
    drop(durable);
    let (recovered, _, report) = t.span("durable.recover", 0, |_| {
        Durability::recover(&wal, opts.clone(), dopts.clone())
    })?;
    out.replayed_commits = report.replayed_commits;
    if recovered.ranks() != session.ranks() || recovered.steps() != session.steps() {
        out.problems
            .push("in-process recovery differs from the replayed session".into());
    }
    Ok(out)
}

/// Per-layer metrics and the checks of the traced run.
pub struct Layers {
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
}

/// Replay with spans off, then on; derive the per-layer metrics from
/// the traced replay and the end-to-end run `e`.
pub fn measure(w: &Workload, inputs: &Inputs, work: &Path, e: &E2e) -> Result<Layers, String> {
    // The replay is the writer's work: run it on the writer's core.
    if let Some(p) = crate::pin::placement() {
        crate::pin::pin(0, p.writer).map_err(|e| format!("pinning the replay: {e}"))?;
    }
    let off = replay(w, inputs, work, &mut Tracer::new(false), 1)?;
    let mut t = Tracer::new(true);
    let on = replay(w, inputs, work, &mut t, SETUP_REPEATS)?;
    t.write_jsonl(&work.join("spans.jsonl"))
        .map_err(|e| format!("writing spans: {e}"))?;

    let mut problems = on.problems.clone();
    problems.extend(off.problems.iter().cloned());
    if on.final_topk != e.final_topk {
        let (served, replayed) = (work.join("served-topk.txt"), work.join("replayed-topk.txt"));
        let _ = std::fs::write(&served, &e.final_topk)
            .and_then(|()| std::fs::write(&replayed, &on.final_topk));
        problems.push(format!(
            "in-process replay ranks differ from the served final topk (see {} and {})",
            served.display(),
            replayed.display()
        ));
    }
    if on.final_topk != off.final_topk {
        problems.push("traced and untraced replays disagree".into());
    }

    let n = on.steps.len();
    let per_commit =
        |f: &dyn Fn(&StepStats) -> f64| on.steps.iter().map(f).sum::<f64>() / n.max(1) as f64;
    let step_wall = t.durations("core.step");
    let publish: Vec<f64> = step_wall
        .iter()
        .zip(&on.steps)
        .map(|(wall, s)| wall.saturating_sub(s.total_time).as_secs_f64())
        .collect();
    let secs = |f: &dyn Fn(&StepStats) -> Duration| {
        median(
            &on.steps
                .iter()
                .map(|s| f(s).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let growth = on.wal_growth.iter().sum::<u64>() as f64 / on.wal_growth.len().max(1) as f64;

    let parse = t.median_s("protocol.parse");
    let encode = t.median_s("protocol.encode");
    let step = t.median_s("core.step");
    let log = if w.durable {
        t.median_s("durable.log_commit")
    } else {
        0.0
    };
    let pct = |s: &Samples| s.percentile(50.0).unwrap_or(f64::NAN);
    let count = |name: &str| t.durations(name).len();

    let metrics = vec![
        Metric::new(
            "graph.load_s",
            t.median_s("graph.load"),
            "s",
            count("graph.load"),
        ),
        Metric::new(
            "core.session_new_s",
            t.median_s("core.session_new"),
            "s",
            count("core.session_new"),
        ),
        Metric::new(
            "durable.create_s",
            t.median_s("durable.create"),
            "s",
            count("durable.create"),
        ),
        Metric::new("core.step_s", step, "s", n),
        Metric::new("core.kernel_s", secs(&|s| s.runtime), "s", n),
        Metric::new("core.snapshot_s", secs(&|s| s.snapshot_time), "s", n),
        Metric::new("core.publish_s", median(&publish), "s", n),
        Metric::new(
            "core.iterations",
            per_commit(&|s| s.iterations as f64),
            "count",
            n,
        ),
        Metric::new(
            "core.vertices_processed",
            per_commit(&|s| s.vertices_processed as f64),
            "count",
            n,
        ),
        Metric::new(
            "core.initially_affected",
            per_commit(&|s| s.initially_affected as f64),
            "count",
            n,
        ),
        Metric::new(
            "core.incremental_share",
            per_commit(&|s| f64::from(u8::from(s.incremental))),
            "share",
            n,
        ),
        Metric::new(
            "core.view_rank_s",
            t.median_s("core.view_rank"),
            "s",
            count("core.view_rank"),
        ),
        Metric::new(
            "core.view_topk_s",
            t.median_s("core.view_topk"),
            "s",
            count("core.view_topk"),
        ),
        Metric::new("protocol.parse_s", parse, "s", count("protocol.parse")),
        Metric::new("protocol.encode_s", encode, "s", count("protocol.encode")),
        Metric::new(
            "durable.log_commit_s",
            t.median_s("durable.log_commit"),
            "s",
            count("durable.log_commit"),
        ),
        Metric::new(
            "durable.checkpoint_s",
            t.median_s("durable.checkpoint"),
            "s",
            count("durable.checkpoint"),
        ),
        Metric::new(
            "durable.wal_bytes_per_commit",
            growth,
            "bytes",
            on.wal_growth.len(),
        ),
        Metric::new("durable.recover_s", t.median_s("durable.recover"), "s", 1),
        Metric::new(
            "durable.replayed_commits",
            on.replayed_commits as f64,
            "count",
            1,
        ),
        Metric::new(
            "server.commit_residual_s",
            pct(&e.commit) - (parse + step + log + encode),
            "s",
            e.commit.attempted(),
        ),
        Metric::new(
            "server.read_residual_s",
            pct(&e.rank) - (parse + t.median_s("core.view_rank") + encode),
            "s",
            e.rank.attempted(),
        ),
        Metric::new(
            "trace.overhead_frac",
            (on.loop_time.as_secs_f64() - off.loop_time.as_secs_f64())
                / off.loop_time.as_secs_f64(),
            "share",
            2,
        ),
    ];
    Ok(Layers { metrics, problems })
}

/// `reference_default` on `g`, cached under `cache` by a hash of the
/// graph: the final graph is fixed by the seed and the commit count.
pub fn reference_ranks(g: &DynGraph, cache: &Path) -> Vec<f64> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    mix(g.num_vertices() as u64);
    for (u, v) in g.edges() {
        mix((u64::from(u) << 32) | u64::from(v));
    }
    let file = cache.join(format!("reference-{h:016x}.f64"));
    if let Ok(bytes) = std::fs::read(&file) {
        if bytes.len() == 8 * g.num_vertices() {
            return bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .collect();
        }
    }
    let ranks = lfpr_core::reference::reference_default(&g.snapshot());
    let bytes: Vec<u8> = ranks.iter().flat_map(|r| r.to_le_bytes()).collect();
    let _ = std::fs::create_dir_all(cache).and_then(|()| std::fs::write(&file, bytes));
    ranks
}
