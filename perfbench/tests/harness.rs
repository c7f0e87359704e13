//! Tests of the benchmark harness itself: seeded inputs, tail
//! percentiles, open-loop accounting and failure counting.

use lfpr_graph::io::load_graph;
use lfpr_graph::selfloops::add_self_loops;
use lfpr_graph::{BatchUpdate, GraphFormat};
use lfpr_perfbench::client::{classify, Conn, Failure};
use lfpr_perfbench::gen::{generate, GraphSpec, ScriptSpec};
use lfpr_perfbench::stats::{beyond, tail_percentile, OpenSample, Samples, Schedule};
use lockfree_pagerank::protocol::{parse_request, Request};
use std::io::Read as _;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const SCRIPT: ScriptSpec = ScriptSpec {
    commits: 30,
    half_batch: 5,
    reads: 200,
    topk_every: 10,
};

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("perfbench-tests")
        .join(name)
}

fn files(dir: &Path) -> Vec<Vec<u8>> {
    ["graph.txt", "commits.txt", "reads.txt"]
        .iter()
        .map(|f| std::fs::read(dir.join(f)).expect("generated file"))
        .collect()
}

#[test]
fn one_seed_gives_identical_inputs_and_two_seeds_differ() {
    for (name, spec) in [
        ("road", GraphSpec::Road { n: 3000 }),
        (
            "web",
            GraphSpec::Web {
                n: 2048,
                per_vertex: 8,
            },
        ),
    ] {
        let a = scratch(&format!("{name}-a"));
        let b = scratch(&format!("{name}-b"));
        let c = scratch(&format!("{name}-c"));
        generate(&a, spec, 1, SCRIPT, 7).unwrap();
        generate(&b, spec, 1, SCRIPT, 7).unwrap();
        generate(&c, spec, 1, SCRIPT, 8).unwrap();
        let d = scratch(&format!("{name}-d"));
        generate(&d, spec, 2, SCRIPT, 7).unwrap();
        let (fa, fb, fc, fd) = (files(&a), files(&b), files(&c), files(&d));
        assert_eq!(fa, fb, "{name}: one seed, different bytes");
        // The graph is fixed by its own seed; the run's seed moves the
        // commit and read scripts.
        assert_eq!(fa[0], fc[0], "{name}: the run seed changed the graph");
        assert_ne!(fa[1], fc[1], "{name}: two seeds, same commits");
        assert_ne!(fa[2], fc[2], "{name}: two seeds, same reads");
        assert_ne!(fa[0], fd[0], "{name}: two graph seeds, same graph");
    }
}

#[test]
fn generated_commits_replay_onto_the_final_graph() {
    let dir = scratch("replay");
    let inputs = generate(&dir, GraphSpec::Road { n: 3000 }, 1, SCRIPT, 3).unwrap();
    let mut g = load_graph(&inputs.graph_path, GraphFormat::Snap).unwrap();
    add_self_loops(&mut g);
    let script = std::fs::read_to_string(&inputs.commits_path).unwrap();
    let mut batch = BatchUpdate::default();
    let mut commits = 0;
    for line in script.lines() {
        match parse_request(line) {
            Some(Ok(Request::Delete { u, v })) => batch.deletions.push((u, v)),
            Some(Ok(Request::Insert { u, v })) => batch.insertions.push((u, v)),
            Some(Ok(Request::Batch)) => {
                assert_eq!(batch.len(), 2 * SCRIPT.half_batch);
                g.apply_batch(&std::mem::take(&mut batch))
                    .expect("every commit is valid");
                commits += 1;
            }
            other => panic!("unexpected commit line {line:?}: {other:?}"),
        }
    }
    assert_eq!(commits, SCRIPT.commits);
    let edges = |g: &lfpr_graph::DynGraph| g.edges().collect::<Vec<_>>();
    assert_eq!(edges(&g), edges(&inputs.final_graph));
    let reads = std::fs::read_to_string(&inputs.reads_path).unwrap();
    assert_eq!(
        reads.lines().filter(|l| *l == "topk 10").count(),
        SCRIPT.reads / SCRIPT.topk_every
    );
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(999), Some(90.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(99), Some(50.0));
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(15), Some(100.0));
    assert_eq!(tail_percentile(0), None);
    assert_eq!(beyond(1_000, 99.0), 10);
    assert_eq!(beyond(999, 99.0), 9);

    let mut s = Samples::default();
    for ms in 1..=1000 {
        s.record(Duration::from_millis(ms));
    }
    assert_eq!(s.tail(), Some((99.0, 0.990)));
    assert_eq!(s.percentile(50.0), Some(0.5));
}

#[test]
fn open_loop_latency_runs_from_the_due_time() {
    // One connection, one request at a time, due every 10 ms. The first
    // request stalls for 35 ms; the next three are sent late and wait
    // out the stall, which their latency must include.
    let start = Instant::now();
    let sched = Schedule {
        start,
        period: Duration::from_millis(10),
    };
    let service = [35, 1, 1, 1, 1].map(Duration::from_millis);
    let mut free_at = start;
    let mut got = Vec::new();
    for (i, took) in service.into_iter().enumerate() {
        let due = sched.due(i);
        let sent = due.max(free_at);
        let done = sent + took;
        free_at = done;
        got.push(OpenSample::new(due, sent, done));
    }
    let ms = |v: Vec<Duration>| v.into_iter().map(|d| d.as_millis()).collect::<Vec<_>>();
    assert_eq!(
        ms(got.iter().map(|s| s.latency).collect()),
        [35, 26, 17, 8, 1]
    );
    assert_eq!(ms(got.iter().map(|s| s.late).collect()), [0, 25, 16, 7, 0]);
    // A generator that wakes after the due time is late by the gap.
    let due = sched.due(7);
    let s = OpenSample::new(
        due,
        due + Duration::from_micros(80),
        due + Duration::from_millis(3),
    );
    assert_eq!(s.late, Duration::from_micros(80));
    assert_eq!(s.latency, Duration::from_millis(3));
}

#[test]
fn failures_count_as_failed_and_miss_every_limit() {
    let mut s = Samples::default();
    for _ in 0..3 {
        s.record(Duration::from_millis(1));
    }
    s.fail();
    s.fail();
    assert_eq!((s.attempted(), s.failed()), (5, 2));
    assert_eq!(s.misses(Duration::from_secs(3600)), 2);
    assert_eq!(s.misses(Duration::from_micros(500)), 5);
    assert_eq!(s.percentile(50.0), Some(0.001));
    assert_eq!(s.percentile(99.0), Some(f64::INFINITY));
}

#[test]
fn replies_are_classified() {
    assert!(matches!(
        classify("err unknown vertex 9\n".into()),
        Err(Failure::ErrReply(_))
    ));
    assert!(matches!(
        classify("no such reply\n".into()),
        Err(Failure::Wrong(_))
    ));
    assert!(matches!(
        classify("topk 2 epoch=1\n0 1.0e0\n".into()),
        Err(Failure::Wrong(_))
    ));
    assert!(classify("staged 3\n".into()).is_ok());
}

#[test]
fn timeouts_and_disconnects_are_failures() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        // First client: never answered. Second: closed at once.
        let (mut silent, _) = listener.accept().unwrap();
        let (closed, _) = listener.accept().unwrap();
        drop(closed);
        let mut buf = [0u8; 64];
        let _ = silent.read(&mut buf);
        let _ = silent.read(&mut buf);
    });
    let mut samples = Samples::default();
    let mut silent = Conn::connect(&addr, Duration::from_millis(100)).unwrap();
    let timed_out = silent.request("stats\n");
    assert_eq!(timed_out.as_ref().err(), Some(&Failure::Timeout));
    let mut closed = Conn::connect(&addr, Duration::from_secs(5)).unwrap();
    let dropped = closed.request("stats\n");
    assert!(
        matches!(dropped, Err(Failure::Disconnect(_))),
        "{dropped:?}"
    );
    for r in [timed_out, dropped] {
        match r {
            Ok(_) => samples.record(Duration::ZERO),
            Err(_) => samples.fail(),
        }
    }
    assert_eq!((samples.attempted(), samples.failed()), (2, 2));
    assert_eq!(samples.misses(Duration::from_secs(60)), 2);
    drop(silent);
    server.join().unwrap();
}
