//! Durability benchmark — what the write-ahead log costs on the commit
//! path, and what it buys at recovery time.
//!
//! Three phases, all equality-checked (1-thread runs are bit-exact):
//!
//! 1. **Logging tax** — the same batch sequence is committed by a
//!    logged session (`apply_logged`, fsync per policy) and an unlogged
//!    one (`apply_logged` with no log); their ranks must stay bit-identical and the
//!    per-commit overhead is reported.
//! 2. **Recovery vs recompute** — the state is rebuilt two ways: via
//!    `Durability::recover` (checkpoint + WAL tail replay) and via a
//!    from-scratch static recompute on the final graph. Recovery must
//!    reproduce the exact bits (the recompute cannot — it loses the
//!    session's views and epoch). The `--require` floor gates the
//!    replay rate, commits replayed per second of recovery wall time,
//!    in the same absolute-rate style as `serve_bench --require`; the
//!    recompute time is reported alongside as an ungated reference.
//! 3. **Replica staleness** — a durable leader (`spawn_with`) serves a
//!    follower over the feed while batches commit; per commit we
//!    measure ack-to-follower-applied lag, then restart the leader from
//!    its log and require the follower to reconnect and catch up.
//!
//! Usage: `recovery_bench [--vertices n] [--batch k] [--steps s]
//!   [--checkpoint-every c] [--fsync always|every-k|never] [--seed x]
//!   [--json path] [--require x]`

use lfpr_bench::client::Client;
use lfpr_core::{Algorithm, PagerankOptions, UpdateSession};
use lfpr_graph::generators::grid_road;
use lfpr_graph::io::wal::FsyncPolicy;
use lfpr_graph::selfloops::add_self_loops;
use lfpr_graph::{BatchSpec, BatchUpdate};
use lockfree_pagerank::durable::{Durability, DurabilityOptions};
use lockfree_pagerank::replica::{Follower, FollowerOptions};
use lockfree_pagerank::serve::{apply_logged, WriterOp};
use lockfree_pagerank::server::{spawn_with, ServerOptions};
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Args {
    vertices: usize,
    batch: usize,
    steps: usize,
    checkpoint_every: u64,
    fsync: FsyncPolicy,
    seed: u64,
    threads: usize,
    json_path: Option<String>,
    require: Option<f64>,
}

fn parse_args() -> Args {
    let mut a = Args {
        vertices: 20_000,
        batch: 50,
        steps: 30,
        checkpoint_every: 16,
        fsync: FsyncPolicy::EveryK(8),
        seed: 42,
        threads: 1,
        json_path: None,
        require: None,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        let val = argv.get(i + 1).cloned().unwrap_or_default();
        match argv[i].as_str() {
            "--vertices" => a.vertices = val.parse().expect("--vertices n"),
            "--batch" => a.batch = val.parse().expect("--batch k"),
            "--steps" => a.steps = val.parse().expect("--steps s"),
            "--checkpoint-every" => a.checkpoint_every = val.parse().expect("--checkpoint-every c"),
            "--fsync" => a.fsync = val.parse().unwrap_or_else(|e: String| panic!("{e}")),
            "--seed" => a.seed = val.parse().expect("--seed x"),
            "--threads" => a.threads = val.parse().expect("--threads t"),
            "--json" => a.json_path = Some(val.clone()),
            "--require" => a.require = Some(val.parse().expect("--require x")),
            other => panic!("unknown argument: {other}"),
        }
        i += 2;
    }
    a
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("lfpr-recovery-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn session_on(g: lfpr_graph::DynGraph, opts: &PagerankOptions) -> UpdateSession {
    let mut s = UpdateSession::new(g, Algorithm::DfLF, opts.clone());
    s.enable_delta_tracking();
    s
}

fn batches(session_graph: &lfpr_graph::DynGraph, args: &Args) -> Vec<BatchUpdate> {
    // Generate against an evolving copy so later batches stay valid
    // after earlier ones landed.
    let mut g = session_graph.clone();
    let mut out = Vec::with_capacity(args.steps);
    for step in 0..args.steps {
        let fraction = args.batch as f64 / g.num_edges() as f64;
        let b = BatchSpec::mixed(fraction, args.seed + 1 + step as u64).generate(&g);
        g.apply_batch(&b).expect("generated batch applies");
        out.push(b);
    }
    out
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn p99(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[((v.len() - 1) as f64 * 0.99) as usize]
}

fn main() {
    let args = parse_args();
    let opts = PagerankOptions::default()
        .with_threads(args.threads)
        .with_tolerance(1e-7)
        .with_frontier_tolerance(1e-7);
    let mut g = grid_road(args.vertices, args.seed);
    add_self_loops(&mut g);
    println!(
        "Recovery bench: {} vertices / {} edges, |Δ| = {}, {} steps, fsync {}, checkpoint every {}",
        g.num_vertices(),
        g.num_edges(),
        args.batch,
        args.steps,
        args.fsync,
        args.checkpoint_every
    );
    let script = batches(&g, &args);

    // Phase 1: logging tax. Same commits, with and without the WAL.
    let dir = tmpdir("wal");
    let mut logged = session_on(g.clone(), &opts);
    let mut durable = Durability::create(
        &dir,
        &mut logged,
        DurabilityOptions {
            fsync: args.fsync,
            checkpoint_every: args.checkpoint_every,
            crash_after: None,
        },
    )
    .expect("create durability");
    let mut logged_s = Vec::new();
    for b in &script {
        let t = Instant::now();
        apply_logged(
            &mut logged,
            Some(&mut durable),
            None,
            WriterOp::Commit(b.clone()),
        )
        .expect("logged commit");
        logged_s.push(t.elapsed().as_secs_f64());
    }
    durable.flush_sync().expect("final flush");

    let mut plain = session_on(g.clone(), &opts);
    let mut plain_s = Vec::new();
    for b in &script {
        let t = Instant::now();
        apply_logged(&mut plain, None, None, WriterOp::Commit(b.clone())).expect("plain commit");
        plain_s.push(t.elapsed().as_secs_f64());
    }
    if args.threads == 1 {
        assert_eq!(
            logged.ranks(),
            plain.ranks(),
            "logging changed the computed ranks"
        );
    }
    let tax = mean(&logged_s) / mean(&plain_s).max(1e-12);
    println!(
        "commit latency: plain {:.6}s vs logged {:.6}s → {:.3}x logging tax ({} wal bytes)",
        mean(&plain_s),
        mean(&logged_s),
        tax,
        durable.stats_handle().bytes(),
    );
    let want_ranks = logged.ranks().to_vec();
    let want_epoch = logged.steps();
    let final_graph = logged.graph().clone();
    drop(durable);
    drop(logged);

    // Phase 2: recovery vs from-scratch recompute.
    let t = Instant::now();
    let (recovered, _durable, report) = Durability::recover(&dir, opts.clone(), {
        DurabilityOptions {
            fsync: args.fsync,
            checkpoint_every: args.checkpoint_every,
            crash_after: None,
        }
    })
    .expect("recover");
    let recover_s = t.elapsed().as_secs_f64();
    assert_eq!(recovered.steps(), want_epoch, "recovery lost epochs");
    if args.threads == 1 {
        assert_eq!(
            recovered.ranks(),
            &want_ranks[..],
            "recovered ranks are not the session's bits"
        );
    }
    println!("{report}");

    let t = Instant::now();
    let scratch = session_on(final_graph, &opts);
    let scratch_s = t.elapsed().as_secs_f64();
    // Sanity: the recompute converged on the same graph.
    assert_eq!(scratch.ranks().len(), want_ranks.len());
    let replayed = report.replayed_commits + report.replayed_view_ops;
    let replay_rate = replayed as f64 / recover_s.max(1e-12);
    println!(
        "state rebuild: recover {recover_s:.6}s ({replayed} records → {replay_rate:.0} replays/s) \
         vs from-scratch recompute {scratch_s:.6}s"
    );

    // Phase 3: replica staleness + leader restart.
    let rep_dir = tmpdir("leader");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind leader");
    let addr = listener.local_addr().unwrap();
    let mut leader_session = session_on(g.clone(), &opts);
    let leader_durable = Durability::create(
        &rep_dir,
        &mut leader_session,
        DurabilityOptions {
            fsync: FsyncPolicy::Never,
            checkpoint_every: 0,
            crash_after: None,
        },
    )
    .expect("leader durability");
    let server = spawn_with(
        leader_session,
        listener,
        ServerOptions {
            durable: Some(leader_durable),
            ..ServerOptions::new(3)
        },
    )
    .expect("spawn leader");
    let mut fopts = FollowerOptions::new(addr.to_string());
    fopts.backoff_base = Duration::from_millis(20);
    fopts.backoff_cap = Duration::from_millis(500);
    let follower = Follower::spawn(fopts);

    let mut staleness_s = Vec::new();
    let drive = |server_addr, epochs: std::ops::Range<u64>, staleness: &mut Vec<f64>| {
        let mut c = Client::connect_retry(&format!("{server_addr}"), Duration::from_secs(10));
        for epoch in epochs {
            let b = &script[(epoch as usize - 1) % script.len()];
            for &(u, v) in &b.insertions {
                c.roundtrip(&format!("insert {u} {v}"));
            }
            for &(u, v) in &b.deletions {
                c.roundtrip(&format!("delete {u} {v}"));
            }
            let reply = c.roundtrip("batch");
            assert!(reply.starts_with("ok batch="), "commit failed: {reply}");
            let t = Instant::now();
            let deadline = t + Duration::from_secs(30);
            while follower.epoch() < epoch {
                assert!(
                    Instant::now() < deadline,
                    "follower stuck at {} waiting for {epoch}",
                    follower.epoch()
                );
                std::thread::sleep(Duration::from_micros(200));
            }
            staleness.push(t.elapsed().as_secs_f64());
        }
        c.roundtrip("quit");
    };
    let half = (args.steps as u64 / 2).max(1);
    drive(addr, 1..half + 1, &mut staleness_s);

    // Leader restart: graceful stop (flushes the log), recover, rebind.
    let t = Instant::now();
    server.stop();
    let (restored, restored_durable, rep) =
        Durability::recover(&rep_dir, opts.clone(), DurabilityOptions::default())
            .expect("leader recover");
    assert_eq!(rep.final_epoch, half, "leader lost acked commits");
    let listener = std::net::TcpListener::bind(addr).expect("rebind leader");
    let server = spawn_with(
        restored,
        listener,
        ServerOptions {
            durable: Some(restored_durable),
            ..ServerOptions::new(3)
        },
    )
    .expect("respawn leader");
    let restart_s = t.elapsed().as_secs_f64();

    let mut post_staleness_s = Vec::new();
    drive(addr, half + 1..half + 4, &mut post_staleness_s);
    let reconnects = follower.reconnects();
    assert!(reconnects >= 1, "follower never had to reconnect");
    let fstats = follower.stop().expect("follower clean stop");
    server.stop();
    println!(
        "replica: staleness mean {:.6}s / p99 {:.6}s over {} commits; \
         leader restart {restart_s:.3}s, follower reconnected ({} reconnects, {} resyncs) \
         and tracked {} more commits (post-restart p99 {:.6}s)",
        mean(&staleness_s),
        p99(&staleness_s),
        staleness_s.len(),
        fstats.reconnects,
        fstats.resyncs,
        post_staleness_s.len(),
        p99(&post_staleness_s),
    );

    let json = render_json(
        &args,
        tax,
        recover_s,
        scratch_s,
        replay_rate,
        &staleness_s,
        &post_staleness_s,
        restart_s,
        fstats.reconnects,
    );
    if let Some(path) = &args.json_path {
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    } else {
        println!("\n{json}");
    }
    if let Some(required) = args.require {
        // A config whose step count lands exactly on a checkpoint leaves
        // no WAL tail: there is no replay to rate-gate, which is a
        // configuration error, not a pass.
        assert!(
            replayed > 0,
            "--require needs a WAL tail to measure; pick steps not divisible by checkpoint-every"
        );
        assert!(
            replay_rate >= required,
            "replay rate {replay_rate:.1}/s below required {required:.1}/s"
        );
        println!("replay rate target ≥ {required:.1}/s met");
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&rep_dir).ok();
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    args: &Args,
    tax: f64,
    recover_s: f64,
    scratch_s: f64,
    replay_rate: f64,
    staleness_s: &[f64],
    post_staleness_s: &[f64],
    restart_s: f64,
    reconnects: u64,
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"experiment\": \"recovery_bench\",\n");
    s.push_str(&format!("  \"vertices\": {},\n", args.vertices));
    s.push_str(&format!("  \"batch\": {},\n", args.batch));
    s.push_str(&format!("  \"steps\": {},\n", args.steps));
    s.push_str(&format!("  \"fsync\": \"{}\",\n", args.fsync));
    s.push_str(&format!(
        "  \"checkpoint_every\": {},\n",
        args.checkpoint_every
    ));
    s.push_str(&format!("  \"seed\": {},\n", args.seed));
    s.push_str(&format!("  \"logging_tax\": {tax:.4},\n"));
    s.push_str(&format!("  \"recover_s\": {recover_s:.9},\n"));
    s.push_str(&format!("  \"recompute_s\": {scratch_s:.9},\n"));
    s.push_str(&format!("  \"replay_rate\": {replay_rate:.2},\n"));
    s.push_str(&format!(
        "  \"staleness_mean_s\": {:.9},\n",
        mean(staleness_s)
    ));
    s.push_str(&format!(
        "  \"staleness_p99_s\": {:.9},\n",
        p99(staleness_s)
    ));
    s.push_str(&format!(
        "  \"post_restart_staleness_p99_s\": {:.9},\n",
        p99(post_staleness_s)
    ));
    s.push_str(&format!("  \"leader_restart_s\": {restart_s:.9},\n"));
    s.push_str(&format!("  \"follower_reconnects\": {reconnects}\n}}"));
    s
}
