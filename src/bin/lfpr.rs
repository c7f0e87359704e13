//! `lfpr` — command-line PageRank over edge-list / MatrixMarket graphs.
//!
//! ```text
//! lfpr rank   <graph> [--algo staticlf] [--threads N] [--top K] [--tolerance T]
//! lfpr update <graph> <batch-edge-list> [--algo dflf] [--threads N] [--top K]
//! lfpr stats  <graph>
//! lfpr serve  [--graph path | --gen n m seed] [--algo dflf] [--threads N]
//!             [--tolerance T] [--tauf T] [--tcp addr:port] [--workers N]
//!             [--wal dir] [--fsync always|every-k|never] [--checkpoint-every N]
//!             [--recover] [--crash-after N] [--layout packed|gapped]
//!             [--reorder none|degree|bfs] [--shards N]
//! lfpr follow <leader-addr> [--tcp addr:port] [--threads N]
//!             [--max-attempts N] [--sync-timeout secs]
//! ```
//!
//! `serve` runs the streaming batch service: an incremental
//! `UpdateSession` driven by the line protocol documented in
//! [`lockfree_pagerank::serve`] over stdin/stdout (default) or a TCP
//! socket. TCP mode serves many clients concurrently
//! ([`lockfree_pagerank::server`]): `--workers` connection handlers
//! answer reads from the epoch-published rank view while one writer
//! thread commits batches. Protocol replies go to stdout (stdin mode)
//! or the socket; logs and per-batch timing go to stderr, so scripted
//! sessions are diffable.
//!
//! `--wal <dir>` makes the service durable ([`lockfree_pagerank::durable`]):
//! every committed batch and view change is appended to a write-ahead
//! log before it is acknowledged, and a checkpoint truncates the log
//! every `--checkpoint-every` commits. `--recover` restores the session
//! from that directory (checkpoint + intact WAL tail) instead of
//! loading a graph. `--crash-after N` is the fault-injection hook used
//! by the CI recovery smoke: the process aborts right after the N-th
//! commit hits the log. `follow` mirrors a `--tcp` leader over the
//! replica feed and serves the mirrored ranks read-only.
//!
//! `--shards N` (N ≥ 2) serves the sharded tier
//! ([`lockfree_pagerank::shard`]): vertices are block-partitioned
//! across N independent session shards, each with its own writer
//! thread, epoch counter, and (with `--wal`) its own log under
//! `dir/shard-NN/`; commits scatter into per-shard sub-batches and
//! replies carry per-shard epoch vectors (`epochs=a,b,…`). `--shards 1`
//! (the default) is the ordinary single-session server and keeps the
//! v1 wire format byte-for-byte.
//!
//! `<graph>` is a SNAP-style edge list (`u v` per line, `#` comments) or
//! a MatrixMarket `.mtx` file, chosen by extension unless `--format
//! <snap|mtx>` overrides it; files load through the streaming ingestion
//! subsystem (mmap + parallel chunk parse). `update` treats the second
//! file's edges as an insert-only batch (edges already present are
//! ignored), computes the base ranks, applies the batch, and refreshes
//! incrementally.

use lockfree_pagerank::core::reference::reference_default;
use lockfree_pagerank::graph::io::{read_edge_list, stream};
use lockfree_pagerank::graph::selfloops::add_self_loops;
use lockfree_pagerank::graph::{DynGraph, GraphFormat};
use lockfree_pagerank::{api, Algorithm, BatchUpdate, PagerankOptions};

fn load_graph(path: &str, format: Option<GraphFormat>) -> DynGraph {
    let format = format.unwrap_or_else(|| GraphFormat::detect(path));
    let mut g = stream::load_graph(path, format).unwrap_or_else(|e| {
        eprintln!("error loading {path}: {e}");
        std::process::exit(1);
    });
    add_self_loops(&mut g);
    g
}

struct Flags {
    algo: Algorithm,
    threads: usize,
    top: usize,
    tolerance: f64,
    format: Option<GraphFormat>,
}

fn parse_flags(args: &[String], default_algo: Algorithm) -> Flags {
    let mut f = Flags {
        algo: default_algo,
        threads: lockfree_pagerank::sched::executor::default_threads().max(4),
        top: 10,
        tolerance: 1e-10,
        format: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--algo" => {
                f.algo = args[i + 1].parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--format" => {
                f.format = Some(args[i + 1].parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                }));
                i += 2;
            }
            "--threads" => {
                f.threads = args[i + 1].parse().expect("--threads N");
                i += 2;
            }
            "--top" => {
                f.top = args[i + 1].parse().expect("--top K");
                i += 2;
            }
            "--tolerance" => {
                f.tolerance = args[i + 1].parse().expect("--tolerance T");
                i += 2;
            }
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }
    f
}

fn print_top(ranks: &[f64], k: usize) {
    let mut idx: Vec<usize> = (0..ranks.len()).collect();
    idx.sort_by(|&a, &b| ranks[b].partial_cmp(&ranks[a]).unwrap());
    println!("{:<10} {:>14}", "vertex", "rank");
    for &v in idx.iter().take(k) {
        println!("{:<10} {:>14.6e}", v, ranks[v]);
    }
}

fn serve_main(args: &[String]) {
    use lockfree_pagerank::durable::Durability;
    use lockfree_pagerank::server::{serve_stdin, spawn_with, ServerOptions};
    use lockfree_pagerank::{GraphSource, Reordering, ServeConfig, UpdateSession};
    use std::sync::Arc;

    let bad = |msg: &str| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    // One typed config carries the whole flag set; every flag
    // interaction (recover×reorder, recover×shards, …) is checked by
    // ServeConfig::validate in one place, not scattered through the
    // argument loop.
    let cfg = ServeConfig::from_args(args).unwrap_or_else(|e| bad(&e));
    let opts = cfg.pagerank_options();
    let dopts = cfg.durability_options();
    if cfg.shards > 1 {
        return serve_sharded(&cfg, opts);
    }
    let (session, durable, reorder) = match &cfg.source {
        GraphSource::Recovered => {
            let dir = cfg.wal_dir.as_deref().expect("validate: recover needs wal");
            // The algorithm and graph come from the checkpoint; --algo is
            // only the default for a fresh start. The vertex permutation
            // (if the original session was reordered) rides along too.
            match Durability::recover(dir, opts, dopts) {
                Ok((mut session, durable, report)) => {
                    eprintln!("# {report}");
                    session.set_storage_layout(cfg.layout);
                    let reorder = durable.reordering().clone();
                    (session, Some(durable), reorder)
                }
                // Stable text — the CI smoke greps for this prefix.
                Err(e) => bad(&format!("recover failed: {e}")),
            }
        }
        _ => {
            let g = load_source(&cfg.source);
            // Renumber for batch locality before the session computes its
            // initial ranks; the serve boundary keeps speaking external ids.
            let reorder = Reordering::compute(cfg.reorder, &g).map(Arc::new);
            let g = match &reorder {
                Some(r) => r.apply(&g),
                None => g,
            };
            let mut session = UpdateSession::new_with_layout(g, cfg.algo, opts, cfg.layout);
            // `movers` and subscriptions need per-batch deltas.
            session.enable_delta_tracking();
            let durable = cfg.wal_dir.as_deref().map(|dir| {
                Durability::create_reordered(dir, &mut session, dopts, reorder.clone())
                    .unwrap_or_else(|e| bad(&format!("cannot start wal: {e}")))
            });
            (session, durable, reorder)
        }
    };
    eprintln!(
        "# serving {} vertices / {} edges with {} on {} thread(s), {} layout{}{}",
        session.graph().num_vertices(),
        session.graph().num_edges(),
        session.algorithm(),
        cfg.threads,
        session.storage_layout(),
        match &reorder {
            Some(_) => " (reordered)",
            None => "",
        },
        match &durable {
            Some(d) => format!(" (wal: {})", d.dir().display()),
            None => String::new(),
        }
    );
    match &cfg.tcp {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let (session, summary) =
                serve_stdin(session, durable, &reorder, stdin.lock(), stdout.lock())
                    .unwrap_or_else(|e| bad(&format!("serve failed: {e}")));
            eprintln!(
                "# session ended: {} commands, {} batches, {} edge updates, {} steps",
                summary.commands,
                summary.batches,
                summary.updates,
                session.steps()
            );
        }
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .unwrap_or_else(|e| bad(&format!("cannot bind {addr}: {e}")));
            let server = spawn_with(
                session,
                listener,
                ServerOptions {
                    workers: cfg.workers,
                    durable,
                    reorder,
                    coalesce: cfg.coalesce,
                },
            )
            .unwrap_or_else(|e| bad(&format!("cannot start server: {e}")));
            eprintln!(
                "# listening on {} ({} event loops, single-writer {} commits, epoch-published reads)",
                server.addr(),
                cfg.workers,
                if cfg.coalesce { "coalesced" } else { "sequential" }
            );
            if let Err(e) = server.wait() {
                eprintln!("# server stopped: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Materialize a non-`Recovered` graph source.
fn load_source(source: &lockfree_pagerank::GraphSource) -> DynGraph {
    use lockfree_pagerank::GraphSource;
    match source {
        GraphSource::File { path, format } => load_graph(path, *format),
        GraphSource::Generated { n, m, seed } => {
            let mut g = lockfree_pagerank::graph::generators::erdos_renyi(*n, *m, *seed);
            add_self_loops(&mut g);
            g
        }
        GraphSource::Recovered => unreachable!("recover is handled before loading"),
    }
}

/// `lfpr serve --shards N` (N ≥ 2): the sharded serving tier. The
/// vertex partition is computed jointly with the load-time reordering,
/// then a [`lockfree_pagerank::shard::ShardRouter`] runs one session +
/// writer thread per shard; clients speak the v2 handshake and see
/// per-shard epoch vectors.
fn serve_sharded(cfg: &lockfree_pagerank::ServeConfig, opts: PagerankOptions) {
    use lockfree_pagerank::graph::Partition;
    use lockfree_pagerank::shard::{serve_shard_client_reordered, ShardRouter, ShardSpec};
    use std::sync::Arc;

    let bad = |msg: &str| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let g = load_source(&cfg.source);
    let (reorder, part) =
        Partition::compute_joint(cfg.reorder, cfg.shards, &g).unwrap_or_else(|e| bad(&e));
    let reorder = reorder.map(Arc::new);
    let g = match &reorder {
        Some(r) => r.apply(&g),
        None => g,
    };
    let spec = ShardSpec {
        wal_dir: cfg.wal_dir.clone(),
        durability: cfg.durability_options(),
        ..ShardSpec::new(cfg.shards)
    };
    let durable = spec.wal_dir.is_some();
    let router =
        ShardRouter::with_partition(g, part, cfg.algo, opts, spec).unwrap_or_else(|e| bad(&e));
    eprintln!(
        "# serving {} vertices / {} edges with {} on {} shard(s) ({} partition){}{}",
        router.num_vertices(),
        router.pin().num_edges(),
        router.algorithm(),
        router.shards(),
        router.partition().strategy(),
        match &reorder {
            Some(_) => " (reordered)",
            None => "",
        },
        match &cfg.wal_dir {
            Some(d) if durable => format!(" (wal: {})", d.display()),
            _ => String::new(),
        }
    );
    match &cfg.tcp {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let summary =
                serve_shard_client_reordered(&router, &reorder, stdin.lock(), stdout.lock())
                    .unwrap_or_else(|e| bad(&format!("serve failed: {e}")));
            let steps: u64 = router.pin().epochs().iter().sum();
            eprintln!(
                "# session ended: {} commands, {} batches, {} edge updates, {} steps",
                summary.commands, summary.batches, summary.updates, steps
            );
            router.shutdown();
        }
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .unwrap_or_else(|e| bad(&format!("cannot bind {addr}: {e}")));
            let server = lockfree_pagerank::server::spawn_sharded(router, reorder, listener)
                .unwrap_or_else(|e| bad(&format!("cannot start server: {e}")));
            eprintln!(
                "# listening on {} ({} shards, scatter/gather commits, epoch-published reads)",
                server.addr(),
                cfg.shards,
            );
            server.wait();
        }
    }
}

/// `lfpr follow <leader>`: mirror a `--tcp` leader over the replica
/// feed and serve the mirrored ranks read-only — over TCP when `--tcp`
/// is given, over stdin/stdout otherwise. The follower reconnects with
/// exponential backoff when the leader drops and resyncs automatically
/// when it falls behind the leader's log.
fn follow_main(args: &[String]) {
    use lockfree_pagerank::replica::{Follower, FollowerOptions};
    use lockfree_pagerank::serve::{serve_client, Backend};
    use std::io::{BufReader, BufWriter};

    let bad = |msg: &str| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let value = |i: usize, usage: &str| -> &String {
        args.get(i)
            .unwrap_or_else(|| bad(&format!("usage: {usage}")))
    };
    let mut leader: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut threads = 1usize;
    let mut max_attempts = 30u32;
    let mut sync_timeout = 60u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tcp" => {
                tcp = Some(value(i + 1, "--tcp <addr:port>").clone());
                i += 2;
            }
            "--threads" => {
                threads = value(i + 1, "--threads <n>")
                    .parse()
                    .unwrap_or_else(|_| bad("usage: --threads <n>"));
                i += 2;
            }
            "--max-attempts" => {
                max_attempts = value(i + 1, "--max-attempts <n>")
                    .parse()
                    .unwrap_or_else(|_| bad("usage: --max-attempts <n>"));
                i += 2;
            }
            "--sync-timeout" => {
                sync_timeout = value(i + 1, "--sync-timeout <secs>")
                    .parse()
                    .unwrap_or_else(|_| bad("usage: --sync-timeout <secs>"));
                i += 2;
            }
            other if leader.is_none() && !other.starts_with('-') => {
                leader = Some(other.to_string());
                i += 1;
            }
            other => bad(&format!("unknown flag: {other}")),
        }
    }
    let leader = leader.unwrap_or_else(|| bad("usage: lfpr follow <leader-addr> [flags]"));
    let mut fopts = FollowerOptions::new(&leader);
    fopts.runtime = fopts.runtime.with_threads(threads);
    fopts.max_attempts = max_attempts;
    let follower = Follower::spawn(fopts);
    // The leader might still be coming up (the CI smoke starts both at
    // once): the follower retries with backoff; we wait here for the
    // first full sync before serving anything.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(sync_timeout);
    while follower.reader().is_none() {
        if std::time::Instant::now() > deadline {
            eprintln!("follow failed: no sync from {leader} within {sync_timeout}s");
            std::process::exit(1);
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("# following {leader} from epoch {}", follower.epoch());
    match tcp {
        None => {
            let (reader, algorithm, reorder) = follower.reader().expect("reader after sync");
            let backend = Backend::replica(reader, algorithm);
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let summary = serve_client(&backend, &reorder, stdin.lock(), stdout.lock())
                .unwrap_or_else(|e| bad(&format!("serve failed: {e}")));
            eprintln!(
                "# replica session ended: {} commands at epoch {}",
                summary.commands,
                follower.epoch()
            );
            match follower.stop() {
                Ok(stats) => eprintln!(
                    "# follower stopped: {} resyncs, {} deltas applied, {} reconnects",
                    stats.resyncs, stats.deltas_applied, stats.reconnects
                ),
                Err(e) => eprintln!("# follower failed: {e}"),
            }
        }
        Some(addr) => {
            let listener = std::net::TcpListener::bind(&addr)
                .unwrap_or_else(|e| bad(&format!("cannot bind {addr}: {e}")));
            eprintln!(
                "# replica listening on {} (read-only)",
                listener.local_addr().map(|a| a.to_string()).unwrap_or(addr)
            );
            loop {
                let (conn, peer) = match listener.accept() {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("# accept error: {e}");
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        continue;
                    }
                };
                // Re-fetch per connection: a resync after a leader
                // restart swaps in a fresh reader.
                let Some((reader, algorithm, reorder)) = follower.reader() else {
                    continue;
                };
                std::thread::spawn(move || {
                    eprintln!("# replica connection from {peer}");
                    let input = BufReader::new(conn.try_clone().expect("clone socket"));
                    let output = BufWriter::new(conn);
                    let backend = Backend::replica(reader, algorithm);
                    match serve_client(&backend, &reorder, input, output) {
                        Ok(s) => eprintln!("# replica connection closed: {} commands", s.commands),
                        Err(e) => eprintln!("# replica client dropped: {e}"),
                    }
                });
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() >= 2 && args[1] == "serve" {
        serve_main(&args[2..]);
        return;
    }
    if args.len() >= 2 && args[1] == "follow" {
        follow_main(&args[2..]);
        return;
    }
    if args.len() < 3 {
        eprintln!("usage: lfpr <rank|update|stats|serve|follow> <graph> [batch] [flags]");
        std::process::exit(2);
    }
    match args[1].as_str() {
        "stats" => {
            let flags = parse_flags(&args[3..], Algorithm::StaticLF);
            let g = load_graph(&args[2], flags.format);
            let st = lockfree_pagerank::graph::analysis::stats(&g.snapshot());
            println!("{st:#?}");
        }
        "rank" => {
            let flags = parse_flags(&args[3..], Algorithm::StaticLF);
            let g = load_graph(&args[2], flags.format);
            let s = g.snapshot();
            let opts = PagerankOptions::default()
                .with_threads(flags.threads)
                .with_tolerance(flags.tolerance);
            // From-scratch ranking has no previous state, so a dynamic
            // variant degenerates to its static counterpart (same rule
            // as RankMaintainer::new).
            let algo = match flags.algo {
                a @ (Algorithm::StaticBB | Algorithm::StaticLF) => a,
                a if a.is_lock_free() => {
                    eprintln!("# {a} needs previous ranks; running StaticLF");
                    Algorithm::StaticLF
                }
                a => {
                    eprintln!("# {a} needs previous ranks; running StaticBB");
                    Algorithm::StaticBB
                }
            };
            let t0 = std::time::Instant::now();
            let res = api::run_static(algo, &s, &opts);
            println!(
                "# {} on {} vertices / {} edges: {:?} in {:?} ({} iterations)",
                algo,
                s.num_vertices(),
                s.num_edges(),
                res.status,
                t0.elapsed(),
                res.iterations
            );
            print_top(&res.ranks, flags.top);
        }
        "update" => {
            if args.len() < 4 {
                eprintln!("usage: lfpr update <graph> <batch-edge-list> [flags]");
                std::process::exit(2);
            }
            let flags = parse_flags(&args[4..], Algorithm::DfLF);
            let mut g = load_graph(&args[2], flags.format);
            let prev = g.snapshot();
            let prev_ranks = reference_default(&prev);
            let additions = read_edge_list(&args[3]).unwrap_or_else(|e| {
                eprintln!("error loading batch: {e}");
                std::process::exit(1);
            });
            let mut batch = BatchUpdate::new();
            for (u, v) in additions.edges() {
                if (u as usize) < g.num_vertices()
                    && (v as usize) < g.num_vertices()
                    && g.insert_edge_if_absent(u, v).unwrap_or(false)
                {
                    batch.insertions.push((u, v));
                }
            }
            let curr = g.snapshot();
            let opts = PagerankOptions::default()
                .with_threads(flags.threads)
                .with_tolerance(flags.tolerance);
            let t0 = std::time::Instant::now();
            let res = api::run_dynamic(flags.algo, &prev, &curr, &batch, &prev_ranks, &opts);
            println!(
                "# {} applied {} insertions: {:?} in {:?} ({} iterations, {} vertices touched)",
                flags.algo,
                batch.len(),
                res.status,
                t0.elapsed(),
                res.iterations,
                res.vertices_processed
            );
            print_top(&res.ranks, flags.top);
        }
        other => {
            eprintln!("unknown command: {other}");
            std::process::exit(2);
        }
    }
}
