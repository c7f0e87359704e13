//! Sharded ≡ unsharded oracle: the same scripted session against a
//! 4-shard [`lockfree_pagerank::shard::ShardRouter`] and against the
//! single-session server must agree —
//!
//! * **bit-for-bit** when the partition has no crossing edges (the
//!   correction overlay is `None` and every shard solves its subsystem
//!   exactly as the unsharded kernel would, at `threads = 1`), and
//! * within the documented exchange-round staleness bound
//!   `α^(K+1) / (1 − α)` (≈ 5e-9 at the default K = 128, α = 0.85)
//!   when edges cross shards.
//!
//! Replies are compared through the typed protocol parser, not as raw
//! text: a sharded reply carries `epochs=a,b,c,d` where the unsharded
//! one carries `epoch=e`, so the transcript bytes differ by design
//! while the payloads must not.

use lockfree_pagerank::graph::generators::erdos_renyi;
use lockfree_pagerank::graph::selfloops::add_self_loops;
use lockfree_pagerank::graph::{DynGraph, GraphBuilder, Partition};
use lockfree_pagerank::protocol::{continuation_lines, parse_response, Response};
use lockfree_pagerank::server::serve_stdin;
use lockfree_pagerank::shard::{serve_shard_client, ShardRouter, ShardSpec};
use lockfree_pagerank::{Algorithm, PagerankOptions, UpdateSession};
use std::fmt::Write as _;

const SHARDS: usize = 4;

fn opts() -> PagerankOptions {
    PagerankOptions::default().with_threads(1)
}

/// Four 16-vertex blocks, edges strictly inside each block — the block
/// partition at 4 shards has zero crossing edges.
fn block_local_graph() -> DynGraph {
    let mut edges = Vec::new();
    for b in 0u32..4 {
        let base = b * 16;
        for i in 0..16u32 {
            edges.push((base + i, base + (i + 1) % 16)); // block ring
            edges.push((base + i, base + (i * 5 + 3) % 16)); // block chords
        }
    }
    let mut g = GraphBuilder::new(64).edges(edges).build_dyn().unwrap();
    add_self_loops(&mut g);
    g
}

/// Reply blocks of a transcript, using the head-line framing rule.
fn blocks(out: &str) -> Vec<Response> {
    let mut lines = out.lines();
    let mut parsed = Vec::new();
    while let Some(head) = lines.next() {
        let mut block = head.to_string();
        for _ in 0..continuation_lines(head) {
            block.push('\n');
            block.push_str(lines.next().expect("truncated reply block"));
        }
        parsed.push(parse_response(&block).unwrap_or_else(|| panic!("unparsable reply: {block}")));
    }
    parsed
}

/// Run `script` against a fresh unsharded session over `g` and a fresh
/// `SHARDS`-shard router over the same graph; return both parsed
/// transcripts.
fn both_transcripts(g: &DynGraph, script: &str) -> (Vec<Response>, Vec<Response>) {
    let mut session = UpdateSession::new(g.clone(), Algorithm::DfLF, opts());
    session.enable_delta_tracking();
    let mut single = Vec::new();
    serve_stdin(session, None, &None, script.as_bytes(), &mut single).unwrap();

    let router =
        ShardRouter::new(g.clone(), Algorithm::DfLF, opts(), ShardSpec::new(SHARDS)).unwrap();
    let mut sharded = Vec::new();
    serve_shard_client(&router, script.as_bytes(), &mut sharded).unwrap();
    router.shutdown();

    (
        blocks(&String::from_utf8(single).unwrap()),
        blocks(&String::from_utf8(sharded).unwrap()),
    )
}

/// The bit-identity script: every commit touches exactly ONE block, so
/// the global incremental solve and the owning shard's solve run the
/// same frontier sweeps and freeze at the same bits. (A commit spanning
/// blocks converges each region against a shared stopping gate in the
/// unsharded kernel — regions that converge early keep getting swept —
/// so multi-shard commits agree only to the τ neighbourhood; the
/// crossing-edge test below covers those.) `movers` is probed only
/// after the first commit: it merges each shard's *latest* deltas, so
/// once a second single-shard commit lands, the sharded reply would
/// also surface the previous shard's (older) movement by design.
fn script(n: u32) -> String {
    let mut s = String::new();
    for round in 0u32..3 {
        let base = round * 16; // round r edits block r only
        writeln!(s, "insert {} {}", base + round, base + (7 + round * 3) % 16).unwrap();
        writeln!(
            s,
            "insert {} {}",
            base + round + 2,
            base + (11 + round) % 16
        )
        .unwrap();
        writeln!(s, "delete {} {}", base, base + 1).unwrap();
        writeln!(s, "batch").unwrap();
        writeln!(s, "topk 8").unwrap();
        if round == 0 {
            writeln!(s, "movers 4").unwrap();
        }
    }
    writeln!(s, "batch").unwrap(); // empty commit: no shard advances
    for v in 0..n {
        writeln!(s, "rank {v}").unwrap();
    }
    writeln!(s, "stats").unwrap();
    writeln!(s, "quit").unwrap();
    s
}

/// The crossing-edge script: commits deliberately span shards.
fn crossing_script(n: u32) -> String {
    let mut s = String::new();
    for round in 0u32..3 {
        for b in 0u32..4 {
            let base = b * 16;
            writeln!(s, "insert {} {}", base + round, (base + 23 + round * 7) % n).unwrap();
        }
        writeln!(s, "batch").unwrap();
    }
    for v in 0..n {
        writeln!(s, "rank {v}").unwrap();
    }
    writeln!(s, "quit").unwrap();
    s
}

#[test]
fn sharded_is_bit_identical_without_crossing_edges() {
    let g = block_local_graph();
    assert_eq!(
        Partition::block(64, SHARDS).unwrap().crossing_edges(&g),
        vec![],
        "fixture must not cross the block partition"
    );
    let (single, sharded) = both_transcripts(&g, &script(64));
    assert_eq!(single.len(), sharded.len(), "transcripts must pair up");
    for (a, b) in single.iter().zip(&sharded) {
        match (a, b) {
            (Response::Rank { v, rank: ra, .. }, Response::Rank { v: w, rank: rb, .. }) => {
                assert_eq!(v, w);
                assert_eq!(
                    ra.to_bits(),
                    rb.to_bits(),
                    "rank {v}: {ra:e} vs {rb:e} must be bitwise equal"
                );
            }
            (Response::TopK { entries: ea, .. }, Response::TopK { entries: eb, .. }) => {
                assert_eq!(ea.len(), eb.len());
                for ((va, ra), (vb, rb)) in ea.iter().zip(eb) {
                    assert_eq!(va, vb, "topk order must match");
                    assert_eq!(ra.to_bits(), rb.to_bits());
                }
            }
            (Response::Movers { entries: ea, .. }, Response::Movers { entries: eb, .. }) => {
                let ka: Vec<_> = ea.iter().map(|m| (m.v, m.rank.to_bits())).collect();
                let kb: Vec<_> = eb.iter().map(|m| (m.v, m.rank.to_bits())).collect();
                assert_eq!(ka, kb, "movers must match bitwise");
            }
            (
                Response::BatchOk {
                    batch: ba,
                    m: ma,
                    status: sa,
                    ..
                },
                Response::BatchOk {
                    batch: bb,
                    m: mb,
                    status: sb,
                    ..
                },
            ) => {
                assert_eq!((ba, ma, sa), (bb, mb, sb));
            }
            (
                Response::Stats {
                    n: na,
                    m: ma,
                    staged: sa,
                    ..
                },
                Response::Stats {
                    n: nb,
                    m: mb,
                    staged: sb,
                    ..
                },
            ) => {
                assert_eq!((na, ma, sa), (nb, mb, sb));
            }
            (Response::Staged { count: a }, Response::Staged { count: b }) => assert_eq!(a, b),
            (Response::Error(a), Response::Error(b)) => assert_eq!(a, b),
            (Response::Bye, Response::Bye) => {}
            (a, b) => panic!("transcript shape diverged: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn sharded_stays_within_the_exchange_round_bound_with_crossing_edges() {
    // An Erdős–Rényi graph crosses the block partition heavily; the
    // router must land every rank within the documented K-round
    // staleness bound of the single-session answer. 1e-8 leaves room
    // for the bound (≈5e-9) plus both kernels' τ = 1e-10 solves.
    let mut g = erdos_renyi(64, 384, 11);
    add_self_loops(&mut g);
    assert!(
        !Partition::block(64, SHARDS)
            .unwrap()
            .crossing_edges(&g)
            .is_empty(),
        "fixture must cross the partition"
    );
    let (single, sharded) = both_transcripts(&g, &crossing_script(64));
    assert_eq!(single.len(), sharded.len());
    let mut ranks_checked = 0;
    for (a, b) in single.iter().zip(&sharded) {
        if let (Response::Rank { v, rank: ra, .. }, Response::Rank { rank: rb, .. }) = (a, b) {
            let diff = (ra - rb).abs();
            assert!(
                diff < 1e-8,
                "rank {v} drifted past the exchange bound: {ra:e} vs {rb:e} (diff {diff:e})"
            );
            ranks_checked += 1;
        }
    }
    assert_eq!(ranks_checked, 64, "every rank probe must be compared");
}

#[test]
fn sharded_smoke_fixture_is_byte_identical() {
    // The same script/expected pair CI drives through `lfpr serve
    // --gen 200 800 7 --threads 1 --shards 4`, pinned here so plain
    // `cargo test` catches wire drift without the CLI.
    let mut g = erdos_renyi(200, 800, 7);
    add_self_loops(&mut g);
    let router = ShardRouter::new(g, Algorithm::DfLF, opts(), ShardSpec::new(4)).unwrap();
    let script = std::fs::read_to_string("tests/data/serve_shard_smoke.in").unwrap();
    let mut out = Vec::new();
    serve_shard_client(&router, script.as_bytes(), &mut out).unwrap();
    router.shutdown();
    let expected = std::fs::read_to_string("tests/data/serve_shard_smoke.expected").unwrap();
    assert_eq!(
        String::from_utf8(out).unwrap(),
        expected,
        "sharded smoke replies drifted from tests/data/serve_shard_smoke.expected"
    );
}

#[test]
fn router_boundary_vertex_sets_are_exact() {
    // 8 vertices, 2 shards (0–3 | 4–7). Crossing: 1→5 and 6→2, so the
    // boundary of shard 0 is exactly {1} and of shard 1 exactly {6}.
    let mut g = GraphBuilder::new(8)
        .edges(vec![(0, 1), (1, 5), (2, 3), (4, 7), (6, 2), (5, 4)])
        .build_dyn()
        .unwrap();
    add_self_loops(&mut g);
    let router = ShardRouter::new(g.clone(), Algorithm::DfLF, opts(), ShardSpec::new(2)).unwrap();
    let part = router.partition();
    assert_eq!(part.boundary_vertices(&g, 0), vec![1]);
    assert_eq!(part.boundary_vertices(&g, 1), vec![6]);
    assert_eq!(part.crossing_edges(&g), vec![(1, 5), (6, 2)]);
    // The boundary is what the exchange exports: with crossing edges
    // present a correction overlay must exist, and dropping the only
    // crossing sources' influence (deleting both edges) must clear it.
    let pin = router.pin();
    let total: f64 = (0..8).map(|v| pin.rank(v)).sum();
    assert!(
        (total - 1.0).abs() < 1e-6,
        "corrected ranks must stay a distribution"
    );
    router.shutdown();
}
