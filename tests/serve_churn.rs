//! Temporal-churn serve test: replay a preferential-attachment
//! interaction stream (the Table-1 substitute generator) through the
//! line protocol, with rank-change subscriptions and a personalized
//! view active the whole time, and validate every reply with the typed
//! protocol parser.
//!
//! This exercises the protocol under sustained realistic churn — many
//! epochs, duplicate-heavy batches, pushes interleaving with replies —
//! rather than the single-commit scripts of the unit tests.

use lockfree_pagerank::graph::generators::temporal::{filter_new_edges, temporal_stream};
use lockfree_pagerank::protocol::{continuation_lines, parse_response, Response};
use lockfree_pagerank::server::serve_stdin;
use lockfree_pagerank::{Algorithm, PagerankOptions, UpdateSession};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Vertices the script subscribes to with `eps` = 0 (push on any
/// bitwise rank change).
const SUBS: [u32; 4] = [0, 1, 2, 3];

/// Split raw serve output into reply blocks using only the head-line
/// framing rule.
fn blocks(out: &str) -> Vec<String> {
    let mut lines = out.lines();
    let mut blocks = Vec::new();
    while let Some(head) = lines.next() {
        let mut block = head.to_string();
        for _ in 0..continuation_lines(head) {
            block.push('\n');
            block.push_str(lines.next().expect("truncated reply block"));
        }
        blocks.push(block);
    }
    blocks
}

#[test]
fn temporal_churn_with_subscriptions_and_views() {
    let tg = temporal_stream("churn", 300, 4000, 2.0, 42);
    let (g, tail) = tg.preload(0.9);
    let chunks = tg.tail_batches(tail, 80);
    assert!(chunks.len() >= 4, "stream tail too short to exercise churn");

    // Build the whole scripted session up front: subscriptions and a
    // personalized view first, then per-chunk insert/batch/poll/movers
    // rounds exactly as a streaming client would issue them.
    let mut replica = g.clone();
    let mut script = String::new();
    for v in SUBS {
        writeln!(script, "subscribe {v} 0").unwrap();
    }
    writeln!(script, "view add ego 0 1:0.5").unwrap();
    let mut commits = 0u64;
    for chunk in &chunks {
        let batch = filter_new_edges(&replica, chunk);
        if batch.insertions.is_empty() {
            continue; // duplicate-only chunk: nothing to commit
        }
        for &(u, v) in &batch.insertions {
            writeln!(script, "insert {u} {v}").unwrap();
        }
        replica.apply_batch(&batch).unwrap();
        commits += 1;
        writeln!(script, "batch").unwrap();
        writeln!(script, "poll").unwrap();
        writeln!(script, "movers 5").unwrap();
        writeln!(script, "rank 0 ego").unwrap();
    }
    writeln!(script, "stats").unwrap();
    writeln!(script, "quit").unwrap();
    assert!(
        commits >= 4,
        "churn script committed only {commits} batches"
    );

    let mut session = UpdateSession::new(
        g,
        Algorithm::DfLF,
        PagerankOptions::default().with_threads(1),
    );
    session.enable_delta_tracking();
    let mut out = Vec::new();
    serve_stdin(session, None, &None, script.as_bytes(), &mut out).unwrap();
    let out = String::from_utf8(out).unwrap();

    // Every block must parse through the typed grammar; walk them and
    // check the stream-level invariants.
    let subscribed: BTreeSet<u32> = SUBS.into_iter().collect();
    let mut epoch = 0u64;
    let mut pushes = 0u64;
    let mut pushed_total = 0usize;
    let mut movers_seen = 0u64;
    for block in blocks(&out) {
        let resp = parse_response(&block)
            .unwrap_or_else(|| panic!("reply fails the typed parser: {block:?}"));
        match resp {
            Response::Subscribed { v, eps } => {
                assert!(subscribed.contains(&v));
                assert_eq!(eps, 0.0);
            }
            Response::ViewAdded { name, sources, .. } => {
                assert_eq!(name, "ego");
                assert_eq!(sources, 2);
            }
            Response::Staged { .. } => {}
            Response::BatchOk { epochs: e, .. } => {
                let e = e
                    .scalar()
                    .expect("single-shard commit carries a scalar epoch");
                assert_eq!(e, epoch + 1, "commits must advance the epoch by one");
                epoch = e;
            }
            Response::Push { entries, epoch: e } => {
                assert_eq!(e, epoch, "pushes answer from the committed epoch");
                for (v, _) in &entries {
                    assert!(subscribed.contains(v), "push for unsubscribed vertex {v}");
                }
                pushes += 1;
                pushed_total += entries.len();
            }
            Response::Movers {
                entries,
                epochs: e,
                view,
            } => {
                assert_eq!(e.scalar(), Some(epoch));
                assert_eq!(view, None);
                assert!(entries.len() <= 5);
                movers_seen += 1;
                for m in &entries {
                    assert!(m.delta != 0.0, "a mover must actually have moved");
                }
            }
            Response::Rank { epoch: e, view, .. } => {
                assert_eq!(e, epoch);
                assert_eq!(view.as_deref(), Some("ego"));
            }
            Response::Stats { m, epochs: e, .. } => {
                assert_eq!(e.scalar(), Some(epoch));
                assert_eq!(m, replica.num_edges(), "served graph drifted from replica");
            }
            Response::Bye => {}
            other => panic!("unexpected reply in churn session: {other:?}"),
        }
    }
    assert_eq!(epoch, commits, "every staged batch must have committed");
    assert_eq!(movers_seen, commits);
    assert_eq!(
        pushes, commits,
        "one poll per commit must answer a push block"
    );
    assert!(
        pushed_total > 0,
        "{commits} churn batches never moved a subscribed rank"
    );
}
