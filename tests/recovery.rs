//! Crash-recovery and replica-feed integration tests: the durability
//! subsystem must restore *exactly* the state a never-crashed session
//! would hold — bit-for-bit, for every algorithm variant — no matter
//! where the writer died, and a follower must converge to the leader's
//! published ranks across reconnects and leader restarts.

use lockfree_pagerank::durable::{teleport_from_normalized, Durability, DurabilityOptions};
use lockfree_pagerank::graph::io::wal::FsyncPolicy;
use lockfree_pagerank::graph::selfloops::add_self_loops;
use lockfree_pagerank::graph::{BatchUpdate, GraphBuilder};
use lockfree_pagerank::serve::{apply_logged, WriterOp};
use lockfree_pagerank::{Algorithm, PagerankOptions, UpdateSession};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lfpr-recovery-{tag}-{}-{}",
        std::process::id(),
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace("::", "-")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn opts() -> PagerankOptions {
    // One thread: sessions are bit-deterministic, which is what makes
    // "recovered state == never-crashed state" testable at equality.
    PagerankOptions::default().with_threads(1)
}

fn session_with(algo: Algorithm) -> UpdateSession {
    let mut g = GraphBuilder::new(8)
        .edges([
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 4),
            (4, 0),
            (4, 5),
            (5, 0),
            (5, 6),
            (6, 7),
            (7, 0),
        ])
        .build_dyn()
        .unwrap();
    add_self_loops(&mut g);
    let mut s = UpdateSession::new(g, algo, opts());
    s.enable_delta_tracking();
    s
}

/// The scripted mutation history every test replays: commits, a view
/// that lives through recovery, and a view that is dropped again.
fn script() -> Vec<WriterOp> {
    let batch = |dels: &[(u32, u32)], ins: &[(u32, u32)]| {
        WriterOp::Commit(BatchUpdate {
            deletions: dels.to_vec(),
            insertions: ins.to_vec(),
        })
    };
    vec![
        batch(&[], &[(3, 1)]),
        WriterOp::AddView {
            name: "keep".into(),
            teleport: teleport_from_normalized(&[(0, 0.5), (3, 0.5)]).unwrap(),
        },
        batch(&[], &[(0, 3), (1, 5)]),
        WriterOp::AddView {
            name: "gone".into(),
            teleport: teleport_from_normalized(&[(6, 1.0)]).unwrap(),
        },
        batch(&[(3, 1)], &[(2, 4)]),
        WriterOp::DropView {
            name: "gone".into(),
        },
        batch(&[], &[(6, 2)]),
    ]
}

/// Everything observable that recovery must reproduce.
#[derive(Debug, Clone, PartialEq)]
struct StateSnap {
    steps: u64,
    ranks: Vec<f64>,
    views: Vec<(String, Vec<f64>)>,
}

fn snap(session: &UpdateSession) -> StateSnap {
    let mut views = Vec::new();
    for name in ["keep", "gone"] {
        if let Some(ranks) = session.view_ranks(name) {
            views.push((name.to_string(), ranks.to_vec()));
        }
    }
    StateSnap {
        steps: session.steps(),
        ranks: session.ranks().to_vec(),
        views,
    }
}

/// Reference states after each script prefix: `states[k]` is the
/// observable state once the first `k` ops have been applied (no WAL
/// involved — this is the never-crashed truth).
fn reference_states(algo: Algorithm) -> Vec<StateSnap> {
    let mut session = session_with(algo);
    let mut states = vec![snap(&session)];
    for op in script() {
        apply_logged(&mut session, None, None, op).expect("reference op");
        states.push(snap(&session));
    }
    states
}

#[test]
fn recovery_is_bit_identical_for_every_variant() {
    for algo in Algorithm::ALL {
        let dir = tmpdir(&format!("roundtrip-{algo}"));
        let mut session = session_with(algo);
        let mut durable = Durability::create(
            &dir,
            &mut session,
            DurabilityOptions {
                fsync: FsyncPolicy::Never,
                // Checkpoint mid-script so replay starts from a
                // non-trivial base for some ops.
                checkpoint_every: 2,
                crash_after: None,
            },
        )
        .expect("create durability");
        for op in script() {
            apply_logged(&mut session, Some(&mut durable), None, op).expect("logged op");
        }
        let want = snap(&session);
        drop(durable);
        drop(session);

        let (recovered, _durable, report) =
            Durability::recover(&dir, opts(), DurabilityOptions::default())
                .unwrap_or_else(|e| panic!("{algo}: recover failed: {e}"));
        assert_eq!(report.final_epoch, want.steps, "{algo}");
        assert_eq!(
            snap(&recovered),
            want,
            "{algo}: recovered state diverged from the never-crashed session"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Cutting the WAL at *every byte offset* — frame boundaries, torn
/// frames, even inside the header — must recover the longest intact
/// prefix: the state equals the reference after exactly the replayed
/// ops, and nothing panics or reports a partially-applied batch.
#[test]
fn truncation_at_every_offset_recovers_an_exact_prefix() {
    let algo = Algorithm::DfLF;
    let dir = tmpdir("trunc");
    let mut session = session_with(algo);
    let mut durable = Durability::create(
        &dir,
        &mut session,
        DurabilityOptions {
            fsync: FsyncPolicy::Never,
            checkpoint_every: 0, // keep every op in the log
            crash_after: None,
        },
    )
    .expect("create durability");
    for op in script() {
        apply_logged(&mut session, Some(&mut durable), None, op).expect("logged op");
    }
    durable.flush_sync().expect("flush");
    drop(durable);
    drop(session);

    let references = reference_states(algo);
    let wal_bytes = std::fs::read(dir.join("wal.log")).expect("read wal");
    let ckpt_bytes = std::fs::read(dir.join("state.ckpt")).expect("read ckpt");
    let work = tmpdir("trunc-work");
    for cut in 0..=wal_bytes.len() {
        std::fs::write(work.join("state.ckpt"), &ckpt_bytes).unwrap();
        std::fs::write(work.join("wal.log"), &wal_bytes[..cut]).unwrap();
        let (recovered, _d, report) =
            Durability::recover(&work, opts(), DurabilityOptions::default())
                .unwrap_or_else(|e| panic!("cut at {cut}: recover failed: {e}"));
        let replayed = (report.replayed_commits + report.replayed_view_ops) as usize;
        assert!(replayed < references.len(), "cut at {cut}");
        assert_eq!(report.skipped_stale, 0, "cut at {cut}");
        // A cut at an exact frame boundary leaves a *valid, shorter*
        // log — nothing to flag. A torn frame must report its reason
        // alongside the count of bytes cut. (A zero-byte file is the
        // one case flagged with no bytes to count: no header at all.)
        if cut > 0 {
            assert_eq!(
                report.truncated_bytes > 0,
                report.truncated_reason.is_some(),
                "cut at {cut}: truncated bytes/reason disagree"
            );
        }
        assert_eq!(
            snap(&recovered),
            references[replayed],
            "cut at {cut}: state is not the exact {replayed}-op prefix"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&work).ok();
}

/// Single-byte corruption anywhere in the log: the checksum stops
/// replay at the damaged frame and the surviving prefix is exact.
#[test]
fn bit_flips_recover_the_prefix_before_the_damage() {
    let algo = Algorithm::DtBB;
    let dir = tmpdir("flip");
    let mut session = session_with(algo);
    let mut durable = Durability::create(
        &dir,
        &mut session,
        DurabilityOptions {
            fsync: FsyncPolicy::Never,
            checkpoint_every: 0,
            crash_after: None,
        },
    )
    .expect("create durability");
    for op in script() {
        apply_logged(&mut session, Some(&mut durable), None, op).expect("logged op");
    }
    durable.flush_sync().expect("flush");
    drop(durable);
    drop(session);

    let references = reference_states(algo);
    let wal_bytes = std::fs::read(dir.join("wal.log")).expect("read wal");
    let ckpt_bytes = std::fs::read(dir.join("state.ckpt")).expect("read ckpt");
    let work = tmpdir("flip-work");
    // Every 3rd byte past the header keeps the sweep quick but still
    // hits length words, checksums, and payloads of every frame.
    for pos in (8..wal_bytes.len()).step_by(3) {
        let mut bad = wal_bytes.clone();
        bad[pos] ^= 0x10;
        std::fs::write(work.join("state.ckpt"), &ckpt_bytes).unwrap();
        std::fs::write(work.join("wal.log"), &bad).unwrap();
        let (recovered, _d, report) =
            Durability::recover(&work, opts(), DurabilityOptions::default())
                .unwrap_or_else(|e| panic!("flip at {pos}: recover failed: {e}"));
        let replayed = (report.replayed_commits + report.replayed_view_ops) as usize;
        assert_eq!(
            snap(&recovered),
            references[replayed],
            "flip at {pos}: state is not an exact prefix"
        );
        // The damage must be noticed unless the flip landed beyond the
        // frames we replayed (impossible here: we replay to the flip).
        assert!(
            report.truncated_reason.is_some(),
            "flip at {pos} went unnoticed"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&work).ok();
}

/// A duplicated tail (the crashed writer's final frames appended twice,
/// as a misdirected retry would) is skipped as stale: recovery still
/// lands exactly on the full reference state.
#[test]
fn duplicated_tail_frames_are_skipped_as_stale() {
    let algo = Algorithm::NdLF;
    let dir = tmpdir("dup");
    let mut session = session_with(algo);
    let mut durable = Durability::create(
        &dir,
        &mut session,
        DurabilityOptions {
            fsync: FsyncPolicy::Never,
            checkpoint_every: 0,
            crash_after: None,
        },
    )
    .expect("create durability");
    for op in script() {
        apply_logged(&mut session, Some(&mut durable), None, op).expect("logged op");
    }
    durable.flush_sync().expect("flush");
    drop(durable);
    drop(session);

    let references = reference_states(algo);
    let wal_bytes = std::fs::read(dir.join("wal.log")).expect("read wal");
    // Duplicate everything after the header: every frame appears twice.
    let mut doubled = wal_bytes.clone();
    doubled.extend_from_slice(&wal_bytes[8..]);
    std::fs::write(dir.join("wal.log"), &doubled).unwrap();
    let (recovered, _d, report) = Durability::recover(&dir, opts(), DurabilityOptions::default())
        .expect("recover duplicated tail");
    assert!(report.skipped_stale > 0, "no stale frames reported");
    assert_eq!(snap(&recovered), references[script().len()]);
    std::fs::remove_dir_all(&dir).ok();
}

/// After recovery the reopened log keeps working: new commits append,
/// a second recovery sees both generations.
#[test]
fn recovered_session_keeps_logging() {
    let dir = tmpdir("relog");
    let mut session = session_with(Algorithm::DfLF);
    let mut durable =
        Durability::create(&dir, &mut session, DurabilityOptions::default()).expect("create");
    apply_logged(
        &mut session,
        Some(&mut durable),
        None,
        WriterOp::Commit(BatchUpdate {
            deletions: vec![],
            insertions: vec![(3, 1)],
        }),
    )
    .expect("eix");
    drop(durable);
    drop(session);

    let (mut recovered, mut durable, _r) =
        Durability::recover(&dir, opts(), DurabilityOptions::default()).expect("first recover");
    apply_logged(
        &mut recovered,
        Some(&mut durable),
        None,
        WriterOp::Commit(BatchUpdate {
            deletions: vec![],
            insertions: vec![(0, 3)],
        }),
    )
    .expect("post-recovery commit");
    let want = snap(&recovered);
    drop(durable);
    drop(recovered);

    let (again, _d, report) =
        Durability::recover(&dir, opts(), DurabilityOptions::default()).expect("second recover");
    assert_eq!(report.final_epoch, 2);
    assert_eq!(snap(&again), want);
    std::fs::remove_dir_all(&dir).ok();
}
