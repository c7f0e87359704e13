//! The `lfpr serve` line protocol — a long-running streaming batch
//! service over an [`UpdateSession`].
//!
//! Commands and replies are typed: every input line is parsed into a
//! [`Request`] and every reply is an encoded
//! [`Response`] — see [`crate::protocol`]
//! for the grammar and `docs/PROTOCOL.md` for the full reference. One
//! command produces exactly one reply block (plus, possibly, one
//! piggybacked `push` block — see below), so a scripted session is
//! diffable byte-for-byte (CI does exactly that). Timing is reported
//! in-band only where deterministic; wall-clock numbers go to stderr.
//!
//! ```text
//! insert <u> <v>        stage an edge insertion     → staged <count>
//! delete <u> <v>        stage an edge deletion      → staged <count>
//! batch                 commit staged ops as one Δt → ok batch=<k> m=<m> status=<s> iters=<i> epoch=<e>
//! rank <v> [view]       one vertex's rank           → rank <v> <value> epoch=<e>[ view=<name>]
//! topk <k> [view]       k highest-ranked vertices   → topk <len> epoch=<e>[ view=<name>] + lines
//! movers <k> [view]     k largest changes this epoch→ movers <len> epoch=<e>[ view=<name>] + lines
//! subscribe <v> <eps>   watch one vertex's rank     → subscribed <v> eps=<eps>
//! poll                  collect pending pushes      → push <len> epoch=<e> + lines
//! view add <name> <v[:w]>...  personalized view     → ok view <name> sources=<k> epoch=<e>
//! stats                 session counters            → stats n=.. m=.. steps=.. staged=.. algo=.. epoch=<e>
//! quit                  end the session             → bye
//! ```
//!
//! Every reply that reads committed state carries `epoch=<e>` — the
//! commit number it was answered from (0 = the initial static ranks).
//! On every transport ([`crate::server`]) reads are served from an
//! atomically published [`RankView`] and mutations go to the single
//! writer thread, so a reply's `rank`/`topk` values and its epoch always
//! belong to the same commit even while a batch is being applied.
//!
//! ## Subscriptions
//!
//! `subscribe <v> <eps>` records the vertex's rank as the baseline.
//! Each subsequent command first pins the committed state it will
//! answer from; if any subscribed vertex has drifted more than `eps`
//! from its baseline (for `eps` = 0: if its rank changed at all, to the
//! bit), a `push` block is written *before* that command's reply and
//! the pushed ranks become the new baselines. `poll` exists to collect
//! pushes explicitly — it always answers with a `push` block, possibly
//! empty. A `batch` command pins its view *before* committing, so the
//! pushes caused by its own commit arrive on the next command — a reply
//! is never interleaved with pushes from its own write.
//!
//! ## Staging
//!
//! Staged operations are validated eagerly against the current graph
//! (plus the staged set), so a `batch` from a single-client session
//! cannot fail halfway; under concurrent clients the commit revalidates
//! authoritatively and replies `err batch rejected: …` when another
//! client's commit conflicted (the staged set is kept for inspection).
//! Deleting a self-loop is refused — self-loops implement dead-end
//! elimination (§5.1.3) and removing one would leak rank mass. A staged
//! insert/delete pair of the same edge cancels out, mirroring
//! [`crate::MutGuard`].

use crate::durable::{Durability, WalStats};
use crate::protocol::{
    encode_response, parse_request, Handshake, MoverEntry, Request, Response, ServeError,
    ShardEpochs, VERBS,
};
use crate::replica::FeedHub;
use lfpr_core::session::{RankReader, RankView, UpdateSession};
use lfpr_core::{Algorithm, RankDelta, RunStatus, Teleport};
use lfpr_graph::io::wal::WalRecord;
use lfpr_graph::reorder::SharedReordering;
use lfpr_graph::{BatchUpdate, Reordering};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::sync::{mpsc, Arc};

/// Counters a serve loop reports when the connection ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Lines processed (excluding blanks/comments).
    pub commands: u64,
    /// Batches committed.
    pub batches: u64,
    /// Edge updates committed across all batches.
    pub updates: u64,
    /// Push blocks written (piggybacked or via `poll`).
    pub pushes: u64,
}

impl ServeSummary {
    /// Fold another connection's counters into this aggregate.
    pub fn absorb(&mut self, other: ServeSummary) {
        self.commands += other.commands;
        self.batches += other.batches;
        self.updates += other.updates;
        self.pushes += other.pushes;
    }
}

/// What one committed batch reports back to the protocol layer.
#[derive(Debug, Clone, Copy)]
pub struct CommitOutcome {
    /// Edge count of the graph after the commit.
    pub edges: usize,
    /// Termination status of the rank refresh.
    pub status: RunStatus,
    /// Rounds the refresh performed.
    pub iterations: usize,
    /// The epoch this commit produced.
    pub epoch: u64,
}

/// A state-changing operation funneled to the single session writer.
/// Batch commits and view management both mutate the session, so under
/// the concurrent server they serialize through the same channel — one
/// writer, many readers, no locks on the read path.
#[derive(Debug)]
pub enum WriterOp {
    /// Commit a staged batch.
    Commit(BatchUpdate),
    /// Create a personalized ranking view.
    AddView {
        /// View name (protocol-validated by the caller).
        name: String,
        /// Its restart distribution.
        teleport: Teleport,
    },
    /// Remove a named view.
    DropView {
        /// View name.
        name: String,
    },
}

/// Successful outcome of a [`WriterOp`].
#[derive(Debug, Clone, Copy)]
pub enum WriterOk {
    /// A batch landed.
    Committed(CommitOutcome),
    /// A view was added; ranks were computed at this epoch.
    ViewAdded {
        /// Epoch the view's initial ranks belong to.
        epoch: u64,
    },
    /// A view was removed.
    ViewDropped,
}

/// Outcome of a [`WriterOp`]: success, or the op handed back with the
/// error message (a failed commit returns the batch so the client's
/// staged edits survive for inspection).
pub type WriterOutcome = Result<WriterOk, (WriterOp, String)>;

/// Where a [`WriterRequest`]'s outcome goes.
///
/// Blocking callers wait on a bounded channel
/// ([`Sync`](WriterReply::Sync)); the event-driven server must not
/// block its loops, so it hands the writer a closure that files the
/// outcome as a completion and wakes the owning loop
/// ([`Callback`](WriterReply::Callback)).
pub enum WriterReply {
    /// Deliver over a channel the requester is blocked on.
    Sync(mpsc::SyncSender<WriterOutcome>),
    /// Deliver by invoking a closure on the writer thread.
    Callback(Box<dyn FnOnce(WriterOutcome) + Send>),
}

impl WriterReply {
    /// Hand the outcome to the requester. A failed delivery means the
    /// requester is gone (connection dropped mid-commit); the op has
    /// still been applied — the outcome is simply unobserved.
    pub fn deliver(self, outcome: WriterOutcome) {
        match self {
            WriterReply::Sync(tx) => {
                let _ = tx.send(outcome);
            }
            WriterReply::Callback(f) => f(outcome),
        }
    }
}

/// An operation funneled from a serving worker to the single session
/// writer, with the reply path the writer acknowledges through once the
/// op has been applied (or rejected).
pub struct WriterRequest {
    /// The operation to apply.
    pub op: WriterOp,
    /// Where the writer sends the outcome.
    pub reply: WriterReply,
}

/// Apply `batch` to `session` and report the outcome — the commit step
/// of [`apply_logged`], so the per-batch stderr line and the outcome
/// fields cannot drift apart.
fn commit_on(session: &mut UpdateSession, batch: &BatchUpdate) -> Result<CommitOutcome, String> {
    match session.step(batch) {
        Ok(stats) => {
            eprintln!(
                "# batch {} updates in {:?} (snapshot {:?}, ranks {:?}, {} vertices)",
                batch.len(),
                stats.total_time,
                stats.snapshot_time,
                stats.runtime,
                stats.vertices_processed
            );
            Ok(CommitOutcome {
                edges: session.graph().num_edges(),
                status: stats.status,
                iterations: stats.iterations,
                epoch: session.steps(),
            })
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Apply one writer op to `session` — the single mutation path, run by
/// the writer thread of every transport (and by each shard's writer).
/// Apply the op, append it to the WAL, hand it to the feed, then
/// acknowledge — in that order, so an acked mutation is always on disk
/// (per the fsync policy) and followers never see an epoch the leader
/// could lose. With neither a log nor a feed this is a plain apply.
///
/// A *wedged* WAL (an earlier append failed) refuses the op up front:
/// committed state is already ahead of the log and widening that gap
/// would make recovery a lie. An append failure on this very op cannot
/// un-apply it — the op is acked honestly and the manager wedges for
/// everything after.
pub fn apply_logged(
    session: &mut UpdateSession,
    mut durable: Option<&mut Durability>,
    feed: Option<&FeedHub>,
    op: WriterOp,
) -> Result<WriterOk, (WriterOp, String)> {
    if let Some(msg) = durable.as_ref().and_then(|d| d.wedged_reason()) {
        let msg = format!("wal unavailable: {msg}");
        return Err((op, msg));
    }
    match op {
        WriterOp::Commit(batch) => match commit_on(session, &batch) {
            Ok(outcome) => {
                if let Some(d) = durable.as_deref_mut() {
                    if let Err(e) = d.log_commit(session, &batch) {
                        eprintln!("# commit {} applied but not logged: {e}", outcome.epoch);
                    }
                }
                if let Some(f) = feed {
                    f.publish(WalRecord::Commit {
                        epoch: outcome.epoch,
                        batch,
                    });
                }
                Ok(WriterOk::Committed(outcome))
            }
            Err(msg) => Err((WriterOp::Commit(batch), msg)),
        },
        WriterOp::AddView { name, teleport } => match session.add_view(&name, teleport.clone()) {
            Ok(()) => {
                if let Some(d) = durable.as_deref_mut() {
                    if let Err(e) = d.log_view_add(session, &name, &teleport) {
                        eprintln!("# view {name} added but not logged: {e}");
                    }
                }
                if let Some(f) = feed {
                    let sources = teleport
                        .weights()
                        .map(|w| w.sources().to_vec())
                        .unwrap_or_default();
                    f.publish(WalRecord::ViewAdd {
                        epoch: session.steps(),
                        name: name.clone(),
                        sources,
                    });
                }
                Ok(WriterOk::ViewAdded {
                    epoch: session.steps(),
                })
            }
            Err(msg) => Err((WriterOp::AddView { name, teleport }, msg)),
        },
        WriterOp::DropView { name } => match session.drop_view(&name) {
            Ok(()) => {
                if let Some(d) = durable {
                    if let Err(e) = d.log_view_drop(session, &name) {
                        eprintln!("# view {name} dropped but not logged: {e}");
                    }
                }
                if let Some(f) = feed {
                    f.publish(WalRecord::ViewDrop {
                        epoch: session.steps(),
                        name: name.clone(),
                    });
                }
                Ok(WriterOk::ViewDropped)
            }
            Err(msg) => Err((WriterOp::DropView { name }, msg)),
        },
    }
}

/// How a serve loop reaches session state. Reads come from the
/// epoch-published [`RankView`] (never blocking the writer); mutations
/// are funneled through a channel to the single writer thread that owns
/// the session ([`crate::server`]).
///
/// * `writer: None` — a follower's replica: mutations are refused.
/// * `feed: None` — no `follow` fan-out (stdin and replicas).
#[derive(Clone)]
pub struct Backend {
    /// Handle onto the session's published views.
    pub(crate) reader: RankReader,
    /// Funnel to the writer thread owning the session.
    pub(crate) writer: Option<mpsc::Sender<WriterRequest>>,
    /// The session's configured algorithm (for `hello` and `stats`).
    pub(crate) algorithm: Algorithm,
    /// Fan-out point for `follow` connections.
    pub(crate) feed: Option<FeedHub>,
    /// Live WAL counters (`stats`), when the session is durable.
    pub(crate) wal: Option<Arc<WalStats>>,
}

impl Backend {
    /// Read-only serving from a follower's mirrored published views.
    pub fn replica(reader: RankReader, algorithm: Algorithm) -> Backend {
        Backend {
            reader,
            writer: None,
            algorithm,
            feed: None,
            wal: None,
        }
    }
}

/// Send one op to the writer thread and block for its outcome; `None`
/// when the writer thread is gone.
fn send_writer(writer: &mpsc::Sender<WriterRequest>, op: WriterOp) -> Option<WriterOutcome> {
    let (tx, rx) = mpsc::sync_channel(1);
    writer
        .send(WriterRequest {
            op,
            reply: WriterReply::Sync(tx),
        })
        .ok()?;
    rx.recv().ok()
}

/// One client's subscription to a vertex's rank.
struct SubEntry {
    eps: f64,
    /// Rank last acknowledged to the client (at subscribe time, or by
    /// the latest push).
    baseline: f64,
}

/// Per-connection protocol state.
#[derive(Default)]
pub(crate) struct ConnState {
    staged: BatchUpdate,
    /// Subscriptions, keyed by vertex — BTreeMap so push blocks list
    /// vertices in ascending order, deterministically.
    subs: BTreeMap<u32, SubEntry>,
}

impl ConnState {
    /// Whether this connection holds any subscriptions (the event loop
    /// skips the proactive-push scan for connections without them).
    pub(crate) fn has_subs(&self) -> bool {
        !self.subs.is_empty()
    }

    /// Collect the subscribed vertices that drifted past eps since
    /// their baseline, against the pinned view, updating baselines for
    /// the collected ones. `eps` = 0 means "any bitwise change".
    fn drain_pushes(&mut self, view: &RankView) -> Vec<(u32, f64)> {
        let mut pushed = Vec::new();
        for (&v, entry) in self.subs.iter_mut() {
            let r = view.rank(v);
            let drifted = if entry.eps == 0.0 {
                r.to_bits() != entry.baseline.to_bits()
            } else {
                (r - entry.baseline).abs() > entry.eps
            };
            if drifted {
                entry.baseline = r;
                pushed.push((v, r));
            }
        }
        pushed
    }
}

/// Write an unsolicited `push` block for `state`'s drifted
/// subscriptions against `view`, if any drifted. The event-driven
/// server calls this when the writer publishes a new epoch, so
/// subscribers hear about rank changes without polling; the next
/// command's piggyback preamble then finds nothing left to push.
/// Returns whether a block was written.
pub(crate) fn proactive_push<W: Write>(
    state: &mut ConnState,
    reorder: &SharedReordering,
    view: &RankView,
    summary: &mut ServeSummary,
    out: &mut W,
) -> std::io::Result<bool> {
    if !state.has_subs() {
        return Ok(false);
    }
    let pushed = state.drain_pushes(view);
    if pushed.is_empty() {
        return Ok(false);
    }
    summary.pushes += 1;
    reply(
        out,
        reorder,
        &Response::Push {
            entries: pushed,
            epoch: view.epoch(),
        },
    )?;
    Ok(true)
}

/// Drive one blocking client connection against `backend` until EOF or
/// `quit`, writing replies to `out`. Requests are mapped external →
/// internal through `reorder` before they touch the backend and every
/// vertex id in a reply is mapped back, so clients keep speaking the
/// dataset's original ids no matter how the session renumbered them.
///
/// Mutations block on the writer thread; if it is gone the connection
/// ends with an error rather than serving reads that can no longer
/// advance.
pub fn serve_client<R: BufRead, W: Write>(
    backend: &Backend,
    reorder: &SharedReordering,
    input: R,
    mut out: W,
) -> std::io::Result<ServeSummary> {
    let mut state = ConnState::default();
    let mut summary = ServeSummary::default();
    for line in input.lines() {
        let line = line?;
        let Some(parsed) = parse_request(&line) else {
            continue; // blank or comment: no command, no reply
        };
        summary.commands += 1;
        let quit = match parsed {
            Ok(req) => {
                let req = match reorder {
                    Some(r) => translate_request(req, r),
                    None => req,
                };
                match process(backend, reorder, &mut state, &mut summary, req, &mut out)? {
                    Action::Done => false,
                    Action::Mutate { op, kind } => {
                        let writer = backend
                            .writer
                            .as_ref()
                            .expect("process refuses mutations without a writer");
                        let Some(outcome) = send_writer(writer, op) else {
                            return Err(std::io::Error::other("writer thread stopped"));
                        };
                        let resp = finish_mutation(kind, outcome, &mut state, &mut summary);
                        reply(&mut out, reorder, &resp)?;
                        false
                    }
                    Action::Follow { .. } => {
                        unreachable!("only the event loop's backends carry a feed")
                    }
                    Action::Quit => true,
                }
            }
            Err(e) => {
                reply(&mut out, reorder, &Response::Error(e))?;
                false
            }
        };
        out.flush()?;
        if quit {
            break;
        }
    }
    Ok(summary)
}

/// What [`process`] tells its driver to do after one command.
///
/// Reads and staging are answered inside `process`; mutations come back
/// as [`Mutate`](Action::Mutate) so the driver chooses how to apply
/// them — inline (blocking loop) or asynchronously via a
/// [`WriterReply::Callback`] completion (event loop), finishing with
/// [`finish_mutation`] either way.
pub(crate) enum Action {
    /// The command was fully answered.
    Done,
    /// A mutation is ready for the writer; reply after it resolves.
    Mutate {
        /// The writer op to apply.
        op: WriterOp,
        /// What the pending reply needs to know about the request.
        kind: MutKind,
    },
    /// Switch this connection to the replication feed.
    Follow {
        /// Resume epoch (`follow <epoch>`), if the client has state.
        since: Option<u64>,
    },
    /// The client said `quit`; `bye` is already written.
    Quit,
}

/// Request-side context carried from [`process`] to [`finish_mutation`]
/// across a writer round trip.
pub(crate) enum MutKind {
    /// A `batch` commit; `k` = the client's own staged size (its reply
    /// reports that, not the merged batch the writer may have applied).
    Batch {
        /// Staged-op count taken from this client.
        k: usize,
    },
    /// A `view add`; the reply names the view and its source count.
    ViewAdd {
        /// View name.
        name: String,
        /// Source count of the teleport set.
        sources: usize,
    },
    /// A `view drop`; the reply names the view.
    ViewDrop {
        /// View name.
        name: String,
    },
}

pub(crate) fn reply<W: Write>(
    out: &mut W,
    reorder: &SharedReordering,
    resp: &Response,
) -> std::io::Result<()> {
    match reorder {
        None => writeln!(out, "{}", encode_response(resp)),
        Some(r) => writeln!(
            out,
            "{}",
            encode_response(&translate_response(resp.clone(), r))
        ),
    }
}

/// Map every vertex id in an incoming request from the client's
/// external space to the session's internal space. Out-of-range ids
/// pass through untouched (see [`Reordering::to_internal`]), so range
/// errors keep naming the id the client sent.
pub(crate) fn translate_request(req: Request, r: &Reordering) -> Request {
    match req {
        Request::Insert { u, v } => Request::Insert {
            u: r.to_internal(u),
            v: r.to_internal(v),
        },
        Request::Delete { u, v } => Request::Delete {
            u: r.to_internal(u),
            v: r.to_internal(v),
        },
        Request::Rank { v, view } => Request::Rank {
            v: r.to_internal(v),
            view,
        },
        Request::Subscribe { v, eps } => Request::Subscribe {
            v: r.to_internal(v),
            eps,
        },
        Request::Unsubscribe { v } => Request::Unsubscribe {
            v: r.to_internal(v),
        },
        Request::ViewAdd { name, sources } => Request::ViewAdd {
            name,
            sources: sources
                .into_iter()
                .map(|(v, w)| (r.to_internal(v), w))
                .collect(),
        },
        other => other,
    }
}

/// Map every vertex id in an outgoing reply back to external space.
fn translate_response(resp: Response, r: &Reordering) -> Response {
    let map_entries =
        |es: Vec<(u32, f64)>| es.into_iter().map(|(v, x)| (r.to_external(v), x)).collect();
    match resp {
        Response::Rank {
            v,
            rank,
            epoch,
            view,
        } => Response::Rank {
            v: r.to_external(v),
            rank,
            epoch,
            view,
        },
        Response::TopK {
            entries,
            epochs,
            view,
        } => Response::TopK {
            entries: map_entries(entries),
            epochs,
            view,
        },
        Response::Movers {
            entries,
            epochs,
            view,
        } => Response::Movers {
            entries: entries
                .into_iter()
                .map(|e| MoverEntry {
                    v: r.to_external(e.v),
                    ..e
                })
                .collect(),
            epochs,
            view,
        },
        Response::Push { entries, epoch } => Response::Push {
            entries: map_entries(entries),
            epoch,
        },
        Response::Subscribed { v, eps } => Response::Subscribed {
            v: r.to_external(v),
            eps,
        },
        Response::Unsubscribed { v } => Response::Unsubscribed {
            v: r.to_external(v),
        },
        Response::Error(e) => Response::Error(translate_error(e, r)),
        other => other,
    }
}

/// Map the vertex ids inside a typed error back to external space.
/// `UnknownVertex` carries the offending token as text: a numeric token
/// is an internal id from the range fallthrough and translates; a
/// non-numeric token is the client's own garbage and stays verbatim.
fn translate_error(e: ServeError, r: &Reordering) -> ServeError {
    match e {
        ServeError::VertexOutOfRange { id, n } => ServeError::VertexOutOfRange {
            id: r.to_external(id),
            n,
        },
        ServeError::UnknownVertex(s) => ServeError::UnknownVertex(match s.parse::<u32>() {
            Ok(v) => r.to_external(v).to_string(),
            Err(_) => s,
        }),
        ServeError::EdgeExists(u, v) => ServeError::EdgeExists(r.to_external(u), r.to_external(v)),
        ServeError::EdgeAlreadyStaged(u, v) => {
            ServeError::EdgeAlreadyStaged(r.to_external(u), r.to_external(v))
        }
        ServeError::EdgeMissing(u, v) => {
            ServeError::EdgeMissing(r.to_external(u), r.to_external(v))
        }
        ServeError::SelfLoopDelete(u, v) => {
            ServeError::SelfLoopDelete(r.to_external(u), r.to_external(v))
        }
        ServeError::NotSubscribed(v) => ServeError::NotSubscribed(r.to_external(v)),
        other => other,
    }
}

pub(crate) fn process<W: Write>(
    backend: &Backend,
    reorder: &SharedReordering,
    state: &mut ConnState,
    summary: &mut ServeSummary,
    req: Request,
    out: &mut W,
) -> std::io::Result<Action> {
    // Pin the committed state this command answers from, and piggyback
    // any pending subscription pushes before the reply. `batch` pins
    // before committing, so its own pushes arrive on the next command.
    {
        let view = backend.reader.view();
        let is_poll = matches!(req, Request::Poll);
        let pushed = state.drain_pushes(&view);
        if is_poll || !pushed.is_empty() {
            summary.pushes += 1;
            reply(
                out,
                reorder,
                &Response::Push {
                    entries: pushed,
                    epoch: view.epoch(),
                },
            )?;
        }
        if is_poll {
            return Ok(Action::Done);
        }
    }

    // A replica serves reads only; refuse mutations with one stable
    // error before touching any staging state.
    if backend.writer.is_none()
        && matches!(
            req,
            Request::Insert { .. }
                | Request::Delete { .. }
                | Request::Batch
                | Request::ViewAdd { .. }
                | Request::ViewDrop { .. }
        )
    {
        reply(out, reorder, &Response::Error(ServeError::ReadOnlyReplica))?;
        return Ok(Action::Done);
    }

    let resp = match req {
        Request::Poll => unreachable!("handled by the push preamble"),
        // Single-session servers speak the v1 handshake so historical
        // transcripts stay byte-identical; only the sharded server
        // (`crate::shard`) answers with `Handshake::V2`.
        Request::Hello => Response::Hello(Handshake::V1 {
            algorithm: backend.algorithm.to_string(),
            verbs: VERBS.iter().map(|s| s.to_string()).collect(),
        }),
        Request::Insert { u, v } => {
            let view = backend.reader.view();
            match checked_edge(&view, u, v) {
                Ok(()) => stage_insert(
                    |u, v| view.snapshot().has_edge(u, v),
                    &mut state.staged,
                    u,
                    v,
                ),
                Err(e) => Response::Error(e),
            }
        }
        Request::Delete { u, v } => {
            let view = backend.reader.view();
            match checked_edge(&view, u, v) {
                Ok(()) => stage_delete(
                    |u, v| view.snapshot().has_edge(u, v),
                    &mut state.staged,
                    u,
                    v,
                ),
                Err(e) => Response::Error(e),
            }
        }
        Request::Batch => {
            let batch = std::mem::take(&mut state.staged);
            let k = batch.len();
            return Ok(Action::Mutate {
                op: WriterOp::Commit(batch),
                kind: MutKind::Batch { k },
            });
        }
        Request::Rank { v, view: name } => {
            let view = backend.reader.view();
            let in_range = (v as usize) < view.snapshot().num_vertices();
            match name {
                None if in_range => Response::Rank {
                    v,
                    rank: view.rank(v),
                    epoch: view.epoch(),
                    view: None,
                },
                Some(name) if !view.has_view(&name) => {
                    Response::Error(ServeError::UnknownView(name))
                }
                Some(name) if in_range => Response::Rank {
                    v,
                    rank: view.rank_in(&name, v).expect("view checked above"),
                    epoch: view.epoch(),
                    view: Some(name),
                },
                _ => Response::Error(ServeError::UnknownVertex(v.to_string())),
            }
        }
        Request::TopK { k, view: name } => {
            let view = backend.reader.view();
            match name {
                None => Response::TopK {
                    entries: view.top_k(k),
                    epochs: ShardEpochs::Single(view.epoch()),
                    view: None,
                },
                Some(name) => match view.top_k_in(&name, k) {
                    Some(entries) => Response::TopK {
                        entries,
                        epochs: ShardEpochs::Single(view.epoch()),
                        view: Some(name),
                    },
                    None => Response::Error(ServeError::UnknownView(name)),
                },
            }
        }
        Request::Movers { k, view: name } => {
            let view = backend.reader.view();
            let to_entries = |ds: Vec<RankDelta>| ds.into_iter().map(MoverEntry::from).collect();
            match name {
                None => Response::Movers {
                    entries: to_entries(view.movers(k)),
                    epochs: ShardEpochs::Single(view.epoch()),
                    view: None,
                },
                Some(name) => match view.movers_in(&name, k) {
                    Some(ds) => Response::Movers {
                        entries: to_entries(ds),
                        epochs: ShardEpochs::Single(view.epoch()),
                        view: Some(name),
                    },
                    None => Response::Error(ServeError::UnknownView(name)),
                },
            }
        }
        Request::Stats => {
            let view = backend.reader.view();
            Response::Stats {
                n: view.snapshot().num_vertices(),
                m: view.snapshot().num_edges(),
                steps: view.epoch(),
                staged: state.staged.len(),
                algo: backend.algorithm.to_string(),
                epochs: ShardEpochs::Single(view.epoch()),
                wal: backend.wal.as_ref().map(|s| (s.epoch(), s.bytes())),
                slack: view.slack_stats().map(|s| s.occupancy_permille()),
                queues: None,
            }
        }
        Request::Subscribe { v, eps } => {
            let view = backend.reader.view();
            if (v as usize) < view.snapshot().num_vertices() {
                let baseline = view.rank(v);
                state.subs.insert(v, SubEntry { eps, baseline });
                Response::Subscribed { v, eps }
            } else {
                Response::Error(ServeError::VertexOutOfRange {
                    id: v,
                    n: view.snapshot().num_vertices(),
                })
            }
        }
        Request::Unsubscribe { v } => {
            if state.subs.remove(&v).is_some() {
                Response::Unsubscribed { v }
            } else {
                Response::Error(ServeError::NotSubscribed(v))
            }
        }
        Request::ViewAdd { name, sources } => {
            let count = sources.len();
            match view_add_precheck(&backend.reader.view(), &name, &sources) {
                Err(e) => Response::Error(e),
                Ok(()) => match Teleport::personalized(sources) {
                    // Parse-level validation already passed; remaining
                    // failures (e.g. duplicate sources) surface here.
                    Err(msg) => Response::Error(ServeError::ViewRejected(msg)),
                    Ok(teleport) => {
                        return Ok(Action::Mutate {
                            op: WriterOp::AddView {
                                name: name.clone(),
                                teleport,
                            },
                            kind: MutKind::ViewAdd {
                                name,
                                sources: count,
                            },
                        });
                    }
                },
            }
        }
        Request::ViewDrop { name } => {
            if backend.reader.view().has_view(&name) {
                return Ok(Action::Mutate {
                    op: WriterOp::DropView { name: name.clone() },
                    kind: MutKind::ViewDrop { name },
                });
            }
            Response::Error(ServeError::UnknownView(name))
        }
        Request::Views => Response::Views {
            entries: backend.reader.view().view_names(),
        },
        // A reordered leader ships its permutation in the resync head,
        // so followers translate ids locally — no refusal needed.
        Request::Follow { since } if backend.feed.is_some() => return Ok(Action::Follow { since }),
        Request::Follow { .. } => Response::Error(ServeError::FollowNeedsTcp),
        Request::Quit => {
            reply(out, reorder, &Response::Bye)?;
            return Ok(Action::Quit);
        }
    };
    reply(out, reorder, &resp)?;
    Ok(Action::Done)
}

/// Turn a writer outcome into the pending command's reply, updating the
/// connection counters and (for a rejected commit) restoring the
/// client's staged edits. The paired entry point to [`process`]'s
/// [`Action::Mutate`]: the blocking loop calls it once the writer
/// answers its blocking send; the event loop calls it when the writer's
/// completion arrives.
pub(crate) fn finish_mutation(
    kind: MutKind,
    outcome: WriterOutcome,
    state: &mut ConnState,
    summary: &mut ServeSummary,
) -> Response {
    match kind {
        MutKind::Batch { k } => match outcome {
            Ok(WriterOk::Committed(o)) => {
                summary.batches += 1;
                summary.updates += k as u64;
                Response::BatchOk {
                    batch: k,
                    m: o.edges,
                    status: status_str(o.status).to_string(),
                    iters: o.iterations,
                    epochs: ShardEpochs::Single(o.epoch),
                }
            }
            Ok(_) => unreachable!("commit answered with a non-commit outcome"),
            // Reachable under concurrent clients: another commit can
            // land between staging and this batch. Never die on
            // input — and restore the client's staged edits so they can
            // be inspected or amended.
            Err((op, msg)) => {
                state.staged = match op {
                    WriterOp::Commit(batch) => batch,
                    _ => BatchUpdate::new(),
                };
                Response::Error(refusal_or(msg, ServeError::BatchRejected))
            }
        },
        MutKind::ViewAdd { name, sources } => match outcome {
            Ok(WriterOk::ViewAdded { epoch }) => Response::ViewAdded {
                name,
                sources,
                epoch,
            },
            Ok(_) => unreachable!("view add answered with a non-view outcome"),
            Err((_, msg)) => Response::Error(refusal_or(msg, ServeError::ViewRejected)),
        },
        MutKind::ViewDrop { name } => match outcome {
            Ok(WriterOk::ViewDropped) => Response::ViewDropped { name },
            Ok(_) => unreachable!("view drop answered with a non-view outcome"),
            // A wedged WAL refuses; otherwise this client lost a race
            // with another dropping the same view.
            Err((_, msg)) => Response::Error(refusal_or(msg, |_| ServeError::UnknownView(name))),
        },
    }
}

fn checked_edge(view: &RankView, u: u32, v: u32) -> Result<(), ServeError> {
    let n = view.snapshot().num_vertices();
    for id in [u, v] {
        if id as usize >= n {
            return Err(ServeError::VertexOutOfRange { id, n });
        }
    }
    Ok(())
}

fn view_add_precheck(
    view: &RankView,
    name: &str,
    sources: &[(u32, f64)],
) -> Result<(), ServeError> {
    if view.has_view(name) {
        return Err(ServeError::ViewExists(name.to_string()));
    }
    let n = view.snapshot().num_vertices();
    for &(v, _) in sources {
        if v as usize >= n {
            return Err(ServeError::VertexOutOfRange { id: v, n });
        }
    }
    Ok(())
}

/// Stage an insertion against the committed graph (`has_edge`) plus the
/// staged set. Generic over the edge lookup so the sharded router
/// (whose committed state is a per-shard pin) shares the exact staging
/// rules — including insert/delete cancellation.
pub(crate) fn stage_insert(
    has_edge: impl Fn(u32, u32) -> bool,
    staged: &mut BatchUpdate,
    u: u32,
    v: u32,
) -> Response {
    if let Some(pos) = staged.deletions.iter().position(|&e| e == (u, v)) {
        staged.deletions.swap_remove(pos); // reinstate a staged delete
    } else if has_edge(u, v) {
        return Response::Error(ServeError::EdgeExists(u, v));
    } else if staged.insertions.contains(&(u, v)) {
        return Response::Error(ServeError::EdgeAlreadyStaged(u, v));
    } else {
        staged.insertions.push((u, v));
    }
    Response::Staged {
        count: staged.len(),
    }
}

/// [`stage_insert`]'s deletion counterpart; same sharing rationale.
pub(crate) fn stage_delete(
    has_edge: impl Fn(u32, u32) -> bool,
    staged: &mut BatchUpdate,
    u: u32,
    v: u32,
) -> Response {
    if u == v {
        return Response::Error(ServeError::SelfLoopDelete(u, v));
    }
    if let Some(pos) = staged.insertions.iter().position(|&e| e == (u, v)) {
        staged.insertions.swap_remove(pos); // cancel a staged insert
    } else if !has_edge(u, v) {
        return Response::Error(ServeError::EdgeMissing(u, v));
    } else if staged.deletions.contains(&(u, v)) {
        return Response::Error(ServeError::EdgeAlreadyStaged(u, v));
    } else {
        staged.deletions.push((u, v));
    }
    Response::Staged {
        count: staged.len(),
    }
}

/// Map a mutation failure to its typed error: WAL refusals have a
/// fixed text of their own; anything else gets the site-specific
/// wrapper.
fn refusal_or(msg: String, wrap: impl FnOnce(String) -> ServeError) -> ServeError {
    if let Some(rest) = msg.strip_prefix("wal unavailable: ") {
        return ServeError::WalUnavailable(rest.to_string());
    }
    wrap(msg)
}

pub(crate) fn status_str(status: RunStatus) -> &'static str {
    match status {
        RunStatus::Converged => "converged",
        RunStatus::MaxIterations => "max-iterations",
        RunStatus::Stalled => "stalled",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::serve_stdin;
    use lfpr_core::PagerankOptions;
    use lfpr_graph::selfloops::add_self_loops;
    use lfpr_graph::GraphBuilder;

    fn session() -> UpdateSession {
        let mut g = GraphBuilder::new(5)
            .edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0)])
            .build_dyn()
            .unwrap();
        add_self_loops(&mut g);
        let mut s = UpdateSession::new(
            g,
            Algorithm::DfLF,
            PagerankOptions::default().with_threads(1),
        );
        s.enable_delta_tracking();
        s
    }

    /// Serve `input` against `s` through the stdin transport.
    fn serve(s: UpdateSession, input: &str) -> (String, UpdateSession, ServeSummary) {
        let mut out = Vec::new();
        let (s, summary) = serve_stdin(s, None, &None, input.as_bytes(), &mut out).unwrap();
        (String::from_utf8(out).unwrap(), s, summary)
    }

    fn run(input: &str) -> (String, ServeSummary) {
        let (out, _, summary) = serve(session(), input);
        (out, summary)
    }

    #[test]
    fn scripted_session_round_trip() {
        let (out, summary) = run("stats\n\
             insert 4 1\n\
             delete 0 1\n\
             batch\n\
             rank 1\n\
             topk 2\n\
             quit\n");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            "stats n=5 m=11 steps=0 staged=0 algo=DFLF epoch=0"
        );
        assert_eq!(lines[1], "staged 1");
        assert_eq!(lines[2], "staged 2");
        assert!(lines[3].starts_with("ok batch=2 m=11 status=converged"));
        assert!(lines[3].ends_with("epoch=1"));
        assert!(lines[4].starts_with("rank 1 "));
        assert!(lines[4].ends_with("epoch=1"));
        assert_eq!(lines[5], "topk 2 epoch=1");
        assert_eq!(summary.commands, 7);
        assert_eq!(summary.batches, 1);
        assert_eq!(summary.updates, 2);
        assert_eq!(*lines.last().unwrap(), "bye");
    }

    #[test]
    fn staging_validates_eagerly() {
        let (out, _) = run("insert 0 1\n\
             delete 9 0\n\
             delete 0 0\n\
             delete 4 0\n\
             delete 4 0\n\
             insert 4 0\n\
             batch\n");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "err edge (0, 1) already exists");
        assert!(lines[1].starts_with("err vertex 9 out of range"));
        assert!(lines[2].starts_with("err refusing to delete self-loop"));
        assert_eq!(lines[3], "staged 1");
        assert_eq!(lines[4], "err edge (4, 0) already staged");
        assert_eq!(lines[5], "staged 0", "insert cancels the staged delete");
        assert!(lines[6].starts_with("ok batch=0"));
    }

    #[test]
    fn queries_and_errors_never_kill_the_loop() {
        let (out, summary) = run("frobnicate\n\
             topk nope\n\
             rank 99\n\
             \n\
             # comment line\n\
             stats\n");
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("err unknown command"));
        assert_eq!(lines[1], "err topk needs an integer");
        assert_eq!(lines[2], "err unknown vertex 99");
        assert!(lines[3].starts_with("stats "));
        assert_eq!(summary.commands, 4, "blanks and comments don't count");
    }

    #[test]
    fn ranks_update_across_batches() {
        let s = session();
        let before = s.rank(1);
        let (_, s, _) = serve(s, "insert 3 1\ninsert 4 1\nbatch\n");
        assert!(s.rank(1) > before, "vertex 1 gained in-links");
        assert_eq!(s.steps(), 1);
    }

    #[test]
    fn hello_names_the_protocol_and_verbs() {
        let (out, _) = run("hello\nquit\n");
        let lines: Vec<&str> = out.lines().collect();
        assert!(
            lines[0].starts_with("hello lfpr/1 algo=DFLF verbs=hello,insert,"),
            "{}",
            lines[0]
        );
        assert!(lines[0].ends_with(",quit"));
    }

    #[test]
    fn personalized_views_serve_alongside_the_default() {
        let (out, _) = run("view add ego 1 2\n\
             views\n\
             rank 1 ego\n\
             rank 1\n\
             topk 2 ego\n\
             insert 3 1\n\
             batch\n\
             rank 1 ego\n\
             movers 2 ego\n\
             view drop ego\n\
             rank 1 ego\n\
             quit\n");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "ok view ego sources=2 epoch=0");
        assert_eq!(lines[1], "views 1");
        assert_eq!(lines[2], "ego sources=2");
        assert!(lines[3].starts_with("rank 1 ") && lines[3].ends_with("epoch=0 view=ego"));
        assert!(lines[4].ends_with("epoch=0"), "default has no view suffix");
        assert_ne!(
            lines[3].split_whitespace().nth(2),
            lines[4].split_whitespace().nth(2),
            "personalized rank differs from the default"
        );
        assert_eq!(lines[5], "topk 2 epoch=0 view=ego");
        // lines 6–7: topk entries; then staged 1 / ok batch=1 …
        assert_eq!(lines[8], "staged 1");
        assert!(lines[9].starts_with("ok batch=1"));
        assert!(lines[10].ends_with("epoch=1 view=ego"));
        assert!(lines[11].starts_with("movers ") && lines[11].ends_with("epoch=1 view=ego"));
        let movers: usize = lines[11]
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!(movers > 0, "a committed edge must move some rank");
        let after_movers = 12 + movers;
        assert_eq!(lines[after_movers], "ok dropped view ego");
        assert_eq!(lines[after_movers + 1], "err unknown view ego");
    }

    #[test]
    fn view_add_is_validated() {
        let (out, _) = run("view add default 1\n\
             view add 9bad 1\n\
             view add ego 99\n\
             view add ego 1 1\n\
             view add ego 1\n\
             view add ego 2\n\
             quit\n");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "err view name default is reserved");
        assert_eq!(lines[1], "err bad view name 9bad");
        assert!(lines[2].starts_with("err vertex 99 out of range"));
        assert!(lines[3].starts_with("err view rejected: duplicate teleport source"));
        assert_eq!(lines[4], "ok view ego sources=1 epoch=0");
        assert_eq!(lines[5], "err view ego already exists");
    }

    #[test]
    fn subscriptions_push_after_commits() {
        // eps=0: any bitwise rank change is pushed; the push block rides
        // in front of the next command's reply, baselines advance, and a
        // second poll is empty.
        let (out, summary) = run("subscribe 1 0\n\
             subscribe 3 1e9\n\
             insert 3 1\n\
             insert 4 1\n\
             batch\n\
             poll\n\
             poll\n\
             unsubscribe 1\n\
             unsubscribe 1\n\
             quit\n");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "subscribed 1 eps=0e0");
        assert_eq!(lines[1], "subscribed 3 eps=1e9");
        assert_eq!(lines[2], "staged 1");
        assert_eq!(lines[3], "staged 2");
        assert!(lines[4].starts_with("ok batch=2"), "{}", lines[4]);
        // Vertex 1 gained in-links (pushed); vertex 3's eps is huge (not pushed).
        assert_eq!(lines[5], "push 1 epoch=1");
        assert!(lines[6].starts_with("1 "), "{}", lines[6]);
        assert_eq!(lines[7], "push 0 epoch=1", "baseline advanced");
        assert_eq!(lines[8], "unsubscribed 1");
        assert_eq!(lines[9], "err not subscribed to vertex 1");
        assert_eq!(lines[10], "bye");
        assert_eq!(summary.pushes, 2);
    }

    #[test]
    fn pushes_piggyback_before_other_replies() {
        let (out, _) = run("subscribe 1 0\n\
             insert 3 1\n\
             batch\n\
             stats\n\
             quit\n");
        let lines: Vec<&str> = out.lines().collect();
        // The batch reply comes from a view pinned pre-commit: no push
        // interleaves with it. The next command carries the push.
        assert!(lines[2].starts_with("ok batch=1"));
        assert_eq!(lines[3], "push 1 epoch=1");
        assert!(lines[4].starts_with("1 "));
        assert!(lines[5].starts_with("stats "));
    }

    #[test]
    fn subscribe_validates_vertices() {
        let (out, _) = run("subscribe 99 0\nsubscribe 1 nope\nquit\n");
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("err vertex 99 out of range"));
        assert_eq!(lines[1], "err bad eps nope");
    }

    #[test]
    fn concurrent_backend_answers_from_published_views() {
        // A backend wired to an in-thread "writer": ops
        // drain synchronously after the serve loop ends, so replies to
        // reads must come from the published view only.
        let mut s = session();
        let reader = s.reader();
        let (tx, rx) = mpsc::channel::<WriterRequest>();
        let backend = Backend {
            reader,
            writer: Some(tx),
            algorithm: s.algorithm(),
            feed: Some(FeedHub::new()),
            wal: None,
        };
        let mut out = Vec::new();
        // Reads before any commit: epoch 0.
        serve_client(
            &backend,
            &None,
            "stats\nrank 1\ntopk 1\n".as_bytes(),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        for line in text.lines().take(3) {
            assert!(line.contains("epoch=0"), "{line}");
        }
        // A commit via the funnel: handled by the session writer.
        let (rtx, rrx) = mpsc::sync_channel(1);
        let writer = backend.writer.as_ref().unwrap();
        writer
            .send(WriterRequest {
                op: WriterOp::Commit(BatchUpdate::insert_only(vec![(4, 1)])),
                reply: WriterReply::Sync(rtx),
            })
            .unwrap();
        let req = rx.recv().unwrap();
        let outcome = apply_logged(&mut s, None, None, req.op);
        req.reply.deliver(outcome);
        assert!(rrx.recv().unwrap().is_ok());
        // The published view caught up.
        let mut out = Vec::new();
        serve_client(&backend, &None, "rank 1\n".as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.trim_end().ends_with("epoch=1"), "{text}");
    }

    #[test]
    fn concurrent_backend_serves_views_through_the_writer() {
        let mut s = session();
        let reader = s.reader();
        let (tx, rx) = mpsc::channel::<WriterRequest>();
        // An in-thread writer: applies every funneled op against the
        // session as soon as it arrives.
        let backend = Backend {
            reader,
            writer: Some(tx),
            algorithm: s.algorithm(),
            feed: Some(FeedHub::new()),
            wal: None,
        };
        let writer_thread = std::thread::spawn(move || {
            while let Ok(req) = rx.recv() {
                let outcome = apply_logged(&mut s, None, None, req.op);
                req.reply.deliver(outcome);
            }
        });
        let mut out = Vec::new();
        serve_client(
            &backend,
            &None,
            "view add ego 1\nviews\nrank 1 ego\nview drop ego\nquit\n".as_bytes(),
            &mut out,
        )
        .unwrap();
        drop(backend);
        writer_thread.join().unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "ok view ego sources=1 epoch=0");
        assert_eq!(lines[1], "views 1");
        assert_eq!(lines[2], "ego sources=1");
        assert!(lines[3].ends_with("view=ego"), "{}", lines[3]);
        assert_eq!(lines[4], "ok dropped view ego");
    }

    #[test]
    fn gapped_sessions_report_slack_in_stats() {
        use lfpr_core::session::StorageLayout;
        let mut s = session();
        s.set_storage_layout(StorageLayout::Gapped);
        let (text, _, _) = serve(s, "stats\ninsert 4 1\nbatch\nstats\nquit\n");
        let stats: Vec<&str> = text.lines().filter(|l| l.starts_with("stats ")).collect();
        assert_eq!(stats.len(), 2);
        for line in stats {
            let slack = crate::protocol::field(line, "slack");
            assert!(slack.is_some(), "{line}");
            assert!(slack.unwrap() <= 1000, "{line}");
        }
        // Packed sessions keep their historical stats bytes.
        let (out, _) = run("stats\nquit\n");
        assert!(!out.contains("slack="), "{out}");
    }

    #[test]
    fn reordered_sessions_translate_ids_at_the_boundary() {
        use lfpr_graph::reorder::ReorderStrategy;
        // Renumber the test graph, run the session in internal id
        // space, and serve through the translation boundary: the
        // transcript must speak external (original) ids throughout.
        let mut g = GraphBuilder::new(5)
            .edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0)])
            .build_dyn()
            .unwrap();
        add_self_loops(&mut g);
        let r = Arc::new(Reordering::compute(ReorderStrategy::Degree, &g).unwrap());
        let mut s = UpdateSession::new(
            r.apply(&g),
            Algorithm::DfLF,
            PagerankOptions::default().with_threads(1),
        );
        s.enable_delta_tracking();
        let reorder: SharedReordering = Some(Arc::clone(&r));
        let mut out = Vec::new();
        let (s, _) = serve_stdin(
            s,
            None,
            &reorder,
            "rank 1\n\
             insert 0 1\n\
             delete 0 1\n\
             subscribe 3 0\n\
             topk 5\n\
             rank 99\n\
             follow\n\
             quit\n"
                .as_bytes(),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // The reply names external vertex 1 but carries the rank the
        // session computed for its internal image.
        assert_eq!(
            lines[0],
            format!("rank 1 {:.6e} epoch=0", s.rank(r.to_internal(1)))
        );
        // Edge errors come back in external ids.
        assert_eq!(lines[1], "err edge (0, 1) already exists");
        assert_eq!(lines[2], "staged 1");
        assert_eq!(lines[3], "subscribed 3 eps=0e0");
        // topk over the whole graph names every external id exactly once.
        assert_eq!(lines[4], "topk 5 epoch=0");
        let mut topk_ids: Vec<u32> = lines[5..10]
            .iter()
            .map(|l| l.split_whitespace().next().unwrap().parse().unwrap())
            .collect();
        topk_ids.sort_unstable();
        assert_eq!(topk_ids, vec![0, 1, 2, 3, 4]);
        // Out-of-range ids pass through untranslated.
        assert_eq!(lines[10], "err unknown vertex 99");
        // Reordered sessions may be followed (the resync ships the
        // permutation), but follow still needs the TCP server.
        assert_eq!(lines[11], "err follow requires --tcp");
        assert_eq!(lines[12], "bye");
    }
}
