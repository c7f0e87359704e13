//! Long-lived incremental update sessions with a reusable workspace.
//!
//! [`UpdateSession`] is the stateful counterpart of [`api::run_dynamic`]:
//! it owns the evolving [`DynGraph`], keeps the graph's CSR snapshot
//! coherent across batches (patched incrementally via
//! [`Snapshot::apply_batch_into`], never rebuilt), and reuses one
//! workspace — the shared [`AtomicRanks`] vector, the `VA`/`RC`/`C` flag
//! vectors ([`EpochFlags`]: cleared per batch by an O(1) epoch bump),
//! the batch-edge scratch, and the precompiled round cursors — across
//! every [`step`](UpdateSession::step).
//!
//! Why it matters: the one-shot path pays `O(n + m)` per batch no matter
//! how small `|Δ|` is — `DynGraph::snapshot()` rebuilds both CSRs plus
//! the transpose, and every `run_dynamic` allocates fresh rank/flag
//! vectors and clones the rank vector back out. A session replaces all
//! of that with work proportional to `|Δ|` plus bandwidth-bound bulk
//! copies, which is what makes the paper's "small batch updates are
//! cheap" headline hold end-to-end (the `update_bench` binary tracks
//! the ratio). In steady state a lock-free step performs **zero O(n)
//! allocations**: ranks stay in place (the previous batch's output *is*
//! this batch's warm start), flags reset by epoch, retired snapshot
//! buffers are recycled as the next patch destination, and the final
//! ranks are exposed by reference ([`ranks`](UpdateSession::ranks))
//! instead of a terminal `to_vec`.
//!
//! All eight algorithm variants work; the four barrier-based ones
//! delegate to [`api::run_dynamic`] (they are synchronous baselines and
//! keep their own allocation profile), while the four lock-free ones run
//! on the shared engine directly against the workspace.
//!
//! ## Concurrent readers
//!
//! A session is single-writer by construction (`step` takes `&mut
//! self`), but it can *publish* its committed state for concurrent
//! readers: [`reader`](UpdateSession::reader) hands out a cheap
//! [`RankReader`] handle whose [`view`](RankReader::view) returns the
//! latest [`RankView`] — an immutable `(Arc<Snapshot>, Arc<[f64]>,
//! epoch)` triple swapped in atomically after every commit. Readers on
//! other threads never block the writer beyond an `Arc` refcount bump,
//! never observe torn ranks (a view is frozen at publish time), and can
//! tell exactly which commit they are looking at via the monotone
//! epoch. Publication is pay-as-you-go: while no reader handle exists,
//! commits skip the `O(n)` rank copy entirely, and the copy recycles
//! the previous view's buffer once readers release it, so a served
//! session in steady state allocates nothing per batch either.

use crate::api::{self, Algorithm};
use crate::config::{PagerankOptions, Teleport};
use crate::frontier::dfs_mark_atomic;
use crate::lf_common::{
    helping_mark_phase, rc_flags_len, run_lf_engine_on, ActiveChunks, EngineStats, LfMode,
    Phase1Fn, RcView, ACTIVE_GRANULE,
};
use crate::rank::{AtomicRanks, EpochFlags, FlagOps};
use crate::result::RunStatus;
use lfpr_graph::types::Result as GraphResult;
use lfpr_graph::{
    BatchUpdate, DynGraph, GappedGraph, NeighborRuns, PrevRuns, SlackStats, Snapshot,
};
use lfpr_sched::chunks::ChunkCursor;
use lfpr_sched::rounds::RoundCursors;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// What one [`UpdateSession::step`] did, end to end.
#[derive(Debug, Clone, Copy)]
pub struct StepStats {
    /// Termination status of the rank computation.
    pub status: RunStatus,
    /// Rounds/iterations the computation performed.
    pub iterations: usize,
    /// Wall-clock time of the parallel rank computation.
    pub runtime: Duration,
    /// Time spent refreshing the snapshot (incremental patch, or full
    /// rebuild on the fallback path).
    pub snapshot_time: Duration,
    /// End-to-end step time (validation + snapshot + ranks).
    pub total_time: Duration,
    /// Total vertex-rank computations across all threads.
    pub vertices_processed: u64,
    /// Vertices flagged affected by the initial marking phase.
    pub initially_affected: usize,
    /// Worker threads crashed by fault injection during the run.
    pub threads_crashed: usize,
    /// `|Δ|`: number of edge updates in the batch.
    pub batch_size: usize,
    /// Whether the snapshot was refreshed incrementally (`false` means
    /// the session had to fall back to a full rebuild, e.g. after
    /// unrecorded ad-hoc mutations).
    pub incremental: bool,
}

/// One vertex's rank movement across a single committed step.
///
/// Produced when delta tracking is on (see
/// [`UpdateSession::enable_delta_tracking`]); a vertex appears iff its
/// committed rank is bit-different from the previous epoch's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankDelta {
    /// The vertex whose rank moved.
    pub vertex: u32,
    /// Its rank at the previous epoch.
    pub old: f64,
    /// Its rank at this epoch.
    pub new: f64,
}

impl RankDelta {
    /// Signed rank change `new - old`.
    pub fn delta(&self) -> f64 {
        self.new - self.old
    }
}

/// Vertices whose ranks are bit-different between `old` and `new`.
fn deltas_of(old: &[f64], new: &[f64]) -> Arc<[RankDelta]> {
    let mut out = Vec::new();
    for (v, (&o, &nw)) in old.iter().zip(new).enumerate() {
        if o.to_bits() != nw.to_bits() {
            out.push(RankDelta {
                vertex: v as u32,
                old: o,
                new: nw,
            });
        }
    }
    out.into()
}

/// Top-`k` deltas by |change| descending, ties by vertex id ascending.
fn top_movers_of(deltas: &[RankDelta], k: usize) -> Vec<RankDelta> {
    let mut d = deltas.to_vec();
    d.sort_unstable_by(|a, b| {
        b.delta()
            .abs()
            .partial_cmp(&a.delta().abs())
            .unwrap()
            .then(a.vertex.cmp(&b.vertex))
    });
    d.truncate(k);
    d
}

/// A named secondary ranking published alongside the default one.
#[derive(Debug, Clone)]
struct PublishedNamedView {
    name: Arc<str>,
    sources: usize,
    ranks: Arc<[f64]>,
    deltas: Arc<[RankDelta]>,
    /// The view's restart distribution, frozen so readers (checkpoint
    /// writers, the replica feed) can reconstruct the view exactly
    /// without access to the owning session.
    teleport: Teleport,
}

/// One committed session state, immutable once published.
///
/// A view pins the graph snapshot and the rank vector of a single
/// epoch: the two always correspond to the same commit, no matter how
/// many batches the writer has applied since. Holding a view never
/// blocks the writer; it only keeps this epoch's buffers alive. When
/// the session hosts named ranking views ([`UpdateSession::add_view`])
/// or delta tracking, those are frozen into the view too.
#[derive(Debug, Clone)]
pub struct RankView {
    snapshot: Arc<Snapshot>,
    ranks: Arc<[f64]>,
    epoch: u64,
    deltas: Arc<[RankDelta]>,
    views: Arc<[PublishedNamedView]>,
    slack: Option<SlackStats>,
}

impl RankView {
    /// The graph snapshot this view's ranks were computed on.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.snapshot
    }

    /// The committed rank vector of this epoch.
    pub fn ranks(&self) -> &[f64] {
        &self.ranks
    }

    /// Which commit this view captures: the session's
    /// [`steps`](UpdateSession::steps) count at publish time (0 = the
    /// initial static ranks). Strictly monotone across republications
    /// with interleaved commits.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rank of one vertex.
    pub fn rank(&self, v: u32) -> f64 {
        self.ranks[v as usize]
    }

    /// Occupancy of the session's gapped store as of this epoch
    /// (`None` under the packed layout), captured at publish time so it
    /// belongs to the same commit as the snapshot's `n` and `m`.
    pub fn slack_stats(&self) -> Option<SlackStats> {
        self.slack
    }

    /// The `k` highest-ranked vertices of this epoch, descending (ties
    /// broken by vertex id).
    pub fn top_k(&self, k: usize) -> Vec<(u32, f64)> {
        top_k_of(&self.ranks, k)
    }

    /// [`top_k`](Self::top_k) restricted to vertex ids in `range`. The
    /// sharded serving tier merges per-shard top-k lists, and each
    /// shard's candidates must come from its owned id range only — the
    /// shard-local ranks of vertices it does not own are partial sums.
    pub fn top_k_range(&self, k: usize, range: std::ops::Range<u32>) -> Vec<(u32, f64)> {
        top_k_range_of(&self.ranks, k, range)
    }

    /// Every vertex whose rank moved across the step that produced this
    /// epoch (empty unless the session tracks deltas).
    pub fn deltas(&self) -> &[RankDelta] {
        &self.deltas
    }

    /// The `k` largest rank changes of this epoch by |Δ| descending
    /// (ties by vertex id).
    pub fn movers(&self, k: usize) -> Vec<RankDelta> {
        top_movers_of(&self.deltas, k)
    }

    /// Names and source counts of the named ranking views frozen into
    /// this epoch (`sources == 0` means a uniform-restart view).
    pub fn view_names(&self) -> Vec<(String, usize)> {
        self.views
            .iter()
            .map(|v| (v.name.to_string(), v.sources))
            .collect()
    }

    /// Whether a named view exists in this epoch.
    pub fn has_view(&self, name: &str) -> bool {
        self.views.iter().any(|v| &*v.name == name)
    }

    fn named(&self, name: &str) -> Option<&PublishedNamedView> {
        self.views.iter().find(|v| &*v.name == name)
    }

    /// Rank of `v` in a named view (`None` if the view is unknown).
    pub fn rank_in(&self, name: &str, v: u32) -> Option<f64> {
        self.named(name).map(|nv| nv.ranks[v as usize])
    }

    /// Top-`k` of a named view (`None` if the view is unknown).
    pub fn top_k_in(&self, name: &str, k: usize) -> Option<Vec<(u32, f64)>> {
        self.named(name).map(|nv| top_k_of(&nv.ranks, k))
    }

    /// Biggest movers of a named view (`None` if the view is unknown).
    pub fn movers_in(&self, name: &str, k: usize) -> Option<Vec<RankDelta>> {
        self.named(name).map(|nv| top_movers_of(&nv.deltas, k))
    }

    /// Full delta list of a named view (`None` if the view is unknown).
    /// Used by the replica feed to ship a joining follower the exact
    /// per-view mover state of the pinned epoch.
    pub fn deltas_in(&self, name: &str) -> Option<&[RankDelta]> {
        self.named(name).map(|nv| &*nv.deltas)
    }

    /// The restart distribution of a named view (`None` if unknown).
    /// Frozen at publish time so feed/checkpoint writers holding only a
    /// reader can reconstruct the view's teleport exactly.
    pub fn teleport_in(&self, name: &str) -> Option<Teleport> {
        self.named(name).map(|nv| nv.teleport.clone())
    }

    /// Ranks of a named view (`None` if the view is unknown).
    pub fn ranks_in(&self, name: &str) -> Option<&[f64]> {
        self.named(name).map(|nv| &*nv.ranks)
    }
}

/// A cloneable, `Send + Sync` handle onto a session's published views.
///
/// Obtained from [`UpdateSession::reader`]; any number of threads may
/// call [`view`](Self::view) while the owning thread keeps committing
/// batches. Each call is one `RwLock` read acquisition plus an `Arc`
/// clone — the pointer swap the writer performs at publish time is the
/// only write ever taken on the slot, so readers cannot observe a
/// half-updated view.
#[derive(Debug, Clone)]
pub struct RankReader {
    slot: Arc<RwLock<Arc<RankView>>>,
}

impl RankReader {
    /// The most recently published view (latest committed epoch).
    pub fn view(&self) -> Arc<RankView> {
        self.slot.read().expect("publish slot poisoned").clone()
    }

    /// The latest committed epoch, without retaining the view.
    pub fn epoch(&self) -> u64 {
        self.view().epoch
    }
}

/// Shared `O(n + k log k)` partial top-k selection (session + views).
fn top_k_of(ranks: &[f64], k: usize) -> Vec<(u32, f64)> {
    top_k_range_of(ranks, k, 0..ranks.len() as u32)
}

/// [`top_k_of`] over an id sub-range (the sharded router's per-shard
/// candidate selection). Same comparator, so merging range results
/// reproduces the whole-vector ordering exactly.
fn top_k_range_of(ranks: &[f64], k: usize, range: std::ops::Range<u32>) -> Vec<(u32, f64)> {
    let hi = (ranks.len() as u32).min(range.end);
    let lo = range.start.min(hi);
    let k = k.min((hi - lo) as usize);
    if k == 0 {
        return Vec::new();
    }
    let cmp = |a: &u32, b: &u32| {
        ranks[*b as usize]
            .partial_cmp(&ranks[*a as usize])
            .unwrap()
            .then(a.cmp(b))
    };
    let mut idx: Vec<u32> = (lo..hi).collect();
    if k < idx.len() {
        idx.select_nth_unstable_by(k - 1, cmp);
        idx.truncate(k);
    }
    idx.sort_unstable_by(cmp);
    idx.into_iter().map(|v| (v, ranks[v as usize])).collect()
}

/// Reusable per-session buffers — allocated once, recycled every batch.
struct Workspace {
    /// Shared in-place rank vector; the previous step's output is the
    /// next step's warm start, with no copy in between.
    ranks: AtomicRanks,
    /// `VA` (affected) flags, epoch-cleared per batch.
    va: EpochFlags,
    /// `RC` (not-yet-converged) flags, epoch-cleared per batch.
    rc: EpochFlags,
    /// `C` (batch-source checked) flags for the helping phase 1.
    checked: EpochFlags,
    /// Flattened batch edges (phase-1 work list).
    edges: Vec<(u32, u32)>,
    /// One flag per [`ACTIVE_GRANULE`]-vertex granule: set iff the
    /// granule holds an affected vertex. Lets DF/DT rounds skip the
    /// per-vertex scan of untouched index ranges (per-round cost ∝
    /// affected set, not n).
    active: EpochFlags,
    /// Per-round chunk cursors over the precompiled vertex plan,
    /// rewound (not reallocated) between steps.
    rounds: Option<RoundCursors>,
}

/// A named ranking maintained alongside the default one: same graph,
/// same algorithm, same flag workspace — only the restart distribution
/// (and therefore the rank vector) differs. Each step re-runs the
/// kernel once per view after the default pass; the affected-marking
/// phase repeats per pass because affectedness is graph-topological,
/// not rank-dependent.
struct SecondaryView {
    name: Arc<str>,
    /// Personalized source count (0 for a uniform-restart view).
    sources: usize,
    /// Session options with this view's teleport swapped in.
    opts: PagerankOptions,
    /// The view's in-place rank vector (its own warm start).
    ranks: AtomicRanks,
    /// Rank movements of the most recent step (when tracking is on).
    deltas: Arc<[RankDelta]>,
}

/// A long-running incremental PageRank session over an evolving graph.
///
/// ```
/// use lfpr_core::{session::UpdateSession, Algorithm, PagerankOptions};
/// use lfpr_graph::{BatchUpdate, GraphBuilder, selfloops::add_self_loops};
///
/// let mut g = GraphBuilder::new(4)
///     .edges([(0, 1), (1, 2), (2, 0), (2, 3)])
///     .build_dyn()
///     .unwrap();
/// add_self_loops(&mut g);
/// let opts = PagerankOptions::default().with_threads(2);
/// let mut session = UpdateSession::new(g, Algorithm::DfLF, opts);
///
/// let before = session.ranks()[1];
/// let stats = session
///     .step(&BatchUpdate::insert_only(vec![(3, 1)]))
///     .unwrap();
/// assert!(stats.status.is_success());
/// assert!(session.ranks()[1] > before);
/// ```
pub struct UpdateSession {
    graph: DynGraph,
    /// Which mutable representation commits run against.
    layout: StorageLayout,
    /// The gap-aware store (present iff `layout == Gapped`), kept in
    /// lockstep with `graph`'s adjacency by every committed batch.
    gapped: Option<GappedGraph>,
    algorithm: Algorithm,
    opts: PagerankOptions,
    ws: Workspace,
    last: Option<StepStats>,
    steps: u64,
    /// The published-view slot shared with every [`RankReader`]. The
    /// session is the only writer; publishing is one pointer swap.
    published: Arc<RwLock<Arc<RankView>>>,
    /// `steps` value of the most recent publication (commits that
    /// happen while no reader handle exists skip publishing).
    published_step: u64,
    /// Set when the publishable state changed without a step (a named
    /// view was added/dropped with no reader live); the next `reader()`
    /// call republishes even though `published_step` matches.
    published_stale: bool,
    /// The rank buffer of the view retired by the last publish, kept
    /// for reuse once every reader has released it — steady-state
    /// publication then allocates nothing.
    spare_ranks: Option<Arc<[f64]>>,
    /// Whether steps record per-vertex rank deltas (off by default —
    /// tracking costs one O(n) shadow copy + diff per pass).
    track_deltas: bool,
    /// Pre-step rank shadow used to diff deltas (reused across passes).
    shadow: Vec<f64>,
    /// Rank movements of the most recent step (empty when tracking is
    /// off or no step ran yet).
    last_deltas: Arc<[RankDelta]>,
    /// Named secondary ranking views sharing this session's graph and
    /// flag workspace.
    views: Vec<SecondaryView>,
}

/// Which mutable representation an [`UpdateSession`] commits batches
/// against.
///
/// `Packed` is the seed behavior: every batch splices the cached packed
/// CSR (O(n + m) bulk copy per commit) and the kernels run on packed
/// snapshots. `Gapped` commits into a [`GappedGraph`] with run-local
/// O(deg) mutations, the kernels iterate the gapped runs directly, and a
/// packed snapshot is only materialized when a reader actually needs one
/// (publication, checkpointing) — one splice settling any number of
/// deferred batches. Single-thread runs are bit-identical across layouts
/// for all eight variants (the gapped runs preserve neighbor order, hence
/// float accumulation order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageLayout {
    /// Packed CSR spliced per batch (the proptested oracle).
    #[default]
    Packed,
    /// Gap-aware runs with per-vertex slack (O(|Δ|) commits).
    Gapped,
}

impl std::str::FromStr for StorageLayout {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "packed" => Ok(StorageLayout::Packed),
            "gapped" => Ok(StorageLayout::Gapped),
            other => Err(format!("unknown layout '{other}' (expected packed|gapped)")),
        }
    }
}

impl std::fmt::Display for StorageLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StorageLayout::Packed => "packed",
            StorageLayout::Gapped => "gapped",
        })
    }
}

impl UpdateSession {
    /// Take ownership of `graph`, compute its initial ranks with the
    /// matching static variant (lock-free for LF algorithms, barrier-
    /// based otherwise), and set up the reusable workspace.
    pub fn new(mut graph: DynGraph, algorithm: Algorithm, opts: PagerankOptions) -> Self {
        let snapshot = graph.snapshot_shared();
        let opts = opts.precompile_vertex_plan(&snapshot);
        let static_algo = if algorithm.is_lock_free() {
            Algorithm::StaticLF
        } else {
            Algorithm::StaticBB
        };
        let initial = api::run_static(static_algo, &snapshot, &opts);
        let n = snapshot.num_vertices();
        let ws = Workspace {
            ranks: AtomicRanks::from_slice(&initial.ranks),
            va: EpochFlags::new(n),
            rc: EpochFlags::new(rc_flags_len(n, opts.convergence, opts.chunk_size)),
            checked: EpochFlags::new(n),
            edges: Vec::new(),
            active: EpochFlags::new(n.div_ceil(ACTIVE_GRANULE)),
            rounds: None,
        };
        let last = StepStats {
            status: initial.status,
            iterations: initial.iterations,
            runtime: initial.runtime,
            snapshot_time: Duration::ZERO,
            total_time: initial.runtime,
            vertices_processed: initial.vertices_processed,
            initially_affected: 0,
            threads_crashed: initial.threads_crashed,
            batch_size: 0,
            incremental: false,
        };
        // Epoch 0: the initial static ranks. `initial.ranks` moves into
        // the published buffer, so the first publication is free.
        let view = RankView {
            snapshot,
            ranks: Arc::from(initial.ranks),
            epoch: 0,
            deltas: Arc::from(Vec::new()),
            views: Arc::from(Vec::new()),
            slack: None,
        };
        UpdateSession {
            graph,
            layout: StorageLayout::Packed,
            gapped: None,
            algorithm,
            opts,
            ws,
            last: Some(last),
            steps: 0,
            published: Arc::new(RwLock::new(Arc::new(view))),
            published_step: 0,
            published_stale: false,
            spare_ranks: None,
            track_deltas: false,
            shadow: Vec::new(),
            last_deltas: Arc::from(Vec::new()),
            views: Vec::new(),
        }
    }

    /// [`new`](Self::new) with an explicit storage layout.
    pub fn new_with_layout(
        graph: DynGraph,
        algorithm: Algorithm,
        opts: PagerankOptions,
        layout: StorageLayout,
    ) -> Self {
        let mut session = Self::new(graph, algorithm, opts);
        session.set_storage_layout(layout);
        session
    }

    /// Switch the mutable storage layout. Entering `Gapped` mirrors the
    /// current snapshot into the gap-aware store (O(n + m), once) and
    /// turns on lazy packed-snapshot maintenance; returning to `Packed`
    /// settles any deferred delta and drops the store. Ranks and epoch
    /// are untouched — the layout only changes how commits are applied.
    pub fn set_storage_layout(&mut self, layout: StorageLayout) {
        if layout == self.layout {
            return;
        }
        match layout {
            StorageLayout::Gapped => {
                let snapshot = self.graph.snapshot_shared();
                self.gapped = Some(GappedGraph::from_snapshot(&snapshot));
                self.graph.set_lazy(true);
            }
            StorageLayout::Packed => {
                self.gapped = None;
                self.graph.set_lazy(false);
                let _ = self.graph.snapshot_shared(); // settle pending delta
            }
        }
        self.layout = layout;
        // Published views carry the store's slack occupancy.
        self.maybe_publish();
    }

    /// The active storage layout.
    pub fn storage_layout(&self) -> StorageLayout {
        self.layout
    }

    /// Occupancy of the gapped store's buffers (`None` under `Packed`).
    pub fn slack_stats(&self) -> Option<SlackStats> {
        self.gapped.as_ref().map(|g| g.slack_stats())
    }

    /// Rebuild a session from externally persisted committed state —
    /// the checkpoint/recovery path. Unlike [`new`](Self::new), no
    /// static rank computation runs: `ranks` are installed bit-for-bit
    /// as the committed state of `epoch`, and the step counter resumes
    /// from there, so replaying the same batches afterwards (at one
    /// thread) reproduces a never-crashed session exactly. Named views
    /// and delta state are restored separately via
    /// [`restore_view`](Self::restore_view) /
    /// [`restore_deltas`](Self::restore_deltas).
    pub fn restore(
        mut graph: DynGraph,
        algorithm: Algorithm,
        opts: PagerankOptions,
        ranks: &[f64],
        epoch: u64,
    ) -> Result<Self, String> {
        let snapshot = graph.snapshot_shared();
        let n = snapshot.num_vertices();
        if ranks.len() != n {
            return Err(format!(
                "rank vector length {} does not match vertex count {n}",
                ranks.len()
            ));
        }
        let opts = opts.precompile_vertex_plan(&snapshot);
        let ws = Workspace {
            ranks: AtomicRanks::from_slice(ranks),
            va: EpochFlags::new(n),
            rc: EpochFlags::new(rc_flags_len(n, opts.convergence, opts.chunk_size)),
            checked: EpochFlags::new(n),
            edges: Vec::new(),
            active: EpochFlags::new(n.div_ceil(ACTIVE_GRANULE)),
            rounds: None,
        };
        let view = RankView {
            snapshot,
            ranks: Arc::from(ranks),
            epoch,
            deltas: Arc::from(Vec::new()),
            views: Arc::from(Vec::new()),
            slack: None,
        };
        Ok(UpdateSession {
            graph,
            layout: StorageLayout::Packed,
            gapped: None,
            algorithm,
            opts,
            ws,
            last: None,
            steps: epoch,
            published: Arc::new(RwLock::new(Arc::new(view))),
            published_step: epoch,
            published_stale: false,
            spare_ranks: None,
            track_deltas: false,
            shadow: Vec::new(),
            last_deltas: Arc::from(Vec::new()),
            views: Vec::new(),
        })
    }

    /// Reinstall the rank deltas of the restored epoch (recovery path),
    /// so `movers` answers match the pre-crash session even when
    /// recovery lands exactly on a checkpoint with no batches to replay.
    pub fn restore_deltas(&mut self, deltas: Vec<RankDelta>) {
        self.last_deltas = deltas.into();
        self.maybe_publish();
    }

    /// Reinstall a named view from persisted state (recovery path):
    /// like [`add_view`](Self::add_view) but with the rank vector and
    /// delta list provided bit-for-bit instead of recomputed.
    pub fn restore_view(
        &mut self,
        name: &str,
        teleport: Teleport,
        ranks: &[f64],
        deltas: Vec<RankDelta>,
    ) -> Result<(), String> {
        if name == "default" {
            return Err("view name default is reserved".into());
        }
        if self.views.iter().any(|v| &*v.name == name) {
            return Err(format!("view {name} already exists"));
        }
        let n = self.graph.num_vertices();
        if ranks.len() != n {
            return Err(format!(
                "view {name}: rank vector length {} does not match vertex count {n}",
                ranks.len()
            ));
        }
        if let Some(w) = teleport.weights() {
            if w.max_vertex() as usize >= n {
                return Err(format!(
                    "teleport source {} out of range (n = {n})",
                    w.max_vertex()
                ));
            }
        }
        let sources = teleport.weights().map_or(0, |w| w.len());
        let opts = self.opts.clone().with_teleport(teleport);
        self.views.push(SecondaryView {
            name: Arc::from(name),
            sources,
            opts,
            ranks: AtomicRanks::from_slice(ranks),
            deltas: deltas.into(),
        });
        self.maybe_publish();
        Ok(())
    }

    /// A handle for concurrent readers: any number of threads may pull
    /// the latest committed [`RankView`] from it while this session
    /// keeps applying batches. Creating (or holding) at least one
    /// reader is what turns publication on — commits made while no
    /// handle exists skip the per-commit rank copy, and the handle
    /// returned here is brought up to date immediately.
    pub fn reader(&mut self) -> RankReader {
        if self.published_step != self.steps || self.published_stale {
            self.publish();
        }
        RankReader {
            slot: Arc::clone(&self.published),
        }
    }

    /// Publish the current committed state if any reader can see it.
    fn maybe_publish(&mut self) {
        // Only the session and live `RankReader`s hold the slot; count 1
        // means nobody is (or can start) reading — skip the O(n) copy.
        // A reader handed out later is caught up by `reader()` itself.
        if Arc::strong_count(&self.published) > 1 {
            self.publish();
        } else {
            self.published_stale = true;
        }
    }

    /// Unconditionally publish `(snapshot, ranks, epoch = steps)`.
    fn publish(&mut self) {
        let n = self.ws.ranks.len();
        // SAFETY: see `ranks` — `&mut self` rules out concurrent writers.
        let ranks: &[f64] = unsafe { self.ws.ranks.as_f64_slice_unchecked() };
        let buf: Arc<[f64]> = match self.spare_ranks.take() {
            // Reuse the retired buffer when every reader released it
            // (unique Arc) and the vertex count still matches.
            Some(mut spare) if spare.len() == n => match Arc::get_mut(&mut spare) {
                Some(dst) => {
                    dst.copy_from_slice(ranks);
                    spare
                }
                None => Arc::from(ranks),
            },
            _ => Arc::from(ranks),
        };
        // Named views are copied out per publish — they exist only on
        // served sessions, which accept the O(n) copy per view.
        let named: Vec<PublishedNamedView> = self
            .views
            .iter()
            .map(|v| PublishedNamedView {
                name: Arc::clone(&v.name),
                sources: v.sources,
                // SAFETY: see `ranks` — `&mut self` rules out writers.
                ranks: Arc::from(unsafe { v.ranks.as_f64_slice_unchecked() }),
                deltas: Arc::clone(&v.deltas),
                teleport: v.opts.teleport.clone(),
            })
            .collect();
        let view = Arc::new(RankView {
            snapshot: self.graph.snapshot_shared(),
            ranks: buf,
            epoch: self.steps,
            deltas: Arc::clone(&self.last_deltas),
            views: named.into(),
            slack: self.slack_stats(),
        });
        let old = {
            let mut slot = self.published.write().expect("publish slot poisoned");
            std::mem::replace(&mut *slot, view)
        };
        self.published_step = self.steps;
        self.published_stale = false;
        // Retire the displaced view's buffers for the next publish: the
        // rank buffer becomes the next copy destination and the pre-batch
        // snapshot goes back to the graph's recycler (while a view holds
        // it, `step`'s own recycle attempt necessarily fails). If a
        // reader still holds the view, everything stays frozen with it
        // and the next publish simply allocates.
        if let Some(old) = Arc::into_inner(old) {
            self.spare_ranks = Some(old.ranks);
            self.graph.recycle_snapshot(old.snapshot);
        }
    }

    /// The current rank vector, borrowed from the in-place workspace
    /// (no copy).
    pub fn ranks(&self) -> &[f64] {
        // SAFETY: every writer of `ws.ranks` runs inside a method taking
        // `&mut self` and finishes (joins its worker team) before that
        // method returns, so a shared borrow of `self` can never observe
        // a concurrent writer.
        unsafe { self.ws.ranks.as_f64_slice_unchecked() }
    }

    /// Rank of one vertex.
    pub fn rank(&self, v: u32) -> f64 {
        self.ranks()[v as usize]
    }

    /// Read-only access to the owned graph.
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// The `k` highest-ranked vertices, descending (ties broken by
    /// vertex id). `O(n + k log k)` partial selection — the full
    /// `O(n log n)` sort only the top slice needs is skipped.
    pub fn top_k(&self, k: usize) -> Vec<(u32, f64)> {
        top_k_of(self.ranks(), k)
    }

    /// Turn on per-step rank-delta recording: every subsequent step
    /// diffs the committed ranks against the previous epoch's and keeps
    /// the moved vertices in [`last_deltas`](Self::last_deltas) (and in
    /// each published [`RankView`]). Off by default — tracking costs an
    /// O(n) shadow copy + diff per kernel pass, which the zero-alloc
    /// batch pipeline does not want to pay unasked.
    pub fn enable_delta_tracking(&mut self) {
        self.track_deltas = true;
    }

    /// Rank movements of the most recent step (empty when tracking is
    /// off, or before the first tracked step).
    pub fn last_deltas(&self) -> &[RankDelta] {
        &self.last_deltas
    }

    /// The `k` largest rank changes of the most recent step, by |Δ|
    /// descending (ties by vertex id ascending). Requires
    /// [`enable_delta_tracking`](Self::enable_delta_tracking).
    pub fn movers(&self, k: usize) -> Vec<RankDelta> {
        top_movers_of(&self.last_deltas, k)
    }

    /// Add a named ranking view sharing this session's graph and
    /// workspace, with its own restart distribution. The view's ranks
    /// are computed statically now and kept current by every subsequent
    /// step (one extra kernel pass per view per batch). The name
    /// `"default"` is reserved for the session's own ranking; duplicate
    /// names and personalized sources outside the vertex set are
    /// rejected.
    pub fn add_view(&mut self, name: &str, teleport: Teleport) -> Result<(), String> {
        if name == "default" {
            return Err("view name default is reserved".into());
        }
        if self.views.iter().any(|v| &*v.name == name) {
            return Err(format!("view {name} already exists"));
        }
        let n = self.graph.num_vertices();
        if let Some(w) = teleport.weights() {
            if w.max_vertex() as usize >= n {
                return Err(format!(
                    "teleport source {} out of range (n = {n})",
                    w.max_vertex()
                ));
            }
        }
        let sources = teleport.weights().map_or(0, |w| w.len());
        let opts = self.opts.clone().with_teleport(teleport);
        let snapshot = self.graph.snapshot_shared();
        let static_algo = if self.algorithm.is_lock_free() {
            Algorithm::StaticLF
        } else {
            Algorithm::StaticBB
        };
        let initial = api::run_static(static_algo, &snapshot, &opts);
        self.views.push(SecondaryView {
            name: Arc::from(name),
            sources,
            opts,
            ranks: AtomicRanks::from_slice(&initial.ranks),
            deltas: Arc::from(Vec::new()),
        });
        // Republish (same epoch) so live readers see the new view now.
        self.maybe_publish();
        Ok(())
    }

    /// Remove a named ranking view.
    pub fn drop_view(&mut self, name: &str) -> Result<(), String> {
        match self.views.iter().position(|v| &*v.name == name) {
            Some(i) => {
                self.views.remove(i);
                self.maybe_publish();
                Ok(())
            }
            None => Err(format!("unknown view {name}")),
        }
    }

    /// Names and source counts of the named views, in creation order
    /// (`sources == 0` means a uniform-restart view).
    pub fn view_names(&self) -> Vec<(String, usize)> {
        self.views
            .iter()
            .map(|v| (v.name.to_string(), v.sources))
            .collect()
    }

    /// Whether a named view exists.
    pub fn has_view(&self, name: &str) -> bool {
        self.views.iter().any(|v| &*v.name == name)
    }

    fn find_view(&self, name: &str) -> Option<&SecondaryView> {
        self.views.iter().find(|v| &*v.name == name)
    }

    /// Current ranks of a named view (`None` if unknown).
    pub fn view_ranks(&self, name: &str) -> Option<&[f64]> {
        // SAFETY: see `ranks` — view ranks have the same single-writer
        // discipline (only written inside `&mut self` methods).
        self.find_view(name)
            .map(|v| unsafe { v.ranks.as_f64_slice_unchecked() })
    }

    /// Rank of `v` in a named view (`None` if the view is unknown).
    pub fn view_rank(&self, name: &str, v: u32) -> Option<f64> {
        self.view_ranks(name).map(|r| r[v as usize])
    }

    /// Top-`k` of a named view (`None` if the view is unknown).
    pub fn view_top_k(&self, name: &str, k: usize) -> Option<Vec<(u32, f64)>> {
        self.view_ranks(name).map(|r| top_k_of(r, k))
    }

    /// Biggest movers of a named view (`None` if the view is unknown).
    pub fn view_movers(&self, name: &str, k: usize) -> Option<Vec<RankDelta>> {
        self.find_view(name).map(|v| top_movers_of(&v.deltas, k))
    }

    /// Full delta list of a named view (`None` if the view is unknown).
    pub fn view_deltas(&self, name: &str) -> Option<&[RankDelta]> {
        self.find_view(name).map(|v| &*v.deltas)
    }

    /// The restart distribution of a named view (`None` if unknown).
    /// The checkpoint writer persists this alongside the view's ranks.
    pub fn view_teleport(&self, name: &str) -> Option<Teleport> {
        self.find_view(name).map(|v| v.opts.teleport.clone())
    }

    /// The configured algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The configured options.
    pub fn options(&self) -> &PagerankOptions {
        &self.opts
    }

    /// Stats of the most recent step (or of the initial static compute
    /// before any step ran).
    pub fn last_stats(&self) -> Option<&StepStats> {
        self.last.as_ref()
    }

    /// Number of update steps performed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The coherent snapshot of the current graph (cache hit after the
    /// first call; kept up to date incrementally by `step`).
    pub fn snapshot(&mut self) -> Arc<Snapshot> {
        self.graph.snapshot_shared()
    }

    /// Apply `batch` to the graph (all-or-nothing; the graph and ranks
    /// are untouched on error) and refresh the ranks incrementally.
    pub fn step(&mut self, batch: &BatchUpdate) -> GraphResult<StepStats> {
        if self.layout == StorageLayout::Gapped {
            return self.step_gapped(batch);
        }
        let t_total = Instant::now();
        let prev = self.graph.snapshot_shared();
        let t_snap = Instant::now();
        self.graph.apply_batch(batch)?; // validates, then patches the cache
                                        // The defensive arm in `apply_batch` drops the cache instead of
                                        // installing a bad patch; report honestly when that forces the
                                        // next line into a full rebuild.
        let incremental = self.graph.cached_snapshot().is_some();
        let curr = self.graph.snapshot_shared();
        let snapshot_time = t_snap.elapsed();
        let (engine, affected) = self.run_kernel(&prev, &curr, batch);
        drop(curr);
        self.graph.recycle_snapshot(prev);
        let stats = self.finish(
            engine,
            affected,
            batch.len(),
            snapshot_time,
            incremental,
            t_total,
        );
        self.maybe_publish();
        Ok(stats)
    }

    /// The gapped commit path: no packed snapshot is taken or spliced.
    /// "prev" is just the recorded pre-batch out-runs of the batch's
    /// sources ([`PrevRuns`]) — the only pre-batch state the dynamic
    /// kernels consult — and the kernels iterate the gapped store
    /// directly, so the whole commit is O(|Δ|) + affected-proportional
    /// kernel work. The packed cache accrues the delta lazily and is
    /// spliced once per publication (and only if a reader exists).
    fn step_gapped(&mut self, batch: &BatchUpdate) -> GraphResult<StepStats> {
        let t_total = Instant::now();
        let t_snap = Instant::now();
        let gapped_ref = self.gapped.as_ref().expect("layout is Gapped");
        let prev = PrevRuns::record(gapped_ref, batch.sources());
        self.graph.apply_batch(batch)?; // validates; lazy mode skips the splice
        self.gapped
            .as_mut()
            .expect("layout is Gapped")
            .apply_batch(batch)
            .expect("batch validated against the authoritative adjacency");
        let snapshot_time = t_snap.elapsed();
        // Move the store out for the kernel borrow; `run_kernel` needs
        // `&mut self` for the workspace while reading the graph.
        let gapped = self.gapped.take().expect("layout is Gapped");
        let (engine, affected) = self.run_kernel(&prev, &gapped, batch);
        self.gapped = Some(gapped);
        let stats = self.finish(engine, affected, batch.len(), snapshot_time, true, t_total);
        self.maybe_publish();
        Ok(stats)
    }

    /// Mutate the graph through `mutate` (which must return the batch of
    /// every recorded insertion/deletion it performed) and refresh the
    /// ranks. The snapshot is re-derived incrementally from the recorded
    /// batch; if the batch does not reproduce the mutated graph (ad-hoc
    /// unrecorded changes), the session falls back to a full rebuild.
    pub fn step_mutated(&mut self, mutate: impl FnOnce(&mut DynGraph) -> BatchUpdate) -> StepStats {
        let t_total = Instant::now();
        let prev = self.graph.snapshot_shared();
        let batch = mutate(&mut self.graph);
        let t_snap = Instant::now();
        let incremental = self.graph.reprime_snapshot(&prev, &batch);
        let curr = self.graph.snapshot_shared();
        let snapshot_time = t_snap.elapsed();
        let (engine, affected) = self.run_kernel(&prev, &curr, &batch);
        if self.layout == StorageLayout::Gapped {
            // Ad-hoc mutations (grow, isolate) bypass the gapped store;
            // re-mirror it from the settled snapshot.
            self.gapped = Some(GappedGraph::from_snapshot(&curr));
        }
        drop(curr);
        self.graph.recycle_snapshot(prev);
        let stats = self.finish(
            engine,
            affected,
            batch.len(),
            snapshot_time,
            incremental,
            t_total,
        );
        self.maybe_publish();
        stats
    }

    fn finish(
        &mut self,
        engine: EngineStats,
        initially_affected: usize,
        batch_size: usize,
        snapshot_time: Duration,
        incremental: bool,
        t_total: Instant,
    ) -> StepStats {
        let stats = StepStats {
            status: engine.status,
            iterations: engine.iterations,
            runtime: engine.runtime,
            snapshot_time,
            total_time: t_total.elapsed(),
            vertices_processed: engine.vertices_processed,
            initially_affected,
            threads_crashed: engine.threads_crashed,
            batch_size,
            incremental,
        };
        self.last = Some(stats);
        self.steps += 1;
        stats
    }

    /// Grow/rebuild the workspace when the vertex set changed (ad-hoc
    /// `grow()` inside a mutate closure) and rewind the round cursors.
    fn prepare_workspace<C: NeighborRuns>(&mut self, curr: &C) {
        let n = curr.num_vertices();
        if self.ws.ranks.len() != n {
            // Vertex growth: keep existing ranks, seed newcomers at 1/n
            // (they are repaired as soon as a batch touches them).
            let mut v = self.ws.ranks.to_vec();
            v.resize(n, 1.0 / n.max(1) as f64);
            self.ws.ranks.copy_from_slice(&v);
            self.ws.va.resize(n);
            self.ws.checked.resize(n);
        }
        for view in &mut self.views {
            if view.ranks.len() != n {
                let mut v = view.ranks.to_vec();
                v.resize(n, 1.0 / n.max(1) as f64);
                view.ranks = AtomicRanks::from_slice(&v);
            }
        }
        let rc_len = rc_flags_len(n, self.opts.convergence, self.opts.chunk_size);
        if self.ws.rc.len() != rc_len {
            self.ws.rc.resize(rc_len);
        }
        let granules = n.div_ceil(ACTIVE_GRANULE);
        if self.ws.active.len() != granules {
            self.ws.active.resize(granules);
        }
        if self
            .opts
            .vertex_plan_cache
            .as_ref()
            .is_none_or(|p| p.len() != n)
        {
            self.opts = self.opts.clone().precompile_vertex_plan(curr);
        }
        let rebuild = match &self.ws.rounds {
            Some(r) => r.plan().len() != n || r.max_rounds() != self.opts.max_iterations,
            None => true,
        };
        if rebuild {
            self.ws.rounds = Some(RoundCursors::new(
                self.opts.vertex_plan(curr),
                self.opts.max_iterations,
            ));
        } else {
            self.ws.rounds.as_mut().unwrap().reset();
        }
    }

    /// Dispatch one rank refresh over the reusable workspace: the
    /// default pass, then one pass per named view (same workspace, the
    /// view's own ranks + teleport). Returns the default pass's engine
    /// stats plus its initially-affected count; when delta tracking is
    /// on, each pass's rank movements are diffed and recorded.
    fn run_kernel<P: NeighborRuns, C: NeighborRuns>(
        &mut self,
        prev: &P,
        curr: &C,
        batch: &BatchUpdate,
    ) -> (EngineStats, usize) {
        self.prepare_workspace(curr);
        if self.track_deltas {
            self.shadow.clear();
            // SAFETY: see `ranks` — `&mut self` rules out writers.
            self.shadow
                .extend_from_slice(unsafe { self.ws.ranks.as_f64_slice_unchecked() });
        }
        let result = Self::kernel_pass(
            self.algorithm,
            &self.opts,
            &mut self.ws,
            None,
            prev,
            curr,
            batch,
        );
        if self.track_deltas {
            self.last_deltas = deltas_of(&self.shadow, unsafe {
                self.ws.ranks.as_f64_slice_unchecked()
            });
        }
        for view in &mut self.views {
            // Each pass needs fresh flag epochs and rewound cursors; the
            // flags advance inside the pass, the cursors rewind here.
            self.ws.rounds.as_mut().expect("prepared above").reset();
            if self.track_deltas {
                self.shadow.clear();
                // SAFETY: see `ranks` — `&mut self` rules out writers.
                self.shadow
                    .extend_from_slice(unsafe { view.ranks.as_f64_slice_unchecked() });
            }
            let _ = Self::kernel_pass(
                self.algorithm,
                &view.opts,
                &mut self.ws,
                Some(&mut view.ranks),
                prev,
                curr,
                batch,
            );
            if self.track_deltas {
                view.deltas =
                    deltas_of(&self.shadow, unsafe { view.ranks.as_f64_slice_unchecked() });
            }
        }
        result
    }

    /// One kernel pass over the shared workspace. `ranks_override`
    /// selects a named view's rank vector (with `opts` carrying that
    /// view's teleport); `None` runs the session's default ranking.
    fn kernel_pass<P: NeighborRuns, C: NeighborRuns>(
        algorithm: Algorithm,
        opts: &PagerankOptions,
        ws: &mut Workspace,
        ranks_override: Option<&mut AtomicRanks>,
        prev: &P,
        curr: &C,
        batch: &BatchUpdate,
    ) -> (EngineStats, usize) {
        let Workspace {
            ranks: default_ranks,
            va,
            rc,
            checked,
            edges,
            active,
            rounds,
        } = ws;
        let ranks: &mut AtomicRanks = match ranks_override {
            Some(r) => r,
            None => default_ranks,
        };
        if !algorithm.is_lock_free() {
            // Barrier-based baselines: delegate to the one-shot path
            // (synchronous Jacobi needs its own double-buffered state).
            // A vertex-set change (ad-hoc `grow()` in a mutate closure)
            // invalidates `prev` for the DT/DF kernels, which index it
            // by batch source; recompute statically for that one step.
            let res = if prev.num_vertices() != curr.num_vertices() {
                api::run_static(Algorithm::StaticBB, curr, opts)
            } else {
                let prev_ranks: &[f64] = ranks.as_f64_slice();
                api::run_dynamic(algorithm, prev, curr, batch, prev_ranks, opts)
            };
            let engine = EngineStats {
                iterations: res.iterations,
                runtime: res.runtime,
                status: res.status,
                vertices_processed: res.vertices_processed,
                threads_crashed: res.threads_crashed,
            };
            let affected = res.initially_affected;
            ranks.copy_from_slice(&res.ranks);
            return (engine, affected);
        }

        // The granule filter's termination scan indexes RC by vertex,
        // so it requires per-vertex convergence flags.
        let sparse_filter = matches!(opts.convergence, crate::config::ConvergenceMode::PerVertex);
        let rounds: &RoundCursors = rounds.as_ref().expect("prepared above");
        let n = curr.num_vertices();

        match algorithm {
            Algorithm::StaticLF => {
                // Full recompute baseline: uniform restart over all
                // vertices (the workspace still saves the allocations).
                ranks.fill(1.0 / n.max(1) as f64);
                rc.fill_set();
                let s = run_lf_engine_on::<_, EpochFlags, EpochFlags, EpochFlags>(
                    curr,
                    ranks,
                    &*rc,
                    LfMode::All,
                    opts,
                    None,
                    rounds,
                    None,
                );
                (s, 0)
            }
            Algorithm::NdLF => {
                // Naive-dynamic: warm ranks are already in place.
                rc.fill_set();
                let s = run_lf_engine_on::<_, EpochFlags, EpochFlags, EpochFlags>(
                    curr,
                    ranks,
                    &*rc,
                    LfMode::All,
                    opts,
                    None,
                    rounds,
                    None,
                );
                (s, 0)
            }
            Algorithm::DtLF | Algorithm::DfLF => {
                va.advance();
                rc.advance();
                checked.advance();
                active.advance();
                edges.clear();
                edges.extend(batch.iter_all());
                let cursor = ChunkCursor::new(edges.len());
                let rc_view = RcView::new(&*rc, opts.convergence, opts.chunk_size);
                let affected = AtomicUsize::new(0);
                let phase1_chunk = opts.batch_chunk(edges.len());
                let va = &*va;
                let checked = &*checked;
                let active_view = ActiveChunks::new(&*active, ACTIVE_GRANULE, n);
                let active_opt = sparse_filter.then_some(&active_view);
                let traversal = algorithm == Algorithm::DtLF;
                // Sources past `prev`'s vertex set (ad-hoc `grow()` in a
                // mutate closure) have no previous out-neighbors.
                let prev_n = prev.num_vertices();
                // DF (Alg. 2 lines 10-12): out-neighbors of u in both
                // snapshots become affected. DT (§3.5.2): everything
                // reachable from them in Gt, via atomic-visited DFS.
                // Chunk flags are marked before vertex flags (see
                // `ActiveChunks`).
                let mark_source = |u: u32| {
                    let prev_out = if (u as usize) < prev_n {
                        prev.out(u)
                    } else {
                        &[][..]
                    };
                    for &vp in prev_out.iter().chain(curr.out(u)) {
                        if traversal {
                            dfs_mark_atomic(curr, vp, va, &mut |w| {
                                active_view.mark_vertex(w as usize);
                                affected.fetch_add(1, Ordering::Relaxed);
                                rc_view.set_vertex(w as usize);
                            });
                        } else {
                            active_view.mark_vertex(vp as usize);
                            if !va.test_and_set(vp as usize) {
                                affected.fetch_add(1, Ordering::Relaxed);
                            }
                            rc_view.set_vertex(vp as usize);
                        }
                    }
                };
                let phase1: &Phase1Fn<'_> = &|_t, faults| {
                    helping_mark_phase(edges, &cursor, checked, phase1_chunk, &mark_source, faults)
                };
                let mode = if traversal {
                    LfMode::Affected { va }
                } else {
                    LfMode::Frontier {
                        va,
                        tau_f: opts.frontier_tolerance,
                    }
                };
                let s = run_lf_engine_on(
                    curr,
                    ranks,
                    &*rc,
                    mode,
                    opts,
                    Some(phase1),
                    rounds,
                    active_opt,
                );
                (s, affected.load(Ordering::Relaxed))
            }
            Algorithm::StaticBB | Algorithm::NdBB | Algorithm::DtBB | Algorithm::DfBB => {
                unreachable!("barrier-based variants dispatched above")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norm::linf_diff;
    use crate::reference::reference_default;
    use lfpr_graph::generators::erdos_renyi;
    use lfpr_graph::selfloops::add_self_loops;
    use lfpr_graph::BatchSpec;

    fn opts() -> PagerankOptions {
        PagerankOptions::default()
            .with_threads(2)
            .with_chunk_size(32)
    }

    fn session(algo: Algorithm) -> UpdateSession {
        let mut g = erdos_renyi(120, 700, 91);
        add_self_loops(&mut g);
        UpdateSession::new(g, algo, opts())
    }

    #[test]
    fn initial_ranks_sum_to_one() {
        let s = session(Algorithm::DfLF);
        let sum: f64 = s.ranks().iter().sum();
        assert!((sum - 1.0).abs() < 1e-7, "sum = {sum}");
        assert_eq!(s.steps(), 0);
        assert!(s.last_stats().is_some());
    }

    #[test]
    fn gapped_layout_is_bit_identical_to_packed_for_every_algorithm() {
        // The tentpole invariant: at one thread, a gapped-storage session
        // reproduces the packed session's ranks bit-for-bit for all 8
        // variants across a chain of mixed batches.
        let o = PagerankOptions::default()
            .with_threads(1)
            .with_chunk_size(32);
        for algo in Algorithm::ALL {
            let mut g = erdos_renyi(120, 700, 91);
            add_self_loops(&mut g);
            let mut packed = UpdateSession::new(g.clone(), algo, o.clone());
            let mut gapped =
                UpdateSession::new_with_layout(g, algo, o.clone(), StorageLayout::Gapped);
            assert_eq!(gapped.storage_layout(), StorageLayout::Gapped);
            assert_eq!(packed.ranks(), gapped.ranks(), "{algo}: initial");
            for round in 0..4u64 {
                let batch = BatchSpec::mixed(0.02, 500 + round).generate(packed.graph());
                let ps = packed
                    .step(&batch)
                    .unwrap_or_else(|e| panic!("{algo}: {e}"));
                let gs = gapped
                    .step(&batch)
                    .unwrap_or_else(|e| panic!("{algo}: {e}"));
                assert!(gs.status.is_success(), "{algo}");
                assert!(
                    gs.incremental,
                    "{algo}: gapped commits are always incremental"
                );
                let pr = packed.ranks();
                let gr = gapped.ranks();
                for v in 0..pr.len() {
                    assert_eq!(
                        pr[v].to_bits(),
                        gr[v].to_bits(),
                        "{algo} round {round}: vertex {v} diverged"
                    );
                }
                assert_eq!(ps.initially_affected, gs.initially_affected, "{algo}");
                assert_eq!(*packed.graph(), *gapped.graph(), "{algo}: graphs diverged");
            }
            let slack = gapped.slack_stats().expect("gapped layout reports slack");
            assert!(slack.edges > 0 && slack.slots >= slack.edges);
            assert!(packed.slack_stats().is_none());
        }
    }

    #[test]
    fn gapped_session_publishes_correct_packed_views() {
        // Publication must settle the lazy delta: the RankView snapshot a
        // reader sees matches a full rebuild of the current graph.
        let mut s = session(Algorithm::DfLF);
        s.set_storage_layout(StorageLayout::Gapped);
        let reader = s.reader();
        for round in 0..3u64 {
            let batch = BatchSpec::mixed(0.02, 300 + round).generate(s.graph());
            s.step(&batch).unwrap();
            let view = reader.view();
            assert_eq!(view.epoch(), round + 1);
            assert_eq!(*view.snapshot().as_ref(), s.graph().snapshot());
            assert_eq!(view.ranks(), s.ranks());
        }
    }

    #[test]
    fn gapped_layout_survives_grow_and_invalid_batches() {
        let mut s = session(Algorithm::DfLF);
        s.set_storage_layout(StorageLayout::Gapped);
        let before = s.ranks().to_vec();
        let g_before = s.graph().clone();
        // Invalid batch: all-or-nothing, gapped store untouched.
        assert!(s.step(&BatchUpdate::insert_only(vec![(0, 0)])).is_err());
        assert_eq!(s.ranks(), &before[..]);
        assert_eq!(*s.graph(), g_before);
        // Ad-hoc growth re-mirrors the gapped store; later gapped commits
        // still work and track the reference.
        let n0 = s.graph().num_vertices();
        s.step_mutated(|g| {
            g.grow(n0 + 2);
            let mut b = BatchUpdate::new();
            for v in [n0 as u32, n0 as u32 + 1] {
                g.insert_edge(v, v).unwrap();
                b.insertions.push((v, v));
                g.insert_edge(v, 0).unwrap();
                b.insertions.push((v, 0));
            }
            b
        });
        assert_eq!(s.graph().num_vertices(), n0 + 2);
        let batch = BatchSpec::mixed(0.02, 999).generate(s.graph());
        let stats = s.step(&batch).unwrap();
        assert!(stats.status.is_success() && stats.incremental);
        let reference = reference_default(&s.graph().snapshot());
        let err = linf_diff(s.ranks(), &reference);
        assert!(err < 1e-6, "err = {err:.2e}");
    }

    #[test]
    fn steps_track_reference_for_every_algorithm() {
        for algo in Algorithm::ALL {
            let mut s = session(algo);
            for round in 0..3u64 {
                let batch = BatchSpec::mixed(0.02, 100 + round).generate(s.graph());
                let stats = s.step(&batch).unwrap_or_else(|e| panic!("{algo}: {e}"));
                assert!(stats.status.is_success(), "{algo}");
                assert!(stats.incremental, "{algo}: snapshot must be patched");
                assert_eq!(stats.batch_size, batch.len());
                let reference = reference_default(&s.graph().snapshot());
                let err = linf_diff(s.ranks(), &reference);
                assert!(err < 1e-6, "{algo} round {round}: err = {err:.2e}");
                assert_eq!(s.steps(), round + 1);
            }
        }
    }

    #[test]
    fn invalid_batch_leaves_session_untouched() {
        let mut s = session(Algorithm::DfLF);
        let before = s.ranks().to_vec();
        let g_before = s.graph().clone();
        let bad = BatchUpdate::insert_only(vec![(0, 0)]); // self-loop exists
        assert!(s.step(&bad).is_err());
        assert_eq!(s.ranks(), &before[..]);
        assert_eq!(*s.graph(), g_before);
        assert_eq!(s.steps(), 0);
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut s = session(Algorithm::DfLF);
        let before = s.ranks().to_vec();
        let stats = s.step(&BatchUpdate::new()).unwrap();
        assert_eq!(stats.status, RunStatus::Converged);
        assert_eq!(stats.vertices_processed, 0);
        assert_eq!(s.ranks(), &before[..]);
    }

    #[test]
    fn step_mutated_records_and_falls_back() {
        let mut s = session(Algorithm::DfLF);
        // Coherent recording: incremental refresh.
        let stats = s.step_mutated(|g| {
            let mut b = BatchUpdate::new();
            g.insert_edge(3, 7).unwrap();
            b.insertions.push((3, 7));
            b
        });
        assert!(stats.incremental);
        assert!(s.graph().has_edge(3, 7));
        // Unrecorded mutation: the session must notice and rebuild.
        let stats = s.step_mutated(|g| {
            g.delete_edge(3, 7).unwrap();
            BatchUpdate::new() // lies by omission
        });
        assert!(!stats.incremental);
        let reference = reference_default(&s.graph().snapshot());
        // NDLF-quality repair is not guaranteed after a lie (DF marks
        // nothing), but the snapshot itself must be coherent.
        assert_eq!(*s.snapshot(), s.graph().snapshot());
        let _ = reference;
    }

    #[test]
    fn grow_mid_session_is_survivable() {
        // Ad-hoc `grow()` inside a mutate closure changes the vertex
        // set: LF sessions must guard `prev` indexing, BB sessions fall
        // back to a static recompute for that step.
        for algo in [Algorithm::DfLF, Algorithm::DtLF, Algorithm::DfBB] {
            let mut s = session(algo);
            let n = s.graph().num_vertices() as u32;
            let stats = s.step_mutated(|g| {
                g.grow(n as usize + 3);
                let mut b = BatchUpdate::new();
                for w in [(n, 0), (n + 2, 5), (3, n + 1)] {
                    g.insert_edge(w.0, w.1).unwrap();
                    b.insertions.push(w);
                }
                b
            });
            assert!(stats.status.is_success(), "{algo}");
            assert_eq!(s.ranks().len(), n as usize + 3, "{algo}");
            assert_eq!(*s.snapshot(), s.graph().snapshot(), "{algo}");
            // The session keeps working at the new size.
            let batch = BatchSpec::mixed(0.01, 77).generate(s.graph());
            assert!(s.step(&batch).unwrap().status.is_success(), "{algo}");
        }
    }

    #[test]
    fn published_views_track_commits() {
        let mut s = session(Algorithm::DfLF);
        let reader = s.reader();
        let v0 = reader.view();
        assert_eq!(v0.epoch(), 0);
        assert_eq!(v0.ranks(), s.ranks());
        assert_eq!(v0.snapshot().num_edges(), s.graph().num_edges());
        for round in 1..=3u64 {
            let batch = BatchSpec::mixed(0.01, 200 + round).generate(s.graph());
            s.step(&batch).unwrap();
            let v = reader.view();
            assert_eq!(v.epoch(), round);
            assert_eq!(v.ranks(), s.ranks(), "round {round}");
            assert_eq!(v.snapshot().num_edges(), s.graph().num_edges());
            assert_eq!(v.top_k(5), s.top_k(5));
            assert_eq!(v.rank(3), s.rank(3));
        }
        // The early view is frozen: still epoch 0, untouched by commits.
        assert_eq!(v0.epoch(), 0);
        assert_eq!(reader.epoch(), 3);
    }

    #[test]
    fn commits_without_readers_skip_publication() {
        let mut s = session(Algorithm::DfLF);
        let batch = BatchSpec::mixed(0.01, 300).generate(s.graph());
        s.step(&batch).unwrap(); // no reader handle exists → no publish
        let reader = s.reader(); // must catch up on creation
        assert_eq!(reader.view().epoch(), 1);
        assert_eq!(reader.view().ranks(), s.ranks());
        // A dropped reader stops publication again.
        drop(reader);
        let batch = BatchSpec::mixed(0.01, 301).generate(s.graph());
        s.step(&batch).unwrap();
        assert_eq!(s.reader().view().epoch(), 2);
    }

    #[test]
    fn held_view_survives_rank_buffer_recycling() {
        // A reader pins epoch e while the writer publishes e+1, e+2, …;
        // the pinned buffers must never be overwritten by the recycler.
        let mut s = session(Algorithm::DfLF);
        let reader = s.reader();
        let pinned = reader.view();
        let pinned_ranks = pinned.ranks().to_vec();
        let pinned_edges: Vec<_> = pinned.snapshot().edges().collect();
        for round in 0..5u64 {
            let batch = BatchSpec::mixed(0.02, 400 + round).generate(s.graph());
            s.step(&batch).unwrap();
        }
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.ranks(), &pinned_ranks[..]);
        assert_eq!(pinned.snapshot().edges().collect::<Vec<_>>(), pinned_edges);
        assert_eq!(reader.view().epoch(), 5);
    }

    #[test]
    fn failed_step_does_not_publish() {
        let mut s = session(Algorithm::DfLF);
        let reader = s.reader();
        let bad = BatchUpdate::insert_only(vec![(0, 0)]); // self-loop exists
        assert!(s.step(&bad).is_err());
        assert_eq!(reader.view().epoch(), 0, "no commit → no new epoch");
    }

    #[test]
    fn explicit_uniform_teleport_is_bit_identical_for_every_algorithm() {
        // The acceptance bar: selecting `Teleport::Uniform` explicitly
        // must reproduce the historical kernels bit for bit, for all 8
        // variants, across several batches.
        for algo in Algorithm::ALL {
            let mut g = erdos_renyi(100, 500, 31);
            add_self_loops(&mut g);
            let mut plain = UpdateSession::new(g.clone(), algo, opts().with_threads(1));
            let mut explicit = UpdateSession::new(
                g,
                algo,
                opts().with_threads(1).with_teleport(Teleport::Uniform),
            );
            for round in 0..3u64 {
                let batch = BatchSpec::mixed(0.02, 500 + round).generate(plain.graph());
                plain.step(&batch).unwrap();
                explicit.step(&batch).unwrap();
                for (a, b) in plain.ranks().iter().zip(explicit.ranks()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{algo} round {round}");
                }
            }
        }
    }

    #[test]
    fn personalized_teleport_tracks_ppr_reference_for_every_algorithm() {
        use crate::reference::reference_pagerank_with;
        let t = Teleport::personalized([(0, 2.0), (7, 1.0), (19, 1.0)]).unwrap();
        for algo in Algorithm::ALL {
            let mut g = erdos_renyi(120, 700, 91);
            add_self_loops(&mut g);
            let mut s = UpdateSession::new(g, algo, opts().with_teleport(t.clone()));
            for round in 0..2u64 {
                let batch = BatchSpec::mixed(0.02, 600 + round).generate(s.graph());
                let stats = s.step(&batch).unwrap();
                assert!(stats.status.is_success(), "{algo}");
                let oracle = reference_pagerank_with(&s.graph().snapshot(), 0.85, 500, &t);
                let err = linf_diff(s.ranks(), &oracle);
                assert!(err < 1e-6, "{algo} round {round}: err = {err:.2e}");
            }
        }
    }

    #[test]
    fn named_views_rank_concurrently_with_the_default() {
        use crate::reference::{reference_default, reference_pagerank_with};
        let mut s = session(Algorithm::DfLF);
        let t = Teleport::personalized([(3, 1.0), (11, 1.0)]).unwrap();
        s.add_view("near-3", t.clone()).unwrap();
        assert!(s.has_view("near-3"));
        assert_eq!(s.view_names(), vec![("near-3".to_string(), 2)]);
        for round in 0..3u64 {
            let batch = BatchSpec::mixed(0.02, 700 + round).generate(s.graph());
            s.step(&batch).unwrap();
            let snap = s.graph().snapshot();
            // Default ranking unaffected by the personalized passenger.
            let err = linf_diff(s.ranks(), &reference_default(&snap));
            assert!(err < 1e-6, "default, round {round}: {err:.2e}");
            // The view tracks its own PPR fixpoint over the same graph.
            let oracle = reference_pagerank_with(&snap, 0.85, 500, &t);
            let view_ranks = s.view_ranks("near-3").unwrap();
            let err = linf_diff(view_ranks, &oracle);
            assert!(err < 1e-6, "view, round {round}: {err:.2e}");
            let tk = s.view_top_k("near-3", 3).unwrap();
            assert_eq!(tk.len(), 3);
            assert!(tk[0].1 >= tk[1].1);
        }
        s.drop_view("near-3").unwrap();
        assert!(!s.has_view("near-3"));
        assert!(s.view_rank("near-3", 0).is_none());
    }

    #[test]
    fn add_view_validates_names_and_sources() {
        let mut s = session(Algorithm::DfLF);
        let t = Teleport::personalized([(1, 1.0)]).unwrap();
        assert!(s.add_view("default", t.clone()).is_err(), "reserved");
        s.add_view("a", t.clone()).unwrap();
        assert!(s.add_view("a", t.clone()).is_err(), "duplicate");
        let oob = Teleport::personalized([(100_000, 1.0)]).unwrap();
        assert!(s.add_view("b", oob).is_err(), "source out of range");
        assert!(s.drop_view("nope").is_err());
    }

    #[test]
    fn delta_tracking_records_movers() {
        let mut s = session(Algorithm::DfLF);
        assert!(s.last_deltas().is_empty());
        s.enable_delta_tracking();
        let before = s.ranks().to_vec();
        let batch = BatchSpec::mixed(0.05, 800).generate(s.graph());
        s.step(&batch).unwrap();
        let after = s.ranks();
        let deltas = s.last_deltas();
        assert!(!deltas.is_empty(), "a 5% batch must move some ranks");
        // Deltas are exactly the bit-changed vertices, old/new faithful.
        let mut expect = 0usize;
        for (v, (&o, &nw)) in before.iter().zip(after).enumerate() {
            if o.to_bits() != nw.to_bits() {
                expect += 1;
                let d = deltas.iter().find(|d| d.vertex == v as u32).unwrap();
                assert_eq!(d.old.to_bits(), o.to_bits());
                assert_eq!(d.new.to_bits(), nw.to_bits());
            }
        }
        assert_eq!(deltas.len(), expect);
        // Movers: sorted by |Δ| descending, capped at k.
        let movers = s.movers(5);
        assert!(movers.len() <= 5);
        for w in movers.windows(2) {
            assert!(w[0].delta().abs() >= w[1].delta().abs());
        }
        assert_eq!(
            movers[0].delta().abs(),
            deltas
                .iter()
                .map(|d| d.delta().abs())
                .fold(0.0f64, f64::max)
        );
    }

    #[test]
    fn published_views_carry_deltas_and_named_views() {
        let mut s = session(Algorithm::DfLF);
        s.enable_delta_tracking();
        let t = Teleport::personalized([(5, 1.0)]).unwrap();
        s.add_view("ego-5", t).unwrap();
        let reader = s.reader();
        // add_view before any step: the epoch-0 view already lists it.
        assert!(reader.view().has_view("ego-5"));
        let batch = BatchSpec::mixed(0.03, 900).generate(s.graph());
        s.step(&batch).unwrap();
        let v = reader.view();
        assert_eq!(v.epoch(), 1);
        assert_eq!(v.deltas(), s.last_deltas());
        assert_eq!(v.movers(3), s.movers(3));
        assert_eq!(v.view_names(), s.view_names());
        assert_eq!(v.rank_in("ego-5", 2), s.view_rank("ego-5", 2));
        assert_eq!(v.top_k_in("ego-5", 4), s.view_top_k("ego-5", 4));
        assert_eq!(v.movers_in("ego-5", 4), s.view_movers("ego-5", 4));
        assert!(v.rank_in("nope", 0).is_none());
        // The view's own deltas are recorded too (source 5 moved or not,
        // but the machinery must have produced a coherent list).
        let vm = v.movers_in("ego-5", 1000).unwrap();
        for d in &vm {
            assert!(d.old.to_bits() != d.new.to_bits());
        }
    }

    #[test]
    fn restore_resumes_bit_for_bit_at_one_thread() {
        // The recovery contract: rebuild the graph from its edge list,
        // install the persisted ranks/views/deltas, and the session is
        // indistinguishable — to the bit — from one that never stopped.
        use crate::config::TeleportWeights;
        for algo in [Algorithm::DfLF, Algorithm::DtBB] {
            let o = PagerankOptions::default()
                .with_threads(1)
                .with_chunk_size(64);
            let mut g = erdos_renyi(100, 500, 3);
            add_self_loops(&mut g);
            let mut live = UpdateSession::new(g, algo, o.clone());
            live.enable_delta_tracking();
            let t = Teleport::personalized([(3, 1.0), (9, 2.0)]).unwrap();
            live.add_view("ego", t.clone()).unwrap();
            for round in 0..2u64 {
                let batch = BatchSpec::mixed(0.02, 10 + round).generate(live.graph());
                live.step(&batch).unwrap();
            }
            // "Checkpoint": edge list + rank bits, rebuilt the recovery way.
            let n = live.graph().num_vertices();
            let edges: Vec<_> = live.graph().snapshot().edges().collect();
            let graph = DynGraph::from_edges(n, edges).unwrap();
            let mut rec =
                UpdateSession::restore(graph, algo, o.clone(), live.ranks(), live.steps()).unwrap();
            rec.enable_delta_tracking();
            rec.restore_deltas(live.last_deltas().to_vec());
            let shipped = t.weights().unwrap().sources().to_vec();
            let tn = TeleportWeights::from_normalized(shipped).unwrap();
            rec.restore_view(
                "ego",
                Teleport::Personalized(Arc::new(tn)),
                live.view_ranks("ego").unwrap(),
                live.view_deltas("ego").unwrap().to_vec(),
            )
            .unwrap();
            assert_eq!(rec.steps(), live.steps(), "{algo}");
            assert_eq!(rec.movers(5), live.movers(5), "{algo}");
            assert_eq!(rec.view_names(), live.view_names(), "{algo}");
            for round in 2..4u64 {
                let batch = BatchSpec::mixed(0.02, 10 + round).generate(live.graph());
                live.step(&batch).unwrap();
                rec.step(&batch).unwrap();
                for (a, b) in live.ranks().iter().zip(rec.ranks()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{algo} round {round}");
                }
                let va = live.view_ranks("ego").unwrap();
                let vb = rec.view_ranks("ego").unwrap();
                for (a, b) in va.iter().zip(vb) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{algo} view round {round}");
                }
                assert_eq!(
                    live.view_movers("ego", 3),
                    rec.view_movers("ego", 3),
                    "{algo}"
                );
            }
        }
    }

    #[test]
    fn session_matches_one_shot_bit_for_bit_single_thread() {
        // Same warm start + same snapshots + 1 thread ⇒ the session's
        // workspace path must reproduce the one-shot kernel exactly.
        let o = PagerankOptions::default()
            .with_threads(1)
            .with_chunk_size(64);
        let mut g = erdos_renyi(150, 900, 17);
        add_self_loops(&mut g);
        let mut s = UpdateSession::new(g.clone(), Algorithm::DfLF, o.clone());
        let mut oracle_ranks = s.ranks().to_vec();
        for round in 0..4u64 {
            let batch = BatchSpec::mixed(0.01, 40 + round).generate(&g);
            let prev = g.snapshot();
            g.apply_batch(&batch).unwrap();
            let curr = g.snapshot();
            let one_shot = crate::df_lf::df_lf(&prev, &curr, &batch, &oracle_ranks, &o);
            oracle_ranks = one_shot.ranks;
            let stats = s.step(&batch).unwrap();
            assert_eq!(s.ranks(), &oracle_ranks[..], "round {round}");
            assert_eq!(stats.initially_affected, one_shot.initially_affected);
        }
    }
}
