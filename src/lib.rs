//! # lockfree-pagerank
//!
//! Lock-free computation of PageRank in dynamic graphs — a from-scratch
//! Rust reproduction of Sahu, *"Lock-Free Computation of PageRank in
//! Dynamic Graphs"* (2024, arXiv:2407.19562).
//!
//! The workspace splits into three layers, re-exported here:
//!
//! * [`graph`] (`lfpr-graph`) — CSR snapshots, batch-dynamic graphs,
//!   generators, and I/O;
//! * [`sched`] (`lfpr-sched`) — wait-free chunk scheduling, instrumented
//!   barriers, and fault injection (random delays + crash-stop);
//! * [`core`] (`lfpr-core`) — the eight PageRank variants
//!   (Static/ND/DT/DF × barrier-based/lock-free) plus the reference
//!   implementation.
//!
//! This crate adds [`RankMaintainer`], a convenience layer that owns an
//! evolving graph and keeps its PageRank vector up to date across batch
//! updates — the API a downstream application would actually use. It is
//! a thin facade over [`UpdateSession`] (re-exported from `lfpr-core`),
//! which keeps the graph snapshot coherent incrementally and reuses one
//! rank/flag workspace across batches, so per-batch cost scales with
//! `|Δ|` instead of `n + m`. The [`serve`] module wraps a session in the
//! `lfpr serve` line protocol (insert/delete/batch/topk/rank over stdin
//! or TCP); the [`server`] module serves that protocol to many TCP
//! clients at once — reads answered from the session's epoch-published
//! [`RankView`] while one writer thread commits batches.
//!
//! ```
//! use lockfree_pagerank::{Algorithm, RankMaintainer, PagerankOptions};
//! use lockfree_pagerank::graph::{GraphBuilder, selfloops::add_self_loops};
//!
//! let mut g = GraphBuilder::new(4)
//!     .edges([(0, 1), (1, 2), (2, 0), (2, 3)])
//!     .build_dyn()
//!     .unwrap();
//! add_self_loops(&mut g);
//!
//! let opts = PagerankOptions::default().with_threads(2);
//! let mut rm = RankMaintainer::new(g, Algorithm::DfLF, opts);
//! let before = rm.ranks().to_vec();
//!
//! // Stream an edge insertion; ranks update incrementally (lock-free).
//! rm.update(|g| {
//!     g.insert_edge(3, 1).unwrap();
//! });
//! assert_ne!(rm.ranks(), &before[..]);
//! ```

pub use lfpr_core as core;
pub use lfpr_graph as graph;
pub use lfpr_sched as sched;

pub use lfpr_core::{
    api, Algorithm, ConvergenceMode, PagerankOptions, PagerankResult, RankDelta, RankReader,
    RankView, RunStatus, StepStats, StorageLayout, Teleport, TeleportWeights, UpdateSession,
};
pub use lfpr_graph::{BatchSpec, BatchUpdate, DynGraph, ReorderStrategy, Reordering, Snapshot};

pub mod durable;
pub mod net;
pub mod protocol;
pub mod replica;
pub mod serve;
pub mod server;
pub mod shard;

use lfpr_graph::types::{Edge, GraphError};

/// Where `lfpr serve` gets its graph from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphSource {
    /// Load an edge-list / MatrixMarket file (`--graph`, `--format`).
    File {
        /// Path on disk.
        path: String,
        /// Explicit format; `None` detects by extension.
        format: Option<graph::GraphFormat>,
    },
    /// Erdős–Rényi generator (`--gen <n> <m> <seed>`).
    Generated {
        /// Vertex count.
        n: usize,
        /// Edge count.
        m: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Restore checkpoint + WAL tail from the `--wal` directory
    /// (`--recover`).
    Recovered,
}

/// The full `lfpr serve` configuration: every CLI flag as one typed
/// struct, with the flag interactions validated in **one place**
/// ([`validate`](Self::validate)) instead of scattered through the
/// argument loop. The CLI parses into it via
/// [`from_args`](Self::from_args); tests construct it directly.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Graph source (`--graph` / `--gen` / `--recover`).
    pub source: GraphSource,
    /// Rank algorithm (`--algo`, default DF-LF).
    pub algo: Algorithm,
    /// Kernel threads (`--threads`, default 1 — deterministic).
    pub threads: usize,
    /// Iteration tolerance τ (`--tolerance`).
    pub tolerance: f64,
    /// Frontier tolerance τf (`--tauf`; defaults to τ — see the CLI
    /// docs for why serve does not use the paper's τ/1000).
    pub tauf: Option<f64>,
    /// TCP listen address (`--tcp`); `None` serves stdin/stdout.
    pub tcp: Option<String>,
    /// Event loops for the unsharded TCP server (`--workers`).
    pub workers: usize,
    /// Writer-side commit coalescing (`--no-coalesce` turns it off).
    pub coalesce: bool,
    /// Write-ahead-log directory (`--wal`); enables durability.
    pub wal_dir: Option<std::path::PathBuf>,
    /// WAL fsync policy (`--fsync`).
    pub fsync: graph::io::wal::FsyncPolicy,
    /// Checkpoint cadence in commits (`--checkpoint-every`, 0 = never).
    pub checkpoint_every: u64,
    /// Crash-injection hook for the CI recovery smoke
    /// (`--crash-after`).
    pub crash_after: Option<u64>,
    /// Session storage layout (`--layout packed|gapped`).
    pub layout: StorageLayout,
    /// Load-time vertex renumbering (`--reorder`). With `--shards` the
    /// partition is computed jointly with it
    /// ([`graph::Partition::compute_joint`]).
    pub reorder: ReorderStrategy,
    /// Session shards (`--shards`, default 1). Values ≥ 2 serve the
    /// sharded tier ([`shard::ShardRouter`]) and speak the v2
    /// handshake.
    pub shards: usize,
}

impl ServeConfig {
    /// A config with the CLI's historical defaults.
    pub fn new(source: GraphSource) -> Self {
        ServeConfig {
            source,
            algo: Algorithm::DfLF,
            threads: 1,
            tolerance: 1e-10,
            tauf: None,
            tcp: None,
            workers: 4,
            coalesce: true,
            wal_dir: None,
            fsync: graph::io::wal::FsyncPolicy::Always,
            checkpoint_every: 64,
            crash_after: None,
            layout: StorageLayout::Packed,
            reorder: ReorderStrategy::None,
            shards: 1,
        }
    }

    /// Parse the `lfpr serve` flag set into a validated config.
    pub fn from_args(args: &[String]) -> Result<ServeConfig, String> {
        let mut cfg = ServeConfig::new(GraphSource::Recovered);
        let mut graph_path: Option<String> = None;
        let mut format: Option<graph::GraphFormat> = None;
        let mut gen: Option<(usize, usize, u64)> = None;
        let mut recover = false;
        let value = |i: usize, usage: &str| -> Result<&String, String> {
            args.get(i).ok_or_else(|| format!("usage: {usage}"))
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--algo" => {
                    cfg.algo = value(i + 1, "--algo <name>")?.parse()?;
                    i += 2;
                }
                "--threads" => {
                    cfg.threads = value(i + 1, "--threads <n>")?
                        .parse()
                        .map_err(|_| "usage: --threads <n>".to_string())?;
                    i += 2;
                }
                "--tolerance" => {
                    cfg.tolerance = value(i + 1, "--tolerance <t>")?
                        .parse()
                        .map_err(|_| "usage: --tolerance <t>".to_string())?;
                    i += 2;
                }
                "--tauf" => {
                    cfg.tauf = Some(
                        value(i + 1, "--tauf <t>")?
                            .parse()
                            .map_err(|_| "usage: --tauf <t>".to_string())?,
                    );
                    i += 2;
                }
                "--format" => {
                    format = Some(value(i + 1, "--format <snap|mtx>")?.parse()?);
                    i += 2;
                }
                "--graph" => {
                    graph_path = Some(value(i + 1, "--graph <path>")?.clone());
                    i += 2;
                }
                "--gen" => {
                    let usage = "--gen <n> <m> <seed>";
                    let parse_at = |j: usize| -> Result<usize, String> {
                        value(j, usage)?
                            .parse()
                            .map_err(|_| format!("usage: {usage}"))
                    };
                    let seed: u64 = value(i + 3, usage)?
                        .parse()
                        .map_err(|_| format!("usage: {usage}"))?;
                    gen = Some((parse_at(i + 1)?, parse_at(i + 2)?, seed));
                    i += 4;
                }
                "--tcp" => {
                    cfg.tcp = Some(value(i + 1, "--tcp <addr:port>")?.clone());
                    i += 2;
                }
                "--workers" => {
                    cfg.workers = value(i + 1, "--workers <n>")?
                        .parse()
                        .map_err(|_| "usage: --workers <n>".to_string())?;
                    i += 2;
                }
                "--no-coalesce" => {
                    cfg.coalesce = false;
                    i += 1;
                }
                "--wal" => {
                    cfg.wal_dir = Some(value(i + 1, "--wal <dir>")?.into());
                    i += 2;
                }
                "--fsync" => {
                    cfg.fsync = value(i + 1, "--fsync <always|every-k|never>")?.parse()?;
                    i += 2;
                }
                "--checkpoint-every" => {
                    cfg.checkpoint_every = value(i + 1, "--checkpoint-every <n>")?
                        .parse()
                        .map_err(|_| "usage: --checkpoint-every <n> (0 disables)".to_string())?;
                    i += 2;
                }
                "--recover" => {
                    recover = true;
                    i += 1;
                }
                "--crash-after" => {
                    cfg.crash_after = Some(
                        value(i + 1, "--crash-after <n>")?
                            .parse()
                            .map_err(|_| "usage: --crash-after <n>".to_string())?,
                    );
                    i += 2;
                }
                "--layout" => {
                    cfg.layout = value(i + 1, "--layout <packed|gapped>")?.parse()?;
                    i += 2;
                }
                "--reorder" => {
                    cfg.reorder = value(i + 1, "--reorder <none|degree|bfs>")?.parse()?;
                    i += 2;
                }
                "--shards" => {
                    cfg.shards = value(i + 1, "--shards <n>")?
                        .parse()
                        .map_err(|_| "usage: --shards <n>".to_string())?;
                    i += 2;
                }
                other => return Err(format!("unknown flag: {other}")),
            }
        }
        cfg.source = match (graph_path, gen, recover) {
            (Some(path), None, false) => GraphSource::File { path, format },
            (None, Some((n, m, seed)), false) => GraphSource::Generated { n, m, seed },
            (None, None, true) => GraphSource::Recovered,
            (Some(_), _, true) | (_, Some(_), true) => {
                return Err(
                    "--recover restores the graph from the wal directory; drop --graph/--gen"
                        .into(),
                )
            }
            (Some(_), Some(_), false) => {
                return Err(
                    "serve needs exactly one of --graph <path> or --gen <n> <m> <seed>".into(),
                )
            }
            (None, None, false) => {
                return Err(
                    "serve needs exactly one of --graph <path> or --gen <n> <m> <seed>".into(),
                )
            }
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Every flag-interaction rule, in one place.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("--shards needs at least one shard".into());
        }
        if self.threads == 0 {
            return Err("--threads needs at least one thread".into());
        }
        if self.workers == 0 {
            return Err("--workers needs at least one event loop".into());
        }
        if self.source == GraphSource::Recovered {
            if self.wal_dir.is_none() {
                return Err("--recover needs --wal <dir>".into());
            }
            if self.reorder != ReorderStrategy::None {
                return Err(
                    "--recover restores the vertex order from the checkpoint; drop --reorder"
                        .into(),
                );
            }
            if self.shards > 1 {
                return Err(
                    "--recover restores a single-session checkpoint; sharded recovery is not \
                     supported — drop --shards"
                        .into(),
                );
            }
        }
        if self.crash_after.is_some() && self.wal_dir.is_none() {
            return Err("--crash-after injects a crash after a WAL append; it needs --wal".into());
        }
        if self.shards > 1 && self.layout != StorageLayout::Packed {
            return Err(
                "--layout gapped applies to the single-session server; drop it with --shards"
                    .into(),
            );
        }
        Ok(())
    }

    /// The kernel options this config describes. τf defaults to τ, not
    /// the paper's τ/1000: each serve batch warm-starts from the
    /// previous τ-converged output, whose residuals would flood the
    /// frontier at τ/1000 (see `update_bench`).
    pub fn pagerank_options(&self) -> PagerankOptions {
        use lfpr_sched::{ChunkPolicy, ExecMode, Schedule};
        PagerankOptions::default()
            .with_threads(self.threads)
            .with_tolerance(self.tolerance)
            .with_frontier_tolerance(self.tauf.unwrap_or(self.tolerance))
            .with_schedule(Schedule {
                policy: ChunkPolicy::Fixed(2048),
                executor: ExecMode::Pool,
            })
    }

    /// The durability tunables this config describes (meaningful only
    /// with [`wal_dir`](Self::wal_dir) set).
    pub fn durability_options(&self) -> durable::DurabilityOptions {
        durable::DurabilityOptions {
            fsync: self.fsync,
            checkpoint_every: self.checkpoint_every,
            crash_after: self.crash_after,
        }
    }
}

/// Owns an evolving graph and keeps its PageRank vector current across
/// batch updates, using any of the paper's dynamic algorithms.
///
/// The maintainer records each mutation made through [`update`](Self::update) /
/// [`apply_batch`](Self::apply_batch) as the batch Δt and refreshes the
/// ranks through an [`UpdateSession`]: the pre/post snapshots of the
/// paper's read-only snapshot model (§3.4) are maintained incrementally
/// (CSR patching, not rebuilds) and the rank/flag workspace is reused
/// across batches, so a small batch costs `O(|Δ|)` plus bulk copies
/// instead of `O(n + m)`. [`ranks`](Self::ranks) borrows straight from
/// the session's in-place rank vector — there is no terminal clone.
pub struct RankMaintainer {
    session: UpdateSession,
}

impl RankMaintainer {
    /// Take ownership of `graph` and compute its initial ranks with the
    /// matching static variant (lock-free for DFLF/NDLF/DTLF/StaticLF,
    /// barrier-based otherwise).
    pub fn new(graph: DynGraph, algorithm: Algorithm, opts: PagerankOptions) -> Self {
        let session = UpdateSession::new(graph, algorithm, opts);
        RankMaintainer { session }
    }

    /// Current PageRank vector (borrowed from the session workspace).
    pub fn ranks(&self) -> &[f64] {
        self.session.ranks()
    }

    /// Rank of one vertex.
    pub fn rank(&self, v: u32) -> f64 {
        self.session.rank(v)
    }

    /// Read-only access to the current graph.
    pub fn graph(&self) -> &DynGraph {
        self.session.graph()
    }

    /// Stats of the most recent rank refresh (the initial static
    /// compute before any update ran).
    pub fn last_result(&self) -> Option<&StepStats> {
        self.session.last_stats()
    }

    /// The underlying update session.
    pub fn session(&self) -> &UpdateSession {
        &self.session
    }

    /// A handle for concurrent readers: threads may pull the latest
    /// committed [`RankView`] — `(snapshot, ranks,
    /// epoch)` — from it while this maintainer keeps applying updates.
    /// See [`UpdateSession::reader`].
    pub fn reader(&mut self) -> RankReader {
        self.session.reader()
    }

    /// Unwrap into the underlying update session.
    pub fn into_session(self) -> UpdateSession {
        self.session
    }

    /// The `k` highest-ranked vertices, descending (ties broken by
    /// vertex id). Uses an `O(n + k log k)` partial selection instead of
    /// sorting the whole rank vector.
    pub fn top_k(&self, k: usize) -> Vec<(u32, f64)> {
        self.session.top_k(k)
    }

    /// Mutate the graph through `f`, recording every insertion/deletion
    /// as the batch update, then refresh the ranks incrementally.
    /// Returns the step stats.
    ///
    /// Mutations must go through [`MutGuard`]'s methods so the batch is
    /// captured; the guard exposes the underlying graph for reads.
    pub fn update<F: FnOnce(&mut MutGuard<'_>)>(&mut self, f: F) -> &StepStats {
        self.session.step_mutated(|graph| {
            let mut guard = MutGuard {
                graph,
                batch: BatchUpdate::new(),
            };
            f(&mut guard);
            guard.batch
        });
        self.session.last_stats().expect("step just ran")
    }

    /// Apply a pre-built batch update and refresh the ranks.
    ///
    /// # Panics
    /// Panics if the batch is invalid for the current graph; use
    /// [`try_apply_batch`](Self::try_apply_batch) to handle that case.
    pub fn apply_batch(&mut self, batch: BatchUpdate) -> &StepStats {
        self.try_apply_batch(batch)
            .expect("batch must be valid for the current graph")
    }

    /// Apply a pre-built batch update and refresh the ranks. The batch
    /// is validated as a whole first; on error the graph and ranks are
    /// untouched.
    pub fn try_apply_batch(&mut self, batch: BatchUpdate) -> Result<&StepStats, GraphError> {
        self.session.step(&batch)?;
        Ok(self.session.last_stats().expect("step just ran"))
    }

    /// Record per-vertex rank deltas on every refresh, enabling
    /// [`movers`](Self::movers). Off by default — tracking costs one
    /// extra `O(n)` copy + diff per batch.
    pub fn track_deltas(&mut self) {
        self.session.enable_delta_tracking();
    }

    /// The `k` largest rank changes of the most recent refresh
    /// (requires [`track_deltas`](Self::track_deltas)).
    pub fn movers(&self, k: usize) -> Vec<RankDelta> {
        self.session.movers(k)
    }

    /// Add a personalized ranking view: a second rank vector over the
    /// same graph whose restart mass goes to `teleport`'s sources
    /// instead of being spread uniformly. The view updates on every
    /// subsequent batch, sharing the session's workspace. See
    /// [`UpdateSession::add_view`].
    pub fn add_view(&mut self, name: &str, teleport: Teleport) -> Result<(), String> {
        self.session.add_view(name, teleport)
    }

    /// Remove a personalized view.
    pub fn drop_view(&mut self, name: &str) -> Result<(), String> {
        self.session.drop_view(name)
    }

    /// Rank of `v` in the named view, if it exists.
    pub fn view_rank(&self, name: &str, v: u32) -> Option<f64> {
        self.session.view_rank(name, v)
    }

    /// The `k` highest-ranked vertices of the named view.
    pub fn view_top_k(&self, name: &str, k: usize) -> Option<Vec<(u32, f64)>> {
        self.session.view_top_k(name, k)
    }
}

/// Records mutations made during [`RankMaintainer::update`] as a batch.
///
/// The recorded batch is kept in normal form — deletions that existed
/// before the update, insertions that did not — so deleting an edge
/// inserted earlier in the same update (or re-inserting one deleted
/// earlier) cancels out instead of producing a contradictory Δt.
pub struct MutGuard<'a> {
    graph: &'a mut DynGraph,
    batch: BatchUpdate,
}

impl MutGuard<'_> {
    /// Insert an edge (errors if present).
    pub fn insert_edge(&mut self, u: u32, v: u32) -> lfpr_graph::types::Result<()> {
        self.graph.insert_edge(u, v)?;
        // Re-inserting an edge deleted earlier in this update nets out.
        if let Some(pos) = self.batch.deletions.iter().position(|&e| e == (u, v)) {
            self.batch.deletions.swap_remove(pos);
        } else {
            self.batch.insertions.push((u, v));
        }
        Ok(())
    }

    /// Delete an edge (errors if absent).
    pub fn delete_edge(&mut self, u: u32, v: u32) -> lfpr_graph::types::Result<()> {
        self.graph.delete_edge(u, v)?;
        // Deleting an edge inserted earlier in this update nets out.
        if let Some(pos) = self.batch.insertions.iter().position(|&e| e == (u, v)) {
            self.batch.insertions.swap_remove(pos);
        } else {
            self.batch.deletions.push((u, v));
        }
        Ok(())
    }

    /// Bulk-insert edges, skipping ones already present. Returns how
    /// many were actually inserted; errors other than
    /// [`GraphError::DuplicateEdge`] (e.g. a vertex id out of range)
    /// are surfaced instead of being swallowed.
    pub fn insert_edges<I: IntoIterator<Item = Edge>>(
        &mut self,
        it: I,
    ) -> lfpr_graph::types::Result<usize> {
        let mut inserted = 0usize;
        for (u, v) in it {
            match self.insert_edge(u, v) {
                Ok(()) => inserted += 1,
                Err(GraphError::DuplicateEdge(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(inserted)
    }

    /// Read access to the graph mid-update.
    pub fn graph(&self) -> &DynGraph {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfpr_graph::selfloops::add_self_loops;

    fn maintainer(algo: Algorithm) -> RankMaintainer {
        let mut g = lfpr_graph::generators::erdos_renyi(100, 600, 5);
        add_self_loops(&mut g);
        let opts = PagerankOptions::default()
            .with_threads(2)
            .with_chunk_size(16);
        RankMaintainer::new(g, algo, opts)
    }

    #[test]
    fn initial_ranks_sum_to_one() {
        let rm = maintainer(Algorithm::DfLF);
        let sum: f64 = rm.ranks().iter().sum();
        assert!((sum - 1.0).abs() < 1e-7, "sum = {sum}");
    }

    #[test]
    fn update_records_batch_and_refreshes() {
        let mut rm = maintainer(Algorithm::DfLF);
        let r0 = rm.rank(1);
        let res = rm.update(|g| {
            // Point several vertices at vertex 1.
            assert_eq!(g.insert_edges([(10, 1), (20, 1), (30, 1), (40, 1)]), Ok(4));
        });
        assert!(res.status.is_success());
        assert!(res.incremental, "facade updates must patch, not rebuild");
        assert!(rm.rank(1) > r0, "vertex 1 gained in-links, rank must rise");
    }

    #[test]
    fn top_k_sorted_descending() {
        let rm = maintainer(Algorithm::NdLF);
        let top = rm.top_k(5);
        assert_eq!(top.len(), 5);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn works_with_every_algorithm() {
        for algo in Algorithm::ALL {
            let mut rm = maintainer(algo);
            let res = rm.update(|g| {
                g.insert_edges([(3, 7)]).unwrap();
            });
            assert!(res.status.is_success(), "{algo}");
        }
    }

    #[test]
    fn top_k_matches_full_sort() {
        let rm = maintainer(Algorithm::DfLF);
        let ranks = rm.ranks();
        let mut idx: Vec<u32> = (0..ranks.len() as u32).collect();
        idx.sort_by(|&a, &b| {
            ranks[b as usize]
                .partial_cmp(&ranks[a as usize])
                .unwrap()
                .then(a.cmp(&b))
        });
        for k in [0, 1, 5, 99, 100, 1000] {
            let top = rm.top_k(k);
            let expect: Vec<(u32, f64)> = idx
                .iter()
                .take(k)
                .map(|&v| (v, ranks[v as usize]))
                .collect();
            assert_eq!(top, expect, "k = {k}");
        }
    }

    #[test]
    fn reader_views_track_maintainer_updates() {
        let mut rm = maintainer(Algorithm::DfLF);
        let reader = rm.reader();
        assert_eq!(reader.view().epoch(), 0);
        rm.update(|g| {
            g.insert_edges([(10, 1), (20, 1)]).unwrap();
        });
        let v = reader.view();
        assert_eq!(v.epoch(), 1);
        assert_eq!(v.ranks(), rm.ranks());
        assert_eq!(v.snapshot().num_edges(), rm.graph().num_edges());
    }

    #[test]
    fn insert_edges_surfaces_out_of_range() {
        let mut rm = maintainer(Algorithm::DfLF);
        rm.update(|g| {
            // Duplicates are skipped silently…
            assert_eq!(g.insert_edges([(0, 0), (5, 9)]), Ok(1));
            // …but a bad vertex id is a real error, not a no-op.
            assert!(matches!(
                g.insert_edges([(0, 1_000_000)]),
                Err(lfpr_graph::types::GraphError::VertexOutOfRange { .. })
            ));
        });
    }

    #[test]
    fn mutguard_normalizes_cancelling_ops() {
        let mut rm = maintainer(Algorithm::DfLF);
        let before = rm.ranks().to_vec();
        let res = rm.update(|g| {
            // Insert-then-delete and delete-then-reinsert both net out.
            g.insert_edge(5, 9).unwrap();
            g.delete_edge(5, 9).unwrap();
            g.delete_edge(0, 0).unwrap();
            g.insert_edge(0, 0).unwrap();
        });
        assert_eq!(res.batch_size, 0, "cancelling ops must leave Δt empty");
        assert_eq!(res.vertices_processed, 0);
        assert_eq!(rm.ranks(), &before[..]);
    }

    #[test]
    fn delete_then_reinsert_is_stable() {
        let mut rm = maintainer(Algorithm::DfLF);
        let before = rm.ranks().to_vec();
        rm.update(|g| {
            g.delete_edge(0, 0).ok();
        });
        rm.update(|g| {
            g.insert_edge(0, 0).ok();
        });
        let after = rm.ranks();
        let max_diff = before
            .iter()
            .zip(after)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_diff < 1e-6, "stability violated: {max_diff}");
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn serve_config_parses_the_full_flag_set() {
        let cfg = ServeConfig::from_args(&argv(
            "--gen 100 400 7 --algo dflf --threads 2 --tolerance 1e-9 --tauf 1e-9 \
             --tcp 127.0.0.1:0 --workers 2 --no-coalesce --wal /tmp/w --fsync every-8 \
             --checkpoint-every 16 --shards 4",
        ))
        .unwrap();
        assert_eq!(
            cfg.source,
            GraphSource::Generated {
                n: 100,
                m: 400,
                seed: 7
            }
        );
        assert_eq!(cfg.threads, 2);
        assert!(!cfg.coalesce);
        assert_eq!(cfg.shards, 4);
        assert_eq!(cfg.checkpoint_every, 16);
        assert_eq!(cfg.wal_dir.as_deref(), Some(std::path::Path::new("/tmp/w")));
    }

    #[test]
    fn serve_config_rejects_conflicting_flags_in_one_place() {
        // Every rule lives in validate(); from_args only adds the
        // graph-source arity checks.
        let recover_reorder = ServeConfig {
            reorder: ReorderStrategy::Degree,
            wal_dir: Some("/tmp/w".into()),
            ..ServeConfig::new(GraphSource::Recovered)
        };
        assert_eq!(
            recover_reorder.validate().unwrap_err(),
            "--recover restores the vertex order from the checkpoint; drop --reorder"
        );
        assert_eq!(
            ServeConfig::new(GraphSource::Recovered)
                .validate()
                .unwrap_err(),
            "--recover needs --wal <dir>"
        );
        let sharded_recover = ServeConfig {
            shards: 4,
            wal_dir: Some("/tmp/w".into()),
            ..ServeConfig::new(GraphSource::Recovered)
        };
        assert!(sharded_recover
            .validate()
            .unwrap_err()
            .contains("drop --shards"));
        let zero = ServeConfig {
            shards: 0,
            ..ServeConfig::new(GraphSource::Generated {
                n: 1,
                m: 0,
                seed: 0,
            })
        };
        assert_eq!(
            zero.validate().unwrap_err(),
            "--shards needs at least one shard"
        );
        let no_loops = ServeConfig {
            workers: 0,
            ..ServeConfig::new(GraphSource::Generated {
                n: 1,
                m: 0,
                seed: 0,
            })
        };
        assert_eq!(
            no_loops.validate().unwrap_err(),
            "--workers needs at least one event loop"
        );
        assert!(
            ServeConfig::from_args(&argv("--recover --reorder degree --wal /tmp/w"))
                .unwrap_err()
                .contains("drop --reorder")
        );
        assert!(ServeConfig::from_args(&argv("--graph a.txt --gen 1 0 0"))
            .unwrap_err()
            .contains("exactly one of"));
        assert!(ServeConfig::from_args(&argv("--recover --graph a.txt"))
            .unwrap_err()
            .contains("drop --graph/--gen"));
    }

    #[test]
    fn serve_config_tauf_defaults_to_tolerance() {
        let cfg = ServeConfig::new(GraphSource::Generated {
            n: 10,
            m: 20,
            seed: 1,
        });
        let opts = cfg.pagerank_options();
        assert_eq!(opts.frontier_tolerance, opts.tolerance);
    }
}
