//! Seeded benchmark inputs: the edge-list file the server loads, the
//! commit script the writer sends and the read script the reader sends.
//!
//! Everything is a pure function of the workload and the seed, so one
//! seed always yields byte-identical files and the same final graph.
//! The generator keeps a replica of the served graph: every commit it
//! writes is valid against the replica as it stands, so no commit can
//! be refused, and the replica is the oracle for the final `stats` and
//! the reference ranks.

use lfpr_graph::generators::{grid_road, rmat, RmatParams};
use lfpr_graph::io::write_edge_list;
use lfpr_graph::selfloops::add_self_loops;
use lfpr_graph::{BatchUpdate, DynGraph, Edge};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// The graph a workload serves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphSpec {
    /// `grid_road(n)`: a perturbed 2D grid, about 3.1 edges per vertex
    /// with self-loops.
    Road { n: usize },
    /// Directed R-MAT with `RmatParams::web()` and `per_vertex · n`
    /// edges: hubs with very large in-degree.
    Web { n: usize, per_vertex: usize },
}

impl GraphSpec {
    /// The graph as generated, before self-loops are added.
    pub fn generate(&self, seed: u64) -> DynGraph {
        match *self {
            GraphSpec::Road { n } => grid_road(n, seed),
            GraphSpec::Web { n, per_vertex } => {
                rmat(n, n * per_vertex, RmatParams::web(), false, seed)
            }
        }
    }
}

/// What one run sends: sizes of the scripts, fixed per workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScriptSpec {
    /// Commits in the script (warm-up and timed together).
    pub commits: usize,
    /// Edges deleted per commit; as many are inserted.
    pub half_batch: usize,
    /// Reads in the read script (the reader cycles through it).
    pub reads: usize,
    /// Every `topk_every`-th read is `topk 10`, the rest `rank v`.
    pub topk_every: usize,
}

/// Files of one generated input set, plus the generator's replica.
pub struct Inputs {
    pub graph_path: PathBuf,
    pub commits_path: PathBuf,
    pub reads_path: PathBuf,
    /// One wire script per commit: its `delete`/`insert` lines, then
    /// `batch`.
    pub commits: Vec<String>,
    /// One request line per read.
    pub reads: Vec<String>,
    /// The served graph after every commit (self-loops included).
    pub final_graph: DynGraph,
}

/// Seed offset of the read stream from the commit stream.
const READ_STREAM: u64 = 0x9e37_79b9_7f4a_7c15;

/// Generate the inputs of one run into `dir` (created if missing).
///
/// The graph comes from `graph_seed`, the commits and reads from
/// `seed`. A workload keeps its graph fixed and varies its update and
/// read streams by seed: the graph's own structure (hub sizes, rank
/// ties) moves read and kernel costs far more from seed to seed than
/// the streams do.
pub fn generate(
    dir: &Path,
    graph: GraphSpec,
    graph_seed: u64,
    script: ScriptSpec,
    seed: u64,
) -> io::Result<Inputs> {
    std::fs::create_dir_all(dir)?;
    let mut g = graph.generate(graph_seed);
    let graph_path = dir.join("graph.txt");
    write_edge_list(&graph_path, &g).map_err(|e| io::Error::other(e.to_string()))?;
    // The server adds self-loops on load; the replica must match it.
    add_self_loops(&mut g);

    // Independent streams for the commits and the reads.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut commits = Vec::with_capacity(script.commits);
    for _ in 0..script.commits {
        let batch = mixed_batch(&g, script.half_batch, &mut rng);
        g.apply_batch(&batch)
            .map_err(|e| io::Error::other(format!("generated batch invalid: {e}")))?;
        commits.push(commit_script(&batch));
    }
    let commits_path = dir.join("commits.txt");
    std::fs::write(&commits_path, commits.concat())?;

    let mut rng = StdRng::seed_from_u64(seed ^ READ_STREAM);
    let n = g.num_vertices();
    let reads: Vec<String> = (0..script.reads)
        .map(|i| {
            if script.topk_every > 0 && i % script.topk_every == script.topk_every - 1 {
                "topk 10\n".to_string()
            } else {
                format!("rank {}\n", rng.gen_range(0..n))
            }
        })
        .collect();
    let reads_path = dir.join("reads.txt");
    std::fs::write(&reads_path, reads.concat())?;

    Ok(Inputs {
        graph_path,
        commits_path,
        reads_path,
        commits,
        reads,
        final_graph: g,
    })
}

/// `half` deletions of existing non-loop edges and `half` insertions of
/// absent non-loop edges, all distinct, valid against `g`.
pub fn mixed_batch(g: &DynGraph, half: usize, rng: &mut StdRng) -> BatchUpdate {
    let n = g.num_vertices();
    let mut deletions: Vec<Edge> = Vec::with_capacity(half);
    let mut taken: HashSet<Edge> = HashSet::with_capacity(4 * half);
    while deletions.len() < half {
        let u = rng.gen_range(0..n) as u32;
        let out = g.out_neighbors(u);
        if out.is_empty() {
            continue;
        }
        let v = out[rng.gen_range(0..out.len())];
        if u != v && taken.insert((u, v)) {
            deletions.push((u, v));
        }
    }
    let mut insertions: Vec<Edge> = Vec::with_capacity(half);
    while insertions.len() < half {
        let (u, v) = (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32);
        if u != v && !g.has_edge(u, v) && taken.insert((u, v)) {
            insertions.push((u, v));
        }
    }
    BatchUpdate {
        deletions,
        insertions,
    }
}

/// The wire lines that stage and commit `batch`.
pub fn commit_script(batch: &BatchUpdate) -> String {
    let mut s = String::new();
    for (u, v) in &batch.deletions {
        writeln!(s, "delete {u} {v}").expect("write to String");
    }
    for (u, v) in &batch.insertions {
        writeln!(s, "insert {u} {v}").expect("write to String");
    }
    s.push_str("batch\n");
    s
}
