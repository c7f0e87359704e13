//! The three workloads, sized so one run measures about `--seconds` of
//! traffic on a 2-core host.
//!
//! A run is bounded by operation count, not by wall time: the commit
//! count is `ceil(seconds · commits_per_s)`, fixed before the run
//! starts, so one seed always ends on the same graph with the same
//! sample counts and the same reference ranks.

use crate::gen::{GraphSpec, ScriptSpec};
use lockfree_pagerank::{GraphSource, ServeConfig};

/// How the writer connection paces its commits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// The next commit is sent when the previous one is acked.
    Closed,
    /// Commit `i` is due at `i / per_s` seconds, acked or not; latency
    /// runs from the due time.
    Open { per_s: f64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub graph: GraphSpec,
    /// Seed of the graph, fixed per workload; the run's seed drives
    /// the commit and read streams.
    pub graph_seed: u64,
    pub pace: Pace,
    /// Nominal commit rate: sets the commit count for a run length.
    pub commits_per_s: f64,
    /// Leading commits that are sent but not timed.
    pub warmup_commits: usize,
    /// Every `topk_every`-th read is `topk 10`, the rest `rank v`.
    pub topk_every: usize,
    /// Serve with `--wal --fsync always`, kill at the end, `--recover`.
    pub durable: bool,
    /// Highest accepted L1 distance from the reference ranks.
    pub l1_ceiling: f64,
}

/// Edges deleted per commit; as many are inserted (10-edge batches).
pub const HALF_BATCH: usize = 5;

/// Entries in the read script; the reader cycles through it.
pub const READ_SCRIPT: usize = 50_000;

/// Server spawns per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

pub const ALL: [Workload; 3] = [
    // Each small commit pays an O(n) snapshot refresh and view
    // publication that cost as much as its DF kernel.
    Workload {
        name: "road-trickle",
        graph: GraphSpec::Road { n: 500_000 },
        graph_seed: 1,
        pace: Pace::Closed,
        commits_per_s: 60.0,
        warmup_commits: 20,
        topk_every: 100,
        durable: false,
        l1_ceiling: 1e-3,
    },
    // The DF frontier floods through the hubs: the kernel is nearly
    // all of each commit.
    Workload {
        name: "web-frontier",
        graph: GraphSpec::Web {
            n: 32_768,
            per_vertex: 8,
        },
        graph_seed: 2,
        pace: Pace::Closed,
        commits_per_s: 10.0,
        warmup_commits: 10,
        topk_every: 2,
        durable: false,
        l1_ceiling: 1e-4,
    },
    // Reads take most of the CPU while a fixed-rate writer logs every
    // commit with fsync and checkpoints every 64. Runs and checks like
    // the others, but its figures do not repeat well enough to gate a
    // change on (see README.md).
    Workload {
        name: "durable-read",
        graph: GraphSpec::Road { n: 50_000 },
        graph_seed: 3,
        pace: Pace::Open { per_s: 60.0 },
        commits_per_s: 60.0,
        warmup_commits: 20,
        topk_every: 10,
        durable: true,
        l1_ceiling: 1e-3,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name == name)
    }

    /// Commits in a run of `seconds`, warm-up included. A run passes at
    /// least one checkpoint of the server's default cadence and never
    /// ends on one, so recovery always replays a WAL tail.
    pub fn commits(&self, seconds: u64) -> usize {
        let every = ServeConfig::new(GraphSource::Recovered).checkpoint_every as usize;
        let c = (seconds as f64 * self.commits_per_s).ceil() as usize + self.warmup_commits;
        let c = c.max(every + 1);
        if c.is_multiple_of(every) {
            c + 1
        } else {
            c
        }
    }

    pub fn script(&self, seconds: u64) -> ScriptSpec {
        ScriptSpec {
            commits: self.commits(seconds),
            half_batch: HALF_BATCH,
            reads: READ_SCRIPT,
            topk_every: self.topk_every,
        }
    }
}
