//! The client-side run: spawn `lfpr serve`, drive it over TCP from one
//! writer and one reader connection, check every answer.

use crate::client::{Conn, Failure, Reply};
use crate::gen::Inputs;
use crate::pin;
use crate::stats::{OpenSample, Samples, Schedule};
use crate::workload::{Pace, Workload};
use lockfree_pagerank::protocol::{Response, ShardEpochs};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// A reply slower than this is a failed request.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Longest wait for a spawned server to answer `hello`.
const START_TIMEOUT: Duration = Duration::from_secs(120);

/// A running `lfpr serve`; killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: String,
}

impl Server {
    /// Spawn `lfpr <args>` with stderr to `log`, wait until it listens,
    /// connect and say `hello`. Returns the time from spawn to the
    /// `hello` reply.
    pub fn start(
        lfpr: &Path,
        args: &[String],
        log: &Path,
    ) -> Result<(Server, Duration, Conn), String> {
        let t0 = Instant::now();
        let stderr = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(lfpr)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", lfpr.display()))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let addr = loop {
            if let Some(status) = server.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!(
                    "server exited with {status}; see {}",
                    log.display()
                ));
            }
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(addr) = listening_addr(&text) {
                break addr;
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err(format!("server did not listen within {START_TIMEOUT:?}"));
            }
            thread::sleep(Duration::from_millis(1));
        };
        let mut conn =
            Conn::connect(&addr, REPLY_TIMEOUT).map_err(|e| format!("connect {addr}: {e}"))?;
        match conn.request("hello\n") {
            Ok(Reply {
                resp: Response::Hello(_),
                ..
            }) => {}
            other => return Err(format!("hello answered {other:?}")),
        }
        let setup = t0.elapsed();
        server.addr = addr;
        Ok((server, setup, conn))
    }

    /// SIGKILL the server and wait for it to end.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// The address in the server's `# listening on <addr> …` stderr line.
pub fn listening_addr(log: &str) -> Option<String> {
    log.lines()
        .find_map(|l| l.strip_prefix("# listening on "))
        .and_then(|rest| rest.split_whitespace().next())
        .map(str::to_string)
}

/// What the client side measured and found.
#[derive(Debug, Default)]
pub struct E2e {
    /// Spawn-to-`hello` time of each server start, in seconds.
    pub setup: Vec<f64>,
    /// Timed commits: `batch` sent to `ok` received (closed loop), or
    /// due time to `ok` received (open loop).
    pub commit: Samples,
    /// Open loop only: send time minus due time, per timed commit.
    pub late: Samples,
    /// First timed commit sent (or due) to last timed commit acked.
    pub commit_window: Duration,
    pub rank: Samples,
    pub topk: Samples,
    /// First timed read sent to last timed read answered.
    pub read_window: Duration,
    /// The raw `topk n` block read after the timed phase.
    pub final_topk: String,
    /// `--recover` spawn-to-`hello` time (durable workloads).
    pub recover: Option<f64>,
    /// Failed correctness checks; any one fails the run.
    pub problems: Vec<String>,
    /// Conditions worth printing that do not fail the run.
    pub notes: Vec<String>,
}

impl E2e {
    pub fn attempted(&self) -> usize {
        self.commit.attempted() + self.rank.attempted() + self.topk.attempted()
    }

    pub fn failed(&self) -> usize {
        self.commit.failed() + self.rank.failed() + self.topk.failed()
    }
}

/// Where the server keeps its write-ahead log, for durable workloads.
pub fn wal_dir(work: &Path) -> PathBuf {
    work.join("wal")
}

/// The `lfpr` arguments that serve `w` on `graph` (or recover it).
pub fn server_args(w: &Workload, graph: &Path, work: &Path, recover: bool) -> Vec<String> {
    let mut args: Vec<String> = [
        "serve",
        "--threads",
        "1",
        "--workers",
        "1",
        "--tcp",
        "127.0.0.1:0",
    ]
    .map(String::from)
    .to_vec();
    if recover {
        args.push("--recover".into());
    } else {
        args.extend(["--graph".into(), graph.display().to_string()]);
    }
    if w.durable {
        args.extend(["--wal".into(), wal_dir(work).display().to_string()]);
        args.extend(["--fsync".into(), "always".into()]);
    }
    args
}

/// Run `w` against a fresh server: `SETUPS` spawns for `setup_s`, then
/// the timed phase on the last one, then the final checks.
pub fn run(w: &Workload, inputs: &Inputs, lfpr: &Path, work: &Path) -> Result<E2e, String> {
    let mut out = E2e::default();
    let args = server_args(w, &inputs.graph_path, work, false);
    let log = work.join("server.log");
    let mut started = None;
    for s in 0..crate::workload::SETUPS {
        if w.durable {
            let _ = std::fs::remove_dir_all(wal_dir(work));
        }
        let (server, setup, conn) = Server::start(lfpr, &args, &log)?;
        out.setup.push(setup.as_secs_f64());
        if s + 1 == crate::workload::SETUPS {
            started = Some((server, conn));
        } else {
            server.kill();
        }
    }
    let (server, mut writer) = started.expect("at least one setup");
    let mut reader = Conn::connect(&server.addr, REPLY_TIMEOUT).map_err(|e| e.to_string())?;
    let placement = pin::placement();
    if let Some(p) = placement {
        match pin::pin_server(server.child.id(), p) {
            Ok(true) => {}
            Ok(false) => out.notes.push(format!(
                "no {} thread: server left unpinned",
                pin::WRITER_THREAD
            )),
            Err(e) => return Err(format!("pinning the server: {e}")),
        }
    }
    let pin_client = |core: fn(pin::Placement) -> usize| {
        if let Some(p) = placement {
            pin::pin(0, core(p)).expect("pin a client thread");
        }
    };

    let timing = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let (wr, rd) = thread::scope(|s| {
        let wh = s.spawn(|| {
            pin_client(|p| p.writer);
            let r = drive_writer(&mut writer, w, &inputs.commits, &timing);
            done.store(true, Ordering::SeqCst);
            r
        });
        let rh = s.spawn(|| {
            pin_client(|p| p.rest);
            drive_reader(
                &mut reader,
                &inputs.reads,
                inputs.final_graph.num_vertices(),
                &timing,
                &done,
            )
        });
        (
            wh.join().expect("writer thread"),
            rh.join().expect("reader thread"),
        )
    });
    out.commit = wr.commit;
    out.late = wr.late;
    out.commit_window = wr.window;
    out.problems.extend(wr.problems);
    out.rank = rd.rank;
    out.topk = rd.topk;
    out.read_window = rd.window;
    out.problems.extend(rd.problems);

    let g = &inputs.final_graph;
    let epoch = inputs.commits.len() as u64;
    check_stats(
        &mut reader,
        g.num_vertices(),
        g.num_edges(),
        epoch,
        &mut out.problems,
    );
    out.final_topk = final_topk(&mut reader, g.num_vertices(), &mut out.problems);
    server.kill();

    if w.durable {
        let args = server_args(w, &inputs.graph_path, work, true);
        let (server, recover, mut conn) = Server::start(lfpr, &args, &work.join("recover.log"))?;
        out.recover = Some(recover.as_secs_f64());
        let again = final_topk(&mut conn, g.num_vertices(), &mut out.problems);
        if again != out.final_topk {
            out.problems
                .push("recovered topk differs from the topk read before the kill".into());
        }
        check_stats(
            &mut conn,
            g.num_vertices(),
            g.num_edges(),
            epoch,
            &mut out.problems,
        );
        server.kill();
    }
    Ok(out)
}

struct WriterOut {
    commit: Samples,
    late: Samples,
    window: Duration,
    problems: Vec<String>,
}

/// Send every commit script in order; time those past the warm-up.
fn drive_writer(
    conn: &mut Conn,
    w: &Workload,
    commits: &[String],
    timing: &AtomicBool,
) -> WriterOut {
    let mut out = WriterOut {
        commit: Samples::default(),
        late: Samples::default(),
        window: Duration::ZERO,
        problems: Vec::new(),
    };
    let schedule = match w.pace {
        Pace::Open { per_s } => Some(Schedule {
            start: Instant::now(),
            period: Duration::from_secs_f64(1.0 / per_s),
        }),
        Pace::Closed => None,
    };
    let mut first: Option<Instant> = None;
    for (i, script) in commits.iter().enumerate() {
        let timed = i >= w.warmup_commits;
        if timed {
            timing.store(true, Ordering::SeqCst);
        }
        let due = schedule.map(|s| {
            let due = s.due(i);
            thread::sleep(due.saturating_duration_since(Instant::now()));
            due
        });
        let sent = Instant::now();
        match commit(conn, script, i as u64 + 1) {
            Ok(batch_sent) => {
                let done = Instant::now();
                if !timed {
                    continue;
                }
                let start = *first.get_or_insert(due.unwrap_or(batch_sent));
                out.window = done - start;
                match due {
                    Some(due) => {
                        let s = OpenSample::new(due, sent, done);
                        out.commit.record(s.latency);
                        out.late.record(s.late);
                    }
                    None => out.commit.record(done - batch_sent),
                }
            }
            Err(f) => {
                if timed {
                    out.commit.fail();
                }
                out.problems.push(format!("commit {}: {f}", i + 1));
                break;
            }
        }
    }
    out
}

/// Stage one commit's edges, then send `batch` and wait for its `ok`.
/// Returns when `batch` was sent.
fn commit(conn: &mut Conn, script: &str, epoch: u64) -> Result<Instant, Failure> {
    let stage = script
        .strip_suffix("batch\n")
        .expect("commit scripts end in batch");
    conn.send(stage)?;
    let k = stage.lines().count();
    for j in 1..=k {
        match conn.recv()?.resp {
            Response::Staged { count } if count == j => {}
            other => return Err(Failure::Wrong(format!("staging answered {other:?}"))),
        }
    }
    let sent = Instant::now();
    conn.send("batch\n")?;
    match conn.recv()?.resp {
        Response::BatchOk {
            batch,
            status,
            epochs,
            ..
        } if batch == k && status == "converged" && epochs == ShardEpochs::Single(epoch) => {
            Ok(sent)
        }
        other => Err(Failure::Wrong(format!(
            "batch at epoch {epoch} answered {other:?}"
        ))),
    }
}

struct ReaderOut {
    rank: Samples,
    topk: Samples,
    window: Duration,
    problems: Vec<String>,
}

/// Cycle through the read script until the writer is done; time reads
/// sent after the writer's warm-up.
fn drive_reader(
    conn: &mut Conn,
    reads: &[String],
    n: usize,
    timing: &AtomicBool,
    done: &AtomicBool,
) -> ReaderOut {
    let mut out = ReaderOut {
        rank: Samples::default(),
        topk: Samples::default(),
        window: Duration::ZERO,
        problems: Vec::new(),
    };
    let mut first: Option<Instant> = None;
    for line in reads.iter().cycle() {
        if done.load(Ordering::SeqCst) {
            break;
        }
        let timed = timing.load(Ordering::SeqCst);
        let sent = Instant::now();
        let result = conn
            .request(line)
            .and_then(|r| check_read(line, &r.resp, n));
        let took = sent.elapsed();
        let samples = if line.starts_with("topk") {
            &mut out.topk
        } else {
            &mut out.rank
        };
        match result {
            Ok(()) if timed => {
                samples.record(took);
                out.window = sent + took - *first.get_or_insert(sent);
            }
            Ok(()) => {}
            Err(f) => {
                if timed {
                    samples.fail();
                }
                out.problems.push(format!("{}: {f}", line.trim_end()));
                break;
            }
        }
    }
    out
}

/// A read's reply must answer that read.
fn check_read(line: &str, resp: &Response, n: usize) -> Result<(), Failure> {
    let ok = match resp {
        Response::Rank {
            v,
            rank,
            view: None,
            ..
        } => line.trim_end() == format!("rank {v}") && (*v as usize) < n && *rank > 0.0,
        Response::TopK {
            entries,
            view: None,
            ..
        } => line.trim_end() == "topk 10" && entries.len() == 10,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(Failure::Wrong(format!("answered {resp:?}")))
    }
}

/// The server's `stats` must match the generator's replica.
fn check_stats(conn: &mut Conn, n: usize, m: usize, epoch: u64, problems: &mut Vec<String>) {
    match conn.request("stats\n").map(|r| r.resp) {
        Ok(Response::Stats {
            n: sn,
            m: sm,
            steps,
            epochs,
            ..
        }) if sn == n && sm == m && steps == epoch && epochs == ShardEpochs::Single(epoch) => {}
        other => problems.push(format!(
            "stats: expected n={n} m={m} epoch={epoch}, got {other:?}"
        )),
    }
}

/// Read every vertex's rank as one raw `topk n` block.
fn final_topk(conn: &mut Conn, n: usize, problems: &mut Vec<String>) -> String {
    match conn.request(&format!("topk {n}\n")) {
        Ok(Reply {
            raw,
            resp: Response::TopK { entries, .. },
        }) if entries.len() == n => raw,
        other => {
            problems.push(format!(
                "topk {n}: {:?}",
                other.map(|r| r.raw.lines().next().map(str::to_string))
            ));
            String::new()
        }
    }
}

/// Ranks by vertex from a `topk n` block.
pub fn ranks_of(topk_block: &str, n: usize) -> Option<Vec<f64>> {
    let Some(Response::TopK { entries, .. }) =
        lockfree_pagerank::protocol::parse_response(topk_block)
    else {
        return None;
    };
    let mut ranks = vec![f64::NAN; n];
    for (v, r) in entries {
        *ranks.get_mut(v as usize)? = r;
    }
    ranks.iter().all(|r| r.is_finite()).then_some(ranks)
}
