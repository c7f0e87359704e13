//! `lfpr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --lfpr <path-to-lfpr>`
//!
//! Generates the workload's inputs from the seed, serves them with the
//! real `lfpr serve`, drives it over TCP and checks every answer. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! also replays the same inputs in-process through each layer's public
//! functions and prints the per-layer metrics instead. The last line of
//! standard output is the JSON result; the exit code is 0 only for a
//! correct run.

use lfpr_perfbench::e2e::{self, E2e};
use lfpr_perfbench::gen::{self, Inputs};
use lfpr_perfbench::report::{self, host_fingerprint, Metric};
use lfpr_perfbench::stats::{beyond, median, Samples, MIN_BEYOND};
use lfpr_perfbench::trace;
use lfpr_perfbench::workload::{Pace, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Working files of every run live here, inside the current directory.
const WORK: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    lfpr: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::by_name(&name).ok_or(format!("unknown workload {name}"))?;
    let number = |flag: &str, v: String| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} {v}: not a whole number"))
    };
    let seed = number("--seed", get("--seed")?)?;
    let seconds = number("--seconds", get("--seconds")?)?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let lfpr = PathBuf::from(get("--lfpr")?);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        lfpr,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: lfpr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --lfpr <path>\n{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run one workload; `Ok(correct)` once a result line is printed.
fn run(args: &Args) -> Result<bool, String> {
    let w = &args.workload;
    // Taken before any thread is pinned, while every CPU is allowed.
    let host = host_fingerprint();
    let work = Path::new(WORK).join(w.name);
    let inputs = gen::generate(
        &work.join("inputs"),
        w.graph,
        w.graph_seed,
        w.script(args.seconds),
        args.seed,
    )
    .map_err(|e| format!("generating inputs: {e}"))?;
    let e2e = e2e::run(w, &inputs, &args.lfpr, &work)?;
    let mut problems = e2e.problems.clone();

    let mut lines = Vec::new();
    let metrics = if args.trace {
        let layers = trace::measure(w, &inputs, &work, &e2e)?;
        problems.extend(layers.problems.iter().cloned());
        layers.metrics
    } else {
        let (metrics, human) = end_to_end(w, &inputs, &e2e, &mut problems);
        lines = human;
        metrics
    };
    let correct =
        problems.is_empty() && e2e.failed() == 0 && metrics.iter().all(|m| m.value.is_finite());

    println!("# host {host}");
    println!(
        "# {} seed={} seconds={} trace={} commits={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs.commits.len()
    );
    for m in &metrics {
        println!("{}", report::human_line(w.name, m));
    }
    for l in &lines {
        println!("{l}");
    }
    for n in &e2e.notes {
        println!("# note: {n}");
    }
    for p in &problems {
        println!("# check failed: {p}");
    }
    let json = report::result_json(correct, e2e.attempted(), e2e.failed(), &metrics);
    record_result(args, &host, &json);
    println!("{json}");
    Ok(correct)
}

/// The end-to-end metrics the result line carries, and the lines
/// printed beside them.
///
/// The result line carries only figures that repeat from run to run on
/// a shared 2-core host: set-up time, the two closed-loop throughputs
/// and the commit tail. That host switches between a fast and a slow
/// phase every few seconds; a median jumps between the two phases'
/// values with the share of time spent in each, while a throughput (a
/// mean) moves smoothly. Medians, means, read tails and the rank error
/// are printed as lines.
fn end_to_end(
    w: &Workload,
    inputs: &Inputs,
    e: &E2e,
    problems: &mut Vec<String>,
) -> (Vec<Metric>, Vec<String>) {
    let nan = f64::NAN;
    let pct = |s: &Samples, p: f64| s.percentile(p).unwrap_or(nan);
    let (tail_p, tail) = e.commit.tail().unwrap_or((nan, nan));
    let reads = e.rank.attempted() + e.topk.attempted();
    let commits = e.commit.attempted();
    let mut metrics = vec![Metric::new("setup_s", median(&e.setup), "s", e.setup.len())];
    // An open-loop writer's commit rate is the offered rate: not a result.
    if w.pace == Pace::Closed {
        let rate = commits as f64 / e.commit_window.as_secs_f64();
        metrics.push(Metric::new("commits_per_s", rate, "1/s", commits));
    }
    metrics.push(Metric::new("commit_tail_s", tail, "s", commits));
    metrics.push(Metric::new(
        "reads_per_s",
        reads as f64 / e.read_window.as_secs_f64(),
        "1/s",
        reads,
    ));

    let l1 = rank_l1_err(inputs, e).unwrap_or_else(|err| {
        problems.push(err);
        nan
    });
    if l1 > w.l1_ceiling {
        problems.push(format!(
            "rank_l1_err {l1:e} above the ceiling {:e}",
            w.l1_ceiling
        ));
    }
    let mut lines = vec![
        Metric::new("commit_p50_s", pct(&e.commit, 50.0), "s", commits),
        Metric::new(&format!("commit_p{tail_p}_s"), tail, "s", commits),
        Metric::new("read_p50_s", pct(&e.rank, 50.0), "s", e.rank.attempted()),
        Metric::new(
            "read_mean_s",
            e.rank.mean().unwrap_or(nan),
            "s",
            e.rank.attempted(),
        ),
        Metric::new("topk_p50_s", pct(&e.topk, 50.0), "s", e.topk.attempted()),
        Metric::new(
            "topk_mean_s",
            e.topk.mean().unwrap_or(nan),
            "s",
            e.topk.attempted(),
        ),
        Metric::new("rank_l1_err", l1, "l1", 1),
    ];
    if beyond(e.rank.attempted(), 99.0) >= MIN_BEYOND {
        lines.push(Metric::new(
            "read_p99_s",
            pct(&e.rank, 99.0),
            "s",
            e.rank.attempted(),
        ));
    }
    if let Pace::Open { .. } = w.pace {
        lines.push(Metric::new(
            "writer_late_p50_s",
            pct(&e.late, 50.0),
            "s",
            e.late.attempted(),
        ));
        lines.push(Metric::new(
            "writer_late_max_s",
            pct(&e.late, 100.0),
            "s",
            e.late.attempted(),
        ));
    }
    if let Some(r) = e.recover {
        lines.push(Metric::new("recover_s", r, "s", 1));
    }
    let attempted = e.attempted();
    lines.push(Metric::new(
        "failed_share",
        e.failed() as f64 / attempted.max(1) as f64,
        "share",
        attempted,
    ));
    (
        metrics,
        lines
            .iter()
            .map(|m| report::human_line(w.name, m))
            .collect(),
    )
}

/// L1 distance between the served final ranks and
/// `reference_default` on the replica's final graph.
fn rank_l1_err(inputs: &Inputs, e: &E2e) -> Result<f64, String> {
    let g = &inputs.final_graph;
    let served = e2e::ranks_of(&e.final_topk, g.num_vertices()).ok_or("final topk unreadable")?;
    let reference = trace::reference_ranks(g, &Path::new(WORK).join("cache"));
    Ok(served
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a - b).abs())
        .sum())
}

/// Append the result, with the host it ran on, to the run log.
fn record_result(args: &Args, host: &str, json: &str) {
    use std::io::Write as _;
    let line = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": \"{host}\", \"result\": {json}}}\n",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let log = Path::new(WORK).join("results.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = appended {
        eprintln!("perfbench: cannot append to {}: {e}", log.display());
    }
}
