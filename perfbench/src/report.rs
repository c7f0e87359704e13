//! Result printing: one human line per metric, then the JSON result as
//! the last line of standard output.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`. An incorrect run
/// reports no metrics.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut s = format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
    );
    if correct {
        for (i, m) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                r#"{sep}"{}": {{"value": {:?}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            )
            .expect("write to String");
        }
    }
    s.push_str("}}");
    s
}

/// A metric as a human-readable line, with its sample count.
pub fn human_line(workload: &str, m: &Metric) -> String {
    format!(
        "# {workload} {} = {:.6e} {} (n={})",
        m.name, m.value, m.unit, m.samples
    )
}

/// Where a result was measured: core count, the file system holding
/// the working directory, the kernel release and the CPU placement.
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let pinned = crate::pin::placement().map_or("none".to_string(), |p| {
        format!("writer:{},rest:{}", p.writer, p.rest)
    });
    format!(
        "nproc={nproc} fs={} kernel={} pinned={pinned}",
        cwd_fs_type(),
        kernel.trim()
    )
}

/// File-system type of the longest mount point containing the working
/// directory (`unknown` if it cannot be read).
fn cwd_fs_type() -> String {
    let (Ok(cwd), Ok(mounts)) = (
        std::env::current_dir(),
        std::fs::read_to_string("/proc/self/mounts"),
    ) else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            cwd.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}
