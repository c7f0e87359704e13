//! CPU placement. Left to the scheduler, the server's writer, its event
//! loop and the two client threads migrate between the cores from run
//! to run, and read throughput swings by more than 2x between runs of
//! the same inputs. Pinned, each core runs one pair of threads that
//! hand work to each other and never compete: the server's writer
//! thread with the client's writer connection (which waits while the
//! writer commits), and the server's event loop with the client's
//! reader.

use std::io;

/// glibc's `cpu_set_t`: a 1024-bit mask.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The server's writer thread, named by `lfpr serve`.
pub const WRITER_THREAD: &str = "lfpr-writer";

/// Which core runs what.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// The server's writer thread and the client's writer connection.
    pub writer: usize,
    /// Every other server thread and the client's reader connection.
    pub rest: usize,
}

/// The placement on the first two CPUs this process may use, or `None`
/// with fewer than two.
pub fn placement() -> Option<Placement> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a live, writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return None;
    }
    let mut cpus = (0..1024).filter(|&c| set.0[c / 64] & (1 << (c % 64)) != 0);
    Some(Placement {
        writer: cpus.next()?,
        rest: cpus.next()?,
    })
}

/// Pin thread `tid` (0: the calling thread) to `cpu`.
pub fn pin(tid: i32, cpu: usize) -> io::Result<()> {
    let mut set = CpuSet([0; 16]);
    set.0[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a live buffer of exactly the size passed; the
    // call only reads it.
    if unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), &set) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Pin every thread of process `pid`: the writer thread to
/// `p.writer`, the rest to `p.rest`. Pins nothing, and returns
/// `false`, if the process has no writer thread.
pub fn pin_server(pid: u32, p: Placement) -> io::Result<bool> {
    let mut threads = Vec::new();
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let task = task?;
        let Some(tid) = task
            .file_name()
            .to_str()
            .and_then(|t| t.parse::<i32>().ok())
        else {
            continue;
        };
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        threads.push((tid, comm.trim() == WRITER_THREAD));
    }
    if !threads.iter().any(|&(_, writer)| writer) {
        return Ok(false);
    }
    for (tid, writer) in threads {
        pin(tid, if writer { p.writer } else { p.rest })?;
    }
    Ok(true)
}
