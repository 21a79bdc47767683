//! Process accounting from `/proc`: CPU time and peak resident memory of
//! the processes under test.

/// CPU seconds `pid` has run, summed over its live threads from
/// `/proc/<pid>/task/*/schedstat` (nanosecond resolution; `utime` and
/// `stime` in `/proc/<pid>/stat` come in 10 ms ticks, too coarse for
/// one-second sub-windows). Threads that already exited are not
/// counted; the daemons' reactor, shard and connection threads all live
/// across a measured window. `None` if the process is gone.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let mut ns = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let path = task.ok()?.path().join("schedstat");
        // A thread may exit between listing and reading: skip it.
        let Ok(stat) = std::fs::read_to_string(path) else {
            continue;
        };
        ns += stat.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(ns as f64 / 1e9)
}

/// Peak resident set (`VmHWM`) of `pid` in MiB, or `None` if the process
/// is gone.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds of a set of processes, summed; fails if any is gone.
pub fn cpu_sum(pids: &[u32]) -> symbio::Result<f64> {
    pids.iter()
        .map(|&p| {
            cpu_seconds(p).ok_or_else(|| {
                symbio::Error::Protocol(format!("process {p} vanished before accounting"))
            })
        })
        .sum()
}

/// Peak RSS of a set of processes, summed; fails if any is gone.
pub fn rss_sum(pids: &[u32]) -> symbio::Result<f64> {
    pids.iter()
        .map(|&p| {
            peak_rss_mb(p).ok_or_else(|| {
                symbio::Error::Protocol(format!("process {p} vanished before accounting"))
            })
        })
        .sum()
}
