//! What the kernel says about this process and this host, read from
//! `/proc` (the workspace has no libc binding).

use std::fs;

/// Per-thread files of every live thread of this process.
fn task_files(name: &str) -> impl Iterator<Item = String> + '_ {
    fs::read_dir("/proc/self/task")
        .expect("/proc/self/task is readable")
        .filter_map(move |e| fs::read_to_string(e.ok()?.path().join(name)).ok())
}

/// CPU time (user + system) consumed so far by the threads now alive, in
/// ns: the scheduler's own per-thread run time, summed. Differences are
/// meaningful across a span in which no thread exits.
pub fn cpu_nanos() -> u64 {
    task_files("schedstat")
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// (voluntary, involuntary) context switches of the threads now alive.
pub fn ctx_switches() -> (u64, u64) {
    let field = |status: &str, key: &str| -> u64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key)?.trim().parse().ok())
            .unwrap_or(0)
    };
    task_files("status").fold((0, 0), |(v, i), s| {
        (
            v + field(&s, "voluntary_ctxt_switches:"),
            i + field(&s, "nonvoluntary_ctxt_switches:"),
        )
    })
}

/// CPUs the host has online (`nproc --all` without the cgroup view).
pub fn nproc() -> usize {
    fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The checked-out commit, or `unknown` outside a git work tree.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}
