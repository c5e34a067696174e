//! Process and host readings from Linux `/proc`.

use std::fs;

/// `/proc/<pid>/stat` reports CPU time in USER_HZ ticks, which Linux fixes
/// at 100 per second for user space.
const TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU seconds of a whole process (all threads, living
/// and exited). `pid` is `"self"` or a number.
pub fn cpu_secs(pid: &str) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU nanoseconds the calling thread has run, from the scheduler's own
/// accounting (nanosecond resolution, unlike the tick counts).
pub fn thread_cpu_ns() -> Option<u64> {
    let s = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// The 1-, 5- and 15-minute load averages.
pub fn loadavg() -> Option<[f64; 3]> {
    let s = fs::read_to_string("/proc/loadavg").ok()?;
    let mut it = s.split_whitespace().map(|f| f.parse::<f64>().ok());
    Some([it.next()??, it.next()??, it.next()??])
}

/// Sockets in TCP TIME_WAIT host-wide (`tw` in `/proc/net/sockstat`).
/// Every per-call connect leaves one behind for a minute.
pub fn tcp_time_wait() -> Option<u64> {
    let s = fs::read_to_string("/proc/net/sockstat").ok()?;
    let line = s.lines().find(|l| l.starts_with("TCP:"))?;
    let fields: Vec<&str> = line.split_whitespace().collect();
    let at = fields.iter().position(|f| *f == "tw")?;
    fields.get(at + 1)?.parse().ok()
}

/// Host-wide CPU seconds stolen by the hypervisor (`steal` in
/// `/proc/stat`): time this machine's virtual CPUs wanted to run but
/// another guest held the physical ones.
pub fn steal_secs() -> Option<f64> {
    let s = fs::read_to_string("/proc/stat").ok()?;
    let line = s.lines().find(|l| l.starts_with("cpu "))?;
    let steal: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / TICKS_PER_SEC)
}
