//! Readings from `/proc`: peak resident memory and CPU time of a process.

/// `VmHWM` (peak resident set) of `pid` in MiB; `pid` 0 means this process.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let path = if pid == 0 { "/proc/self/status".to_string() } else { format!("/proc/{pid}/status") };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU time of `pid` in microseconds; `pid` 0 means this
/// process. Linux reports it in clock ticks of 1/100 s.
pub fn cpu_us(pid: u32) -> Option<f64> {
    let path = if pid == 0 { "/proc/self/stat".to_string() } else { format!("/proc/{pid}/stat") };
    let stat = std::fs::read_to_string(path).ok()?;
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10_000.0)
}

/// The machine's CPU time so far as `(stolen, total)` clock ticks:
/// `stolen` is time the hypervisor gave to other guests while this one
/// had work to run.
pub fn host_cpu_ticks() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<f64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_readable() {
        assert!(peak_rss_mb(0).unwrap() > 0.0);
        assert!(cpu_us(0).unwrap() >= 0.0);
        assert!(peak_rss_mb(u32::MAX).is_none());
        let (stolen, total) = host_cpu_ticks().unwrap();
        assert!(total > 0.0 && stolen <= total);
    }
}
