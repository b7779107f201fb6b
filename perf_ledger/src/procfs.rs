//! What the benchmark reads about the server child from `/proc`: peak
//! resident memory, CPU time and context switches.

/// Kernel clock ticks per second as `/proc/<pid>/stat` reports CPU time
/// (`USER_HZ`, 100 on every Linux the sandbox runs): one tick is 10 ms.
pub const TICKS_PER_SECOND: f64 = 100.0;

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Status {
    /// `VmHWM`, the peak resident set, in kB.
    pub vm_hwm_kb: u64,
    pub voluntary_ctxt_switches: u64,
    pub nonvoluntary_ctxt_switches: u64,
}

/// Parses the fields of `/proc/<pid>/status` the ledger uses; absent
/// fields (a kernel thread has no `VmHWM`) read as 0.
pub fn parse_status(text: &str) -> Status {
    let mut s = Status::default();
    for line in text.lines() {
        let Some((key, rest)) = line.split_once(':') else { continue };
        let value = rest.split_whitespace().next().and_then(|v| v.parse::<u64>().ok());
        match (key, value) {
            ("VmHWM", Some(v)) => s.vm_hwm_kb = v,
            ("voluntary_ctxt_switches", Some(v)) => s.voluntary_ctxt_switches = v,
            ("nonvoluntary_ctxt_switches", Some(v)) => s.nonvoluntary_ctxt_switches = v,
            _ => {}
        }
    }
    s
}

/// `utime + stime` in clock ticks from one `/proc/<pid>/stat` line. The
/// command name may itself hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_ticks(text: &str) -> Option<u64> {
    let after_comm = &text[text.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    // after_comm starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

fn read(path: String) -> std::io::Result<String> {
    std::fs::read_to_string(path)
}

/// CPU seconds (user + system, all threads) the process has used.
pub fn cpu_seconds(pid: u32) -> std::io::Result<f64> {
    let text = read(format!("/proc/{pid}/stat"))?;
    parse_stat_cpu_ticks(&text)
        .map(|ticks| ticks as f64 / TICKS_PER_SECOND)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad /proc stat line"))
}

/// Peak resident set of the process in MB.
pub fn peak_rss_mb(pid: u32) -> std::io::Result<f64> {
    Ok(parse_status(&read(format!("/proc/{pid}/status"))?).vm_hwm_kb as f64 / 1024.0)
}

/// Context switches, voluntary plus involuntary, summed over every thread
/// of the process (the process-level `status` file counts only the main
/// thread, which in the server merely sleeps).
pub fn context_switches(pid: u32) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = entry?.path().join("status");
        // A thread may exit between the listing and the read.
        if let Ok(text) = std::fs::read_to_string(path) {
            let s = parse_status(&text);
            total += s.voluntary_ctxt_switches + s.nonvoluntary_ctxt_switches;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from a `ppanns-cli serve` child on the sandbox kernel.
    const STATUS: &str = "Name:\tppanns-cli\nUmask:\t0022\nState:\tS (sleeping)\nTgid:\t16249\n\
        Pid:\t16249\nVmPeak:\t  286720 kB\nVmSize:\t  221184 kB\nVmHWM:\t   81408 kB\n\
        VmRSS:\t   80120 kB\nThreads:\t4\nvoluntary_ctxt_switches:\t1841\n\
        nonvoluntary_ctxt_switches:\t27\n";
    const STAT: &str = "16249 (ppanns-cli) S 16243 16249 16243 0 -1 4194304 80 0 0 0 612 45 0 0 \
        20 0 4 0 216851 2703360 284 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn status_fields() {
        let s = parse_status(STATUS);
        assert_eq!(
            s,
            Status {
                vm_hwm_kb: 81408,
                voluntary_ctxt_switches: 1841,
                nonvoluntary_ctxt_switches: 27
            }
        );
        assert_eq!(parse_status("Name:\tkthreadd\n"), Status::default());
    }

    #[test]
    fn stat_cpu_ticks_survive_a_hostile_command_name() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Some(612 + 45));
        let hostile = STAT.replace("(ppanns-cli)", "(a b) c) 1 2 3)");
        assert_eq!(parse_stat_cpu_ticks(&hostile), Some(612 + 45));
        assert_eq!(parse_stat_cpu_ticks("16249 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens"), None);
    }
}
