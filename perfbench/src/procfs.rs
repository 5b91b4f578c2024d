//! Process CPU time and peak resident memory from `/proc/self`.

/// Clock ticks per second of the `/proc/<pid>/stat` time fields (the
/// kernel's fixed `USER_HZ`).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used so far (all threads,
/// including ones that have exited).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name: state is field 3,
    // utime field 14, stime field 15.
    let rest = stat.rsplit_once(')').ok_or("bad /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    let (utime, stime) = ticks(11).zip(ticks(12)).ok_or("bad /proc/self/stat")?;
    Ok((utime + stime) as f64 / USER_HZ)
}

/// Resets the peak-RSS watermark to the current RSS, so the next
/// [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Peak resident memory (MiB) since start or the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// CPU and peak memory over one timed region.
pub struct Region {
    cpu_start: f64,
}

impl Region {
    /// Starts a region: resets the peak watermark and reads the CPU clock.
    pub fn start() -> Result<Region, String> {
        reset_peak_rss()?;
        Ok(Region {
            cpu_start: cpu_seconds()?,
        })
    }

    /// CPU seconds and peak MiB since [`Region::start`].
    pub fn finish(self) -> Result<(f64, f64), String> {
        Ok((cpu_seconds()? - self.cpu_start, peak_rss_mb()?))
    }
}
