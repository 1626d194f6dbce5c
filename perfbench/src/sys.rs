//! Process measurements and small statistics helpers.

use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system CPU of every thread
/// of the process, live and exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU time (user + sys, all threads) in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two `i64`s on
    // 64-bit Linux) and the clock id is a valid constant; the call
    // writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// `(steal, total)` CPU ticks of the whole machine so far, from the
/// first eight fields of the `cpu` line of `/proc/stat` (guest time is
/// already inside them); `(0, 0)` when unreadable.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// Share of CPU time the hypervisor took from this machine between two
/// [`cpu_ticks`] readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median over rounds of each round's percentile `p`: one stalled
/// stretch of a shared host moves a few rounds, not the figure.
pub fn median_percentile(rounds: &[&[f64]], p: f64) -> f64 {
    let per_round: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| percentile(r, p))
        .collect();
    median(&per_round)
}

/// Percentile `p` over items of each item's median over rounds; every
/// round lists the same items in the same order. A stall that slows an
/// item in a few rounds leaves its median alone, so the figure is the
/// tail of the items' own costs rather than of the host's stalls.
pub fn percentile_of_medians(rounds: &[&[f64]], p: f64) -> f64 {
    let items = rounds.first().map_or(0, |r| r.len());
    assert!(
        rounds.iter().all(|r| r.len() == items),
        "rounds list different items"
    );
    let medians: Vec<f64> = (0..items)
        .map(|i| median(&rounds.iter().map(|r| r[i]).collect::<Vec<f64>>()))
        .collect();
    percentile(&medians, p)
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git work tree.
pub fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|id| id.trim().to_string())
                    .filter(|id| !id.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        // Item 1 stalls in one round of three; its median does not.
        let rounds: [&[f64]; 3] = [&[1.0, 2.0, 3.0], &[1.0, 90.0, 3.0], &[1.0, 2.0, 3.0]];
        assert_eq!(percentile_of_medians(&rounds, 100.0), 3.0);
        assert_eq!(percentile_of_medians(&rounds, 50.0), 2.0);
    }

    #[test]
    fn cpu_clock_advances() {
        let a = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_s() > a, "{x}");
        assert!(peak_rss_mb() > 0.0);
    }
}
