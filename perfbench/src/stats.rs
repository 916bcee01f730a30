//! Small numeric helpers the report is built from. Each is unit-tested
//! here, because a wrong percentile or regression would silently skew
//! every number the benchmark prints.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile that still has at
/// least `beyond` samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// Which percentile it is: the share of samples at or below `value`.
    pub percentile: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The `beyond + 1`-th largest sample, i.e. the value with exactly
/// `beyond` samples above it, and its percentile. `None` when there are
/// not more than `beyond` samples.
pub fn tail(xs: &[f64], beyond: usize) -> Option<Tail> {
    let n = xs.len();
    if n <= beyond {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - beyond - 1;
    Some(Tail {
        value: v[rank],
        percentile: 100.0 * (n - beyond) as f64 / n as f64,
        samples: n,
    })
}

/// Ordinary least-squares fit `y = intercept + slope * x`. `None` with
/// fewer than two points or when every `x` is equal.
pub fn least_squares(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    let n = points.len() as f64;
    if points.len() < 2 {
        return None;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    Some((my - slope * mx, slope))
}

/// Peak resident set size in KiB from the text of `/proc/<pid>/status`
/// (its `VmHWM` line).
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse().ok())
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// 64-bit FNV-1a digest over a sequence of byte strings, each prefixed
/// with its length so that different splits of the same bytes differ.
pub fn digest<'a>(items: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for item in items {
        eat(&(item.len() as u64).to_le_bytes());
        eat(item);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_above() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs, 10).unwrap();
        assert_eq!(t.value, 30.0);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(t.samples, 40);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_needs_more_samples_than_beyond() {
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&xs, 10), None);
        let t = tail(&[5.0; 11], 10).unwrap();
        assert_eq!((t.value, t.samples), (5.0, 11));
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_ignores_input_order() {
        let xs = [9.0, 1.0, 7.0, 3.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0, 0.0];
        let t = tail(&xs, 10).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 12);
    }

    #[test]
    fn least_squares_recovers_fixed_and_per_cycle_cost() {
        // 440 µs fixed per run plus 3 ns per cycle, in nanoseconds.
        let pts: Vec<(f64, f64)> = [1_000.0, 20_000.0, 55_000.0, 90_000.0]
            .iter()
            .map(|&c| (c, 440_000.0 + 3.0 * c))
            .collect();
        let (a, b) = least_squares(&pts).unwrap();
        assert!((a - 440_000.0).abs() < 1e-6, "{a}");
        assert!((b - 3.0).abs() < 1e-9, "{b}");
    }

    #[test]
    fn least_squares_rejects_degenerate_input() {
        assert_eq!(least_squares(&[(1.0, 2.0)]), None);
        assert_eq!(least_squares(&[(1.0, 2.0), (1.0, 5.0)]), None);
    }

    #[test]
    fn vm_hwm_parses_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t  125952 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(125_952));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn peak_rss_is_readable_here() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }

    #[test]
    fn digest_is_order_and_split_sensitive() {
        let a: &[u8] = b"ab";
        let b: &[u8] = b"c";
        let d = digest([a, b]);
        assert_eq!(d, digest([a, b]));
        assert_ne!(d, digest([b, a]));
        assert_ne!(d, digest([&b"a"[..], &b"bc"[..]]));
        assert_ne!(digest(std::iter::empty()), digest([&b""[..]]));
    }
}
