//! Latency samples, percentiles and process memory.

/// Requests per summary block: enough that a block's p99 has 20
/// samples beyond it.
pub const BLOCK: usize = 2000;

/// Latency samples of one request class, in nanoseconds, summarised per
/// block of `BLOCK` consecutive requests. Reported quantiles are the
/// trimmed mean over blocks of each block's quantile: a few stalled
/// blocks do not move them, slower and faster stretches of the machine
/// count by their length, and memory stays flat however long the run.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    block: Vec<u64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    count: u64,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.block.push(ns);
        self.count += 1;
        if self.block.len() == BLOCK {
            self.close_block();
        }
    }

    fn close_block(&mut self) {
        self.p50s.push(quantile(&self.block, 0.5));
        self.p99s.push(quantile(&self.block, 0.99));
        self.block.clear();
    }

    pub fn len(&self) -> u64 {
        self.count
    }

    /// Folds another client's samples in: its finished blocks as they
    /// are, its open block request by request.
    pub fn extend(&mut self, other: Samples) {
        self.p50s.extend(other.p50s);
        self.p99s.extend(other.p99s);
        self.count += other.count - other.block.len() as u64;
        for ns in other.block {
            self.push(ns);
        }
    }

    /// `(p50, p99)` in microseconds with the nanosecond digits kept; 0
    /// without samples. An open block counts when it is the only one or
    /// at least half full.
    pub fn p50_p99_us(&self) -> (f64, f64) {
        let (mut p50s, mut p99s) = (self.p50s.clone(), self.p99s.clone());
        if !self.block.is_empty() && (p50s.is_empty() || self.block.len() >= BLOCK / 2) {
            p50s.push(quantile(&self.block, 0.5));
            p99s.push(quantile(&self.block, 0.99));
        }
        (trimmed_mean(&p50s) / 1000.0, trimmed_mean(&p99s) / 1000.0)
    }
}

/// Nearest-rank quantile of unsorted values; 0 when empty.
pub fn quantile(values: &[u64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    let idx = ((v.len() - 1) as f64 * p).round() as usize;
    let (_, nth, _) = v.select_nth_unstable(idx);
    *nth as f64
}

/// The mean of the middle 80% of the values; 0 when empty.
///
/// The machine this benchmark runs on drifts between faster and slower
/// stretches lasting tens of seconds. A median snaps to whichever held
/// most of the run; a mean weighs each by its length and so varies less
/// from run to run, and trimming the extreme tenths keeps a stall from
/// moving it.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Median of floats; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_summarise_and_merge() {
        let mut a = Samples::default();
        for i in 0..(BLOCK as u64 * 3) {
            a.push(1000 + i % 100);
        }
        // Every block holds 1000..1100 twenty times over.
        assert_eq!(a.p50_p99_us(), (1.05, 1.098));
        assert_eq!(
            trimmed_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 0.0]),
            4.5
        );
        let mut b = Samples::default();
        for _ in 0..BLOCK / 2 {
            b.push(7000);
        }
        a.extend(b.clone());
        a.extend(b);
        assert_eq!(a.len(), BLOCK as u64 * 4);
        assert_eq!(a.p50s.len(), 4);
        assert_eq!(Samples::default().p50_p99_us(), (0.0, 0.0));
    }

    #[test]
    fn quantiles_by_nearest_rank() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&v, 0.5), 51.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
