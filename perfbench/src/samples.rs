//! Latency samples with exact percentiles in memory bounded by the value
//! range rather than the sample count, so a run's footprint (and its
//! `peak_rss_mib`) does not grow with how many requests it got through.

/// Values below this many nanoseconds are counted in a direct table.
const DIRECT: usize = 1 << 16;

#[derive(Default)]
pub struct Samples {
    /// `direct[v]` counts samples equal to `v` ns (allocated on first use).
    direct: Vec<u32>,
    /// Samples of `DIRECT` ns and above, kept as values.
    large: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.count += 1;
        self.sum += ns;
        match usize::try_from(ns) {
            Ok(v) if v < DIRECT => {
                if self.direct.is_empty() {
                    self.direct = vec![0; DIRECT];
                }
                self.direct[v] += 1;
            }
            _ => self.large.push(ns),
        }
    }

    pub fn len(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, in nanoseconds.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn merge(&mut self, other: &Samples) {
        if !other.direct.is_empty() {
            if self.direct.is_empty() {
                self.direct = vec![0; DIRECT];
            }
            for (a, b) in self.direct.iter_mut().zip(&other.direct) {
                *a += b;
            }
        }
        self.large.extend_from_slice(&other.large);
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Nearest-rank percentile in nanoseconds; `None` without samples. The
    /// clock reads whole nanoseconds, so the `c` samples that read `v` are
    /// taken as spread evenly over `[v - 0.5, v + 0.5)` and the rank is
    /// interpolated among them; otherwise a tight distribution would report
    /// the same rounded value on every run.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (v, &c) in self.direct.iter().enumerate() {
            let c = c as u64;
            if seen + c >= rank {
                return Some(v as f64 - 0.5 + (rank - seen) as f64 / c as f64);
            }
            seen += c;
        }
        self.large.sort_unstable();
        Some(self.large[(rank - seen - 1) as usize] as f64)
    }
}
