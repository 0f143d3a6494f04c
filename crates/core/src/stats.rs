//! Off-line statistics: the paper's request-size distribution.
//!
//! [`SizeHistogram`] uses exactly the bins of Tables 2, 4, and 6:
//! `< 4 KB`, `< 64 KB`, `< 256 KB`, `≥ 256 KB`. The per-operation counts,
//! volumes and node times of Tables 1, 3 and 5 are summed straight from the
//! trace by `sio-analysis`'s `OpTable`.

/// The paper's request-size bins: `< 4 KB`, `< 64 KB`, `< 256 KB`, `≥ 256 KB`.
///
/// Bins are half-open and mutually exclusive, exactly as in Tables 2/4/6:
/// a 3 KB request counts only in the `< 4 KB` column.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SizeHistogram {
    /// Requests with size < 4 KB.
    pub under_4k: u64,
    /// Requests with 4 KB ≤ size < 64 KB.
    pub under_64k: u64,
    /// Requests with 64 KB ≤ size < 256 KB.
    pub under_256k: u64,
    /// Requests with size ≥ 256 KB.
    pub over_256k: u64,
}

/// 4 KB boundary.
pub const KB4: u64 = 4 * 1024;
/// 64 KB boundary.
pub const KB64: u64 = 64 * 1024;
/// 256 KB boundary.
pub const KB256: u64 = 256 * 1024;

impl SizeHistogram {
    /// Empty histogram.
    pub fn new() -> SizeHistogram {
        SizeHistogram::default()
    }

    /// Count one request of `bytes`.
    pub fn push(&mut self, bytes: u64) {
        if bytes < KB4 {
            self.under_4k += 1;
        } else if bytes < KB64 {
            self.under_64k += 1;
        } else if bytes < KB256 {
            self.under_256k += 1;
        } else {
            self.over_256k += 1;
        }
    }

    /// Total requests counted.
    pub fn total(&self) -> u64 {
        self.under_4k + self.under_64k + self.under_256k + self.over_256k
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &SizeHistogram) {
        self.under_4k += other.under_4k;
        self.under_64k += other.under_64k;
        self.under_256k += other.under_256k;
        self.over_256k += other.over_256k;
    }

    /// Bin counts in table-column order.
    pub fn as_row(&self) -> [u64; 4] {
        [
            self.under_4k,
            self.under_64k,
            self.under_256k,
            self.over_256k,
        ]
    }

    /// The paper's notion of a *bimodal* size distribution (§5.1, §6.1):
    /// substantial mass in a small-size bin and in a large-size bin with a
    /// sparse middle. We test: smallest bin and one of the two largest bins
    /// each hold ≥ `frac` of requests.
    pub fn is_bimodal(&self, frac: f64) -> bool {
        let total = self.total();
        if total == 0 {
            return false;
        }
        let t = total as f64;
        let small = self.under_4k as f64 / t;
        let large = (self.under_256k.max(self.over_256k)) as f64 / t;
        small >= frac && large >= frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_bins_are_half_open_and_exclusive() {
        let mut h = SizeHistogram::new();
        h.push(0);
        h.push(KB4 - 1);
        h.push(KB4);
        h.push(KB64 - 1);
        h.push(KB64);
        h.push(KB256 - 1);
        h.push(KB256);
        h.push(10 * 1024 * 1024);
        assert_eq!(h.as_row(), [2, 2, 2, 2]);
        assert_eq!(h.total(), 8);
    }

    #[test]
    fn bimodal_detection() {
        // ESCAT-like reads: many tiny, many ~128 KB, almost nothing between.
        let mut h = SizeHistogram::new();
        for _ in 0..297 {
            h.push(2048);
        }
        for _ in 0..3 {
            h.push(30 * 1024);
        }
        for _ in 0..260 {
            h.push(128 * 1024);
        }
        assert!(h.is_bimodal(0.25));
        // Uniformly small is not bimodal.
        let mut u = SizeHistogram::new();
        for _ in 0..100 {
            u.push(1024);
        }
        assert!(!u.is_bimodal(0.25));
        assert!(!SizeHistogram::new().is_bimodal(0.25));
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = SizeHistogram::new();
        a.push(1);
        a.push(KB256);
        let mut b = SizeHistogram::new();
        b.push(KB4);
        a.merge(&b);
        assert_eq!(a.as_row(), [1, 1, 0, 1]);
    }
}
