//! Access-pattern classification.
//!
//! The paper concludes (§10) that "exploitation of input/output access
//! pattern knowledge in caching and prefetching systems is crucial" and that
//! adaptive systems must "identify access patterns and choose policies based
//! on access pattern characteristics". This module implements the
//! identification half: an online classifier over a stream of (offset,
//! length) accesses to a single file by a single client.
//!
//! The categories follow the paper's vocabulary: **sequential** (each access
//! begins where the previous ended), **strided** (constant nonzero gap
//! between accesses — ESCAT's interleaved staging writes), **cyclic**
//! (offsets repeat with a period — HTF's repeated passes over the integral
//! files), and **random** (none of the above).

/// Classified access pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Too few observations to decide.
    Unknown,
    /// Each access starts at the previous end (delta == previous length).
    Sequential,
    /// Constant stride between consecutive access starts, different from the
    /// sequential stride. Stride may exceed access length (interleaved
    /// regions) — the dominant ESCAT write pattern.
    Strided {
        /// Constant difference between consecutive starting offsets, bytes.
        stride: i64,
    },
    /// The offset sequence revisits a previous position, consistent with
    /// repeated sequential passes over the same extent (HTF `pscf`).
    Cyclic {
        /// Bytes covered by one pass.
        period: u64,
    },
    /// No structure detected.
    Random,
}

/// Online classifier over one access stream.
///
/// The classifier keeps counts of evidence for each hypothesis over a sliding
/// history and reports the best-supported pattern; it is intentionally
/// simple, deterministic, and cheap (O(1) per access).
#[derive(Debug, Clone)]
pub struct PatternClassifier {
    /// Minimum accesses before committing to a classification.
    warmup: usize,
    total: usize,
    sequential_hits: usize,
    stride_hits: usize,
    rewind_hits: usize,
    last_offset: Option<u64>,
    last_len: u64,
    last_delta: Option<i64>,
    /// Most common stride candidate and its support.
    stride_candidate: Option<i64>,
    stride_support: usize,
    /// Max end-offset seen; a jump back to (near) the minimum offset after
    /// covering an extent is rewind evidence.
    min_offset: u64,
    max_end: u64,
}

impl Default for PatternClassifier {
    fn default() -> Self {
        PatternClassifier::new()
    }
}

impl PatternClassifier {
    /// Classifier with the default warmup (3 accesses — two transitions).
    pub fn new() -> PatternClassifier {
        PatternClassifier {
            warmup: 3,
            total: 0,
            sequential_hits: 0,
            stride_hits: 0,
            rewind_hits: 0,
            last_offset: None,
            last_len: 0,
            last_delta: None,
            stride_candidate: None,
            stride_support: 0,
            min_offset: u64::MAX,
            max_end: 0,
        }
    }

    /// Observe one access.
    pub fn observe(&mut self, offset: u64, len: u64) {
        self.total += 1;
        self.min_offset = self.min_offset.min(offset);
        if let Some(prev) = self.last_offset {
            let delta = offset as i64 - prev as i64;
            if delta == self.last_len as i64 {
                self.sequential_hits += 1;
            } else if delta != 0 {
                // Rewind: jumping back to the start of the covered extent
                // after having advanced through it.
                if offset <= self.min_offset
                    && prev as i64 + self.last_len as i64 >= self.max_end as i64
                {
                    self.rewind_hits += 1;
                } else if Some(delta) == self.last_delta {
                    self.stride_hits += 1;
                    if Some(delta) == self.stride_candidate {
                        self.stride_support += 1;
                    } else if self.stride_support == 0 {
                        self.stride_candidate = Some(delta);
                        self.stride_support = 1;
                    } else {
                        self.stride_support -= 1;
                    }
                }
            }
            self.last_delta = Some(delta);
        }
        self.last_offset = Some(offset);
        self.last_len = len;
        self.max_end = self.max_end.max(offset + len);
    }

    /// Number of accesses observed.
    pub fn observations(&self) -> usize {
        self.total
    }

    /// Current classification.
    pub fn classify(&self) -> AccessPattern {
        if self.total < self.warmup {
            return AccessPattern::Unknown;
        }
        let transitions = (self.total - 1) as f64;
        let seq = self.sequential_hits as f64 / transitions;
        let stride = self.stride_hits as f64 / transitions;
        // A couple of rewinds over a mostly-sequential stream = cyclic passes.
        if self.rewind_hits >= 1 && seq >= 0.5 {
            return AccessPattern::Cyclic {
                period: self.max_end - self.min_offset.min(self.max_end),
            };
        }
        if seq >= 0.75 {
            return AccessPattern::Sequential;
        }
        if stride >= 0.6 {
            if let Some(s) = self.stride_candidate {
                return AccessPattern::Strided { stride: s };
            }
        }
        AccessPattern::Random
    }
}

/// Classify a whole (offset, len) sequence at once.
pub fn classify_accesses(accesses: &[(u64, u64)]) -> AccessPattern {
    let mut c = PatternClassifier::new();
    for &(o, l) in accesses {
        c.observe(o, l);
    }
    c.classify()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_stream() {
        let acc: Vec<(u64, u64)> = (0..20).map(|i| (i * 4096, 4096)).collect();
        assert_eq!(classify_accesses(&acc), AccessPattern::Sequential);
    }

    #[test]
    fn strided_stream() {
        // 2 KB records every 256 KB — ESCAT's interleaved staging writes.
        let acc: Vec<(u64, u64)> = (0..20).map(|i| (i * 262_144, 2048)).collect();
        assert_eq!(
            classify_accesses(&acc),
            AccessPattern::Strided { stride: 262_144 }
        );
    }

    #[test]
    fn cyclic_stream() {
        // Three sequential passes over a 10-block extent — HTF pscf.
        let mut acc = Vec::new();
        for _pass in 0..3 {
            for i in 0..10u64 {
                acc.push((i * 8192, 8192));
            }
        }
        match classify_accesses(&acc) {
            AccessPattern::Cyclic { period } => assert_eq!(period, 10 * 8192),
            other => panic!("expected cyclic, got {other:?}"),
        }
    }

    #[test]
    fn random_stream() {
        let acc = [
            (912_384u64, 512u64),
            (12_288, 512),
            (772_096, 512),
            (41_984, 512),
            (530_432, 512),
            (99_328, 512),
            (655_360, 512),
            (7_168, 512),
        ];
        assert_eq!(classify_accesses(&acc), AccessPattern::Random);
    }

    #[test]
    fn warmup_returns_unknown() {
        assert_eq!(classify_accesses(&[(0, 10)]), AccessPattern::Unknown);
        assert_eq!(classify_accesses(&[]), AccessPattern::Unknown);
        let mut c = PatternClassifier::new();
        c.observe(0, 10);
        c.observe(10, 10);
        assert_eq!(c.classify(), AccessPattern::Unknown);
        assert_eq!(c.observations(), 2);
        // Two sequential transitions (three accesses) suffice.
        c.observe(20, 10);
        assert_eq!(c.classify(), AccessPattern::Sequential);
    }

    #[test]
    fn sequential_with_noise_still_sequential() {
        let mut acc: Vec<(u64, u64)> = (0..19).map(|i| (i * 1024, 1024)).collect();
        acc.insert(10, (500_000, 64)); // one stray access
                                       // One stray access out of 20 leaves sequential fraction > 0.75.
        let got = classify_accesses(&acc);
        assert!(
            matches!(
                got,
                AccessPattern::Sequential | AccessPattern::Cyclic { .. }
            ),
            "got {got:?}"
        );
    }

    #[test]
    fn variable_length_sequential() {
        // Sequential with varying record sizes (M_LOG-style).
        let lens = [100u64, 250, 4096, 13, 900, 64, 2048, 7];
        let mut acc = Vec::new();
        let mut off = 0;
        for &l in &lens {
            acc.push((off, l));
            off += l;
        }
        assert_eq!(classify_accesses(&acc), AccessPattern::Sequential);
    }
}
