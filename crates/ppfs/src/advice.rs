//! Per-file policy advice.
//!
//! PPFS "allows users to advertize expected file access patterns and to
//! choose file distribution, caching, and prefetch policies" (§10). This
//! module is that interface: a [`FileAdvice`] overrides pieces of the
//! global [`PolicyConfig`] for one file, and [`advise_for_pattern`] derives
//! the advice automatically from a classified access pattern — "to lessen
//! the cognitive burden of access specification".

use crate::policy::{Eviction, PolicyConfig, PrefetchPolicy};
use sio_core::classify::AccessPattern;

/// Per-file overrides of the global policy (unset fields inherit).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FileAdvice {
    /// Override the prefetch policy for this file.
    pub prefetch: Option<PrefetchPolicy>,
    /// Override write-behind for this file.
    pub write_behind: Option<bool>,
    /// Override flush aggregation for this file.
    pub aggregation: Option<bool>,
    /// Override the eviction policy for blocks of this file. (Applied at
    /// stream granularity: the per-node caches are shared across files, so
    /// this biases only the prefetcher's assumptions, not eviction of other
    /// files' blocks.)
    pub eviction: Option<Eviction>,
}

impl FileAdvice {
    /// Advice for a file that will be scanned sequentially.
    pub fn sequential() -> FileAdvice {
        FileAdvice {
            prefetch: Some(PrefetchPolicy::Readahead { depth: 8 }),
            ..FileAdvice::default()
        }
    }

    /// Advice for a scratch/staging file: absorb writes, aggregate flushes.
    pub fn staging() -> FileAdvice {
        FileAdvice {
            write_behind: Some(true),
            aggregation: Some(true),
            ..FileAdvice::default()
        }
    }

    /// Advice for randomly accessed files: no prefetch, no buffering games.
    pub fn random() -> FileAdvice {
        FileAdvice {
            prefetch: Some(PrefetchPolicy::None),
            write_behind: Some(false),
            ..FileAdvice::default()
        }
    }

    /// Resolve this advice against a base policy.
    pub fn apply(&self, base: &PolicyConfig) -> PolicyConfig {
        PolicyConfig {
            prefetch: self.prefetch.unwrap_or(base.prefetch),
            write_behind: self.write_behind.unwrap_or(base.write_behind),
            aggregation: self.aggregation.unwrap_or(base.aggregation),
            eviction: self.eviction.unwrap_or(base.eviction),
            ..*base
        }
    }
}

/// Derive advice from an observed/expected access pattern — the automatic
/// classification the paper's conclusions call for.
pub fn advise_for_pattern(pattern: AccessPattern, write_heavy: bool) -> FileAdvice {
    let mut advice = match pattern {
        AccessPattern::Sequential => FileAdvice::sequential(),
        AccessPattern::Strided { .. } => FileAdvice {
            prefetch: Some(PrefetchPolicy::Adaptive { depth: 4 }),
            ..FileAdvice::default()
        },
        AccessPattern::Cyclic { .. } => FileAdvice {
            prefetch: Some(PrefetchPolicy::Readahead { depth: 4 }),
            // Cyclic scans larger than the cache want MRU retention.
            eviction: Some(Eviction::Mru),
            ..FileAdvice::default()
        },
        AccessPattern::Random => FileAdvice::random(),
        AccessPattern::Unknown => FileAdvice::default(),
    };
    if write_heavy {
        advice.write_behind = Some(true);
        advice.aggregation = Some(true);
    }
    advice
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_overrides_only_set_fields() {
        let base = PolicyConfig::write_through();
        let advice = FileAdvice {
            prefetch: Some(PrefetchPolicy::Readahead { depth: 2 }),
            ..FileAdvice::default()
        };
        let resolved = advice.apply(&base);
        assert_eq!(resolved.prefetch, PrefetchPolicy::Readahead { depth: 2 });
        assert_eq!(resolved.write_behind, base.write_behind);
        assert_eq!(resolved.cache_blocks, base.cache_blocks);
    }

    #[test]
    fn presets() {
        assert!(matches!(
            FileAdvice::sequential().prefetch,
            Some(PrefetchPolicy::Readahead { .. })
        ));
        let staging = FileAdvice::staging();
        assert_eq!(staging.write_behind, Some(true));
        assert_eq!(staging.aggregation, Some(true));
        assert_eq!(FileAdvice::random().prefetch, Some(PrefetchPolicy::None));
    }

    #[test]
    fn pattern_advice_matches_policy_matrix_findings() {
        use AccessPattern::*;
        // Sequential: prefetch on. Random: everything off. Cyclic: MRU.
        assert!(advise_for_pattern(Sequential, false).prefetch.is_some());
        assert_eq!(
            advise_for_pattern(Random, false).prefetch,
            Some(PrefetchPolicy::None)
        );
        assert_eq!(
            advise_for_pattern(Cyclic { period: 100 }, false).eviction,
            Some(Eviction::Mru)
        );
        // Write-heavy ESCAT staging: write-behind + aggregation regardless
        // of read pattern.
        let escat = advise_for_pattern(Strided { stride: 131_072 }, true);
        assert_eq!(escat.write_behind, Some(true));
        assert_eq!(escat.aggregation, Some(true));
    }
}
