//! The PPFS policy surface.
//!
//! PPFS "provides user control of file cache sizes and policies, as well as
//! data placement" (§9, describing ref \[8\]); applications "advertize expected
//! file access patterns and ... choose file distribution, caching, and
//! prefetch policies" (§10). [`PolicyConfig`] is that control surface; the
//! presets are the configurations used by the paper's experiments and our
//! ablations (DESIGN.md X1, A2).

/// Block-cache eviction policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eviction {
    /// Least-recently-used (default; good for sequential with reuse).
    Lru,
    /// Most-recently-used (classic choice for cyclic scans larger than the
    /// cache, where LRU evicts exactly what is needed next).
    Mru,
    /// Uniform random (seeded; baseline).
    Random,
}

/// Read prefetching policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchPolicy {
    /// No prefetching.
    None,
    /// Fixed sequential readahead of `depth` blocks past each miss.
    Readahead {
        /// Blocks fetched ahead.
        depth: u32,
    },
    /// Adaptive: classify the per-(node, file) access stream online
    /// (sequential / strided / cyclic / random) and prefetch with the
    /// matching predictor; random streams get no prefetch.
    Adaptive {
        /// Blocks (or predicted accesses) fetched ahead once a pattern is
        /// recognized.
        depth: u32,
    },
}

/// Full policy configuration for a PPFS instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyConfig {
    /// Cache block size, bytes (PFS stripe unit by default).
    pub block_size: u64,
    /// Per-node cache capacity, blocks.
    pub cache_blocks: u32,
    /// Eviction policy.
    pub eviction: Eviction,
    /// Prefetching policy.
    pub prefetch: PrefetchPolicy,
    /// Complete writes into a client-side buffer and flush in the
    /// background.
    pub write_behind: bool,
    /// Merge adjacent dirty extents into large sequential writes before
    /// flushing ("global request aggregation").
    pub aggregation: bool,
    /// Background flush period, seconds (also triggered by the high-water
    /// mark).
    pub flush_interval_secs: f64,
    /// Flush when a node's dirty bytes exceed this.
    pub high_water_bytes: u64,
    /// Cache-hit service time, seconds (memory copy + bookkeeping).
    pub hit_cost_secs: f64,
    /// Per-I/O-node *server* cache capacity in blocks (0 = disabled) — the
    /// paper's §8 "two level buffering at compute nodes and input/output
    /// nodes". Server hits bypass the disk queue entirely and are shared
    /// across all compute nodes.
    pub server_cache_blocks: u32,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig::write_through()
    }
}

impl PolicyConfig {
    /// Plain write-through, no caching benefits: the PFS-equivalent
    /// baseline (but with PPFS's local pointer management).
    pub fn write_through() -> PolicyConfig {
        PolicyConfig {
            block_size: 64 * 1024,
            cache_blocks: 64,
            eviction: Eviction::Lru,
            prefetch: PrefetchPolicy::None,
            write_behind: false,
            aggregation: false,
            flush_interval_secs: 1.0,
            high_water_bytes: 4 << 20,
            hit_cost_secs: 0.000_2,
            server_cache_blocks: 0,
        }
    }

    /// Two-level buffering (§8): client caches plus a shared server cache
    /// at every I/O node.
    pub fn two_level(client_blocks: u32, server_blocks: u32) -> PolicyConfig {
        PolicyConfig {
            cache_blocks: client_blocks,
            server_cache_blocks: server_blocks,
            ..PolicyConfig::write_through()
        }
    }

    /// The §5.2 configuration: write-behind plus global request
    /// aggregation — the pair that eliminated ESCAT's Figure-4 bursts.
    ///
    /// The flush period is long: dirty regions accumulate across the
    /// widely-spaced quadrature bursts and drain as few large sequential
    /// writes at the high-water mark or at close — which is what makes the
    /// aggregation "global" in effect.
    pub fn escat_tuned() -> PolicyConfig {
        PolicyConfig {
            write_behind: true,
            aggregation: true,
            flush_interval_secs: 3600.0,
            ..PolicyConfig::write_through()
        }
    }

    /// Write-behind tuned for HTF pargos' flush-per-record pattern: the
    /// application forces durability with an explicit `forflush` after
    /// every integral record, so dirty regions drain promptly and the
    /// aging timer stays at the short default instead of `escat_tuned`'s
    /// burst-spanning hour.
    pub fn pargos_tuned() -> PolicyConfig {
        PolicyConfig {
            write_behind: true,
            aggregation: true,
            ..PolicyConfig::write_through()
        }
    }

    /// Sequential-read tuning: deep readahead.
    pub fn readahead(depth: u32) -> PolicyConfig {
        PolicyConfig {
            prefetch: PrefetchPolicy::Readahead { depth },
            ..PolicyConfig::write_through()
        }
    }

    /// The §10 direction: adaptive classification-driven prefetch, plus
    /// write-behind with aggregation.
    pub fn adaptive(depth: u32) -> PolicyConfig {
        PolicyConfig {
            prefetch: PrefetchPolicy::Adaptive { depth },
            write_behind: true,
            aggregation: true,
            ..PolicyConfig::write_through()
        }
    }

    /// Override the cache geometry (builder style).
    #[must_use]
    pub fn with_cache(mut self, blocks: u32, eviction: Eviction) -> PolicyConfig {
        self.cache_blocks = blocks;
        self.eviction = eviction;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let wt = PolicyConfig::write_through();
        assert!(!wt.write_behind && !wt.aggregation);
        assert_eq!(wt.prefetch, PrefetchPolicy::None);

        let escat = PolicyConfig::escat_tuned();
        assert!(escat.write_behind && escat.aggregation);

        let ra = PolicyConfig::readahead(8);
        assert_eq!(ra.prefetch, PrefetchPolicy::Readahead { depth: 8 });

        let ad = PolicyConfig::adaptive(4);
        assert!(matches!(ad.prefetch, PrefetchPolicy::Adaptive { depth: 4 }));
        assert!(ad.write_behind);
    }

    #[test]
    fn builder_overrides_cache() {
        let p = PolicyConfig::write_through().with_cache(256, Eviction::Mru);
        assert_eq!(p.cache_blocks, 256);
        assert_eq!(p.eviction, Eviction::Mru);
    }
}
