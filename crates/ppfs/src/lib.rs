//! # sio-ppfs — a PPFS-style portable parallel file system with tunable policies
//!
//! The paper's §5.2 reports the one controlled experiment of the study: the
//! authors ported ESCAT to PPFS, their portable parallel file system (ref
//! \[8\]), configured **write-behind** and **global request aggregation**, and
//! "this combination of policies effectively eliminated the behavior seen in
//! Figure 4" — the synchronized small-write bursts. The conclusions (§10) go
//! further: no single file-system policy serves all access patterns, so
//! policies must be chosen per pattern, ideally by automatic classification.
//!
//! This crate implements that system:
//!
//! * [`policy`] — the tunable policy surface: block cache size and eviction,
//!   prefetching (none / fixed readahead / adaptive), write-behind, and
//!   aggregation;
//! * [`cache`] — a block cache with LRU / MRU / random eviction;
//! * [`write_behind`] — the dirty-extent buffer with adjacent-extent
//!   aggregation;
//! * [`prefetch`] — readahead and adaptive prefetching driven by
//!   [`sio_core::classify`] and [`sio_core::predict`];
//! * [`fs`] — [`fs::Ppfs`], the [`paragon_sim::engine::IoService`]
//!   implementation over the same I/O-node substrate as `sio-pfs`, so the
//!   two file systems are directly comparable on identical workloads.
//!
//! PPFS manages file pointers client-side: seeks are always local and cheap,
//! in contrast to PFS's shared-file seek RPC — one of the two effects behind
//! the §5.2 result (the other is write-behind absorbing the 2 KB writes).

pub mod cache;
pub mod fs;
pub mod policy;
pub mod prefetch;
pub mod write_behind;

pub use fs::{Ppfs, PpfsStats};
pub use policy::{Eviction, PolicyConfig, PrefetchPolicy};
