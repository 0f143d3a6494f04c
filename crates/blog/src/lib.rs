//! # sio-blog — host-side log-structured burst-buffer tier
//!
//! The paper's checkpoint phases emit synchronized write bursts that
//! overwhelm the shared I/O nodes (§5, Fig. 4): every byte pays the full
//! file-system software path — seek RPC, atomic-write serialization, array
//! queueing — at the worst possible moment. This crate fronts any backend
//! with a per-compute-node append-only log on durable local media:
//!
//! * **Commit at log speed.** Writes to independent-pointer files append
//!   framed, checksummed records to the node's log device and acknowledge
//!   as soon as the frame is on media — hundreds of microseconds instead of
//!   tens of contended milliseconds.
//! * **Drain in the background.** A per-node drainer coalesces contiguous
//!   records into large extents and pumps them into the wrapped backend
//!   through its ordinary fault-tolerant write path, overlapping the next
//!   compute phase.
//! * **Recover from log ∩ backend.** After a crash, a record is durable iff
//!   its log frame validates (magic + length + FNV-1a over header and
//!   payload — torn tails never validate, the same discipline as
//!   `sio_core::checkpoint`) **or** its drain transfer completed. The
//!   byte-level model in [`log`] is what the crash proptests truncate at
//!   every byte boundary.
//!
//! [`fs::Blog`] is the discrete-event wrapper: it implements
//! `paragon_sim::engine::IoService` in front of any [`fs::DrainBackend`]
//! and composes with the other backends as `blog+pfs`, `blog+ppfs`, and
//! `blog+cio`.

#![warn(missing_docs)]

pub mod fs;
pub mod log;

pub use fs::{Blog, BlogParams, BlogStats, DrainBackend, DRAIN_TOKEN_BASE};
pub use log::{durable_epoch, BurstLog, LogRecord};
