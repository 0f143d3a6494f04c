//! The PPFS model: a policy-driven [`Policy`] over the same backend shell
//! and I/O-node substrate as `sio-pfs`.
//!
//! Differences from PFS, all policy-driven and all directly comparable on
//! identical workloads:
//!
//! * **client-side pointers** — seeks are a local bookkeeping update, never
//!   a metadata RPC;
//! * **block cache** per node with configurable eviction; reads are served
//!   block-wise, hitting the cache, joining in-flight fetches, or fetching;
//! * **prefetching** — fixed readahead or adaptive (classification-driven)
//!   background fetches;
//! * **write-behind + aggregation** — writes complete into a dirty buffer
//!   that drains in the background as few large sequential requests (§5.2's
//!   policy pair).
//!
//! The shared mechanics — file registry, metadata verbs, stripe segment
//! pump with stripe-pinned retry/replay, fault delivery, `Sync` parking,
//! and interval tracing — live in the `sio-fskit` shell; this module is the
//! PPFS policy layer (caching, prefetch, write-behind, transfer routing) on
//! top.
//!
//! Tracing matches PFS: the application-visible interval of every call is
//! recorded, so the paper's tables can be regenerated for either file
//! system and compared (DESIGN.md experiment X1).

use crate::cache::{BlockCache, BlockState};
use crate::policy::PolicyConfig;
use crate::prefetch::StreamPrefetcher;
use crate::write_behind::{DirtyBuffer, Extent};
use paragon_sim::calibration::FaultParams;
use paragon_sim::engine::Sched;
use paragon_sim::program::{IoRequest, IoResult, IoToken};
use paragon_sim::{MachineConfig, NodeId, SimDuration, SimTime};
use sio_core::event::{IoEvent, IoOp};
use sio_core::hash::{FastMap, FastSet};
use sio_fskit::pump::FailoverPolicy;
use sio_fskit::{Policy, Substrate};

/// Running statistics of a PPFS instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PpfsStats {
    /// Application reads served entirely from cache.
    pub reads_hit: u64,
    /// Application reads that had to fetch at least one block.
    pub reads_missed: u64,
    /// Blocks fetched on behalf of prefetch suggestions.
    pub prefetched_blocks: u64,
    /// Application writes absorbed by the write-behind buffer.
    pub writes_buffered: u64,
    /// Extents written back by flushes.
    pub flush_extents: u64,
    /// Bytes written back by flushes.
    pub flushed_bytes: u64,
    /// Stripe segments submitted to I/O nodes (all causes).
    pub segments: u64,
    /// Blocks served from an I/O-node server cache (two-level buffering).
    pub server_hits: u64,
    /// Blocks that had to go to disk despite the server cache.
    pub server_misses: u64,
    /// Write-behind bytes that were in flight or queued at an I/O node when
    /// it crashed (exposure of buffered dirty data to failures).
    pub dirty_bytes_lost: u64,
    /// Segments resubmitted after a crashed node recovered (replay-based
    /// recovery of lost write-behind data).
    pub replayed_segments: u64,
    /// Segments completed by an array that had lost redundancy (a second
    /// member failure): the returned data could not be reconstructed.
    pub data_loss_segments: u64,
    /// The subset of `dirty_bytes_lost` on files covered by a durable
    /// checkpoint ([`Ppfs::mark_checkpoint_covered`]): data the application
    /// can regenerate by restarting from its last committed epoch, as
    /// opposed to genuinely lost work.
    pub dirty_bytes_lost_checkpointed: u64,
}

#[derive(Debug)]
enum Transfer {
    /// Block fetch into `node`'s cache (demand or prefetch).
    Fetch {
        node: NodeId,
        file: u32,
        blocks: Vec<u64>,
        segs_left: u32,
    },
    /// Application write-through (write-behind disabled).
    AppWrite {
        token: IoToken,
        node: NodeId,
        file: u32,
        offset: u64,
        bytes: u64,
        issued: SimTime,
        segs_left: u32,
    },
    /// Background write-back of dirty extents.
    Flush { file: u32, segs_left: u32 },
    /// Burst-log drain extent: a background write owned by the log tier
    /// (synthetic token, no application-visible trace event).
    Drain {
        token: IoToken,
        node: NodeId,
        file: u32,
        bytes: u64,
        issued: SimTime,
        segs_left: u32,
    },
}

#[derive(Debug)]
struct ReadPending {
    token: IoToken,
    node: NodeId,
    file: u32,
    offset: u64,
    bytes: u64,
    issued: SimTime,
    is_async: bool,
    blocks_left: u32,
}

/// The PPFS policy. Run it as `FsShell<Ppfs>`; its write-behind flush
/// timer is the shell's one reserved policy timer, id `pump.len()`.
pub struct Ppfs {
    policy: PolicyConfig,
    seed: u64,
    caches: FastMap<NodeId, BlockCache>,
    prefetchers: FastMap<(NodeId, u32), StreamPrefetcher>,
    dirty: FastMap<(NodeId, u32), DirtyBuffer>,
    transfers: FastMap<u64, Transfer>,
    next_transfer: u64,
    reads: FastMap<u64, ReadPending>,
    next_read: u64,
    /// (node, file, block) -> read ids waiting for the block.
    block_waiters: FastMap<(NodeId, u32, u64), Vec<u64>>,
    flush_timer_armed: bool,
    stats: PpfsStats,
    /// Per-I/O-node server caches (empty when disabled).
    server_caches: Vec<BlockCache>,
    /// Pending server-cache hit deliveries: timer id -> (node, file, blocks).
    fetch_hits: FastMap<u64, (NodeId, u32, Vec<u64>)>,
    /// Files whose contents are reconstructible from a durable checkpoint
    /// (splits the dirty-loss accounting into checkpointed vs lost work).
    checkpoint_covered: FastSet<u32>,
}

impl Ppfs {
    /// A PPFS policy for `machine` with the given configuration.
    pub fn new(machine: &MachineConfig, policy: PolicyConfig) -> Ppfs {
        let server_caches: Vec<BlockCache> = if policy.server_cache_blocks > 0 {
            (0..machine.io_nodes)
                .map(|i| {
                    BlockCache::new(
                        policy.server_cache_blocks,
                        policy.eviction,
                        machine.seed ^ (0xA5A5_0000 + i as u64),
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        Ppfs {
            policy,
            seed: machine.seed,
            caches: FastMap::default(),
            prefetchers: FastMap::default(),
            dirty: FastMap::default(),
            transfers: FastMap::default(),
            next_transfer: 0,
            reads: FastMap::default(),
            next_read: 0,
            block_waiters: FastMap::default(),
            flush_timer_armed: false,
            stats: PpfsStats::default(),
            server_caches,
            fetch_hits: FastMap::default(),
            checkpoint_covered: FastSet::default(),
        }
    }

    /// Declare `file` reconstructible from a durable checkpoint: dirty
    /// write-behind bytes of this file lost to a node crash are counted in
    /// `dirty_bytes_lost_checkpointed` as well as the `dirty_bytes_lost`
    /// total.
    pub fn mark_checkpoint_covered(&mut self, file: u32) {
        self.checkpoint_covered.insert(file);
    }

    /// Running statistics: the policy's counters merged with the shared
    /// pump's (`fs` is the shell's substrate).
    pub fn stats(&self, fs: &Substrate) -> PpfsStats {
        let mut s = self.stats;
        let p = fs.pump.stats();
        s.segments += p.segments;
        s.replayed_segments += p.replayed;
        s
    }

    /// The pattern the adaptive prefetcher has inferred for a stream, if the
    /// stream exists.
    pub fn inferred_pattern(
        &self,
        node: NodeId,
        file: u32,
    ) -> Option<sio_core::classify::AccessPattern> {
        self.prefetchers.get(&(node, file)).map(|p| p.pattern())
    }

    fn cache_for(&mut self, node: NodeId) -> &mut BlockCache {
        let policy = self.policy;
        let seed = self.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(node as u64 + 1));
        self.caches
            .entry(node)
            .or_insert_with(|| BlockCache::new(policy.cache_blocks, policy.eviction, seed))
    }

    /// Submit `[offset, offset + bytes)` of `file` as a new transfer built
    /// by `make` from the segment count.
    #[allow(clippy::too_many_arguments)]
    fn submit_transfer(
        &mut self,
        fs: &mut Substrate,
        now: SimTime,
        file: u32,
        offset: u64,
        bytes: u64,
        write: bool,
        sched: &mut Sched,
        make: impl FnOnce(u32) -> Transfer,
    ) {
        let tid = self.next_transfer;
        self.next_transfer += 1;
        let segs = fs.submit_extent(now, file, offset, bytes, write, tid, sched);
        self.transfers.insert(tid, make(segs));
    }

    /// I/O node owning a file block (block start decides for blocks that
    /// straddle stripe units).
    fn block_owner(&self, fs: &Substrate, block: u64) -> usize {
        fs.cfg.layout.io_node_of(block * self.policy.block_size) as usize
    }

    /// Fetch a run of blocks of `file` into `node`'s cache. Blocks resident
    /// in a server cache are satisfied at server latency without touching
    /// the disk queue (two-level buffering, §8).
    #[allow(clippy::too_many_arguments)]
    fn fetch_blocks(
        &mut self,
        fs: &mut Substrate,
        now: SimTime,
        node: NodeId,
        file: u32,
        blocks: Vec<u64>,
        prefetch: bool,
        sched: &mut Sched,
    ) {
        debug_assert!(!blocks.is_empty());
        // Mark everything in flight first.
        for &b in &blocks {
            self.cache_for(node)
                .insert((file, b), BlockState::InFlight(now));
        }
        if prefetch {
            self.stats.prefetched_blocks += blocks.len() as u64;
        }
        // Split into server-cache hits and disk blocks.
        let mut disk_blocks: Vec<u64> = Vec::new();
        let mut hit_blocks: Vec<u64> = Vec::new();
        if self.server_caches.is_empty() {
            disk_blocks = blocks;
        } else {
            for b in blocks {
                let owner = self.block_owner(fs, b);
                if self.server_caches[owner].lookup((file, b)).is_some() {
                    hit_blocks.push(b);
                } else {
                    disk_blocks.push(b);
                }
            }
        }
        if !hit_blocks.is_empty() {
            self.stats.server_hits += hit_blocks.len() as u64;
            let timer = fs.arm_timer(now + fs.cfg.io_sw.server_per_request, sched);
            self.fetch_hits.insert(timer, (node, file, hit_blocks));
        }
        if disk_blocks.is_empty() {
            return;
        }
        self.stats.server_misses += disk_blocks.len() as u64;
        // Fetch contiguous disk runs; server-cache filtering may have
        // fragmented the original run.
        let bs = self.policy.block_size;
        for run in runs(disk_blocks) {
            let (offset, bytes) = (run[0] * bs, run.len() as u64 * bs);
            self.submit_transfer(fs, now, file, offset, bytes, false, sched, |segs| {
                Transfer::Fetch {
                    node,
                    file,
                    blocks: run,
                    segs_left: segs,
                }
            });
        }
    }

    /// Blocks arrived for `node`: mark present (client + server caches) and
    /// complete any reads that were waiting on them.
    #[allow(clippy::too_many_arguments)]
    fn complete_blocks(
        &mut self,
        fs: &mut Substrate,
        now: SimTime,
        node: NodeId,
        file: u32,
        blocks: Vec<u64>,
        install_server: bool,
        sched: &mut Sched,
    ) {
        let hit_cost = SimDuration::from_secs_f64(self.policy.hit_cost_secs);
        for b in blocks {
            self.cache_for(node).mark_present((file, b));
            if install_server && !self.server_caches.is_empty() {
                let owner = self.block_owner(fs, b);
                self.server_caches[owner].insert((file, b), BlockState::Present);
            }
            let Some(waiters) = self.block_waiters.remove(&(node, file, b)) else {
                continue;
            };
            for rid in waiters {
                let ready = {
                    let Some(r) = self.reads.get_mut(&rid) else {
                        continue;
                    };
                    r.blocks_left -= 1;
                    r.blocks_left == 0
                };
                if ready {
                    let r = self.reads.remove(&rid).unwrap();
                    let rate = fs.cfg.io_sw.client_byte_rate;
                    let done = fs.client.copy_done(r.node, now + hit_cost, r.bytes, rate);
                    if !r.is_async {
                        fs.recorder.record(
                            IoEvent::new(r.node, r.file, IoOp::Read)
                                .span(r.issued.nanos(), done.nanos())
                                .extent(r.offset, r.bytes),
                        );
                    }
                    sched.complete_io(
                        r.token,
                        done,
                        IoResult {
                            bytes: r.bytes,
                            queued: SimDuration::ZERO,
                            service: done.since(r.issued),
                            fault: None,
                        },
                    );
                }
            }
        }
    }

    /// Flush one (node, file) dirty buffer to the I/O nodes.
    fn flush_dirty(
        &mut self,
        fs: &mut Substrate,
        now: SimTime,
        node: NodeId,
        file: u32,
        sched: &mut Sched,
    ) {
        let aggregation = self.policy.aggregation;
        let block_size = self.policy.block_size;
        let Some(buf) = self.dirty.get_mut(&(node, file)) else {
            return;
        };
        if buf.is_empty() {
            return;
        }
        for Extent { offset, bytes } in buf.drain(aggregation, block_size) {
            self.submit_transfer(fs, now, file, offset, bytes, true, sched, |segs| {
                Transfer::Flush {
                    file,
                    segs_left: segs,
                }
            });
            self.stats.flush_extents += 1;
            self.stats.flushed_bytes += bytes;
        }
    }

    /// Flush the non-empty dirty buffers that `keep` selects, in sorted
    /// order: with several dirty buffers the flush order decides segment
    /// submission order, and map order would break bit-for-bit
    /// reproducibility.
    fn flush_where(
        &mut self,
        fs: &mut Substrate,
        now: SimTime,
        keep: impl Fn(&(NodeId, u32)) -> bool,
        sched: &mut Sched,
    ) {
        let mut keys: Vec<(NodeId, u32)> = self
            .dirty
            .iter()
            .filter(|(k, b)| keep(k) && !b.is_empty())
            .map(|(k, _)| *k)
            .collect();
        keys.sort_unstable();
        for (node, file) in keys {
            self.flush_dirty(fs, now, node, file, sched);
        }
    }

    fn arm_flush_timer(&mut self, fs: &Substrate, now: SimTime, sched: &mut Sched) {
        if !self.flush_timer_armed && self.policy.write_behind {
            self.flush_timer_armed = true;
            let at = now + SimDuration::from_secs_f64(self.policy.flush_interval_secs);
            sched.timer(at, fs.pump.len() as u64);
        }
    }

    /// Handle an application read.
    #[allow(clippy::too_many_arguments)]
    fn read_op(
        &mut self,
        fs: &mut Substrate,
        now: SimTime,
        token: IoToken,
        node: NodeId,
        file: u32,
        offset: u64,
        bytes: u64,
        is_async: bool,
        sched: &mut Sched,
    ) {
        let eff = bytes.min(fs.files.len_of(file).saturating_sub(offset));
        let hit_cost = SimDuration::from_secs_f64(self.policy.hit_cost_secs);
        let rate = fs.cfg.io_sw.client_byte_rate;
        if eff == 0 {
            let done = now + hit_cost;
            if !is_async {
                fs.recorder.record(
                    IoEvent::new(node, file, IoOp::Read)
                        .span(now.nanos(), done.nanos())
                        .extent(offset, 0),
                );
            }
            sched.complete_io(
                token,
                done,
                IoResult {
                    bytes: 0,
                    queued: SimDuration::ZERO,
                    service: hit_cost,
                    fault: None,
                },
            );
            return;
        }
        let bs = self.policy.block_size;
        let first = offset / bs;
        let last = (offset + eff - 1) / bs;
        let mut missing: Vec<u64> = Vec::new();
        let mut waiting: Vec<u64> = Vec::new();
        for b in first..=last {
            match self.cache_for(node).lookup((file, b)) {
                Some(BlockState::Present) => {}
                Some(BlockState::InFlight(_)) => waiting.push(b),
                None => missing.push(b),
            }
        }
        let read_id = self.next_read;
        self.next_read += 1;
        let blocks_left = (missing.len() + waiting.len()) as u32;
        if blocks_left == 0 {
            self.stats.reads_hit += 1;
            let done = fs.client.copy_done(node, now + hit_cost, eff, rate);
            if !is_async {
                fs.recorder.record(
                    IoEvent::new(node, file, IoOp::Read)
                        .span(now.nanos(), done.nanos())
                        .extent(offset, eff),
                );
            }
            sched.complete_io(
                token,
                done,
                IoResult {
                    bytes: eff,
                    queued: SimDuration::ZERO,
                    service: done.since(now),
                    fault: None,
                },
            );
        } else {
            self.stats.reads_missed += 1;
            for &b in waiting.iter().chain(missing.iter()) {
                self.block_waiters
                    .entry((node, file, b))
                    .or_default()
                    .push(read_id);
            }
            // Fetch contiguous runs of missing blocks together.
            for run in runs(missing) {
                self.fetch_blocks(fs, now, node, file, run, false, sched);
            }
            self.reads.insert(
                read_id,
                ReadPending {
                    token,
                    node,
                    file,
                    offset,
                    bytes: eff,
                    issued: now,
                    is_async,
                    blocks_left,
                },
            );
        }
        // Prefetch suggestions, bounded by the file length.
        let suggestions = {
            let policy = self.policy.prefetch;
            let pf = self
                .prefetchers
                .entry((node, file))
                .or_insert_with(|| StreamPrefetcher::new(policy, bs));
            pf.on_access(offset, eff)
        };
        let file_len = fs.files.len_of(file);
        for ext in suggestions {
            if ext.offset >= file_len {
                continue;
            }
            let pf_first = ext.offset / bs;
            let pf_last = (ext.offset + ext.bytes - 1).min(file_len - 1) / bs;
            // Peek block by block: fetching one run can evict a block a
            // later peek would otherwise have seen.
            let mut run: Vec<u64> = Vec::new();
            for b in pf_first..=pf_last {
                if self.cache_for(node).peek((file, b)).is_none() {
                    if run.last().is_some_and(|&p| p + 1 != b) {
                        let r = std::mem::take(&mut run);
                        self.fetch_blocks(fs, now, node, file, r, true, sched);
                    }
                    run.push(b);
                }
            }
            if !run.is_empty() {
                self.fetch_blocks(fs, now, node, file, run, true, sched);
            }
        }
    }

    /// Handle an application write.
    #[allow(clippy::too_many_arguments)]
    fn write_op(
        &mut self,
        fs: &mut Substrate,
        now: SimTime,
        token: IoToken,
        node: NodeId,
        file: u32,
        offset: u64,
        bytes: u64,
        sched: &mut Sched,
    ) {
        fs.files.state(file).extend_to(offset + bytes);
        let rate = fs.cfg.io_sw.client_byte_rate;
        if self.policy.write_behind {
            // Complete into the dirty buffer at copy cost.
            let ready = now + SimDuration::from_secs_f64(self.policy.hit_cost_secs);
            let done = fs.client.copy_done(node, ready, bytes, rate);
            fs.recorder.record(
                IoEvent::new(node, file, IoOp::Write)
                    .span(now.nanos(), done.nanos())
                    .extent(offset, bytes),
            );
            sched.complete_io(
                token,
                done,
                IoResult {
                    bytes,
                    queued: SimDuration::ZERO,
                    service: done.since(now),
                    fault: None,
                },
            );
            let buf = self.dirty.entry((node, file)).or_default();
            buf.add(offset, bytes);
            let full = buf.bytes() >= self.policy.high_water_bytes;
            self.stats.writes_buffered += 1;
            if full {
                self.flush_dirty(fs, now, node, file, sched);
            }
            self.arm_flush_timer(fs, now, sched);
        } else {
            self.submit_transfer(fs, now, file, offset, bytes, true, sched, |segs| {
                Transfer::AppWrite {
                    token,
                    node,
                    file,
                    offset,
                    bytes,
                    issued: now,
                    segs_left: segs,
                }
            });
        }
        // Writes invalidate any cached copy of the blocks they touch.
        let bs = self.policy.block_size;
        if bytes > 0 {
            for b in offset / bs..=(offset + bytes - 1) / bs {
                // Re-inserting as Present models write-allocate caching.
                self.cache_for(node).insert((file, b), BlockState::Present);
                // The write passes through the owning server: write-allocate
                // there too (two-level buffering).
                if !self.server_caches.is_empty() {
                    let owner = self.block_owner(fs, b);
                    self.server_caches[owner].insert((file, b), BlockState::Present);
                }
            }
        }
    }
}

/// Split ascending block numbers into maximal runs of consecutive blocks.
fn runs(blocks: Vec<u64>) -> Vec<Vec<u64>> {
    let mut out: Vec<Vec<u64>> = Vec::new();
    for b in blocks {
        match out.last_mut() {
            Some(run) if run.last().is_some_and(|&p| p + 1 == b) => run.push(b),
            _ => out.push(vec![b]),
        }
    }
    out
}

impl Policy for Ppfs {
    /// The write-behind flush timer, id `pump.len()`.
    const RESERVED_TIMERS: u64 = 1;

    /// Stripe-pinned: a down node parks segments for replay, a full queue
    /// retries forever with capped backoff.
    fn failover(_params: &FaultParams) -> FailoverPolicy {
        FailoverPolicy::StripePinned
    }

    /// Client-managed pointers resolve the offset; reads go through the
    /// block cache, writes through write-behind or write-through.
    fn data_op(
        &mut self,
        fs: &mut Substrate,
        now: SimTime,
        token: IoToken,
        node: NodeId,
        req: IoRequest,
        write: bool,
        is_async: bool,
        sched: &mut Sched,
    ) {
        let file = req.file;
        let pos = fs.files.state(file).pos.entry(node).or_insert(0);
        let offset = req.offset.unwrap_or(*pos);
        *pos = offset + req.bytes;
        if is_async {
            let issue_end = now + fs.cfg.io_sw.async_issue;
            fs.recorder.record(
                IoEvent::new(node, file, IoOp::AsyncRead)
                    .span(now.nanos(), issue_end.nanos())
                    .extent(offset, req.bytes),
            );
        }
        if write {
            self.write_op(fs, now, token, node, file, offset, req.bytes, sched);
        } else {
            self.read_op(
                fs, now, token, node, file, offset, req.bytes, is_async, sched,
            );
        }
    }

    fn seg_done(
        &mut self,
        fs: &mut Substrate,
        tid: u64,
        data_lost: bool,
        now: SimTime,
        sched: &mut Sched,
    ) {
        if data_lost {
            self.stats.data_loss_segments += 1;
        }
        let t = self.transfers.get_mut(&tid).expect("unknown transfer");
        let left = match t {
            Transfer::Fetch { segs_left, .. }
            | Transfer::AppWrite { segs_left, .. }
            | Transfer::Flush { segs_left, .. }
            | Transfer::Drain { segs_left, .. } => segs_left,
        };
        *left -= 1;
        if *left > 0 {
            return;
        }
        let rate = fs.cfg.io_sw.client_byte_rate;
        match self.transfers.remove(&tid).unwrap() {
            Transfer::Fetch {
                node, file, blocks, ..
            } => {
                self.complete_blocks(fs, now, node, file, blocks, true, sched);
            }
            Transfer::AppWrite {
                token,
                node,
                file,
                offset,
                bytes,
                issued,
                ..
            } => {
                let done = fs.client.copy_done(node, now, bytes, rate);
                fs.recorder.record(
                    IoEvent::new(node, file, IoOp::Write)
                        .span(issued.nanos(), done.nanos())
                        .extent(offset, bytes),
                );
                sched.complete_io(
                    token,
                    done,
                    IoResult {
                        bytes,
                        queued: SimDuration::ZERO,
                        service: done.since(issued),
                        fault: None,
                    },
                );
                fs.drain_sync_waiters(self, file, now, sched);
            }
            Transfer::Flush { file, .. } => {
                fs.drain_sync_waiters(self, file, now, sched);
            }
            Transfer::Drain {
                token,
                node,
                file,
                bytes,
                issued,
                ..
            } => {
                let done = fs.client.copy_done(node, now, bytes, rate);
                sched.complete_io(
                    token,
                    done,
                    IoResult {
                        bytes,
                        queued: SimDuration::ZERO,
                        service: done.since(issued),
                        fault: None,
                    },
                );
                fs.drain_sync_waiters(self, file, now, sched);
            }
        }
    }

    fn seg_refused(&mut self, _fs: &mut Substrate, tid: u64, _now: SimTime, _sched: &mut Sched) {
        unreachable!("the stripe-pinned pump never gives transfer {tid} up");
    }

    /// Write-back traffic in flight: flush transfers (including segments
    /// parked at a crashed node awaiting replay — parked dirty data is
    /// *not* durable), write-through application writes, and drains.
    fn has_outstanding_writes(&self, file: u32) -> bool {
        self.transfers.values().any(|t| {
            matches!(t,
                Transfer::Flush { file: f, .. }
                | Transfer::AppWrite { file: f, .. }
                | Transfer::Drain { file: f, .. }
                    if *f == file)
        })
    }

    /// The write-behind flush timer and server-cache hit deliveries.
    fn on_timer(
        &mut self,
        fs: &mut Substrate,
        now: SimTime,
        timer: u64,
        sched: &mut Sched,
    ) -> bool {
        if timer == fs.pump.len() as u64 {
            self.flush_timer_armed = false;
            self.flush_where(fs, now, |_| true, sched);
            // Re-arm while dirty data may still arrive (cheap: only when
            // something was flushed or remains buffered).
            if self.dirty.values().any(|b| !b.is_empty()) {
                self.arm_flush_timer(fs, now, sched);
            }
        } else if let Some((node, file, blocks)) = self.fetch_hits.remove(&timer) {
            // Server-cache hit delivery: no server install (they came from
            // there).
            self.complete_blocks(fs, now, node, file, blocks, false, sched);
        } else {
            return false;
        }
        true
    }

    /// A background write through the stripe-pinned pump (capped backoff,
    /// park/replay on crash). No application event is traced.
    fn submit_drain(
        &mut self,
        fs: &mut Substrate,
        node: NodeId,
        now: SimTime,
        file: u32,
        offset: u64,
        bytes: u64,
        token: IoToken,
        sched: &mut Sched,
    ) {
        fs.files.state(file).extend_to(offset + bytes);
        let tid = self.next_transfer;
        self.next_transfer += 1;
        let segs = fs.submit_extent(now, file, offset, bytes, true, tid, sched);
        if segs == 0 {
            // Degenerate extent: nothing staged, complete immediately.
            sched.complete_io(
                token,
                now,
                IoResult {
                    bytes,
                    queued: SimDuration::ZERO,
                    service: SimDuration::ZERO,
                    fault: None,
                },
            );
            return;
        }
        self.transfers.insert(
            tid,
            Transfer::Drain {
                token,
                node,
                file,
                bytes,
                issued: now,
                segs_left: segs,
            },
        );
    }

    /// In-service and queued segments are lost. Flush segments carry
    /// write-behind data whose application writes already completed — that
    /// is the dirty-data exposure the X4 suite measures. Everything is
    /// parked for replay on recovery.
    fn on_node_crash(&mut self, fs: &mut Substrate, _now: SimTime, io: u32, _sched: &mut Sched) {
        for req in fs.pump.crash(io) {
            let Some(tid) = fs.pump.owner_of(req.id) else {
                continue;
            };
            if let Some(Transfer::Flush { file, .. }) = self.transfers.get(&tid) {
                self.stats.dirty_bytes_lost += req.bytes;
                if self.checkpoint_covered.contains(file) {
                    self.stats.dirty_bytes_lost_checkpointed += req.bytes;
                }
            }
            fs.pump.park_replay(io, req);
        }
    }

    /// Client-managed pointers: always local, always cheap.
    fn seek_done(&mut self, _fs: &mut Substrate, now: SimTime, _file: u32) -> SimTime {
        now + SimDuration::from_micros(200)
    }

    /// Closing pushes the node's dirty data for the file.
    fn on_close(
        &mut self,
        fs: &mut Substrate,
        now: SimTime,
        node: NodeId,
        file: u32,
        sched: &mut Sched,
    ) {
        self.flush_dirty(fs, now, node, file, sched);
    }

    /// `Flush` starts the node's write-back but returns at software cost
    /// while its extents are still in flight.
    fn on_flush(
        &mut self,
        fs: &mut Substrate,
        now: SimTime,
        node: NodeId,
        file: u32,
        sched: &mut Sched,
    ) {
        self.flush_dirty(fs, now, node, file, sched);
    }

    /// Commit: push every node's dirty write-behind data for the file; the
    /// shell then acknowledges once all of it (and any write-through
    /// traffic, including crash-parked segments awaiting replay) has
    /// landed. This is the durability gap `Flush` leaves open.
    fn on_sync(&mut self, fs: &mut Substrate, now: SimTime, file: u32, sched: &mut Sched) {
        self.flush_where(fs, now, |&(_, f)| f == file, sched);
    }

    /// Account (but no longer time) any data still buffered: it would
    /// reach disk during program teardown. Today this only accumulates
    /// sums (order-independent), but drain in sorted order anyway so a
    /// future per-extent effect cannot inherit map iteration order.
    fn on_run_end(&mut self, _fs: &mut Substrate, _now: SimTime) {
        let mut remaining: Vec<(NodeId, u32)> = self.dirty.keys().copied().collect();
        remaining.sort_unstable();
        for key in remaining {
            let aggregation = self.policy.aggregation;
            let block_size = self.policy.block_size;
            let buf = self.dirty.get_mut(&key).unwrap();
            if !buf.is_empty() {
                let extents = buf.drain(aggregation, block_size);
                for e in &extents {
                    self.stats.flushed_bytes += e.bytes;
                }
                self.stats.flush_extents += extents.len() as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_sim::FaultSchedule;
    use sio_core::trace::TraceSink;
    use sio_fskit::{AccessMode, FileSpec, FsShell};

    fn ppfs(m: &MachineConfig, policy: PolicyConfig, name: &str) -> FsShell<Ppfs> {
        FsShell::new(
            m,
            TraceSink::new(name),
            FaultSchedule::new(),
            Ppfs::new(m, policy),
        )
    }
    use crate::policy::Eviction;
    use paragon_sim::mesh::Mesh;
    use paragon_sim::program::{NodeProgram, ScriptOp, ScriptProgram};
    use paragon_sim::time::transfer_time;
    use paragon_sim::Engine;
    use sio_core::trace::Trace;

    fn machine() -> MachineConfig {
        MachineConfig::tiny(4, 2)
    }

    fn open(file: u32) -> ScriptOp {
        ScriptOp::Io(IoRequest::open(file, AccessMode::MUnix.code()))
    }

    fn run(
        m: &MachineConfig,
        policy: PolicyConfig,
        files: Vec<FileSpec>,
        scripts: Vec<Vec<ScriptOp>>,
    ) -> (Trace, PpfsStats) {
        let mut fs = ppfs(m, policy, "ppfs-test");
        for f in files {
            fs.register(f);
        }
        let programs: Vec<Box<dyn NodeProgram>> = scripts
            .into_iter()
            .map(|s| Box::new(ScriptProgram::new(s)) as Box<dyn NodeProgram>)
            .collect();
        let mut engine = Engine::new(
            Mesh::for_nodes(m.compute_nodes, m.io_nodes),
            m.comm,
            programs,
            fs,
        );
        engine.set_default_watchdog();
        let report = engine.run();
        assert!(report.clean(), "blocked: {:?}", report.blocked);
        let mut fs = engine.into_service();
        let stats = fs.policy().stats(fs.substrate());
        fs.sink_mut()
            .set_run_info(m.compute_nodes, report.wall.nanos());
        (fs.finish_trace(), stats)
    }

    #[test]
    fn cached_reread_is_fast() {
        let script = vec![
            open(0),
            ScriptOp::Io(IoRequest::read(0, 65536)),
            ScriptOp::Io(IoRequest::seek(0, 0)),
            ScriptOp::Io(IoRequest::read(0, 65536)),
        ];
        let (trace, stats) = run(
            &machine(),
            PolicyConfig::write_through(),
            vec![FileSpec::input("in", 1 << 20)],
            vec![script],
        );
        let durs: Vec<u64> = trace.of_op(IoOp::Read).map(|e| e.duration()).collect();
        assert_eq!(durs.len(), 2);
        // The cached reread pays only hit cost + client copy (~6.4 ms at the
        // calibrated 10.5 MB/s copy rate); the first read adds disk + queue.
        assert!(durs[1] * 4 < durs[0], "reread not cached: {durs:?}");
        let copy_ns = transfer_time(65536, 10.5e6).nanos();
        assert!(
            durs[1] < copy_ns * 2,
            "reread slower than copy bound: {durs:?}"
        );
        assert_eq!(stats.reads_hit, 1);
        assert_eq!(stats.reads_missed, 1);
    }

    #[test]
    fn write_behind_makes_small_writes_cheap() {
        let script = |wb: bool| {
            let mut ops = vec![open(0)];
            for i in 0..16u64 {
                ops.push(ScriptOp::Io(IoRequest::seek(0, i * 2048)));
                ops.push(ScriptOp::Io(IoRequest::write(0, 2048)));
            }
            let _ = wb;
            ops
        };
        let base = PolicyConfig::write_through();
        let (t_wt, _) = run(
            &machine(),
            base,
            vec![FileSpec::output("f")],
            vec![script(false)],
        );
        let (t_wb, stats) = run(
            &machine(),
            PolicyConfig::escat_tuned(),
            vec![FileSpec::output("f")],
            vec![script(true)],
        );
        let sum = |t: &Trace| -> u64 { t.of_op(IoOp::Write).map(|e| e.duration()).sum() };
        assert!(
            sum(&t_wb) * 5 < sum(&t_wt),
            "write-behind did not help: {} vs {}",
            sum(&t_wb),
            sum(&t_wt)
        );
        assert_eq!(stats.writes_buffered, 16);
        // Aggregation merged the contiguous region into few extents.
        assert!(stats.flush_extents <= 2, "extents: {}", stats.flush_extents);
        assert_eq!(stats.flushed_bytes, 16 * 2048);
    }

    #[test]
    fn aggregation_reduces_flush_extents() {
        // Strided dirty data: aggregation merges per contiguous run.
        let script = || {
            let mut ops = vec![open(0)];
            for i in 0..8u64 {
                ops.push(ScriptOp::Io(IoRequest::seek(0, i * 100_000)));
                ops.push(ScriptOp::Io(IoRequest::write(0, 2048)));
            }
            ops
        };
        let mut agg = PolicyConfig::escat_tuned();
        agg.high_water_bytes = u64::MAX; // flush only via timer/run-end
        let mut no_agg = agg;
        no_agg.aggregation = false;
        let (_, s_agg) = run(&machine(), agg, vec![FileSpec::output("f")], vec![script()]);
        let (_, s_no) = run(
            &machine(),
            no_agg,
            vec![FileSpec::output("f")],
            vec![script()],
        );
        // Disjoint strided extents: both have 8 extents, but with adjacent
        // writes aggregation shines; verify at least not worse here and
        // byte totals identical.
        assert!(s_agg.flush_extents <= s_no.flush_extents);
        assert_eq!(s_agg.flushed_bytes, s_no.flushed_bytes);
    }

    #[test]
    fn readahead_accelerates_sequential_scan() {
        let script = || {
            let mut ops = vec![open(0)];
            for _ in 0..32 {
                ops.push(ScriptOp::Io(IoRequest::read(0, 65536)));
            }
            ops
        };
        let (t_none, _) = run(
            &machine(),
            PolicyConfig::write_through(),
            vec![FileSpec::input("in", 4 << 20)],
            vec![script()],
        );
        let (t_ra, stats) = run(
            &machine(),
            PolicyConfig::readahead(4),
            vec![FileSpec::input("in", 4 << 20)],
            vec![script()],
        );
        let total = |t: &Trace| -> u64 { t.of_op(IoOp::Read).map(|e| e.duration()).sum() };
        assert!(
            total(&t_ra) < total(&t_none),
            "readahead did not help: {} vs {}",
            total(&t_ra),
            total(&t_none)
        );
        assert!(stats.prefetched_blocks > 0);
    }

    #[test]
    fn adaptive_matches_readahead_on_sequential_and_stays_quiet_on_random() {
        let seq_script = || {
            let mut ops = vec![open(0)];
            for _ in 0..32 {
                ops.push(ScriptOp::Io(IoRequest::read(0, 65536)));
            }
            ops
        };
        let (_, s_seq) = run(
            &machine(),
            PolicyConfig::adaptive(4),
            vec![FileSpec::input("in", 4 << 20)],
            vec![seq_script()],
        );
        assert!(s_seq.prefetched_blocks > 0);

        // Random offsets: adaptive must not waste fetches.
        let rnd_script = || {
            let offs = [31u64, 3, 47, 11, 59, 23, 7, 41, 17, 53];
            let mut ops = vec![open(0)];
            for &o in &offs {
                ops.push(ScriptOp::Io(IoRequest::seek(0, o * 65536)));
                ops.push(ScriptOp::Io(IoRequest::read(0, 4096)));
            }
            ops
        };
        let (_, s_rnd) = run(
            &machine(),
            PolicyConfig::adaptive(4),
            vec![FileSpec::input("in", 8 << 20)],
            vec![rnd_script()],
        );
        assert_eq!(s_rnd.prefetched_blocks, 0);
    }

    #[test]
    fn seeks_are_always_local() {
        let script = |n: u32| {
            vec![
                open(0),
                ScriptOp::Barrier(0),
                ScriptOp::Io(IoRequest::seek(0, n as u64 * 4096)),
            ]
        };
        let (trace, _) = run(
            &machine(),
            PolicyConfig::write_through(),
            vec![FileSpec::output("f")],
            (0..4).map(script).collect(),
        );
        for ev in trace.of_op(IoOp::Seek) {
            assert!(
                ev.duration() < 1_000_000,
                "seek too slow: {}",
                ev.duration()
            );
        }
    }

    #[test]
    fn mru_cache_policy_applies() {
        // Cyclic scan over 12 blocks with an 8-block cache.
        let script = || {
            let mut ops = vec![open(0)];
            for _pass in 0..4 {
                ops.push(ScriptOp::Io(IoRequest::seek(0, 0)));
                for _ in 0..12 {
                    ops.push(ScriptOp::Io(IoRequest::read(0, 65536)));
                }
            }
            ops
        };
        let file = || vec![FileSpec::input("in", 12 * 65536)];
        let lru = PolicyConfig::write_through().with_cache(8, Eviction::Lru);
        let mru = PolicyConfig::write_through().with_cache(8, Eviction::Mru);
        let (_, s_lru) = run(&machine(), lru, file(), vec![script()]);
        let (_, s_mru) = run(&machine(), mru, file(), vec![script()]);
        assert!(
            s_mru.reads_hit > s_lru.reads_hit,
            "mru {} !> lru {}",
            s_mru.reads_hit,
            s_lru.reads_hit
        );
    }

    #[test]
    fn concurrent_readers_have_independent_caches() {
        let script = || {
            vec![
                open(0),
                ScriptOp::Io(IoRequest::read(0, 65536)),
                ScriptOp::Io(IoRequest::seek(0, 0)),
                ScriptOp::Io(IoRequest::read(0, 65536)),
            ]
        };
        let (_, stats) = run(
            &machine(),
            PolicyConfig::write_through(),
            vec![FileSpec::input("in", 1 << 20)],
            vec![script(), script()],
        );
        // Each node misses once and hits once.
        assert_eq!(stats.reads_missed, 2);
        assert_eq!(stats.reads_hit, 2);
    }

    #[test]
    fn inferred_pattern_exposed() {
        let m = machine();
        let mut fs = ppfs(&m, PolicyConfig::adaptive(2), "p");
        fs.register(FileSpec::input("in", 4 << 20));
        let mut ops = vec![open(0)];
        for _ in 0..8 {
            ops.push(ScriptOp::Io(IoRequest::read(0, 65536)));
        }
        let programs: Vec<Box<dyn NodeProgram>> = vec![Box::new(ScriptProgram::new(ops))];
        let mut engine = Engine::new(Mesh::for_nodes(4, 2), m.comm, programs, fs);
        engine.set_default_watchdog();
        engine.run();
        use sio_core::classify::AccessPattern;
        assert_eq!(
            engine.service().policy().inferred_pattern(0, 0),
            Some(AccessPattern::Sequential)
        );
        assert_eq!(engine.service().policy().inferred_pattern(3, 0), None);
    }

    #[test]
    fn server_cache_serves_second_node_without_disk() {
        // Node 0 streams the file (cold), node 1 reads it afterwards: with a
        // server cache, node 1's blocks come from the I/O nodes' memory.
        let script = |delay_ms: u64| {
            let mut ops = vec![
                open(0),
                ScriptOp::Compute(SimDuration::from_millis(delay_ms)),
            ];
            for _ in 0..16 {
                ops.push(ScriptOp::Io(IoRequest::read(0, 65536)));
            }
            ops
        };
        let file = || vec![FileSpec::input("in", 16 * 65536)];
        let run_with =
            |policy: PolicyConfig| run(&machine(), policy, file(), vec![script(0), script(2000)]);
        let (t_two, s_two) = run_with(PolicyConfig::two_level(64, 256));
        let (t_one, s_one) = run_with(PolicyConfig::write_through());
        assert!(s_two.server_hits >= 16, "hits {}", s_two.server_hits);
        assert_eq!(s_one.server_hits, 0);
        // Node 1's reads are faster with the server cache.
        let node1 = |t: &Trace| -> u64 {
            t.of_op(IoOp::Read)
                .filter(|e| e.node == 1)
                .map(|e| e.duration())
                .sum()
        };
        assert!(
            node1(&t_two) < node1(&t_one),
            "two-level {} !< one-level {}",
            node1(&t_two),
            node1(&t_one)
        );
    }

    #[test]
    fn server_cache_write_allocate() {
        // A writer populates the server cache; a later reader on another
        // node hits it.
        let writer = vec![
            open(0),
            ScriptOp::Io(IoRequest::write(0, 65536)),
            ScriptOp::Send {
                to: 1,
                bytes: 1,
                tag: 1,
            },
        ];
        let reader = vec![
            open(0),
            ScriptOp::Recv { from: 0, tag: 1 },
            ScriptOp::Io(IoRequest::seek(0, 0)),
            ScriptOp::Io(IoRequest::read(0, 65536)),
        ];
        let (_, stats) = run(
            &machine(),
            PolicyConfig::two_level(64, 256),
            vec![FileSpec::output("f")],
            vec![writer, reader],
        );
        assert_eq!(stats.server_hits, 1);
        assert_eq!(stats.server_misses, 0);
    }

    #[test]
    fn run_end_accounts_unflushed_data() {
        let m = machine();
        let mut policy = PolicyConfig::escat_tuned();
        policy.high_water_bytes = u64::MAX;
        policy.flush_interval_secs = 1e9; // never fires
        let mut fs = ppfs(&m, policy, "e");
        fs.register(FileSpec::output("f"));
        let ops = vec![open(0), ScriptOp::Io(IoRequest::write(0, 2048))];
        let programs: Vec<Box<dyn NodeProgram>> = vec![Box::new(ScriptProgram::new(ops))];
        let mut engine = Engine::new(Mesh::for_nodes(4, 2), m.comm, programs, fs);
        engine.set_default_watchdog();
        engine.run();
        let fs = engine.service();
        assert_eq!(fs.policy().stats(fs.substrate()).flushed_bytes, 2048);
    }
}
