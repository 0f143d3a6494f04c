//! The backend shell: one [`IoService`] over the substrate, parameterized
//! by a [`Policy`].
//!
//! [`FsShell`] holds everything the simulator backends share in a
//! [`Substrate`] — configuration, segment pump, file table, trace recorder,
//! the replicated metadata server with its parked RPCs, link state, sync
//! ledger, client copy path, fault routing, the per-file metadata-owner
//! queues, and the one timer-id counter — and serves every verb whose
//! meaning does not depend on the backend: `Open`/`Close`/`Lsize` through
//! the metadata server (parking and retrying through a full outage),
//! `Flush`, `Seek` pointer bookkeeping, `Sync` parking and commit, the
//! fault arms every backend shares, and timer routing. A backend is a
//! [`Policy`]: its data path, what a finished or refused segment owner
//! means, its own timers, and a handful of hooks.
//!
//! Timer-id contract: ids `0..pump.len()` are I/O-node completion ticks,
//! the next [`Policy::RESERVED_TIMERS`] ids are the policy's fixed timers,
//! and every other id — fault events, pump retries, parked metadata RPCs,
//! and the policy's own timers — is drawn from one counter at the moment
//! the timer is armed ([`Substrate::arm_timer`] and the pump calls routed
//! through the substrate). Hooks take `&mut Substrate`, so ids are drawn in
//! call order, and with them the engine's FIFO tie-breaking is fixed; the
//! golden suites pin it byte for byte.

use paragon_sim::calibration::FaultParams;
use paragon_sim::engine::{IoService, Sched};
use paragon_sim::fault::{FaultEvent, FaultKind, FaultSchedule};
use paragon_sim::ionode::{RejectReason, SegmentReq};
use paragon_sim::program::{IoFault, IoRequest, IoToken, IoVerb};
use paragon_sim::raid::RaidError;
use paragon_sim::{LinkQuality, LinkState, MachineConfig, NodeId, SimDuration, SimTime};
use sio_core::event::IoOp;
use sio_core::hash::FastMap;
use sio_core::trace::{Trace, TraceSink};

use crate::client::ClientPath;
use crate::config::FsConfig;
use crate::fault::FaultRouter;
use crate::file::FileSpec;
use crate::mode::AccessMode;
use crate::pump::{backoff_delay, FailoverPolicy, NodeLoad, NodeTick, SegmentPump};
use crate::recorder::TraceRecorder;
use crate::sync::{SyncLedger, SyncWaiter};
use crate::table::{FileTable, MetaServer, MetaStats, MetaVerdict};

/// Counters for the fault-handling machinery (all zero on a healthy run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Segment re-submissions scheduled with backoff.
    pub retries: u64,
    /// Segments failed over to the buddy node.
    pub failovers: u64,
    /// Segments lost to node crashes (in service or queued).
    pub lost_segments: u64,
    /// Segments served from an array with exhausted redundancy.
    pub data_loss_segments: u64,
    /// Requests failed by the hard deadline.
    pub timeouts: u64,
    /// Requests failed because no server would accept them (data-path
    /// give-ups plus metadata RPCs that rode out a full outage).
    pub unavailable: u64,
    /// Second-failure events that exhausted an array's redundancy.
    pub data_loss_events: u64,
}

/// A metadata RPC parked by a full metadata outage, awaiting a backoff
/// retry probe.
#[derive(Debug, Clone, Copy)]
struct ParkedMeta {
    token: IoToken,
    node: NodeId,
    file: u32,
    op: IoOp,
    cost: SimDuration,
    /// Result bytes on success (file length for `Lsize`, 0 otherwise).
    bytes: u64,
    issued: SimTime,
    /// Retry probes already made.
    attempt: u32,
}

/// The state every backend shares. Policy hooks receive it as `&mut`.
pub struct Substrate {
    /// Machine-derived configuration (stripe map, software costs).
    pub cfg: FsConfig,
    /// Segment pump over the I/O nodes.
    pub pump: SegmentPump,
    /// File registry and fixed-slot allocator.
    pub files: FileTable,
    /// Application-visible interval tracing.
    pub recorder: TraceRecorder,
    /// Interconnect link quality per I/O-node region (collective costs).
    pub links: LinkState,
    /// Per-node serial client copy path.
    pub client: ClientPath,
    /// Fault-handling calibration (backoff, failover, deadline).
    pub fault_params: FaultParams,
    /// Fault-machinery counters; pump and metadata counters merge in at
    /// [`FsShell::fault_stats`].
    pub fault_stats: FaultStats,
    meta: MetaServer,
    faults: FaultRouter,
    syncs: SyncLedger,
    /// Metadata RPCs parked by a full outage (timer id → parked RPC).
    parked_meta: FastMap<u64, ParkedMeta>,
    /// Per-file metadata-owner queues (shared seeks, atomic writes).
    owner_free: Vec<SimTime>,
    next_timer: u64,
}

impl Substrate {
    /// Whether a fault schedule is in play (policies arm deadlines and use
    /// lenient owner checks only when it is).
    pub fn faults_enabled(&self) -> bool {
        self.faults.enabled()
    }

    /// Draw the next timer id and arm it at `at`.
    pub fn arm_timer(&mut self, at: SimTime, sched: &mut Sched) -> u64 {
        let id = self.next_timer;
        self.next_timer += 1;
        sched.timer(at, id);
        id
    }

    /// Push one segment through the pump. Returns the owner to give up when
    /// no server will accept it (buddy failover only).
    pub fn submit_seg(
        &mut self,
        now: SimTime,
        io: u32,
        req: SegmentReq,
        attempt: u32,
        sched: &mut Sched,
    ) -> Option<u64> {
        self.pump
            .submit_seg(now, io, req, attempt, &mut self.next_timer, sched)
    }

    /// Decompose `[offset, offset + bytes)` of `file` into stripe segments
    /// and submit each, owned by `owner`. Returns the segment count.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_extent(
        &mut self,
        now: SimTime,
        file: u32,
        offset: u64,
        bytes: u64,
        write: bool,
        owner: u64,
        sched: &mut Sched,
    ) -> u32 {
        self.pump.submit_extent(
            now,
            &self.cfg.layout,
            self.files.slot_base(file),
            offset,
            bytes,
            write,
            owner,
            &mut self.next_timer,
            sched,
        )
    }

    /// Serialize an RPC of `cost` at `file`'s metadata owner; returns its
    /// completion time.
    pub fn acquire_owner(&mut self, file: u32, now: SimTime, cost: SimDuration) -> SimTime {
        let free = &mut self.owner_free[file as usize];
        *free = (*free).max(now) + cost;
        *free
    }

    /// Release every `Sync` waiter on `file` once `policy` reports no
    /// outstanding writes on it (a failed write still unblocks the commit;
    /// the caller sees the failure on the write itself).
    pub fn drain_sync_waiters<P: Policy>(
        &mut self,
        policy: &P,
        file: u32,
        now: SimTime,
        sched: &mut Sched,
    ) {
        if self.syncs.is_empty() || policy.has_outstanding_writes(file) {
            return;
        }
        for w in self.syncs.take_for(file) {
            self.complete_sync(w.token, w.node, w.file, now, w.issued, sched);
        }
    }

    /// Acknowledge a commit: the software flush cost, plus a typed
    /// `DataLoss` fault if any array has exhausted its redundancy (durable
    /// is not healthy).
    fn complete_sync(
        &mut self,
        token: IoToken,
        node: NodeId,
        file: u32,
        now: SimTime,
        issued: SimTime,
        sched: &mut Sched,
    ) {
        let fault = self.pump.any_data_lost().then_some(IoFault::DataLoss);
        self.recorder.complete_commit(
            sched,
            token,
            node,
            file,
            issued,
            now,
            self.cfg.io_sw.flush,
            fault,
        );
    }

    /// Serve a metadata RPC through the replicated server, parking it with
    /// bounded backoff retries when both replicas are down. A healthy run
    /// never parks.
    #[allow(clippy::too_many_arguments)]
    fn meta_op(
        &mut self,
        now: SimTime,
        token: IoToken,
        node: NodeId,
        file: u32,
        op: IoOp,
        cost: SimDuration,
        bytes: u64,
        sched: &mut Sched,
    ) {
        match self.meta.try_op(now, cost) {
            MetaVerdict::Done(done) => {
                self.recorder
                    .complete_op(sched, token, node, file, op, now, done, None, bytes);
            }
            MetaVerdict::Outage => {
                let parked = ParkedMeta {
                    token,
                    node,
                    file,
                    op,
                    cost,
                    bytes,
                    issued: now,
                    attempt: 0,
                };
                self.park_meta(now, parked, sched);
            }
        }
    }

    /// Arm one backoff retry probe for a parked metadata RPC.
    fn park_meta(&mut self, now: SimTime, parked: ParkedMeta, sched: &mut Sched) {
        self.meta.note_retry();
        let at = now + backoff_delay(self.fault_params.retry_base, parked.attempt);
        let id = self.arm_timer(at, sched);
        self.parked_meta.insert(id, parked);
    }

    /// A parked metadata RPC's retry timer fired: re-probe the replicas,
    /// park again while the retry budget lasts, then surface the outage as
    /// a typed [`IoFault::Unavailable`] — never hang.
    fn retry_meta(&mut self, now: SimTime, mut parked: ParkedMeta, sched: &mut Sched) {
        match self.meta.try_op(now, parked.cost) {
            MetaVerdict::Done(done) => {
                self.recorder.complete_op(
                    sched,
                    parked.token,
                    parked.node,
                    parked.file,
                    parked.op,
                    parked.issued,
                    done,
                    None,
                    parked.bytes,
                );
            }
            MetaVerdict::Outage if parked.attempt < self.fault_params.max_retries => {
                parked.attempt += 1;
                self.park_meta(now, parked, sched);
            }
            MetaVerdict::Outage => {
                self.meta.note_unavailable();
                self.recorder.fail_op(
                    sched,
                    parked.token,
                    parked.node,
                    parked.file,
                    parked.op,
                    parked.issued,
                    now,
                    IoFault::Unavailable,
                );
            }
        }
    }
}

/// What a backend adds to the substrate. Every hook takes `&mut Substrate`
/// and draws timer ids from it, so a policy never owns a counter of its
/// own (see the module docs for the timer-id contract).
pub trait Policy {
    /// Timer ids reserved for the policy directly after the I/O-node ticks:
    /// id `pump.len() + k` for `k < RESERVED_TIMERS`.
    const RESERVED_TIMERS: u64 = 0;

    /// The pump's reaction to a refused segment. Default: bounded retries,
    /// then buddy-node failover, then give the owner up.
    fn failover(params: &FaultParams) -> FailoverPolicy {
        FailoverPolicy::Buddy {
            max_retries: params.max_retries,
        }
    }

    /// Serve an application `Read` (`write == false`) or `Write`.
    #[allow(clippy::too_many_arguments)]
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
    );

    /// A segment owned by `owner` completed; `data_lost` when the serving
    /// array had exhausted its redundancy.
    fn seg_done(
        &mut self,
        fs: &mut Substrate,
        owner: u64,
        data_lost: bool,
        now: SimTime,
        sched: &mut Sched,
    );

    /// Neither the target node nor its buddy accepted a segment of `owner`:
    /// fail the owner as unavailable.
    fn seg_refused(&mut self, fs: &mut Substrate, owner: u64, now: SimTime, sched: &mut Sched);

    /// Whether `file` still has write traffic a `Sync` must wait out.
    fn has_outstanding_writes(&self, file: u32) -> bool;

    /// A timer the shell does not route fired. Returns `false` when it is
    /// not one of the policy's timers either.
    fn on_timer(&mut self, fs: &mut Substrate, now: SimTime, timer: u64, sched: &mut Sched)
        -> bool;

    /// Accept a burst-log drain extent as background write traffic: no
    /// application-visible trace event; the caller owns `token`.
    #[allow(clippy::too_many_arguments)]
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
    );

    /// I/O node `io` crashed. Default (buddy failover): each lost segment
    /// still owned re-enters the retry/failover chain, and an owner no
    /// server will take is given up through [`Policy::seg_refused`].
    fn on_node_crash(&mut self, fs: &mut Substrate, now: SimTime, io: u32, sched: &mut Sched) {
        let lost = fs.pump.crash(io);
        fs.fault_stats.lost_segments += lost.len() as u64;
        for req in lost {
            if !fs.pump.owns(req.id) {
                continue;
            }
            if let Some(owner) = fs.pump.handle_rejection(
                now,
                io,
                req,
                0,
                RejectReason::Down,
                &mut fs.next_timer,
                sched,
            ) {
                self.seg_refused(fs, owner, now, sched);
            }
        }
    }

    /// Completion time of a `Seek` on `file`. Default: seeks on a shared
    /// file serialize at its metadata owner; single-opener seeks are local.
    fn seek_done(&mut self, fs: &mut Substrate, now: SimTime, file: u32) -> SimTime {
        if fs.files.get(file).opener_count() > 1 {
            let cost = fs.cfg.io_sw.seek_shared_rpc;
            fs.acquire_owner(file, now, cost)
        } else {
            now + fs.cfg.io_sw.seek_local
        }
    }

    /// Runs on `Close` after the opener is dropped, before the metadata RPC.
    fn on_close(
        &mut self,
        fs: &mut Substrate,
        now: SimTime,
        node: NodeId,
        file: u32,
        sched: &mut Sched,
    ) {
        let _ = (fs, now, node, file, sched);
    }

    /// Runs on `Flush` before the call completes.
    fn on_flush(
        &mut self,
        fs: &mut Substrate,
        now: SimTime,
        node: NodeId,
        file: u32,
        sched: &mut Sched,
    ) {
        let _ = (fs, now, node, file, sched);
    }

    /// Runs on `Sync` before the commit checks for outstanding writes.
    fn on_sync(&mut self, fs: &mut Substrate, now: SimTime, file: u32, sched: &mut Sched) {
        let _ = (fs, now, file, sched);
    }

    /// The run finished at `now`.
    fn on_run_end(&mut self, fs: &mut Substrate, now: SimTime) {
        let _ = (fs, now);
    }

    /// Push one segment through the pump, giving its owner up through
    /// [`Policy::seg_refused`] when no server accepts it.
    fn submit_or_refuse(
        &mut self,
        fs: &mut Substrate,
        now: SimTime,
        io: u32,
        req: SegmentReq,
        attempt: u32,
        sched: &mut Sched,
    ) {
        if let Some(owner) = fs.submit_seg(now, io, req, attempt, sched) {
            self.seg_refused(fs, owner, now, sched);
        }
    }
}

/// A simulator backend: the shared [`Substrate`] plus one [`Policy`].
pub struct FsShell<P> {
    fs: Substrate,
    policy: P,
}

impl<P: Policy> FsShell<P> {
    /// Build a backend over `machine`, tracing into `sink` (take the frozen
    /// trace back with [`FsShell::finish_trace`]), with an injected fault
    /// schedule. An empty schedule arms no timers: the run is bit-identical
    /// to a healthy one.
    pub fn new(
        machine: &MachineConfig,
        sink: TraceSink,
        schedule: FaultSchedule,
        policy: P,
    ) -> FsShell<P> {
        let cfg = FsConfig::from_machine(machine);
        let ionodes = machine.build_io_nodes();
        let n = ionodes.len();
        let pump = SegmentPump::new(
            ionodes,
            P::failover(&machine.fault),
            machine.fault.retry_base,
        );
        let fs = Substrate {
            files: FileTable::new(cfg.file_slot, cfg.array_capacity),
            cfg,
            pump,
            recorder: TraceRecorder::new(sink),
            meta: MetaServer::new(),
            links: LinkState::healthy(n),
            client: ClientPath::new(),
            fault_params: machine.fault,
            fault_stats: FaultStats::default(),
            faults: FaultRouter::new(schedule, n),
            syncs: SyncLedger::new(),
            parked_meta: FastMap::default(),
            owner_free: Vec::new(),
            next_timer: n as u64 + P::RESERVED_TIMERS,
        };
        FsShell { fs, policy }
    }

    /// Register a file; returns its id (used in [`IoRequest::file`]).
    /// Panics when the fixed-slot allocator is exhausted — use
    /// [`FsShell::try_register`] for a typed error.
    pub fn register(&mut self, spec: FileSpec) -> u32 {
        let id = self.fs.files.register(spec);
        self.fs.owner_free.push(SimTime::ZERO);
        id
    }

    /// Register a file, returning [`IoFault::Unavailable`] when the
    /// fixed-slot allocator is exhausted.
    pub fn try_register(&mut self, spec: FileSpec) -> Result<u32, IoFault> {
        let id = self.fs.files.try_register(spec)?;
        self.fs.owner_free.push(SimTime::ZERO);
        Ok(id)
    }

    /// The backend policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The backend policy, mutably (checkpoint coverage).
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// The shared substrate.
    pub fn substrate(&self) -> &Substrate {
        &self.fs
    }

    /// Current length of a registered file.
    pub fn file_len(&self, file: u32) -> u64 {
        self.fs.files.len_of(file)
    }

    /// Mutable access to the trace sink (e.g. to set run metadata).
    pub fn sink_mut(&mut self) -> &mut TraceSink {
        self.fs.recorder.sink_mut()
    }

    /// Consume the file system, freezing its captured trace.
    pub fn finish_trace(self) -> Trace {
        self.fs.recorder.finish()
    }

    /// Inject a disk failure into one I/O node's array before the run. A
    /// second failure on the same array is a typed error, not a panic.
    pub fn fail_disk(&mut self, io_node: u32, disk: u32) -> Result<(), RaidError> {
        self.fs.pump.node_mut(io_node).array_mut().fail_disk(disk)
    }

    /// Metadata fault-machinery counters (all zero on a healthy run).
    pub fn meta_stats(&self) -> MetaStats {
        self.fs.meta.stats()
    }

    /// Fault-machinery counters (all zero on a healthy run): the shell's
    /// and the policy's, plus the pump's retries and failovers and the
    /// metadata RPCs that surfaced `Unavailable`.
    pub fn fault_stats(&self) -> FaultStats {
        let mut s = self.fs.fault_stats;
        let p = self.fs.pump.stats();
        s.retries += p.retries;
        s.failovers += p.failovers;
        s.unavailable += self.fs.meta.stats().unavailable;
        s
    }

    /// Rebuild chunks completed across all I/O nodes.
    pub fn rebuild_chunks_total(&self) -> u64 {
        self.fs.pump.rebuild_chunks_total()
    }

    /// Member bytes rebuilt across all I/O nodes.
    pub fn rebuilt_bytes_total(&self) -> u64 {
        self.fs.pump.rebuilt_bytes_total()
    }

    /// I/O nodes whose arrays are still degraded.
    pub fn degraded_nodes(&self) -> u32 {
        self.fs.pump.degraded_nodes()
    }

    /// Total stripe segments completed across all I/O nodes.
    pub fn segments_completed(&self) -> u64 {
        self.fs.pump.segments_completed()
    }

    /// Accepted-request accounting per I/O node.
    pub fn node_loads(&self) -> Vec<NodeLoad> {
        self.fs.pump.node_loads()
    }

    /// Whether any accepted write was lost to exhausted redundancy.
    pub fn any_data_lost(&self) -> bool {
        self.fs.pump.any_data_lost()
    }

    /// Accept one coalesced burst-log drain extent as a background write
    /// (see [`Policy::submit_drain`]).
    #[allow(clippy::too_many_arguments)]
    pub fn submit_drain(
        &mut self,
        node: NodeId,
        now: SimTime,
        file: u32,
        offset: u64,
        bytes: u64,
        token: IoToken,
        sched: &mut Sched,
    ) {
        self.policy
            .submit_drain(&mut self.fs, node, now, file, offset, bytes, token, sched);
    }

    /// Apply one scheduled fault event.
    fn apply_fault(&mut self, now: SimTime, ev: FaultEvent, sched: &mut Sched) {
        let fs = &mut self.fs;
        let io = ev.io_node;
        match ev.kind {
            FaultKind::DiskFail { disk } => {
                if fs.pump.apply_disk_fail(io, disk) {
                    fs.fault_stats.data_loss_events += 1;
                }
            }
            FaultKind::DiskRepair => fs.pump.apply_disk_repair(now, io, sched),
            FaultKind::NodeStall { for_dur } => fs.pump.apply_stall(now, io, for_dur, sched),
            FaultKind::NodeCrash => self.policy.on_node_crash(fs, now, io, sched),
            FaultKind::NodeRecover => {
                fs.pump.recover(now, io, sched);
                fs.pump.resubmit_replays(now, io, &mut fs.next_timer, sched);
            }
            FaultKind::LinkDegrade { bw_div, lat_mult } => {
                // Data-path segments into the region's I/O node stretch by
                // the bandwidth divisor; collective costs consult the
                // region's quality through the link state.
                fs.pump.apply_link_degrade(io, bw_div);
                fs.links.degrade(io, LinkQuality { bw_div, lat_mult });
            }
            FaultKind::LinkHeal => {
                fs.pump.apply_link_heal(io);
                fs.links.heal(io);
            }
            FaultKind::MetaStall { for_dur } => fs.meta.stall(now, io, for_dur),
            FaultKind::MetaCrash => fs.meta.crash(io),
            FaultKind::MetaRecover => fs.meta.recover(io),
        }
    }
}

impl<P: Policy> IoService for FsShell<P> {
    fn submit(
        &mut self,
        node: NodeId,
        now: SimTime,
        req: IoRequest,
        token: IoToken,
        is_async: bool,
        sched: &mut Sched,
    ) {
        let fs = &mut self.fs;
        let file = req.file;
        match req.verb {
            IoVerb::Open => {
                let mode = AccessMode::from_code(req.hint)
                    .unwrap_or_else(|| panic!("bad access-mode code {}", req.hint));
                let cost = if fs.files.state(file).open(node, mode) {
                    fs.cfg.io_sw.create
                } else {
                    fs.cfg.io_sw.open
                };
                fs.meta_op(now, token, node, file, IoOp::Open, cost, 0, sched);
            }
            IoVerb::Close => {
                fs.files.state(file).close(node);
                self.policy.on_close(fs, now, node, file, sched);
                let cost = fs.cfg.io_sw.close;
                fs.meta_op(now, token, node, file, IoOp::Close, cost, 0, sched);
            }
            IoVerb::Lsize => {
                let cost = fs.cfg.io_sw.lsize;
                let len = fs.files.len_of(file);
                fs.meta_op(now, token, node, file, IoOp::Lsize, cost, len, sched);
            }
            IoVerb::Seek => {
                let target = req.offset.expect("seek needs an offset");
                let done = self.policy.seek_done(fs, now, file);
                let pos = fs.files.state(file).pos.entry(node).or_insert(0);
                let distance = pos.abs_diff(target);
                *pos = target;
                fs.recorder.complete_op(
                    sched,
                    token,
                    node,
                    file,
                    IoOp::Seek,
                    now,
                    done,
                    Some((target, distance)),
                    0,
                );
            }
            IoVerb::Flush => {
                self.policy.on_flush(fs, now, node, file, sched);
                let done = now + fs.cfg.io_sw.flush;
                fs.recorder
                    .complete_op(sched, token, node, file, IoOp::Flush, now, done, None, 0);
            }
            IoVerb::Sync => {
                // Commit: acknowledge only once the policy reports no write
                // traffic left on the file; the commit still reports
                // `DataLoss` if redundancy is exhausted. Traced as Forflush
                // — the paper's vocabulary has no separate commit row.
                self.policy.on_sync(fs, now, file, sched);
                if self.policy.has_outstanding_writes(file) {
                    fs.syncs.park(SyncWaiter {
                        token,
                        node,
                        file,
                        issued: now,
                    });
                } else {
                    fs.complete_sync(token, node, file, now, now, sched);
                }
            }
            IoVerb::Read => self
                .policy
                .data_op(fs, now, token, node, req, false, is_async, sched),
            IoVerb::Write => self
                .policy
                .data_op(fs, now, token, node, req, true, is_async, sched),
        }
    }

    fn on_start(&mut self, sched: &mut Sched) {
        // One absolute-time timer per scheduled fault event. Empty schedule
        // (the healthy case): no timers, bit-identical runs.
        self.fs.faults.arm_all(&mut self.fs.next_timer, sched);
    }

    fn on_timer(&mut self, now: SimTime, timer: u64, sched: &mut Sched) {
        let fs = &mut self.fs;
        if (timer as usize) < fs.pump.len() {
            // An I/O node finished its in-service work. Stale timers happen
            // only under faults (a stall postponed the completion, or a
            // crash voided it); orphaned segments mean the owning request
            // already failed.
            match fs.pump.node_tick(now, timer, sched) {
                NodeTick::Stale => {
                    debug_assert!(fs.faults_enabled(), "stale i/o-node timer on a healthy run")
                }
                NodeTick::Rebuild => {}
                NodeTick::Orphan => debug_assert!(fs.faults_enabled(), "segment with no owner"),
                NodeTick::Seg { owner, data_lost } => {
                    self.policy.seg_done(fs, owner, data_lost, now, sched)
                }
            }
        } else if let Some(ev) = fs.faults.take(timer) {
            self.apply_fault(now, ev, sched);
        } else if let Some(r) = fs.pump.take_retry(timer) {
            // Retry only while the owning request is still alive.
            if fs.pump.owns(r.req.id) {
                self.policy
                    .submit_or_refuse(fs, now, r.io, r.req, r.attempt, sched);
            }
        } else if let Some(parked) = fs.parked_meta.remove(&timer) {
            fs.retry_meta(now, parked, sched);
        } else {
            let known = self.policy.on_timer(fs, now, timer, sched);
            assert!(known, "unknown timer {timer}");
        }
    }

    fn issue_cost(&self, _node: NodeId, _req: &IoRequest) -> SimDuration {
        self.fs.cfg.io_sw.async_issue
    }

    fn on_iowait(&mut self, node: NodeId, file: u32, wait_start: SimTime, wait_end: SimTime) {
        self.fs.recorder.iowait(node, file, wait_start, wait_end);
    }

    fn on_run_end(&mut self, now: SimTime) {
        self.policy.on_run_end(&mut self.fs, now);
    }
}
