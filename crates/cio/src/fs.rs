//! The collective two-phase I/O model: a [`Policy`] over the `sio-fskit`
//! backend shell.
//!
//! `Cio` keeps PFS's metadata semantics — the shell serializes opens,
//! creates, closes, and `lsize` through one metadata server, serializes
//! seeks on shared files at the file's metadata owner, and parks `Sync`
//! commits until the file drains — and replaces the *data path* with
//! two-phase collective transfers:
//!
//! * **gather** — a data operation on a shared file does not go to the
//!   I/O nodes; it parks in the file's gather bucket. When every current
//!   opener has contributed an operation in the same direction, the group
//!   forms a collective. Single-opener files degenerate to singleton
//!   collectives that dispatch immediately (no exchange, no extra cost).
//! * **phase 1: extent exchange** — the participants allgather 64-byte
//!   extent descriptors over the 2-D mesh (a log₂-stage broadcast tree),
//!   compute the conforming partition ([`crate::partition`]) of the
//!   aggregate request into stripe-aligned file domains, and shuffle member
//!   data to one elected aggregator per touched I/O node (cost: the
//!   longest member→aggregator mesh message). The whole phase is a real
//!   simulated delay, traced as an `I/O Wait` interval on the lead node.
//! * **phase 2: aggregated dispatch** — each aggregator issues *one large
//!   sequential transfer per file domain* through the shared segment pump
//!   under the buddy-failover policy, so retry, failover, crash, and
//!   timeout behavior is exactly the substrate's. When the last domain
//!   lands, every member completes with its own byte count and client copy
//!   cost; a typed [`IoFault`] on the collective propagates to every
//!   participant.
//!
//! Mode semantics under collectives: `M_UNIX`/`M_ASYNC` resolve per-node
//! pointers at issue time (the conforming partition supplies the atomicity
//! `M_UNIX` otherwise buys with a serialized RPC); `M_LOG` advances the
//! shared pointer at issue time (the exchange orders the group, replacing
//! pointer-token serialization); `M_RECORD` uses the record-interleaving
//! formula; `M_SYNC` assigns shared-pointer offsets in node-rank order at
//! collective formation; `M_GLOBAL` reads one shared offset for the whole
//! group.
//!
//! Contract: on a shared file, every opener participates in every
//! collective round between synchronization points (the shape of every
//! shipped workload). A `Close` shrinks the membership a collective waits
//! for, and a `Sync` force-flushes the file's write gather, so partial
//! groups cannot park a commit forever; a genuinely absent participant
//! surfaces as the engine's blocked-node report, not a silent hang.

use paragon_sim::engine::Sched;
use paragon_sim::program::{IoFault, IoRequest, IoResult, IoToken};
use paragon_sim::{NodeId, SimDuration, SimTime};
use sio_core::event::{IoEvent, IoOp};
use sio_core::hash::FastMap;
use sio_fskit::mode::AccessMode;
use sio_fskit::{data_op_kind, Policy, Substrate};

use crate::partition::{self, Domain, Extent};

/// Assumed wire size of one extent descriptor in the phase-1 allgather.
const DESCRIPTOR_BYTES: u64 = 64;

/// How a gathered member's file offset is resolved at collective formation.
#[derive(Debug, Clone, Copy)]
enum OffsetSpec {
    /// Already resolved at issue time (M_UNIX, M_ASYNC, M_RECORD, M_LOG).
    At(u64),
    /// Shared pointer, assigned in node-rank order at formation (M_SYNC).
    Ordered,
    /// Shared pointer, one offset for the whole group (M_GLOBAL).
    Same,
}

/// One gathered (not yet dispatched) data operation.
#[derive(Debug, Clone, Copy)]
struct Member {
    token: IoToken,
    node: NodeId,
    issued: SimTime,
    is_async: bool,
    bytes: u64,
    spec: OffsetSpec,
}

impl Member {
    /// This member with its offset resolved.
    fn at(&self, offset: u64) -> RMember {
        RMember {
            token: self.token,
            node: self.node,
            issued: self.issued,
            is_async: self.is_async,
            offset,
            bytes: self.bytes,
        }
    }
}

/// A member with its offset resolved and its byte count clamped.
#[derive(Debug, Clone, Copy)]
struct RMember {
    token: IoToken,
    node: NodeId,
    issued: SimTime,
    is_async: bool,
    offset: u64,
    bytes: u64,
}

/// Per-file gather buckets, one per transfer direction (a collective is
/// same-direction by construction).
#[derive(Debug, Default)]
struct Bucket {
    writes: Vec<Member>,
    reads: Vec<Member>,
}

impl Bucket {
    fn side(&mut self, write: bool) -> &mut Vec<Member> {
        if write {
            &mut self.writes
        } else {
            &mut self.reads
        }
    }
}

/// A formed collective waiting out its phase-1 exchange delay.
#[derive(Debug)]
struct PendingExchange {
    file: u32,
    write: bool,
    members: Vec<RMember>,
    domains: Vec<Domain>,
}

/// A dispatched collective: aggregated segments in flight.
#[derive(Debug)]
struct Collective {
    file: u32,
    write: bool,
    members: Vec<RMember>,
    segs_left: u32,
    seg_ids: Vec<u64>,
    /// First fault observed on any aggregated segment.
    fault: Option<IoFault>,
}

/// Collective-machinery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CioStats {
    /// Multi-member collective dispatches.
    pub collectives: u64,
    /// Single-member dispatches (solo opener: no exchange, no delay).
    pub singletons: u64,
    /// Member operations aggregated into multi-member collectives.
    pub members: u64,
    /// Aggregated per-I/O-node transfers issued (phase 2).
    pub aggregated_extents: u64,
    /// Summed phase-1 delay (descriptor allgather + data shuffle).
    pub exchange: SimDuration,
    /// Collectives force-flushed with partial membership (`Sync`/`Close`).
    pub flushed_partial: u64,
}

/// The collective two-phase I/O policy. Run it as `FsShell<Cio>`.
#[derive(Debug, Default)]
pub struct Cio {
    /// Per-file gather buckets.
    gather: FastMap<u32, Bucket>,
    /// Collectives waiting out their exchange delay (timer id → group).
    exchange: FastMap<u64, PendingExchange>,
    /// Dispatched collectives (collective id → state).
    collectives: FastMap<u64, Collective>,
    next_coll: u64,
    /// Armed per-collective deadline timers (timer id → collective id).
    timeout_timers: FastMap<u64, u64>,
    stats: CioStats,
}

impl Cio {
    /// Collective-machinery counters.
    pub fn stats(&self) -> CioStats {
        self.stats
    }

    /// Complete one member with a zero-byte short software path (nothing
    /// to move: a zero-length write or a read at/past EOF).
    fn complete_empty_member(
        fs: &mut Substrate,
        file: u32,
        write: bool,
        m: RMember,
        now: SimTime,
        sched: &mut Sched,
    ) {
        let done = now + SimDuration::from_micros(200);
        if !m.is_async {
            fs.recorder.record(
                IoEvent::new(m.node, file, data_op_kind(write, false))
                    .span(m.issued.nanos(), done.nanos())
                    .extent(m.offset, 0),
            );
        }
        sched.complete_io(
            m.token,
            done,
            IoResult {
                bytes: 0,
                queued: SimDuration::ZERO,
                service: done.since(m.issued),
                fault: None,
            },
        );
    }

    /// Fail every member of a collective with a typed fault.
    fn fail_collective(
        &mut self,
        fs: &mut Substrate,
        cid: u64,
        fault: IoFault,
        now: SimTime,
        sched: &mut Sched,
    ) {
        let Some(c) = self.collectives.remove(&cid) else {
            return;
        };
        for id in &c.seg_ids {
            fs.pump.forget(*id);
        }
        self.fail_members(fs, c.file, c.write, &c.members, fault, now, sched);
    }

    /// Complete `members` with a typed fault and no data.
    #[allow(clippy::too_many_arguments)]
    fn fail_members(
        &mut self,
        fs: &mut Substrate,
        file: u32,
        write: bool,
        members: &[RMember],
        fault: IoFault,
        now: SimTime,
        sched: &mut Sched,
    ) {
        let op = data_op_kind(write, false);
        for m in members {
            if !m.is_async {
                fs.recorder.record(
                    IoEvent::new(m.node, file, op)
                        .span(m.issued.nanos(), now.nanos())
                        .extent(m.offset, 0),
                );
            }
            sched.complete_io(
                m.token,
                now,
                IoResult {
                    bytes: 0,
                    queued: SimDuration::ZERO,
                    service: now.since(m.issued),
                    fault: Some(fault),
                },
            );
        }
        fs.drain_sync_waiters(self, file, now, sched);
    }

    /// Complete a finished collective: every member pays its own client
    /// copy cost and reports its own byte count; a collective-level fault
    /// (redundancy-exhausted array) reaches every member.
    fn finish_collective(
        &mut self,
        fs: &mut Substrate,
        c: Collective,
        now: SimTime,
        sched: &mut Sched,
    ) {
        let rate = fs.cfg.io_sw.client_byte_rate;
        let op = data_op_kind(c.write, false);
        for m in &c.members {
            let done = fs.client.copy_done(m.node, now, m.bytes, rate);
            if !m.is_async {
                fs.recorder.record(
                    IoEvent::new(m.node, c.file, op)
                        .span(m.issued.nanos(), done.nanos())
                        .extent(m.offset, m.bytes),
                );
            }
            sched.complete_io(
                m.token,
                done,
                IoResult {
                    bytes: m.bytes,
                    queued: SimDuration::ZERO,
                    service: done.since(m.issued),
                    fault: c.fault,
                },
            );
        }
        fs.drain_sync_waiters(self, c.file, now, sched);
    }

    /// Phase 2: issue one aggregated sequential transfer per file domain.
    fn dispatch_collective(
        &mut self,
        fs: &mut Substrate,
        now: SimTime,
        x: PendingExchange,
        sched: &mut Sched,
    ) {
        let PendingExchange {
            file,
            write,
            members,
            domains,
        } = x;
        let slot_base = fs.files.slot_base(file);
        if domains
            .iter()
            .any(|d| slot_base + d.local_offset + d.bytes > fs.cfg.array_capacity)
        {
            // The aggregate overflows its allocator slot: a typed data-path
            // failure on every member, not a crash of the run.
            fs.fault_stats.unavailable += members.len() as u64;
            self.fail_members(fs, file, write, &members, IoFault::Unavailable, now, sched);
            return;
        }
        let cid = self.next_coll;
        self.next_coll += 1;
        let mut reqs = Vec::with_capacity(domains.len());
        let mut seg_ids = Vec::with_capacity(domains.len());
        for d in &domains {
            let req = fs
                .pump
                .stage_seg(slot_base + d.local_offset, d.bytes, write, cid);
            seg_ids.push(req.id);
            reqs.push((d.io_node, req));
        }
        self.stats.aggregated_extents += reqs.len() as u64;
        self.collectives.insert(
            cid,
            Collective {
                file,
                write,
                members,
                segs_left: reqs.len() as u32,
                seg_ids,
                fault: None,
            },
        );
        for (io, req) in reqs {
            self.submit_or_refuse(fs, now, io, req, 0, sched);
        }
        if fs.faults_enabled() && self.collectives.contains_key(&cid) {
            // Hard deadline: no collective hangs forever under a fault
            // schedule with no recovery.
            let id = fs.arm_timer(now + fs.fault_params.request_timeout, sched);
            self.timeout_timers.insert(id, cid);
        }
    }

    /// Form a collective from gathered members: resolve offsets, clamp
    /// byte counts, compute the conforming partition, charge the phase-1
    /// exchange, and dispatch (immediately for singletons, after the
    /// exchange delay otherwise).
    #[allow(clippy::too_many_arguments)]
    fn form_collective(
        &mut self,
        fs: &mut Substrate,
        file: u32,
        write: bool,
        members: Vec<Member>,
        forced: bool,
        now: SimTime,
        sched: &mut Sched,
    ) {
        // Distinct participating nodes, sorted: the aggregator electorate.
        let mut parts: Vec<NodeId> = members.iter().map(|m| m.node).collect();
        parts.sort_unstable();
        parts.dedup();
        let p = parts.len();
        if forced && p < fs.files.get(file).opener_count() {
            self.stats.flushed_partial += 1;
        }

        // Resolve offsets. `Ordered` assigns the shared pointer in
        // node-rank order; `Same` advances it once for the whole group.
        let st = fs.files.state(file);
        let resolved: Vec<RMember> = match members[0].spec {
            OffsetSpec::At(_) => members
                .iter()
                .map(|m| {
                    let OffsetSpec::At(offset) = m.spec else {
                        unreachable!("mixed offset specs in one bucket")
                    };
                    m.at(offset)
                })
                .collect(),
            OffsetSpec::Ordered => {
                let mut ordered = members.clone();
                ordered.sort_by_key(|m| st.rank_of(m.node));
                ordered
                    .iter()
                    .map(|m| {
                        let offset = st.shared_pos;
                        st.shared_pos += m.bytes;
                        m.at(offset)
                    })
                    .collect()
            }
            OffsetSpec::Same => {
                let bytes = members[0].bytes;
                debug_assert!(members.iter().all(|m| m.bytes == bytes));
                let offset = st.shared_pos;
                st.shared_pos += bytes;
                members.iter().map(|m| m.at(offset)).collect()
            }
        };

        // Clamp: writes extend the file, reads clamp to EOF. Members left
        // with nothing to move complete on the short software path.
        let mut live: Vec<RMember> = Vec::with_capacity(resolved.len());
        for mut m in resolved {
            let st = fs.files.state(file);
            if write {
                st.extend_to(m.offset + m.bytes);
            } else {
                m.bytes = m.bytes.min(st.len.saturating_sub(m.offset));
            }
            if m.bytes == 0 {
                Cio::complete_empty_member(fs, file, write, m, now, sched);
            } else {
                live.push(m);
            }
        }
        if live.is_empty() {
            fs.drain_sync_waiters(self, file, now, sched);
            return;
        }

        // The conforming partition of the aggregate request.
        let extents: Vec<Extent> = live
            .iter()
            .map(|m| Extent {
                offset: m.offset,
                bytes: m.bytes,
            })
            .collect();
        let domains = partition::partition(&fs.cfg.layout, &extents);
        let pending = PendingExchange {
            file,
            write,
            members: live,
            domains,
        };

        if p <= 1 {
            // Solo opener: a singleton collective has nothing to exchange.
            self.stats.singletons += 1;
            self.dispatch_collective(fs, now, pending, sched);
            return;
        }

        // Phase 1: descriptor allgather over the mesh, then the data
        // shuffle — every member ships its overlap with each domain to
        // that domain's aggregator (writes) or receives it (reads); the
        // phase ends when the longest member↔aggregator message lands.
        // Descriptor allgather touches every region, so it pays the worst
        // link quality in force; a healthy link state is bit-identical to
        // the plain broadcast.
        let descriptors = fs.cfg.mesh.broadcast_time_via(
            &fs.cfg.comm,
            fs.links.worst(),
            p as u32,
            DESCRIPTOR_BYTES * members.len() as u64,
        );
        let mut shuffle = SimDuration::ZERO;
        for d in &pending.domains {
            let aggregator = parts[d.io_node as usize % p];
            for m in &pending.members {
                if m.node == aggregator {
                    continue;
                }
                let ov = d.overlap(Extent {
                    offset: m.offset,
                    bytes: m.bytes,
                });
                if ov > 0 {
                    let hops = fs.cfg.mesh.compute_hops(m.node, aggregator);
                    // The shuffle message lands in the domain's I/O-node
                    // region: it pays that region's link quality.
                    let q = fs.links.region(d.io_node);
                    shuffle = shuffle.max(fs.cfg.mesh.msg_time_via(&fs.cfg.comm, q, hops, ov));
                }
            }
        }
        let exchange = descriptors + shuffle;
        let ready = now + exchange;
        self.stats.collectives += 1;
        self.stats.members += pending.members.len() as u64;
        self.stats.exchange += exchange;

        // The exchange is a real interval on the mesh: trace it on the
        // lead (lowest-numbered) participant, spanning formation → ready,
        // with the aggregate extent.
        let union_lo = pending
            .domains
            .iter()
            .flat_map(|d| d.pieces.first())
            .map(|e| e.offset)
            .min()
            .unwrap_or(0);
        let total: u64 = pending.domains.iter().map(|d| d.bytes).sum();
        fs.recorder.record(
            IoEvent::new(parts[0], file, IoOp::IoWait)
                .span(now.nanos(), ready.nanos())
                .extent(union_lo, total),
        );

        if ready > now {
            let id = fs.arm_timer(ready, sched);
            self.exchange.insert(id, pending);
        } else {
            self.dispatch_collective(fs, now, pending, sched);
        }
    }

    /// Trigger check: when every current opener has contributed to the
    /// bucket (or `forced`), take it and form the collective.
    fn try_trigger(
        &mut self,
        fs: &mut Substrate,
        file: u32,
        write: bool,
        forced: bool,
        now: SimTime,
        sched: &mut Sched,
    ) {
        let openers = fs.files.get(file).opener_count();
        let Some(bucket) = self.gather.get_mut(&file) else {
            return;
        };
        let members = bucket.side(write);
        if members.is_empty() {
            return;
        }
        if !forced {
            let mut nodes: Vec<NodeId> = members.iter().map(|m| m.node).collect();
            nodes.sort_unstable();
            nodes.dedup();
            if nodes.len() < openers {
                return;
            }
        }
        let taken = std::mem::take(members);
        self.form_collective(fs, file, write, taken, forced, now, sched);
    }
}

impl Policy for Cio {
    /// Gather a data operation according to the file's mode, then check
    /// the collective trigger.
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
        let mode = fs.files.get(file).mode.unwrap_or_else(|| {
            panic!(
                "data op on closed file {} by node {node}",
                fs.files.get(file).spec.name
            )
        });
        let st = fs.files.state(file);
        let spec = match mode {
            AccessMode::MUnix | AccessMode::MAsync => {
                let pos = st.pos.entry(node).or_insert(0);
                let offset = req.offset.unwrap_or(*pos);
                *pos = offset + req.bytes;
                // No atomic-write RPC: the conforming partition itself
                // guarantees M_UNIX's non-interleaving of concurrent
                // writers.
                OffsetSpec::At(offset)
            }
            AccessMode::MRecord => {
                let rs = *st.record_size.get_or_insert(req.bytes);
                assert_eq!(
                    req.bytes, rs,
                    "M_RECORD requires fixed-size records ({rs} B) on {}",
                    st.spec.name
                );
                let n = st.participants().len() as u64;
                let rank = st.rank_of(node);
                let k = st.op_count.entry(node).or_insert(0);
                let record_index = *k * n + rank;
                *k += 1;
                OffsetSpec::At(record_index * rs)
            }
            AccessMode::MLog => {
                // The exchange orders the group; the shared pointer
                // advances in arrival order with no token serialization.
                let offset = st.shared_pos;
                st.shared_pos += req.bytes;
                OffsetSpec::At(offset)
            }
            AccessMode::MSync => OffsetSpec::Ordered,
            AccessMode::MGlobal => OffsetSpec::Same,
        };
        // Trace the async issue itself, with the offset the request
        // resolved to (shared-pointer specs resolve at formation; the
        // issue event reports the current shared position).
        if is_async {
            let resolved = match spec {
                OffsetSpec::At(o) => o,
                OffsetSpec::Ordered | OffsetSpec::Same => st.shared_pos,
            };
            let issue_end = now + fs.cfg.io_sw.async_issue;
            fs.recorder.record(
                IoEvent::new(node, file, IoOp::AsyncRead)
                    .span(now.nanos(), issue_end.nanos())
                    .extent(resolved, req.bytes),
            );
        }
        self.gather
            .entry(file)
            .or_default()
            .side(write)
            .push(Member {
                token,
                node,
                issued: now,
                is_async,
                bytes: req.bytes,
                spec,
            });
        self.try_trigger(fs, file, write, false, now, sched);
    }

    fn seg_done(
        &mut self,
        fs: &mut Substrate,
        cid: u64,
        data_lost: bool,
        now: SimTime,
        sched: &mut Sched,
    ) {
        let Some(c) = self.collectives.get_mut(&cid) else {
            debug_assert!(fs.faults_enabled(), "collective missing");
            return;
        };
        if data_lost {
            fs.fault_stats.data_loss_segments += 1;
            c.fault = Some(IoFault::DataLoss);
        }
        c.segs_left -= 1;
        if c.segs_left == 0 {
            if let Some(c) = self.collectives.remove(&cid) {
                self.finish_collective(fs, c, now, sched);
            }
        }
    }

    /// Every member of the collective counts as one unavailable request.
    fn seg_refused(&mut self, fs: &mut Substrate, cid: u64, now: SimTime, sched: &mut Sched) {
        let members = self
            .collectives
            .get(&cid)
            .map_or(1, |c| c.members.len() as u64);
        fs.fault_stats.unavailable += members;
        self.fail_collective(fs, cid, IoFault::Unavailable, now, sched);
    }

    /// A gathered write member, a write collective in its exchange phase,
    /// or aggregated write segments on the I/O nodes.
    fn has_outstanding_writes(&self, file: u32) -> bool {
        self.collectives.values().any(|c| c.file == file && c.write)
            || self.exchange.values().any(|x| x.file == file && x.write)
            || self.gather.get(&file).is_some_and(|b| !b.writes.is_empty())
    }

    /// Collective deadlines and completed phase-1 exchanges.
    fn on_timer(
        &mut self,
        fs: &mut Substrate,
        now: SimTime,
        timer: u64,
        sched: &mut Sched,
    ) -> bool {
        if let Some(cid) = self.timeout_timers.remove(&timer) {
            if self.collectives.contains_key(&cid) {
                fs.fault_stats.timeouts += 1;
                self.fail_collective(fs, cid, IoFault::Timeout, now, sched);
            }
        } else if let Some(x) = self.exchange.remove(&timer) {
            self.dispatch_collective(fs, now, x, sched);
        } else {
            return false;
        }
        true
    }

    /// A singleton asynchronous write collective dispatched straight
    /// through the phase-2 path, so drains inherit the conforming
    /// partition, pump staging, backoff/failover, and the hard deadline —
    /// but record no application-visible trace event (the member is
    /// `is_async`) and are not counted in the application-collective stats.
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
        if bytes == 0 {
            sched.complete_io(
                token,
                now,
                IoResult {
                    bytes: 0,
                    queued: SimDuration::ZERO,
                    service: SimDuration::ZERO,
                    fault: None,
                },
            );
            return;
        }
        let members = vec![RMember {
            token,
            node,
            issued: now,
            is_async: true,
            offset,
            bytes,
        }];
        let domains = partition::partition(&fs.cfg.layout, &[Extent { offset, bytes }]);
        let x = PendingExchange {
            file,
            write: true,
            members,
            domains,
        };
        self.dispatch_collective(fs, now, x, sched);
    }

    /// The membership a collective waits for just shrank: a bucket the
    /// remaining openers have all contributed to can now go.
    fn on_close(
        &mut self,
        fs: &mut Substrate,
        now: SimTime,
        _node: NodeId,
        file: u32,
        sched: &mut Sched,
    ) {
        self.try_trigger(fs, file, true, false, now, sched);
        self.try_trigger(fs, file, false, false, now, sched);
    }

    /// A commit must not park behind members that will never trigger:
    /// force-flush the file's write gather first.
    fn on_sync(&mut self, fs: &mut Substrate, now: SimTime, file: u32, sched: &mut Sched) {
        self.try_trigger(fs, file, true, true, now, sched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_sim::mesh::Mesh;
    use paragon_sim::program::{NodeProgram, ScriptOp, ScriptProgram};
    use paragon_sim::{Engine, FaultSchedule, MachineConfig};
    use sio_core::trace::{Trace, TraceSink};
    use sio_fskit::{FileSpec, FsShell};

    fn run_engine(
        machine: &MachineConfig,
        files: Vec<FileSpec>,
        scripts: Vec<Vec<ScriptOp>>,
    ) -> (Engine<'static, FsShell<Cio>>, paragon_sim::EngineReport) {
        let mut cio = FsShell::new(
            machine,
            TraceSink::new("test"),
            FaultSchedule::new(),
            Cio::default(),
        );
        for f in files {
            cio.register(f);
        }
        let programs: Vec<Box<dyn NodeProgram>> = scripts
            .into_iter()
            .map(|s| Box::new(ScriptProgram::new(s)) as Box<dyn NodeProgram>)
            .collect();
        let mesh = Mesh::for_nodes(machine.compute_nodes, machine.io_nodes);
        let mut engine = Engine::new(mesh, machine.comm, programs, cio);
        engine.set_default_watchdog();
        let report = engine.run();
        assert!(report.clean(), "blocked nodes: {:?}", report.blocked);
        (engine, report)
    }

    fn run_scripts(
        machine: &MachineConfig,
        files: Vec<FileSpec>,
        scripts: Vec<Vec<ScriptOp>>,
    ) -> (Trace, paragon_sim::EngineReport) {
        let (engine, report) = run_engine(machine, files, scripts);
        let mut cio = engine.into_service();
        cio.sink_mut()
            .set_run_info(machine.compute_nodes, report.wall.nanos());
        (cio.finish_trace(), report)
    }

    fn machine() -> MachineConfig {
        MachineConfig::tiny(4, 2)
    }

    fn open(file: u32, mode: AccessMode) -> ScriptOp {
        ScriptOp::Io(IoRequest::open(file, mode.code()))
    }

    #[test]
    fn solo_roundtrip_is_all_singletons() {
        let script = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::Io(IoRequest::write(0, 100_000)),
            ScriptOp::Io(IoRequest::seek(0, 0)),
            ScriptOp::Io(IoRequest::read(0, 100_000)),
            ScriptOp::Io(IoRequest::close(0)),
        ];
        let (engine, report) = run_engine(&machine(), vec![FileSpec::output("f")], vec![script]);
        let stats = engine.service().policy().stats();
        assert_eq!(stats.singletons, 2);
        assert_eq!(stats.collectives, 0);
        assert_eq!(stats.exchange, SimDuration::ZERO);
        let trace = engine.into_service().finish_trace();
        assert_eq!(trace.of_op(IoOp::Write).count(), 1);
        assert_eq!(trace.of_op(IoOp::Read).next().unwrap().bytes, 100_000);
        // Solo collectives have nothing to exchange: no I/O-wait interval.
        assert_eq!(trace.of_op(IoOp::IoWait).count(), 0);
        assert!(report.wall > SimTime::ZERO);
    }

    #[test]
    fn interleaved_writers_aggregate_to_one_transfer_per_io_node() {
        // 4 nodes write 32 KB each at interleaved offsets covering
        // [0, 128 KB): two 64 KB stripe units, one per I/O node. The
        // collective must move the whole region as ONE aggregated
        // sequential transfer per I/O node.
        let mk = |node: u64| {
            vec![
                open(0, AccessMode::MUnix),
                ScriptOp::Barrier(0),
                ScriptOp::Io(IoRequest::seek(0, node * 32 * 1024)),
                ScriptOp::Io(IoRequest::write(0, 32 * 1024)),
            ]
        };
        let (engine, _) = run_engine(
            &machine(),
            vec![FileSpec::output("stage")],
            (0..4).map(mk).collect(),
        );
        let stats = engine.service().policy().stats();
        assert_eq!(stats.collectives, 1);
        assert_eq!(stats.members, 4);
        assert_eq!(stats.aggregated_extents, 2);
        assert!(stats.exchange > SimDuration::ZERO);
        assert_eq!(engine.service().segments_completed(), 2);
        let loads = engine.service().node_loads();
        assert_eq!(loads.len(), 2);
        for l in &loads {
            assert_eq!(l.write_reqs, 1, "one aggregated request per node");
            assert_eq!(l.write_bytes, 64 * 1024);
        }
        let trace = engine.into_service().finish_trace();
        // Every member still sees its own 32 KB write at its own offset.
        let mut writes: Vec<(u64, u64)> = trace
            .of_op(IoOp::Write)
            .map(|e| (e.offset, e.bytes))
            .collect();
        writes.sort_unstable();
        let expect: Vec<(u64, u64)> = (0..4u64).map(|n| (n * 32 * 1024, 32 * 1024)).collect();
        assert_eq!(writes, expect);
        // All members complete at the same instant (same aggregate, same
        // client copy size).
        let ends: Vec<u64> = trace.of_op(IoOp::Write).map(|e| e.end).collect();
        assert!(ends.iter().all(|&e| e == ends[0]), "{ends:?}");
    }

    #[test]
    fn exchange_is_traced_as_iowait_on_the_lead_node() {
        let mk = |node: u64| {
            vec![
                open(0, AccessMode::MUnix),
                ScriptOp::Barrier(0),
                ScriptOp::Io(IoRequest::seek(0, node * 8192)),
                ScriptOp::Io(IoRequest::write(0, 8192)),
            ]
        };
        let (engine, _) = run_engine(
            &machine(),
            vec![FileSpec::output("x")],
            (0..4).map(mk).collect(),
        );
        let exchange = engine.service().policy().stats().exchange;
        let trace = engine.into_service().finish_trace();
        let waits: Vec<_> = trace.of_op(IoOp::IoWait).collect();
        assert_eq!(waits.len(), 1);
        assert_eq!(waits[0].node, 0, "exchange traced on the lead member");
        assert_eq!(waits[0].duration(), exchange.nanos());
        assert_eq!(waits[0].bytes, 4 * 8192, "aggregate extent");
    }

    #[test]
    fn close_shrinks_the_membership_a_collective_waits_for() {
        // Node 1's write gathers while node 0 still has the file open;
        // node 0's close must release it as a singleton.
        let s0 = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::Compute(SimDuration::from_millis(10)),
            ScriptOp::Io(IoRequest::close(0)),
        ];
        let s1 = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::Io(IoRequest::write(0, 1000)),
        ];
        let (trace, _) = run_scripts(&machine(), vec![FileSpec::output("f")], vec![s0, s1]);
        let wr = trace.of_op(IoOp::Write).next().unwrap();
        assert_eq!((wr.node, wr.bytes), (1, 1000));
        assert!(
            wr.duration() >= SimDuration::from_millis(10).nanos(),
            "write must have waited for the close: {}",
            wr.duration()
        );
    }

    #[test]
    fn sync_force_flushes_a_partial_write_gather() {
        // Node 0 syncs while its async write sits in a gather the second
        // opener will never contribute to; the commit must not park
        // forever.
        let s0 = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::IoAsync(IoRequest::write(0, 4096)),
            ScriptOp::Io(IoRequest::sync(0)),
            ScriptOp::WaitOldest,
            ScriptOp::Io(IoRequest::close(0)),
        ];
        let s1 = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::Compute(SimDuration::from_millis(50)),
            ScriptOp::Io(IoRequest::close(0)),
        ];
        let (engine, _) = run_engine(&machine(), vec![FileSpec::output("f")], vec![s0, s1]);
        assert_eq!(engine.service().policy().stats().flushed_partial, 1);
        assert_eq!(engine.service().file_len(0), 4096);
        let trace = engine.into_service().finish_trace();
        // The commit interval is traced and spans the flushed write.
        assert_eq!(trace.of_op(IoOp::Flush).count(), 1);
    }

    #[test]
    fn reads_clamp_to_eof() {
        let script = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::Io(IoRequest::write(0, 500)),
            ScriptOp::Io(IoRequest::seek(0, 0)),
            ScriptOp::Io(IoRequest::read(0, 10_000)),
            ScriptOp::Io(IoRequest::read(0, 10_000)), // past EOF: 0 bytes
        ];
        let (trace, _) = run_scripts(&machine(), vec![FileSpec::output("f")], vec![script]);
        let sizes: Vec<u64> = trace.of_op(IoOp::Read).map(|e| e.bytes).collect();
        assert_eq!(sizes, vec![500, 0]);
    }

    #[test]
    fn mrecord_interleaves_records_in_node_order() {
        let mk = |_node: u32| {
            vec![
                open(0, AccessMode::MRecord),
                ScriptOp::Barrier(0),
                ScriptOp::Io(IoRequest::write(0, 2048)),
                ScriptOp::Io(IoRequest::write(0, 2048)),
            ]
        };
        let (trace, _) = run_scripts(
            &MachineConfig::tiny(3, 2),
            vec![FileSpec::output("rec")],
            vec![mk(0), mk(1), mk(2)],
        );
        let mut offs: Vec<(u32, u64)> = trace
            .of_op(IoOp::Write)
            .map(|e| (e.node, e.offset))
            .collect();
        offs.sort_unstable();
        assert_eq!(
            offs,
            vec![
                (0, 0),
                (0, 3 * 2048),
                (1, 2048),
                (1, 4 * 2048),
                (2, 2 * 2048),
                (2, 5 * 2048)
            ]
        );
    }

    #[test]
    fn mlog_shared_pointer_packs_variable_records() {
        let mk = |bytes: u64| {
            vec![
                open(0, AccessMode::MLog),
                ScriptOp::Barrier(0),
                ScriptOp::Io(IoRequest::write(0, bytes)),
            ]
        };
        let (trace, _) = run_scripts(
            &MachineConfig::tiny(3, 2),
            vec![FileSpec::output("log")],
            vec![mk(100), mk(200), mk(300)],
        );
        let mut extents: Vec<(u64, u64)> = trace
            .of_op(IoOp::Write)
            .map(|e| (e.offset, e.bytes))
            .collect();
        extents.sort_unstable();
        let mut expect_off = 0;
        for (off, bytes) in extents {
            assert_eq!(off, expect_off);
            expect_off += bytes;
        }
        assert_eq!(expect_off, 600);
    }

    #[test]
    fn msync_assigns_shared_pointer_in_node_order() {
        // Node 2 issues first; offsets must still come out in rank order.
        let mk = |node: u32| {
            let delay = SimDuration::from_millis(10 * (2 - node) as u64);
            vec![
                open(0, AccessMode::MSync),
                ScriptOp::Barrier(0),
                ScriptOp::Compute(delay),
                ScriptOp::Io(IoRequest::write(0, 1000)),
            ]
        };
        let (trace, _) = run_scripts(
            &MachineConfig::tiny(3, 2),
            vec![FileSpec::output("sync")],
            vec![mk(0), mk(1), mk(2)],
        );
        let mut by_node: Vec<(u32, u64)> = trace
            .of_op(IoOp::Write)
            .map(|e| (e.node, e.offset))
            .collect();
        by_node.sort_unstable();
        assert_eq!(by_node, vec![(0, 0), (1, 1000), (2, 2000)]);
    }

    #[test]
    fn mglobal_coalesces_into_one_physical_read() {
        let mk = || {
            vec![
                open(0, AccessMode::MGlobal),
                ScriptOp::Barrier(0),
                ScriptOp::Io(IoRequest::read(0, 8192)),
                ScriptOp::Io(IoRequest::read(0, 8192)),
            ]
        };
        let (engine, _) = run_engine(
            &machine(),
            vec![FileSpec::input("shared", 1 << 20)],
            (0..4).map(|_| mk()).collect(),
        );
        let segments = engine.service().segments_completed();
        let trace = engine.into_service().finish_trace();
        assert_eq!(trace.of_op(IoOp::Read).count(), 8);
        let mut offs: Vec<u64> = trace.of_op(IoOp::Read).map(|e| e.offset).collect();
        offs.sort_unstable();
        offs.dedup();
        assert_eq!(offs, vec![0, 8192]);
        // One aggregated segment per coalesced read.
        assert_eq!(segments, 2);
    }

    #[test]
    fn shared_seeks_still_serialize_at_the_metadata_owner() {
        let mk = |node: u32| {
            vec![
                open(0, AccessMode::MUnix),
                ScriptOp::Barrier(0),
                ScriptOp::Io(IoRequest::seek(0, node as u64 * 4096)),
            ]
        };
        let (trace, _) = run_scripts(
            &machine(),
            vec![FileSpec::output("shared")],
            vec![mk(0), mk(1)],
        );
        let mut durations: Vec<u64> = trace.of_op(IoOp::Seek).map(|e| e.duration()).collect();
        durations.sort_unstable();
        let rpc = machine().io_sw.seek_shared_rpc.nanos();
        assert!(durations[0] >= rpc);
        assert!(
            durations[1] >= 2 * rpc,
            "second seek must queue: {durations:?}"
        );
    }

    #[test]
    fn async_read_traces_issue_and_iowait() {
        let script = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::IoAsync(IoRequest::read(0, 1 << 20)),
            ScriptOp::WaitOldest,
            ScriptOp::Io(IoRequest::close(0)),
        ];
        let (trace, _) = run_scripts(
            &machine(),
            vec![FileSpec::input("data", 4 << 20)],
            vec![script],
        );
        assert_eq!(trace.of_op(IoOp::AsyncRead).count(), 1);
        assert_eq!(trace.of_op(IoOp::IoWait).count(), 1);
        assert_eq!(trace.of_op(IoOp::Read).count(), 0);
        let issue = trace.of_op(IoOp::AsyncRead).next().unwrap().duration();
        let wait = trace.of_op(IoOp::IoWait).next().unwrap().duration();
        assert!(issue < wait, "issue {issue} !< wait {wait}");
    }

    #[test]
    fn metadata_verbs_match_pfs_semantics() {
        let script = vec![
            open(0, AccessMode::MUnix), // create
            ScriptOp::Io(IoRequest::write(0, 100)),
            ScriptOp::Io(IoRequest::flush(0)),
            ScriptOp::Io(IoRequest::lsize(0)),
            ScriptOp::Io(IoRequest::close(0)),
            open(0, AccessMode::MUnix), // plain open
        ];
        let (trace, _) = run_scripts(&machine(), vec![FileSpec::output("f")], vec![script]);
        assert_eq!(trace.of_op(IoOp::Flush).count(), 1);
        assert_eq!(trace.of_op(IoOp::Lsize).count(), 1);
        let opens: Vec<u64> = trace.of_op(IoOp::Open).map(|e| e.duration()).collect();
        assert!(
            opens[0] > opens[1],
            "create {} !> open {}",
            opens[0],
            opens[1]
        );
    }
}
