//! Pluggable file-system backends: the [`FsBackend`] trait every backend
//! implements and the [`Backend`] naming/factory enum, whose
//! [`Backend::NAMES`] lists every shipped backend name.
//!
//! The workload runner ([`crate::workload::run_workload`] and friends) is
//! generic over `Box<dyn FsBackend>`: it registers files, runs the engine,
//! stamps the trace, and harvests counters without knowing which file system
//! served the run. Adding a backend means implementing [`FsBackend`] (on top
//! of the `sio-fskit` substrate), teaching [`Backend::parse`] and
//! [`Backend::build`] about it, and adding its name to [`Backend::NAMES`] —
//! the runner, analysis experiments, conformance suite and chaos campaign
//! pick it up unchanged.

use paragon_sim::engine::{IoService, Sched};
use paragon_sim::program::{IoRequest, IoToken};
use paragon_sim::{FaultSchedule, MachineConfig, NodeId, SimDuration, SimTime};
use sio_blog::{Blog, BlogParams, BlogStats, DrainBackend};
use sio_cio::{Cio, CioStats};
use sio_core::trace::{Trace, TraceSink};
use sio_fskit::{FaultStats, FsShell, MetaStats, NodeLoad, Policy};
use sio_pfs::{FileSpec, Pfs};
use sio_ppfs::{PolicyConfig, Ppfs, PpfsStats};

/// What the workload runner needs from a file-system backend beyond the
/// engine's [`IoService`] hooks: file registration, trace plumbing, and the
/// counters the experiment suites harvest after a run.
///
/// The stats getters default to `None` so a backend only surfaces the
/// counter families it actually keeps.
pub trait FsBackend: IoService {
    /// Register a file; returns its id (registration order = file id).
    fn register_file(&mut self, spec: FileSpec) -> u32;

    /// Declare a file's contents reconstructible from a durable checkpoint
    /// (crash-loss accounting). Default: no-op for backends without
    /// write-behind exposure.
    fn mark_checkpoint_covered(&mut self, file: u32) {
        let _ = file;
    }

    /// Mutable access to the trace sink (run-info stamping, perf events).
    fn sink_mut(&mut self) -> &mut TraceSink;

    /// Consume the backend, freezing its captured trace.
    fn finish_trace(self: Box<Self>) -> Trace;

    /// RAID rebuild work done across all I/O nodes: (chunks, member bytes).
    fn rebuild_totals(&self) -> (u64, u64);

    /// I/O nodes whose arrays are still degraded.
    fn degraded_nodes(&self) -> u32;

    /// PPFS policy counters, when this backend keeps them.
    fn ppfs_stats(&self) -> Option<PpfsStats> {
        None
    }

    /// PFS fault-machinery counters, when this backend keeps them.
    fn pfs_fault_stats(&self) -> Option<FaultStats> {
        None
    }

    /// Metadata-server fault counters (replica failovers, parked-RPC
    /// retries, typed unavailability), when this backend serializes
    /// metadata through the replicated [`sio_fskit::MetaServer`].
    fn meta_stats(&self) -> Option<MetaStats> {
        None
    }

    /// Accepted-request accounting per I/O node (request counts and byte
    /// volumes, split by direction). Empty for backends that don't ride the
    /// shared segment pump.
    fn node_loads(&self) -> Vec<NodeLoad> {
        Vec::new()
    }

    /// Collective-I/O machinery counters, when this backend keeps them.
    fn cio_stats(&self) -> Option<CioStats> {
        None
    }

    /// Burst-log drain-health counters, when this backend is wrapped by the
    /// log tier.
    fn blog_stats(&self) -> Option<BlogStats> {
        None
    }

    /// Accept a coalesced burst-log drain extent as background write
    /// traffic (no application-visible trace event). Only backends that
    /// ride the shared segment pump support drains; the log tier refuses to
    /// wrap anything else at parse time, so reaching the default is a bug.
    #[allow(clippy::too_many_arguments)]
    fn submit_drain(
        &mut self,
        node: NodeId,
        now: SimTime,
        file: u32,
        offset: u64,
        bytes: u64,
        token: IoToken,
        sched: &mut Sched,
    ) {
        let _ = (node, now, file, offset, bytes, token, sched);
        panic!("backend does not support drain traffic");
    }

    /// Whether acknowledged data was lost to exhausted redundancy
    /// (surfaced by the log tier as `DataLoss` on the next `Sync`).
    fn any_data_lost(&self) -> bool {
        false
    }
}

/// A boxed backend can serve as the inner tier under the burst log: drains
/// route through [`FsBackend::submit_drain`], and the log tier traces its
/// absorbed writes into the same sink as the inner backend.
impl DrainBackend for Box<dyn FsBackend> {
    fn submit_drain(
        &mut self,
        node: NodeId,
        now: SimTime,
        file: u32,
        offset: u64,
        bytes: u64,
        token: IoToken,
        sched: &mut Sched,
    ) {
        (**self).submit_drain(node, now, file, offset, bytes, token, sched)
    }

    fn drain_sink(&mut self) -> &mut TraceSink {
        (**self).sink_mut()
    }

    fn any_data_lost(&self) -> bool {
        (**self).any_data_lost()
    }
}

/// A boxed backend is itself an [`IoService`], so the engine can run any
/// shipped backend without monomorphizing per concrete type.
impl IoService for Box<dyn FsBackend> {
    fn submit(
        &mut self,
        node: NodeId,
        now: SimTime,
        req: IoRequest,
        token: IoToken,
        is_async: bool,
        sched: &mut Sched,
    ) {
        (**self).submit(node, now, req, token, is_async, sched)
    }

    fn on_timer(&mut self, now: SimTime, timer: u64, sched: &mut Sched) {
        (**self).on_timer(now, timer, sched)
    }

    fn on_start(&mut self, sched: &mut Sched) {
        (**self).on_start(sched)
    }

    fn issue_cost(&self, node: NodeId, req: &IoRequest) -> SimDuration {
        (**self).issue_cost(node, req)
    }

    fn on_iowait(&mut self, node: NodeId, file: u32, wait_start: SimTime, wait_end: SimTime) {
        (**self).on_iowait(node, file, wait_start, wait_end)
    }

    fn on_run_end(&mut self, now: SimTime) {
        (**self).on_run_end(now)
    }
}

/// The counter families only some policies keep, surfaced through the
/// matching [`FsBackend`] getters of `FsShell<P>`.
trait PolicyCounters: Policy + Sized {
    fn ppfs_stats(_shell: &FsShell<Self>) -> Option<PpfsStats> {
        None
    }

    /// Buddy-failover backends (PFS, CIO) report the shell's fault counters.
    fn fault_stats(shell: &FsShell<Self>) -> Option<FaultStats> {
        Some(shell.fault_stats())
    }

    fn cio_stats(_shell: &FsShell<Self>) -> Option<CioStats> {
        None
    }

    fn mark_checkpoint_covered(&mut self, _file: u32) {}
}

impl PolicyCounters for Pfs {}

impl PolicyCounters for Cio {
    fn cio_stats(shell: &FsShell<Cio>) -> Option<CioStats> {
        Some(shell.policy().stats())
    }
}

impl PolicyCounters for Ppfs {
    fn ppfs_stats(shell: &FsShell<Ppfs>) -> Option<PpfsStats> {
        Some(shell.policy().stats(shell.substrate()))
    }

    fn fault_stats(_shell: &FsShell<Ppfs>) -> Option<FaultStats> {
        None
    }

    fn mark_checkpoint_covered(&mut self, file: u32) {
        Ppfs::mark_checkpoint_covered(self, file)
    }
}

impl<P: PolicyCounters + 'static> FsBackend for FsShell<P> {
    fn register_file(&mut self, spec: FileSpec) -> u32 {
        self.register(spec)
    }

    fn mark_checkpoint_covered(&mut self, file: u32) {
        self.policy_mut().mark_checkpoint_covered(file)
    }

    fn sink_mut(&mut self) -> &mut TraceSink {
        FsShell::sink_mut(self)
    }

    fn finish_trace(self: Box<Self>) -> Trace {
        FsShell::finish_trace(*self)
    }

    fn rebuild_totals(&self) -> (u64, u64) {
        (self.rebuild_chunks_total(), self.rebuilt_bytes_total())
    }

    fn degraded_nodes(&self) -> u32 {
        FsShell::degraded_nodes(self)
    }

    fn ppfs_stats(&self) -> Option<PpfsStats> {
        P::ppfs_stats(self)
    }

    fn pfs_fault_stats(&self) -> Option<FaultStats> {
        P::fault_stats(self)
    }

    fn meta_stats(&self) -> Option<MetaStats> {
        Some(FsShell::meta_stats(self))
    }

    fn node_loads(&self) -> Vec<NodeLoad> {
        FsShell::node_loads(self)
    }

    fn cio_stats(&self) -> Option<CioStats> {
        P::cio_stats(self)
    }

    fn submit_drain(
        &mut self,
        node: NodeId,
        now: SimTime,
        file: u32,
        offset: u64,
        bytes: u64,
        token: IoToken,
        sched: &mut Sched,
    ) {
        FsShell::submit_drain(self, node, now, file, offset, bytes, token, sched)
    }

    fn any_data_lost(&self) -> bool {
        FsShell::any_data_lost(self)
    }
}

/// The log tier over any boxed inner backend is itself a backend: file
/// registration, counters, and fault surfaces forward to the inner tier;
/// the wrapper adds its own drain-health counters.
impl FsBackend for Blog<Box<dyn FsBackend>> {
    fn register_file(&mut self, spec: FileSpec) -> u32 {
        self.inner_mut().register_file(spec)
    }

    fn mark_checkpoint_covered(&mut self, file: u32) {
        self.inner_mut().mark_checkpoint_covered(file)
    }

    fn sink_mut(&mut self) -> &mut TraceSink {
        self.inner_mut().sink_mut()
    }

    fn finish_trace(self: Box<Self>) -> Trace {
        (*self).into_inner().finish_trace()
    }

    fn rebuild_totals(&self) -> (u64, u64) {
        self.inner().rebuild_totals()
    }

    fn degraded_nodes(&self) -> u32 {
        self.inner().degraded_nodes()
    }

    fn ppfs_stats(&self) -> Option<PpfsStats> {
        self.inner().ppfs_stats()
    }

    fn pfs_fault_stats(&self) -> Option<FaultStats> {
        self.inner().pfs_fault_stats()
    }

    fn node_loads(&self) -> Vec<NodeLoad> {
        self.inner().node_loads()
    }

    fn cio_stats(&self) -> Option<CioStats> {
        self.inner().cio_stats()
    }

    fn meta_stats(&self) -> Option<MetaStats> {
        self.inner().meta_stats()
    }

    fn blog_stats(&self) -> Option<BlogStats> {
        Some(self.stats())
    }

    fn any_data_lost(&self) -> bool {
        DrainBackend::any_data_lost(self.inner())
    }
}

/// Which file system serves a workload. This is the *specification* — a
/// cheap, comparable value; [`Backend::build`] turns it into a live
/// [`FsBackend`].
#[derive(Debug, Clone, PartialEq)]
pub enum Backend {
    /// The Intel PFS model (`sio-pfs`).
    Pfs,
    /// The PPFS policy engine with the given configuration (`sio-ppfs`).
    Ppfs(PolicyConfig),
    /// The collective two-phase I/O backend (`sio-cio`).
    Cio,
    /// The host-side burst-log tier (`sio-blog`) in front of an inner
    /// backend. Never nests: `parse` rejects `blog+blog+…`.
    Blog(Box<Backend>, BlogParams),
}

impl Backend {
    /// Every shipped backend name, in the order tools enumerate them. The
    /// chaos campaign picks cell `i`'s backend as `NAMES[i % 9]` and the
    /// `golden_chaos` digests pin that rotation, so `ppfs` and `ppfs-escat`
    /// both stay even though they parse to the same spec: dropping either
    /// would shift every later cell onto a different backend.
    pub const NAMES: [&'static str; 9] = [
        "pfs",
        "ppfs",
        "ppfs-escat",
        "ppfs-pargos",
        "ppfs-wt",
        "cio",
        "blog+pfs",
        "blog+ppfs",
        "blog+cio",
    ];

    /// Parse a backend name — the one place backend names are interpreted.
    /// `ppfs` defaults to the ESCAT-tuned policy; suffixed variants pick the
    /// other calibrated policies.
    pub fn parse(name: &str) -> Option<Backend> {
        if let Some(inner) = name.strip_prefix("blog+") {
            // The log tier wraps a concrete backend, never itself.
            if inner.starts_with("blog") {
                return None;
            }
            let spec = Backend::parse(inner)?;
            return Some(Backend::Blog(Box::new(spec), BlogParams::default()));
        }
        match name {
            "pfs" => Some(Backend::Pfs),
            "ppfs" | "ppfs-escat" => Some(Backend::Ppfs(PolicyConfig::escat_tuned())),
            "ppfs-pargos" => Some(Backend::Ppfs(PolicyConfig::pargos_tuned())),
            "ppfs-wt" => Some(Backend::Ppfs(PolicyConfig::write_through())),
            "cio" => Some(Backend::Cio),
            _ => None,
        }
    }

    /// The backend family name (inverse of [`Backend::parse`] up to
    /// policy details).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Pfs => "pfs",
            Backend::Ppfs(_) => "ppfs",
            Backend::Cio => "cio",
            Backend::Blog(..) => "blog",
        }
    }

    /// Build a live backend over `machine`, tracing into `sink`, with an
    /// injected fault schedule (empty = healthy run).
    pub fn build(
        &self,
        machine: &MachineConfig,
        sink: TraceSink,
        schedule: FaultSchedule,
    ) -> Box<dyn FsBackend> {
        match self {
            Backend::Pfs => Box::new(FsShell::new(machine, sink, schedule, Pfs::default())),
            Backend::Ppfs(policy) => Box::new(FsShell::new(
                machine,
                sink,
                schedule,
                Ppfs::new(machine, *policy),
            )),
            Backend::Cio => Box::new(FsShell::new(machine, sink, schedule, Cio::default())),
            Backend::Blog(inner, params) => {
                Box::new(Blog::new(inner.build(machine, sink, schedule), *params))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_parses_and_builds() {
        let m = MachineConfig::tiny(2, 2);
        for name in Backend::NAMES {
            let spec = Backend::parse(name).unwrap_or_else(|| panic!("unparsed: {name}"));
            let fs = spec.build(&m, TraceSink::new("t"), FaultSchedule::new());
            // Every backend reports healthy arrays at birth.
            assert_eq!(fs.degraded_nodes(), 0, "{name}");
        }
        assert_eq!(Backend::parse("pfs"), Some(Backend::Pfs));
        assert_eq!(Backend::parse("nfs"), None);
        assert_eq!(Backend::Pfs.name(), "pfs");
        assert_eq!(Backend::Ppfs(PolicyConfig::escat_tuned()).name(), "ppfs");
    }

    #[test]
    fn blog_wraps_any_inner_but_never_itself() {
        let wrapped = Backend::parse("blog+pfs").expect("blog+pfs parses");
        assert_eq!(wrapped.name(), "blog");
        assert_eq!(
            wrapped,
            Backend::Blog(Box::new(Backend::Pfs), BlogParams::default())
        );
        assert!(Backend::parse("blog+cio").is_some());
        assert!(Backend::parse("blog+ppfs-pargos").is_some());
        // No nesting, no unknown inner, no bare prefix.
        assert_eq!(Backend::parse("blog+blog+pfs"), None);
        assert_eq!(Backend::parse("blog+nfs"), None);
        assert_eq!(Backend::parse("blog+"), None);
        assert_eq!(Backend::parse("blog"), None);
    }
}
