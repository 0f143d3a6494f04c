//! Deterministic fault-injection schedules.
//!
//! The CCSF Paragon's I/O nodes each hosted a RAID-3 array (§3.2), so the
//! machine tolerated single-disk failures by design — but the paper's
//! workloads were measured on a healthy machine, and any robustness claim
//! about the reproduction has to come from *controlled* degradation. A
//! [`FaultSchedule`] is a time-ordered list of [`FaultEvent`]s (disk
//! failures, timed rebuild starts, I/O-node stalls and crashes) that the
//! file-system layers inject through the DES timer queue, so a faulted run
//! is exactly as reproducible as a healthy one: same schedule, same seed,
//! same trace, bit for bit.
//!
//! Ordering contract: events apply in `(time, insertion sequence)` order.
//! [`FaultSchedule::merge`] preserves that contract across schedules built
//! independently (stable merge by time; ties resolve in favor of `self`'s
//! events, then `other`'s, each in their original relative order).

use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What happens to the target I/O node when a [`FaultEvent`] fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fail one member disk (data or parity) of the node's RAID-3 array.
    /// A second `DiskFail` on the same array marks it data-lost.
    DiskFail {
        /// Member index, `0..=data_disks` (the last index is parity).
        disk: u32,
    },
    /// Start a timed rebuild of the failed member: the node generates
    /// background rebuild traffic that competes with foreground segments
    /// until the whole member has been re-written.
    DiskRepair,
    /// The node stops making progress for `for_dur`: the in-service segment
    /// (if any) finishes late, and nothing new starts before the stall ends.
    NodeStall {
        /// Length of the stall.
        for_dur: SimDuration,
    },
    /// The node crashes: the in-service and queued segments are lost and the
    /// node rejects submissions until a `NodeRecover` event.
    NodeCrash,
    /// The node comes back (empty queues; the array state survives).
    NodeRecover,
    /// Congest the mesh links of the region serving the target I/O node:
    /// link bandwidth is divided by `bw_div` and hop latency multiplied by
    /// `lat_mult` until a `LinkHeal` on the same region. Multiple degrades
    /// compose by taking the worse multiplier.
    LinkDegrade {
        /// Bandwidth divisor, ≥ 1.
        bw_div: f64,
        /// Hop-latency multiplier, ≥ 1.
        lat_mult: f64,
    },
    /// Restore the region's links to healthy bandwidth and latency.
    LinkHeal,
    /// The metadata replica (the event's `io_node` field is the replica
    /// index: 0 = primary, 1 = buddy) stops serving for `for_dur`; queued
    /// RPCs complete late but never fail.
    MetaStall {
        /// Length of the stall.
        for_dur: SimDuration,
    },
    /// The metadata replica crashes: RPCs fail over to the surviving buddy;
    /// with both replicas down they park with bounded retry and surface
    /// `IoFault::Unavailable` when the retries are exhausted.
    MetaCrash,
    /// The metadata replica comes back.
    MetaRecover,
}

/// Which layer of the machine a [`FaultKind`] strikes. The chaos campaign
/// aggregates availability and latency per domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultDomain {
    /// RAID member-disk failures and rebuilds.
    Disk,
    /// Whole-I/O-node stalls, crashes, recoveries.
    Node,
    /// Mesh-link congestion (bandwidth/latency degradation).
    Link,
    /// Metadata-server outages and stalls.
    Meta,
}

impl FaultDomain {
    /// Stable short label (`disk`/`node`/`link`/`meta`) for reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultDomain::Disk => "disk",
            FaultDomain::Node => "node",
            FaultDomain::Link => "link",
            FaultDomain::Meta => "meta",
        }
    }
}

impl FaultKind {
    /// The fault domain this kind belongs to.
    pub fn domain(&self) -> FaultDomain {
        match self {
            FaultKind::DiskFail { .. } | FaultKind::DiskRepair => FaultDomain::Disk,
            FaultKind::NodeStall { .. } | FaultKind::NodeCrash | FaultKind::NodeRecover => {
                FaultDomain::Node
            }
            FaultKind::LinkDegrade { .. } | FaultKind::LinkHeal => FaultDomain::Link,
            FaultKind::MetaStall { .. } | FaultKind::MetaCrash | FaultKind::MetaRecover => {
                FaultDomain::Meta
            }
        }
    }
}

/// Number of metadata replicas the meta fault domain targets (primary +
/// buddy); `Meta*` events address them through the event's `io_node` field.
pub const META_REPLICAS: u32 = 2;

/// One scheduled fault: `kind` applied to `io_node` at absolute time `at`.
///
/// The `io_node` field is the target index *within the kind's domain*:
/// an I/O-node index for disk and node kinds, a link-region index (one
/// region per I/O node's edge links) for link kinds, and a metadata replica
/// index (`0..`[`META_REPLICAS`]) for meta kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Absolute simulation time at which the fault fires.
    pub at: SimTime,
    /// Target index within the kind's domain (see the struct docs).
    pub io_node: u32,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, time-ordered fault schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Empty schedule (equivalent to a healthy run).
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events in application order: sorted by time, ties in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Append an event, keeping the application-order invariant (stable
    /// insertion: the new event fires after existing events at the same
    /// time).
    pub fn push(&mut self, ev: FaultEvent) -> &mut Self {
        let at = ev.at;
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, ev);
        self
    }

    /// Schedule a member-disk failure.
    pub fn disk_fail(&mut self, at: SimTime, io_node: u32, disk: u32) -> &mut Self {
        self.push(FaultEvent {
            at,
            io_node,
            kind: FaultKind::DiskFail { disk },
        })
    }

    /// Schedule the start of a timed rebuild on a degraded array.
    pub fn disk_repair(&mut self, at: SimTime, io_node: u32) -> &mut Self {
        self.push(FaultEvent {
            at,
            io_node,
            kind: FaultKind::DiskRepair,
        })
    }

    /// Schedule a node stall of length `for_dur`.
    pub fn node_stall(&mut self, at: SimTime, io_node: u32, for_dur: SimDuration) -> &mut Self {
        self.push(FaultEvent {
            at,
            io_node,
            kind: FaultKind::NodeStall { for_dur },
        })
    }

    /// Schedule a node crash.
    pub fn node_crash(&mut self, at: SimTime, io_node: u32) -> &mut Self {
        self.push(FaultEvent {
            at,
            io_node,
            kind: FaultKind::NodeCrash,
        })
    }

    /// Schedule a node recovery.
    pub fn node_recover(&mut self, at: SimTime, io_node: u32) -> &mut Self {
        self.push(FaultEvent {
            at,
            io_node,
            kind: FaultKind::NodeRecover,
        })
    }

    /// Schedule link congestion on `region` (the edge links serving I/O
    /// node `region`): bandwidth ÷ `bw_div`, hop latency × `lat_mult`.
    pub fn link_degrade(
        &mut self,
        at: SimTime,
        region: u32,
        bw_div: f64,
        lat_mult: f64,
    ) -> &mut Self {
        assert!(
            bw_div >= 1.0 && bw_div.is_finite() && lat_mult >= 1.0 && lat_mult.is_finite(),
            "link degradation multipliers must be finite and ≥ 1 (got ÷{bw_div}, ×{lat_mult})"
        );
        self.push(FaultEvent {
            at,
            io_node: region,
            kind: FaultKind::LinkDegrade { bw_div, lat_mult },
        })
    }

    /// Schedule the region's links back to healthy.
    pub fn link_heal(&mut self, at: SimTime, region: u32) -> &mut Self {
        self.push(FaultEvent {
            at,
            io_node: region,
            kind: FaultKind::LinkHeal,
        })
    }

    /// Schedule a metadata-replica stall (`replica` 0 = primary, 1 = buddy).
    pub fn meta_stall(&mut self, at: SimTime, replica: u32, for_dur: SimDuration) -> &mut Self {
        self.push(FaultEvent {
            at,
            io_node: replica,
            kind: FaultKind::MetaStall { for_dur },
        })
    }

    /// Schedule a metadata-replica crash.
    pub fn meta_crash(&mut self, at: SimTime, replica: u32) -> &mut Self {
        self.push(FaultEvent {
            at,
            io_node: replica,
            kind: FaultKind::MetaCrash,
        })
    }

    /// Schedule a metadata-replica recovery.
    pub fn meta_recover(&mut self, at: SimTime, replica: u32) -> &mut Self {
        self.push(FaultEvent {
            at,
            io_node: replica,
            kind: FaultKind::MetaRecover,
        })
    }

    /// Stable merge of two schedules: the result applies every event of both
    /// in time order; at equal times `self`'s events fire first, then
    /// `other`'s, each group keeping its original relative order.
    pub fn merge(&self, other: &FaultSchedule) -> FaultSchedule {
        let mut events = Vec::with_capacity(self.events.len() + other.events.len());
        let (mut a, mut b) = (
            self.events.iter().peekable(),
            other.events.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => {
                    if x.at <= y.at {
                        events.push(*a.next().unwrap());
                    } else {
                        events.push(*b.next().unwrap());
                    }
                }
                (Some(_), None) => events.push(*a.next().unwrap()),
                (None, Some(_)) => events.push(*b.next().unwrap()),
                (None, None) => break,
            }
        }
        FaultSchedule { events }
    }

    /// Seeded schedule of `count` transient node stalls scattered uniformly
    /// over `(0, horizon)` across `io_nodes` nodes — a reproducible source of
    /// "background flakiness" for robustness sweeps. Same seed, same
    /// schedule.
    pub fn scattered_stalls(
        seed: u64,
        io_nodes: u32,
        count: usize,
        horizon: SimDuration,
        stall: SimDuration,
    ) -> FaultSchedule {
        assert!(io_nodes > 0, "need at least one i/o node");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = FaultSchedule::new();
        for _ in 0..count {
            let at = SimTime(rng.random_range(1..horizon.nanos().max(2)));
            let node = rng.random_range(0..io_nodes as u64) as u32;
            s.node_stall(at, node, stall);
        }
        s
    }

    /// The canned single-fault schedule used by the X4 "degraded" scenario:
    /// fail member `disk` on every node at `at`.
    pub fn all_disks_fail(at: SimTime, io_nodes: u32, disk: u32) -> FaultSchedule {
        let mut s = FaultSchedule::new();
        for io in 0..io_nodes {
            s.disk_fail(at, io, disk);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_keeps_time_order_with_stable_ties() {
        let mut s = FaultSchedule::new();
        s.node_crash(SimTime(50), 1);
        s.disk_fail(SimTime(10), 0, 0);
        s.node_recover(SimTime(50), 2); // same time as the crash: fires after
        s.disk_repair(SimTime(30), 0);
        let times: Vec<u64> = s.events().iter().map(|e| e.at.0).collect();
        assert_eq!(times, vec![10, 30, 50, 50]);
        assert_eq!(s.events()[2].kind, FaultKind::NodeCrash);
        assert_eq!(s.events()[3].kind, FaultKind::NodeRecover);
    }

    #[test]
    fn merge_is_stable_and_complete() {
        let mut a = FaultSchedule::new();
        a.disk_fail(SimTime(10), 0, 0).node_crash(SimTime(20), 0);
        let mut b = FaultSchedule::new();
        b.node_stall(SimTime(10), 1, SimDuration::from_millis(5))
            .node_recover(SimTime(40), 0);
        let m = a.merge(&b);
        assert_eq!(m.len(), 4);
        let times: Vec<u64> = m.events().iter().map(|e| e.at.0).collect();
        assert_eq!(times, vec![10, 10, 20, 40]);
        // Tie at t=10 resolves in favor of `a`.
        assert_eq!(m.events()[0].kind, FaultKind::DiskFail { disk: 0 });
    }

    #[test]
    fn new_domains_classify_and_keep_time_order() {
        let mut s = FaultSchedule::new();
        s.meta_crash(SimTime(40), 0)
            .link_degrade(SimTime(10), 2, 4.0, 2.0)
            .meta_recover(SimTime(60), 0)
            .link_heal(SimTime(50), 2)
            .meta_stall(SimTime(20), 1, SimDuration::from_millis(5));
        let times: Vec<u64> = s.events().iter().map(|e| e.at.0).collect();
        assert_eq!(times, vec![10, 20, 40, 50, 60]);
        let domains: Vec<FaultDomain> = s.events().iter().map(|e| e.kind.domain()).collect();
        assert_eq!(
            domains,
            vec![
                FaultDomain::Link,
                FaultDomain::Meta,
                FaultDomain::Meta,
                FaultDomain::Link,
                FaultDomain::Meta,
            ]
        );
        assert_eq!(FaultKind::DiskFail { disk: 1 }.domain(), FaultDomain::Disk);
        assert_eq!(FaultKind::NodeCrash.domain(), FaultDomain::Node);
        assert_eq!(FaultDomain::Link.label(), "link");
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn link_degrade_rejects_sub_unity_multipliers() {
        FaultSchedule::new().link_degrade(SimTime(1), 0, 0.5, 1.0);
    }

    #[test]
    fn scattered_stalls_is_seed_deterministic() {
        let h = SimDuration::from_millis(500);
        let d = SimDuration::from_millis(3);
        let a = FaultSchedule::scattered_stalls(9, 4, 16, h, d);
        let b = FaultSchedule::scattered_stalls(9, 4, 16, h, d);
        assert_eq!(a, b);
        assert_ne!(a, FaultSchedule::scattered_stalls(10, 4, 16, h, d));
        assert!(a.events().windows(2).all(|w| w[0].at <= w[1].at));
    }
}
