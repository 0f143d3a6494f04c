//! Calibration constants — every tunable in the machine model, with the
//! paper observation each was tuned against.
//!
//! The reproduction contract (DESIGN.md §3) is *shape, not wall-clock*:
//! operation counts and byte volumes are workload-determined and match the
//! paper's tables near-exactly; the time columns depend on these constants
//! and are tuned to land in the right regime (which operation class
//! dominates, and by roughly what factor). EXPERIMENTS.md records the
//! residual deviations.

use crate::disk::DiskParams;
use crate::mesh::CommCosts;
use crate::raid::RaidParams;
use crate::time::SimDuration;

/// Interconnect costs for the Paragon 2-D mesh.
///
/// * message software overhead ≈ 50 µs and link bandwidth ≈ 175 MB/s are the
///   published Paragon NX figures (Berrendorf et al., the paper's ref 27);
/// * hop latency is tens of ns (wormhole routing) and barely matters;
/// * barrier stage cost reproduces sub-millisecond 128-node barriers.
pub fn comm_costs() -> CommCosts {
    CommCosts {
        sw_overhead: SimDuration::from_micros(50),
        hop_latency: SimDuration(40),
        bandwidth: 175.0e6,
        barrier_stage: SimDuration::from_micros(30),
    }
}

/// Member-disk parameters for the CCSF arrays (five 1.2 GB drives per I/O
/// node, §3.2). Early-90s commodity drive: ~2.2 MB/s sustained media rate,
/// 5400 rpm class rotation, several-ms seeks.
pub fn disk_params() -> DiskParams {
    DiskParams {
        capacity: 1_200_000_000,
        cylinder_bytes: 512 * 1024,
        seek_base: SimDuration::from_millis(6),
        seek_per_cyl: SimDuration::from_micros(4),
        revolution: SimDuration::from_millis(11), // 5455 rpm
        transfer_rate: 2.2e6,
    }
}

/// RAID-3 geometry: 4 data + 1 parity (the fifth drive), byte-striped and
/// spindle-synchronized, so the array moves data at 4 × 2.2 ≈ 8.8 MB/s.
/// Degraded reads pay a 30 % reconstruction penalty (XOR pipeline).
pub fn raid_params() -> RaidParams {
    RaidParams {
        data_disks: 4,
        degraded_read_penalty: 1.3,
    }
}

/// File-system software path costs (OSF/1 + PFS servers).
///
/// Calibration targets, all from the paper's tables:
///
/// | constant            | tuned against |
/// |---------------------|---------------|
/// | `async_issue`       | Table 3: 436 async reads cost 4.60 s to issue → ≈ 10.5 ms each |
/// | `seek_shared_rpc`   | Table 1: 12,034 ESCAT seeks (128-node bursts on a shared file) average 1.74 s → ≈ 25 ms serialized service |
/// | `seek_local`        | Table 5 (pscf): 813 seeks on per-node private files total 1.67 s → ≈ 2 ms |
/// | `create` / `open`   | Table 5 (pargos): 130 opens, mostly 128 simultaneous creates, total 4,057 s; Table 3: ~100 sequential creates total 32.8 s; Table 1: 262 opens (two 128-node bursts) total 1,179 s |
/// | `close`             | Tables 1/3/5: 50–90 ms uncontended |
/// | `flush`             | Table 5 (pargos): 8,657 forflush calls total 317.7 s → ≈ 37 ms |
/// | `lsize`             | Table 5 (pargos): 128 calls total 15.3 s → ≈ 120 ms incl. queueing |
/// | `server_per_request`| Table 1: 2 KB synchronized writes average ~1.2 s incl. queueing; per-segment server CPU ≈ 20 ms puts the burst regime in range |
/// | `client_byte_rate`  | §6.2: gateway sequential read throughput ≈ 9.5 MB/s despite a ~140 MB/s array aggregate — the client copy path is the limiter |
#[derive(Debug, Clone, Copy)]
pub struct IoSwCosts {
    /// Cost to issue an asynchronous operation (client side).
    pub async_issue: SimDuration,
    /// Service time of a seek RPC on a file opened by multiple nodes
    /// (serialized at the file's metadata owner).
    pub seek_shared_rpc: SimDuration,
    /// Local seek on a file with a single opener.
    pub seek_local: SimDuration,
    /// Metadata service time to create a file.
    pub create: SimDuration,
    /// Metadata service time to open an existing file.
    pub open: SimDuration,
    /// Metadata service time to close.
    pub close: SimDuration,
    /// Serialization cost of an atomicity-preserving write to a file opened
    /// by multiple nodes (M_UNIX keeps operation atomicity, so concurrent
    /// writers serialize at the file's metadata owner; M_ASYNC skips this).
    /// Tuned against Table 1: 13,330 ESCAT writes totaling 16,268 s.
    pub atomic_write_rpc: SimDuration,
    /// Runtime buffer flush.
    pub flush: SimDuration,
    /// File-size query (metadata service).
    pub lsize: SimDuration,
    /// Server CPU cost charged per stripe-segment request at an I/O node.
    pub server_per_request: SimDuration,
    /// Client-side copy/packetization rate, bytes/second; serialized at the
    /// requesting node and added to every data operation.
    pub client_byte_rate: f64,
    /// Shared-file-pointer token acquisition (M_LOG, M_SYNC, M_GLOBAL).
    pub pointer_token: SimDuration,
}

/// Fault-handling and recovery parameters.
///
/// Calibration rationale:
///
/// * `rebuild_chunk` — 2 MB of the failed *member* per background chunk:
///   ≈ 0.9 s of spindle time at the 2.2 MB/s media rate, long enough to
///   amortize the per-request server cost, short enough that foreground
///   segments queued behind a chunk see sub-second added latency. A full
///   1.2 GB member rebuilds in ≈ 545 s of idle disk time — the same order
///   as RAID rebuild times reported for arrays of this vintage.
/// * `retry_base` / `max_retries` — exponential backoff 50, 100, 200, 400,
///   800 ms; a crashed node is declared unreachable after ≈ 1.6 s and its
///   segments fail over, so a long outage costs seconds, not the outage.
/// * `request_timeout` — hard liveness bound per file-system request; far
///   above any legitimate queueing delay observed in the paper-scale runs
///   (worst bursts are tens of seconds), so it only fires when a fault
///   leaves a request truly stuck.
#[derive(Debug, Clone, Copy)]
pub struct FaultParams {
    /// Member bytes serviced per background rebuild chunk.
    pub rebuild_chunk: u64,
    /// First retry delay; attempt `k` waits `retry_base × 2^(k-1)`.
    pub retry_base: SimDuration,
    /// Retries against one node before failing over to its buddy.
    pub max_retries: u32,
    /// Hard deadline for a file-system request once faults are in play.
    pub request_timeout: SimDuration,
}

impl Default for FaultParams {
    fn default() -> Self {
        fault_params()
    }
}

/// Fault-handling calibration (see the struct docs).
pub fn fault_params() -> FaultParams {
    FaultParams {
        rebuild_chunk: 2 << 20,
        retry_base: SimDuration::from_millis(50),
        max_retries: 5,
        request_timeout: SimDuration::from_secs_f64(600.0),
    }
}

/// Local burst-log device parameters (the host-side log-structured tier,
/// `sio-blog`).
///
/// Calibration rationale — the tier models a node-local append device of
/// the Paragon era (a dedicated spindle partition or battery-backed buffer
/// card) that commits sequentially, with no seek, no RPC serialization, and
/// no server queueing:
///
/// * `append_latency` — fixed per-record commit latency (DMA setup + frame
///   checksum): ~500 µs, two orders below the PFS software path for a
///   checkpoint record (`seek_shared_rpc` + `atomic_write_rpc` + queueing).
/// * `append_rate` — sustained sequential append bandwidth, ~30 MB/s: a
///   striped local pair outruns one 8.8 MB/s shared RAID-3 array but stays
///   far below memory speed, so log capacity still matters.
/// * `frame_bytes` — per-record framing overhead (magic, epoch, extent,
///   checksum) charged against log capacity, mirroring the on-log layout
///   used by the byte-level recovery model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogDeviceParams {
    /// Fixed commit latency per appended record.
    pub append_latency: SimDuration,
    /// Sustained sequential append bandwidth, bytes/second.
    pub append_rate: f64,
    /// Framing overhead charged per record against log capacity.
    pub frame_bytes: u64,
}

impl Default for LogDeviceParams {
    fn default() -> Self {
        log_device_params()
    }
}

/// Burst-log device calibration (see the struct docs).
pub fn log_device_params() -> LogDeviceParams {
    LogDeviceParams {
        append_latency: SimDuration::from_micros(500),
        append_rate: 30.0e6,
        frame_bytes: 64,
    }
}

/// Software-path calibration (see the table in the struct docs).
pub fn io_sw_costs() -> IoSwCosts {
    IoSwCosts {
        async_issue: SimDuration::from_micros(10_500),
        seek_shared_rpc: SimDuration::from_millis(30),
        seek_local: SimDuration::from_millis(2),
        create: SimDuration::from_millis(350),
        open: SimDuration::from_millis(60),
        close: SimDuration::from_millis(15),
        atomic_write_rpc: SimDuration::from_millis(12),
        flush: SimDuration::from_millis(35),
        lsize: SimDuration::from_millis(60),
        server_per_request: SimDuration::from_millis(20),
        client_byte_rate: 10.5e6,
        pointer_token: SimDuration::from_millis(5),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_issue_matches_table3() {
        // 436 issues at this cost must land near the paper's 4.60 s.
        let total = io_sw_costs().async_issue.times(436).as_secs_f64();
        assert!((total - 4.6).abs() < 0.5, "got {total}");
    }

    #[test]
    fn array_rate_is_4x_member_rate() {
        let d = disk_params();
        let r = raid_params();
        assert_eq!(r.data_disks, 4);
        assert!((d.transfer_rate * r.data_disks as f64 - 8.8e6).abs() < 1.0);
    }

    #[test]
    fn local_seeks_match_pscf() {
        // 813 local seeks should land near the paper's 1.67 s.
        let total = io_sw_costs().seek_local.times(813).as_secs_f64();
        assert!((total - 1.67).abs() < 0.5, "got {total}");
    }

    #[test]
    fn flush_matches_pargos() {
        let total = io_sw_costs().flush.times(8657).as_secs_f64();
        assert!((total - 317.7).abs() < 30.0, "got {total}");
    }
}
