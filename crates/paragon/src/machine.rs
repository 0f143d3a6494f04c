//! Machine configurations.
//!
//! A [`MachineConfig`] bundles every parameter of the simulated Paragon:
//! node counts, mesh geometry, disk/RAID/interconnect parameters, I/O-node
//! queue discipline, and software-path costs. The presets correspond to the
//! systems of the paper: [`MachineConfig::caltech_paragon`] is the full CCSF
//! machine (512 compute, 16 I/O nodes); [`MachineConfig::paragon_128`] is
//! the 128-node partition every experiment in the paper actually ran on.

use crate::calibration::{self, FaultParams, IoSwCosts};
use crate::disk::DiskParams;
use crate::ionode::{IoNodeSim, QueueDiscipline};
use crate::mesh::{CommCosts, Mesh};
use crate::raid::{Raid3, RaidParams};

/// Full machine description.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Compute nodes available to applications.
    pub compute_nodes: u32,
    /// I/O nodes, each with one RAID-3 array.
    pub io_nodes: u32,
    /// Member-disk parameters.
    pub disk: DiskParams,
    /// Array geometry.
    pub raid: RaidParams,
    /// Interconnect costs.
    pub comm: CommCosts,
    /// I/O-node queue discipline.
    pub discipline: QueueDiscipline,
    /// File-system software costs.
    pub io_sw: IoSwCosts,
    /// Fault-handling parameters (retry backoff, failover, rebuild chunking).
    pub fault: FaultParams,
    /// Base RNG seed; every stochastic component derives its own stream
    /// from this (same seed ⇒ bit-identical run).
    pub seed: u64,
}

impl MachineConfig {
    /// The CCSF Intel Paragon XP/S as described in §3.2: 512 compute nodes,
    /// 16 I/O nodes each with a RAID-3 array of five 1.2 GB disks.
    pub fn caltech_paragon() -> MachineConfig {
        MachineConfig {
            compute_nodes: 512,
            io_nodes: 16,
            disk: calibration::disk_params(),
            raid: calibration::raid_params(),
            comm: calibration::comm_costs(),
            discipline: QueueDiscipline::Fifo,
            io_sw: calibration::io_sw_costs(),
            fault: calibration::fault_params(),
            seed: 0x51_0995,
        }
    }

    /// The 128-node partition used for every run in the paper's evaluation.
    /// All 16 I/O nodes remain visible (PFS striping is machine-wide).
    pub fn paragon_128() -> MachineConfig {
        MachineConfig {
            compute_nodes: 128,
            ..MachineConfig::caltech_paragon()
        }
    }

    /// A small configuration for unit tests and quick examples.
    pub fn tiny(compute_nodes: u32, io_nodes: u32) -> MachineConfig {
        MachineConfig {
            compute_nodes,
            io_nodes,
            ..MachineConfig::caltech_paragon()
        }
    }

    /// Override the base seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> MachineConfig {
        self.seed = seed;
        self
    }

    /// Override the queue discipline (builder style).
    #[must_use]
    pub fn with_discipline(mut self, d: QueueDiscipline) -> MachineConfig {
        self.discipline = d;
        self
    }

    /// Mesh geometry for this configuration.
    pub fn mesh(&self) -> Mesh {
        Mesh::for_nodes(self.compute_nodes, self.io_nodes)
    }

    /// Build the I/O-node simulators (one per I/O node), each array seeded
    /// from the base seed.
    pub fn build_io_nodes(&self) -> Vec<IoNodeSim> {
        (0..self.io_nodes)
            .map(|i| {
                let mut node = IoNodeSim::new(
                    Raid3::new(self.disk, self.raid, self.seed.wrapping_add(i as u64 + 1)),
                    self.discipline,
                    self.io_sw.server_per_request,
                );
                node.set_rebuild_chunk(self.fault.rebuild_chunk);
                node
            })
            .collect()
    }

    /// Aggregate peak media rate across all arrays, bytes/second.
    pub fn aggregate_disk_rate(&self) -> f64 {
        self.disk.transfer_rate * self.raid.data_disks as f64 * self.io_nodes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let full = MachineConfig::caltech_paragon();
        assert_eq!(full.compute_nodes, 512);
        assert_eq!(full.io_nodes, 16);
        assert_eq!(full.raid.data_disks, 4);
        let part = MachineConfig::paragon_128();
        assert_eq!(part.compute_nodes, 128);
        assert_eq!(part.io_nodes, 16);
    }

    #[test]
    fn io_nodes_built_with_distinct_seeds() {
        let cfg = MachineConfig::tiny(4, 2);
        let nodes = cfg.build_io_nodes();
        assert_eq!(nodes.len(), 2);
    }

    #[test]
    fn aggregate_rate() {
        let cfg = MachineConfig::caltech_paragon();
        // 16 arrays × 4 data disks × 2.2 MB/s ≈ 140.8 MB/s.
        assert!((cfg.aggregate_disk_rate() - 140.8e6).abs() < 1e5);
    }

    #[test]
    fn builders() {
        let cfg = MachineConfig::tiny(2, 1)
            .with_seed(99)
            .with_discipline(QueueDiscipline::CScan);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.discipline, QueueDiscipline::CScan);
        let mesh = cfg.mesh();
        assert!(mesh.rows * mesh.cols >= 2);
    }
}
