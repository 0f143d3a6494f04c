//! Crash-consistency of the checkpoint commit protocol, at every layer.
//!
//! The contract: a checkpoint interrupted at **any** byte boundary either
//! validates as the previous epoch or fails validation — a reader can never
//! observe a torn half-epoch. Proven three ways: exhaustively over every
//! truncation offset of one image, property-based over arbitrary image
//! shapes and cut points, and end-to-end over arbitrary crash instants of
//! checkpointed application runs on both the PFS and PPFS backends.

use proptest::prelude::*;
use sio::analysis::recovery::{durable_cut, durable_cut_logged};
use sio::apps::workload::{run_workload_crashable, Backend};
use sio::apps::{EscatParams, HtfParams};
use sio::blog::{durable_epoch, BurstLog, LogRecord};
use sio::core::checkpoint::{progress_payload, CheckpointImage, CheckpointStore, HEADER_LEN};
use sio::paragon::{FaultSchedule, MachineConfig, SimTime};
use sio::ppfs::PolicyConfig;

/// One framed log record per epoch `1..=n`, with distinguishable payloads.
fn log_records(n: usize, payload_len: usize) -> Vec<LogRecord> {
    (0..n)
        .map(|i| LogRecord {
            epoch: i as u32 + 1,
            file: 7,
            offset: (i * payload_len) as u64,
            payload: (0..payload_len).map(|b| ((i + b) % 251) as u8).collect(),
        })
        .collect()
}

/// Byte offset of each frame boundary in a log holding `recs` in order.
fn frame_boundaries(recs: &[LogRecord]) -> Vec<usize> {
    recs.iter()
        .scan(0usize, |acc, r| {
            *acc += r.framed_len();
            Some(*acc)
        })
        .collect()
}

fn image(node: u32, epoch: u32, payload_len: usize) -> CheckpointImage {
    CheckpointImage {
        app_id: 7,
        node,
        epoch,
        payload: progress_payload(7, node, epoch, payload_len),
    }
}

/// Every proper prefix of the next epoch's image is rejected, and the slot
/// keeps reporting the previous epoch — checked at every byte boundary.
#[test]
fn every_truncation_offset_preserves_previous_epoch() {
    let mut store = CheckpointStore::new();
    store
        .try_commit("slot", &image(0, 1, 480).encode())
        .unwrap();
    let full = image(0, 2, 480).encode();
    for cut in 0..full.len() {
        let mut probe = store.clone();
        assert!(
            probe.try_commit("slot", &full[..cut]).is_err(),
            "prefix of {cut}/{} bytes validated",
            full.len()
        );
        assert_eq!(
            probe.latest_epoch("slot"),
            Some(1),
            "torn write moved the slot"
        );
    }
    assert_eq!(store.try_commit("slot", &full), Ok(2));
}

proptest! {
    /// Arbitrary image shape, arbitrary cut: a truncated commit never
    /// advances the slot, a whole one always does.
    #[test]
    fn truncated_commit_is_rejected(
        payload_len in 0usize..4_000,
        node in 0u32..256,
        cut_seed in 0u64..u64::MAX,
    ) {
        let mut store = CheckpointStore::new();
        store.try_commit("s", &image(node, 1, payload_len).encode()).unwrap();
        let full = image(node, 2, payload_len).encode();
        let cut = (cut_seed % full.len() as u64) as usize;
        prop_assert!(store.try_commit("s", &full[..cut]).is_err());
        prop_assert_eq!(store.latest_epoch("s"), Some(1));
        prop_assert_eq!(store.try_commit("s", &full), Ok(2));
    }

    /// A single flipped byte anywhere in the image fails validation: the
    /// checksum covers the header fields and the payload alike.
    #[test]
    fn corrupted_byte_never_validates(
        payload_len in 0usize..4_000,
        pos_seed in 0u64..u64::MAX,
        flip in 1u64..256,
    ) {
        let mut store = CheckpointStore::new();
        let mut bytes = image(3, 1, payload_len).encode();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= flip as u8;
        prop_assert!(store.try_commit("s", &bytes).is_err(), "corrupt byte at {} validated", pos);
        prop_assert_eq!(store.latest_epoch("s"), None);
    }

    /// An image shorter than the header can never decode.
    #[test]
    fn header_prefix_never_decodes(len in 0usize..HEADER_LEN) {
        let bytes = image(0, 1, 64).encode();
        prop_assert!(CheckpointImage::decode(&bytes[..len]).is_err());
    }

    /// End-to-end on the PFS backend: crash an ESCAT checkpointed run at an
    /// arbitrary instant. The recovered cut is always a whole epoch within
    /// range, every commit observed in the trace either validated or was
    /// rejected as torn, and the cut grows monotonically with crash time —
    /// exactly the "previous epoch or nothing" contract.
    #[test]
    fn pfs_crash_at_any_instant_yields_whole_epoch(
        f1 in 0.02f64..0.98,
        f2 in 0.02f64..0.98,
    ) {
        let machine = MachineConfig::tiny(4, 2);
        let p = EscatParams::small(4, 6);
        let cw = p.workload_checkpointed(2, 0);
        let healthy = run_workload_crashable(
            &machine, &cw.workload, &Backend::Pfs, None, None, &cw.plan.covered,
        );
        let wall = healthy.report.wall.nanos();
        let units = vec![p.iters; p.nodes as usize];
        let (lo, hi) = (f1.min(f2), f1.max(f2));
        let mut cuts = Vec::new();
        for f in [lo, hi] {
            let t = SimTime((wall as f64 * f) as u64);
            let crashed = run_workload_crashable(
                &machine, &cw.workload, &Backend::Pfs, None, Some(t), &cw.plan.covered,
            );
            let cut = durable_cut(&crashed.trace, &cw.plan, &units, t);
            prop_assert!(cut.epoch <= cw.plan.epochs);
            let traced_commits = crashed
                .trace
                .events()
                .iter()
                .filter(|e| e.file == cw.plan.file && e.op == sio::core::IoOp::Write)
                .count() as u32;
            prop_assert_eq!(cut.commits_valid + cut.commits_torn, traced_commits);
            cuts.push(cut.epoch);
        }
        prop_assert!(cuts[0] <= cuts[1], "durable cut shrank as the crash moved later");
    }

    /// The same contract on the PPFS write-behind backend, where commits
    /// ride through the client cache and explicit syncs.
    #[test]
    fn ppfs_crash_at_any_instant_yields_whole_epoch(frac in 0.02f64..0.98) {
        let machine = MachineConfig::tiny(4, 2);
        let htf = HtfParams::small(4);
        let cw = htf.pargos_workload_checkpointed(1, 0);
        let backend = Backend::Ppfs(PolicyConfig::pargos_tuned());
        let healthy = run_workload_crashable(
            &machine, &cw.workload, &backend, None, None, &cw.plan.covered,
        );
        let wall = healthy.report.wall.nanos();
        let units: Vec<u32> = (0..htf.nodes).map(|n| htf.records_of(n)).collect();
        let t = SimTime((wall as f64 * frac) as u64);
        let crashed = run_workload_crashable(
            &machine, &cw.workload, &backend, None, Some(t), &cw.plan.covered,
        );
        let cut = durable_cut(&crashed.trace, &cw.plan, &units, t);
        prop_assert!(cut.epoch <= cw.plan.epochs);
        // Whatever the cut, a resumed workload can be built from it and its
        // plan agrees on the slot layout (no half-epoch state leaks out).
        let resumed = htf.pargos_workload_checkpointed(1, cut.epoch);
        prop_assert_eq!(resumed.plan.start_epoch, cut.epoch);
        prop_assert_eq!(resumed.plan.file, cw.plan.file);
    }
}

// ---------------------------------------------------------------------------
// The burst-log tier: the same "whole epoch or nothing" contract must hold
// when commits land in the host-side log first and reach the backend via the
// background drain (DESIGN.md §5).
// ---------------------------------------------------------------------------

proptest! {
    /// A log truncated at **any** byte replays exactly the whole-frame
    /// prefix: a torn tail frame never validates, and no valid frame before
    /// the cut is lost.
    #[test]
    fn log_truncated_at_any_byte_replays_exact_frame_prefix(
        n in 1usize..12,
        payload_len in 0usize..300,
        cut_seed in 0u64..u64::MAX,
    ) {
        let recs = log_records(n, payload_len);
        let mut log = BurstLog::new();
        for r in &recs {
            log.append(r);
        }
        let bytes = log.as_bytes();
        let cut = (cut_seed % (bytes.len() as u64 + 1)) as usize;
        let replayed = BurstLog::replay(&bytes[..cut]);
        let whole = frame_boundaries(&recs)
            .iter()
            .filter(|&&b| b <= cut)
            .count();
        prop_assert_eq!(replayed.as_slice(), &recs[..whole]);
    }

    /// A flipped byte anywhere in the log stops replay at the frame it
    /// lands in: every earlier frame survives, the damaged one and
    /// everything after it are rejected (replay never resynchronizes past
    /// a bad checksum).
    #[test]
    fn log_corrupt_byte_stops_replay_at_damaged_frame(
        n in 1usize..12,
        payload_len in 1usize..300,
        pos_seed in 0u64..u64::MAX,
        flip in 1u64..256,
    ) {
        let recs = log_records(n, payload_len);
        let mut log = BurstLog::new();
        for r in &recs {
            log.append(r);
        }
        let mut bytes = log.as_bytes().to_vec();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= flip as u8;
        let damaged = frame_boundaries(&recs).iter().filter(|&&b| b <= pos).count();
        let replayed = BurstLog::replay(&bytes);
        prop_assert_eq!(replayed.as_slice(), &recs[..damaged]);
    }

    /// The durable-cut OR rule: an epoch is durable iff every epoch up to
    /// it either replays from the log **or** finished draining. Checked
    /// against a direct reference computation over arbitrary torn logs and
    /// arbitrary drained subsets.
    #[test]
    fn durable_epoch_matches_or_rule_reference(
        n in 0usize..16,
        payload_len in 0usize..128,
        drained_mask in 0u32..65_536,
        cut_seed in 0u64..u64::MAX,
    ) {
        let recs = log_records(n, payload_len);
        let mut log = BurstLog::new();
        for r in &recs {
            log.append(r);
        }
        let bytes = log.as_bytes();
        let cut = (cut_seed % (bytes.len() as u64 + 1)) as usize;
        let replayed = BurstLog::replay(&bytes[..cut]);
        let drained: Vec<u32> = (1..=n as u32)
            .filter(|e| drained_mask & (1 << (e - 1)) != 0)
            .collect();
        let covered = |e: u32| {
            replayed.iter().any(|r| r.epoch == e) || drained.contains(&e)
        };
        let mut expect = 0u32;
        while expect < n as u32 && covered(expect + 1) {
            expect += 1;
        }
        prop_assert_eq!(durable_epoch(&replayed, &drained), expect);
    }

    /// Crash during GC: garbage collection reclaims drained records at
    /// frame boundaries only, so a log torn at any byte after a GC replays
    /// a whole-frame prefix of the *surviving* records — reclaimed frames
    /// never resurrect, kept frames never tear retroactively.
    #[test]
    fn gc_then_torn_tail_never_resurrects_reclaimed_frames(
        n in 1usize..12,
        payload_len in 0usize..200,
        k_seed in 0u64..u64::MAX,
        cut_seed in 0u64..u64::MAX,
    ) {
        let recs = log_records(n, payload_len);
        let mut log = BurstLog::new();
        for r in &recs {
            log.append(r);
        }
        let k = (k_seed % (n as u64 + 1)) as usize;
        log.gc(k);
        let kept = &recs[k..];
        let bytes = log.as_bytes();
        let cut = (cut_seed % (bytes.len() as u64 + 1)) as usize;
        let replayed = BurstLog::replay(&bytes[..cut]);
        let whole = frame_boundaries(kept).iter().filter(|&&b| b <= cut).count();
        prop_assert_eq!(replayed.as_slice(), &kept[..whole]);
        prop_assert!(replayed.iter().all(|r| r.epoch > k as u32));
    }

    /// End-to-end through the log tier on every inner backend: crash a
    /// checkpointed run at an arbitrary instant and derive the log-aware
    /// durable cut. The cut is always a whole epoch in range, every traced
    /// commit is accounted valid or torn, and a run resumed from the cut
    /// finishes with the full image durable — the recovered state is the
    /// last acknowledged epoch, with no torn or duplicated extents.
    #[test]
    fn blog_crash_at_any_instant_recovers_acknowledged_epoch(
        frac in 0.02f64..0.98,
        inner_idx in 0usize..3,
    ) {
        let inner = ["blog+pfs", "blog+ppfs", "blog+cio"][inner_idx];
        let machine = MachineConfig::tiny(4, 2);
        let p = EscatParams::small(4, 6);
        let cw = p.workload_checkpointed(2, 0);
        let backend = Backend::parse(inner).expect("shipped name");
        let units = vec![p.iters; p.nodes as usize];
        let healthy = run_workload_crashable(
            &machine, &cw.workload, &backend, None, None, &cw.plan.covered,
        );
        let wall = healthy.report.wall.nanos();

        let t = SimTime((wall as f64 * frac) as u64);
        let crashed = run_workload_crashable(
            &machine, &cw.workload, &backend, None, Some(t), &cw.plan.covered,
        );
        let cut = durable_cut_logged(&crashed.trace, &cw.plan, &units, t);
        prop_assert!(cut.epoch <= cw.plan.epochs);
        let traced_commits = crashed
            .trace
            .events()
            .iter()
            .filter(|e| e.file == cw.plan.file && e.op == sio::core::IoOp::Write)
            .count() as u32;
        prop_assert_eq!(cut.commits_valid + cut.commits_torn, traced_commits);

        // A crash after the final commit leaves nothing to resume; the
        // durable-image check below needs at least one remaining epoch.
        if cut.epoch < cw.plan.epochs {
            let resumed = p.workload_checkpointed(2, cut.epoch);
            prop_assert_eq!(resumed.plan.start_epoch, cut.epoch);
            let out = run_workload_crashable(
                &machine, &resumed.workload, &backend, None, None, &resumed.plan.covered,
            );
            let stats = out.blog.expect("log tier ran");
            prop_assert_eq!(stats.pending_bytes, 0, "drain incomplete at run end");
            let full = durable_cut_logged(&out.trace, &resumed.plan, &units, out.report.wall);
            prop_assert_eq!(full.epoch, resumed.plan.epochs);
            prop_assert_eq!(full.commits_torn, 0, "torn extent in a healthy resume");
        }
    }

    /// The drain/crash race under I/O-node faults: an I/O node crashes
    /// (and recovers) while the drain is pumping log frames into the
    /// backend, and the application dies at an arbitrary instant on top of
    /// it. Whatever interleaving results, the durable cut stays a whole
    /// in-range epoch and a resume from it completes with every commit
    /// intact — drain retries/failovers never duplicate or tear an extent.
    #[test]
    fn drain_crash_race_with_io_node_fault_keeps_cut_consistent(
        frac in 0.05f64..0.95,
        fault_frac in 0.05f64..0.95,
        io_node in 0u32..2,
    ) {
        let machine = MachineConfig::tiny(4, 2);
        let p = EscatParams::small(4, 6);
        let cw = p.workload_checkpointed(2, 0);
        let backend = Backend::parse("blog+pfs").expect("shipped name");
        let units = vec![p.iters; p.nodes as usize];
        let healthy = run_workload_crashable(
            &machine, &cw.workload, &backend, None, None, &cw.plan.covered,
        );
        let wall = healthy.report.wall.nanos();

        let t_fault = SimTime((wall as f64 * fault_frac) as u64);
        let t_heal = SimTime(t_fault.nanos() + wall / 20);
        let mut faults = FaultSchedule::new();
        faults.node_crash(t_fault, io_node).node_recover(t_heal, io_node);

        let t = SimTime((wall as f64 * frac) as u64);
        let crashed = run_workload_crashable(
            &machine, &cw.workload, &backend, Some(&faults), Some(t), &cw.plan.covered,
        );
        let cut = durable_cut_logged(&crashed.trace, &cw.plan, &units, t);
        prop_assert!(cut.epoch <= cw.plan.epochs);

        if cut.epoch < cw.plan.epochs {
            let resumed = p.workload_checkpointed(2, cut.epoch);
            let out = run_workload_crashable(
                &machine, &resumed.workload, &backend, None, None, &resumed.plan.covered,
            );
            let full = durable_cut_logged(&out.trace, &resumed.plan, &units, out.report.wall);
            prop_assert_eq!(full.epoch, resumed.plan.epochs);
            prop_assert_eq!(full.commits_torn, 0);
        }
    }
}
