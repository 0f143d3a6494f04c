//! Property-based tests (proptest) on the core data structures and
//! invariants of the stack: stripe layout, write-behind buffer, RAID-3
//! parity, statistics, trace serialization, and the pattern classifier.

use proptest::collection::vec;
use proptest::prelude::*;
use sio::core::event::{IoEvent, IoOp};
use sio::core::sddf;
use sio::core::stats::SizeHistogram;
use sio::core::trace::{Trace, TraceMeta};
use sio::paragon::raid::Raid3;
use sio::pfs::StripeLayout;
use sio::ppfs::write_behind::DirtyBuffer;
use std::collections::BTreeSet;

proptest! {
    // ---------------- stripe layout ----------------

    /// Striping conserves bytes and never produces an empty or misowned
    /// segment, for arbitrary geometry and extents.
    #[test]
    fn stripe_segments_conserve_bytes(
        unit in 1u64..200_000,
        io_nodes in 1u32..64,
        offset in 0u64..1_000_000_000,
        bytes in 0u64..50_000_000,
    ) {
        let l = StripeLayout::new(unit, io_nodes);
        let segs = l.segments(offset, bytes);
        let total: u64 = segs.iter().map(|s| s.bytes).sum();
        prop_assert_eq!(total, bytes);
        for s in &segs {
            prop_assert!(s.bytes > 0);
            prop_assert!(s.io_node < io_nodes);
        }
    }

    /// Every byte of the request maps (point-wise) into exactly one
    /// segment's node-local range — merging may reorder segments relative
    /// to the file walk, but coverage must be exact.
    #[test]
    fn stripe_segments_cover_every_byte_exactly_once(
        unit in 1u64..512,
        io_nodes in 1u32..9,
        offset in 0u64..10_000,
        bytes in 1u64..4_000,
    ) {
        let l = StripeLayout::new(unit, io_nodes);
        let segs = l.segments(offset, bytes);
        for p in offset..offset + bytes {
            let io = l.io_node_of(p);
            let local = l.local_offset_of(p);
            let covering = segs
                .iter()
                .filter(|s| {
                    s.io_node == io && s.local_offset <= local && local < s.local_offset + s.bytes
                })
                .count();
            prop_assert_eq!(covering, 1, "byte {} covered {} times", p, covering);
        }
    }

    // ---------------- write-behind buffer ----------------

    /// The dirty buffer behaves exactly like a set of dirty bytes: its
    /// aggregated drain equals the interval union of everything added.
    #[test]
    fn dirty_buffer_equals_byte_set_model(
        writes in vec((0u64..2_000, 1u64..300), 1..40)
    ) {
        let mut buf = DirtyBuffer::new();
        let mut model: BTreeSet<u64> = BTreeSet::new();
        for &(off, len) in &writes {
            buf.add(off, len);
            model.extend(off..off + len);
        }
        prop_assert_eq!(buf.bytes(), model.len() as u64);
        let extents = buf.drain(true, 64);
        // Extents are sorted, disjoint, non-adjacent, and cover the model.
        let mut covered: BTreeSet<u64> = BTreeSet::new();
        let mut prev_end: Option<u64> = None;
        for e in &extents {
            if let Some(pe) = prev_end {
                prop_assert!(e.offset > pe, "adjacent or overlapping extents");
            }
            covered.extend(e.offset..e.end());
            prev_end = Some(e.end());
        }
        prop_assert_eq!(covered, model);
    }

    /// Chunked (non-aggregated) drain covers the same bytes in pieces no
    /// larger than the chunk.
    #[test]
    fn dirty_buffer_chunked_drain_covers_same_bytes(
        writes in vec((0u64..5_000, 1u64..500), 1..20),
        chunk in 1u64..1_000,
    ) {
        let mut a = DirtyBuffer::new();
        let mut b = DirtyBuffer::new();
        for &(off, len) in &writes {
            a.add(off, len);
            b.add(off, len);
        }
        let agg: u64 = a.drain(true, chunk).iter().map(|e| e.bytes).sum();
        let chopped = b.drain(false, chunk);
        let chop_total: u64 = chopped.iter().map(|e| e.bytes).sum();
        prop_assert_eq!(agg, chop_total);
        for e in &chopped {
            prop_assert!(e.bytes <= chunk);
        }
    }

    // ---------------- RAID-3 parity ----------------

    /// XOR reconstruction recovers any lost member from the others plus
    /// parity, for arbitrary data and any failed index.
    #[test]
    fn raid3_reconstruction_recovers_any_member(
        blocks in vec(vec(any::<u8>(), 16), 2..6),
        lost_idx in 0usize..6,
    ) {
        let lost_idx = lost_idx % blocks.len();
        let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
        let parity = Raid3::parity(&refs);
        let mut survivors: Vec<&[u8]> = refs
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != lost_idx)
            .map(|(_, b)| *b)
            .collect();
        survivors.push(&parity);
        let rebuilt = Raid3::reconstruct(&survivors);
        prop_assert_eq!(rebuilt, blocks[lost_idx].clone());
    }

    // ---------------- statistics ----------------

    /// The size histogram's bins partition the requests: totals always add
    /// up and each value lands in exactly the bin a naive comparison picks.
    #[test]
    fn size_histogram_partitions(sizes in vec(0u64..10_000_000, 0..100)) {
        let mut h = SizeHistogram::new();
        let mut naive = [0u64; 4];
        for &s in &sizes {
            h.push(s);
            let idx = if s < 4096 { 0 } else if s < 65_536 { 1 } else if s < 262_144 { 2 } else { 3 };
            naive[idx] += 1;
        }
        prop_assert_eq!(h.as_row(), naive);
        prop_assert_eq!(h.total(), sizes.len() as u64);
    }

    // ---------------- trace serialization ----------------

    /// Any well-formed trace roundtrips through the SDDF encoding.
    #[test]
    fn sddf_roundtrips_arbitrary_traces(
        events in vec(
            (0u32..64, 0u32..32, 0u8..9, any::<u32>(), any::<u32>(), any::<u32>(), 0u32..1000),
            0..50
        ),
        label in "[a-z]{0,12}",
        nodes in 0u32..512,
    ) {
        let events: Vec<IoEvent> = events
            .into_iter()
            .map(|(node, file, op, offset, bytes, start, dur)| IoEvent {
                node,
                file,
                op: IoOp::from_u8(op).unwrap(),
                offset: offset as u64,
                bytes: bytes as u64,
                start: start as u64,
                end: start as u64 + dur as u64,
            })
            .collect();
        let trace = Trace::from_parts(
            TraceMeta { label, nodes, wall_ns: 0 },
            events,
        );
        let back = sddf::from_bytes(&sddf::to_bytes(&trace)).unwrap();
        prop_assert_eq!(back, trace);
    }

    // ---------------- engine + file system fuzz ----------------

    /// Random well-formed workloads (same barrier count on every node,
    /// reads/writes/seeks/opens in any order after an open) always run to
    /// completion on both file systems, produce valid traces, and agree on
    /// logical operation counts across backends.
    #[test]
    fn random_workloads_run_clean_on_both_backends(
        rounds in vec(vec((0u8..5, 1u64..200_000), 0..5), 1..5),
        nodes in 1u32..6,
    ) {
        use sio::apps::workload::{run_workload, Backend, Workload};
        use sio::paragon::program::{IoRequest, ScriptOp};
        use sio::paragon::{MachineConfig, SimDuration};
        use sio::pfs::{AccessMode, FileSpec};
        use sio::ppfs::PolicyConfig;

        let scripts: Vec<Vec<ScriptOp>> = (0..nodes)
            .map(|node| {
                let mut ops = vec![ScriptOp::Io(IoRequest::open(0, AccessMode::MUnix.code()))];
                for round in &rounds {
                    for &(kind, size) in round {
                        let op = match kind {
                            0 => ScriptOp::Compute(SimDuration(size * 1000)),
                            1 => ScriptOp::Io(IoRequest::write(0, size)),
                            2 => ScriptOp::Io(IoRequest::read(0, size)),
                            3 => ScriptOp::Io(IoRequest::seek(0, size * node as u64)),
                            _ => ScriptOp::Io(IoRequest::flush(0)),
                        };
                        ops.push(op);
                    }
                    // Every node executes every round: barriers always match.
                    ops.push(ScriptOp::Barrier(0));
                }
                ops.push(ScriptOp::Io(IoRequest::close(0)));
                ops
            })
            .collect();
        let build = || Workload {
            label: "fuzz".to_string(),
            files: vec![FileSpec::input("f", 1 << 20)],
            scripts: scripts.clone(),
            groups: Vec::new(),
        };
        let machine = MachineConfig::tiny(nodes.max(2), 2);
        let pfs = run_workload(&machine, &build(), &Backend::Pfs);
        let ppfs = run_workload(&machine, &build(), &Backend::Ppfs(PolicyConfig::escat_tuned()));
        prop_assert!(pfs.report.clean());
        prop_assert!(ppfs.report.clean());
        pfs.trace.validate().unwrap();
        ppfs.trace.validate().unwrap();
        // Logical op counts agree across backends.
        for op in sio::core::IoOp::ALL {
            prop_assert_eq!(
                pfs.trace.of_op(op).count(),
                ppfs.trace.of_op(op).count(),
                "op {:?}", op
            );
        }
        // Every event fits inside the run (validity of timestamps).
        for t in [&pfs.trace, &ppfs.trace] {
            let wall = t.meta().wall_ns;
            for ev in t.events() {
                prop_assert!(ev.end <= wall, "event beyond wall: {:?}", ev);
            }
        }
    }

    // ---------------- classifier ----------------

    /// Pure sequential streams of any record size classify as sequential
    /// (never random), regardless of length past warm-up.
    #[test]
    fn classifier_never_calls_sequential_random(
        len in 1u64..100_000,
        count in 5usize..60,
    ) {
        use sio::core::classify::{classify_accesses, AccessPattern};
        let acc: Vec<(u64, u64)> = (0..count as u64).map(|i| (i * len, len)).collect();
        prop_assert_eq!(classify_accesses(&acc), AccessPattern::Sequential);
    }

    /// Fixed-stride streams classify as strided with the right stride.
    #[test]
    fn classifier_detects_arbitrary_strides(
        record in 1u64..5_000,
        gap in 1u64..100_000,
        count in 8usize..50,
    ) {
        use sio::core::classify::{classify_accesses, AccessPattern};
        let stride = record + gap;
        let acc: Vec<(u64, u64)> = (0..count as u64).map(|i| (i * stride, record)).collect();
        prop_assert_eq!(
            classify_accesses(&acc),
            AccessPattern::Strided { stride: stride as i64 }
        );
    }

    // ---------------- parallel sweep runner ----------------

    /// For any worker count (0 and 1 included — 0 clamps to serial) and any
    /// job list (empty and single-item included), the pool is a drop-in
    /// replacement for a serial map: same outputs, input order, and every
    /// job sees its own index.
    #[test]
    fn runner_matches_serial_map_for_any_worker_count(
        jobs in 0usize..12,
        xs in vec(any::<u64>(), 0..40),
    ) {
        use sio::analysis::runner;
        let expect: Vec<u64> = xs.iter().enumerate().map(|(i, x)| x.wrapping_mul(31) ^ i as u64).collect();
        let got = runner::par_map_jobs(jobs, xs, |i, x| x.wrapping_mul(31) ^ i as u64);
        prop_assert_eq!(got, expect);
    }

    /// A panicking job surfaces as a `JobPanic` naming the first panicking
    /// input index, without poisoning the pool or deadlocking: the
    /// surviving jobs all still run, and the very next sweep on the same
    /// pool parameters succeeds.
    #[test]
    fn runner_surfaces_panics_without_poisoning(
        jobs in 0usize..9,
        xs in vec(any::<u8>(), 1..30),
    ) {
        use sio::analysis::runner;
        use std::sync::atomic::{AtomicUsize, Ordering};

        let first_bad = xs.iter().position(|x| x % 4 == 0);
        let ran = AtomicUsize::new(0);
        let quiet = quiet_panics();
        let outcome = runner::try_par_map_jobs(jobs, xs.clone(), |_, x| {
            ran.fetch_add(1, Ordering::Relaxed);
            assert!(x % 4 != 0, "job input {x} is divisible by 4");
            u64::from(x) + 1
        });
        drop(quiet);

        match first_bad {
            Some(index) => {
                let err = outcome.expect_err("a job panicked; the sweep must error");
                prop_assert_eq!(err.index, index);
                prop_assert!(err.message.contains("divisible by 4"), "{}", err.message);
            }
            None => {
                let out = outcome.expect("no job panicked; the sweep must succeed");
                prop_assert_eq!(out, xs.iter().map(|x| u64::from(*x) + 1).collect::<Vec<_>>());
            }
        }
        // Every job ran — a panic must not starve the remaining indices.
        prop_assert_eq!(ran.load(Ordering::Relaxed), xs.len());

        // And the pool state is not poisoned: an immediately following
        // sweep with the same worker count works.
        let again = runner::par_map_jobs(jobs, vec![1u8, 2, 3], |i, x| usize::from(x) + i);
        prop_assert_eq!(again, vec![1usize, 3, 5]);
    }
}

/// Silence the default panic hook while intentionally panicking jobs run
/// (worker threads are not output-captured by the test harness); restores
/// the previous hook on drop. Hook swaps are serialized across tests.
fn quiet_panics() -> impl Drop {
    use std::sync::{Mutex, MutexGuard};
    static HOOK: Mutex<()> = Mutex::new(());
    struct Restore(Option<MutexGuard<'static, ()>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let _ = std::panic::take_hook();
            self.0.take();
        }
    }
    let guard = HOOK.lock().unwrap_or_else(|e| e.into_inner());
    std::panic::set_hook(Box::new(|_| {}));
    Restore(Some(guard))
}

// ---------------- fault schedules (X4) ----------------

proptest! {
    /// `push` keeps the schedule time-ordered with stable ties for any
    /// insertion order: among equal-time events, earlier insertions fire
    /// first. (The io_node field is used as an insertion-order tag here.)
    #[test]
    fn fault_schedule_push_is_time_ordered_with_stable_ties(
        times in vec(0u64..40, 0..64),
    ) {
        use sio::paragon::{FaultSchedule, SimTime};
        let mut s = FaultSchedule::new();
        for (tag, t) in times.iter().enumerate() {
            s.node_crash(SimTime(*t), tag as u32);
        }
        let evs = s.events();
        prop_assert_eq!(evs.len(), times.len());
        for w in evs.windows(2) {
            prop_assert!(w[0].at <= w[1].at, "out of order: {:?} then {:?}", w[0], w[1]);
            if w[0].at == w[1].at {
                prop_assert!(
                    w[0].io_node < w[1].io_node,
                    "tie broke insertion order: {:?} then {:?}", w[0], w[1]
                );
            }
        }
    }

    /// `merge` is a stable, complete interleave: every event of both inputs
    /// appears exactly once, in time order, with `self` winning ties and
    /// each input keeping its own relative order.
    #[test]
    fn fault_schedule_merge_is_stable_and_complete(
        a_times in vec(0u64..40, 0..32),
        b_times in vec(0u64..40, 0..32),
    ) {
        use sio::paragon::{FaultSchedule, SimTime};
        let build = |ts: &[u64], node: u32| {
            let mut s = FaultSchedule::new();
            for t in ts {
                s.node_crash(SimTime(*t), node);
            }
            s
        };
        let a = build(&a_times, 0);
        let b = build(&b_times, 1);
        let m = a.merge(&b);
        prop_assert_eq!(m.len(), a.len() + b.len());
        for w in m.events().windows(2) {
            prop_assert!(w[0].at <= w[1].at);
            if w[0].at == w[1].at {
                // Ties resolve a-before-b, never b-before-a.
                prop_assert!(w[0].io_node <= w[1].io_node);
            }
        }
        // Each side survives as an exact subsequence.
        let side = |n: u32| -> Vec<_> {
            m.events().iter().filter(|e| e.io_node == n).copied().collect()
        };
        prop_assert_eq!(side(0), a.events().to_vec());
        prop_assert_eq!(side(1), b.events().to_vec());
    }

    /// `scattered_stalls` is a pure function of its seed: reproducible,
    /// correctly sized, in range, and time-ordered.
    #[test]
    fn scattered_stalls_is_seeded_and_in_range(
        seed in any::<u64>(),
        io_nodes in 1u32..16,
        count in 0usize..64,
    ) {
        use sio::paragon::{FaultSchedule, SimDuration};
        let horizon = SimDuration::from_secs(120);
        let stall = SimDuration::from_secs(2);
        let s1 = FaultSchedule::scattered_stalls(seed, io_nodes, count, horizon, stall);
        let s2 = FaultSchedule::scattered_stalls(seed, io_nodes, count, horizon, stall);
        prop_assert_eq!(&s1, &s2, "same seed must give the same schedule");
        prop_assert_eq!(s1.len(), count);
        for e in s1.events() {
            prop_assert!(e.io_node < io_nodes);
            prop_assert!(e.at.0 > 0 && e.at.0 < horizon.nanos());
        }
        for w in s1.events().windows(2) {
            prop_assert!(w[0].at <= w[1].at);
        }
    }

    /// The chaos-campaign generator is a pure function of `(seed, cells,
    /// io_nodes)`: reproducible, seed-sensitive, with every cell's draws in
    /// the documented bounds and its absolute schedules well-formed for any
    /// healthy wall.
    #[test]
    fn chaos_specs_are_seeded_and_in_bounds(
        seed in any::<u64>(),
        cells in 1u32..40,
        io_nodes in 1u32..16,
    ) {
        use sio::analysis::chaos::{chaos_specs, CHAOS_WORKLOADS};
        use sio::paragon::SimTime;
        let a = chaos_specs(seed, cells, io_nodes);
        prop_assert_eq!(&a, &chaos_specs(seed, cells, io_nodes),
            "same seed must give the same campaign");
        prop_assert_eq!(a.len(), cells as usize);
        for (i, s) in a.iter().enumerate() {
            prop_assert_eq!(s.cell as usize, i);
            prop_assert!(CHAOS_WORKLOADS.contains(&s.workload));
            prop_assert!(!s.faults.is_empty() && s.faults.len() <= 3);
            prop_assert!((1..=8u32).contains(&s.event_count()));
            // One draw per struck domain — the invariant checks rely on it.
            prop_assert_eq!(s.domains().len(), s.faults.len());
            if let Some(f) = s.crash_frac {
                prop_assert!((0.30..0.80).contains(&f));
            }
            // The absolute schedule is valid (in-range targets, ordered
            // events) whatever the baseline wall turns out to be.
            let sched = s.schedule(SimTime(1_000_000_000));
            prop_assert_eq!(sched.len() as u32, s.event_count());
            for w in sched.events().windows(2) {
                prop_assert!(w[0].at <= w[1].at);
            }
        }
        // A campaign spanning the backend-name rotation covers every backend.
        if cells >= 9 {
            let seen: BTreeSet<&str> = a.iter().map(|s| s.backend).collect();
            prop_assert_eq!(seen.len(), 9);
        }
    }
}
