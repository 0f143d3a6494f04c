//! X7: burst-buffer checkpoint sweep — the host-side log-structured tier
//! (`sio-blog`) in front of each shipped backend, on the checkpointed
//! application workloads.
//!
//! Per cell (workload × inner backend × log size × drain bandwidth ×
//! crash instant) the suite measures what the tier buys and what it
//! costs:
//!
//! * **checkpoint-commit latency** — mean issue → durable interval of a
//!   checkpoint commit (the slot `Write` through its paired `Sync`
//!   `Flush`), on the log tier vs the direct backend. Commits on the tier
//!   land at local-log speed; the drain moves the data later.
//! * **time-to-recovery** — log replay (undrained frames pumped into the
//!   backend at the drain bandwidth) plus the resumed run from the
//!   log-aware durable cut ([`crate::recovery::durable_cut_logged`]), vs the
//!   direct backend's resume from its sync-paired cut.
//! * **lost work** — covered-file bytes written after each cut.
//!
//! Everything is a pure function of the configuration; rows come back in
//! canonical case order whatever the worker count, and the paper-scale
//! digests live in `results/golden_blog.txt`.

use crate::recovery::{
    commit_events, durable_cut, durable_cut_logged, lost_work_bytes, run_checkpointed,
    CheckpointedApps, WriterCommits,
};
use crate::report::Row;
use crate::runner;
use paragon_sim::{MachineConfig, SimTime};
use sio_apps::workload::Backend;
use sio_apps::{BlogParams, EscatParams, HtfParams, RenderParams};
use sio_core::event::NS_PER_SEC;

/// One cell of the X7 burst-buffer sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BlogRow {
    /// Workload label (`escat`, `render`, `htf-pargos`).
    pub workload: String,
    /// Inner backend under the log tier (`pfs`, `ppfs`, `cio`).
    pub inner: String,
    /// Per-node log capacity, MB.
    pub log_mb: u64,
    /// Drain bandwidth, MB/s.
    pub drain_mbps: f64,
    /// Crash instant as a fraction of the healthy checkpointed wall.
    pub crash_frac: f64,
    /// Mean checkpoint-commit latency on the log tier, milliseconds.
    pub commit_ms: f64,
    /// Mean checkpoint-commit latency on the direct backend, milliseconds.
    pub direct_commit_ms: f64,
    /// `direct_commit_ms / commit_ms` — the headline latency drop.
    pub commit_speedup: f64,
    /// Healthy checkpointed wall on the log tier, seconds.
    pub wall_secs: f64,
    /// Healthy checkpointed wall on the direct backend, seconds.
    pub direct_wall_secs: f64,
    /// Durable epoch recovered from the crashed log-tier run.
    pub durable_epoch: u32,
    /// Durable epoch recovered from the crashed direct run.
    pub direct_epoch: u32,
    /// Epoch boundaries in a full run.
    pub epochs: u32,
    /// Framed bytes still undrained at the crash, MB (the replay exposure).
    pub pending_mb: f64,
    /// Log-replay time: undrained frames pumped at the drain bandwidth, s.
    pub replay_secs: f64,
    /// Time-to-recovery on the log tier: replay + resumed wall, seconds.
    pub ttr_secs: f64,
    /// Time-to-recovery on the direct backend: resumed wall, seconds.
    pub direct_ttr_secs: f64,
    /// Covered-file bytes written after the log-aware cut, MB.
    pub lost_mb: f64,
    /// Covered-file bytes written after the direct cut, MB.
    pub direct_lost_mb: f64,
    /// Highest framed occupancy any node's log reached, MB.
    pub occ_peak_mb: f64,
    /// Time appends spent parked on a full log, seconds.
    pub stall_secs: f64,
}

impl Row for BlogRow {
    const CSV_HEADER: &'static str = "workload,inner,log_mb,drain_mbps,crash_frac,commit_ms,direct_commit_ms,commit_speedup,wall_secs,direct_wall_secs,durable_epoch,direct_epoch,epochs,pending_mb,replay_secs,ttr_secs,direct_ttr_secs,lost_mb,direct_lost_mb,occ_peak_mb,stall_secs";
    const TXT_HEADER: &'static str = "workload    inner  log(MB)  drain(MB/s)  crash  commit(ms)  direct(ms)  speedup  epoch  pend(MB)  replay(s)  ttr(s)  dttr(s)  lost(MB)  occ(MB)  stall(s)\n";

    fn csv(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.workload,
            self.inner,
            self.log_mb,
            self.drain_mbps,
            self.crash_frac,
            self.commit_ms,
            self.direct_commit_ms,
            self.commit_speedup,
            self.wall_secs,
            self.direct_wall_secs,
            self.durable_epoch,
            self.direct_epoch,
            self.epochs,
            self.pending_mb,
            self.replay_secs,
            self.ttr_secs,
            self.direct_ttr_secs,
            self.lost_mb,
            self.direct_lost_mb,
            self.occ_peak_mb,
            self.stall_secs
        )
    }

    fn txt(&self) -> String {
        format!(
            "{:<11} {:<6} {:>7} {:>12.1} {:>6.2} {:>11.3} {:>11.3} {:>7.1}x {:>3}/{:<2} {:>8.1} {:>10.1} {:>7.1} {:>8.1} {:>9.3} {:>8.1} {:>8.3}\n",
            self.workload,
            self.inner,
            self.log_mb,
            self.drain_mbps,
            self.crash_frac,
            self.commit_ms,
            self.direct_commit_ms,
            self.commit_speedup,
            self.durable_epoch,
            self.epochs,
            self.pending_mb,
            self.replay_secs,
            self.ttr_secs,
            self.direct_ttr_secs,
            self.lost_mb,
            self.occ_peak_mb,
            self.stall_secs,
        )
    }

    fn key(&self) -> String {
        format!(
            "blog-{}-{}-log{}-drain{}-crash{}",
            self.workload, self.inner, self.log_mb, self.drain_mbps, self.crash_frac
        )
    }

    fn canonical(&self) -> String {
        format!(
            "commit_ms={:.6} direct_ms={:.6} wall={:.6} dwall={:.6} epoch={}/{} depoch={} \
             pending_mb={:.6} replay={:.6} ttr={:.6} dttr={:.6} lost_mb={:.6} dlost_mb={:.6} \
             occ_mb={:.6} stall={:.9}",
            self.commit_ms,
            self.direct_commit_ms,
            self.wall_secs,
            self.direct_wall_secs,
            self.durable_epoch,
            self.epochs,
            self.direct_epoch,
            self.pending_mb,
            self.replay_secs,
            self.ttr_secs,
            self.direct_ttr_secs,
            self.lost_mb,
            self.direct_lost_mb,
            self.occ_peak_mb,
            self.stall_secs,
        )
    }
}

const WORKLOADS: [&str; 3] = ["escat", "render", "htf-pargos"];
const INNERS: [&str; 3] = ["pfs", "ppfs", "cio"];
const BASE_LOG_MB: u64 = 64;
const BASE_DRAIN_MBPS: f64 = 8.0;
const BASE_CRASH: f64 = 0.5;

/// The X7 cell grid in canonical order: every workload × inner at the base
/// point, then the escat×pfs axis sweeps — log size, drain bandwidth, and
/// crash instant each varied alone.
fn blog_cases() -> Vec<(&'static str, &'static str, u64, f64, f64)> {
    let mut cases = Vec::new();
    for w in WORKLOADS {
        for i in INNERS {
            cases.push((w, i, BASE_LOG_MB, BASE_DRAIN_MBPS, BASE_CRASH));
        }
    }
    for log_mb in [16, 256] {
        cases.push(("escat", "pfs", log_mb, BASE_DRAIN_MBPS, BASE_CRASH));
    }
    for drain in [4.0, 16.0] {
        cases.push(("escat", "pfs", BASE_LOG_MB, drain, BASE_CRASH));
    }
    for crash in [0.3, 0.7] {
        cases.push(("escat", "pfs", BASE_LOG_MB, BASE_DRAIN_MBPS, crash));
    }
    cases
}

/// Mean issue → durable latency of a healthy run's checkpoint commits
/// (see [`commit_events`]), nanoseconds: per writer, the `j`-th slot
/// `Write`'s start through the `j`-th commit `Flush`'s end.
pub(crate) fn mean_commit_ns(commits: &[WriterCommits]) -> f64 {
    let (mut sum, mut n) = (0u128, 0u64);
    for c in commits {
        for (w, s) in c.writes.iter().zip(c.syncs.iter()) {
            sum += (s.end - w.start) as u128;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

/// Sweep axes pinned from the command line (`repro blog --log-mb /
/// --drain-mbps / --crash-frac`); `None` leaves an axis to the grid.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlogPins {
    /// Per-node log capacity, MB.
    pub log_mb: Option<u64>,
    /// Drain bandwidth, MB/s.
    pub drain_mbps: Option<f64>,
    /// Crash instant, fraction of the healthy checkpointed wall.
    pub crash_frac: Option<f64>,
}

/// Run the X7 burst-buffer sweep on `jobs` workers over the canonical grid.
pub fn blog_suite_jobs(
    machine: &MachineConfig,
    escat: &EscatParams,
    render: &RenderParams,
    htf: &HtfParams,
    jobs: usize,
) -> Vec<BlogRow> {
    blog_suite_overrides_jobs(machine, escat, render, htf, BlogPins::default(), jobs)
}

/// [`blog_suite_jobs`] with pinned sweep axes: when any axis is pinned,
/// the grid collapses to the workload × inner cells at that point —
/// sweeping an axis the user just pinned would be noise. Three fan-out
/// phases — healthy walls on the tier, healthy walls direct, then the
/// crash / replay / resume cells — with shared baselines deduplicated, so
/// rows are worker-count invariant and come back in canonical case order.
pub fn blog_suite_overrides_jobs(
    machine: &MachineConfig,
    escat: &EscatParams,
    render: &RenderParams,
    htf: &HtfParams,
    pins: BlogPins,
    jobs: usize,
) -> Vec<BlogRow> {
    let cases = if pins == BlogPins::default() {
        blog_cases()
    } else {
        let (l, d, c) = (
            pins.log_mb.unwrap_or(BASE_LOG_MB),
            pins.drain_mbps.unwrap_or(BASE_DRAIN_MBPS),
            pins.crash_frac.unwrap_or(BASE_CRASH),
        );
        let mut cases = Vec::new();
        for w in WORKLOADS {
            for i in INNERS {
                cases.push((w, i, l, d, c));
            }
        }
        cases
    };
    let apps = CheckpointedApps { escat, render, htf };
    let direct_of = |iname: &str| -> Backend { Backend::parse(iname).expect("known inner") };
    let blog_of = |iname: &str, log_mb: u64, drain_mbps: f64| -> Backend {
        Backend::Blog(
            Box::new(direct_of(iname)),
            BlogParams::new(log_mb, drain_mbps),
        )
    };
    let run_healthy = |wname: &str, backend: &Backend| {
        let cw = apps.build(wname, apps.interval(wname), 0);
        run_checkpointed(machine, &cw, backend, None, None)
    };

    // Phase 1: healthy checkpointed walls + commit latency on the log
    // tier, one per distinct (workload, inner, log, drain) configuration.
    let mut blog_cfgs: Vec<(&str, &str, u64, f64)> =
        cases.iter().map(|&(w, i, l, d, _)| (w, i, l, d)).collect();
    blog_cfgs.dedup();
    let blog_healthy = runner::par_map_jobs(jobs, blog_cfgs.clone(), |_, (w, i, l, d)| {
        let out = run_healthy(w, &blog_of(i, l, d));
        let plan = apps.build(w, apps.interval(w), 0).plan;
        (
            out.report.wall,
            mean_commit_ns(&commit_events(&out.trace, &plan)),
        )
    });
    let blog_base = |w: &str, i: &str, l: u64, d: f64| -> (SimTime, f64) {
        blog_healthy[blog_cfgs.iter().position(|c| *c == (w, i, l, d)).unwrap()]
    };

    // Phase 2: the direct baselines, one per distinct (workload, inner).
    let mut direct_cfgs: Vec<(&str, &str)> = cases.iter().map(|&(w, i, ..)| (w, i)).collect();
    direct_cfgs.sort_unstable();
    direct_cfgs.dedup();
    let direct_healthy = runner::par_map_jobs(jobs, direct_cfgs.clone(), |_, (w, i)| {
        let out = run_healthy(w, &direct_of(i));
        let plan = apps.build(w, apps.interval(w), 0).plan;
        (
            out.report.wall,
            mean_commit_ns(&commit_events(&out.trace, &plan)),
        )
    });
    let direct_base = |w: &str, i: &str| -> (SimTime, f64) {
        direct_healthy[direct_cfgs.iter().position(|c| *c == (w, i)).unwrap()]
    };

    // Phase 3: crash each cell on both tiers, derive both cuts, resume.
    runner::par_map_jobs(
        jobs,
        cases,
        |_, (wname, iname, log_mb, drain_mbps, frac)| {
            let iv = apps.interval(wname);
            let units = apps.units(wname);
            let blog_backend = blog_of(iname, log_mb, drain_mbps);
            let direct_backend = direct_of(iname);
            let (blog_wall, blog_commit_ns) = blog_base(wname, iname, log_mb, drain_mbps);
            let (direct_wall, direct_commit_ns) = direct_base(wname, iname);

            let cw = apps.build(wname, iv, 0);
            let t_crash_b = SimTime((blog_wall.nanos() as f64 * frac) as u64);
            let crashed_b = run_checkpointed(machine, &cw, &blog_backend, None, Some(t_crash_b));
            let cut_b = durable_cut_logged(&crashed_b.trace, &cw.plan, &units, t_crash_b);
            let lost_b = lost_work_bytes(&crashed_b.trace, &cw.plan, &units, cut_b.epoch);
            let stats = crashed_b.blog.expect("log tier ran");
            let replay_secs = stats.pending_bytes as f64 / (drain_mbps * 1.0e6);
            let resumed_b = apps.build(wname, iv, cut_b.epoch);
            let out_b = run_checkpointed(machine, &resumed_b, &blog_backend, None, None);

            let t_crash_d = SimTime((direct_wall.nanos() as f64 * frac) as u64);
            let crashed_d = run_checkpointed(machine, &cw, &direct_backend, None, Some(t_crash_d));
            let cut_d = durable_cut(&crashed_d.trace, &cw.plan, &units, t_crash_d);
            let lost_d = lost_work_bytes(&crashed_d.trace, &cw.plan, &units, cut_d.epoch);
            let resumed_d = apps.build(wname, iv, cut_d.epoch);
            let out_d = run_checkpointed(machine, &resumed_d, &direct_backend, None, None);

            let commit_ms = blog_commit_ns / 1e6;
            let direct_commit_ms = direct_commit_ns / 1e6;
            BlogRow {
                workload: wname.to_string(),
                inner: iname.to_string(),
                log_mb,
                drain_mbps,
                crash_frac: frac,
                commit_ms,
                direct_commit_ms,
                commit_speedup: direct_commit_ms / commit_ms.max(f64::EPSILON),
                wall_secs: blog_wall.nanos() as f64 / NS_PER_SEC,
                direct_wall_secs: direct_wall.nanos() as f64 / NS_PER_SEC,
                durable_epoch: cut_b.epoch,
                direct_epoch: cut_d.epoch,
                epochs: cw.plan.epochs,
                pending_mb: stats.pending_bytes as f64 / 1e6,
                replay_secs,
                ttr_secs: replay_secs + out_b.report.wall.nanos() as f64 / NS_PER_SEC,
                direct_ttr_secs: out_d.report.wall.nanos() as f64 / NS_PER_SEC,
                lost_mb: lost_b as f64 / 1e6,
                direct_lost_mb: lost_d as f64 / 1e6,
                occ_peak_mb: stats.occupancy_peak as f64 / 1e6,
                stall_secs: stats.stall_ns as f64 / NS_PER_SEC,
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MachineConfig {
        MachineConfig::tiny(4, 2)
    }

    fn small_suite(jobs: usize) -> Vec<BlogRow> {
        blog_suite_jobs(
            &tiny(),
            &EscatParams::small(4, 6),
            &RenderParams::small(4, 3),
            &HtfParams::small(4),
            jobs,
        )
    }

    #[test]
    fn suite_headline_claims_hold_at_small_scale() {
        let rows = small_suite(2);
        assert_eq!(rows.len(), 15, "grid shape changed");
        let columns = BlogRow::CSV_HEADER.split(',').count();
        for r in &rows {
            let csv = r.csv();
            assert_eq!(csv.split(',').count(), columns, "csv drifted: {csv}");
            // The tier's contract: commits land at local-log speed — at
            // least 4x below the direct software path — while recovery
            // stays within 2x of the direct baseline.
            assert!(
                r.commit_speedup >= 4.0,
                "{}+{}: commit speedup only {:.1}x ({:.3} vs {:.3} ms)",
                r.workload,
                r.inner,
                r.commit_speedup,
                r.direct_commit_ms,
                r.commit_ms
            );
            assert!(
                r.ttr_secs <= 2.0 * r.direct_ttr_secs,
                "{}+{}: TTR {:.1}s vs direct {:.1}s",
                r.workload,
                r.inner,
                r.ttr_secs,
                r.direct_ttr_secs
            );
            assert!(r.epochs > 0);
            assert!(r.durable_epoch <= r.epochs && r.direct_epoch <= r.epochs);
        }
    }

    #[test]
    fn suite_rows_are_worker_count_invariant() {
        assert_eq!(small_suite(1), small_suite(8));
    }

    #[test]
    fn crash_override_pins_the_crash_axis() {
        let rows = blog_suite_overrides_jobs(
            &tiny(),
            &EscatParams::small(4, 6),
            &RenderParams::small(4, 3),
            &HtfParams::small(4),
            BlogPins {
                crash_frac: Some(0.4),
                ..BlogPins::default()
            },
            2,
        );
        assert_eq!(rows.len(), 9, "one cell per workload x inner");
        assert!(rows.iter().all(|r| r.crash_frac == 0.4));
    }
}
