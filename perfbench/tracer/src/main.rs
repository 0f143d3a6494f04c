//! Outside-in per-layer tracer for the repo benchmark (`perfbench/run.py`).
//!
//! ```text
//! perfbench-tracer run   <paper|chaos|repro-all> --seed N --out DIR
//! perfbench-tracer setup <paper|chaos|repro-all> --seed N
//! perfbench-tracer exec  <usage-file> <program> [args...]
//! ```
//!
//! `run` makes one traced pass over a workload and prints one JSON object of
//! per-layer metrics. `setup` only generates the workload's inputs and exits;
//! the benchmark times that child from outside as `setup_s`. `exec` runs one
//! program and writes its wall time, CPU time and peak RSS to the usage file
//! (see [`exec`]).
//!
//! The simulator carries no spans of its own, so every span here sits at a
//! boundary this file can see from outside: the `sio-apps` generators, a
//! copy of `run_workload_crashable` ([`replica`]) whose backend runs inside
//! [`Timed`], and the `analysis` reductions, checks and writers. Each
//! replayed simulation is also run once through the real
//! `run_workload_crashable`, untimed by any wrapper; the replica must match
//! it on engine events, simulated wall time and SDDF trace bytes.

use paragon_sim::engine::{IoService, Sched};
use paragon_sim::mesh::Mesh;
use paragon_sim::program::{IoRequest, IoToken, NodeProgram, ScriptProgram};
use paragon_sim::{Engine, FaultSchedule, MachineConfig, NodeId, SimDuration, SimTime};
use sio_analysis::chaos::{self, ChaosSpec};
use sio_analysis::characterize::Characterization;
use sio_analysis::compare::{self, Check, ShapeCheck};
use sio_analysis::figures::{self, FigureSet};
use sio_analysis::recovery::{self, durable_cut, durable_cut_logged};
use sio_analysis::{burst, experiments, report, runner, OpTable, SizeTable};
use sio_apps::workload::{run_workload_crashable, Backend, RunOutput, WATCHDOG_DEADLINE};
use sio_apps::{CheckpointedWorkload, EscatParams, FsBackend, HtfParams, RenderParams, Workload};
use sio_core::event::{IoOp, NS_PER_SEC};
use sio_core::trace::TraceSink;
use sio_ppfs::PolicyConfig;
use std::collections::BTreeMap;
use std::os::raw::{c_int, c_long};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The backend families `backend.<kind>.s` splits time into; a `blog+*`
/// stack counts as `blog`.
const KINDS: [&str; 4] = ["pfs", "ppfs", "cio", "blog"];

/// Experiment names of `repro all`, in its task order (`suite.<name>.s`).
const SUITES: [&str; 12] = [
    "escat",
    "render",
    "htf",
    "ppfs-ablation",
    "crossover",
    "ablations",
    "scaling",
    "faults",
    "recover",
    "cio",
    "blog",
    "chaos",
];

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A suite's span: its wall since `start`, less the fidelity reference runs
/// made inside it.
struct SuiteSpan {
    start: Instant,
    fidelity_ns: u64,
}

impl SuiteSpan {
    fn open(l: &Layers) -> SuiteSpan {
        SuiteSpan {
            start: Instant::now(),
            fidelity_ns: l.fidelity_ns,
        }
    }

    fn close(self, l: &mut Layers, name: &'static str) {
        let ns = ns_since(self.start) - (l.fidelity_ns - self.fidelity_ns);
        *l.suite_ns.entry(name).or_default() += ns;
    }
}

/// Run `f`, adding its host time to `acc`.
fn timed<R>(acc: &mut u64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += ns_since(t);
    r
}

/// The backend, wrapped so every call the engine makes into the service
/// layer is timed. Only `submit`, `on_timer` and `on_run_end` do backend
/// work worth a timer pair; the cheap hooks pass straight through and
/// their cost stays in engine self time.
struct Timed {
    inner: Box<dyn FsBackend>,
    ns: u64,
    calls: u64,
}

impl IoService for Timed {
    fn submit(
        &mut self,
        node: NodeId,
        now: SimTime,
        req: IoRequest,
        token: IoToken,
        is_async: bool,
        sched: &mut Sched,
    ) {
        let t = Instant::now();
        self.inner.submit(node, now, req, token, is_async, sched);
        self.ns += ns_since(t);
        self.calls += 1;
    }

    fn on_timer(&mut self, now: SimTime, timer: u64, sched: &mut Sched) {
        let t = Instant::now();
        self.inner.on_timer(now, timer, sched);
        self.ns += ns_since(t);
        self.calls += 1;
    }

    fn on_start(&mut self, sched: &mut Sched) {
        self.inner.on_start(sched);
    }

    fn issue_cost(&self, node: NodeId, req: &IoRequest) -> SimDuration {
        self.inner.issue_cost(node, req)
    }

    fn on_iowait(&mut self, node: NodeId, file: u32, wait_start: SimTime, wait_end: SimTime) {
        self.inner.on_iowait(node, file, wait_start, wait_end);
    }

    fn on_run_end(&mut self, now: SimTime) {
        let t = Instant::now();
        self.inner.on_run_end(now);
        self.ns += ns_since(t);
        self.calls += 1;
    }
}

/// Host time per layer (ns) and host-independent work counts, summed over
/// one traced pass.
#[derive(Default)]
struct Layers {
    gen_ns: u64,
    script_ops: u64,
    /// `Engine::new` through `run`/`run_until`, backend calls included.
    engine_ns: u64,
    /// Backend calls made from inside the engine run.
    backend_call_ns: u64,
    /// Backend calls plus backend construction and file registration.
    backend_ns: u64,
    backend_calls: u64,
    kind_ns: [u64; 4],
    finish_ns: u64,
    reduce_ns: u64,
    check_ns: u64,
    output_ns: u64,
    suite_ns: BTreeMap<&'static str, u64>,

    sims: u64,
    events: u64,
    heap_peak: u64,
    channel_peak: u64,
    trace_events: u64,
    trace_bytes: u64,
    sddf_bytes: u64,
    ionode_reqs: u64,
    ionode_bytes: Vec<u64>,
    retries: u64,
    failovers: u64,
    replayed: u64,
    rebuild_chunks: u64,
    meta_failovers: u64,
    meta_unavailable: u64,
    ppfs_hits: u64,
    ppfs_lookups: u64,
    prefetched_blocks: u64,
    flush_extents: u64,
    cio_members: u64,
    cio_collectives: u64,
    blog_stall_ns: u64,
    blog_occupancy_peak: u64,

    /// Correctness checks made during the pass, and how many failed.
    checks: u64,
    checks_failed: u64,
    /// Simulations whose replica differed from `run_workload_crashable`.
    mismatches: u64,
    replica_ns: u64,
    reference_ns: u64,
    /// Host time of the reference runs and comparisons, which the traced
    /// wall excludes.
    fidelity_ns: u64,
}

impl Layers {
    fn check(&mut self, ok: bool) {
        self.checks += 1;
        self.checks_failed += u64::from(!ok);
    }

    fn gen<W>(&mut self, f: impl FnOnce() -> W, ops: impl Fn(&W) -> &Workload) -> W {
        let w = timed(&mut self.gen_ns, f);
        self.script_ops += ops(&w).scripts.iter().map(|s| s.len() as u64).sum::<u64>();
        w
    }

    fn count(&mut self, out: &RunOutput) {
        for (i, l) in out.node_loads.iter().enumerate() {
            self.ionode_reqs += l.read_reqs + l.write_reqs;
            if self.ionode_bytes.len() <= i {
                self.ionode_bytes.resize(i + 1, 0);
            }
            self.ionode_bytes[i] += l.read_bytes + l.write_bytes;
        }
        if let Some(f) = out.pfs_faults {
            self.retries += f.retries;
            self.failovers += f.failovers;
        }
        if let Some(p) = out.ppfs_stats {
            self.replayed += p.replayed_segments;
            self.ppfs_hits += p.reads_hit;
            self.ppfs_lookups += p.reads_hit + p.reads_missed;
            self.prefetched_blocks += p.prefetched_blocks;
            self.flush_extents += p.flush_extents;
        }
        if let Some(m) = out.meta {
            self.meta_failovers += m.failovers;
            self.meta_unavailable += m.unavailable;
        }
        if let Some(c) = out.cio {
            self.cio_members += c.members;
            self.cio_collectives += c.collectives;
        }
        if let Some(b) = out.blog {
            self.blog_stall_ns += b.stall_ns;
            self.blog_occupancy_peak = self.blog_occupancy_peak.max(b.occupancy_peak);
        }
        self.rebuild_chunks += out.rebuild.0;
    }
}

/// Run one simulation through [`traced_run`] and through the real
/// `run_workload_crashable`, and count a mismatch unless they agree on
/// engine events, simulated wall time and SDDF trace bytes. The order
/// alternates between simulations so that warm caches favour neither side
/// of `trace_overhead_frac`.
fn replica(
    l: &mut Layers,
    machine: &MachineConfig,
    workload: &Workload,
    backend: &Backend,
    faults: Option<&FaultSchedule>,
    stop_at: Option<SimTime>,
    covered: &[u32],
) -> RunOutput {
    let mut reference = || {
        let t = Instant::now();
        let out = run_workload_crashable(machine, workload, backend, faults, stop_at, covered);
        (out, ns_since(t))
    };
    let first = l.sims.is_multiple_of(2).then(&mut reference);
    let out = traced_run(l, machine, workload, backend, faults, stop_at, covered);
    let (reference, reference_ns) = first.unwrap_or_else(reference);
    l.reference_ns += reference_ns;

    let t = Instant::now();
    let bytes = sio_core::sddf::to_bytes(&out.trace);
    let same = reference.report.events == out.report.events
        && reference.report.wall == out.report.wall
        && sio_core::sddf::to_bytes(&reference.trace) == bytes;
    l.sddf_bytes += bytes.len() as u64;
    l.mismatches += u64::from(!same);
    l.fidelity_ns += reference_ns + ns_since(t);
    out
}

/// The benchmark's copy of `sio_apps::workload::run_workload_crashable`
/// (serial engine path), with spans around backend construction, the
/// engine run, the backend calls inside it, and trace finishing.
fn traced_run(
    l: &mut Layers,
    machine: &MachineConfig,
    workload: &Workload,
    backend: &Backend,
    faults: Option<&FaultSchedule>,
    stop_at: Option<SimTime>,
    covered: &[u32],
) -> RunOutput {
    let start = Instant::now();
    let kind = KINDS
        .iter()
        .position(|k| *k == backend.name())
        .expect("every backend family is listed");
    let schedule = faults.cloned().unwrap_or_default();
    let nodes = workload.scripts.len() as u32;

    let t = Instant::now();
    let mut fs = backend.build(machine, TraceSink::new(&workload.label), schedule);
    for f in &workload.files {
        fs.register_file(f.clone());
    }
    for &file in covered {
        fs.mark_checkpoint_covered(file);
    }
    let build_ns = ns_since(t);

    let t = Instant::now();
    let mesh = Mesh::for_nodes(machine.compute_nodes, machine.io_nodes);
    let programs: Vec<Box<dyn NodeProgram>> = workload
        .scripts
        .iter()
        .map(|s| Box::new(ScriptProgram::new(s.clone())) as Box<dyn NodeProgram>)
        .collect();
    let service = Timed {
        inner: fs,
        ns: 0,
        calls: 0,
    };
    let mut engine = Engine::new(mesh, machine.comm, programs, service);
    engine.set_watchdog(WATCHDOG_DEADLINE);
    for g in &workload.groups {
        engine.add_group(g.clone());
    }
    let report = match stop_at {
        Some(t) => engine.run_until(t),
        None => {
            let report = engine.run();
            assert!(
                report.clean(),
                "workload '{}' stuck; blocked nodes: {:?}; watchdog: {:?}",
                workload.label,
                report.blocked,
                report.hang
            );
            report
        }
    };
    let perf = engine.perf();
    let service = engine.into_service();
    l.engine_ns += ns_since(t);
    l.backend_call_ns += service.ns;
    l.backend_ns += service.ns + build_ns;
    l.kind_ns[kind] += service.ns + build_ns;
    l.backend_calls += service.calls;
    let mut fs = service.inner;

    let t = Instant::now();
    let blog = fs.blog_stats();
    fs.sink_mut().set_run_info(nodes, report.wall.nanos());
    l.trace_events += fs.sink_mut().len() as u64;
    l.trace_bytes += fs.sink_mut().buffered_bytes();
    let out = RunOutput {
        ppfs_stats: fs.ppfs_stats(),
        pfs_faults: fs.pfs_fault_stats(),
        rebuild: fs.rebuild_totals(),
        degraded_nodes: fs.degraded_nodes(),
        node_loads: fs.node_loads(),
        cio: fs.cio_stats(),
        meta: fs.meta_stats(),
        blog,
        trace: fs.finish_trace(),
        report,
    };
    l.finish_ns += ns_since(t);
    l.replica_ns += ns_since(start);

    l.sims += 1;
    l.events += perf.events;
    l.heap_peak = l.heap_peak.max(perf.heap_peak);
    l.channel_peak = l.channel_peak.max(perf.channel_peak);
    l.count(&out);

    out
}

/// Record the paper-vs-measured and shape checks of one experiment.
fn record_checks(l: &mut Layers, checks: &[Check], shapes: &[ShapeCheck]) {
    for c in checks {
        l.check(c.pass());
    }
    for s in shapes {
        l.check(s.pass);
    }
}

/// One report, written the way `repro` lays its reports out.
fn write_report(out: &Path, name: &str, sections: &[(&str, String)], figs: &FigureSet) {
    let mut body = String::new();
    for (title, text) in sections {
        body.push_str(&report::section(title, text));
    }
    for f in &figs.figures {
        body.push_str(&f.to_ascii());
        body.push('\n');
    }
    figs.write_all(out).expect("write figures");
    report::write_text(out, name, &body).expect("write report");
}

fn paper_pass(l: &mut Layers, out: &Path) {
    let m = MachineConfig::paragon_128();

    let span = SuiteSpan::open(l);
    let p = EscatParams::paper();
    let w = l.gen(|| p.workload(), |w| w);
    let run = replica(l, &m, &w, &Backend::Pfs, None, None, &[]);
    let trace = &run.trace;
    let (t1, t2, figs, gaps, win, region, ch) = timed(&mut l.reduce_ns, || {
        let init_end =
            trace.of_op(IoOp::Write).map(|e| e.start).min().unwrap_or(0) as f64 / NS_PER_SEC;
        let (_, gaps) = figures::write_burst_gaps(trace, 20.0);
        (
            OpTable::from_trace(trace),
            SizeTable::from_trace(trace),
            FigureSet::escat(trace, init_end),
            gaps,
            figures::window_series(trace, 10.0),
            figures::region_series(trace, 7, 64 * 1024),
            Characterization::from_trace(trace),
        )
    });
    let (checks, shapes) = timed(&mut l.check_ns, || {
        let checks = [
            compare::escat_table1_checks(&t1),
            compare::escat_table2_checks(&t2),
        ]
        .concat();
        (checks, compare::escat_shape(&t1, &gaps))
    });
    record_checks(l, &checks, &shapes);
    timed(&mut l.output_ns, || {
        figures::write_window_csv(&win, out, "escat-window-10s").expect("window csv");
        figures::write_region_csv(&region, out, "escat-staging-regions").expect("region csv");
        write_report(
            out,
            "escat",
            &[
                ("Table 1 — ESCAT I/O operations", t1.render()),
                ("Table 2 — ESCAT request sizes", t2.render()),
                ("Paper vs measured", report::render_checks(&checks)),
                ("Shape checks", report::render_shapes(&shapes)),
                ("Qualitative characterization (paper §8)", ch.render()),
            ],
            &figs,
        );
    });
    drop(run);
    span.close(l, "escat");

    let span = SuiteSpan::open(l);
    let p = RenderParams::paper();
    let w = l.gen(|| p.workload(), |w| w);
    let run = replica(l, &m, &w, &Backend::Pfs, None, None, &[]);
    let trace = &run.trace;
    let (t3, t4, figs, win, ch, init_end) = timed(&mut l.reduce_ns, || {
        let init_end =
            trace.of_op(IoOp::Write).map(|e| e.start).min().unwrap_or(0) as f64 / NS_PER_SEC;
        (
            OpTable::from_trace(trace),
            SizeTable::from_trace(trace),
            FigureSet::render(trace),
            figures::window_series(trace, 5.0),
            Characterization::from_trace(trace),
            init_end,
        )
    });
    let (checks, shapes) = timed(&mut l.check_ns, || {
        (
            compare::render_table3_checks(&t3),
            compare::render_shape(&t3, run.wall_secs(), init_end),
        )
    });
    record_checks(l, &checks, &shapes);
    timed(&mut l.output_ns, || {
        figures::write_window_csv(&win, out, "render-window-5s").expect("window csv");
        write_report(
            out,
            "render",
            &[
                ("Table 3 — RENDER I/O operations", t3.render()),
                ("Table 4 — RENDER request sizes", t4.render()),
                ("Paper vs measured", report::render_checks(&checks)),
                ("Shape checks", report::render_shapes(&shapes)),
                ("Qualitative characterization (paper §8)", ch.render()),
            ],
            &figs,
        );
    });
    drop(run);
    span.close(l, "render");

    let span = SuiteSpan::open(l);
    let p = HtfParams::paper();
    let runs: Vec<RunOutput> = [
        l.gen(|| p.psetup_workload(), |w| w),
        l.gen(|| p.pargos_workload(), |w| w),
        l.gen(|| p.pscf_workload(), |w| w),
    ]
    .iter()
    .map(|w| replica(l, &m, w, &Backend::Pfs, None, None, &[]))
    .collect();
    let (tables, sizes, figs, wins) = timed(&mut l.reduce_ns, || {
        let tables: Vec<OpTable> = runs.iter().map(|r| OpTable::from_trace(&r.trace)).collect();
        let sizes: Vec<SizeTable> = runs
            .iter()
            .map(|r| SizeTable::from_trace(&r.trace))
            .collect();
        let figs = FigureSet::htf(&runs[0].trace, &runs[1].trace, &runs[2].trace);
        let wins: Vec<_> = runs
            .iter()
            .zip([5.0, 10.0, 10.0])
            .map(|(r, width)| figures::window_series(&r.trace, width))
            .collect();
        (tables, sizes, figs, wins)
    });
    let (checks, shapes) = timed(&mut l.check_ns, || {
        let checks = [
            compare::htf_table5_checks(&tables[0], &tables[1], &tables[2]),
            compare::htf_table6_checks(&sizes[0], &sizes[1], &sizes[2]),
        ]
        .concat();
        (checks, compare::htf_shape(&tables[1], &tables[2]))
    });
    record_checks(l, &checks, &shapes);
    timed(&mut l.output_ns, || {
        let names = [
            "htf-psetup-window-5s",
            "htf-pargos-window-10s",
            "htf-pscf-window-10s",
        ];
        for (win, name) in wins.iter().zip(names) {
            figures::write_window_csv(win, out, name).expect("window csv");
        }
        let mut sections: Vec<(&str, String)> = tables
            .iter()
            .map(|t| ("Table 5 — HTF", t.render()))
            .chain(sizes.iter().map(|s| ("Table 6 — HTF sizes", s.render())))
            .collect();
        sections.push(("Paper vs measured", report::render_checks(&checks)));
        sections.push(("Shape checks", report::render_shapes(&shapes)));
        write_report(out, "htf", &sections, &figs);
    });
    drop(runs);
    span.close(l, "htf");

    let span = SuiteSpan::open(l);
    let p = EscatParams::paper();
    let runs: Vec<RunOutput> = [Backend::Pfs, Backend::Ppfs(PolicyConfig::escat_tuned())]
        .iter()
        .map(|b| {
            let w = l.gen(|| p.workload(), |w| w);
            replica(l, &m, &w, b, None, None, &[])
        })
        .collect();
    let write_seek: Vec<f64> = timed(&mut l.reduce_ns, || {
        runs.iter()
            .map(|r| {
                let t = OpTable::from_trace(&r.trace);
                t.secs(IoOp::Write) + t.secs(IoOp::Seek)
            })
            .collect()
    });
    let speedup = write_seek[0] / write_seek[1].max(1e-9);
    l.check(speedup > 100.0);
    timed(&mut l.output_ns, || {
        let body = report::section(
            "X1 — §5.2 PPFS write-behind + aggregation on ESCAT",
            &format!(
                "PFS  write+seek node time: {:>12.1} s\nPPFS write+seek node time: {:>12.1} s\nimprovement: {:>12.1} x\n",
                write_seek[0], write_seek[1], speedup
            ),
        );
        report::write_text(out, "ppfs_ablation", &body).expect("write report");
    });
    drop(runs);
    span.close(l, "ppfs-ablation");
}

/// Chaos inputs: the cell specs and one checkpointed workload per
/// simulation, in the order `chaos::chaos_suite_jobs` runs them.
struct ChaosInputs {
    specs: Vec<ChaosSpec>,
    /// Distinct (workload, backend) pairs, one healthy baseline each.
    combos: Vec<(&'static str, &'static str)>,
}

fn chaos_inputs(seed: u64, io_nodes: u32) -> ChaosInputs {
    let specs = chaos::chaos_specs(seed, CHAOS_CELLS, io_nodes);
    let mut combos: Vec<_> = specs.iter().map(|s| (s.workload, s.backend)).collect();
    combos.sort_unstable();
    combos.dedup();
    ChaosInputs { specs, combos }
}

/// `repro --cells` as the `chaos` workload runs it.
const CHAOS_CELLS: u32 = 50;

struct ChaosApps {
    escat: EscatParams,
    render: RenderParams,
    htf: HtfParams,
}

impl ChaosApps {
    fn paper() -> ChaosApps {
        ChaosApps {
            escat: EscatParams::paper(),
            render: RenderParams::paper(),
            htf: HtfParams::paper(),
        }
    }

    fn units(&self, workload: &str) -> Vec<u32> {
        match workload {
            "escat" => vec![self.escat.iters; self.escat.nodes as usize],
            "render" => vec![self.render.frames],
            "htf-pargos" => (0..self.htf.nodes)
                .map(|n| self.htf.records_of(n))
                .collect(),
            other => panic!("unknown chaos workload '{other}'"),
        }
    }

    fn build(&self, workload: &str) -> CheckpointedWorkload {
        let interval = self.units(workload)[0].div_ceil(3).max(1);
        match workload {
            "escat" => self.escat.workload_checkpointed(interval, 0),
            "render" => self.render.workload_checkpointed(interval, 0),
            "htf-pargos" => self.htf.pargos_workload_checkpointed(interval, 0),
            other => panic!("unknown chaos workload '{other}'"),
        }
    }
}

fn chaos_pass(l: &mut Layers, out: &Path, seed: u64) {
    let span = SuiteSpan::open(l);
    let m = MachineConfig::paragon_128();
    let apps = ChaosApps::paper();
    let inputs = timed(&mut l.gen_ns, || chaos_inputs(seed, m.io_nodes));
    let backend_of = |name: &str| Backend::parse(name).expect("registered backend name");

    let mut baselines = Vec::new();
    for &(w, b) in &inputs.combos {
        let cw = l.gen(|| apps.build(w), |cw| &cw.workload);
        let run = replica(
            l,
            &m,
            &cw.workload,
            &backend_of(b),
            None,
            None,
            &cw.plan.covered,
        );
        baselines.push((run.report.wall, run.node_loads));
    }

    let mut rows = Vec::new();
    for spec in &inputs.specs {
        let i = inputs
            .combos
            .iter()
            .position(|c| *c == (spec.workload, spec.backend))
            .expect("every cell has a baseline");
        let (healthy_wall, healthy_loads) = &baselines[i];
        let schedule = spec.schedule(*healthy_wall);
        let stop_at = spec
            .crash_frac
            .map(|f| SimTime((healthy_wall.nanos() as f64 * f) as u64));
        let cw = l.gen(|| apps.build(spec.workload), |cw| &cw.workload);
        let run = replica(
            l,
            &m,
            &cw.workload,
            &backend_of(spec.backend),
            Some(&schedule),
            stop_at,
            &cw.plan.covered,
        );
        let ok = timed(&mut l.check_ns, || {
            let pf = run.pfs_faults.unwrap_or_default();
            let meta = run.meta.unwrap_or_default();
            let unavailable = meta.unavailable + pf.unavailable.saturating_sub(meta.unavailable);
            let hang_clean = run.report.hang.is_none() && (stop_at.is_some() || run.report.clean());
            let typed_ok = pf.timeouts == 0
                && pf.data_loss_events == 0
                && (spec.has_meta_outage() || unavailable == 0);
            let conserved = !(spec.lossless() && stop_at.is_none())
                || (run.node_loads.len() == healthy_loads.len()
                    && run.node_loads.iter().zip(healthy_loads).all(|(a, b)| {
                        a.read_bytes == b.read_bytes && a.write_bytes == b.write_bytes
                    }));
            let cut_ok = match stop_at {
                Some(t) => {
                    let units = apps.units(spec.workload);
                    let cut = if spec.backend.starts_with("blog+") {
                        durable_cut_logged(&run.trace, &cw.plan, &units, t)
                    } else {
                        durable_cut(&run.trace, &cw.plan, &units, t)
                    };
                    cut.epoch <= cw.plan.epochs
                }
                None => true,
            };
            hang_clean && typed_ok && conserved && cut_ok && run.trace.validate().is_ok()
        });
        l.check(ok);
        rows.push(format!(
            "{},{},{},{},{}",
            spec.cell,
            spec.workload,
            spec.backend,
            run.report.wall.nanos(),
            ok
        ));
    }
    timed(&mut l.output_ns, || {
        report::write_csv(out, "chaos", "cell,workload,backend,wall_ns,ok", &rows)
            .expect("write csv");
    });
    span.close(l, "chaos");
}

/// Time each public suite entry point `repro all` calls, one at a time on a
/// one-worker pool, so each figure is that suite's own host time.
fn repro_all_pass(l: &mut Layers) {
    runner::set_jobs(1);
    let m = MachineConfig::paragon_128();
    let (ep, rp, hp) = (
        EscatParams::paper(),
        RenderParams::paper(),
        HtfParams::paper(),
    );
    for name in SUITES {
        let t = Instant::now();
        match name {
            "escat" => drop(experiments::escat(&m, &ep)),
            "render" => drop(experiments::render(&m, &rp)),
            "htf" => drop(experiments::htf(&m, &hp)),
            "ppfs-ablation" => drop(experiments::ppfs_ablation(&m, &ep)),
            "crossover" => drop(experiments::htf_crossover_paper()),
            "ablations" => {
                drop(experiments::mode_ablation(&m, 32, 16, 2048));
                drop(experiments::policy_matrix(&m));
                drop(experiments::queue_discipline(&m, 16));
                drop(experiments::raid_degraded(&m));
                drop(experiments::two_level_buffering(&m, 8));
                drop(experiments::workload_mix(&m, &ep, &hp));
            }
            "scaling" => {
                let big = MachineConfig::caltech_paragon();
                drop(experiments::escat_scaling(&big, &[32, 64, 128, 256, 512]));
                drop(experiments::escat_growth(&m, &ep, &[1, 4, 16]));
            }
            "faults" => drop(experiments::fault_suite(&m, &ep, &rp, &hp)),
            "recover" => drop(recovery::recover_suite_jobs(&m, &ep, &rp, &hp, 1)),
            "cio" => drop(experiments::cio_suite(&m, &ep, &rp, &hp, &[64, 128])),
            "blog" => drop(burst::blog_suite_jobs(&m, &ep, &rp, &hp, 1)),
            "chaos" => {
                let rows = chaos::chaos_suite_jobs(&m, &ep, &rp, &hp, 42, CHAOS_CELLS, 1);
                for r in &rows {
                    l.check(r.invariants_ok());
                }
            }
            other => unreachable!("suite '{other}' is listed in SUITES"),
        }
        l.suite_ns.insert(name, ns_since(t));
    }
}

/// Generate a workload's inputs the way its traced pass does, and nothing
/// else.
fn setup(workload: &str, seed: u64) -> u64 {
    let mut ops = 0u64;
    let mut add = |w: &Workload| ops += w.scripts.iter().map(|s| s.len() as u64).sum::<u64>();
    if workload != "chaos" {
        let (ep, rp, hp) = (
            EscatParams::paper(),
            RenderParams::paper(),
            HtfParams::paper(),
        );
        for w in [
            ep.workload(),
            rp.workload(),
            hp.psetup_workload(),
            hp.pargos_workload(),
            hp.pscf_workload(),
            ep.workload(),
            ep.workload(),
        ] {
            add(&w);
        }
    }
    if workload != "paper" {
        let seed = if workload == "chaos" { seed } else { 42 };
        let apps = ChaosApps::paper();
        let inputs = chaos_inputs(seed, MachineConfig::paragon_128().io_nodes);
        let names = inputs.combos.iter().map(|c| c.0);
        for w in names.chain(inputs.specs.iter().map(|s| s.workload)) {
            add(&apps.build(w).workload);
        }
    }
    ops
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read output dir")
        .map(|e| e.expect("dir entry").metadata().expect("metadata").len())
        .sum()
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The per-layer metrics of one pass, by name, in a fixed order.
fn metrics(l: &Layers, wall_ns: u64, out_bytes: u64) -> Vec<(String, f64)> {
    let engine_self = l.engine_ns - l.backend_call_ns;
    let layer_ns = l.gen_ns
        + engine_self
        + l.backend_ns
        + l.finish_ns
        + l.reduce_ns
        + l.check_ns
        + l.output_ns;
    // repro-all times whole suites, which already contain every other layer.
    let attributed = if l.sims == 0 {
        l.suite_ns.values().sum()
    } else {
        layer_ns
    };
    let node_mean = ratio(l.ionode_bytes.iter().sum(), l.ionode_bytes.len() as u64);
    let node_max = l.ionode_bytes.iter().copied().max().unwrap_or(0) as f64;
    let mut m: Vec<(String, f64)> = vec![
        ("apps.gen_s".into(), secs(l.gen_ns)),
        ("apps.script_ops".into(), l.script_ops as f64),
        ("engine.events".into(), l.events as f64),
        ("engine.self_s".into(), secs(engine_self)),
        ("engine.ns_per_event".into(), ratio(engine_self, l.events)),
        ("engine.heap_peak".into(), l.heap_peak as f64),
        ("engine.channel_peak".into(), l.channel_peak as f64),
        ("backend.calls".into(), l.backend_calls as f64),
        ("backend.s".into(), secs(l.backend_ns)),
        (
            "backend.ns_per_call".into(),
            ratio(l.backend_ns, l.backend_calls),
        ),
    ];
    for (kind, ns) in KINDS.iter().zip(l.kind_ns) {
        m.push((format!("backend.{kind}.s"), secs(ns)));
    }
    m.extend([
        ("pump.retries".into(), l.retries as f64),
        ("pump.failovers".into(), l.failovers as f64),
        ("pump.replayed".into(), l.replayed as f64),
        ("ionode.reqs".into(), l.ionode_reqs as f64),
        (
            "ionode.bytes".into(),
            l.ionode_bytes.iter().sum::<u64>() as f64,
        ),
        (
            "ionode.imbalance".into(),
            if node_mean > 0.0 {
                node_max / node_mean
            } else {
                0.0
            },
        ),
        ("raid.rebuild_chunks".into(), l.rebuild_chunks as f64),
        ("meta.failovers".into(), l.meta_failovers as f64),
        ("meta.unavailable".into(), l.meta_unavailable as f64),
        ("ppfs.hit_ratio".into(), ratio(l.ppfs_hits, l.ppfs_lookups)),
        ("ppfs.prefetched_blocks".into(), l.prefetched_blocks as f64),
        ("ppfs.flush_extents".into(), l.flush_extents as f64),
        (
            "cio.members_per_collective".into(),
            ratio(l.cio_members, l.cio_collectives),
        ),
        ("blog.stall_ns".into(), l.blog_stall_ns as f64),
        ("blog.occupancy_peak".into(), l.blog_occupancy_peak as f64),
        ("trace.events".into(), l.trace_events as f64),
        ("trace.bytes".into(), l.trace_bytes as f64),
        ("trace.sddf_bytes".into(), l.sddf_bytes as f64),
        ("trace.finish_s".into(), secs(l.finish_ns)),
        ("reduce.s".into(), secs(l.reduce_ns)),
        ("check.s".into(), secs(l.check_ns)),
        ("output.s".into(), secs(l.output_ns)),
        ("output.bytes".into(), out_bytes as f64),
        (
            "output.mb_per_s".into(),
            if l.output_ns > 0 {
                out_bytes as f64 / 1e6 / secs(l.output_ns)
            } else {
                0.0
            },
        ),
    ]);
    for name in SUITES {
        m.push((
            format!("suite.{name}.s"),
            secs(l.suite_ns.get(name).copied().unwrap_or(0)),
        ));
    }
    m.extend([
        ("replica.sims".into(), l.sims as f64),
        ("replica.mismatches".into(), l.mismatches as f64),
        (
            "trace_overhead_frac".into(),
            ratio(l.replica_ns, l.reference_ns),
        ),
        ("traced_wall_s".into(), secs(wall_ns)),
        ("unattributed_s".into(), secs(wall_ns) - secs(attributed)),
        ("checks.attempted".into(), l.checks as f64),
        ("checks.failed".into(), l.checks_failed as f64),
    ]);
    m
}

fn to_json(metrics: &[(String, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:?}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

struct Args {
    command: String,
    workload: String,
    seed: u64,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command (run|setup|exec)")?;
    let workload = argv.next().ok_or("missing workload")?;
    if !["paper", "chaos", "repro-all"].contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let mut args = Args {
        command,
        workload,
        seed: 42,
        out: None,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "--out" => args.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(args)
}

/// `struct rusage` of Linux: two `struct timeval`s, then fourteen `long`s
/// starting with `ru_maxrss` (KiB).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_CHILDREN: c_int = -1;

/// Run `program` as this process's only child and write
/// `{"wall_s", "cpu_s", "maxrss_kb", "code"}` to `usage_file`.
///
/// The benchmark measures `repro` through this launcher rather than
/// directly because Linux carries a process's peak RSS across `exec`: a
/// child forked from the Python driver would report at least the driver's
/// own peak. This launcher is small, so its children report their own.
fn exec(usage_file: &str, program: &str, args: &[String]) -> i32 {
    let start = Instant::now();
    let status = std::process::Command::new(program)
        .args(args)
        .status()
        .unwrap_or_else(|e| {
            eprintln!("error: cannot run {program}: {e}");
            std::process::exit(2);
        });
    let wall = start.elapsed().as_secs_f64();
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout
    // declared above, and RUSAGE_CHILDREN is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    let secs = |tv: [c_long; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    let code = status.code().unwrap_or(-1);
    let line = format!(
        "{{\"wall_s\": {wall:?}, \"cpu_s\": {:?}, \"maxrss_kb\": {}, \"code\": {code}}}\n",
        secs(usage.utime) + secs(usage.stime),
        usage.maxrss
    );
    std::fs::write(usage_file, line).expect("write usage file");
    code
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("exec") {
        if argv.len() < 4 {
            eprintln!("error: exec needs <usage-file> <program> [args...]");
            std::process::exit(2);
        }
        std::process::exit(exec(&argv[2], &argv[3], &argv[4..]));
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    match args.command.as_str() {
        "setup" => println!("{}", setup(&args.workload, args.seed)),
        "run" => {
            let out = args.out.unwrap_or_else(|| {
                eprintln!("error: run needs --out DIR");
                std::process::exit(2);
            });
            std::fs::create_dir_all(&out).expect("create output dir");
            let mut l = Layers::default();
            let start = Instant::now();
            match args.workload.as_str() {
                "paper" => paper_pass(&mut l, &out),
                "chaos" => chaos_pass(&mut l, &out, args.seed),
                _ => repro_all_pass(&mut l),
            }
            let wall_ns = ns_since(start) - l.fidelity_ns;
            println!("{}", to_json(&metrics(&l, wall_ns, dir_bytes(&out))));
        }
        other => {
            eprintln!("error: unknown command '{other}' (run|setup|exec)");
            std::process::exit(2);
        }
    }
}
