//! `repro` — regenerate every table and figure of the paper.
//!
//! `repro --help` prints the options and the experiment list ([`usage`],
//! read from [`SUITES`]).
//!
//! Paper-scale runs (`escat`, `render`, `htf`) use the 128-node Caltech
//! Paragon partition and the `paper()` parameters; `--fast` substitutes the
//! scaled-down parameters (for smoke tests). Outputs land in `results/`
//! (override with `--out`): one `.txt` report and one `.csv` per figure.
//!
//! `--jobs N` (or the `SIO_JOBS` environment variable) bounds the worker
//! pool every sweep fans out over; the default is the host's available
//! parallelism. Each simulation is deterministic, so the worker count only
//! changes wall time, never output.
//!
//! `--perf` enables the process-wide performance counters
//! (`sio_core::perf`) and appends a `== perf counters ==` block after the
//! experiments finish: engine events, heap/channel peaks, trace volume, and
//! per-experiment wall times. The counters aggregate with sums and maxima
//! only, so they are identical for any `--jobs` value; the phase wall times
//! measure the host and are the one non-deterministic line.

use paragon_sim::MachineConfig;
use sio_analysis::burst;
use sio_analysis::chaos;
use sio_analysis::characterize::Characterization;
use sio_analysis::compare::{Check, ShapeCheck};
use sio_analysis::experiments;
use sio_analysis::figures::{self, FigureSet};
use sio_analysis::recovery;
use sio_analysis::report;
use sio_analysis::report::Row;
use sio_analysis::runner;
use sio_apps::{EscatParams, HtfParams, RenderParams};
use sio_core::Trace;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// The experiment names the command line accepts: every suite, then `all`.
fn experiment_names() -> Vec<&'static str> {
    SUITES
        .iter()
        .map(|&(name, _)| name)
        .chain(["all"])
        .collect()
}

fn usage() -> String {
    format!(
        "usage: repro [--fast] [--perf] [--jobs N] [--out DIR] [--crash-frac F] \
         [--log-mb MB] [--drain-mbps R] [--chaos-seed N] [--cells N] [{}]...",
        experiment_names().join("|")
    )
}

/// Why an argument list was rejected. A typed error rather than a bare
/// message: tests assert on the failure class and the offending option,
/// and `main` renders every class through one `Display` path.
#[derive(Debug, PartialEq)]
enum CliError {
    /// An option that takes a value appeared last on the command line.
    MissingValue {
        option: &'static str,
        expected: &'static str,
    },
    /// An option's value failed validation — out of range, wrong type, or
    /// non-finite. Nothing is silently clamped into range.
    InvalidValue {
        option: &'static str,
        expected: &'static str,
        got: String,
    },
    UnknownOption(String),
    UnknownExperiment(String),
    /// A suite option was given, but neither `all` nor any suite that
    /// reads it was selected, so it would be silently ignored.
    SuiteNotSelected {
        option: &'static str,
        suites: &'static [&'static str],
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingValue { option, expected } => {
                write!(f, "{option} requires {expected}")
            }
            CliError::InvalidValue {
                option,
                expected,
                got,
            } => write!(f, "{option} requires {expected}, got '{got}'"),
            CliError::UnknownOption(o) => write!(f, "unknown option '{o}'"),
            CliError::UnknownExperiment(e) => write!(
                f,
                "unknown experiment '{}' (expected one of: {})",
                e,
                experiment_names().join(", ")
            ),
            CliError::SuiteNotSelected { option, suites } => write!(
                f,
                "{option} has no effect unless one of these suites runs: {} (or all)",
                suites.join(", ")
            ),
        }
    }
}

#[derive(Debug, PartialEq)]
struct Cli {
    fast: bool,
    /// Collect and print `sio_core::perf` counters.
    perf: bool,
    help: bool,
    out: PathBuf,
    jobs: Option<usize>,
    /// Custom crash fraction for the `recover` and `blog` suites (`recover`
    /// replaces its canned scenarios with a single `crash@F` cell; `blog`
    /// pins its crash axis, running the 9 workload × inner cells at `F`;
    /// `1` crashes at the healthy wall, i.e. at the last possible instant).
    crash_frac: Option<f64>,
    /// Per-node burst-log capacity override for the `blog` suite, MB.
    log_mb: Option<u64>,
    /// Burst-log drain bandwidth override for the `blog` suite, MB/s.
    drain_mbps: Option<f64>,
    /// Campaign seed for the `chaos` suite (default 42 — the golden seed).
    chaos_seed: Option<u64>,
    /// Campaign size for the `chaos` suite (default 50 cells). Zero-cell
    /// campaigns are rejected at parse time: a sweep that runs nothing
    /// would "pass" its invariants vacuously.
    cells: Option<u32>,
    what: Vec<String>,
}

/// Parse and validate an argument list. Every rejection is a typed
/// [`CliError`] naming the bad argument and what would be accepted; the
/// caller prints it and exits non-zero.
fn parse_args_from(argv: impl IntoIterator<Item = String>) -> Result<Cli, CliError> {
    let mut cli = Cli {
        fast: false,
        perf: false,
        help: false,
        out: PathBuf::from("results"),
        jobs: None,
        crash_frac: None,
        log_mb: None,
        drain_mbps: None,
        chaos_seed: None,
        cells: None,
        what: Vec::new(),
    };
    let mut args = argv.into_iter();
    while let Some(a) = args.next() {
        let args = &mut args;
        match a.as_str() {
            "--fast" => cli.fast = true,
            "--perf" => cli.perf = true,
            "-h" | "--help" => cli.help = true,
            "--jobs" => {
                let ok = |n: &usize| *n > 0;
                cli.jobs = Some(option_value(args, "--jobs", "a positive integer", ok)?);
            }
            "--out" => {
                let any = |_: &PathBuf| true;
                cli.out = option_value(args, "--out", "a directory argument", any)?;
            }
            "--crash-frac" => {
                let ok = |f: &f64| *f > 0.0 && *f <= 1.0;
                let expected = "a fraction in (0, 1]";
                cli.crash_frac = Some(option_value(args, "--crash-frac", expected, ok)?);
            }
            "--log-mb" => {
                let ok = |n: &u64| *n > 0;
                let expected = "a positive whole number of megabytes";
                cli.log_mb = Some(option_value(args, "--log-mb", expected, ok)?);
            }
            "--drain-mbps" => {
                let ok = |r: &f64| *r > 0.0 && r.is_finite();
                let expected = "a positive finite MB/s rate";
                cli.drain_mbps = Some(option_value(args, "--drain-mbps", expected, ok)?);
            }
            "--chaos-seed" => {
                let any = |_: &u64| true;
                let expected = "a 64-bit unsigned integer";
                cli.chaos_seed = Some(option_value(args, "--chaos-seed", expected, any)?);
            }
            "--cells" => {
                let ok = |n: &u32| *n > 0;
                cli.cells = Some(option_value(args, "--cells", "a positive cell count", ok)?);
            }
            other if other.starts_with('-') => {
                return Err(CliError::UnknownOption(other.to_string()));
            }
            other => {
                if !experiment_names().contains(&other) {
                    return Err(CliError::UnknownExperiment(other.to_string()));
                }
                cli.what.push(other.to_string());
            }
        }
    }
    if cli.what.is_empty() {
        cli.what.push("all".to_string());
    }
    // Each suite option and the suites that read it.
    let suite_options: [(&'static str, bool, &'static [&'static str]); 5] = [
        (
            "--crash-frac",
            cli.crash_frac.is_some(),
            &["recover", "blog"],
        ),
        ("--log-mb", cli.log_mb.is_some(), &["blog"]),
        ("--drain-mbps", cli.drain_mbps.is_some(), &["blog"]),
        ("--chaos-seed", cli.chaos_seed.is_some(), &["chaos"]),
        ("--cells", cli.cells.is_some(), &["chaos"]),
    ];
    let selected = |suite: &str| cli.what.iter().any(|w| w == "all" || w == suite);
    for (option, given, suites) in suite_options {
        if given && !suites.iter().any(|s| selected(s)) {
            return Err(CliError::SuiteNotSelected { option, suites });
        }
    }
    Ok(cli)
}

/// The value after `option`, parsed and accepted only when `ok` holds:
/// nothing is silently clamped into range.
fn option_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    option: &'static str,
    expected: &'static str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, CliError> {
    let got = args
        .next()
        .ok_or(CliError::MissingValue { option, expected })?;
    match got.parse::<T>() {
        Ok(v) if ok(&v) => Ok(v),
        _ => Err(CliError::InvalidValue {
            option,
            expected,
            got,
        }),
    }
}

fn parse_args() -> Cli {
    match parse_args_from(std::env::args().skip(1)) {
        Ok(cli) => {
            if cli.help {
                eprintln!("{}", usage());
                std::process::exit(0);
            }
            if let Some(n) = cli.jobs {
                runner::set_jobs(n);
            }
            if cli.perf {
                sio_core::perf::enable();
            }
            cli
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    }
}

/// A suite driver: runs one experiment and hands its report to [`emit`].
type Driver = fn(&Ctx) -> io::Result<()>;

/// Every suite `repro` runs, in the order `all` fans them out. `all` is
/// the one other name the command line accepts.
const SUITES: [(&str, Driver); 12] = [
    ("escat", run_escat),
    ("render", run_render),
    ("htf", run_htf),
    ("ppfs-ablation", run_ppfs_ablation),
    ("crossover", run_crossover),
    ("ablations", run_ablations),
    ("scaling", run_scaling),
    ("faults", run_faults),
    ("recover", run_recover),
    ("cio", run_cio),
    ("blog", run_blog),
    ("chaos", run_chaos),
];

/// What every driver reads, built once from the [`Cli`]: the options, the
/// machine, and the fast or paper application parameters.
struct Ctx {
    cli: Cli,
    machine: MachineConfig,
    escat: EscatParams,
    render: RenderParams,
    htf: HtfParams,
}

impl Ctx {
    fn new(cli: Cli) -> Ctx {
        let (machine, escat, render, htf) = if cli.fast {
            (
                MachineConfig::tiny(8, 4),
                EscatParams::small(8, 8),
                RenderParams::small(8, 4),
                HtfParams::small(8),
            )
        } else {
            (
                MachineConfig::paragon_128(),
                EscatParams::paper(),
                RenderParams::paper(),
                HtfParams::paper(),
            )
        };
        Ctx {
            cli,
            machine,
            escat,
            render,
            htf,
        }
    }
}

/// Run one suite under its `perf` phase.
fn run(ctx: &Ctx, name: &str, driver: Driver) -> io::Result<()> {
    let _phase = sio_core::perf::phase(name);
    driver(ctx)
}

/// A `.csv` table beside a report.
struct Csv {
    name: &'static str,
    header: &'static str,
    lines: Vec<String>,
}

impl Csv {
    /// The table of a suite's rows, under the row type's header.
    fn of<R: Row>(name: &'static str, rows: &[R]) -> Csv {
        Csv {
            name,
            header: R::CSV_HEADER,
            lines: rows.iter().map(Row::csv).collect(),
        }
    }
}

/// Tag a failed write with the path it was writing.
fn wrote(path: &Path, result: io::Result<()>) -> io::Result<()> {
    result.map_err(|e| io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display())))
}

/// The one output step: the `--fast` NOTE (on suites `--fast` scales; the
/// closed-form crossover always runs at paper scale), the `.csv` tables,
/// `<name>.txt`, then the body on stdout.
fn emit(ctx: &Ctx, name: &str, mut body: String, csvs: &[Csv], scaled: bool) -> io::Result<()> {
    let out = &ctx.cli.out;
    if ctx.cli.fast && scaled {
        body.insert_str(
            0,
            "NOTE: --fast uses scaled-down parameters; paper-vs-measured checks are expected to deviate.\n\n",
        );
    }
    for c in csvs {
        let path = out.join(format!("{}.csv", c.name));
        wrote(&path, report::write_csv(out, c.name, c.header, &c.lines))?;
    }
    wrote(
        &out.join(format!("{name}.txt")),
        report::write_text(out, name, &body),
    )?;
    println!("{body}");
    Ok(())
}

/// [`emit`] a suite that is one table of rows: `title` over the `.txt`
/// table, and `<name>.csv`.
fn emit_rows<R: Row>(ctx: &Ctx, name: &'static str, title: &str, rows: &[R]) -> io::Result<()> {
    let body = report::section(title, &report::render_rows(rows));
    emit(ctx, name, body, &[Csv::of(name, rows)], true)
}

/// The paper-vs-measured and shape-check sections of a paper-table report.
fn checks_sections(checks: &[Check], shapes: &[ShapeCheck]) -> String {
    report::section("Paper vs measured", &report::render_checks(checks))
        + &report::section("Shape checks", &report::render_shapes(shapes))
}

/// The §8 characterization of `trace` and the figures of a paper-table
/// report: ASCII into `body`; the figure csvs and each `(trace, name,
/// width)` windowed-intensity csv into the out dir.
fn figure_sections(
    ctx: &Ctx,
    body: &mut String,
    title: &str,
    trace: &Trace,
    figs: &FigureSet,
    windows: &[(&Trace, &str, f64)],
) -> io::Result<()> {
    body.push_str(&report::section(
        title,
        &Characterization::from_trace(trace).render(),
    ));
    for f in &figs.figures {
        body.push_str(&f.to_ascii());
        body.push('\n');
    }
    let out = &ctx.cli.out;
    wrote(out, figs.write_all(out))?;
    for &(trace, name, width) in windows {
        let win = figures::window_series(trace, width);
        wrote(out, figures::write_window_csv(&win, out, name))?;
    }
    Ok(())
}

fn run_escat(ctx: &Ctx) -> io::Result<()> {
    let params = &ctx.escat;
    eprintln!(
        "[repro] escat: {} nodes, {} iterations...",
        params.nodes, params.iters
    );
    let a = experiments::escat(&ctx.machine, params);
    let mut body = report::section("Table 1 — ESCAT I/O operations", &a.table1.render());
    body.push_str(&report::section(
        "Table 2 — ESCAT request sizes",
        &a.table2.render(),
    ));
    body.push_str(&checks_sections(&a.checks, &a.shapes));
    body.push_str(&report::section(
        "Figure 4 burst spacing (s)",
        &format!("{:.1?}\n(wall {:.0}s)", a.gaps, a.out.wall_secs()),
    ));
    let trace = &a.out.trace;
    let title = "Qualitative characterization (paper §8)";
    let windows = [(trace, "escat-window-10s", 10.0)];
    figure_sections(ctx, &mut body, title, trace, &a.figures, &windows)?;
    // The staging file's spatial (region) profile.
    let out = &ctx.cli.out;
    let region = figures::region_series(trace, 7, 64 * 1024);
    wrote(
        out,
        figures::write_region_csv(&region, out, "escat-staging-regions"),
    )?;
    emit(ctx, "escat", body, &[], true)
}

fn run_render(ctx: &Ctx) -> io::Result<()> {
    let params = &ctx.render;
    eprintln!(
        "[repro] render: {} nodes, {} frames...",
        params.nodes, params.frames
    );
    let a = experiments::render(&ctx.machine, params);
    let mut body = report::section("Table 3 — RENDER I/O operations", &a.table3.render());
    body.push_str(&report::section(
        "Table 4 — RENDER request sizes",
        &a.table4.render(),
    ));
    body.push_str(&checks_sections(&a.checks, &a.shapes));
    body.push_str(&format!(
        "init phase ends at {:.0}s; wall {:.0}s\n",
        a.init_end_secs,
        a.out.wall_secs()
    ));
    let trace = &a.out.trace;
    let title = "Qualitative characterization (paper §8)";
    let windows = [(trace, "render-window-5s", 5.0)];
    figure_sections(ctx, &mut body, title, trace, &a.figures, &windows)?;
    emit(ctx, "render", body, &[], true)
}

fn run_htf(ctx: &Ctx) -> io::Result<()> {
    eprintln!(
        "[repro] htf: {} nodes, 3-program pipeline...",
        ctx.htf.nodes
    );
    let a = experiments::htf(&ctx.machine, &ctx.htf);
    let mut body = String::new();
    for (name, table, sizes, out) in [
        (
            "HTF Initialization (psetup)",
            &a.table5[0],
            &a.table6[0],
            &a.psetup,
        ),
        (
            "HTF Integral Calculation (pargos)",
            &a.table5[1],
            &a.table6[1],
            &a.pargos,
        ),
        (
            "HTF Self-Consistent Field (pscf)",
            &a.table5[2],
            &a.table6[2],
            &a.pscf,
        ),
    ] {
        body.push_str(&report::section(
            &format!("Table 5 — {name}"),
            &format!("{}\n(wall {:.0}s)", table.render(), out.wall_secs()),
        ));
        body.push_str(&report::section(
            &format!("Table 6 — {name} sizes"),
            &sizes.render(),
        ));
    }
    body.push_str(&checks_sections(&a.checks, &a.shapes));
    let pipeline = Trace::concat_pipeline(
        "htf-pipeline",
        &[&a.psetup.trace, &a.pargos.trace, &a.pscf.trace],
    );
    let title = "Qualitative characterization (paper §8, whole pipeline)";
    let windows = [
        (&a.psetup.trace, "htf-psetup-window-5s", 5.0),
        (&a.pargos.trace, "htf-pargos-window-10s", 10.0),
        (&a.pscf.trace, "htf-pscf-window-10s", 10.0),
    ];
    figure_sections(ctx, &mut body, title, &pipeline, &a.figures, &windows)?;
    emit(ctx, "htf", body, &[], true)
}

fn run_ppfs_ablation(ctx: &Ctx) -> io::Result<()> {
    eprintln!("[repro] ppfs ablation (ESCAT on PFS vs PPFS)...");
    let r = experiments::ppfs_ablation(&ctx.machine, &ctx.escat);
    let body = report::section(
        "X1 — §5.2 PPFS write-behind + aggregation on ESCAT",
        &format!(
            "PFS  write+seek node time: {:>12.1} s\n\
             PPFS write+seek node time: {:>12.1} s\n\
             improvement:               {:>12.1} x\n\
             application writes buffered: {}\n\
             flush extents written back:  {}\n",
            r.pfs_write_seek_secs,
            r.ppfs_write_seek_secs,
            r.speedup,
            r.writes_buffered,
            r.flush_extents,
        ),
    );
    emit(ctx, "ppfs_ablation", body, &[], true)
}

fn run_crossover(ctx: &Ctx) -> io::Result<()> {
    eprintln!("[repro] htf read-vs-recompute crossover...");
    let rows = experiments::htf_crossover_paper();
    let mut b = String::new();
    b.push_str("rate(MB/s)  read(us)  recompute(us)  preferred\n");
    for r in &rows {
        b.push_str(&format!(
            "{:>9.1} {:>9.2} {:>14.2}  {}\n",
            r.io_rate_mb_s,
            r.read_us,
            r.compute_us,
            if r.io_preferred { "read" } else { "recompute" }
        ));
    }
    let body = report::section("X3 — §7.2 integral read vs recompute crossover", &b);
    let csv = Csv {
        name: "htf_crossover",
        header: "rate_mb_s,read_us,compute_us,io_preferred",
        lines: rows
            .iter()
            .map(|r| {
                format!(
                    "{},{},{},{}",
                    r.io_rate_mb_s, r.read_us, r.compute_us, r.io_preferred
                )
            })
            .collect(),
    };
    emit(ctx, "htf_crossover", body, &[csv], false)
}

fn run_scaling(ctx: &Ctx) -> io::Result<()> {
    let fast = ctx.cli.fast;
    eprintln!("[repro] scaling studies (S1 weak scaling, S2 data growth)...");
    let big_machine = if fast {
        MachineConfig::tiny(16, 4)
    } else {
        MachineConfig::caltech_paragon()
    };
    let counts: &[u32] = if fast {
        &[4, 8, 16]
    } else {
        &[32, 64, 128, 256, 512]
    };
    let rows = experiments::escat_scaling(&big_machine, counts);
    let mut b = String::new();
    b.push_str(
        "nodes   io node-time(s)   wall(s)   io share of node-time
",
    );
    for r in &rows {
        b.push_str(&format!(
            "{:>5} {:>17.1} {:>9.0} {:>10.2}%
",
            r.nodes,
            r.io_secs,
            r.wall_secs,
            r.io_fraction * 100.0
        ));
    }
    let mut body = report::section(
        "S1 — ESCAT weak scaling (same per-node work, 16 I/O nodes)",
        &b,
    );
    let scaling = Csv {
        name: "escat_scaling",
        header: "nodes,io_secs,wall_secs,io_fraction",
        lines: rows
            .iter()
            .map(|r| {
                format!(
                    "{},{},{},{}",
                    r.nodes, r.io_secs, r.wall_secs, r.io_fraction
                )
            })
            .collect(),
    };

    let params = if fast {
        EscatParams::small(8, 6)
    } else {
        EscatParams::paper()
    };
    let scales: &[u32] = if fast { &[1, 8] } else { &[1, 4, 16] };
    let rows = experiments::escat_growth(&ctx.machine, &params, scales);
    let mut b = String::new();
    b.push_str(
        "scale   write volume(B)   io share   wall(s)
",
    );
    for r in &rows {
        b.push_str(&format!(
            "{:>5}x {:>17} {:>9.2}% {:>9.0}
",
            r.scale,
            r.write_volume,
            r.io_fraction * 100.0,
            r.wall_secs
        ));
    }
    body.push_str(&report::section(
        "S2 — ESCAT quadrature growth (S5.2: O(N^3) data at fixed compute)",
        &b,
    ));
    let growth = Csv {
        name: "escat_growth",
        header: "scale,write_volume,io_fraction,wall_secs",
        lines: rows
            .iter()
            .map(|r| {
                format!(
                    "{},{},{},{}",
                    r.scale, r.write_volume, r.io_fraction, r.wall_secs
                )
            })
            .collect(),
    };
    emit(ctx, "scaling", body, &[scaling, growth], true)
}

fn run_faults(ctx: &Ctx) -> io::Result<()> {
    eprintln!("[repro] fault suite (X4: degraded / rebuild / stalls / crash)...");
    let rows = experiments::fault_suite(&ctx.machine, &ctx.escat, &ctx.render, &ctx.htf);
    emit_rows(
        ctx,
        "faults",
        "X4 — fault-injection suite (timed RAID rebuild, stalls, crash + failover)",
        &rows,
    )
}

fn run_cio(ctx: &Ctx) -> io::Result<()> {
    let scales: &[u32] = if ctx.cli.fast { &[4, 8] } else { &[64, 128] };
    eprintln!("[repro] collective I/O suite (X6: PFS vs PPFS vs CIO)...");
    let rows = experiments::cio_suite(&ctx.machine, &ctx.escat, &ctx.render, &ctx.htf, scales);
    emit_rows(
        ctx,
        "cio",
        "X6 — collective two-phase I/O (request shape per I/O node, exchange cost)",
        &rows,
    )
}

fn run_recover(ctx: &Ctx) -> io::Result<()> {
    let scenarios: Vec<String> = match ctx.cli.crash_frac {
        Some(f) => vec![format!("crash@{f}")],
        None => ["crash30", "crash70", "crash50-ionode"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    };
    eprintln!("[repro] recovery suite (X5: checkpoint interval x crash scenario)...");
    let rows = recovery::recover_suite_scenarios_jobs(
        &ctx.machine,
        &ctx.escat,
        &ctx.render,
        &ctx.htf,
        &scenarios,
        runner::configured_jobs(),
    );
    emit_rows(
        ctx,
        "recover",
        "X5 — crash/recovery suite (checkpoint commit protocol, restart from last durable epoch)",
        &rows,
    )
}

fn run_blog(ctx: &Ctx) -> io::Result<()> {
    eprintln!("[repro] burst-buffer suite (X7: log tier over pfs/ppfs/cio)...");
    let rows = burst::blog_suite_overrides_jobs(
        &ctx.machine,
        &ctx.escat,
        &ctx.render,
        &ctx.htf,
        burst::BlogPins {
            log_mb: ctx.cli.log_mb,
            drain_mbps: ctx.cli.drain_mbps,
            crash_frac: ctx.cli.crash_frac,
        },
        runner::configured_jobs(),
    );
    emit_rows(
        ctx,
        "blog",
        "X7 — burst-buffer tier (log-speed commits, crash-consistent drain, recovery replay)",
        &rows,
    )
}

fn run_chaos(ctx: &Ctx) -> io::Result<()> {
    let seed = ctx.cli.chaos_seed.unwrap_or(42);
    let cells = ctx.cli.cells.unwrap_or(50);
    eprintln!(
        "[repro] chaos campaign (X8: seed {seed}, {cells} cells over every backend x fault domain)..."
    );
    let rows = chaos::chaos_suite_jobs(
        &ctx.machine,
        &ctx.escat,
        &ctx.render,
        &ctx.htf,
        seed,
        cells,
        runner::configured_jobs(),
    );
    let violations = rows.iter().filter(|r| !r.invariants_ok()).count();

    let mut b = format!("campaign seed {seed}, {cells} cells\n");
    b.push_str(&report::render_rows(&rows));
    let mut body = report::section(
        "X8 — chaos campaign (randomized fault sweeps, per-cell invariants)",
        &b,
    );

    let summary = chaos::domain_summary(&rows);
    let mut b = String::new();
    b.push_str("domain  cells  avail    p99(ms)   fault  ok\n");
    for s in &summary {
        b.push_str(&format!(
            "{:<7} {:>5} {:>6.3} {:>10.3} {:>7} {:>3}/{}\n",
            s.domain, s.cells, s.availability, s.mean_p99_ms, s.faulted, s.cells_ok, s.cells
        ));
    }
    b.push_str(&format!(
        "\ninvariant violations: {violations} of {} cells\n",
        rows.len()
    ));
    body.push_str(&report::section("X8 — per-domain summary", &b));
    emit(ctx, "chaos", body, &[Csv::of("chaos", &rows)], true)?;
    invariants_hold(violations, rows.len())
}

/// The chaos campaign's verdict, reported after its artifacts are written.
fn invariants_hold(violations: usize, cells: usize) -> io::Result<()> {
    if violations == 0 {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "chaos campaign found invariant violations in {violations} of {cells} cells"
        )))
    }
}

fn run_ablations(ctx: &Ctx) -> io::Result<()> {
    let (m, fast) = (&ctx.machine, ctx.cli.fast);
    eprintln!("[repro] ablations (A1 modes, A2 policies, A3 queue, A4 raid)...");
    let (nodes, per_node) = if fast { (4, 4) } else { (32, 16) };
    let rows = experiments::mode_ablation(m, nodes, per_node, 2048);
    let mut b = String::new();
    for r in &rows {
        b.push_str(&format!(
            "{:<9} write {:>9.2} s   wall {:>8.2} s\n",
            r.mode.name(),
            r.write_secs,
            r.wall_secs
        ));
    }
    let mut body = report::section("A1 — access-mode costs (synchronized writers)", &b);

    let rows = experiments::policy_matrix(m);
    let mut b = String::new();
    for r in &rows {
        b.push_str(&format!(
            "{:<11} {:<11} read {:>9.3} s   hits {:>5}\n",
            r.kernel, r.policy, r.read_secs, r.reads_hit
        ));
    }
    body.push_str(&report::section(
        "A2 — policy matrix (pattern x policy)",
        &b,
    ));

    let rows = experiments::queue_discipline(m, if fast { 4 } else { 16 });
    let mut b = String::new();
    for r in &rows {
        b.push_str(&format!(
            "{:<7?} read {:>9.2} s   wall {:>8.2} s\n",
            r.discipline, r.read_secs, r.wall_secs
        ));
    }
    body.push_str(&report::section("A3 — I/O-node queue discipline", &b));

    let rows = experiments::raid_degraded(m);
    let mut b = String::new();
    for r in &rows {
        b.push_str(&format!(
            "degraded={:<5} read {:>9.3} s\n",
            r.degraded, r.read_secs
        ));
    }
    body.push_str(&report::section("A4 — RAID-3 degraded-mode reads", &b));

    let rows = experiments::two_level_buffering(m, if fast { 4 } else { 8 });
    let mut b = String::new();
    for r in &rows {
        b.push_str(&format!(
            "server cache {:>4} blocks: read {:>9.3} s   server hits {:>5}\n",
            r.server_blocks, r.read_secs, r.server_hits
        ));
    }
    body.push_str(&report::section(
        "B1 — two-level buffering (paper §8: compute-node + I/O-node caches)",
        &b,
    ));

    let (ep, hp) = if fast {
        (EscatParams::small(4, 5), HtfParams::small(4))
    } else {
        (EscatParams::paper(), HtfParams::paper())
    };
    let rows = experiments::workload_mix(m, &ep, &hp);
    let mut b = String::new();
    for r in &rows {
        b.push_str(&format!(
            "{:<10} ({:>2} I/O nodes) isolated {:>10.1} s   mixed {:>10.1} s   inflation {:>5.2}x\n",
            r.app,
            r.io_nodes,
            r.isolated_io_secs,
            r.mixed_io_secs,
            r.inflation()
        ));
    }
    body.push_str(&report::section(
        "M1 — application-mix interference (paper §8: workload mixes)",
        &b,
    ));
    emit(ctx, "ablations", body, &[], true)
}

fn main() {
    let ctx = Ctx::new(parse_args());
    // An unusable out dir fails before any simulation runs.
    let out = &ctx.cli.out;
    if let Err(e) = wrote(out, std::fs::create_dir_all(out)) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    let mut failed = false;
    for what in &ctx.cli.what {
        let results = if what == "all" {
            // Independent experiments fan out over the sweep runner; each
            // simulation is single-threaded and deterministic, so
            // parallelism changes nothing but wall time.
            let ctx = &ctx;
            let tasks = SUITES
                .iter()
                .map(|&(name, driver)| {
                    Box::new(move || run(ctx, name, driver))
                        as Box<dyn FnOnce() -> io::Result<()> + Send + '_>
                })
                .collect();
            runner::par_run(runner::configured_jobs(), tasks)
        } else {
            let &(name, driver) = SUITES
                .iter()
                .find(|(name, _)| name == what)
                .expect("experiment validated in parse_args");
            vec![run(&ctx, name, driver)]
        };
        for e in results.into_iter().filter_map(Result::err) {
            eprintln!("error: {e}");
            failed = true;
        }
    }
    if ctx.cli.perf {
        print!("{}", sio_core::perf::snapshot().render());
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("[repro] artifacts written to {}", ctx.cli.out.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, CliError> {
        parse_args_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_to_all_experiments() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.what, vec!["all"]);
        assert!(!cli.fast);
        assert!(!cli.perf);
        assert_eq!(cli.out, PathBuf::from("results"));
        assert_eq!(cli.jobs, None);
        assert_eq!(cli.crash_frac, None);
    }

    #[test]
    fn accepts_known_experiments_and_flags() {
        let cli = parse(&[
            "--fast",
            "--perf",
            "--jobs",
            "4",
            "--out",
            "tmp",
            "--crash-frac",
            "0.4",
            "recover",
            "faults",
        ])
        .unwrap();
        assert!(cli.fast);
        assert!(cli.perf);
        assert_eq!(cli.jobs, Some(4));
        assert_eq!(cli.out, PathBuf::from("tmp"));
        assert_eq!(cli.crash_frac, Some(0.4));
        assert_eq!(cli.what, vec!["recover", "faults"]);
    }

    #[test]
    fn rejects_unknown_experiment_with_suggestions() {
        let err = parse(&["recoverr"]).unwrap_err();
        assert_eq!(err, CliError::UnknownExperiment("recoverr".to_string()));
        let msg = err.to_string();
        assert!(msg.contains("unknown experiment 'recoverr'"), "{msg}");
        assert!(msg.contains("recover"), "{msg}");
        assert!(msg.contains("blog"), "{msg}");
    }

    #[test]
    fn rejects_unknown_option() {
        let err = parse(&["--job", "4"]).unwrap_err();
        assert_eq!(err, CliError::UnknownOption("--job".to_string()));
        assert!(err.to_string().contains("unknown option '--job'"), "{err}");
        let err = parse(&["--shards", "2"]).unwrap_err();
        assert_eq!(err, CliError::UnknownOption("--shards".to_string()));
    }

    #[test]
    fn rejects_bad_jobs_values() {
        assert!(matches!(
            parse(&["--jobs"]).unwrap_err(),
            CliError::MissingValue {
                option: "--jobs",
                ..
            }
        ));
        for bad in ["0", "many"] {
            let err = parse(&["--jobs", bad]).unwrap_err();
            assert_eq!(
                err,
                CliError::InvalidValue {
                    option: "--jobs",
                    expected: "a positive integer",
                    got: bad.to_string(),
                }
            );
        }
    }

    #[test]
    fn accepts_crash_frac_up_to_one() {
        // The interval is half-open: crashing exactly at the healthy wall
        // (the last possible instant) is meaningful, crashing at 0 is not.
        assert_eq!(parse(&["--crash-frac", "1"]).unwrap().crash_frac, Some(1.0));
        assert_eq!(
            parse(&["--crash-frac", "0.5"]).unwrap().crash_frac,
            Some(0.5)
        );
    }

    #[test]
    fn rejects_malformed_crash_frac() {
        assert!(matches!(
            parse(&["--crash-frac"]).unwrap_err(),
            CliError::MissingValue {
                option: "--crash-frac",
                ..
            }
        ));
        for bad in ["0", "1.5", "-0.2", "half", "NaN"] {
            let err = parse(&["--crash-frac", bad]).unwrap_err();
            assert_eq!(
                err,
                CliError::InvalidValue {
                    option: "--crash-frac",
                    expected: "a fraction in (0, 1]",
                    got: bad.to_string(),
                },
                "'{bad}' must be rejected, not clamped"
            );
        }
    }

    #[test]
    fn accepts_and_validates_blog_knobs() {
        let cli = parse(&["--log-mb", "128", "--drain-mbps", "12.5", "blog"]).unwrap();
        assert_eq!(cli.log_mb, Some(128));
        assert_eq!(cli.drain_mbps, Some(12.5));
        assert_eq!(cli.what, vec!["blog"]);

        assert!(matches!(
            parse(&["--log-mb"]).unwrap_err(),
            CliError::MissingValue {
                option: "--log-mb",
                ..
            }
        ));
        for bad in ["0", "-4", "64.5", "big"] {
            assert!(matches!(
                parse(&["--log-mb", bad]).unwrap_err(),
                CliError::InvalidValue {
                    option: "--log-mb",
                    ..
                }
            ));
        }
        assert!(matches!(
            parse(&["--drain-mbps"]).unwrap_err(),
            CliError::MissingValue {
                option: "--drain-mbps",
                ..
            }
        ));
        for bad in ["0", "-8", "inf", "NaN", "slow"] {
            assert!(matches!(
                parse(&["--drain-mbps", bad]).unwrap_err(),
                CliError::InvalidValue {
                    option: "--drain-mbps",
                    ..
                }
            ));
        }
    }

    #[test]
    fn accepts_and_validates_chaos_knobs() {
        let cli = parse(&["--chaos-seed", "7", "--cells", "12", "chaos"]).unwrap();
        assert_eq!(cli.chaos_seed, Some(7));
        assert_eq!(cli.cells, Some(12));
        assert_eq!(cli.what, vec!["chaos"]);

        assert!(matches!(
            parse(&["--chaos-seed"]).unwrap_err(),
            CliError::MissingValue {
                option: "--chaos-seed",
                ..
            }
        ));
        for bad in ["-1", "7.5", "lucky"] {
            assert!(matches!(
                parse(&["--chaos-seed", bad]).unwrap_err(),
                CliError::InvalidValue {
                    option: "--chaos-seed",
                    ..
                }
            ));
        }
        assert!(matches!(
            parse(&["--cells"]).unwrap_err(),
            CliError::MissingValue {
                option: "--cells",
                ..
            }
        ));
        // A zero-cell campaign passes every invariant vacuously — reject
        // it rather than report a hollow success.
        for bad in ["0", "-3", "4.5", "some"] {
            let err = parse(&["--cells", bad]).unwrap_err();
            assert_eq!(
                err,
                CliError::InvalidValue {
                    option: "--cells",
                    expected: "a positive cell count",
                    got: bad.to_string(),
                },
                "'{bad}' must be rejected, not clamped"
            );
        }
    }

    #[test]
    fn rejects_suite_options_whose_suites_are_not_selected() {
        let err = parse(&["--cells", "5", "crossover"]).unwrap_err();
        assert_eq!(
            err,
            CliError::SuiteNotSelected {
                option: "--cells",
                suites: &["chaos"],
            }
        );
        assert_eq!(
            err.to_string(),
            "--cells has no effect unless one of these suites runs: chaos (or all)"
        );
        for (args, option) in [
            (&["--crash-frac", "0.5", "escat"][..], "--crash-frac"),
            (&["--log-mb", "8", "recover"][..], "--log-mb"),
            (&["--drain-mbps", "4", "chaos"][..], "--drain-mbps"),
            (&["--chaos-seed", "7", "blog"][..], "--chaos-seed"),
            (
                &["--cells", "5", "--log-mb", "8", "crossover"][..],
                "--log-mb",
            ),
        ] {
            assert!(
                matches!(
                    parse(args).unwrap_err(),
                    CliError::SuiteNotSelected { option: o, .. } if o == option
                ),
                "{args:?}"
            );
        }
    }

    #[test]
    fn suite_options_are_accepted_with_any_suite_that_reads_them() {
        for args in [
            &["--cells", "5", "chaos"][..],
            &["--cells", "5"][..],
            &["--cells", "5", "all"][..],
            &["--cells", "5", "escat", "all"][..],
            &["--crash-frac", "0.5", "recover"][..],
            &["--crash-frac", "0.5", "escat", "blog"][..],
            &[
                "--log-mb",
                "8",
                "--drain-mbps",
                "4",
                "--crash-frac",
                "0.5",
                "blog",
            ][..],
            &["--chaos-seed", "7", "crossover", "chaos"][..],
        ] {
            assert!(parse(args).is_ok(), "{args:?}");
        }
    }

    #[test]
    fn chaos_violations_are_an_error_not_a_panic() {
        assert!(invariants_hold(0, 50).is_ok());
        let err = invariants_hold(2, 50).unwrap_err();
        assert_eq!(
            err.to_string(),
            "chaos campaign found invariant violations in 2 of 50 cells"
        );
    }

    #[test]
    fn rejects_missing_out_dir() {
        assert!(matches!(
            parse(&["--out"]).unwrap_err(),
            CliError::MissingValue {
                option: "--out",
                ..
            }
        ));
    }
}
