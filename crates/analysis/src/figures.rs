//! Figure regeneration (Figures 2–17).
//!
//! Every figure in the paper's evaluation is one of two plot families, both
//! extracted straight from a trace:
//!
//! * **operation timelines** (Figures 2–4, 6–7, 9–14): request start time
//!   vs request size, one point per read or write;
//! * **file-access timelines** (Figures 5, 8, 15–17): request start time vs
//!   file id, crosses for writes and diamonds for reads.
//!
//! [`FigureSet`] names each figure with the paper's number and writes one
//! CSV per figure plus a terminal-friendly ASCII preview.

use sio_core::event::IoOp;
use sio_core::reduce::region::RegionReducer;
use sio_core::reduce::window::WindowReducer;
use sio_core::reduce::Reducer;
use sio_core::timeline::{self, ascii_scatter, cluster_gaps, cluster_times, AccessMark, OpPoint};
use sio_core::trace::Trace;
use std::io::Write as _;
use std::path::Path;

/// One regenerated figure.
#[derive(Debug, Clone)]
pub enum Figure {
    /// (time, size) scatter of one operation family.
    OpTimeline {
        /// Paper figure number/designation, e.g. "fig02-escat-reads".
        name: String,
        /// Points (time in seconds, size in bytes, node).
        points: Vec<OpPoint>,
    },
    /// (time, file) access marks.
    FileTimeline {
        /// Paper figure designation.
        name: String,
        /// Marks (time, file, read/write).
        marks: Vec<AccessMark>,
    },
}

impl Figure {
    /// Figure name.
    pub fn name(&self) -> &str {
        match self {
            Figure::OpTimeline { name, .. } | Figure::FileTimeline { name, .. } => name,
        }
    }

    /// CSV body for the figure.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        match self {
            Figure::OpTimeline { points, .. } => {
                out.push_str("t_secs,bytes,node\n");
                for p in points {
                    let _ = writeln!(out, "{:.6},{},{}", p.t_secs, p.bytes, p.node);
                }
            }
            Figure::FileTimeline { marks, .. } => {
                out.push_str("t_secs,file,op\n");
                for m in marks {
                    let op = if m.write { "W" } else { "R" };
                    let _ = writeln!(out, "{:.6},{},{}", m.t_secs, m.file, op);
                }
            }
        }
        out
    }

    /// ASCII preview (op timelines only; file timelines render a summary).
    pub fn to_ascii(&self) -> String {
        match self {
            Figure::OpTimeline { points, name } => {
                format!("{name}\n{}", ascii_scatter(points, 72, 14))
            }
            Figure::FileTimeline { marks, name } => {
                let mut files: Vec<u32> = marks.iter().map(|m| m.file).collect();
                files.sort_unstable();
                files.dedup();
                format!("{name}: {} accesses over files {:?}\n", marks.len(), files)
            }
        }
    }

    /// Write the CSV to `dir/<name>.csv`.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut f = std::fs::File::create(dir.join(format!("{}.csv", self.name())))?;
        f.write_all(self.to_csv().as_bytes())
    }
}

/// Build a read-operation timeline figure (sync + async reads).
pub fn read_fig(name: &str, trace: &Trace) -> Figure {
    Figure::OpTimeline {
        name: name.to_string(),
        points: timeline::read_timeline(trace),
    }
}

/// Build a read timeline restricted to `[from, to)` seconds (Figure 3's
/// initial-phase detail).
pub fn read_detail_fig(name: &str, trace: &Trace, from: f64, to: f64) -> Figure {
    Figure::OpTimeline {
        name: name.to_string(),
        points: timeline::window(&timeline::read_timeline(trace), from, to),
    }
}

/// Build a write-operation timeline figure.
pub fn write_fig(name: &str, trace: &Trace) -> Figure {
    Figure::OpTimeline {
        name: name.to_string(),
        points: timeline::op_timeline(trace, IoOp::Write),
    }
}

/// Build a file-access timeline figure.
pub fn file_fig(name: &str, trace: &Trace) -> Figure {
    Figure::FileTimeline {
        name: name.to_string(),
        marks: timeline::file_access_timeline(trace),
    }
}

/// Burst analysis of a write timeline: cluster start times and the gaps
/// between them (the Figure 4 observation: spacing shrinks from ~160 s to
/// roughly half across the quadrature phase).
pub fn write_burst_gaps(trace: &Trace, quiet_gap_secs: f64) -> (Vec<f64>, Vec<f64>) {
    let writes: Vec<_> = trace.of_op(IoOp::Write).copied().collect();
    let clusters = cluster_times(&writes, quiet_gap_secs);
    let gaps = cluster_gaps(&clusters);
    (clusters, gaps)
}

/// One row of a time-window intensity series (Pablo's time-window
/// reduction, rendered as a figure).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowRow {
    /// Window start, seconds.
    pub t_secs: f64,
    /// Bytes read in the window (sync + async).
    pub read_bytes: u64,
    /// Bytes written in the window.
    pub write_bytes: u64,
    /// Operations of any kind in the window.
    pub ops: u64,
}

/// Reduce a trace into a time-window intensity series with the given window
/// width (seconds) — the data behind burst plots like Figure 4, produced by
/// the same reduction Pablo ran in real time.
pub fn window_series(trace: &Trace, width_secs: f64) -> Vec<WindowRow> {
    let width_ns = (width_secs * 1.0e9).max(1.0) as u64;
    let mut reducer = WindowReducer::new(width_ns);
    reducer.observe_trace(trace);
    reducer
        .windows()
        .iter()
        .enumerate()
        .map(|(i, w)| WindowRow {
            t_secs: i as f64 * width_secs,
            read_bytes: w.bytes_read(),
            write_bytes: w.bytes_written(),
            ops: w.total_ops(),
        })
        .collect()
}

/// Write a window series as CSV into `dir/<name>.csv`.
pub fn write_window_csv(rows: &[WindowRow], dir: &Path, name: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::File::create(dir.join(format!("{name}.csv")))?;
    writeln!(f, "t_secs,read_bytes,write_bytes,ops")?;
    for r in rows {
        writeln!(
            f,
            "{:.3},{},{},{}",
            r.t_secs, r.read_bytes, r.write_bytes, r.ops
        )?;
    }
    Ok(())
}

/// One row of a file-region spatial series (Pablo's file-region reduction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionRow {
    /// Region index within the file.
    pub region: u64,
    /// Bytes read from the region.
    pub read_bytes: u64,
    /// Bytes written to the region.
    pub write_bytes: u64,
    /// Distinct nodes that touched the region.
    pub nodes: u64,
}

/// Reduce one file of a trace into a spatial region series (region size in
/// bytes; the PFS stripe unit is the natural choice). Exposes the spatial
/// structure the paper discusses: ESCAT's disjoint per-node staging
/// regions, HTF's whole-file scans.
pub fn region_series(trace: &Trace, file: u32, region_bytes: u64) -> Vec<RegionRow> {
    let mut reducer = RegionReducer::new(region_bytes);
    reducer.observe_trace(trace);
    reducer
        .file_regions(file)
        .map(|(region, agg)| RegionRow {
            region,
            read_bytes: agg.reads.bytes,
            write_bytes: agg.writes.bytes,
            nodes: agg.node_count() as u64,
        })
        .collect()
}

/// Write a region series as CSV into `dir/<name>.csv`.
pub fn write_region_csv(rows: &[RegionRow], dir: &Path, name: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::File::create(dir.join(format!("{name}.csv")))?;
    writeln!(f, "region,read_bytes,write_bytes,nodes")?;
    for r in rows {
        writeln!(
            f,
            "{},{},{},{}",
            r.region, r.read_bytes, r.write_bytes, r.nodes
        )?;
    }
    Ok(())
}

/// All figures for one application trace, with paper numbering.
pub struct FigureSet {
    /// The figures, in paper order.
    pub figures: Vec<Figure>,
}

impl FigureSet {
    /// ESCAT: Figures 2 (reads), 3 (read detail), 4 (writes), 5 (files).
    pub fn escat(trace: &Trace, init_end_secs: f64) -> FigureSet {
        FigureSet {
            figures: vec![
                read_fig("fig02-escat-read-timeline", trace),
                read_detail_fig("fig03-escat-read-detail", trace, 0.0, init_end_secs),
                write_fig("fig04-escat-write-timeline", trace),
                file_fig("fig05-escat-file-access", trace),
            ],
        }
    }

    /// RENDER: Figures 6 (reads), 7 (writes), 8 (files).
    pub fn render(trace: &Trace) -> FigureSet {
        FigureSet {
            figures: vec![
                read_fig("fig06-render-read-timeline", trace),
                write_fig("fig07-render-write-timeline", trace),
                file_fig("fig08-render-file-access", trace),
            ],
        }
    }

    /// HTF: Figures 9–17 (read/write timelines and file-access timelines of
    /// the three phases).
    pub fn htf(psetup: &Trace, pargos: &Trace, pscf: &Trace) -> FigureSet {
        FigureSet {
            figures: vec![
                read_fig("fig09-htf-init-reads", psetup),
                write_fig("fig10-htf-init-writes", psetup),
                read_fig("fig11-htf-integral-reads", pargos),
                write_fig("fig12-htf-integral-writes", pargos),
                read_fig("fig13-htf-scf-reads", pscf),
                write_fig("fig14-htf-scf-writes", pscf),
                file_fig("fig15-htf-init-file-access", psetup),
                file_fig("fig16-htf-integral-file-access", pargos),
                file_fig("fig17-htf-scf-file-access", pscf),
            ],
        }
    }

    /// Write every figure's CSV into `dir`.
    pub fn write_all(&self, dir: &Path) -> std::io::Result<()> {
        for f in &self.figures {
            f.write_csv(dir)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sio_core::event::IoEvent;
    use sio_core::trace::Tracer;

    fn trace() -> Trace {
        let t = Tracer::new("f");
        for i in 0..10u64 {
            let ns = i * 1_000_000_000;
            t.record(
                IoEvent::new(0, 7, IoOp::Write)
                    .span(ns, ns + 1000)
                    .extent(0, 2048),
            );
            t.record(
                IoEvent::new(1, 9, IoOp::Read)
                    .span(ns + 500, ns + 1500)
                    .extent(0, 4096),
            );
        }
        t.finish()
    }

    #[test]
    fn csv_has_one_line_per_point() {
        let f = read_fig("r", &trace());
        let csv = f.to_csv();
        assert_eq!(csv.lines().count(), 11);
        assert!(csv.starts_with("t_secs,bytes,node"));
    }

    #[test]
    fn file_timeline_marks_ops() {
        let f = file_fig("files", &trace());
        let csv = f.to_csv();
        assert!(csv.contains(",7,W"));
        assert!(csv.contains(",9,R"));
    }

    #[test]
    fn detail_restricts_window() {
        let f = read_detail_fig("d", &trace(), 2.0, 5.0);
        if let Figure::OpTimeline { points, .. } = f {
            assert_eq!(points.len(), 3);
        } else {
            panic!("wrong figure kind");
        }
    }

    #[test]
    fn ascii_previews_render() {
        assert!(read_fig("r", &trace()).to_ascii().contains('*'));
        assert!(file_fig("f", &trace()).to_ascii().contains("accesses"));
    }

    #[test]
    fn burst_gaps_on_synthetic_clusters() {
        let t = Tracer::new("b");
        for (c, base) in [0.0f64, 100.0, 180.0].iter().enumerate() {
            let _ = c;
            for k in 0..5u64 {
                let ns = ((base + k as f64 * 0.01) * 1e9) as u64;
                t.record(
                    IoEvent::new(0, 1, IoOp::Write)
                        .span(ns, ns + 100)
                        .extent(0, 10),
                );
            }
        }
        let (clusters, gaps) = write_burst_gaps(&t.finish(), 10.0);
        assert_eq!(clusters.len(), 3);
        assert_eq!(gaps.len(), 2);
        assert!(gaps[1] < gaps[0]);
    }

    #[test]
    fn window_series_bins_intensity() {
        let tr = trace();
        let rows = window_series(&tr, 2.0);
        assert_eq!(rows.len(), 5); // events span 0..10 s
                                   // Each 2 s window holds 2 write starts + 2 read starts.
        assert_eq!(rows[0].ops, 4);
        assert_eq!(rows[0].write_bytes, 2 * 2048);
        assert_eq!(rows[0].read_bytes, 2 * 4096);
        let dir = std::env::temp_dir().join("sio_fig_window");
        let _ = std::fs::remove_dir_all(&dir);
        write_window_csv(&rows, &dir, "w").unwrap();
        let txt = std::fs::read_to_string(dir.join("w.csv")).unwrap();
        assert!(txt.starts_with("t_secs,read_bytes,write_bytes,ops"));
        assert_eq!(txt.lines().count(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn region_series_exposes_spatial_structure() {
        let t = Tracer::new("r");
        // Two nodes write disjoint 1 KB regions of file 7.
        for node in 0..2u32 {
            t.record(
                IoEvent::new(node, 7, IoOp::Write)
                    .span(0, 10)
                    .extent(node as u64 * 1024, 1024),
            );
        }
        let tr = t.finish();
        let rows = region_series(&tr, 7, 1024);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.nodes == 1 && r.write_bytes == 1024));
        assert!(region_series(&tr, 99, 1024).is_empty());
    }

    #[test]
    fn figure_set_writes_files() {
        let dir = std::env::temp_dir().join("sio_fig_test");
        let _ = std::fs::remove_dir_all(&dir);
        let tr = trace();
        let set = FigureSet::render(&tr);
        set.write_all(&dir).unwrap();
        assert!(dir.join("fig06-render-read-timeline.csv").exists());
        assert!(dir.join("fig08-render-file-access.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
