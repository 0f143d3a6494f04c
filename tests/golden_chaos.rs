//! Golden-digest snapshots of the X8 chaos campaign at paper scale: one
//! digest per cell of the seed-42, 50-cell campaign over a canonical
//! rendering of the measured outcome. The campaign is a pure function of
//! its seed, so any drift in fault injection, retry/backoff calibration,
//! buddy failover, link congestion, metadata parking, or durable-cut
//! derivation fails here with the exact cell that moved.
//!
//! The campaign's own invariants are asserted directly too, so a
//! regenerated golden can never encode a hang, an untyped fault, a
//! conservation violation, or an out-of-range durable cut: every cell
//! must terminate watchdog-clean with all five per-cell invariants
//! holding (see `sio::analysis::chaos`).
//!
//! Digests live in `results/golden_chaos.txt`; regenerate after an
//! intentional model change with `SIO_UPDATE_GOLDENS=1 cargo test`.
//!
//! A larger sweep (4× the golden campaign, different seed, invariants
//! only — no digests) runs when `SIO_CHAOS_FULL=1` is set; CI runs it
//! nightly.

mod goldens;

use sio::analysis::chaos::{self, ChaosRow};
use sio::apps::{EscatParams, HtfParams, RenderParams};
use sio::paragon::MachineConfig;

/// The golden campaign: seed 42, 50 cells — enough to rotate every
/// shipped backend through all three workloads with varied draws.
const GOLDEN_SEED: u64 = 42;
const GOLDEN_CELLS: u32 = 50;

fn paper_campaign(seed: u64, cells: u32) -> Vec<ChaosRow> {
    chaos::chaos_suite_jobs(
        &MachineConfig::paragon_128(),
        &EscatParams::paper(),
        &RenderParams::paper(),
        &HtfParams::paper(),
        seed,
        cells,
        sio::analysis::runner::configured_jobs(),
    )
}

fn assert_invariants(rows: &[ChaosRow]) {
    for r in rows {
        assert!(
            r.invariants_ok(),
            "cell {} ({} on {}, {}): hang_clean={} typed_ok={} conserved={} cut_ok={} trace_ok={}",
            r.cell,
            r.workload,
            r.backend,
            r.domains,
            r.hang_clean,
            r.typed_ok,
            r.conserved,
            r.cut_ok,
            r.trace_ok
        );
        assert!(r.ops > 0, "cell {}: empty trace", r.cell);
        assert!(r.timeouts == 0, "cell {}: untyped-schedule timeout", r.cell);
    }
}

#[test]
fn chaos_campaign_matches_goldens_and_holds_invariants() {
    let rows = paper_campaign(GOLDEN_SEED, GOLDEN_CELLS);
    assert_eq!(
        rows.len(),
        GOLDEN_CELLS as usize,
        "campaign shape changed; goldens need review"
    );
    assert_invariants(&rows);

    goldens::check_rows(
        "results/golden_chaos.txt",
        "Golden digests of the X8 chaos campaign (FNV-1a over canonical cells), paper scale, seed 42.",
        &rows,
    );
}

/// The nightly sweep: a different seed and 4× the cells, invariants only.
/// Gated behind `SIO_CHAOS_FULL=1` so the default test wall stays short.
#[test]
fn full_campaign_holds_invariants() {
    if std::env::var("SIO_CHAOS_FULL").map_or(true, |v| v != "1") {
        eprintln!("skipping full chaos campaign (set SIO_CHAOS_FULL=1 to run)");
        return;
    }
    let rows = paper_campaign(20260808, 4 * GOLDEN_CELLS);
    assert_eq!(rows.len(), 4 * GOLDEN_CELLS as usize);
    assert_invariants(&rows);
}
