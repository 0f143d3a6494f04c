//! Golden-digest snapshots of the X4 fault-injection suite at full
//! 128-node scale: one digest per (workload, scenario) cell over a
//! canonical rendering of every counter in the row. Any drift in fault
//! handling — retry counts, failover routing, rebuild pacing, write-behind
//! loss accounting — fails here with the cell that moved.
//!
//! Digests live in `results/golden_faults.txt`; regenerate after an
//! intentional model change with `SIO_UPDATE_GOLDENS=1 cargo test`.

mod goldens;

use sio::analysis::experiments;
use sio::apps::{EscatParams, HtfParams, RenderParams};
use sio::paragon::MachineConfig;

#[test]
fn fault_suite_matches_goldens() {
    let machine = MachineConfig::paragon_128();
    let rows = experiments::fault_suite(
        &machine,
        &EscatParams::paper(),
        &RenderParams::paper(),
        &HtfParams::paper(),
    );
    assert_eq!(rows.len(), 17, "suite shape changed; goldens need review");
    goldens::check_rows(
        "results/golden_faults.txt",
        "Golden digests of the X4 fault suite (FNV-1a over canonical rows), paper scale.",
        &rows,
    );
}
