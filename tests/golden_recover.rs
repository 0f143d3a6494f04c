//! Golden-digest snapshots of the X5 crash/recovery suite at full
//! 128-node scale: one digest per (workload, interval, scenario) cell over
//! a canonical rendering of every field in the row. Any drift in the
//! checkpoint commit protocol, durable-cut derivation, resume construction,
//! or lost-work accounting fails here with the cell that moved.
//!
//! Digests live in `results/golden_recover.txt`; regenerate after an
//! intentional model change with `SIO_UPDATE_GOLDENS=1 cargo test`.

mod goldens;

use sio::analysis::recovery;
use sio::apps::{EscatParams, HtfParams, RenderParams};
use sio::paragon::MachineConfig;

#[test]
fn recover_suite_matches_goldens() {
    let machine = MachineConfig::paragon_128();
    let rows = recovery::recover_suite_jobs(
        &machine,
        &EscatParams::paper(),
        &RenderParams::paper(),
        &HtfParams::paper(),
        sio::analysis::runner::configured_jobs(),
    );
    assert_eq!(rows.len(), 15, "suite shape changed; goldens need review");
    goldens::check_rows(
        "results/golden_recover.txt",
        "Golden digests of the X5 recovery suite (FNV-1a over canonical rows), paper scale.",
        &rows,
    );
}
