//! `repro` end to end: an output directory it cannot write is a typed
//! error on stderr and a non-zero exit, never a panic.

use std::process::Command;

#[test]
fn unwritable_out_dir_is_a_typed_error() {
    let file = std::env::temp_dir().join(format!("repro-out-is-a-file-{}", std::process::id()));
    std::fs::write(&file, b"").expect("create the blocking file");
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--out")
        .arg(&file)
        .arg("crossover")
        .output()
        .expect("run repro");
    std::fs::remove_file(&file).expect("remove the blocking file");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    let want = format!("error: cannot write {}: ", file.display());
    assert!(stderr.contains(&want), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
