//! The `tables` driver's stdout is the repository's reproduction of the
//! paper: the Section 5 MP3 table and battery, the Fig. 1 pair, the
//! Fig. 3 witnesses, the Fig. 4 grid and the source-constrained chain.
//! It is deterministic, so a committed golden file pins it byte for
//! byte (regenerate with `UPDATE_GOLDEN=1`).

use std::process::Command;

#[test]
fn tables_output_matches_the_committed_golden_file() {
    let output = Command::new(env!("CARGO_BIN_EXE_tables"))
        .output()
        .expect("the tables binary runs");
    assert!(
        output.status.success(),
        "tables exited with {}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let rendered = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tables.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("golden file writable");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file committed");
    assert_eq!(
        rendered, golden,
        "tables output drifted from tests/golden/tables.txt; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}
