//! The prose keeps up with the protocol. The wire tables enumerate
//! their own labels, so "is every verb documented" is a loop.

use escape_ctl::proto::{CtlError, CtlRequest};
use std::process::Command;

/// DESIGN.md §12, "Control plane".
fn control_plane_section() -> &'static str {
    let design = include_str!("../../../DESIGN.md");
    let start = design
        .find("\n## 12. ")
        .expect("DESIGN.md has a section 12");
    let len = design[start + 1..].find("\n## ").expect("and one after it");
    &design[start..start + 1 + len]
}

#[test]
fn every_verb_is_in_the_design_table_and_the_cli_usage() {
    let section = control_plane_section();
    let out = Command::new(env!("CARGO_BIN_EXE_escape"))
        .arg("ctl")
        .output()
        .expect("escape ctl runs");
    let usage = String::from_utf8_lossy(&out.stderr);
    assert!(usage.contains("usage: escape ctl"), "{usage}");
    for verb in CtlRequest::LABELS {
        assert!(
            section.contains(&format!("\n| `{verb}`")),
            "DESIGN.md §12's verb table has no row for `{verb}`"
        );
        assert!(
            usage.contains(&format!(" {verb}")),
            "`escape ctl` usage does not mention {verb}:\n{usage}"
        );
    }
}

#[test]
fn every_error_code_is_in_the_design_section() {
    let section = control_plane_section();
    for code in CtlError::LABELS {
        assert!(
            section.contains(&format!("`{code}`")),
            "DESIGN.md §12 does not describe the `{code}` error"
        );
    }
}
