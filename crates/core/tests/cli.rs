//! The `nuspi` binary end to end: what a command prints and how it exits.

use std::process::Command;

/// Runs `nuspi ARGS` on a process file holding `src`, returning stdout
/// and the exit code.
fn nuspi(args: &[&str], file: &str, src: &str) -> (String, i32) {
    let dir = std::env::temp_dir().join(format!("nuspi-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(file);
    std::fs::write(&path, src).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_nuspi"))
        .args(args)
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    (
        String::from_utf8(out.stdout).unwrap(),
        out.status.code().unwrap(),
    )
}

#[test]
fn explain_reports_a_hidden_name_without_a_policy_entry() {
    // `hide` makes `h` secret by construction, as `lint` and `check`
    // already see it: explain reads the same confinement report.
    let (stdout, code) = nuspi(&["explain"], "hidden.nuspi", "(hide h) c<h>.0");
    assert!(
        stdout.contains("secret-kind value h may reach public channel c:"),
        "{stdout}"
    );
    assert!(stdout.ends_with("1 flow(s) flagged.\n"), "{stdout}");
    assert_eq!(code, 1);
}
