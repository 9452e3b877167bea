//! The `eic` binary run as a child process.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// A reader that takes one line and closes the pipe (`eic fmt big.eil |
/// head -1`) ends the run quietly: no panic, no exit 101. The interface is
/// large so that its printed form overflows the pipe buffer and `eic`
/// is still writing when the pipe closes.
#[test]
fn closed_stdout_ends_quietly() {
    let path = format!("{}/eic_closed_stdout.eil", env!("CARGO_TARGET_TMPDIR"));
    let mut src = String::from("interface big \"3,000 functions\" {\n");
    for i in 0..3000 {
        src += &format!("    fn f{i}(n) \"function {i}\" {{ return {i} mJ * n + 1 nJ; }}\n");
    }
    src += "}\n";
    std::fs::write(&path, &src).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_eic"))
        .args(["fmt", &path])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    assert!(!line.is_empty(), "eic printed nothing");
    drop(stdout);

    let done = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert!(done.status.success(), "{}: {stderr}", done.status);
    assert!(stderr.is_empty(), "{stderr}");
}
