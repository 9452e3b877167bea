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

/// `bound` and `certify` reject a range with a NaN bound, which `lo > hi`
/// alone would let through as an inverted bound.
#[test]
fn nan_ranges_are_rejected() {
    let path = format!("{}/eic_nan_range.eil", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, "interface r {\n    fn g(x) { return x * 1 J; }\n}\n").unwrap();
    for range in ["x=nan..1", "x=1..nan", "x=nan..nan", "x=2..1"] {
        for args in [
            vec!["bound", &path, "g", range],
            vec!["certify", &path, "--fn", "g", range],
        ] {
            let done = Command::new(env!("CARGO_BIN_EXE_eic"))
                .args(&args)
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&done.stdout);
            let stderr = String::from_utf8_lossy(&done.stderr);
            assert_eq!(done.status.code(), Some(1), "{args:?}: {stdout}{stderr}");
            assert!(stdout.is_empty(), "{args:?}: {stdout}");
            assert!(
                stderr.contains(&format!("empty range in `{range}`")),
                "{args:?}: {stderr}"
            );
        }
    }
}

/// `eic lint`'s exit status: every bad-EIL fixture fails under `--deny
/// warnings` (the `v*` ones at parse time), a warnings-only fixture passes
/// without it, and a clean shipped interface passes with it.
#[test]
fn lint_exit_status_tracks_severity() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let lint = |flags: &[&str], path: &std::path::Path| {
        let done = Command::new(env!("CARGO_BIN_EXE_eic"))
            .arg("lint")
            .args(flags)
            .arg(path)
            .output()
            .unwrap();
        let out = String::from_utf8_lossy(&done.stdout).into_owned()
            + &String::from_utf8_lossy(&done.stderr);
        (done.status.code(), out)
    };
    let mut fixtures = 0;
    for entry in std::fs::read_dir(root.join("tests/fixtures/bad_eil")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "eil") {
            let (code, out) = lint(&["--deny", "warnings"], &path);
            assert_eq!(code, Some(1), "{}: {out}", path.display());
            fixtures += 1;
        }
    }
    assert!(fixtures >= 8, "only {fixtures} bad-EIL fixtures found");
    let warned = root.join("tests/fixtures/bad_eil/w002_nondeterminism.eil");
    let (code, out) = lint(&[], &warned);
    assert_eq!(code, Some(0), "{out}");
    let (code, out) = lint(&["--deny", "warnings"], &root.join("examples/eil/dram.eil"));
    assert_eq!(code, Some(0), "{out}");
}
