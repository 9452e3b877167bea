//! The `repro_all` command line: positional experiment ids select entries
//! of `ei_bench::EXPERIMENTS`, and an unknown id is an error.

use std::process::Command;

fn repro_all(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(args)
        .env("TELEMETRY_OUT", "")
        .output()
        .expect("repro_all runs")
}

#[test]
fn one_id_runs_one_experiment_against_its_golden() {
    let out = repro_all(&["e5_sidechannel"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let summary: Vec<&str> = stdout
        .lines()
        .filter(|l| l.ends_with(".json") && l.starts_with("  "))
        .collect();
    assert_eq!(summary.len(), 1, "{stdout}");
    assert!(
        summary[0].contains(" OK ") && summary[0].ends_with("e5_sidechannel.json"),
        "{}",
        summary[0]
    );
}

#[test]
fn unknown_id_fails_and_lists_the_valid_ids() {
    let out = repro_all(&["nope"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    for e in ei_bench::EXPERIMENTS {
        assert!(stderr.contains(e.id), "{stderr}");
    }
    assert!(
        out.stdout.is_empty(),
        "nothing may run before the ids are checked"
    );
}
