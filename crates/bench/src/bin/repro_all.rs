//! Runs the reproductions in `ei_bench::EXPERIMENTS` (Table 1 last; it is
//! the slowest) and checks each report against its golden file as it
//! completes.
//!
//! ```text
//! repro_all                        # every experiment
//! repro_all fig1 e8_provisioning   # only these ids
//! ```
//!
//! An unknown id exits nonzero and lists the valid ids.
//!
//! The run executes inside a telemetry session: alongside the rendered
//! tables it writes `telemetry.json` (override the path with
//! `TELEMETRY_OUT`; set it empty to skip) — a deterministic, byte-stable
//! trace of every span, counter, and histogram the run produced — and
//! prints the same data as a Prometheus text dump.
//!
//! The run ends with one summary line per experiment (OK / MISMATCH) and
//! exits nonzero if any report diverged from its golden or has none, so a
//! scripted `repro_all` is a regression gate, not just a table printer.
//! It only compares: goldens are blessed by the tests, never by this run.

use ei_bench::{golden, Experiment, EXPERIMENTS};

fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&Experiment> = if ids.is_empty() {
        EXPERIMENTS.iter().collect()
    } else {
        let mut selected = Vec::new();
        for id in &ids {
            match EXPERIMENTS.iter().find(|e| e.id == id.as_str()) {
                Some(e) => selected.push(e),
                None => {
                    let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
                    eprintln!(
                        "repro_all: unknown experiment `{id}`; valid ids: {}",
                        valid.join(" ")
                    );
                    std::process::exit(2);
                }
            }
        }
        selected
    };

    let session = ei_telemetry::session();
    let mut summary = Vec::new();
    let mut failures = Vec::new();
    for e in selected {
        let (report, rendered) = (e.run)();
        println!("{rendered}");
        let name = format!("{}.json", e.id);
        let verdict = match golden::check_json(&name, &report) {
            Ok(()) => "OK".to_string(),
            Err(diffs) => {
                let verdict = format!("MISMATCH ({} diff(s))", diffs.len());
                failures.extend(diffs);
                verdict
            }
        };
        summary.push(format!("  {:<22} {verdict:<20} {name}", e.label));
    }

    let snapshot = session.finish();
    println!("=== Telemetry (Prometheus text format) ===\n");
    print!("{}", snapshot.to_prometheus());

    let out = std::env::var("TELEMETRY_OUT").unwrap_or_else(|_| "telemetry.json".to_string());
    if !out.is_empty() {
        std::fs::write(&out, snapshot.to_json_pretty()).expect("write telemetry trace");
        eprintln!("telemetry trace written to {out}");
    }

    println!("\n=== Golden summary ===\n");
    for line in &summary {
        println!("{line}");
    }
    if !failures.is_empty() {
        eprintln!("\n{} golden diff(s):", failures.len());
        for d in &failures {
            eprintln!("  {d}");
        }
        std::process::exit(1);
    }
    println!("\nall experiments match the golden corpus");
}
