//! Golden snapshots for the `eil-sema` lint framework.
//!
//! `tests/fixtures/bad_eil/` holds one deliberately defective interface per
//! lint rule, plus `v*` fixtures that never reach the linter because
//! distribution validation rejects them at parse time (checked in
//! `language_corpus.rs`). Each lint fixture is linted through the library API
//! (`ei_core::sema::check_program`) and both renderings — the human text
//! report and the machine JSON report — are frozen byte-for-byte under
//! `tests/golden/lint/`. On top of the snapshots, each fixture asserts the
//! rule id and exact `line:col` of the seeded defect, so a parser or sema
//! regression that shifts positions fails with a readable message before
//! the byte diff does.
//!
//! To regenerate after an intentional diagnostic change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test lint_golden
//! ```
//!
//! then review the diff of `tests/golden/lint/*` like any other code change.

use ei_bench::golden::assert_text;
use energy_clarity::core::parser::parse_all;
use energy_clarity::core::sema::{self, LintOptions};

/// A seeded defect: `(rule, line, col)`.
type Defect = (&'static str, u32, u32);

/// `(fixture stem, seeded defects)`.
fn fixtures() -> Vec<(&'static str, Vec<Defect>)> {
    vec![
        ("e001_unit_mismatch", vec![("E001", 3, 25)]),
        ("e002_uncalibrated", vec![("E002", 4, 16)]),
        ("e003_negative_energy", vec![("E003", 2, 8)]),
        ("e004_unbounded", vec![("E004", 4, 9), ("E004", 9, 8)]),
        (
            "w001_dead",
            vec![("W001", 2, 10), ("W001", 3, 9), ("W001", 5, 9)],
        ),
        (
            "w002_nondeterminism",
            vec![("W002", 6, 21), ("W002", 9, 12)],
        ),
        ("w003_composition", vec![("W003", 2, 15)]),
    ]
}

fn repo_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

#[test]
fn bad_eil_corpus_matches_golden_reports() {
    for (stem, defects) in fixtures() {
        let src_path = repo_path(&format!("tests/fixtures/bad_eil/{stem}.eil"));
        let src = std::fs::read_to_string(&src_path)
            .unwrap_or_else(|e| panic!("{}: {e}", src_path.display()));
        let program = parse_all(&src).unwrap_or_else(|e| panic!("{stem}: {e}"));
        let diags = sema::check_program(&program, &LintOptions::default());

        // Every seeded defect is reported with its exact rule and position.
        for (rule, line, col) in &defects {
            assert!(
                diags
                    .iter()
                    .any(|d| d.rule == *rule && d.span.line == *line && d.span.col == *col),
                "{stem}: expected {rule} at {line}:{col}, got:\n{}",
                diags.render_text()
            );
        }
        // ...and nothing is silently clean.
        assert!(!diags.is_empty(), "{stem}: fixture lints clean");

        assert_text(&format!("lint/{stem}.txt"), &diags.render_text());
        assert_text(&format!("lint/{stem}.json"), &diags.render_json());
    }
}

/// Warnings never escalate to errors: the W002 fixture lints with
/// warnings and no error. (`language_corpus::corpus_lints_without_errors`
/// is the rules' false-positive suite.)
#[test]
fn warnings_never_escalate_to_errors() {
    let src = std::fs::read_to_string(repo_path("tests/fixtures/bad_eil/w002_nondeterminism.eil"))
        .unwrap();
    let program = parse_all(&src).unwrap();
    let diags = sema::check_program(&program, &LintOptions::default());
    assert_eq!(diags.error_count(), 0, "{}", diags.render_text());
    assert!(diags.warning_count() > 0);
}
