//! The golden corpus checker: the one place the workspace compares output
//! against `tests/golden/` and the one place it reads `GOLDEN_BLESS`.
//!
//! Two checks share one bless rule. [`check_json`] diffs a serialized
//! report structurally: numeric leaves compare with relative slack
//! (cross-platform libm), everything else must match exactly.
//! [`assert_text`] compares rendered text byte for byte. With
//! `GOLDEN_BLESS=1` the test-side asserts ([`assert_json`],
//! [`assert_text`], [`assert_experiment`]) rewrite the golden file instead
//! of comparing; review the resulting `git diff tests/golden/` like any
//! other change. [`check_json`] never blesses, so `repro_all` stays a
//! pure regression gate.

use std::path::PathBuf;

use serde::Value;

/// Relative tolerance for numeric leaves. All experiment seeds are fixed,
/// so runs are deterministic on one machine; the slack only absorbs
/// cross-platform libm (`exp`/`ln`/`powf`) differences.
pub const REL_TOL: f64 = 1e-6;
/// Absolute floor for comparisons near zero.
pub const ABS_TOL: f64 = 1e-12;

/// The golden corpus directory, resolved relative to this crate so every
/// caller finds it regardless of the working directory.
pub fn golden_dir() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// True when `GOLDEN_BLESS=1`: checks rewrite their golden files instead
/// of comparing.
pub fn blessing() -> bool {
    std::env::var("GOLDEN_BLESS").as_deref() == Ok("1")
}

fn bless(path: &std::path::Path, contents: &str) {
    std::fs::create_dir_all(path.parent().expect("golden path has a parent"))
        .expect("create golden directory");
    std::fs::write(path, contents).expect("write golden file");
}

/// Diffs `actual` against `tests/golden/<rel>` with the corpus
/// tolerances. A missing or unparseable golden is a diff. This only
/// compares, whatever `GOLDEN_BLESS` says; [`assert_json`] is the
/// blessing entry point.
pub fn check_json(rel: &str, actual: &Value) -> Result<(), Vec<String>> {
    let path = golden_dir().join(rel);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        vec![format!(
            "{rel}: missing golden file {} ({e}); create it with GOLDEN_BLESS=1 cargo test",
            path.display()
        )]
    })?;
    let expected: Value =
        serde_json::from_str(&text).map_err(|e| vec![format!("{rel}: unparseable golden: {e}")])?;
    let mut diffs = Vec::new();
    diff_value(&expected, actual, rel.to_string(), &mut diffs);
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(diffs)
    }
}

/// [`check_json`], panicking with every diff on a mismatch, or rewrites
/// the file when `GOLDEN_BLESS=1`.
pub fn assert_json(rel: &str, actual: &Value) {
    if blessing() {
        bless(
            &golden_dir().join(rel),
            &(serde_json::to_string_pretty(actual).expect("report serializes") + "\n"),
        );
        return;
    }
    if let Err(diffs) = check_json(rel, actual) {
        panic!(
            "golden mismatch in {rel} ({} diff(s)):\n{}",
            diffs.len(),
            diffs.join("\n")
        );
    }
}

/// Compares `actual` byte for byte against `tests/golden/<rel>`, or
/// rewrites the file when `GOLDEN_BLESS=1`.
pub fn assert_text(rel: &str, actual: &str) {
    let path = golden_dir().join(rel);
    if blessing() {
        bless(&path, actual);
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with GOLDEN_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "golden mismatch in {rel}; if intentional, regenerate with GOLDEN_BLESS=1"
    );
}

/// Runs the [`crate::EXPERIMENTS`] entry `id` and asserts its report
/// matches `tests/golden/<id>.json`.
pub fn assert_experiment(id: &str) {
    let experiment = crate::EXPERIMENTS
        .iter()
        .find(|e| e.id == id)
        .unwrap_or_else(|| panic!("no experiment `{id}`"));
    let (report, _rendered) = (experiment.run)();
    assert_json(&format!("{id}.json"), &report);
}

/// Structural diff: numbers within tolerance, everything else exact. A
/// non-finite number on either side is a diff unless both sides are the
/// same value (NaN matches only NaN).
fn diff_value(expected: &Value, actual: &Value, path: String, diffs: &mut Vec<String>) {
    match (expected, actual) {
        (e, a) if e.as_f64().is_some() && a.as_f64().is_some() => {
            let (e, a) = (e.as_f64().unwrap(), a.as_f64().unwrap());
            let differs = if e.is_finite() && a.is_finite() {
                (e - a).abs() > ABS_TOL + REL_TOL * e.abs().max(a.abs())
            } else {
                !(e == a || (e.is_nan() && a.is_nan()))
            };
            if differs {
                diffs.push(format!("{path}: expected {e}, got {a}"));
            }
        }
        (Value::Array(e), Value::Array(a)) => {
            if e.len() != a.len() {
                diffs.push(format!(
                    "{path}: expected {} elements, got {}",
                    e.len(),
                    a.len()
                ));
                return;
            }
            for (i, (ev, av)) in e.iter().zip(a).enumerate() {
                diff_value(ev, av, format!("{path}[{i}]"), diffs);
            }
        }
        (Value::Object(e), Value::Object(a)) => {
            let ekeys: Vec<&str> = e.iter().map(|(k, _)| k.as_str()).collect();
            let akeys: Vec<&str> = a.iter().map(|(k, _)| k.as_str()).collect();
            if ekeys != akeys {
                diffs.push(format!("{path}: keys {ekeys:?} vs {akeys:?}"));
                return;
            }
            for ((k, ev), (_, av)) in e.iter().zip(a) {
                diff_value(ev, av, format!("{path}.{k}"), diffs);
            }
        }
        (e, a) => {
            if e != a {
                diffs.push(format!("{path}: expected {e:?}, got {a:?}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerant_on_libm_noise_strict_on_structure() {
        let expected: Value =
            serde_json::from_str(r#"{"a": 1.0, "b": [2.0, 3.0], "c": "x"}"#).unwrap();
        let nearly =
            serde_json::from_str(r#"{"a": 1.0000000001, "b": [2.0, 3.0], "c": "x"}"#).unwrap();
        let mut diffs = Vec::new();
        diff_value(&expected, &nearly, "t".into(), &mut diffs);
        assert!(diffs.is_empty(), "{diffs:?}");

        let wrong: Value = serde_json::from_str(r#"{"a": 1.1, "b": [2.0], "c": "y"}"#).unwrap();
        diffs.clear();
        diff_value(&expected, &wrong, "t".into(), &mut diffs);
        assert_eq!(diffs.len(), 3, "{diffs:?}");
    }

    #[test]
    fn non_finite_leaves_differ_unless_identical() {
        let diff = |e: f64, a: f64| {
            let mut diffs = Vec::new();
            diff_value(&Value::F64(e), &Value::F64(a), "t".into(), &mut diffs);
            !diffs.is_empty()
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(diff(1.0, bad), "1.0 vs {bad} must differ");
            assert!(diff(bad, 1.0), "{bad} vs 1.0 must differ");
            assert!(!diff(bad, bad), "{bad} vs itself must match");
        }
        assert!(diff(f64::INFINITY, f64::NEG_INFINITY));
        assert!(diff(f64::NAN, f64::INFINITY));
        assert!(diff(1.0, 1.1));
    }

    #[test]
    fn check_resolves_the_shared_corpus() {
        // The corpus ships with the repo, so a known file must be found and
        // match itself.
        let text = std::fs::read_to_string(golden_dir().join("table1.json")).unwrap();
        let value: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(check_json("table1.json", &value), Ok(()));
        assert!(check_json("does_not_exist.json", &value).is_err());
        assert!(check_json("fig2.json", &value).is_err());
    }
}
