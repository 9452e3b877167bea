//! A corpus of realistic energy interfaces: every one must parse,
//! round-trip through the pretty-printer (losslessly, as seen by its JSON
//! and fingerprint), validate, evaluate, and (where annotated) admit
//! worst-case analysis that is sound against sampling.

use energy_clarity::core::analysis::worst_case::worst_case;
use energy_clarity::core::cache::fingerprint_interface;
use energy_clarity::core::ecv::EcvEnv;
use energy_clarity::core::interface::{InputSpec, Interface};
use energy_clarity::core::interp::{evaluate_energy, EvalConfig};
use energy_clarity::core::parser::parse;
use energy_clarity::core::pretty::print_interface;
use energy_clarity::core::sema::{self, LintOptions};
use energy_clarity::core::units::Calibration;
use energy_clarity::core::value::Value;

/// `(name, source, entry, scalar args, input spec for analysis)`.
#[allow(clippy::type_complexity)]
fn corpus() -> Vec<(
    &'static str,
    &'static str,
    &'static str,
    Vec<f64>,
    Option<InputSpec>,
)> {
    vec![
        (
            "dram_controller",
            r#"interface dram "DDR5 controller" {
                ecv row_hit: bernoulli(0.6) "row buffer hit";
                fn read(bytes) {
                    let bursts = ceil(bytes / 64);
                    let per = if row_hit { 12 nJ } else { 35 nJ };
                    return per * bursts + 4 nJ;
                }
                fn write(bytes) { return 40 nJ * ceil(bytes / 64) + 4 nJ; }
                fn refresh(seconds) { return 22 mJ * seconds; }
            }"#,
            "read",
            vec![4096.0],
            Some(InputSpec::new().range("bytes", 1.0, 1_048_576.0)),
        ),
        (
            "tls_handshake",
            r#"interface tls "TLS 1.3 handshake" {
                ecv session_resumed: bernoulli(0.4) "PSK resumption";
                fn handshake(cert_chain_len) {
                    if session_resumed { return 0.8 mJ; }
                    let e = 3.5 mJ;
                    for c in 0..cert_chain_len { e = e + 1.2 mJ; }
                    return e;
                }
            }"#,
            "handshake",
            vec![3.0],
            Some(InputSpec::new().range("cert_chain_len", 0.0, 6.0)),
        ),
        (
            "b_tree",
            r#"interface btree "B-tree point lookup" {
                unit page_read;
                fn lookup(n_keys) {
                    let depth = max(ceil(ln(max(n_keys, 2)) / ln(128)), 1);
                    return 1 page_read * depth + 2 uJ;
                }
            }"#,
            "lookup",
            vec![1_000_000.0],
            None,
        ),
        (
            "video_encoder",
            r#"interface encoder "per-frame H.264-class encoder" {
                ecv scene_change: bernoulli(0.05) "keyframe forced";
                fn encode(width, height) {
                    let mbs = ceil(width / 16) * ceil(height / 16);
                    let base = 0.9 uJ * mbs;
                    if scene_change { return base * 3 + 2 mJ; }
                    return base + 2 mJ;
                }
            }"#,
            "encode",
            vec![1920.0, 1080.0],
            Some(
                InputSpec::new()
                    .range("width", 320.0, 3840.0)
                    .range("height", 240.0, 2160.0),
            ),
        ),
        (
            "raid_rebuild",
            r#"interface raid "RAID-6 rebuild" {
                fn rebuild(disk_gb, healthy_disks) {
                    let stripes = disk_gb * 1024;
                    let read = 0.2 mJ * stripes * healthy_disks;
                    let parity = 0.05 mJ * stripes;
                    let write = 0.25 mJ * stripes;
                    return read + parity + write;
                }
            }"#,
            "rebuild",
            vec![100.0, 5.0],
            Some(
                InputSpec::new()
                    .range("disk_gb", 1.0, 1000.0)
                    .range("healthy_disks", 3.0, 11.0),
            ),
        ),
        (
            "gc_pause",
            r#"interface gc "generational GC pause" {
                ecv promotion_rate: uniform(0.02, 0.2) "fraction promoted";
                fn minor_collect(nursery_mb) {
                    let survivors = nursery_mb * ecv(promotion_rate);
                    return 0.4 mJ * nursery_mb + 3 mJ * survivors;
                }
            }"#,
            "minor_collect",
            vec![64.0],
            Some(InputSpec::new().range("nursery_mb", 1.0, 512.0)),
        ),
    ]
}

#[test]
fn corpus_parses_roundtrips_and_validates() {
    for (name, src, _, _, _) in corpus() {
        let iface = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        iface.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        let printed = print_interface(&iface);
        let again = parse(&printed).unwrap_or_else(|e| panic!("{name} reprint: {e}\n{printed}"));
        assert_eq!(iface, again, "{name} round-trip");
    }
}

#[test]
fn corpus_evaluates_positive_energy() {
    let cal = Calibration::from_pairs([(
        "page_read",
        energy_clarity::core::units::Energy::microjoules(25.0),
    )]);
    for (name, src, entry, args, _) in corpus() {
        let iface = parse(src).unwrap();
        let cfg = EvalConfig {
            calibration: cal.clone(),
            ..EvalConfig::default()
        };
        let vals: Vec<Value> = args.iter().map(|a| Value::Num(*a)).collect();
        let env = EcvEnv::from_decls(&iface.ecvs);
        for seed in 0..8 {
            let e = evaluate_energy(&iface, entry, &vals, &env, seed, &cfg)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(e.as_joules() > 0.0, "{name} seed {seed}");
        }
    }
}

/// Printed EIL is the one wire format: printing and parsing back loses
/// nothing the serialized form or the fingerprint can see (float bits
/// included, which `==` would not catch), and printing is a fixed point.
#[test]
fn corpus_prints_and_parses_back_losslessly() {
    for (name, src, _, _, _) in corpus() {
        let iface = parse(src).unwrap();
        let printed = print_interface(&iface);
        let back = parse(&printed).unwrap_or_else(|e| panic!("{name} reprint: {e}\n{printed}"));
        let json =
            |i: &Interface| serde_json::to_string(i).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(json(&iface), json(&back), "{name} print/parse round-trip");
        assert_eq!(
            fingerprint_interface(&iface),
            fingerprint_interface(&back),
            "{name} fingerprint"
        );
        assert_eq!(print_interface(&back), printed, "{name} reprint");
    }
}

#[test]
fn corpus_worst_case_bounds_are_sound() {
    let cal = Calibration::from_pairs([(
        "page_read",
        energy_clarity::core::units::Energy::microjoules(25.0),
    )]);
    for (name, src, entry, args, spec) in corpus() {
        let Some(spec) = spec else { continue };
        let iface = parse(src).unwrap();
        let bound =
            worst_case(&iface, entry, &spec, &cal).unwrap_or_else(|e| panic!("{name}: {e}"));
        let cfg = EvalConfig {
            calibration: cal.clone(),
            ..EvalConfig::default()
        };
        let env = EcvEnv::from_decls(&iface.ecvs);
        // The declared sample point lies in every spec's range.
        let vals: Vec<Value> = args.iter().map(|a| Value::Num(*a)).collect();
        for seed in 0..32 {
            let e = evaluate_energy(&iface, entry, &vals, &env, seed, &cfg).unwrap();
            assert!(
                bound.admits(e),
                "{name}: sample {e} outside [{}, {}]",
                bound.lower,
                bound.upper
            );
        }
    }
}

/// The corpus is the lint rules' false-positive suite: each entry, with
/// its declared input spec attached and its one abstract unit calibrated,
/// lints without an error. The spec is what makes an entry with a loop
/// clean: without it, `tls::handshake`'s trip count is unbounded (E004).
#[test]
fn corpus_lints_without_errors() {
    let options = LintOptions::with_calibration(Calibration::from_pairs([(
        "page_read",
        energy_clarity::core::units::Energy::microjoules(25.0),
    )]));
    for (name, src, entry, _, spec) in corpus() {
        let mut iface = parse(src).unwrap();
        if name == "tls_handshake" {
            let bare = sema::check_program(std::slice::from_ref(&iface), &options);
            assert!(
                bare.iter()
                    .any(|d| d.rule == "E004" && (d.span.line, d.span.col) == (6, 21)),
                "{name} without its spec:\n{}",
                bare.render_text()
            );
        }
        if let Some(spec) = spec {
            iface.set_input_spec(entry, spec);
        }
        let diags = sema::check_program(&[iface], &options);
        assert_eq!(diags.error_count(), 0, "{name}:\n{}", diags.render_text());
    }
}

/// Every EIL file the repository ships, and every interface in the shipped
/// catalogue after a print/parse round trip, parses within the parser's
/// nesting limit. The lint corpus's `v*` fixtures are the exception: each
/// must be rejected by distribution validation instead.
#[test]
fn shipped_interfaces_parse_within_the_nesting_limit() {
    use energy_clarity::core::parser::parse_all;
    use energy_clarity::core::Error;

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.join("examples/eil"), root.join("tests/fixtures")];
    let mut files = 0;
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "eil") {
                let src = std::fs::read_to_string(&path).unwrap();
                let stem = path.file_stem().unwrap().to_string_lossy();
                if dir.ends_with("bad_eil") && stem.starts_with('v') {
                    let err = parse_all(&src).unwrap_err();
                    assert!(
                        matches!(err, Error::BadDistribution { .. }),
                        "{}: {err}",
                        path.display()
                    );
                } else {
                    parse_all(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                }
                files += 1;
            }
        }
    }
    assert!(files >= 20, "only {files} .eil files found");

    for entry in ei_bench::catalogue() {
        for iface in &entry.program {
            let printed = print_interface(iface);
            parse(&printed).unwrap_or_else(|e| panic!("{}: {e}", iface.name));
        }
    }
}
