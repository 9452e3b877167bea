//! `eic` — the energy-interface compiler/runner CLI.
//!
//! ```text
//! eic check  <file.eil>                      parse + validate
//! eic lint   <file.eil> [flags]              semantic analysis + lint rules
//! eic fmt    <file.eil>                      pretty-print to stdout
//! eic eval   <file.eil> <fn> [k=v...]        evaluate (exact or Monte Carlo)
//! eic paths  <file.eil> <fn> [k=v...]        per-path energies and probabilities
//! eic bound  <file.eil> <fn> [k=lo..hi...]   sound worst-case bound
//! eic certify <file.eil> [--fn f k=lo..hi...] sound bound + monotonicity certificate
//! ```
//!
//! Scalar arguments are `name=3.5`; record fields are `req.size=64` (grouped
//! into a record per prefix). `--seed N` and `--samples N` tune Monte Carlo;
//! `--cal unit=joules` calibrates an abstract unit (repeatable).
//!
//! `lint` accepts `--deny warnings` (warnings fail the run), `--format
//! json|text`, and repeatable `--cal unit=joules` entries so rule E002 can
//! see the deployment's calibration. The file may contain several
//! interfaces; cross-interface rules (W003) check them against each other.
//!
//! A command collects its output, then writes it through one locked stdout
//! handle. A reader that closes the pipe early (`eic fmt big.eil | head -1`)
//! ends the run quietly.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::process::ExitCode;

use ei_core::analysis::cert::certify;
use ei_core::analysis::paths::enumerate_paths;
use ei_core::analysis::worst_case::worst_case;
use ei_core::ecv::EcvEnv;
use ei_core::interface::{InputSpec, Interface};
use ei_core::interp::{enumerate_exact, monte_carlo, EvalConfig};
use ei_core::parser::{parse, parse_all};
use ei_core::pretty::print_interface;
use ei_core::sema;
use ei_core::units::Calibration;
use ei_core::value::Value;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::new();
    let outcome = run(&args, &mut out);
    // Written even after a failure: `lint` reports before it fails.
    let mut stdout = io::stdout().lock();
    if let Err(e) = stdout
        .write_all(out.as_bytes())
        .and_then(|()| stdout.flush())
    {
        if e.kind() != io::ErrorKind::BrokenPipe {
            eprintln!("eic: writing output: {e}");
            return ExitCode::FAILURE;
        }
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("eic: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one command, appending what it prints to `out`.
fn run(args: &[String], out: &mut String) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    match cmd.as_str() {
        "check" => {
            let iface = load(args.get(1).ok_or_else(usage)?)?;
            out.push_str(&format!(
                "ok: interface `{}` — {} function(s), {} ECV(s), {} unit(s), {} extern(s)\n",
                iface.name,
                iface.fns.len(),
                iface.ecvs.len(),
                iface.units.len(),
                iface.externs.len()
            ));
            Ok(())
        }
        "lint" => lint(&args[1..], out),
        "fmt" => {
            let iface = load(args.get(1).ok_or_else(usage)?)?;
            out.push_str(&print_interface(&iface));
            Ok(())
        }
        "eval" => {
            let iface = load(args.get(1).ok_or_else(usage)?)?;
            let func = args.get(2).ok_or_else(usage)?;
            let (vals, seed, samples, cal) = parse_args(&iface, func, &args[3..])?;
            let env = EcvEnv::from_decls(&iface.ecvs);
            let cfg = EvalConfig {
                calibration: cal,
                ..EvalConfig::default()
            };
            let dist = match enumerate_exact(&iface, func, &vals, &env, 4096, &cfg) {
                Ok(d) => d,
                Err(ei_core::Error::Analysis { .. }) => {
                    monte_carlo(&iface, func, &vals, &env, samples, seed, &cfg)
                        .map_err(|e| e.to_string())?
                }
                Err(e) => return Err(e.to_string()),
            };
            out.push_str(&format!(
                "expected : {}\nmin..max : {} .. {}\np5..p95  : {} .. {}\n",
                dist.mean(),
                dist.min(),
                dist.max(),
                dist.quantile(0.05),
                dist.quantile(0.95)
            ));
            Ok(())
        }
        "paths" => {
            let iface = load(args.get(1).ok_or_else(usage)?)?;
            let func = args.get(2).ok_or_else(usage)?;
            let (vals, _, _, cal) = parse_args(&iface, func, &args[3..])?;
            let env = EcvEnv::from_decls(&iface.ecvs);
            let cfg = EvalConfig {
                calibration: cal,
                ..EvalConfig::default()
            };
            let profile = enumerate_paths(&iface, func, &vals, &env, 4096, &cfg)
                .map_err(|e| e.to_string())?;
            out.push_str(&profile.render());
            out.push_str(&format!("expected: {}\n", profile.expected_energy()));
            Ok(())
        }
        "bound" => {
            let iface = load(args.get(1).ok_or_else(usage)?)?;
            let func = args.get(2).ok_or_else(usage)?;
            let mut spec = InputSpec::new();
            for a in &args[3..] {
                let (path, range) = a
                    .split_once('=')
                    .ok_or_else(|| format!("expected k=lo..hi, got `{a}`"))?;
                let (lo, hi) = range
                    .split_once("..")
                    .ok_or_else(|| format!("expected lo..hi in `{a}`"))?;
                let lo: f64 = lo.parse().map_err(|_| format!("bad number in `{a}`"))?;
                let hi: f64 = hi.parse().map_err(|_| format!("bad number in `{a}`"))?;
                if lo > hi {
                    return Err(format!("empty range in `{a}`: {lo} > {hi}"));
                }
                spec = spec.range(path, lo, hi);
            }
            let bound = worst_case(&iface, func, &spec, &Calibration::empty())
                .map_err(|e| e.to_string())?;
            out.push_str(&format!(
                "worst-case bound: {} .. {}\n",
                bound.lower, bound.upper
            ));
            Ok(())
        }
        "certify" => {
            out.push_str(&run_certify(&args[1..])?);
            out.push('\n');
            Ok(())
        }
        _ => Err(usage()),
    }
}

/// Runs the semantic analyzer over every interface in the given `.eil`
/// file and appends the diagnostics to `out`. Flags and the file path may
/// appear in any order. Returns `Err` (→ exit failure) when any error
/// fires, or — under `--deny warnings` — when any warning fires.
fn lint(raw: &[String], out: &mut String) -> Result<(), String> {
    let mut deny_warnings = false;
    let mut json = false;
    let mut cal = Calibration::empty();
    let mut path: Option<&str> = None;
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => match it.next().map(String::as_str) {
                Some("warnings") => deny_warnings = true,
                other => {
                    return Err(format!(
                        "--deny expects `warnings`, got `{}`",
                        other.unwrap_or("")
                    ))
                }
            },
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("text") => json = false,
                other => {
                    return Err(format!(
                        "--format expects `json` or `text`, got `{}`",
                        other.unwrap_or("")
                    ))
                }
            },
            "--cal" => {
                let spec = it.next().ok_or("--cal needs unit=joules")?;
                let (unit, j) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--cal expects unit=joules, got `{spec}`"))?;
                let j: f64 = j.parse().map_err(|_| format!("bad number in `{spec}`"))?;
                cal.set(unit, ei_core::units::Energy::joules(j));
            }
            other if other.starts_with("--") => {
                return Err(format!("lint: unknown flag `{other}`"))
            }
            other => {
                if let Some(first) = path {
                    return Err(format!("lint: two input files (`{first}` and `{other}`)"));
                }
                path = Some(other);
            }
        }
    }
    let path = path.ok_or_else(usage)?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let program = parse_all(&src).map_err(|e| format!("{path}: {e}"))?;
    let opts = sema::LintOptions::with_calibration(cal);
    let diags = sema::check_program(&program, &opts);
    let report = if json {
        diags.render_json()
    } else {
        diags.render_text()
    };
    // The diagnostics reach stdout on failure too.
    out.push_str(&report);
    if diags.error_count() > 0 || (deny_warnings && diags.warning_count() > 0) {
        return Err(format!(
            "lint failed: {} error(s), {} warning(s)",
            diags.error_count(),
            diags.warning_count()
        ));
    }
    Ok(())
}

/// `eic certify <file.eil> [--fn f] [k=lo..hi...] [--cal unit=J]`.
///
/// With `--fn f`, the `k=lo..hi` ranges declare `f`'s input space before
/// certifying (repeat the whole invocation per function to certify
/// several). Without `--fn`, only zero-parameter functions certify —
/// a bound needs a declared domain. The certificate prints as canonical
/// JSON: byte-for-byte reproducible for the same interface and spec.
fn run_certify(raw: &[String]) -> Result<String, String> {
    let mut cal = Calibration::empty();
    let mut func: Option<&str> = None;
    let mut ranges: Vec<(String, f64, f64)> = Vec::new();
    let mut path: Option<&str> = None;
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fn" => {
                func = Some(it.next().ok_or("--fn needs a function name")?);
            }
            "--cal" => {
                let spec = it.next().ok_or("--cal needs unit=joules")?;
                let (unit, j) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--cal expects unit=joules, got `{spec}`"))?;
                let j: f64 = j.parse().map_err(|_| format!("bad number in `{spec}`"))?;
                cal.set(unit, ei_core::units::Energy::joules(j));
            }
            other if other.starts_with("--") => {
                return Err(format!("certify: unknown flag `{other}`"))
            }
            other if other.contains("..") => {
                let (key, range) = other
                    .split_once('=')
                    .ok_or_else(|| format!("expected k=lo..hi, got `{other}`"))?;
                let (lo, hi) = range
                    .split_once("..")
                    .ok_or_else(|| format!("expected lo..hi in `{other}`"))?;
                let lo: f64 = lo.parse().map_err(|_| format!("bad number in `{other}`"))?;
                let hi: f64 = hi.parse().map_err(|_| format!("bad number in `{other}`"))?;
                if lo > hi {
                    return Err(format!("empty range in `{other}`: {lo} > {hi}"));
                }
                ranges.push((key.to_string(), lo, hi));
            }
            other => {
                if let Some(first) = path {
                    return Err(format!(
                        "certify: two input files (`{first}` and `{other}`)"
                    ));
                }
                path = Some(other);
            }
        }
    }
    let mut iface = load(path.ok_or_else(usage)?)?;
    match func {
        Some(f) => {
            iface.get_fn(f).map_err(|e| e.to_string())?;
            let mut spec = InputSpec::new();
            for (key, lo, hi) in &ranges {
                spec = spec.range(key.clone(), *lo, *hi);
            }
            iface.set_input_spec(f, spec);
        }
        None if !ranges.is_empty() => {
            return Err("certify: k=lo..hi ranges need --fn <name>".to_string());
        }
        None => {}
    }
    let cert = certify(&iface, &cal).map_err(|e| e.to_string())?;
    if cert.fns.is_empty() {
        return Err(
            "certify: nothing to certify — declare a domain with --fn f k=lo..hi \
             (only zero-parameter functions certify without one)"
                .to_string(),
        );
    }
    Ok(cert.to_canonical_json())
}

fn load(path: &str) -> Result<Interface, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&src).map_err(|e| format!("{path}: {e}"))
}

/// Parses `k=v` / `rec.field=v` argument bindings against `func`'s
/// parameter list, plus the `--seed` / `--samples` flags.
fn parse_args(
    iface: &Interface,
    func: &str,
    raw: &[String],
) -> Result<(Vec<Value>, u64, usize, Calibration), String> {
    let f = iface.get_fn(func).map_err(|e| e.to_string())?;
    let mut scalars: BTreeMap<String, f64> = BTreeMap::new();
    let mut records: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    let mut seed = 0u64;
    let mut samples = 10_000usize;
    let mut cal = Calibration::empty();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        if a == "--seed" {
            seed = it
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or("--seed needs a number")?;
            continue;
        }
        if a == "--samples" {
            samples = it
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or("--samples needs a number")?;
            continue;
        }
        if a == "--cal" {
            let spec = it.next().ok_or("--cal needs unit=joules")?;
            let (unit, j) = spec
                .split_once('=')
                .ok_or_else(|| format!("--cal expects unit=joules, got `{spec}`"))?;
            let j: f64 = j.parse().map_err(|_| format!("bad number in `{spec}`"))?;
            cal.set(unit, ei_core::units::Energy::joules(j));
            continue;
        }
        let (key, v) = a
            .split_once('=')
            .ok_or_else(|| format!("expected k=v, got `{a}`"))?;
        let v: f64 = v.parse().map_err(|_| format!("bad number in `{a}`"))?;
        match key.split_once('.') {
            Some((rec, field)) => {
                records
                    .entry(rec.to_string())
                    .or_default()
                    .insert(field.to_string(), v);
            }
            None => {
                scalars.insert(key.to_string(), v);
            }
        }
    }
    let mut vals = Vec::new();
    for p in &f.params {
        if let Some(v) = scalars.get(p) {
            vals.push(Value::Num(*v));
        } else if let Some(fields) = records.get(p) {
            vals.push(Value::num_record(
                fields.iter().map(|(k, v)| (k.clone(), *v)),
            ));
        } else {
            return Err(format!("missing argument for parameter `{p}` of `{func}`"));
        }
    }
    Ok((vals, seed, samples, cal))
}

fn usage() -> String {
    "usage: eic <check|lint|fmt|eval|paths|bound|certify> <file.eil> [fn] [args...]\n\
     \x20 lint args:        [--deny warnings] [--format json|text] [--cal unit=J]\n\
     \x20 eval/paths args:  name=3.5  req.size=64  [--seed N] [--samples N] [--cal unit=J]\n\
     \x20 bound args:       name=lo..hi  req.size=lo..hi\n\
     \x20 certify args:     [--fn f name=lo..hi...] [--cal unit=J]"
        .to_string()
}
