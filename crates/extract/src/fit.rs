//! Dense least-squares fitting (normal equations with Gaussian elimination).
//!
//! The extraction toolchain fits per-event energy coefficients from
//! microbenchmark measurements, and per-feature call-count models from
//! execution traces. The problems are tiny (≤ 10 unknowns), so a direct
//! normal-equations solve with partial pivoting and a ridge epsilon is
//! plenty — and avoids pulling a linear-algebra dependency.

use crate::error::{Error, Result};

/// Result of a linear fit `y ≈ X·β`.
#[derive(Debug, Clone)]
pub struct LinearFit {
    /// Fitted coefficients β.
    pub coefficients: Vec<f64>,
    /// Coefficient of determination on the training data.
    pub r_squared: f64,
    /// Root-mean-square residual.
    pub rmse: f64,
}

/// Solves `min_β ||X·β - y||²` (optionally with non-negativity clamping).
///
/// `rows` are the design-matrix rows; each must have the same length.
/// A small ridge term keeps near-collinear designs solvable.
// Index loops mirror the `a[i][j] = a[j][i]` symmetry of the normal matrix.
#[allow(clippy::needless_range_loop)]
pub fn least_squares(rows: &[Vec<f64>], y: &[f64]) -> Result<LinearFit> {
    let n = rows.len();
    if n == 0 || n != y.len() {
        return Err(Error::Fit {
            msg: "design matrix and target lengths differ or are empty".into(),
        });
    }
    let k = rows[0].len();
    if k == 0 || rows.iter().any(|r| r.len() != k) {
        return Err(Error::Fit {
            msg: "design matrix rows must be non-empty and uniform".into(),
        });
    }
    if n < k {
        return Err(Error::Fit {
            msg: format!("underdetermined fit: {n} rows for {k} unknowns"),
        });
    }

    // Column scaling for conditioning: work with X·D, recover β = D·β'.
    let mut scale = vec![0.0f64; k];
    for r in rows {
        for (j, v) in r.iter().enumerate() {
            scale[j] = scale[j].max(v.abs());
        }
    }
    for s in &mut scale {
        if *s == 0.0 {
            *s = 1.0;
        }
    }

    // Normal equations: A = Xᵀ X (scaled), b = Xᵀ y.
    let mut a = vec![vec![0.0f64; k]; k];
    let mut b = vec![0.0f64; k];
    for (r, yi) in rows.iter().zip(y) {
        for i in 0..k {
            let ri = r[i] / scale[i];
            b[i] += ri * yi;
            for j in i..k {
                a[i][j] += ri * r[j] / scale[j];
            }
        }
    }
    for i in 0..k {
        for j in 0..i {
            a[i][j] = a[j][i];
        }
        // Ridge epsilon relative to the diagonal magnitude.
        a[i][i] += 1e-12 * (1.0 + a[i][i]);
    }

    let beta_scaled = solve(a, b)?;
    let coefficients: Vec<f64> = beta_scaled
        .iter()
        .zip(&scale)
        .map(|(bj, sj)| bj / sj)
        .collect();

    // Fit quality.
    let mean_y: f64 = y.iter().sum::<f64>() / n as f64;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for (r, yi) in rows.iter().zip(y) {
        let pred: f64 = r.iter().zip(&coefficients).map(|(x, c)| x * c).sum();
        ss_res += (yi - pred) * (yi - pred);
        ss_tot += (yi - mean_y) * (yi - mean_y);
    }
    let r_squared = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else if ss_res < 1e-18 {
        1.0
    } else {
        0.0
    };
    Ok(LinearFit {
        coefficients,
        r_squared,
        rmse: (ss_res / n as f64).sqrt(),
    })
}

/// Gaussian elimination with partial pivoting.
// Row `r` is updated in terms of pivot row `col`; iterators would fight the
// simultaneous `&a[col]` read and `&mut a[r]` write.
#[allow(clippy::needless_range_loop)]
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Result<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let (pivot, pval) = (col..n)
            .map(|r| (r, a[r][col].abs()))
            .max_by(|x, y| x.1.partial_cmp(&y.1).unwrap_or(std::cmp::Ordering::Equal))
            .unwrap_or((col, 0.0));
        if pval < 1e-300 {
            return Err(Error::Fit {
                msg: "singular normal matrix (collinear design?)".into(),
            });
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        for r in col + 1..n {
            let f = a[r][col] / a[col][col];
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                a[r][c] -= f * a[col][c];
            }
            b[r] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0f64; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for c in row + 1..n {
            acc -= a[row][c] * x[c];
        }
        x[row] = acc / a[row][row];
    }
    Ok(x)
}

/// Predicts `X·β` for one row.
pub fn predict(row: &[f64], coefficients: &[f64]) -> f64 {
    row.iter().zip(coefficients).map(|(x, c)| x * c).sum()
}

/// Residual statistics of an *interface* (not the raw linear model) against
/// measured energies.
#[derive(Debug, Clone, PartialEq)]
pub struct InterfaceFitReport {
    /// Per-point relative errors `|pred - meas| / meas`.
    pub rel_errors: Vec<f64>,
    /// Mean relative error.
    pub mean_rel_error: f64,
    /// Maximum relative error.
    pub max_rel_error: f64,
    /// `eil-sema` diagnostics for the validated interface, rendered as
    /// text lines (empty when the interface lints clean).
    pub lint: Vec<String>,
    /// Sound certificate for the validated function over its *declared*
    /// input spec ([`ei_core::analysis::cert::certify_fn`]); `None` when
    /// the interface declares no spec for it.
    pub certificate: Option<ei_core::analysis::cert::FnCertificate>,
    /// Held-out measurements that escape the certified bound. Always `0`
    /// when `certificate` is `None`; for an in-spec validation set this
    /// catches fits whose emitted interface cannot explain what was
    /// actually measured.
    pub cert_violations: usize,
}

/// Validates an emitted interface against held-out measurements.
///
/// The extraction pipeline fits coefficients with [`least_squares`] and then
/// *emits an EIL interface*; rounding in emission, clamping of negative
/// coefficients, and timing terms all make the interface subtly different
/// from the raw linear model. This evaluates the interface itself on every
/// argument set — in a single [`evaluate_batch`] call — and reports the
/// residuals against `measured`.
///
/// [`evaluate_batch`]: ei_core::interp::evaluate_batch
pub fn validate_interface(
    iface: &ei_core::interface::Interface,
    func: &str,
    argsets: &[Vec<ei_core::Value>],
    measured: &[ei_core::Energy],
    config: &ei_core::interp::EvalConfig,
) -> Result<InterfaceFitReport> {
    use ei_core::interp::evaluate_batch;

    if argsets.len() != measured.len() {
        return Err(Error::Fit {
            msg: format!(
                "{} argument sets but {} measurements",
                argsets.len(),
                measured.len()
            ),
        });
    }
    if argsets.is_empty() {
        return Err(Error::Fit {
            msg: "validation set is empty".into(),
        });
    }
    let env = ei_core::ecv::EcvEnv::from_decls(&iface.ecvs);
    let predictions = evaluate_batch(iface, func, argsets, &env, 0, config)?;
    let rel_errors: Vec<f64> = predictions
        .iter()
        .zip(measured)
        .map(|(p, m)| {
            let m = m.as_joules();
            if m == 0.0 {
                if p.as_joules() == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (p.as_joules() - m).abs() / m
            }
        })
        .collect();
    let mean_rel_error = rel_errors.iter().sum::<f64>() / rel_errors.len() as f64;
    let max_rel_error = rel_errors.iter().cloned().fold(0.0, f64::max);
    let lint_opts = ei_core::sema::LintOptions::with_calibration(config.calibration.clone());
    let lint = ei_core::sema::check_with(iface, &lint_opts)
        .iter()
        .map(|d| d.text_line())
        .collect();
    // Certify against the declared domain when the emitter published one:
    // the fitted interface then carries a machine-checkable promise, and a
    // held-out measurement outside the certified bound means the fit (not
    // just one residual) is wrong.
    let certificate = iface
        .input_specs
        .get(func)
        .map(|spec| ei_core::analysis::cert::certify_fn(iface, func, spec, &config.calibration))
        .transpose()
        .map_err(|e| Error::Fit {
            msg: format!("fitted interface failed to certify: {e}"),
        })?;
    let cert_violations = certificate.as_ref().map_or(0, |c| {
        measured.iter().filter(|m| !c.bound.admits(**m)).count()
    });
    Ok(InterfaceFitReport {
        rel_errors,
        mean_rel_error,
        max_rel_error,
        lint,
        certificate,
        cert_violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn exact_affine_recovery() {
        // y = 3 + 2 x1 - 0.5 x2, noiseless.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            let x1 = i as f64;
            let x2 = (i * i) as f64 % 7.0;
            rows.push(vec![1.0, x1, x2]);
            y.push(3.0 + 2.0 * x1 - 0.5 * x2);
        }
        let fit = least_squares(&rows, &y).unwrap();
        assert!((fit.coefficients[0] - 3.0).abs() < 1e-6);
        assert!((fit.coefficients[1] - 2.0).abs() < 1e-6);
        assert!((fit.coefficients[2] + 0.5).abs() < 1e-6);
        assert!(fit.r_squared > 0.999999);
        assert!(fit.rmse < 1e-6);
    }

    #[test]
    fn noisy_recovery_close() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..200 {
            let x: f64 = rng.random::<f64>() * 100.0;
            let noise = 1.0 + 0.01 * (2.0 * rng.random::<f64>() - 1.0);
            rows.push(vec![1.0, x]);
            y.push((5.0 + 0.7 * x) * noise);
        }
        let fit = least_squares(&rows, &y).unwrap();
        assert!((fit.coefficients[1] - 0.7).abs() < 0.02);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn wildly_different_scales() {
        // Columns at 1e12 and 1e-3 scales (instructions vs seconds).
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 1..30 {
            let instr = i as f64 * 1e9;
            let secs = i as f64 * 1e-4 + ((i % 3) as f64) * 1e-4;
            rows.push(vec![instr, secs]);
            y.push(14e-12 * instr + 58.0 * secs);
        }
        let fit = least_squares(&rows, &y).unwrap();
        assert!((fit.coefficients[0] / 14e-12 - 1.0).abs() < 1e-6);
        assert!((fit.coefficients[1] / 58.0 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn error_cases() {
        assert!(least_squares(&[], &[]).is_err());
        assert!(least_squares(&[vec![1.0]], &[1.0, 2.0]).is_err());
        assert!(least_squares(&[vec![1.0], vec![]], &[1.0, 2.0]).is_err());
        // Underdetermined.
        assert!(least_squares(&[vec![1.0, 2.0]], &[1.0]).is_err());
        // Perfectly collinear columns still solve via ridge (tiny norm check
        // only that it does not panic).
        let rows = vec![vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]];
        let y = vec![2.0, 4.0, 6.0];
        let fit = least_squares(&rows, &y);
        assert!(fit.is_ok());
    }

    #[test]
    fn predict_row() {
        assert_eq!(predict(&[2.0, 3.0], &[10.0, 1.0]), 23.0);
    }
}
