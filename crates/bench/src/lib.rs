//! Shared harness utilities for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper; see `DESIGN.md` for the experiment index. This library holds
//! the small shared pieces: flag parsing, series formatting, and the
//! workload generators used by more than one experiment, plus the
//! resilience campaigns ([`fault_campaign`], [`scrub_campaign`]) whose
//! `--smoke` gates the crate's tests also run.

pub mod fault_campaign;
pub mod scrub_campaign;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use resipe_analog::units::{Seconds, Siemens};

/// Minimal `--flag value` / `--switch` parser over `std::env::args`.
///
/// ```
/// use resipe_bench::Args;
/// let args = Args::from_iter(["prog", "--trials", "5", "--quick"]);
/// assert_eq!(args.value_of("trials"), Some("5"));
/// assert!(args.has("quick"));
/// assert!(!args.has("verbose"));
/// assert_eq!(args.usize_of("trials", 1), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    tokens: Vec<String>,
}

impl Args {
    /// Parses the process arguments.
    pub fn from_env() -> Args {
        Args {
            tokens: std::env::args().skip(1).collect(),
        }
    }

    /// Parses an explicit token list (the first token is skipped as the
    /// program name).
    #[allow(clippy::should_implement_trait)] // deliberate constructor name
    pub fn from_iter<I, S>(iter: I) -> Args
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Args {
            tokens: iter.into_iter().map(Into::into).skip(1).collect(),
        }
    }

    /// `true` if `--name` appears.
    pub fn has(&self, name: &str) -> bool {
        self.tokens.iter().any(|t| t == &format!("--{name}"))
    }

    /// The value following `--name`, if any.
    pub fn value_of(&self, name: &str) -> Option<&str> {
        let flag = format!("--{name}");
        self.tokens
            .windows(2)
            .find(|w| w[0] == flag)
            .map(|w| w[1].as_str())
    }

    /// Parses the value of `--name` as usize, with a default.
    pub fn usize_of(&self, name: &str, default: usize) -> usize {
        self.value_of(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Parses the value of `--name` as f64, with a default.
    pub fn f64_of(&self, name: &str, default: f64) -> f64 {
        self.value_of(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

/// One random Fig. 5 sample: a 32-cell column with random conductances
/// scaled to a target total, and random input spike times.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Sample {
    /// Input spike times.
    pub t_in: Vec<Seconds>,
    /// Cell conductances.
    pub g: Vec<Siemens>,
    /// The total column conductance.
    pub g_total: Siemens,
    /// The x-axis "input strength": `Σ t_in,i · G_i` (in s·S).
    pub strength: f64,
}

/// Draws `n` Fig. 5 samples: total G uniform in
/// `[g_total_min, g_total_max]`, per-cell shares Dirichlet-like, input
/// times uniform in `[t_min, t_max]` — matching the paper's "100 random
/// sample points with different t_in and G", ΣG ∈ 0.32–3.2 mS,
/// t_in ∈ 10–80 ns.
///
/// # Panics
///
/// Panics if `rows` is zero or ranges are inverted.
pub fn fig5_samples(
    n: usize,
    rows: usize,
    g_total_range: (Siemens, Siemens),
    t_range: (Seconds, Seconds),
    seed: u64,
) -> Vec<Fig5Sample> {
    assert!(rows > 0, "rows must be nonzero");
    assert!(g_total_range.0 .0 <= g_total_range.1 .0, "inverted G range");
    assert!(t_range.0 .0 <= t_range.1 .0, "inverted t range");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let g_total = rng.gen_range(g_total_range.0 .0..=g_total_range.1 .0);
            // Random positive shares normalized to the target total.
            let shares: Vec<f64> = (0..rows).map(|_| rng.gen_range(0.05..1.0)).collect();
            let sum: f64 = shares.iter().sum();
            let g: Vec<Siemens> = shares.iter().map(|s| Siemens(s / sum * g_total)).collect();
            let t_in: Vec<Seconds> = (0..rows)
                .map(|_| Seconds(rng.gen_range(t_range.0 .0..=t_range.1 .0)))
                .collect();
            let strength = t_in.iter().zip(&g).map(|(t, gi)| t.0 * gi.0).sum();
            Fig5Sample {
                t_in,
                g,
                g_total: Siemens(g_total),
                strength,
            }
        })
        .collect()
}

/// Ordinary least-squares slope of `y = k·x` through the origin.
///
/// Returns `None` for empty or all-zero inputs.
pub fn fit_slope(points: &[(f64, f64)]) -> Option<f64> {
    let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
    if points.is_empty() || sxx == 0.0 {
        return None;
    }
    let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
    Some(sxy / sxx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parsing() {
        let a = Args::from_iter(["p", "--n", "7", "--flag", "--x", "2.5"]);
        assert_eq!(a.usize_of("n", 0), 7);
        assert!(a.has("flag"));
        assert!(!a.has("other"));
        assert_eq!(a.f64_of("x", 0.0), 2.5);
        assert_eq!(a.f64_of("missing", 1.5), 1.5);
        assert_eq!(a.value_of("missing"), None);
    }

    #[test]
    fn fig5_sample_invariants() {
        let samples = fig5_samples(
            50,
            32,
            (Siemens(0.32e-3), Siemens(3.2e-3)),
            (Seconds(10e-9), Seconds(80e-9)),
            42,
        );
        assert_eq!(samples.len(), 50);
        for s in &samples {
            assert_eq!(s.t_in.len(), 32);
            assert_eq!(s.g.len(), 32);
            let total: f64 = s.g.iter().map(|g| g.0).sum();
            assert!((total - s.g_total.0).abs() / s.g_total.0 < 1e-9);
            assert!(s.g_total.0 >= 0.32e-3 && s.g_total.0 <= 3.2e-3);
            for t in &s.t_in {
                assert!(t.0 >= 10e-9 && t.0 <= 80e-9);
            }
            assert!(s.strength > 0.0);
        }
    }

    #[test]
    fn fig5_samples_deterministic() {
        let a = fig5_samples(
            5,
            4,
            (Siemens(1e-4), Siemens(1e-3)),
            (Seconds(1e-9), Seconds(8e-8)),
            1,
        );
        let b = fig5_samples(
            5,
            4,
            (Siemens(1e-4), Siemens(1e-3)),
            (Seconds(1e-9), Seconds(8e-8)),
            1,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn slope_fit() {
        let pts: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, 3.0 * i as f64)).collect();
        let k = fit_slope(&pts).unwrap();
        assert!((k - 3.0).abs() < 1e-12);
        assert!(fit_slope(&[]).is_none());
        assert!(fit_slope(&[(0.0, 1.0)]).is_none());
    }
}
