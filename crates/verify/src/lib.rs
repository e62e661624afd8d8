//! Differential oracle harness for the second-order MRM solvers.
//!
//! The harness generates seeded random models across eight structural
//! families ([`case::Family`]), solves each with every backend the
//! workspace ships — randomization in CSR and DIA storage, serial and
//! pooled; the first-order closed path; the explicit-ODE reference; and
//! Monte-Carlo simulation — and asserts pairwise agreement within
//! tolerances *earned* from each method's own error bounds
//! ([`oracle`]). A failing case is shrunk to a minimal reproducer
//! ([`shrink`](mod@shrink)) and emitted as a standalone JSON file meant to be
//! checked in under `tests/regressions/`.
//!
//! Three entry points share this engine:
//!
//! - `somrm-tool verify --cases N --seed S` (CLI),
//! - the `verify_smoke` workspace test (small population, every push),
//! - the `#[ignore]`d deep tier (large population, dedicated CI job).

pub mod case;
pub mod generate;
pub mod oracle;
pub mod shrink;

pub use case::{Family, VerifyCase};
pub use generate::{random_case, GenConfig};
pub use oracle::{check_case, CaseStats, OracleConfig, Violation};
pub use shrink::{shrink, Shrunk};

use generate::case_rng;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Options of one verification run.
#[derive(Debug, Clone)]
pub struct VerifyOpts {
    /// Number of generated cases.
    pub cases: u64,
    /// Base seed; case `i` derives its stream from `(seed, i)`.
    pub seed: u64,
    /// Model-population bounds.
    pub gen: GenConfig,
    /// Oracle tolerances and budgets.
    pub oracle: OracleConfig,
    /// Where to write shrunken reproducers (`None` = don't write).
    pub out_dir: Option<PathBuf>,
}

impl Default for VerifyOpts {
    fn default() -> Self {
        VerifyOpts {
            cases: 200,
            seed: 0,
            gen: GenConfig::default(),
            oracle: OracleConfig::default(),
            out_dir: None,
        }
    }
}

impl VerifyOpts {
    /// The fast preset used by the `cargo test` smoke tier: a small
    /// population with tight compute budgets so it stays debug-fast.
    pub fn smoke(cases: u64, seed: u64) -> Self {
        VerifyOpts {
            cases,
            seed,
            gen: GenConfig::smoke(),
            oracle: OracleConfig::smoke(),
            out_dir: None,
        }
    }
}

/// One case that violated the oracle, after shrinking.
#[derive(Debug, Clone)]
pub struct FailedCase {
    /// Index of the generated case (replay with `(seed, index)`).
    pub index: u64,
    /// State count of the case as generated (before shrinking).
    pub original_states: usize,
    /// The *original* (pre-shrink) violation.
    pub original: Violation,
    /// The shrunken reproducer and its violation.
    pub shrunk: Shrunk,
    /// Path the reproducer was written to, when `out_dir` was set.
    pub written_to: Option<PathBuf>,
}

/// Aggregate result of a verification run.
#[derive(Debug, Clone, Default)]
pub struct VerifySummary {
    /// Cases generated and checked.
    pub cases_run: u64,
    /// Cases per family name (insertion-ordered by first occurrence).
    pub family_counts: Vec<(String, u64)>,
    /// How many cases each optional cross-check actually covered.
    pub dia_checked: u64,
    /// See [`VerifySummary::dia_checked`].
    pub pool_checked: u64,
    /// See [`VerifySummary::dia_checked`].
    pub plan_checked: u64,
    /// See [`VerifySummary::dia_checked`].
    pub weighted_checked: u64,
    /// See [`VerifySummary::dia_checked`].
    pub first_order_checked: u64,
    /// See [`VerifySummary::dia_checked`].
    pub ode_checked: u64,
    /// See [`VerifySummary::dia_checked`].
    pub sim_checked: u64,
    /// Every oracle violation, shrunk.
    pub violations: Vec<FailedCase>,
}

impl VerifySummary {
    /// `true` when no case violated the oracle.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable report (the CLI's output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "verification: {} cases", self.cases_run);
        for (family, count) in &self.family_counts {
            let _ = writeln!(out, "  family {family:<12} {count}");
        }
        let _ = writeln!(
            out,
            "checks: dia {} | pool {} | plan {} | weighted {} | first-order {} | ode {} | sim {}",
            self.dia_checked,
            self.pool_checked,
            self.plan_checked,
            self.weighted_checked,
            self.first_order_checked,
            self.ode_checked,
            self.sim_checked
        );
        if self.passed() {
            let _ = writeln!(out, "result: PASS (0 violations)");
        } else {
            let _ = writeln!(out, "result: FAIL ({} violations)", self.violations.len());
            for f in &self.violations {
                let _ = writeln!(
                    out,
                    "  case {} ({} -> {} states after {} reductions): {}",
                    f.index,
                    f.original_states,
                    f.shrunk.case.n_states,
                    f.shrunk.reductions,
                    f.shrunk.violation
                );
                if let Some(path) = &f.written_to {
                    let _ = writeln!(out, "    reproducer: {}", path.display());
                }
            }
        }
        out
    }
}

fn bump(counts: &mut Vec<(String, u64)>, family: &str) {
    if let Some(entry) = counts.iter_mut().find(|(name, _)| name == family) {
        entry.1 += 1;
    } else {
        counts.push((family.to_string(), 1));
    }
}

/// Runs the differential oracle over `opts.cases` generated cases.
///
/// Never panics on a violating case: failures are shrunk, optionally
/// written to `opts.out_dir`, and collected in the summary. I/O errors
/// while writing reproducers are reported in the violation detail
/// rather than aborting the run.
pub fn run_verification(opts: &VerifyOpts) -> VerifySummary {
    let mut summary = VerifySummary::default();
    for index in 0..opts.cases {
        let case = random_case(opts.seed, index, &opts.gen);
        bump(&mut summary.family_counts, case.family.name());
        summary.cases_run += 1;
        let mut rng = case_rng(opts.seed ^ 0x5151_5151, index);
        match check_case(&case, &opts.oracle, &mut rng) {
            Ok(stats) => {
                summary.dia_checked += u64::from(stats.dia_checked);
                summary.pool_checked += u64::from(stats.pool_checked);
                summary.plan_checked += u64::from(stats.plan_checked);
                summary.weighted_checked += u64::from(stats.weighted_checked);
                summary.first_order_checked += u64::from(stats.first_order_checked);
                summary.ode_checked += u64::from(stats.ode_checked);
                summary.sim_checked += u64::from(stats.sim_checked);
            }
            Err(violation) => {
                // Shrinking replays the oracle many times on reduced
                // cases; detach the recorder so its counters keep
                // meaning "top-level cases checked".
                let shrink_cfg = OracleConfig {
                    recorder: somrm_obs::RecorderHandle::disabled(),
                    ..opts.oracle.clone()
                };
                let shrunk = shrink(&case, violation.clone(), &shrink_cfg);
                let written_to = opts.out_dir.as_ref().and_then(|dir| {
                    let path = dir.join(format!(
                        "seed{}-case{}-{}.json",
                        opts.seed, index, shrunk.case.family
                    ));
                    match std::fs::create_dir_all(dir)
                        .and_then(|()| std::fs::write(&path, shrunk.case.to_json()))
                    {
                        Ok(()) => Some(path),
                        Err(_) => None,
                    }
                });
                summary.violations.push(FailedCase {
                    index,
                    original_states: case.n_states,
                    original: violation,
                    shrunk,
                    written_to,
                });
            }
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_passes_and_counts_checks() {
        let opts = VerifyOpts::smoke(16, 42);
        let summary = run_verification(&opts);
        assert!(
            summary.passed(),
            "unexpected violations:\n{}",
            summary.render()
        );
        assert_eq!(summary.cases_run, 16);
        // 16 cases rotate through all 8 families twice.
        assert_eq!(summary.family_counts.len(), 8);
        assert!(summary.family_counts.iter().all(|&(_, c)| c == 2));
        assert_eq!(summary.dia_checked, 16);
        assert_eq!(summary.pool_checked, 16);
        assert_eq!(summary.plan_checked, 16);
        assert_eq!(summary.weighted_checked, 16);
        assert!(summary.first_order_checked >= 2, "first-order family ran");
        assert!(summary.render().contains("PASS"));
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        let a = run_verification(&VerifyOpts::smoke(8, 7));
        let b = run_verification(&VerifyOpts::smoke(8, 7));
        assert_eq!(a.family_counts, b.family_counts);
        assert_eq!(a.sim_checked, b.sim_checked);
        assert_eq!(a.violations.len(), b.violations.len());
    }
}
