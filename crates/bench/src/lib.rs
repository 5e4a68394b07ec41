//! # quhe-bench — experiment harness for the QuHE reproduction
//!
//! One binary per table/figure of the paper's evaluation section
//! (Section VI), plus Criterion micro-benchmarks of the stages and the
//! substrates. The table below is the experiment index.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `tables_3_4` | Tables III and IV (scenario inputs) |
//! | `fig3_optimality` | Fig. 3(a)(b): optimality over random initializations |
//! | `fig4_convergence` | Fig. 4(a)–(d): per-stage convergence and duality gap |
//! | `fig5_comparison` | Fig. 5(a)–(d): stage calls/runtime, Stage-1 methods, whole-procedure comparison |
//! | `tables_5_6` | Tables V and VI: per-method `phi` and `w` values |
//! | `fig6_sweeps` | Fig. 6(a)–(d): objective vs. resource budgets |
//! | `bench_seed` | `BENCH_seed.json`: single-scenario perf record |
//! | `stage_bench` | `BENCH_stage.json`: per-stage + per-primitive cold-path timings |
//! | `batch_eval` | `BENCH_batch.json`: scenario-catalogue grid, serial vs parallel |
//! | `online_eval` | `BENCH_online.json`: dynamic traces, warm-started tracking vs cold re-solving |
//! | `serve_bench` | `BENCH_serve.json`: solve-service request streams, cache hit/warm/cold split, latency percentiles |
//!
//! Every binary accepts the environment variables `QUHE_SEED` (default 42)
//! and, where relevant, `QUHE_SAMPLES` / `QUHE_POINTS`, so that quick smoke
//! runs and full paper-scale runs use the same code path. Every solving
//! binary routes through the unified [`Solver`] surface: the solver under
//! test is looked up in [`SolverRegistry`] (select it with `--solver NAME`
//! or `QUHE_SOLVER`, default `quhe`) and all JSON artifacts flow through the
//! shared [`report`] writer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

use quhe_core::prelude::*;

/// Reads an environment variable as `usize`, with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads an environment variable as `f64`, with a default.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads an environment variable as `u64`, with a default.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The default scenario every experiment binary starts from (seed taken from
/// `QUHE_SEED`, default 42).
pub fn default_scenario() -> SystemScenario {
    SystemScenario::paper_default(env_u64("QUHE_SEED", 42))
}

/// The configuration used by the experiment binaries: the paper's weights and
/// tolerance, with iteration budgets suited to repeated full runs.
pub fn experiment_config() -> QuheConfig {
    QuheConfig {
        max_outer_iterations: env_usize("QUHE_OUTER_ITERS", 5),
        max_stage3_iterations: env_usize("QUHE_STAGE3_ITERS", 20),
        ..QuheConfig::default()
    }
}

/// The built-in solver registry under [`experiment_config`] — the solvers
/// every experiment binary draws from.
pub fn solver_registry() -> SolverRegistry {
    SolverRegistry::builtin_with(experiment_config())
}

/// The solver name selected for this run: the value after a `--solver` flag,
/// else `QUHE_SOLVER`, else `"quhe"`.
pub fn selected_solver_name(args: &[String]) -> String {
    args.iter()
        .position(|a| a == "--solver")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .or_else(|| std::env::var("QUHE_SOLVER").ok())
        .unwrap_or_else(|| "quhe".to_string())
}

/// The output path of a report-emitting binary: the first free argument —
/// skipping flags and the value consumed by `--solver` — or `default`.
pub fn output_path(args: &[String], default: &str) -> String {
    args.iter()
        .enumerate()
        .find(|(i, a)| !a.starts_with("--") && (*i == 0 || args[*i - 1] != "--solver"))
        .map(|(_, a)| a.clone())
        .unwrap_or_else(|| default.to_string())
}

/// The human-facing label of a built-in solver name (the paper's method
/// names); unknown names pass through unchanged.
pub fn display_name(solver: &str) -> &str {
    match solver {
        "quhe" => "QuHE",
        "aa" => "AA",
        "olaa" => "OLAA",
        "occr" => "OCCR",
        other => other,
    }
}

/// Prints a Markdown-style table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let formatted: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = *w))
        .collect();
    println!("| {} |", formatted.join(" | "));
}

/// Prints a table header followed by a separator row.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|c| c.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let separator: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    print_row(&separator, widths);
}

/// Formats a float with the given number of significant decimals.
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Formats a float in scientific notation.
pub fn fmt_sci(value: f64) -> String {
    format!("{value:.3e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_falls_back_to_defaults() {
        assert_eq!(env_usize("QUHE_THIS_VARIABLE_DOES_NOT_EXIST", 7), 7);
        assert_eq!(env_u64("QUHE_THIS_VARIABLE_DOES_NOT_EXIST", 9), 9);
    }

    #[test]
    fn default_scenario_and_config_are_valid() {
        let scenario = default_scenario();
        assert_eq!(scenario.num_clients(), 6);
        assert!(experiment_config().validate().is_ok());
    }

    #[test]
    fn formatting_helpers_produce_expected_shapes() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert!(fmt_sci(12345.0).contains('e'));
    }

    #[test]
    fn solver_selection_prefers_the_flag_and_defaults_to_quhe() {
        let args: Vec<String> = ["--quick", "--solver", "olaa"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(selected_solver_name(&args), "olaa");
        assert_eq!(selected_solver_name(&[]), "quhe");
        assert_eq!(output_path(&args, "out.json"), "out.json");
        let args: Vec<String> = ["--solver", "occr", "custom.json", "--quick"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(output_path(&args, "out.json"), "custom.json");
        assert_eq!(
            solver_registry().names(),
            vec!["quhe", "aa", "olaa", "occr"]
        );
        assert_eq!(display_name("quhe"), "QuHE");
        assert_eq!(display_name("custom"), "custom");
    }
}
