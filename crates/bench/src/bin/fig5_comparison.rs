//! Regenerates Fig. 5 of the paper:
//!
//! * (a) number of calls to each stage and the total running time of QuHE,
//! * (b) running time of the Stage-1 methods (QuHE, gradient descent,
//!   simulated annealing, random selection),
//! * (c) Stage-1 objective value achieved by each method,
//! * (d) whole-procedure comparison of AA / OLAA / OCCR / QuHE on energy,
//!   delay, the security utility and the overall objective.
//!
//! Every whole-procedure method is a registered [`Solver`]; (d) simply
//! iterates the registry, so a custom registered solver would appear as an
//! extra row.
//!
//! ```bash
//! cargo run --release -p quhe-bench --bin fig5_comparison
//! ```

use quhe_bench::{
    default_scenario, display_name, env_u64, experiment_config, fmt, fmt_sci, print_header,
    print_row, solver_registry,
};
use quhe_core::prelude::*;
use rand::SeedableRng;

fn main() {
    let scenario = default_scenario();
    let config = experiment_config();
    let registry = solver_registry();
    let problem = Problem::new(scenario.clone(), config).expect("valid configuration");
    let mut rng = rand::rngs::StdRng::seed_from_u64(env_u64("QUHE_SEED", 42));

    // ------------------------------------------------------------ Fig 5(a) --
    let quhe = registry
        .solve("quhe", &scenario, &SolveSpec::cold())
        .expect("QuHE solves");
    println!("Fig. 5(a): stage calls and running time of the QuHE method\n");
    let widths = [10, 10];
    print_header(&["Quantity", "Value"], &widths);
    print_row(
        &["S1 calls".to_string(), quhe.stage_calls[0].to_string()],
        &widths,
    );
    print_row(
        &["S2 calls".to_string(), quhe.stage_calls[1].to_string()],
        &widths,
    );
    print_row(
        &["S3 calls".to_string(), quhe.stage_calls[2].to_string()],
        &widths,
    );
    print_row(
        &["Runtime".to_string(), format!("{:.2} s", quhe.runtime_s)],
        &widths,
    );
    println!("(paper: one call per stage, 1.5 s total)\n");

    // ------------------------------------------------- Fig 5(b) and 5(c) --
    let stage1 = Stage1Solver::new().solve(&problem).expect("stage 1 solves");
    let gd = stage1_gradient_descent(&problem).expect("gradient descent runs");
    let sa = stage1_simulated_annealing(&problem, &mut rng).expect("simulated annealing runs");
    let rs = stage1_random_selection(&problem, &mut rng).expect("random selection runs");

    println!("Fig. 5(b)/(c): Stage-1 methods — running time and objective value\n");
    let widths = [22, 12, 18];
    print_header(&["Method", "Time (s)", "P3 objective"], &widths);
    print_row(
        &[
            "QuHE Stage 1".to_string(),
            fmt(stage1.runtime_s, 3),
            fmt(stage1.objective, 4),
        ],
        &widths,
    );
    for report in [&gd, &sa, &rs] {
        let telemetry = report.stage1.as_ref().expect("stage-1 telemetry");
        print_row(
            &[
                report.solver.clone(),
                fmt(telemetry.runtime_s, 3),
                fmt(telemetry.objective, 4),
            ],
            &widths,
        );
    }
    println!("(paper: QuHE 0.09 s, GD 5.84 s, SA 4.17 s, RS 0.05 s; QuHE and GD reach the same optimum)\n");

    // ------------------------------------------------------------ Fig 5(d) --
    println!("Fig. 5(d): whole-procedure comparison (energy, delay, U_msl, objective)\n");
    let widths = [6, 14, 14, 10, 12];
    print_header(
        &["Method", "Energy (J)", "Delay (s)", "U_msl", "Objective"],
        &widths,
    );
    for solver in registry.iter() {
        let report = if solver.name() == "quhe" {
            quhe.clone()
        } else {
            solver
                .solve(&scenario, &SolveSpec::cold())
                .unwrap_or_else(|e| panic!("{} runs: {e}", solver.name()))
        };
        print_row(
            &[
                display_name(solver.name()).to_string(),
                fmt_sci(report.metrics.energy_j),
                fmt_sci(report.metrics.delay_s),
                fmt(report.metrics.security_utility, 3),
                fmt(report.metrics.objective, 4),
            ],
            &widths,
        );
    }
    println!(
        "\n(paper shape: QuHE/OCCR best on energy, QuHE/OLAA best on U_msl, QuHE best objective)"
    );

    // -------------------------------------------- security-weight ablation --
    // With the paper's stated constants the computation-energy penalty of a
    // larger polynomial degree always outweighs the (alpha_msl = 1e-2)
    // security gain, so every method settles on lambda = 2^15 and QuHE ties
    // OCCR. Raising the security weight moves the
    // crossover and recovers the full Fig. 5(d) ordering, which this ablation
    // demonstrates.
    let mut emphasized = config;
    emphasized.weights.security = 0.1;
    println!("\nAblation: same comparison with alpha_msl raised to 0.1\n");
    let widths = [6, 14, 14, 10, 12, 16];
    print_header(
        &[
            "Method",
            "Energy (J)",
            "Delay (s)",
            "U_msl",
            "Objective",
            "lambda choices",
        ],
        &widths,
    );
    for solver in registry.iter() {
        let report = solver
            .with_config(emphasized)
            .solve(&scenario, &SolveSpec::cold())
            .unwrap_or_else(|e| panic!("{} runs: {e}", solver.name()));
        let degrees: Vec<u32> = report
            .variables
            .lambda
            .iter()
            .map(|l| l.trailing_zeros())
            .collect();
        print_row(
            &[
                display_name(solver.name()).to_string(),
                fmt_sci(report.metrics.energy_j),
                fmt_sci(report.metrics.delay_s),
                fmt(report.metrics.security_utility, 3),
                fmt(report.metrics.objective, 4),
                format!("2^{degrees:?}"),
            ],
            &widths,
        );
    }
}
