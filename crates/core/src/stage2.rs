//! Stage 2 of the QuHE algorithm: CKKS polynomial degrees (Algorithm 2 of
//! the paper), solved exactly by a sweep over the delay threshold.
//!
//! With `(phi, w)` and the communication/computation resources fixed, the
//! objective of problem P1 depends on the discrete degrees `lambda` through
//! the security utility `U_msl`, the server computation energy, and the
//! system delay `T` (whose optimal value, Eq. 21/23, is the largest per-client
//! end-to-end delay). Tabulating client `n` at choice `m` as a gain
//! `g[n][m]` and a delay `d[n][m]`, Stage 2 maximizes (Eq. 22)
//!
//! ```text
//! F(m) = C + sum_n g[n][m_n] - alpha_t * max_n d[n][m_n]
//! ```
//!
//! over `{1, …, M}^N`. The paper searches this set with branch-and-bound;
//! here it is solved exactly in `O(NM log NM + K N)` time, `K <= NM` the
//! number of assignments evaluated, by sweeping a delay threshold `T`
//! upward over the `N·M` candidate delays:
//!
//! 1. sort the candidates `(d[n][m], n, m)` by delay (then client, then
//!    choice, so the order is total and deterministic);
//! 2. at each threshold, every client holds its best-gain choice among those
//!    with `d <= T` (a choice is replaced only on a strictly greater gain);
//! 3. once every client holds a choice, each changed assignment is evaluated
//!    with the same `objective()` summation the exhaustive reference uses,
//!    and kept if strictly better than the best so far.
//!
//! **Exactness.** Let `m*` be an optimal assignment and `T*` its largest
//! delay. At threshold `T*` every choice of `m*` is available, so the swept
//! assignment `m` has `g[n][m_n] >= g[n][m*_n]` for every client and
//! `max_n d[n][m_n] <= T*`. The weight `alpha_t` is non-negative
//! ([`crate::params::ObjectiveWeights::validate`]), and rounded addition,
//! subtraction and multiplication are monotone, so the evaluated `F(m)` is
//! at least `F(m*)` bit for bit: the sweep's best is an optimum. The trace
//! of strict improvements reproduces the paper's Fig. 4(b) convergence
//! plot; there is no node budget, so no call can fail for lack of one.

use std::time::Instant;

use quhe_crypto::cost_model::min_security_level;
use quhe_opt::OptError;

use crate::error::QuheResult;
use crate::problem::Problem;
use crate::variables::DecisionVariables;

/// Result of Stage 2.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Stage2Result {
    /// Optimal polynomial degree per client.
    pub lambda: Vec<u64>,
    /// The delay bound `T*_s2` implied by the chosen degrees (Eq. 23): the
    /// largest per-client end-to-end delay.
    pub delay_bound: f64,
    /// The Stage-2 objective `F_s2(lambda*)` (Eq. 22).
    pub objective: f64,
    /// Best objective after each strict improvement found by the search
    /// (reproduces the paper's Fig. 4(b)).
    pub trace: Vec<f64>,
    /// Search steps: delay thresholds swept (at most `N·M`), or assignments
    /// enumerated by [`Stage2Solver::solve_exhaustive`].
    pub nodes_expanded: usize,
    /// Number of complete assignments evaluated.
    pub leaves_evaluated: usize,
    /// Wall-clock runtime in seconds.
    pub runtime_s: f64,
}

/// Precomputed per-client tables for the Stage-2 search.
struct Stage2Tables {
    /// `g[n][m]`: the lambda-dependent, delay-independent part of the
    /// objective for client `n` at choice `m`
    /// (`alpha_msl varsigma_n f_msl - alpha_e E^(cmp)`).
    gains: Vec<Vec<f64>>,
    /// `d[n][m]`: the end-to-end delay of client `n` at choice `m`.
    delays: Vec<Vec<f64>>,
    /// The lambda-independent part of the objective
    /// (`alpha_qkd U_qkd - alpha_e (E^(enc) + E^(tr))`).
    constant: f64,
    /// Weight of the delay term.
    alpha_t: f64,
    /// The discrete degree choices.
    choices: Vec<u64>,
}

impl Stage2Tables {
    fn build(problem: &Problem, vars: &DecisionVariables) -> QuheResult<Self> {
        let choices = problem.scenario().lambda_choices().to_vec();
        let weights = problem.config().weights;
        let n_clients = problem.num_clients();
        let privacy = problem.scenario().mec().privacy_weights();

        let mut gains = vec![vec![0.0; choices.len()]; n_clients];
        let mut delays = vec![vec![0.0; choices.len()]; n_clients];
        let mut lambda_independent_energy = 0.0;
        let mut probe = vars.clone();
        for n in 0..n_clients {
            // The encryption and transmission parts do not depend on lambda.
            probe.lambda[n] = choices[0];
            let base = problem.client_cost(&probe, n)?;
            lambda_independent_energy += base.encryption_energy_j + base.transmission_energy_j;
            for (m, &lambda) in choices.iter().enumerate() {
                probe.lambda[n] = lambda;
                let cost = problem.client_cost(&probe, n)?;
                gains[n][m] = weights.security * privacy[n] * min_security_level(lambda as f64)
                    - weights.energy * cost.computation_energy_j;
                delays[n][m] = cost.total_delay_s();
            }
            probe.lambda[n] = vars.lambda[n];
        }
        let constant = weights.qkd_utility * problem.qkd_utility(vars)?
            - weights.energy * lambda_independent_energy;
        Ok(Self {
            gains,
            delays,
            constant,
            alpha_t: weights.delay,
            choices,
        })
    }

    fn objective(&self, assignment: &[usize]) -> f64 {
        let gain: f64 = assignment
            .iter()
            .enumerate()
            .map(|(n, &m)| self.gains[n][m])
            .sum();
        let delay = assignment
            .iter()
            .enumerate()
            .map(|(n, &m)| self.delays[n][m])
            .fold(0.0_f64, f64::max);
        self.constant + gain - self.alpha_t * delay
    }
}

/// Outcome of a search over the Stage-2 tables.
struct Search {
    /// The best assignment found (choice index per client).
    assignment: Vec<usize>,
    /// [`Stage2Tables::objective`] of [`Search::assignment`].
    objective: f64,
    /// The objective after each strict improvement, in order.
    trace: Vec<f64>,
    /// Search steps taken (thresholds swept, or leaves enumerated).
    nodes_expanded: usize,
    /// Complete assignments evaluated.
    leaves_evaluated: usize,
}

impl Search {
    fn new() -> Self {
        Self {
            assignment: Vec::new(),
            objective: f64::NEG_INFINITY,
            trace: Vec::new(),
            nodes_expanded: 0,
            leaves_evaluated: 0,
        }
    }

    /// Evaluates `assignment` and keeps it if it strictly improves on the
    /// best so far.
    fn offer(&mut self, tables: &Stage2Tables, assignment: &[usize]) {
        let value = tables.objective(assignment);
        self.leaves_evaluated += 1;
        if value > self.objective {
            self.objective = value;
            self.assignment.clear();
            self.assignment.extend_from_slice(assignment);
            self.trace.push(value);
        }
    }
}

impl Stage2Tables {
    /// The exact delay-threshold sweep (see the module docs).
    fn sweep(&self) -> Search {
        let n_clients = self.gains.len();
        let mut candidates: Vec<(f64, usize, usize)> = self
            .delays
            .iter()
            .enumerate()
            .flat_map(|(n, row)| row.iter().enumerate().map(move |(m, &d)| (d, n, m)))
            .collect();
        candidates
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

        let mut assignment = vec![UNCOVERED; n_clients];
        let mut covered = 0;
        let mut changed = false;
        let mut search = Search::new();
        for (i, &(delay, n, m)) in candidates.iter().enumerate() {
            let current = assignment[n];
            if current == UNCOVERED {
                covered += 1;
                assignment[n] = m;
                changed = true;
            } else if self.gains[n][m] > self.gains[n][current] {
                assignment[n] = m;
                changed = true;
            }
            // Evaluate once per distinct threshold, after all its candidates.
            let threshold_ends = candidates
                .get(i + 1)
                .is_none_or(|next| next.0.total_cmp(&delay).is_ne());
            if threshold_ends {
                search.nodes_expanded += 1;
                if changed && covered == n_clients {
                    search.offer(self, &assignment);
                    changed = false;
                }
            }
        }
        search
    }

    /// Enumerates all `M^N` assignments in odometer order (the last client
    /// turns fastest). The reference the sweep is tested against.
    fn exhaustive(&self) -> Search {
        let n_choices = self.choices.len();
        let mut assignment = vec![0usize; self.gains.len()];
        let mut search = Search::new();
        loop {
            search.offer(self, &assignment);
            let Some(pos) = assignment.iter().rposition(|&m| m + 1 < n_choices) else {
                search.nodes_expanded = search.leaves_evaluated;
                return search;
            };
            assignment[pos] += 1;
            assignment[pos + 1..].fill(0);
        }
    }
}

/// Marks a client the sweep has not yet given a choice.
const UNCOVERED: usize = usize::MAX;

/// The Stage-2 solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stage2Solver;

impl Stage2Solver {
    /// Creates a Stage-2 solver.
    pub fn new() -> Self {
        Self
    }

    /// Solves Stage 2 exactly by the delay-threshold sweep (Algorithm 2's
    /// maximization; see the module docs).
    ///
    /// # Errors
    /// Propagates substrate errors for malformed variables, and returns
    /// [`crate::error::QuheError::Opt`] if no assignment has an objective
    /// above `-inf` (a NaN or `-inf` table entry).
    pub fn solve(&self, problem: &Problem, vars: &DecisionVariables) -> QuheResult<Stage2Result> {
        self.run(problem, vars, Stage2Tables::sweep)
    }

    /// Solves Stage 2 by exhaustive enumeration of all `M^N` assignments:
    /// the reference [`Stage2Solver::solve`] is checked and benchmarked
    /// against.
    ///
    /// # Errors
    /// Same conditions as [`Stage2Solver::solve`].
    pub fn solve_exhaustive(
        &self,
        problem: &Problem,
        vars: &DecisionVariables,
    ) -> QuheResult<Stage2Result> {
        self.run(problem, vars, Stage2Tables::exhaustive)
    }

    fn run(
        &self,
        problem: &Problem,
        vars: &DecisionVariables,
        search: fn(&Stage2Tables) -> Search,
    ) -> QuheResult<Stage2Result> {
        let start = Instant::now();
        let tables = Stage2Tables::build(problem, vars)?;
        let outcome = search(&tables);
        if outcome.trace.is_empty() {
            return Err(OptError::NonFiniteValue {
                context: "every stage-2 assignment's objective".to_string(),
            }
            .into());
        }
        let lambda: Vec<u64> = outcome
            .assignment
            .iter()
            .map(|&m| tables.choices[m])
            .collect();
        let delay_bound = outcome
            .assignment
            .iter()
            .enumerate()
            .map(|(n, &m)| tables.delays[n][m])
            .fold(0.0_f64, f64::max);
        Ok(Stage2Result {
            lambda,
            delay_bound,
            objective: outcome.objective,
            trace: outcome.trace,
            nodes_expanded: outcome.nodes_expanded,
            leaves_evaluated: outcome.leaves_evaluated,
            runtime_s: start.elapsed().as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::QuheConfig;
    use crate::scenario::SystemScenario;

    fn setup() -> (Problem, DecisionVariables) {
        let problem =
            Problem::new(SystemScenario::paper_default(1), QuheConfig::default()).unwrap();
        let vars = problem.initial_point().unwrap();
        (problem, vars)
    }

    #[test]
    fn stage2_selects_degrees_from_the_choice_set() {
        let (problem, vars) = setup();
        let result = Stage2Solver::new().solve(&problem, &vars).unwrap();
        assert_eq!(result.lambda.len(), 6);
        for l in &result.lambda {
            assert!(problem.scenario().lambda_choices().contains(l));
        }
        assert!(result.delay_bound > 0.0);
        assert!(result.objective.is_finite());
    }

    #[test]
    fn sweep_matches_exhaustive_search() {
        let (problem, vars) = setup();
        let solver = Stage2Solver::new();
        let sweep = solver.solve(&problem, &vars).unwrap();
        let exhaustive = solver.solve_exhaustive(&problem, &vars).unwrap();
        assert_eq!(sweep.objective.to_bits(), exhaustive.objective.to_bits());
        assert_eq!(sweep.lambda, exhaustive.lambda);
        let n_candidates = 6 * problem.scenario().lambda_choices().len();
        assert!(sweep.nodes_expanded <= n_candidates);
        assert!(sweep.leaves_evaluated <= sweep.nodes_expanded);
        assert_eq!(exhaustive.leaves_evaluated, 3usize.pow(6));
    }

    #[test]
    fn stage2_objective_matches_problem_objective() {
        let (problem, vars) = setup();
        let result = Stage2Solver::new().solve(&problem, &vars).unwrap();
        let mut updated = vars.clone();
        updated.lambda = result.lambda.clone();
        updated.delay_bound = result.delay_bound;
        let direct = problem.objective_with_max_delay(&updated).unwrap();
        assert!(
            (result.objective - direct).abs() < 1e-6 * direct.abs().max(1.0),
            "stage-2 objective {} vs direct {}",
            result.objective,
            direct
        );
    }

    #[test]
    fn stage2_never_worsens_the_starting_assignment() {
        let (problem, vars) = setup();
        let result = Stage2Solver::new().solve(&problem, &vars).unwrap();
        let tables_objective_at_start = {
            let mut updated = vars.clone();
            updated.delay_bound = problem.system_cost(&vars).unwrap().total_delay_s;
            problem.objective_with_max_delay(&updated).unwrap()
        };
        assert!(result.objective >= tables_objective_at_start - 1e-9);
    }

    #[test]
    fn incumbent_trace_is_increasing() {
        let (problem, vars) = setup();
        let result = Stage2Solver::new().solve(&problem, &vars).unwrap();
        for pair in result.trace.windows(2) {
            assert!(pair[1] > pair[0]);
        }
    }

    /// Tables over `n` clients and `m` choices drawn from `seed`. Tie modes
    /// force equal delays across clients (1), equal gains within a client
    /// (2) or both (3) by drawing from a coarse grid; mode 0 draws
    /// continuous values.
    fn random_tables(n: usize, m: usize, seed: u64, ties: usize, alpha_t: f64) -> Stage2Tables {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut draw = |coarse: bool, hi: f64| -> f64 {
            if coarse {
                f64::from(rng.gen_range(0u32..3)) * hi / 2.0
            } else {
                rng.gen_range(0.0..hi)
            }
        };
        let delays = (0..n)
            .map(|_| (0..m).map(|_| draw(ties & 1 != 0, 10.0)).collect())
            .collect();
        let gains = (0..n)
            .map(|_| (0..m).map(|_| draw(ties & 2 != 0, 5.0) - 2.5).collect())
            .collect();
        Stage2Tables {
            gains,
            delays,
            constant: 1.25,
            alpha_t,
            choices: (0..m as u64).collect(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn sweep_is_exact_on_random_tables(
            n in 1usize..=8,
            m in 1usize..=4,
            seed in 0u64..u64::MAX,
            ties in 0usize..4,
            alpha_pick in 0usize..4,
        ) {
            let alpha_t = [0.0, 0.1, 1.0, 10.0][alpha_pick];
            let tables = random_tables(n, m, seed, ties, alpha_t);
            let sweep = tables.sweep();
            let exhaustive = tables.exhaustive();
            proptest::prop_assert_eq!(sweep.objective.to_bits(), exhaustive.objective.to_bits());
            proptest::prop_assert_eq!(
                tables.objective(&sweep.assignment).to_bits(),
                sweep.objective.to_bits()
            );
            // The assignment agrees whenever the optimum is unique; under a
            // tie the sweep may return a different optimal assignment, which
            // the bit-equal objective above already pins.
            let mut optima = 0;
            let mut assignment = vec![0usize; n];
            loop {
                if tables.objective(&assignment).to_bits() == exhaustive.objective.to_bits() {
                    optima += 1;
                }
                let Some(pos) = assignment.iter().rposition(|&c| c + 1 < m) else { break };
                assignment[pos] += 1;
                assignment[pos + 1..].fill(0);
            }
            proptest::prop_assert_eq!(exhaustive.leaves_evaluated, m.pow(n as u32));
            if optima == 1 {
                proptest::prop_assert_eq!(&sweep.assignment, &exhaustive.assignment);
            }
            proptest::prop_assert!(sweep.nodes_expanded <= n * m);
            proptest::prop_assert!(sweep.leaves_evaluated <= sweep.nodes_expanded);
            for pair in sweep.trace.windows(2) {
                proptest::prop_assert!(pair[1] > pair[0]);
            }
        }
    }

    #[test]
    fn sweep_completes_on_the_largest_admitted_world() {
        // `MAX_INLINE_CLIENTS` of the serve layer × the paper's three degrees.
        let (n, m) = (4096, 3);
        let tables = random_tables(n, m, 4096, 0, 1.0);
        let sweep = tables.sweep();
        assert_eq!(sweep.assignment.len(), n);
        assert!(sweep.nodes_expanded <= n * m);
        assert_eq!(
            tables.objective(&sweep.assignment).to_bits(),
            sweep.objective.to_bits()
        );
        // It beats the two obvious assignments: best gain and least delay.
        let argmax = |row: &Vec<f64>, better: fn(f64, f64) -> bool| {
            (0..row.len()).fold(
                0,
                |best, j| if better(row[j], row[best]) { j } else { best },
            )
        };
        let greedy: Vec<usize> = tables
            .gains
            .iter()
            .map(|r| argmax(r, |a, b| a > b))
            .collect();
        let fastest: Vec<usize> = tables
            .delays
            .iter()
            .map(|r| argmax(r, |a, b| a < b))
            .collect();
        assert!(sweep.objective >= tables.objective(&greedy));
        assert!(sweep.objective >= tables.objective(&fastest));
    }

    #[test]
    fn dense_cell_seed_51_cold_solves() {
        // The pre-sweep branch-and-bound ran out of its node budget twice on
        // this world and failed the whole cold solve.
        use crate::registry::ScenarioCatalog;
        use crate::solver::{SolveSpec, SolverRegistry};
        let config = QuheConfig {
            solver_threads: 1,
            ..QuheConfig::default()
        };
        let scenario = ScenarioCatalog::builtin()
            .generate("dense_cell", 51)
            .unwrap();
        let report = SolverRegistry::builtin_with(config)
            .solve("quhe", &scenario, &SolveSpec::cold())
            .unwrap();
        assert!(report.objective.is_finite());
        let problem = Problem::new(scenario, config).unwrap();
        assert!(problem.check_feasible(&report.variables).is_ok());
    }
}
