//! Closed-loop serve benchmark of the QuHE solve service.
//!
//! ```text
//! quhe-perfbench --workload <hit_replay|cold_solve|drift_track> --seed N
//!                --seconds S --trace <0|1> [--spans PATH]
//! ```
//!
//! One process runs an in-process `TcpServer` on loopback and
//! [`plan::CONNECTIONS`] closed-loop client connections against it. The
//! plan (what is sent, on which connection, with which expected outcome) is a
//! pure function of the workload, seed and seconds; see [`plan`].
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced in-process replay of the same plan (see [`layers`]);
//! `--spans PATH` also writes that replay's spans. Human-readable lines come
//! first; the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod drive;
mod layers;
mod plan;

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use quhe_core::params::QuheConfig;
use quhe_core::problem::Problem;
use quhe_core::solver::SolveSpec;
use quhe_serve::wire::{self, Protocol};
use quhe_serve::{CacheOutcome, ServiceConfig, SolveService, TcpServer};

use crate::drive::{First, LoopOut};
use crate::plan::{Expect, Plan, Workload, CONNECTIONS, ROUNDS};

/// A reply's objective may fall below its reference by this much, relative
/// to `max(1, |reference|)`: rounding only, the references are exact
/// bounds.
const OBJECTIVE_TOLERANCE: f64 = 1e-9;
/// The layer split reconciles for an outcome class when the traced layer
/// spans of its requests (probes left out) sum to their untraced serving
/// time within this share. Classes with fewer than
/// [`RECONCILE_MIN_REQUESTS`] requests are printed but not checked.
const RECONCILE_TOLERANCE: f64 = 0.1;
const RECONCILE_MIN_REQUESTS: usize = 20;
/// Outcome classes of the reconciliation and the `service.handle_*_us`
/// metrics.
const CLASSES: [(&str, &[CacheOutcome]); 3] = [
    ("hit", &[CacheOutcome::Hit]),
    ("warm", &[CacheOutcome::Warm, CacheOutcome::WarmFallback]),
    ("cold", &[CacheOutcome::Cold]),
];
/// Stage probes per client-count class.
const PROBES_PER_CLASS: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--spans" => spans = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| (1..=600).contains(s))
            .ok_or("--seconds must be 1 to 600")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

/// The solver configuration of every service in the run: paper defaults,
/// one solver thread per request (the server's workers are the
/// parallelism).
fn solver_config() -> QuheConfig {
    QuheConfig {
        solver_threads: 1,
        ..QuheConfig::default()
    }
}

fn service(plan: &Plan) -> SolveService {
    ServiceConfig::new(solver_config())
        .with_worker_threads(CONNECTIONS)
        .with_queue_bound(CONNECTIONS)
        .with_cache_capacity(plan.cache_capacity())
        .build()
}

struct Setup {
    server: TcpServer,
    /// Seconds of each set-up step: building the service and binding the
    /// server, then each warm-up request in order.
    steps_s: Vec<f64>,
    /// Report bytes each hit key must be answered with.
    expected: Vec<Option<Vec<u8>>>,
}

/// Builds the service, binds the server and solves the warm-up serially;
/// only that is timed.
fn setup(plan: &Plan) -> Result<Setup, String> {
    let mut steps_s = Vec::with_capacity(plan.warmup.len() + 1);
    let started = Instant::now();
    let service = Arc::new(service(plan));
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").map_err(|e| e.to_string())?;
    steps_s.push(started.elapsed().as_secs_f64());
    let mut responses = Vec::with_capacity(plan.warmup.len());
    for &k in &plan.warmup {
        let key = &plan.keys[k as usize];
        let step = Instant::now();
        let response = service
            .handle(&key.request)
            .map_err(|e| format!("set-up request {} failed: {e}", key.json))?;
        steps_s.push(step.elapsed().as_secs_f64());
        responses.push((k, response));
    }
    let mut expected = vec![None; plan.keys.len()];
    for (k, response) in responses {
        if plan.keys[k as usize].expect == Expect::Hit {
            let body = wire::ok_envelope(Protocol::V2, &response).into_bytes();
            let at = drive::report_offset(&body).ok_or("set-up envelope has no report")?;
            expected[k as usize] = Some(body[at..].to_vec());
        }
    }
    Ok(Setup {
        server,
        steps_s,
        expected,
    })
}

/// Per-key verdict of the first reply, checked off the timed path. The
/// first round is checked against references; a later round must repeat
/// the first round's replies (`round0`) bit for bit.
fn verify_keys(
    plan: &Plan,
    out: &LoopOut,
    service: &SolveService,
    round0: Option<&[Option<First>]>,
) -> Vec<Result<(), String>> {
    let solver = service.registry().resolve("quhe").expect("built-in solver");
    let config = solver_config();
    let check = |k: usize| -> Result<(), String> {
        let key = &plan.keys[k];
        let first = out.firsts[k].as_ref().ok_or("never answered")?;
        if let Some(error) = &first.error {
            return Err(error.clone());
        }
        if let Some(round0) = round0 {
            let earlier = round0[k]
                .as_ref()
                .ok_or("not answered in the first round")?;
            return if earlier.fingerprint == first.fingerprint
                && earlier.objective.to_bits() == first.objective.to_bits()
            {
                Ok(())
            } else {
                Err("reply differs from the first round's".into())
            };
        }
        let scenario = service
            .resolve_scenario(&key.request.scenario)
            .map_err(|e| e.to_string())?;
        if first.fingerprint != Some(scenario.fingerprint()) {
            return Err("reply fingerprint is not the request's scenario".into());
        }
        // Hits are checked byte for byte against the set-up's report; cold
        // solves must not end below the solver's own starting point, warm
        // near misses not below the single-start cold floor.
        let reference = match key.expect {
            Expect::Hit => return Ok(()),
            Expect::Cold => {
                let problem = Problem::new(scenario, config).map_err(|e| e.to_string())?;
                let start = problem.initial_point().map_err(|e| e.to_string())?;
                problem
                    .objective_with_max_delay(&start)
                    .map_err(|e| e.to_string())?
            }
            Expect::WarmPath => {
                solver
                    .solve(&scenario, &SolveSpec::single_start())
                    .map_err(|e| e.to_string())?
                    .objective
            }
        };
        let floor = reference - OBJECTIVE_TOLERANCE * reference.abs().max(1.0);
        if first.objective >= floor {
            Ok(())
        } else {
            Err(format!(
                "objective {} below reference {reference}",
                first.objective
            ))
        }
    };
    let used: Vec<usize> = (0..plan.keys.len())
        .filter(|&k| out.firsts[k].is_some())
        .collect();
    let mut verdicts: Vec<Result<(), String>> = vec![Ok(()); plan.keys.len()];
    let checked: Vec<Vec<(usize, Result<(), String>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = used
            .chunks(used.len().div_ceil(CONNECTIONS).max(1))
            .map(|chunk| scope.spawn(move || chunk.iter().map(|&k| (k, check(k))).collect()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verification thread panicked"))
            .collect()
    });
    for (k, verdict) in checked.into_iter().flatten() {
        verdicts[k] = verdict;
    }
    verdicts
}

/// Outcome counts of a request stream, in a fixed order.
#[derive(Default, Clone, PartialEq, Eq, Debug)]
struct Mix {
    hit: usize,
    warm: usize,
    warm_fallback: usize,
    cold: usize,
    coalesced: usize,
    error: usize,
}

impl Mix {
    fn add(&mut self, outcome: Option<CacheOutcome>) {
        match outcome {
            Some(CacheOutcome::Hit) => self.hit += 1,
            Some(CacheOutcome::Warm) => self.warm += 1,
            Some(CacheOutcome::WarmFallback) => self.warm_fallback += 1,
            Some(CacheOutcome::Cold) => self.cold += 1,
            Some(CacheOutcome::Coalesced) => self.coalesced += 1,
            None => self.error += 1,
        }
    }

    fn line(&self, shed: usize) -> String {
        format!(
            "hit={} warm={} warm_fallback={} cold={} coalesced={} error={} shed={shed}",
            self.hit, self.warm, self.warm_fallback, self.cold, self.coalesced, self.error
        )
    }
}

fn matches(expect: Expect, outcome: Option<CacheOutcome>) -> bool {
    matches!(
        (expect, outcome),
        (Expect::Hit, Some(CacheOutcome::Hit))
            | (Expect::Cold, Some(CacheOutcome::Cold))
            | (
                Expect::WarmPath,
                Some(CacheOutcome::Warm | CacheOutcome::WarmFallback)
            )
    )
}

/// Nearest-rank quantile of sorted values.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Milliseconds of a fixed floating-point kernel that uses none of the
/// repository's code (best of three), timed before each round while no
/// server runs. It tracks the machine's speed, not the program's: every run
/// prints it beside the round's figures, so drift between runs can be told
/// apart from a change in the program.
fn reference_ms() -> f64 {
    const N: usize = 48;
    let mut seed = 0x5155_4845u64;
    let a: Vec<f64> = (0..N * N)
        .map(|_| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5) / N as f64
        })
        .collect();
    (0..3)
        .map(|_| {
            let started = Instant::now();
            let mut x = vec![1.0f64; N];
            for _ in 0..6000 {
                let y: Vec<f64> = a
                    .chunks(N)
                    .map(|row| row.iter().zip(&x).map(|(r, v)| r * v).sum::<f64>() + 1.0)
                    .collect();
                let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
                x = y.iter().map(|v| v / norm).collect();
            }
            std::hint::black_box(&x);
            started.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Restarts the peak resident set (`VmHWM`) at the current resident set.
/// Called after set-up, so `peak_rss_mb` covers what the serving process
/// holds and allocates while serving (cached reports included), not the
/// transient search trees of set-up solves.
fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("quhe-perfbench: cannot reset the peak resident set: {e}");
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics in print order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// Cache telemetry of the timed loop (deltas of [`quhe_serve::CacheStats`]).
#[derive(Default)]
struct CacheDelta {
    exact_hits: u64,
    exact_lookups: u64,
    anchor_promotions: u64,
    evictions: u64,
}

/// What the TCP loop produced, verified.
struct Served {
    out: LoopOut,
    mix: Mix,
    shed: usize,
    verified: Vec<bool>,
    problems: Vec<String>,
    cache: CacheDelta,
    max_queue_depth: usize,
}

impl Served {
    /// Adds a later round's replies and counters; the first round's mix and
    /// first replies stay.
    fn absorb(&mut self, other: Served) {
        self.out.samples.extend(other.out.samples);
        self.shed += other.shed;
        self.verified.extend(other.verified);
        self.problems.extend(other.problems);
        self.cache.exact_hits += other.cache.exact_hits;
        self.cache.exact_lookups += other.cache.exact_lookups;
        self.cache.anchor_promotions += other.cache.anchor_promotions;
        self.cache.evictions += other.cache.evictions;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
    }
}

fn run_loop(
    plan: &Plan,
    setup: &Setup,
    round0: Option<&[Option<First>]>,
) -> Result<Served, String> {
    let service = setup.server.service();
    let before = service.cache().stats();
    let shed_before = setup.server.stats().shed;
    let addr: SocketAddr = setup.server.local_addr();
    let out = drive::closed_loop(addr, plan, &setup.expected).map_err(|e| e.to_string())?;
    let net = setup.server.stats();
    let after = service.cache().stats();
    let cache = CacheDelta {
        exact_hits: after.exact_hits - before.exact_hits,
        exact_lookups: after.exact_lookups() - before.exact_lookups(),
        anchor_promotions: after.anchor_promotions - before.anchor_promotions,
        evictions: after.evictions - before.evictions,
    };
    let verdicts = verify_keys(plan, &out, service, round0);
    let mut mix = Mix::default();
    let mut problems = Vec::new();
    let verified = out
        .samples
        .iter()
        .map(|s| {
            mix.add(s.outcome);
            let key = &plan.keys[s.key as usize];
            let problem = if !matches(key.expect, s.outcome) {
                Some(format!("expected {:?}, got {:?}", key.expect, s.outcome))
            } else if !s.identical {
                Some("hit report differs from the set-up's bytes".to_string())
            } else {
                verdicts[s.key as usize].clone().err()
            };
            if let Some(p) = problem {
                problems.push(format!("{}: {p}", key.json));
                false
            } else {
                true
            }
        })
        .collect();
    Ok(Served {
        out,
        mix,
        shed: net.shed - shed_before,
        verified,
        problems,
        cache,
        max_queue_depth: net.max_queue_depth,
    })
}

/// One round's end-to-end figures, printed for the record.
struct Round {
    reference_ms: f64,
    setup_steps_s: Vec<f64>,
    throughput_rps: f64,
    p50_ms: f64,
    tail_ms: f64,
    peak_rss_mb: f64,
}

/// Runs `rounds` rounds of the plan over TCP, each on a freshly set-up
/// server. Every round must reproduce the first round's outcome mix;
/// `broken` collects the rounds that do not.
fn tcp_rounds(
    plan: &Plan,
    tail: f64,
    rounds: usize,
    broken: &mut Vec<String>,
) -> Result<(Served, Vec<Round>), String> {
    let mut all: Option<Served> = None;
    let mut figures = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let reference_ms = reference_ms();
        let setup = setup(plan)?;
        reset_peak_rss();
        let served = run_loop(plan, &setup, all.as_ref().map(|a| a.out.firsts.as_slice()))?;
        let peak_rss_mb = peak_rss_mb();
        setup.server.shutdown();

        let mut latencies: Vec<f64> = served
            .out
            .samples
            .iter()
            .zip(&served.verified)
            .filter(|(_, &ok)| ok)
            .map(|(s, _)| s.latency_s)
            .collect();
        latencies.sort_by(f64::total_cmp);
        figures.push(Round {
            reference_ms,
            setup_steps_s: setup.steps_s.clone(),
            throughput_rps: latencies.len() as f64 / served.out.wall_s,
            p50_ms: quantile(&latencies, 0.5) * 1e3,
            tail_ms: quantile(&latencies, tail) * 1e3,
            peak_rss_mb,
        });
        match &mut all {
            None => all = Some(served),
            Some(all) => {
                if served.mix != all.mix {
                    broken.push(format!(
                        "round {round} mix {} differs from the first round's",
                        served.mix.line(served.shed)
                    ));
                }
                all.absorb(served);
            }
        }
    }
    Ok((all.ok_or("no rounds to run")?, figures))
}

/// Invariants of a valid run: the load did not depend on timing.
fn invariants(plan: &Plan, served: &Served, rounds: usize) -> Vec<String> {
    let mut broken = Vec::new();
    if served.shed > 0 {
        broken.push(format!("{} requests shed", served.shed));
    }
    if served.mix.coalesced > 0 {
        broken.push(format!("{} requests coalesced", served.mix.coalesced));
    }
    if served.cache.evictions > 0 {
        broken.push(format!("{} cache evictions", served.cache.evictions));
    }
    if served.out.samples.len() != plan.requests() * rounds {
        broken.push(format!(
            "{} replies for {} requests",
            served.out.samples.len(),
            plan.requests() * rounds
        ));
    }
    broken
}

fn end_to_end(
    args: &Args,
    plan: &Plan,
    metrics: &mut Metrics,
    broken: &mut Vec<String>,
) -> Result<Served, String> {
    let q = args.workload.tail_quantile();
    let (served, rounds) = tcp_rounds(plan, q, ROUNDS, broken)?;
    let n = plan.requests();
    println!(
        "rounds: {ROUNDS} of {n} requests; latency_tail_ms is p{} of the requests' best \
         times ({} beyond)",
        q * 100.0,
        n - (q * n as f64).ceil() as usize
    );
    for (i, r) in rounds.iter().enumerate() {
        println!(
            "round {i}: reference_ms {:.3} setup_s {:.4} throughput_rps {:.2} \
             latency_p50_ms {:.4} latency_tail_ms {:.3} peak_rss_mb {:.2}",
            r.reference_ms,
            r.setup_steps_s.iter().sum::<f64>(),
            r.throughput_rps,
            r.p50_ms,
            r.tail_ms,
            r.peak_rss_mb
        );
    }
    let reference = rounds
        .iter()
        .map(|r| r.reference_ms)
        .fold(f64::INFINITY, f64::min);
    println!("reference_ms: {reference:.4} (best round; machine speed, not a metric)");
    // The rounds do identical work, so their spread is the machine's: it
    // has spells of seconds to tens of seconds in which the same solve takes
    // about 1.4x longer (its thread CPU time grows with it, so the process is
    // not descheduled, the core is slower). Each request is therefore timed
    // at its best over the rounds: its position in the plan is the same
    // request in every round. Set-up time is likewise the sum of each set-up
    // step's best time; memory is the best round's.
    let mut best = vec![f64::INFINITY; n];
    for (s, &ok) in served.out.samples.iter().zip(&served.verified) {
        if ok {
            let at = &mut best[s.position as usize];
            *at = at.min(s.latency_s);
        }
    }
    let mut best: Vec<f64> = best.into_iter().filter(|s| s.is_finite()).collect();
    best.sort_by(f64::total_cmp);
    let ok = served.verified.iter().filter(|&&ok| ok).count();
    // A closed loop keeps every connection busy, so it completes
    // `CONNECTIONS` requests per mean request time.
    metrics.put(
        "throughput_rps",
        CONNECTIONS as f64 * best.len() as f64 / best.iter().sum::<f64>(),
        "req/s",
    );
    metrics.put("latency_p50_ms", quantile(&best, 0.5) * 1e3, "ms");
    metrics.put("latency_tail_ms", quantile(&best, q) * 1e3, "ms");
    metrics.put("success_frac", ok as f64 / (n * ROUNDS) as f64, "ratio");
    let setup_s: f64 = (0..rounds[0].setup_steps_s.len())
        .map(|i| {
            rounds
                .iter()
                .map(|r| r.setup_steps_s[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    metrics.put("setup_s", setup_s, "s");
    let peak_rss_mb = rounds
        .iter()
        .map(|r| r.peak_rss_mb)
        .fold(f64::INFINITY, f64::min);
    metrics.put("peak_rss_mb", peak_rss_mb, "MB");
    Ok(served)
}

/// Median of `f` over the traced requests for which it is `Some`, ns in,
/// µs out.
fn median_us(
    rows: &[(layers::RequestSpans, &layers::Served)],
    f: impl Fn(&layers::RequestSpans, &layers::Served) -> Option<u64>,
) -> f64 {
    let values: Vec<f64> = rows
        .iter()
        .filter_map(|(r, s)| f(r, s))
        .map(|ns| ns as f64)
        .collect();
    median(&values) / 1e3
}

fn per_layer(
    args: &Args,
    plan: &Plan,
    metrics: &mut Metrics,
    broken: &mut Vec<String>,
) -> Result<Served, String> {
    let (served, _) = tcp_rounds(plan, args.workload.tail_quantile(), 1, broken)?;

    // The same plan in process, untraced and traced on two fresh services.
    let replay = layers::replay(&service(plan), &service(plan), plan)?;
    for (name, served_by) in [("untraced", &replay.plain), ("traced", &replay.traced)] {
        let mut mix = Mix::default();
        for s in served_by.iter().filter(|s| s.timed) {
            mix.add(Some(s.outcome));
            let tcp = served.out.firsts[s.key as usize].as_ref();
            if tcp.is_some_and(|f| f.objective.to_bits() != s.objective.to_bits()) {
                broken.push(format!(
                    "{name} replay objective differs from the TCP reply for {}",
                    plan.keys[s.key as usize].json
                ));
            }
        }
        if mix != served.mix {
            broken.push(format!(
                "{name} replay mix {} differs from the TCP loop's {}",
                mix.line(0),
                served.mix.line(served.shed)
            ));
        }
    }
    if let Some(path) = &args.spans {
        layers::write_spans(path, &replay.spans).map_err(|e| format!("writing spans: {e}"))?;
        println!(
            "spans: {} written to {}",
            replay.spans.len(),
            path.display()
        );
    }

    // net, wire and cache telemetry: the untraced TCP loop.
    let tcp_ok = || {
        served
            .out
            .samples
            .iter()
            .zip(&served.verified)
            .filter(|(_, &ok)| ok)
            .map(|(s, _)| s)
    };
    let overhead: Vec<f64> = tcp_ok()
        .map(|s| (s.latency_s - s.service_wall_s) * 1e6)
        .collect();
    metrics.put("net.overhead_us", median(&overhead), "us");
    metrics.put("net.shed", served.shed as f64, "count");
    metrics.put(
        "net.max_queue_depth",
        served.max_queue_depth as f64,
        "count",
    );
    metrics.put(
        "wire.reply_bytes",
        mean(served.out.samples.iter().map(|s| s.bytes as f64)),
        "bytes",
    );

    // Layer self times: the traced replay, set-up and timed requests alike.
    let spans = layers::requests(&replay.spans);
    if spans.len() != replay.traced.len() {
        return Err("traced replay lost a request's spans".into());
    }
    let rows: Vec<(layers::RequestSpans, &layers::Served)> =
        spans.into_iter().zip(&replay.traced).collect();
    for (metric, span) in [
        ("wire.parse_us", "wire.parse"),
        ("wire.encode_us", "wire.encode"),
        ("service.resolve_catalog_us", "service.resolve_catalog"),
        ("service.resolve_drifted_us", "service.resolve_drifted"),
        ("fingerprint.us", "fingerprint"),
        ("cache.lookup_exact_us", "cache.lookup_exact"),
        ("cache.lookup_anchor_us", "cache.lookup_anchor"),
    ] {
        metrics.put(metric, median_us(&rows, |r, _| r.ns(span)), "us");
    }
    for (metric, (_, outcomes)) in [
        "service.handle_hit_us",
        "service.handle_warm_us",
        "service.handle_cold_us",
    ]
    .into_iter()
    .zip(CLASSES)
    {
        let handle = |r: &layers::RequestSpans, s: &layers::Served| {
            outcomes
                .contains(&s.outcome)
                .then(|| r.ns("service.handle_scenario"))
                .flatten()
        };
        metrics.put(metric, median_us(&rows, handle), "us");
    }

    // Warm path and outcome counts.
    let warm_path: Vec<&layers::Served> = replay
        .traced
        .iter()
        .filter(|s| matches!(s.outcome, CacheOutcome::Warm | CacheOutcome::WarmFallback))
        .collect();
    let kept = warm_path
        .iter()
        .filter(|s| s.outcome == CacheOutcome::Warm)
        .count();
    metrics.put(
        "service.warm_keep_ratio",
        kept as f64 / warm_path.len().max(1) as f64,
        "ratio",
    );
    metrics.put(
        "service.path_outer_iters",
        mean(warm_path.iter().map(|s| s.path_iters as f64)),
        "count",
    );
    metrics.put(
        "service.guard_outer_iters",
        mean(warm_path.iter().map(|s| s.guard_iters as f64)),
        "count",
    );
    metrics.put("service.hit", served.mix.hit as f64, "count");
    metrics.put("service.warm", served.mix.warm as f64, "count");
    metrics.put(
        "service.warm_fallback",
        served.mix.warm_fallback as f64,
        "count",
    );
    metrics.put("service.cold", served.mix.cold as f64, "count");

    let c = &served.cache;
    metrics.put(
        "cache.hit_ratio",
        c.exact_hits as f64 / c.exact_lookups.max(1) as f64,
        "ratio",
    );
    metrics.put(
        "cache.anchor_promotions",
        c.anchor_promotions as f64,
        "count",
    );
    metrics.put("cache.evictions", c.evictions as f64, "count");

    stage_metrics(plan, &replay.traced, metrics)?;

    // Tracing. Reconciliation: per outcome class, the traced layer spans
    // against the same requests' untraced serving time, so an incomplete
    // layer split or probe work leaking into a layer shows. Overhead: the
    // traced serving time, probes included, against the untraced.
    let mut worst = 0.0f64;
    let mut unreconciled = 0usize;
    for (class, outcomes) in CLASSES {
        let (mut layers_s, mut plain_s, mut n) = (0.0, 0.0, 0usize);
        for ((r, t), p) in rows.iter().zip(&replay.plain) {
            if outcomes.contains(&t.outcome) {
                layers_s += r.layers_ns() as f64 / 1e9;
                plain_s += p.seconds;
                n += 1;
            }
        }
        let gap = layers_s / plain_s - 1.0;
        let checked = n >= RECONCILE_MIN_REQUESTS;
        if checked {
            worst = worst.max(gap.abs());
            if gap.abs() > RECONCILE_TOLERANCE {
                unreconciled += 1;
                broken.push(format!(
                    "{class} requests: traced layers differ by {:+.1}% from their untraced time",
                    100.0 * gap
                ));
            }
        }
        println!(
            "reconcile {class}: {n} requests, layers {layers_s:.4} s vs untraced {plain_s:.4} s \
             ({:+.2}%{})",
            100.0 * gap,
            if checked { "" } else { ", too few to check" }
        );
    }
    metrics.put("trace.reconcile_pct", 100.0 * worst, "%");
    metrics.put("trace.unreconciled", unreconciled as f64, "count");
    let busy = |served: &[layers::Served]| served.iter().map(|s| s.seconds).sum::<f64>();
    let (plain_s, traced_s) = (busy(&replay.plain), busy(&replay.traced));
    metrics.put(
        "trace.overhead_pct",
        100.0 * (traced_s / plain_s - 1.0),
        "%",
    );
    println!("replay serving time: untraced {plain_s:.3} s, traced {traced_s:.3} s");
    Ok(served)
}

/// Stage 1/2/3 timings and counts on the scenarios the workload solves,
/// weighted by each client-count class's share of them.
fn stage_metrics(
    plan: &Plan,
    traced: &[layers::Served],
    metrics: &mut Metrics,
) -> Result<(), String> {
    let scratch = ServiceConfig::new(solver_config()).build();
    // Solved scenarios: every replayed request that was not a hit.
    let mut classes: BTreeMap<usize, (usize, Vec<layers::StageProbe>)> = BTreeMap::new();
    for s in traced.iter().filter(|s| s.outcome != CacheOutcome::Hit) {
        let scenario = scratch
            .resolve_scenario(&plan.keys[s.key as usize].request.scenario)
            .map_err(|e| e.to_string())?;
        let class = classes.entry(scenario.num_clients()).or_default();
        class.0 += 1;
        if class.1.len() < PROBES_PER_CLASS {
            match layers::probe_stages(&scenario, solver_config()) {
                Ok(probe) => class.1.push(probe),
                Err(e) => println!(
                    "stage probe failed on {}: {e}",
                    plan.keys[s.key as usize].json
                ),
            }
        }
    }
    let total: usize = classes.values().map(|(n, _)| n).sum();
    let mut stage_ms = [0.0; 3];
    let mut counts = [0.0; 3];
    for (clients, (n, probes)) in &classes {
        let weight = *n as f64 / total.max(1) as f64;
        let mut line = format!("stages N={clients}: {n} solved, {} probed:", probes.len());
        for stage in 0..3 {
            let ms = mean(probes.iter().map(|p| p.seconds[stage] * 1e3));
            stage_ms[stage] += weight * ms;
            counts[stage] += weight * mean(probes.iter().map(|p| p.counts[stage] as f64));
            line.push_str(&format!(" stage{} {ms:.3} ms", stage + 1));
        }
        println!("{line}");
    }
    let sum: f64 = stage_ms.iter().sum();
    for (stage, name) in ["solve.stage1_ms", "solve.stage2_ms", "solve.stage3_ms"]
        .into_iter()
        .enumerate()
    {
        metrics.put(name, stage_ms[stage], "ms");
    }
    for (stage, name) in [
        "solve.stage1_share",
        "solve.stage2_share",
        "solve.stage3_share",
    ]
    .into_iter()
    .enumerate()
    {
        metrics.put(name, stage_ms[stage] / sum.max(f64::MIN_POSITIVE), "ratio");
    }
    metrics.put("solve.stage1_iters", counts[0], "count");
    metrics.put("solve.stage2_nodes", counts[1], "count");
    metrics.put("solve.stage3_iters", counts[2], "count");
    let cold: Vec<&layers::Served> = traced
        .iter()
        .filter(|s| s.outcome == CacheOutcome::Cold)
        .collect();
    metrics.put(
        "solve.outer_iters",
        mean(cold.iter().map(|s| s.outer_iters as f64)),
        "count",
    );
    metrics.put(
        "solve.runtime_ms",
        mean(cold.iter().map(|s| s.runtime_s * 1e3)),
        "ms",
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("quhe-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let plan = plan::build(args.workload, args.seed, args.seconds);
    let requests = plan.requests();
    let share = |f: &dyn Fn(&plan::Key) -> bool| {
        let n: usize = plan
            .units
            .iter()
            .flatten()
            .filter(|&&k| f(&plan.keys[k as usize]))
            .count();
        n as f64 / requests as f64
    };
    let drifted_share = share(&|k| k.drifted);
    let dense_share = share(&|k| k.dense);
    println!(
        "workload {} seed {} seconds {}: {requests} requests a round in {} units on {CONNECTIONS} \
         connections, {} keys, {} set-up requests",
        args.workload.name(),
        args.seed,
        args.seconds,
        plan.units.len(),
        plan.keys.len(),
        plan.warmup.len()
    );

    let mut metrics = Metrics::default();
    let mut broken = Vec::new();
    let result = if args.trace {
        per_layer(&args, &plan, &mut metrics, &mut broken)
    } else {
        end_to_end(&args, &plan, &mut metrics, &mut broken)
    };
    let served = match result {
        Ok(served) => served,
        Err(e) => {
            eprintln!("quhe-perfbench: {e}");
            std::process::exit(1);
        }
    };
    let rounds = if args.trace { 1 } else { ROUNDS };
    broken.extend(invariants(&plan, &served, rounds));

    let warm_fallback_share = served.mix.warm_fallback as f64 / requests as f64;
    println!("mix: {}", served.mix.line(served.shed));
    println!(
        "properties: drifted_share={drifted_share:.4} dense_share={dense_share:.4} \
         warm_fallback_share={warm_fallback_share:.4}"
    );
    if args.trace {
        metrics.put("workload.drifted_share", drifted_share, "ratio");
        metrics.put("workload.dense_share", dense_share, "ratio");
        metrics.put("workload.warm_fallback_share", warm_fallback_share, "ratio");
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|&(name, value, unit)| {
            let value = if value.is_finite() {
                value
            } else {
                broken.push(format!("{name} is not a finite number"));
                0.0
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    for problem in served.problems.iter().take(10) {
        println!("failed: {problem}");
    }
    for reason in &broken {
        println!("invalid: {reason}");
    }
    let attempted = requests * rounds;
    let verified = served.verified.iter().filter(|&&ok| ok).count();
    let failed = attempted - verified;
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && broken.is_empty(),
        body.join(", ")
    );
}
