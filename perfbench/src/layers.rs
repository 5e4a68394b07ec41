//! The traced run: the plan replayed in process, layer by layer, through
//! each layer's public function, with spans recorded around every call.
//!
//! Per request (one `handle` root span, children in call order):
//!
//! ```text
//! handle
//! ├── wire.parse                 wire::parse_request          (reader thread's work)
//! ├── service.resolve_catalog |  SolveService::resolve_scenario
//! │   service.resolve_drifted
//! ├── fingerprint                fingerprint() + shape_fingerprint()   ┐ probes: the calls
//! ├── cache.lookup_exact         ScenarioCache::lookup_exact           │ handle_scenario makes
//! ├── cache.lookup_anchor        ScenarioCache::lookup_anchor (misses) ┘ internally, replayed
//! ├── service.handle_scenario    SolveService::handle_scenario
//! └── wire.encode                wire::ok_envelope            (worker's reply)
//! ```
//!
//! `handle_scenario` cannot be opened from outside, so the layers it calls
//! internally are measured by probes: the same public functions called on
//! the same inputs just before it. Its span still includes that internal
//! work, so the probes ([`PROBES`]) are left out when layer spans are summed.
//! The probes leave every outcome unchanged: a lookup only refreshes the
//! recency of the entry the real call then refreshes again, and cache
//! counters are read from the untraced TCP loop instead.
//!
//! Every request is served twice, back to back: untraced (exactly as the
//! TCP front end serves it) on one fresh service and traced on another. The
//! two services see the same requests in the same order, so they reach the
//! same outcomes, and the two timings of a request share the machine's
//! state. The untraced timings check the layer split and give the tracing
//! overhead. Stage 1/2/3 are timed separately by solving the workload's
//! distinct scenarios stage by stage from the deterministic initial point,
//! as the repository's `stage_bench` does.

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use quhe_core::params::QuheConfig;
use quhe_core::problem::Problem;
use quhe_core::scenario::SystemScenario;
use quhe_core::stage1::Stage1Solver;
use quhe_core::stage2::Stage2Solver;
use quhe_core::stage3::Stage3Solver;
use quhe_core::QuheResult;
use quhe_serve::wire;
use quhe_serve::{CacheOutcome, ScenarioSpec, SolveResponse, SolveService};

use crate::plan::{Key, Plan, CONNECTIONS};

/// One recorded span.
#[derive(Clone, Copy)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Request id (the key index).
    pub request: u32,
    /// Index of the parent span in the same request's list, `None` for the
    /// root.
    pub parent: Option<u32>,
    /// Start, ns since the replay began.
    pub start_ns: u64,
    /// End, ns since the replay began.
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A request's outcome in a replay.
pub struct Served {
    /// Key index.
    pub key: u32,
    /// Whether the request belongs to the timed sequence (not the warm-up).
    pub timed: bool,
    /// Wall seconds spent serving it.
    pub seconds: f64,
    /// The cache outcome.
    pub outcome: CacheOutcome,
    /// The report's objective.
    pub objective: f64,
    /// Outer iterations of the solve path (warm plus any fallback).
    pub path_iters: usize,
    /// Outer iterations of the single-start floor guard.
    pub guard_iters: usize,
    /// The report's outer iterations and solver runtime.
    pub outer_iters: usize,
    /// Solver runtime of the report, seconds.
    pub runtime_s: f64,
}

/// The probe spans: internal work of `service.handle_scenario`, measured
/// again outside it.
pub const PROBES: [&str; 3] = ["fingerprint", "cache.lookup_exact", "cache.lookup_anchor"];

/// A finished replay.
pub struct Replay {
    /// Every request as served traced.
    pub traced: Vec<Served>,
    /// The same requests, in the same order, as served untraced.
    pub plain: Vec<Served>,
    /// Spans, grouped per request, in the order of `traced`.
    pub spans: Vec<Span>,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a child span of the request's root.
    fn child<T>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            request,
            parent: Some(0),
            start_ns,
            end_ns,
        });
        out
    }
}

fn failed(key: &Key, e: impl std::fmt::Display) -> String {
    format!("{}: {e}", key.json)
}

/// Serves one request exactly as the TCP front end does (reader parse,
/// worker `handle`, worker envelope), untraced.
fn serve_plain(service: &SolveService, key: &Key) -> Result<SolveResponse, String> {
    let (proto, _, request) = wire::parse_request(&key.json);
    let request = request.map_err(|e| failed(key, e))?;
    let response = service.handle(&request).map_err(|e| failed(key, e))?;
    std::hint::black_box(wire::ok_envelope(proto, &response));
    Ok(response)
}

/// Serves one request layer by layer with spans and probes.
fn serve_traced(
    service: &SolveService,
    key_index: u32,
    key: &Key,
    tracer: &mut Tracer,
) -> Result<SolveResponse, String> {
    let root = tracer.spans.len();
    let root_start = tracer.now();
    tracer.spans.push(Span {
        name: "handle",
        request: key_index,
        parent: None,
        start_ns: root_start,
        end_ns: root_start,
    });
    let r = key_index;
    let (proto, _, request) = tracer.child("wire.parse", r, || wire::parse_request(&key.json));
    let request = request.map_err(|e| failed(key, e))?;
    let resolve = match request.scenario {
        ScenarioSpec::Drifted { .. } => "service.resolve_drifted",
        _ => "service.resolve_catalog",
    };
    let scenario = tracer
        .child(resolve, r, || service.resolve_scenario(&request.scenario))
        .map_err(|e| failed(key, e))?;
    let (fingerprint, shape) = tracer.child("fingerprint", r, || {
        (scenario.fingerprint(), scenario.shape_fingerprint())
    });
    let cache = service.cache();
    let hit = tracer.child("cache.lookup_exact", r, || {
        let spec_key = request.spec.to_json_value().to_compact_string();
        cache
            .lookup_exact(fingerprint, &scenario, &request.solver, &spec_key)
            .is_some()
    });
    if !hit {
        tracer.child("cache.lookup_anchor", r, || {
            cache
                .lookup_anchor(shape, &request.solver, &scenario)
                .is_some()
        });
    }
    let response = tracer
        .child("service.handle_scenario", r, || {
            service.handle_scenario(
                request.id.clone(),
                &scenario,
                &request.solver,
                &request.spec,
            )
        })
        .map_err(|e| failed(key, e))?;
    let body = tracer.child("wire.encode", r, || wire::ok_envelope(proto, &response));
    std::hint::black_box(body);
    tracer.spans[root].end_ns = tracer.now();
    Ok(response)
}

/// Times one serve of `key`.
fn time_serve(
    key: u32,
    timed: bool,
    serve: impl FnOnce() -> Result<SolveResponse, String>,
) -> Result<Served, String> {
    let started = Instant::now();
    let response = serve()?;
    Ok(Served {
        key,
        timed,
        seconds: started.elapsed().as_secs_f64(),
        outcome: response.cache,
        objective: response.report.objective,
        path_iters: response.path_outer_iterations,
        guard_iters: response.guard_outer_iterations,
        outer_iters: response.report.outer_iterations,
        runtime_s: response.report.runtime_s,
    })
}

/// Replays the plan (serial warm-up, then the timed units on
/// [`CONNECTIONS`] threads pulling units as the connections do), serving
/// every request untraced on `plain` and traced on `traced`, back to back.
/// Which of the two goes first alternates from request to request.
pub fn replay(plain: &SolveService, traced: &SolveService, plan: &Plan) -> Result<Replay, String> {
    type Out = (Vec<Served>, Vec<Served>, Tracer);
    let origin = Instant::now();
    let serve = |key: u32, timed_request: bool, out: &mut Out| -> Result<(), String> {
        let k = &plan.keys[key as usize];
        let (plains, traceds, tracer) = out;
        let untraced = || time_serve(key, timed_request, || serve_plain(plain, k));
        let plain_first = plains.len() % 2 == 0;
        if plain_first {
            plains.push(untraced()?);
        }
        traceds.push(time_serve(key, timed_request, || {
            serve_traced(traced, key, k, tracer)
        })?);
        if !plain_first {
            plains.push(untraced()?);
        }
        Ok(())
    };
    // Spans per request: a root and at most seven children.
    let new_out = |requests: usize| -> Out {
        (
            Vec::with_capacity(requests),
            Vec::with_capacity(requests),
            Tracer {
                origin,
                spans: Vec::with_capacity(8 * requests),
            },
        )
    };
    let mut warmup = new_out(plan.warmup.len());
    for &key in &plan.warmup {
        serve(key, false, &mut warmup)?;
    }
    let next_unit = AtomicUsize::new(0);
    let threads: Vec<Result<Out, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = new_out(plan.requests() / CONNECTIONS + 64);
                    while let Some(unit) = plan.units.get(next_unit.fetch_add(1, Ordering::Relaxed))
                    {
                        for &key in unit {
                            serve(key, true, &mut out)?;
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let (mut plains, mut traceds, tracer) = warmup;
    let mut spans = tracer.spans;
    for thread in threads {
        let (p, t, tracer) = thread?;
        plains.extend(p);
        traceds.extend(t);
        spans.extend(tracer.spans);
    }
    Ok(Replay {
        traced: traceds,
        plain: plains,
        spans,
    })
}

/// Writes spans as tab-separated `request span parent name start_ns
/// end_ns` lines; `span` and `parent` index the request's own spans.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "request\tspan\tparent\tname\tstart_ns\tend_ns")?;
    let mut index = 0;
    let mut request = u32::MAX;
    for span in spans {
        if span.parent.is_none() {
            index = 0;
            request = span.request;
        }
        debug_assert_eq!(request, span.request);
        let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{index}\t{parent}\t{}\t{}\t{}",
            span.request, span.name, span.start_ns, span.end_ns
        )?;
        index += 1;
    }
    out.flush()
}

/// Per-request view of a traced replay: the children of its `handle` root.
pub struct RequestSpans<'a> {
    /// The root's children, in call order.
    pub children: &'a [Span],
}

impl RequestSpans<'_> {
    /// Nanoseconds of the first child named `name`.
    pub fn ns(&self, name: &str) -> Option<u64> {
        self.children.iter().find(|s| s.name == name).map(Span::ns)
    }

    /// Summed durations of the layer spans, probes left out, ns.
    pub fn layers_ns(&self) -> u64 {
        self.children
            .iter()
            .filter(|s| !PROBES.contains(&s.name))
            .map(Span::ns)
            .sum()
    }
}

/// Splits a span list into requests.
pub fn requests(spans: &[Span]) -> Vec<RequestSpans<'_>> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < spans.len() {
        let end = spans[i + 1..]
            .iter()
            .position(|s| s.parent.is_none())
            .map_or(spans.len(), |p| i + 1 + p);
        out.push(RequestSpans {
            children: &spans[i + 1..end],
        });
        i = end;
    }
    out
}

/// Stage 1/2/3 of one scenario solved standalone from the initial point.
pub struct StageProbe {
    /// Seconds per stage.
    pub seconds: [f64; 3],
    /// Stage-1 iterations, Stage-2 nodes expanded, Stage-3 iterations.
    pub counts: [usize; 3],
}

/// Solves each stage once on `scenario` under `config`, as the service's
/// solver builds them.
pub fn probe_stages(scenario: &SystemScenario, config: QuheConfig) -> QuheResult<StageProbe> {
    let problem = Problem::new(scenario.clone(), config)?;
    let initial = problem.initial_point()?;
    let stage1 = Stage1Solver::new().solve(&problem)?;
    let stage2 = Stage2Solver::new().solve(&problem, &initial)?;
    let stage3 = Stage3Solver::new(config.max_stage3_iterations, config.tolerance * 1e-2)
        .with_threads(config.solver_threads)
        .solve(&problem, &initial)?;
    Ok(StageProbe {
        seconds: [stage1.runtime_s, stage2.runtime_s, stage3.runtime_s],
        counts: [stage1.iterations, stage2.nodes_expanded, stage3.iterations],
    })
}
