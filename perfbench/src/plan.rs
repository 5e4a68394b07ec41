//! Seeded request plans: what each workload sends, in which order, on
//! which connection, and what every reply must look like.
//!
//! A plan is a pure function of `(workload, seed, seconds)`. The load never
//! depends on timing:
//!
//! * requests are grouped into **units** that one connection sends serially
//!   (a drift track, one never-seen world, or a connection's whole hit
//!   stream). Units never share a cache key or a shape bucket, so which
//!   connection picks up which unit cannot change any outcome;
//! * the cache is sized to hold every key (no eviction) and the admission
//!   queue to hold every connection's request (no shedding);
//! * the request count is the workload's nominal rate times `--seconds`,
//!   split over [`ROUNDS`] identical rounds, not "whatever fits in the
//!   time", so the outcome mix is fixed by the plan (see [`WORLD_POOL`] for
//!   what the seed decides).

use std::collections::BTreeSet;

use quhe_core::json::JsonValue;
use quhe_serve::{SolveRequest, PROTOCOL_V2};

/// The five catalogue worlds, in catalogue order.
pub const WORLDS: [&str; 5] = [
    "paper_default",
    "dense_cell",
    "heterogeneous_devices",
    "far_edge",
    "bursty_workload",
];
/// The catalogue's N = 32 world; every other world has N <= 12.
pub const DENSE: &str = "dense_cell";
/// The four N <= 12 worlds.
pub const SMALL: [&str; 4] = [
    "paper_default",
    "heterogeneous_devices",
    "far_edge",
    "bursty_workload",
];

/// Closed-loop connections (and server workers): one per core of the
/// two-core machine the nominal rates were measured on.
pub const CONNECTIONS: usize = 2;

/// Rounds per run. Each round sets up a fresh server and sends the same
/// units, so every round does identical work (a never-seen world is
/// never-seen by each round's server).
pub const ROUNDS: usize = 10;

/// Set-up warm-up of `cold_solve` and `drift_track`: the four small worlds
/// at seeds no plan draws (plans draw 48-bit seeds), so set-up is the same
/// work on every run.
const WARMUP_SEED: u64 = 1 << 60;

/// The stream every plan draws its worlds from, whatever the run seed:
/// per-world solve times are heavy-tailed (a few percent of `dense_cell`
/// worlds take ~6x the median, `far_edge` up to 25x), so worlds drawn per
/// seed moved `cold_solve` and `drift_track` throughput, and `hit_replay`'s
/// set-up time, by several percent between seeds. The run seed orders the
/// fixed worlds: it decides the request order, which connection serves
/// which unit and what runs beside what.
const WORLD_POOL: u64 = 0x5155_4845;

/// `hit_replay`: catalogue seeds per world (half on each connection) and
/// the drift steps cached for each small world's seed.
const HIT_SEEDS_PER_WORLD: usize = 2;
const HIT_DRIFT_STEPS: [usize; 3] = [8, 32, 64];
/// `hit_replay`: Zipf exponent of the popularity ranks.
const HIT_ZIPF: f64 = 1.0;
/// `cold_solve`: one request in this many is a `dense_cell` world.
const COLD_BLOCK: usize = 8;
/// `drift_track`: drifted steps per track after its cold anchor.
const TRACK_STEPS: usize = 20;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipf-popular exact hits on a working set solved during set-up.
    HitReplay,
    /// Never-seen worlds: every request is a cold multi-start solve.
    ColdSolve,
    /// Drift tracks: a cold anchor, then warm near misses step by step.
    DriftTrack,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "hit_replay" => Some(Self::HitReplay),
            "cold_solve" => Some(Self::ColdSolve),
            "drift_track" => Some(Self::DriftTrack),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::HitReplay => "hit_replay",
            Self::ColdSolve => "cold_solve",
            Self::DriftTrack => "drift_track",
        }
    }

    /// Requests per second this workload sustains at [`CONNECTIONS`]
    /// connections on a two-core x86-64 machine; sizes a run to about
    /// `--seconds` of load.
    fn nominal_rps(self) -> f64 {
        match self {
            Self::HitReplay => 4500.0,
            Self::ColdSolve => 35.0,
            Self::DriftTrack => 75.0,
        }
    }

    /// The latency-tail quantile: the highest of p90, p95, p98, p99 and
    /// p99.9 with at least ten samples beyond it in one round of a 30 s
    /// run (13,500, 112 and 252 requests).
    pub fn tail_quantile(self) -> f64 {
        match self {
            Self::HitReplay => 0.999,
            Self::ColdSolve => 0.9,
            Self::DriftTrack => 0.95,
        }
    }
}

/// What the reply to a key must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// An exact hit on a set-up entry.
    Hit,
    /// A cold solve.
    Cold,
    /// A warm near miss: `warm` or `warm_fallback`.
    WarmPath,
}

/// One distinct request.
pub struct Key {
    /// The request (its id is `k<index>`).
    pub request: SolveRequest,
    /// The `quhe-serve/v2` request body.
    pub json: String,
    /// The framed body: 4-byte big-endian length, then `json`.
    pub frame: Vec<u8>,
    /// Whether the world is `dense_cell`.
    pub dense: bool,
    /// Whether the scenario is a drifted variant.
    pub drifted: bool,
    /// The reply the key must get in the timed loop.
    pub expect: Expect,
}

/// A workload's seeded plan.
pub struct Plan {
    /// Every distinct request of the timed loop and the warm-up.
    pub keys: Vec<Key>,
    /// Keys the set-up solves serially, in order.
    pub warmup: Vec<u32>,
    /// Units of one round of the timed loop, each sent serially on one
    /// connection.
    pub units: Vec<Vec<u32>>,
}

impl Plan {
    /// Requests in one round of the timed loop.
    pub fn requests(&self) -> usize {
        self.units.iter().map(Vec::len).sum()
    }

    /// Position of each unit's first request: a round's requests are
    /// numbered in unit order, so a request has the same position in every
    /// round whichever connection sends it.
    pub fn unit_offsets(&self) -> Vec<u32> {
        self.units
            .iter()
            .scan(0u32, |next, unit| {
                let first = *next;
                *next += unit.len() as u32;
                Some(first)
            })
            .collect()
    }

    /// Cache capacity that holds every key with room to spare.
    pub fn cache_capacity(&self) -> usize {
        self.keys.len() + 64
    }
}

/// SplitMix64: a small seeded generator, so plans depend on nothing but
/// the seed.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Draws distinct 48-bit scenario seeds.
struct SeedDraw {
    rng: Rng,
    used: BTreeSet<u64>,
}

impl SeedDraw {
    fn new(seed: u64) -> Self {
        Self {
            rng: Rng::new(seed, 1),
            used: BTreeSet::new(),
        }
    }

    fn fresh(&mut self) -> u64 {
        loop {
            let s = self.rng.next_u64() >> 16;
            if self.used.insert(s) {
                return s;
            }
        }
    }
}

/// Accumulates keys and assigns their wire bodies.
struct Keys {
    keys: Vec<Key>,
}

impl Keys {
    fn push(&mut self, request: SolveRequest, expect: Expect) -> u32 {
        let index = self.keys.len();
        let request = request.with_id(&format!("k{index}"));
        let mut body = request.to_json_value();
        body.set("proto", JsonValue::String(PROTOCOL_V2.to_string()));
        let json = body.to_compact_string();
        let mut frame = Vec::with_capacity(json.len() + 4);
        frame.extend_from_slice(&(json.len() as u32).to_be_bytes());
        frame.extend_from_slice(json.as_bytes());
        let (dense, drifted) = match &request.scenario {
            quhe_serve::ScenarioSpec::Catalog { name, .. } => (name == DENSE, false),
            quhe_serve::ScenarioSpec::Drifted { name, .. } => (name == DENSE, true),
            quhe_serve::ScenarioSpec::Inline(_) => (false, false),
        };
        self.keys.push(Key {
            request,
            json,
            frame,
            dense,
            drifted,
            expect,
        });
        index as u32
    }
}

/// Builds the plan.
pub fn build(workload: Workload, seed: u64, seconds: u64) -> Plan {
    let mut draw = SeedDraw::new(WORLD_POOL);
    let mut order = Rng::new(seed, 2);
    let mut b = Keys { keys: Vec::new() };
    // Requests per round: the run's share of `--seconds` of load.
    let target = (workload.nominal_rps() * seconds as f64 / ROUNDS as f64)
        .round()
        .max(1.0) as usize;

    let (warmup, units) = match workload {
        Workload::HitReplay => {
            // Popularity ranks follow a fixed template of (variant, world)
            // slots, identical on both connections.
            let slots = HIT_SEEDS_PER_WORLD / CONNECTIONS;
            // Drawn first, before the other worlds' seeds.
            let dense: Vec<u64> = (0..slots * CONNECTIONS).map(|_| draw.fresh()).collect();
            let mut dense = dense.into_iter();
            let mut catalog = Vec::new();
            let mut drifted = Vec::new();
            let mut lanes: [Vec<u32>; CONNECTIONS] = Default::default();
            for _ in 0..slots {
                for ranked in &mut lanes {
                    let seeds: Vec<(&str, u64)> = WORLDS
                        .iter()
                        .map(|&w| match w {
                            DENSE => (w, dense.next().expect("one dense seed per slot")),
                            _ => (w, draw.fresh()),
                        })
                        .collect();
                    for &(w, s) in &seeds {
                        let k = b.push(SolveRequest::catalog(w, s), Expect::Hit);
                        catalog.push(k);
                        ranked.push(k);
                    }
                    for step in HIT_DRIFT_STEPS {
                        for &(w, s) in seeds.iter().filter(|(w, _)| *w != DENSE) {
                            let k = b.push(SolveRequest::drifted(w, s, step), Expect::Hit);
                            drifted.push(k);
                            ranked.push(k);
                        }
                    }
                }
            }
            let per_lane = target.div_ceil(CONNECTIONS);
            let units = lanes
                .iter()
                .map(|ranked| {
                    let mut stream = zipf_quotas(ranked, per_lane, HIT_ZIPF);
                    order.shuffle(&mut stream);
                    stream
                })
                .collect();
            // Anchors first, so every drifted key is served from its
            // catalogue anchor exactly as a live stream would.
            catalog.extend(drifted);
            (catalog, units)
        }
        Workload::ColdSolve => {
            let warmup = small_warmup(&mut b);
            let blocks = target.div_ceil(COLD_BLOCK);
            let dense: Vec<u64> = (0..blocks).map(|_| draw.fresh()).collect();
            let mut units = Vec::with_capacity(blocks * COLD_BLOCK);
            let mut small = 0usize;
            for s in dense {
                let mut block = vec![vec![b.push(SolveRequest::catalog(DENSE, s), Expect::Cold)]];
                for _ in 1..COLD_BLOCK {
                    let w = SMALL[small % SMALL.len()];
                    small += 1;
                    let s = draw.fresh();
                    block.push(vec![b.push(SolveRequest::catalog(w, s), Expect::Cold)]);
                }
                order.shuffle(&mut block);
                units.extend(block);
            }
            (warmup, units)
        }
        Workload::DriftTrack => {
            let warmup = small_warmup(&mut b);
            let tracks = (target / (TRACK_STEPS + 1)).div_ceil(SMALL.len()).max(1) * SMALL.len();
            let mut units: Vec<Vec<u32>> = (0..tracks)
                .map(|t| {
                    let w = SMALL[t % SMALL.len()];
                    let s = draw.fresh();
                    let mut track = vec![b.push(SolveRequest::catalog(w, s), Expect::Cold)];
                    for step in 1..=TRACK_STEPS {
                        track.push(b.push(SolveRequest::drifted(w, s, step), Expect::WarmPath));
                    }
                    track
                })
                .collect();
            order.shuffle(&mut units);
            (warmup, units)
        }
    };
    Plan {
        keys: b.keys,
        warmup,
        units,
    }
}

/// Set-up of `cold_solve` and `drift_track`: each small world cold, then a
/// drifted step of it (a warm near miss), then one repeat (an exact hit), so
/// every serve path has run before timing starts.
fn small_warmup(b: &mut Keys) -> Vec<u32> {
    let cold: Vec<u32> = SMALL
        .iter()
        .map(|w| b.push(SolveRequest::catalog(w, WARMUP_SEED), Expect::Cold))
        .collect();
    let warm = SMALL
        .iter()
        .map(|w| b.push(SolveRequest::drifted(w, WARMUP_SEED, 1), Expect::WarmPath));
    let mut warmup = cold.clone();
    warmup.extend(warm);
    warmup.push(cold[0]);
    warmup
}

/// A request stream of `total` key indices in which the key at popularity
/// rank `r` (0-based) appears in proportion to `1 / (r + 1)^exponent`.
/// Counts are exact quotas (largest remainder), not random draws, so the
/// mix is identical on every seed.
fn zipf_quotas(ranked: &[u32], total: usize, exponent: f64) -> Vec<u32> {
    let weights: Vec<f64> = (0..ranked.len())
        .map(|r| 1.0 / ((r + 1) as f64).powf(exponent))
        .collect();
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..ranked.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .total_cmp(&(exact[a] - exact[a].floor()))
            .then(a.cmp(&b))
    });
    let short = total - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().take(short) {
        counts[r] += 1;
    }
    ranked
        .iter()
        .zip(counts)
        .flat_map(|(&k, c)| std::iter::repeat_n(k, c))
        .collect()
}
