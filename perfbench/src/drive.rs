//! The closed loop: [`CONNECTIONS`] client connections against an
//! in-process `TcpServer` on loopback. Each connection sends one frame,
//! waits for the reply frame, and only then sends the next; latency is timed
//! from frame write to reply frame.
//!
//! Between a reply and the next request a connection only scans the reply's
//! leading fields and, for hits, compares the report bytes with the
//! set-up's copy. The first reply of each key is also parsed in full (once
//! per key: for hits that is the working set, for solves every request, at
//! well under 1 % of a solve); all others are dropped after the scan, so
//! the client's memory stays small and `peak_rss_mb` measures the server.
//! The references are checked after the loop.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use quhe_core::fingerprint::Fingerprint;
use quhe_serve::wire::read_frame;
use quhe_serve::{CacheOutcome, WireReply};

use crate::plan::{Plan, CONNECTIONS};

/// One reply as the timed loop saw it.
pub struct Sample {
    /// Key index.
    pub key: u32,
    /// The request's position in the round (see [`Plan::unit_offsets`]).
    pub position: u32,
    /// Seconds from frame write to reply frame.
    pub latency_s: f64,
    /// The reply's `service_wall_s` (NaN for an error envelope).
    pub service_wall_s: f64,
    /// The reply's cache outcome; `None` for an error envelope.
    pub outcome: Option<CacheOutcome>,
    /// Reply frame payload bytes.
    pub bytes: usize,
    /// For keys with a set-up report: whether the reply's report bytes
    /// equal it. `true` for keys without one.
    pub identical: bool,
}

/// The fields of a key's first reply, parsed in full.
pub struct First {
    /// Error kind and message of an error envelope.
    pub error: Option<String>,
    /// The reply's scenario fingerprint.
    pub fingerprint: Option<Fingerprint>,
    /// The report's objective.
    pub objective: f64,
}

/// Everything the timed loop measured.
pub struct LoopOut {
    /// Every reply, in no particular order.
    pub samples: Vec<Sample>,
    /// The first reply of each key (indexed by key).
    pub firsts: Vec<Option<First>>,
    /// Seconds from the common start to the last reply.
    pub wall_s: f64,
}

/// The byte offset of the `"report"` member: the report is the last member
/// of the v2 envelope's `result`, so the report bytes run from here to the
/// end of the frame.
pub fn report_offset(frame: &[u8]) -> Option<usize> {
    find(frame, b"\"report\":")
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The string or number value of a top-level-looking `"name": value`
/// member (the first occurrence), without quotes.
fn field<'a>(frame: &'a [u8], name: &[u8]) -> Option<&'a [u8]> {
    let mut pattern = Vec::with_capacity(name.len() + 3);
    pattern.push(b'"');
    pattern.extend_from_slice(name);
    pattern.extend_from_slice(b"\":");
    let rest = &frame[find(frame, &pattern)? + pattern.len()..];
    let start = rest.iter().position(|b| !b.is_ascii_whitespace())?;
    let rest = &rest[start..];
    if let Some(body) = rest.strip_prefix(b"\"") {
        let end = body.iter().position(|&b| b == b'"')?;
        return Some(&body[..end]);
    }
    let end = rest
        .iter()
        .position(|&b| b == b',' || b == b'\n' || b == b'}')?;
    Some(&rest[..end])
}

/// Scans the leading fields of a reply frame.
fn scan(frame: &[u8]) -> (Option<CacheOutcome>, f64) {
    let ok = field(frame, b"ok") == Some(b"true");
    let outcome = ok
        .then(|| field(frame, b"cache"))
        .flatten()
        .and_then(|tag| std::str::from_utf8(tag).ok())
        .and_then(CacheOutcome::from_tag);
    let wall = field(frame, b"service_wall_s")
        .and_then(|v| std::str::from_utf8(v).ok())
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(f64::NAN);
    (outcome, wall)
}

fn parse_first(frame: &[u8]) -> First {
    let reply = std::str::from_utf8(frame)
        .map_err(|e| e.to_string())
        .and_then(|text| WireReply::from_json(text).map_err(|e| e.to_string()));
    match reply {
        Ok(WireReply::Ok(response)) => First {
            error: None,
            fingerprint: Some(response.fingerprint),
            objective: response.report.objective,
        },
        Ok(WireReply::Err { kind, message, .. }) => First {
            error: Some(format!("{kind}: {message}")),
            fingerprint: None,
            objective: f64::NAN,
        },
        Err(e) => First {
            error: Some(format!("unparseable reply: {e}")),
            fingerprint: None,
            objective: f64::NAN,
        },
    }
}

struct LaneOut {
    samples: Vec<Sample>,
    firsts: Vec<(u32, First)>,
    end: Instant,
}

fn lane(
    addr: SocketAddr,
    plan: &Plan,
    expected_reports: &[Option<Vec<u8>>],
    offsets: &[u32],
    next_unit: &AtomicUsize,
    start: &Barrier,
) -> std::io::Result<LaneOut> {
    let connected = TcpStream::connect(addr).and_then(|stream| {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(stream)
    });
    // Wait even on a failed connect, or the other parties would block.
    start.wait();
    let mut stream = connected?;
    let mut samples = Vec::new();
    let mut firsts = Vec::new();
    let mut seen = vec![false; plan.keys.len()];
    loop {
        let u = next_unit.fetch_add(1, Ordering::Relaxed);
        let Some(unit) = plan.units.get(u) else {
            break;
        };
        for (&key, position) in unit.iter().zip(offsets[u]..) {
            let sent = Instant::now();
            stream.write_all(&plan.keys[key as usize].frame)?;
            let frame = read_frame(&mut stream)?.ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed")
            })?;
            let latency_s = sent.elapsed().as_secs_f64();
            let (outcome, service_wall_s) = scan(&frame);
            let identical = match &expected_reports[key as usize] {
                Some(expected) => {
                    report_offset(&frame).map(|at| &frame[at..]) == Some(expected.as_slice())
                }
                None => true,
            };
            if !std::mem::replace(&mut seen[key as usize], true) {
                firsts.push((key, parse_first(&frame)));
            }
            samples.push(Sample {
                key,
                position,
                latency_s,
                service_wall_s,
                outcome,
                bytes: frame.len(),
                identical,
            });
        }
    }
    Ok(LaneOut {
        samples,
        firsts,
        end: Instant::now(),
    })
}

/// Sends one round of the plan as a closed loop to the server at `addr`.
/// `expected_reports[k]` holds the report bytes key `k` must be answered
/// with (set-up entries), or `None`.
pub fn closed_loop(
    addr: SocketAddr,
    plan: &Plan,
    expected_reports: &[Option<Vec<u8>>],
) -> std::io::Result<LoopOut> {
    let offsets = plan.unit_offsets();
    let next_unit = AtomicUsize::new(0);
    let start = Barrier::new(CONNECTIONS + 1);
    // Times are taken from here: connecting is included, and costs
    // microseconds against seconds of load.
    let started = Instant::now();
    let lanes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| lane(addr, plan, expected_reports, &offsets, &next_unit, &start))
            })
            .collect();
        start.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client connection thread panicked"))
            .collect()
    });
    let mut out = LoopOut {
        samples: Vec::with_capacity(plan.requests()),
        firsts: (0..plan.keys.len()).map(|_| None).collect(),
        wall_s: 0.0,
    };
    for lane in lanes {
        let lane = lane?;
        out.wall_s = out.wall_s.max((lane.end - started).as_secs_f64());
        out.samples.extend(lane.samples);
        for (key, first) in lane.firsts {
            out.firsts[key as usize] = Some(first);
        }
    }
    Ok(out)
}
