//! The socket side of a run: server set-ups with their first touches,
//! and the closed-loop window, every request recorded for the oracle.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use intext_numeric::BigRational;
use intext_serve::{Request, Response};

use crate::child::ServerProcess;
use crate::client::{Conn, Reply};
use crate::trace::Tracer;
use crate::workload::{
    setup_requests, traced_index, Class, Pair, Role, Stream, Workload, COLD_SHAPES, READER_MIN,
    SETUPS, SWEEPER_MIN,
};

/// An answer as it came back, kept for the oracle.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    F64(u64),
    F64s(Vec<u64>),
    Exacts(Vec<BigRational>),
}

impl Answer {
    pub fn of(resp: Response) -> Result<Answer, String> {
        match resp {
            Response::F64(p) => Ok(Answer::F64(p.to_bits())),
            Response::BatchF64(ps) => Ok(Answer::F64s(ps.iter().map(|p| p.to_bits()).collect())),
            Response::Batch(ps) => Ok(Answer::Exacts(ps)),
            other => Err(format!("unexpected response {other:?}")),
        }
    }
}

/// Where a request came from: set-up `r`'s warm-up, or connection
/// `c`'s stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    Setup(usize),
    Conn(usize),
}

pub struct Record {
    pub origin: Origin,
    pub role: Option<Role>,
    pub index: usize,
    pub class: Class,
    pub scenarios: usize,
    pub latency_ns: u64,
    pub traced: bool,
    /// Request + reply frame bytes (traced requests only).
    pub frame_bytes: u64,
    /// The answer, or why there is none (transport failure, typed
    /// refusal, or — after the oracle — a wrong answer).
    pub outcome: Result<Answer, String>,
}

fn outcome(reply: Reply) -> Result<Answer, String> {
    match reply {
        Ok(Ok(resp)) => Answer::of(resp),
        Ok(Err(refused)) => Err(format!("refused: {refused}")),
        Err(transport) => Err(format!("transport: {transport}")),
    }
}

/// Span request id of request `index` on connection `conn`.
pub fn request_id(conn: usize, index: usize) -> u64 {
    ((conn as u64 + 1) << 32) | index as u64
}

/// The connection a span request id belongs to.
pub fn conn_of(request_id: u64) -> Option<usize> {
    ((request_id >> 32) as usize).checked_sub(1)
}

/// Sends set-up `r`'s warm-up (one first touch per warm pair) on a
/// fresh connection.
pub fn warm_up(addr: &str, pairs: &[Pair], seed: u64, r: usize) -> Result<Vec<Record>, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut records = Vec::new();
    for (index, req) in setup_requests(pairs, seed, r).iter().enumerate() {
        let t = Instant::now();
        let reply = conn.request(req);
        records.push(Record {
            origin: Origin::Setup(r),
            role: None,
            index,
            class: Class::Cold,
            scenarios: req.scenarios(),
            latency_ns: t.elapsed().as_nanos() as u64,
            traced: false,
            frame_bytes: 0,
            outcome: outcome(reply),
        });
    }
    Ok(records)
}

/// [`SETUPS`] times: spawn the server, wait for it to listen, answer
/// every warm pair once. Returns the last (warm) server, each set-up's
/// wall time in seconds, and the warm-up records.
pub fn setups(
    binary: &str,
    pairs: &[Pair],
    seed: u64,
) -> Result<(ServerProcess, Vec<f64>, Vec<Record>), String> {
    let mut server = None;
    let mut times = Vec::with_capacity(SETUPS);
    let mut records = Vec::new();
    for r in 0..SETUPS {
        drop(server.take());
        let t0 = Instant::now();
        let s = ServerProcess::spawn(binary)?;
        records.extend(warm_up(s.addr(), pairs, seed, r)?);
        times.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    Ok((server.expect("SETUPS > 0"), times, records))
}

/// What one connection did in the window.
pub struct ConnSummary {
    pub role: Role,
    pub requests: usize,
}

/// One connection's records, summary and spans.
type ConnRun = (Vec<Record>, ConnSummary, Tracer);

pub struct Window {
    pub records: Vec<Record>,
    pub conns: Vec<ConnSummary>,
    pub tracer: Tracer,
}

/// The closed-loop window: one thread per connection, all starting
/// together. Readers and the sweeper run until `seconds` have passed
/// (and at least their minimum count is sent); the cold writer sends
/// exactly [`COLD_SHAPES`] shapes, paced evenly over `seconds`. With
/// `trace`, alternate cycles of each stream take the traced path.
pub fn window(
    addr: &str,
    workload: Workload,
    pairs: &Arc<[Pair]>,
    seed: u64,
    seconds: f64,
    trace: bool,
    epoch: Instant,
) -> Result<Window, String> {
    let roles = workload.roles();
    let start_line = Barrier::new(roles.len());
    let results: Vec<Result<ConnRun, String>> = thread::scope(|s| {
        let handles: Vec<_> = roles
            .iter()
            .enumerate()
            .map(|(c, &role)| {
                let start_line = &start_line;
                let pairs = Arc::clone(pairs);
                s.spawn(move || {
                    let conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"));
                    start_line.wait();
                    let stream = Stream::new(role, c, seed, pairs);
                    Ok(drive(conn?, stream, c, seconds, trace, epoch))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let mut out = Window {
        records: Vec::new(),
        conns: Vec::new(),
        tracer: Tracer::new(epoch),
    };
    for result in results {
        let (records, summary, tracer) = result?;
        out.records.extend(records);
        out.conns.push(summary);
        out.tracer.absorb(tracer);
    }
    Ok(out)
}

fn drive(
    mut conn: Conn,
    mut stream: Stream,
    c: usize,
    seconds: f64,
    trace: bool,
    epoch: Instant,
) -> ConnRun {
    let role = stream.role();
    let mut tracer = Tracer::new(epoch);
    let mut records = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut index = 0;
    loop {
        match role {
            Role::ColdWriter => {
                if index == COLD_SHAPES {
                    break;
                }
                let slot =
                    start + Duration::from_secs_f64(seconds * index as f64 / COLD_SHAPES as f64);
                thread::sleep(slot.saturating_duration_since(Instant::now()));
            }
            Role::Reader | Role::Sweeper => {
                let min = if role == Role::Reader {
                    READER_MIN
                } else {
                    SWEEPER_MIN
                };
                if index >= min && Instant::now() >= deadline {
                    break;
                }
            }
        }
        let generated = stream.next_request();
        let req: &Request = &generated.request;
        let traced = trace && traced_index(role, index);
        let t = Instant::now();
        let (reply, frame_bytes) = if traced {
            conn.request_traced(req, &mut tracer, request_id(c, index))
        } else {
            (conn.request(req), 0)
        };
        let latency_ns = t.elapsed().as_nanos() as u64;
        let transport_failed = reply.is_err();
        records.push(Record {
            origin: Origin::Conn(c),
            role: Some(role),
            index,
            class: generated.class,
            scenarios: req.scenarios(),
            latency_ns,
            traced,
            frame_bytes,
            outcome: outcome(reply),
        });
        index += 1;
        if transport_failed {
            // The socket is in an unknown state: stop this connection.
            break;
        }
    }
    let summary = ConnSummary {
        role,
        requests: records.len(),
    };
    (records, summary, tracer)
}
