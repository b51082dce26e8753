//! Load generation through [`Server`]: a closed loop of client threads and
//! an open loop of Poisson arrivals.
//!
//! Closed loop: each client sends its next request when the previous one
//! is answered, and a request is timed from submit to answer. Open loop:
//! one generator thread submits on a fixed schedule whatever the server
//! does, one collector thread waits on the tickets in submission order,
//! and a request is timed from when it was *due*, so a stall that delays
//! later submissions counts against them.
//!
//! The server drains its whole queue into one engine pass (`max_batch` 64
//! exceeds any queue a valid run builds) and answers a pass's requests
//! together, so answers arrive in submission order and a collector
//! waiting in that order sees each answer when it arrives.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bond::Scored;
use bond_exec::{QueryOutcome, Server, Ticket};

use crate::trace::{SpanRec, Tracer};
use crate::workload::{Request, SplitMix};

/// What the benchmark keeps of one answer.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The hits, best first.
    pub hits: Vec<Scored>,
    /// Per segment, the code width the quantized first pass swept (0 when
    /// none ran).
    pub filter_bits: Vec<u8>,
}

impl From<QueryOutcome> for Answer {
    fn from(outcome: QueryOutcome) -> Answer {
        let filter_bits = outcome.segments.iter().map(|s| s.trace.filter_bits).collect();
        Answer { hits: outcome.hits, filter_bits }
    }
}

/// One finished request.
#[derive(Debug, Clone)]
pub struct Done {
    /// Position in the run's request stream.
    pub id: u64,
    /// When the clock started: submit (closed loop) or due time (open).
    pub start: Instant,
    /// When the answer was in hand.
    pub end: Instant,
    /// How late the submit started against its due time (open loop).
    pub late: Duration,
    /// The answer, or the error of `submit` or `wait`.
    pub result: Result<Answer, String>,
}

impl Done {
    /// Latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// The requests of one measured window.
#[derive(Debug)]
pub struct Window {
    /// Every request timed in the window, by id.
    pub done: Vec<Done>,
    /// Requests due before the window ended and answered after it: the
    /// backlog the window left (open loop; 0 for closed loops).
    pub backlog: usize,
    /// The next unused id of the request stream.
    pub next_id: u64,
}

/// Answered requests per second: the median over `windows` of each
/// window's requests over the time from its first clock start to its
/// last answer.
pub fn qps<'a>(windows: impl IntoIterator<Item = &'a Window>) -> f64 {
    let rates: Vec<f64> = windows
        .into_iter()
        .filter_map(|w| {
            let first = w.done.iter().map(|d| d.start).min()?;
            let last = w.done.iter().map(|d| d.end).max()?;
            Some(w.done.len() as f64 / last.duration_since(first).as_secs_f64())
        })
        .collect();
    crate::stats::median(&rates)
}

/// A timed window served in slices, with the host-speed probe
/// ([`crate::scan`]) timed before the first slice and after each one.
#[derive(Debug)]
pub struct Sliced {
    /// The slices, in the order they were served.
    pub slices: Vec<Window>,
    /// Scan times in milliseconds: `scan_ms[i]` and `scan_ms[i + 1]`
    /// bracket slice `i`.
    pub scan_ms: Vec<f64>,
}

impl Sliced {
    /// Every request kept, slice by slice.
    pub fn done(&self) -> impl Iterator<Item = &Done> {
        self.slices.iter().flat_map(|w| &w.done)
    }

    /// Every request's latency in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.done().map(Done::latency_ms).collect()
    }

    /// Every request's latency over the mean of the two scan times around
    /// its slice.
    pub fn relative_latencies(&self) -> Vec<f64> {
        self.slices
            .iter()
            .enumerate()
            .flat_map(|(i, w)| {
                let scan = (self.scan_ms[i] + self.scan_ms[i + 1]) / 2.0;
                w.done.iter().map(move |d| d.latency_ms() / scan)
            })
            .collect()
    }

    /// The next unused id of the request stream.
    pub fn next_id(&self) -> u64 {
        self.slices.last().map_or(0, |w| w.next_id)
    }
}

/// Serves `serve(first_id)` slice after slice, timing `probe` before the
/// first and after each, until `window` has passed and `min_samples`
/// requests are kept, but not beyond `max_window`.
pub fn sliced(
    first_id: u64,
    window: Duration,
    min_samples: usize,
    max_window: Duration,
    mut serve: impl FnMut(u64) -> Window,
    mut probe: impl FnMut() -> f64,
) -> Sliced {
    let mut run = Sliced { slices: Vec::new(), scan_ms: vec![probe()] };
    let begin = Instant::now();
    let mut next = first_id;
    let mut kept = 0;
    loop {
        let w = serve(next);
        next = w.next_id;
        kept += w.done.len();
        run.slices.push(w);
        run.scan_ms.push(probe());
        let t = begin.elapsed();
        if (t >= window && kept >= min_samples) || t >= max_window {
            return run;
        }
    }
}

/// The pool entry request `id` sends.
pub fn request(pool: &[Request], id: u64) -> &Request {
    &pool[(id % pool.len() as u64) as usize]
}

/// Submits one request and waits for its answer, inside `service.submit`
/// and `service.wait` spans under a `request` root when traced.
fn serve(
    server: &Server,
    req: &Request,
    id: u64,
    tracer: Option<&Tracer>,
) -> Result<Answer, String> {
    let spec = req.spec.clone();
    let Some(t) = tracer else {
        return server
            .submit(spec)
            .and_then(Ticket::wait)
            .map(Answer::from)
            .map_err(|e| e.to_string());
    };
    t.span("request", None, id, |root| {
        let ticket = t.span("service.submit", Some(root), id, |_| server.submit(spec));
        let outcome =
            ticket.and_then(|ticket| t.span("service.wait", Some(root), id, |_| ticket.wait()));
        outcome.map(Answer::from).map_err(|e| e.to_string())
    })
}

/// Runs `clients` closed-loop clients from stream position `first_id`.
/// Each client sends requests until one ends after `window` has passed.
pub fn closed_loop(
    server: &Server,
    pool: &[Request],
    clients: usize,
    first_id: u64,
    window: Duration,
    tracer: Option<&Tracer>,
) -> Window {
    let next = AtomicU64::new(first_id);
    let end_at = Instant::now() + window;
    // ordering: relaxed — the counter only hands out ids; every result
    // travels back through the thread joins.
    let client = || {
        let mut mine = Vec::new();
        loop {
            let id = next.fetch_add(1, Ordering::Relaxed);
            let start = Instant::now();
            let result = serve(server, request(pool, id), id, tracer);
            let end = Instant::now();
            mine.push(Done { id, start, end, late: Duration::ZERO, result });
            if end >= end_at {
                return mine;
            }
        }
    };
    let mut done: Vec<Done> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients).map(|_| s.spawn(client)).collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    done.sort_by_key(|d| d.id);
    Window { done, backlog: 0, next_id: next.into_inner() }
}

/// A submitted request on its way to the collector.
struct InFlight {
    id: u64,
    due: Instant,
    late: Duration,
    ticket: Result<Ticket, String>,
    /// The root span id and the submit span, when traced.
    spans: Option<(u32, SpanRec)>,
}

/// Runs the open loop: Poisson arrivals at `rate` per second from stream
/// position `first_id` for `window`, and waits for every answer.
pub fn open_loop(
    server: &Server,
    pool: &[Request],
    rate: f64,
    first_id: u64,
    window: Duration,
    seed: u64,
    tracer: Option<&Tracer>,
) -> Window {
    let mut rng = SplitMix::new(seed);
    let mut offsets = Vec::new();
    let mut at = 0.0f64;
    loop {
        // exponential gaps: -ln(1 - U) / rate
        at += -(1.0 - rng.next_f64()).ln() / rate;
        if at >= window.as_secs_f64() {
            break;
        }
        offsets.push(Duration::from_secs_f64(at));
    }
    let begin = Instant::now() + Duration::from_millis(5);
    let window_end = begin + window;
    let (tx, rx) = mpsc::channel::<InFlight>();
    let generator = || {
        for (i, &offset) in offsets.iter().enumerate() {
            let id = first_id + i as u64;
            let due = begin + offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let submitted = Instant::now();
            let late = submitted.saturating_duration_since(due);
            let spec = request(pool, id).spec.clone();
            let (ticket, spans) = match tracer {
                None => (server.submit(spec), None),
                Some(t) => {
                    let root = t.alloc_id();
                    let sid = t.alloc_id();
                    let start_ns = t.now_ns();
                    let ticket = server.submit(spec);
                    let end_ns = t.now_ns();
                    let rec = SpanRec {
                        id: sid,
                        parent: Some(root),
                        request: id,
                        name: "service.submit",
                        start_ns,
                        end_ns,
                    };
                    (ticket, Some((root, rec)))
                }
            };
            let ticket = ticket.map_err(|e| e.to_string());
            tx.send(InFlight { id, due, late, ticket, spans }).expect("collector alive");
        }
        drop(tx);
    };
    let collector = || {
        let mut done = Vec::new();
        for f in rx {
            let result = match (f.ticket, tracer, &f.spans) {
                (Err(e), _, _) => Err(e),
                (Ok(ticket), Some(t), Some((root, _))) => t
                    .span("service.wait", Some(*root), f.id, |_| ticket.wait())
                    .map(Answer::from)
                    .map_err(|e| e.to_string()),
                (Ok(ticket), _, _) => ticket.wait().map(Answer::from).map_err(|e| e.to_string()),
            };
            let end = Instant::now();
            if let (Some(t), Some((root, submit))) = (tracer, f.spans) {
                t.record(submit);
                t.record(SpanRec {
                    id: root,
                    parent: None,
                    request: f.id,
                    name: "request",
                    start_ns: t.at_ns(f.due),
                    end_ns: t.at_ns(end),
                });
            }
            done.push(Done { id: f.id, start: f.due, end, late: f.late, result });
        }
        done
    };
    let done = std::thread::scope(|s| {
        let g = s.spawn(generator);
        let c = s.spawn(collector);
        g.join().expect("generator thread");
        c.join().expect("collector thread")
    });
    let backlog = done.iter().filter(|d| d.end >= window_end).count();
    Window { done, backlog, next_id: first_id + offsets.len() as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(latencies_ms: &[u64], next_id: u64) -> Window {
        let start = Instant::now();
        let done = latencies_ms
            .iter()
            .enumerate()
            .map(|(i, &ms)| Done {
                id: i as u64,
                start,
                end: start + Duration::from_millis(ms),
                late: Duration::ZERO,
                result: Err(String::new()),
            })
            .collect();
        Window { done, backlog: 0, next_id }
    }

    #[test]
    fn latencies_are_relative_to_the_scans_around_their_slice() {
        // slice 0 lies between scans of 10 and 30 ms, slice 1 between 30
        // and 50 ms: the same 20 ms latency reads 1.0 and then 0.5
        let run = Sliced {
            slices: vec![window(&[20, 40], 2), window(&[20], 3)],
            scan_ms: vec![10.0, 30.0, 50.0],
        };
        assert_eq!(run.latencies_ms(), vec![20.0, 40.0, 20.0]);
        assert_eq!(run.relative_latencies(), vec![1.0, 2.0, 0.5]);
        assert_eq!(run.next_id(), 3);
    }

    #[test]
    fn sliced_probes_around_every_slice_until_window_and_samples() {
        let mut probes = 0;
        let run = sliced(
            5,
            Duration::ZERO,
            3,
            Duration::from_secs(60),
            |id| window(&[1], id + 1),
            || {
                probes += 1;
                1.0
            },
        );
        // one request a slice: three slices for three samples
        assert_eq!(run.slices.len(), 3);
        assert_eq!(run.scan_ms.len(), 4);
        assert_eq!(probes, 4);
        assert_eq!(run.next_id(), 8);
    }
}
