//! The server proper: listener loop, connection handlers, worker pool,
//! committer, and the watcher that ticks deadlines — all over one
//! [`ServeState`].
//!
//! Thread model: an acceptor thread blocks in `accept()` on the listener,
//! so a connection is picked up the moment it arrives; each accepted
//! connection gets a short-lived handler thread (one request per
//! connection, so handlers are bounded by the socket timeout), which
//! journals a sweep's submits and writes its 202 before the jobs enter
//! the run queue; `threads` long-lived workers drain the queue through
//! [`execute_job`] with per-worker [`SessionPool`]s and hand each done
//! record to the commit stage; one committer thread writes the done
//! records queued since its last commit with one write and one fsync, and
//! only then flips those jobs to done and releases their admission slots.
//! The thread that called [`Server::serve_until`] watches the termination
//! predicate and the drain flag off the request path, and ticks the
//! deadline registry when a deadline is set. On drain (the predicate, or
//! `POST /shutdown`) it wakes the acceptor with one connection of its own,
//! stops admissions, joins every worker once the queue is empty, then the
//! committer once their done records are durable, syncs, and returns
//! `Ok(())` — exit code 0.

use crate::http::{read_request, respond, respond_with, Request};
use crate::spec::JobSpec;
use crate::state::{ServeOptions, ServeState, SubmitError};
use rvv_batch::{execute_job, BackoffPolicy, JobOutcome, SessionPool};
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often the calling thread of [`Server::serve_until`] checks the
/// termination predicate, the drain flag and the acceptor, and ticks the
/// deadline registry.
const WATCH_POLL: Duration = Duration::from_millis(2);
/// Bound on the one connection that wakes the acceptor for a drain.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// A bound, not-yet-running server.
pub struct Server {
    state: Arc<ServeState>,
    listener: TcpListener,
    addr: SocketAddr,
}

/// A server running on background threads (in-process harness for tests
/// and the load client; the binary calls [`Server::serve_until`] on its
/// main thread instead).
pub struct RunningServer {
    /// The bound address.
    pub addr: SocketAddr,
    /// The shared state (tests inspect counters through it).
    pub state: Arc<ServeState>,
    shutdown: Arc<AtomicBool>,
    handle: JoinHandle<io::Result<()>>,
}

impl RunningServer {
    /// Request shutdown and wait for the drain to finish.
    pub fn shutdown(self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.handle.join().expect("server thread panicked")
    }
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and build
    /// the service state — resuming the journal if the options say so.
    pub fn bind(addr: &str, opts: ServeOptions) -> io::Result<Server> {
        let state = ServeState::new(opts)?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            state,
            listener,
            addr,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state.
    pub fn state(&self) -> Arc<ServeState> {
        Arc::clone(&self.state)
    }

    /// Bind and run on a background thread; returns once the listener is
    /// accepting. The in-process form of the service.
    pub fn spawn(addr: &str, opts: ServeOptions) -> io::Result<RunningServer> {
        let server = Server::bind(addr, opts)?;
        let addr = server.local_addr();
        let state = server.state();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = thread::spawn(move || server.serve_until(move || flag.load(Ordering::SeqCst)));
        Ok(RunningServer {
            addr,
            state,
            shutdown,
            handle,
        })
    }

    /// Run until `should_term` returns true or a client posts
    /// `/shutdown`, then drain gracefully: refuse new submissions, let
    /// workers finish (and journal) everything queued, join all threads,
    /// sync the journal, return `Ok(())`. The calling thread polls
    /// `should_term` and the drain flag every few milliseconds; requests
    /// never wait on that poll, since the acceptor blocks in `accept()`
    /// on its own thread. The same loop ticks the deadline registry
    /// ([`ServeState::cancel_overdue`]) when `ServeOptions::deadline` is
    /// set, so `should_term` must return at once: while it blocks, overdue
    /// jobs are not cancelled. An accept error ends the run with that
    /// error.
    pub fn serve_until(self, should_term: impl Fn() -> bool) -> io::Result<()> {
        let Server {
            state,
            listener,
            addr,
        } = self;
        let committer = state.spawn_committer();
        let workers: Vec<JoinHandle<()>> = (0..state.opts.threads.max(1))
            .map(|worker| {
                let state = Arc::clone(&state);
                thread::spawn(move || worker_loop(&state, worker))
            })
            .collect();
        let acceptor = {
            let state = Arc::clone(&state);
            thread::spawn(move || accept_loop(&listener, &state))
        };
        let deadlines = state.opts.deadline.is_some();
        while !acceptor.is_finished() && !state.is_draining() {
            if deadlines {
                state.cancel_overdue(Instant::now());
            }
            if should_term() {
                state.begin_drain();
            } else {
                thread::sleep(WATCH_POLL);
            }
        }
        // One final tick so jobs still draining keep their deadlines
        // during shutdown.
        if deadlines {
            state.cancel_overdue(Instant::now());
        }
        // The acceptor is blocked in accept() unless it died: wake it with
        // a connection of our own (loopback when bound to a wildcard
        // address). Re-sent each poll until it is seen, so a lost
        // connection cannot leave this thread waiting.
        let wake = wake_addr(addr);
        while !acceptor.is_finished() {
            let _ = TcpStream::connect_timeout(&wake, WAKE_TIMEOUT);
            thread::sleep(WATCH_POLL);
        }
        let handlers = acceptor
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("acceptor thread panicked")))?;
        // Drain: workers exit once the queue is empty (begin_drain already
        // woke them), then the committer once it has committed their last
        // done records; handlers are short-lived by construction.
        for w in workers {
            let _ = w.join();
        }
        state.join_committer(committer);
        for h in handlers {
            let _ = h.join();
        }
        state.sync_journal()?;
        Ok(())
    }
}

/// The acceptor: block in `accept()` and hand each connection to a
/// handler thread. The first connection accepted while draining (the
/// wake-up from [`Server::serve_until`], or a client racing it) is still
/// handled, then the loop exits and returns the handlers to join.
fn accept_loop(listener: &TcpListener, state: &Arc<ServeState>) -> io::Result<Vec<JoinHandle<()>>> {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let (stream, _) = listener.accept()?;
        let draining = state.is_draining();
        let state = Arc::clone(state);
        handlers.push(thread::spawn(move || handle_connection(stream, &state)));
        handlers.retain(|h| !h.is_finished());
        if draining {
            return Ok(handlers);
        }
    }
}

/// Where to connect to wake an acceptor bound to `addr`: the address
/// itself, or loopback on the same port when bound to `0.0.0.0` / `::`.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// One worker: block on the queue, honor chaos latency, quarantine
/// breaker-open configurations, run everything else through
/// [`execute_job`] under the deadline token, and hand the result to the
/// commit stage.
fn worker_loop(state: &Arc<ServeState>, worker: usize) {
    let mut pool = SessionPool::new(&state.engine);
    // Retry backoff keyed by the chaos seed (0 when quiet) and, per job,
    // by its queue ordinal — deterministic like everything else derived
    // from `(seed, ordinal)`.
    let backoff = BackoffPolicy::new(state.opts.inject_seed.unwrap_or(0));
    while let Some(job) = state.next_job() {
        let chaos = state.chaos_for(job.id);
        if chaos.latency_ms > 0 {
            thread::sleep(Duration::from_millis(chaos.latency_ms));
        }
        if state.breaker_open(&job.spec.config()) {
            let line = state.quarantine_line(&job);
            state.finish(&job, line, 0, false, false);
            continue;
        }
        let mut batch_job = job
            .spec
            .to_job(format!("job-{}", job.id))
            .retries(state.opts.retries);
        let token = state.arm_deadline(job.id);
        if let Some(t) = &token {
            batch_job = batch_job.cancel_token(t.clone());
        }
        if !chaos.plan.faults.is_empty() {
            let plan = chaos.plan;
            batch_job = batch_job.with_setup(move |env| plan.arm(env));
        }
        let report = execute_job(&batch_job, job.id, &mut pool, worker, &backoff);
        let cancelled = matches!(report.outcome, JobOutcome::Cancelled { .. });
        // `finish` is infallible by design: a failed done-append trips
        // the storage breaker but the in-flight result still drains.
        state.finish(
            &job,
            report.stable_line(),
            report.attempts,
            report.poisoned > 0,
            cancelled,
        );
    }
}

fn parse_specs(body: &str) -> Result<Vec<JobSpec>, String> {
    body.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(|l| l.parse().map_err(|e| format!("{l}: {e}")))
        .collect()
}

fn submit_response(stream: &mut TcpStream, state: &ServeState, body: &str) -> io::Result<()> {
    let specs = match parse_specs(body) {
        Ok(s) => s,
        Err(e) => return respond(stream, 400, &format!("{e}\n")),
    };
    // The 202 goes out from inside the submit, before the jobs can run:
    // a worker that finished them first (or a crash harness that aborted
    // on them) would otherwise beat the acknowledgment to the client.
    let mut acked = Ok(());
    let submitted = state.submit_with_ack(&specs, |sweep, ids| {
        acked = respond(
            stream,
            202,
            &format!("sweep {sweep}\njobs {}..={}\n", ids[0], ids[ids.len() - 1]),
        );
    });
    match submitted {
        Ok(_) => acked,
        Err(SubmitError::Overloaded) => respond_with(
            stream,
            429,
            &["Retry-After: 1".to_string()],
            "queue full, retry later\n",
        ),
        Err(SubmitError::Draining) => respond(stream, 503, "draining, not accepting work\n"),
        Err(SubmitError::Invalid(e)) => respond(stream, 400, &format!("{e}\n")),
        // Storage degraded: the job was NOT acknowledged (durability
        // before acknowledgment); clients retry later while in-flight
        // work drains.
        Err(SubmitError::Storage(e)) => respond(stream, 503, &format!("storage degraded: {e}\n")),
    }
}

fn id_from(path: &str, prefix: &str) -> Option<u64> {
    path.strip_prefix(prefix)?.parse().ok()
}

/// Route one request. The surface is deliberately small and text-only;
/// see the crate docs for the endpoint table.
fn handle_connection(mut stream: TcpStream, state: &Arc<ServeState>) {
    let Ok(Some(Request { method, path, body })) = read_request(&mut stream) else {
        return;
    };
    let result = match (method.as_str(), path.as_str()) {
        ("GET", "/healthz") => {
            if state.is_draining() {
                respond(&mut stream, 503, "draining\n")
            } else if state.storage_is_degraded() {
                respond(&mut stream, 503, "storage=degraded\n")
            } else {
                respond(&mut stream, 200, "ok\n")
            }
        }
        ("GET", "/stats") => respond(&mut stream, 200, &state.stats_text()),
        ("POST", "/jobs") | ("POST", "/sweeps") => submit_response(&mut stream, state, &body),
        ("POST", "/shutdown") => {
            state.begin_drain();
            respond(&mut stream, 202, "draining\n")
        }
        ("POST", "/breakers/reset") => {
            let reopened = state.reset_breakers();
            respond(
                &mut stream,
                200,
                &format!("reset {reopened} open breakers\n"),
            )
        }
        ("GET", p) if p.starts_with("/jobs/") => match id_from(p, "/jobs/") {
            Some(id) => match state.job_text(id) {
                Some(text) => respond(&mut stream, 200, &text),
                None => respond(&mut stream, 404, "unknown job\n"),
            },
            None => respond(&mut stream, 400, "bad job id\n"),
        },
        ("GET", p) if p.starts_with("/sweeps/") => match id_from(p, "/sweeps/") {
            Some(id) => match state.sweep_text(id) {
                Some(text) => respond(&mut stream, 200, &text),
                None => respond(&mut stream, 404, "unknown sweep\n"),
            },
            None => respond(&mut stream, 400, "bad sweep id\n"),
        },
        ("GET", _) => respond(&mut stream, 404, "no such endpoint\n"),
        _ => respond(&mut stream, 405, "method not allowed\n"),
    };
    // A peer that vanished mid-response is its own problem.
    let _ = result;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::request;
    use std::sync::mpsc;

    /// Not a timing claim: only turns a hang into a failure.
    const WATCHDOG: Duration = Duration::from_secs(60);

    /// Run `f` on its own thread; its result arrives on the receiver,
    /// which tests wait on for at most [`WATCHDOG`].
    fn in_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> mpsc::Receiver<T> {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx
    }

    fn wait_for_sweep(addr: &str, sweep: u64) -> String {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (status, body) = request(addr, "GET", &format!("/sweeps/{sweep}"), "").unwrap();
            assert_eq!(status, 200, "{body}");
            if body.starts_with("complete") {
                return body;
            }
            assert!(Instant::now() < deadline, "sweep {sweep} never completed");
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn end_to_end_submit_poll_digest() {
        let server = Server::spawn("127.0.0.1:0", ServeOptions::default()).unwrap();
        let addr = server.addr.to_string();
        let (status, body) = request(&addr, "GET", "/healthz", "").unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (status, body) = request(
            &addr,
            "POST",
            "/sweeps",
            "plus_scan n=100 vlen=256 lmul=m1 seed=1\np_add n=50 vlen=128 lmul=m2 seed=2\n",
        )
        .unwrap();
        assert_eq!(status, 202, "{body}");
        let sweep: u64 = body
            .lines()
            .next()
            .unwrap()
            .strip_prefix("sweep ")
            .unwrap()
            .parse()
            .unwrap();
        let body = wait_for_sweep(&addr, sweep);
        assert!(body.contains("digest=0x"), "{body}");
        assert!(body.contains("job-1 "), "{body}");
        let (status, stats) = request(&addr, "GET", "/stats", "").unwrap();
        assert_eq!(status, 200);
        assert!(stats.contains("completed=2"), "{stats}");
        server.shutdown().unwrap();
    }

    #[test]
    fn unknown_routes_and_ids_are_4xx() {
        let server = Server::spawn("127.0.0.1:0", ServeOptions::default()).unwrap();
        let addr = server.addr.to_string();
        assert_eq!(request(&addr, "GET", "/nope", "").unwrap().0, 404);
        assert_eq!(request(&addr, "GET", "/jobs/999", "").unwrap().0, 404);
        assert_eq!(request(&addr, "GET", "/jobs/abc", "").unwrap().0, 400);
        assert_eq!(request(&addr, "DELETE", "/jobs", "").unwrap().0, 405);
        assert_eq!(request(&addr, "POST", "/jobs", "fizz n=1").unwrap().0, 400);
        server.shutdown().unwrap();
    }

    #[test]
    fn shutdown_endpoint_drains_and_refuses_new_work() {
        let server = Server::spawn("127.0.0.1:0", ServeOptions::default()).unwrap();
        let addr = server.addr.to_string();
        let (status, _) = request(&addr, "POST", "/sweeps", "p_add n=64").unwrap();
        assert_eq!(status, 202);
        let (status, _) = request(&addr, "POST", "/shutdown", "").unwrap();
        assert_eq!(status, 202);
        // Draining refuses new submissions (503), and healthz degrades.
        for _ in 0..100 {
            match request(&addr, "POST", "/sweeps", "p_add n=64") {
                Ok((503, _)) | Err(_) => break,
                Ok((202, _)) => panic!("accepted work while draining"),
                Ok(_) => thread::sleep(Duration::from_millis(2)),
            }
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn shutdown_endpoint_on_an_idle_server_returns() {
        let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
        let addr = server.local_addr().to_string();
        let served = in_thread(move || server.serve_until(|| false));
        let (status, _) = request(&addr, "POST", "/shutdown", "").unwrap();
        assert_eq!(status, 202);
        // No later connection arrives: the server wakes its own acceptor.
        served
            .recv_timeout(WATCHDOG)
            .expect("serve_until did not return")
            .unwrap();
    }

    #[test]
    fn shutdown_returns_on_a_wildcard_bound_server() {
        let server = Server::spawn("0.0.0.0:0", ServeOptions::default()).unwrap();
        assert!(server.addr.ip().is_unspecified());
        let loopback = format!("127.0.0.1:{}", server.addr.port());
        assert_eq!(request(&loopback, "GET", "/healthz", "").unwrap().0, 200);
        in_thread(move || server.shutdown())
            .recv_timeout(WATCHDOG)
            .expect("shutdown did not return")
            .unwrap();
    }

    #[test]
    fn wildcard_binds_are_woken_on_loopback() {
        for (bound, wake) in [
            ("0.0.0.0:7190", "127.0.0.1:7190"),
            ("[::]:7190", "[::1]:7190"),
            ("127.0.0.1:7190", "127.0.0.1:7190"),
            ("[::1]:80", "[::1]:80"),
        ] {
            assert_eq!(wake_addr(bound.parse().unwrap()), wake.parse().unwrap());
        }
    }
}
