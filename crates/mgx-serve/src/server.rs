//! The TCP front end: a line-delimited JSON protocol over
//! `std::net::TcpListener`, one thread per connection, one response line
//! per request line.
//!
//! # Protocol
//!
//! Requests are single-line JSON objects selected by `"op"`:
//!
//! | op | fields | reply |
//! |---|---|---|
//! | `submit` | `spec` (see [`crate::codec::spec_from_wire`]) | `{"ok":true,"job":"<16-hex>","status":...,"cached":bool}` |
//! | `poll` | `job` | `{"ok":true,"job":...,"status":"queued\|running\|done\|failed"}` |
//! | `fetch` | `job` | the stored result document itself, verbatim |
//! | `run` | `spec` | submit + fetch in one round trip (reply = document) |
//! | `metrics` | `format` (optional) | the full observability registry: line-JSON dialect by default, `"format":"prometheus"` for the text exposition (as an escaped `exposition` string) |
//! | `suites` | — | the workload registry with one-line descriptions |
//! | `shutdown` | — | `{"ok":true,"draining":true}`, then graceful drain |
//! | anything else | — | `{"ok":false,"error":...}` |
//!
//! A request line longer than 64 KiB (65,536 bytes before its `\n`) is
//! never buffered whole: the server skips it through its `\n`, replies
//! `{"ok":false,"error":"request line exceeds 65536 bytes"}`, counts it
//! under `op="invalid"` and keeps serving the connection.
//!
//! `fetch`/`run` reply with the result document **verbatim** (the bytes
//! the store holds), so a cached response is bit-identical to the cold
//! one and to a direct [`JobSpec::result_json`] call — the property the
//! e2e tests diff for.
//!
//! `metrics` is the service's one counter surface: it renders the
//! [`mgx_obs`] atomics the store, scheduler and request layer update (one
//! shared [`Registry`] per server). Besides the store and job families it
//! carries per-op request counts and latency histograms
//! (`mgx_requests_total{op=…}`, `mgx_request_ns{op=…}`, registered for
//! every op at boot, so each reads 0 until used), the queue-wait vs
//! execute decomposition, and the open-connection gauge.
//!
//! # Shutdown
//!
//! Everything runs on flag-check loops rather than blocking forever: the
//! accept loop polls a nonblocking listener, and connection readers use a
//! short read timeout and re-check the flag between attempts. A reply
//! write that stalls for 2 s ends its connection, so a client that
//! pipelines requests and never reads the replies cannot pin the drain. A
//! `shutdown` op (or, when a store directory is configured, an external
//! `touch <dir>/shutdown` — the std-only stand-in for SIGTERM, since
//! installing a real signal handler needs `libc` and the build is
//! offline) flips the flag; the accept loop then stops accepting, the
//! scheduler drains every job already accepted, the disk store is
//! flushed, and connection threads are joined.
//!
//! [`JobSpec::result_json`]: mgx_sim::job::JobSpec::result_json

use crate::codec::{spec_from_wire, spec_to_wire};
use crate::json::{self, Json};
use crate::scheduler::{Scheduler, SchedulerConfig, Submitted};
use crate::store::{ResultStore, StoreConfig};
use mgx_obs::{Counter, Gauge, Histogram, Registry};
use mgx_sim::job::Suite;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Everything the daemon needs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port — see
    /// [`Handle::addr`]).
    pub addr: String,
    /// Worker pool and queue bound.
    pub scheduler: SchedulerConfig,
    /// Result-store tiers.
    pub store: StoreConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            scheduler: SchedulerConfig::default(),
            store: StoreConfig::default(),
        }
    }
}

/// A handle to an in-process server (tests and the `serve` binary).
pub struct Handle {
    /// The bound address (real port even when the config said `:0`).
    pub addr: SocketAddr,
    thread: std::thread::JoinHandle<io::Result<()>>,
    stop: Arc<AtomicBool>,
}

impl Handle {
    /// Requests a graceful drain without a client connection.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Waits for the server to exit (drain finished, threads joined).
    pub fn join(self) -> io::Result<()> {
        self.thread.join().expect("server thread must not panic")
    }
}

/// Binds, then serves on a background thread; returns once the port is
/// known so callers can connect immediately.
pub fn spawn(cfg: ServerConfig) -> io::Result<Handle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let flag = stop.clone();
    let thread = std::thread::spawn(move || serve_on(listener, cfg, flag));
    Ok(Handle { addr, thread, stop })
}

fn sentinel_path(cfg: &ServerConfig) -> Option<PathBuf> {
    cfg.store.disk.as_ref().map(|d| d.join("shutdown"))
}

/// The longest request line served, in bytes before its `\n`. The cap is
/// what bounds a connection's read buffer.
const MAX_LINE: usize = 64 << 10;

/// How long one send of a reply may block before the connection is
/// dropped. A client that stops reading holds its connection thread, and
/// with it the graceful drain, for about two of these at most: a send
/// that stalls after copying part of a reply returns that part when the
/// timeout expires, and the next send fails.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// The op labels the request meters are kept under: the ops the protocol
/// serves, then `invalid` (the line is not JSON, or is over
/// [`MAX_LINE`]) and `unknown` (it names no served op).
const OP_LABELS: [&str; 9] =
    ["submit", "poll", "fetch", "run", "metrics", "suites", "shutdown", "invalid", "unknown"];
/// Index of `invalid` in [`OP_LABELS`]; every label before it is a served op.
const INVALID: usize = 7;
const UNKNOWN: usize = 8;

/// The request layer's meters, registered once per server so that
/// counting a request formats no metric name and takes no registry lock.
/// `requests` and `latency` are indexed like [`OP_LABELS`].
struct RequestMeters {
    requests: [Arc<Counter>; OP_LABELS.len()],
    latency: [Arc<Histogram>; OP_LABELS.len()],
    connections_open: Arc<Gauge>,
}

impl RequestMeters {
    fn register(registry: &Registry) -> Self {
        Self {
            requests: OP_LABELS.map(|op| {
                registry.counter_with("mgx_requests_total", &[("op", op)], "requests by op")
            }),
            latency: OP_LABELS.map(|op| {
                let help = "request service time by op";
                registry.histogram_with("mgx_request_ns", &[("op", op)], help)
            }),
            connections_open: registry.gauge("mgx_connections_open", "live client connections"),
        }
    }
}

fn serve_on(listener: TcpListener, cfg: ServerConfig, stop: Arc<AtomicBool>) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    // One registry per server: the store, the scheduler, and the protocol
    // layer all register their metrics here, and the `metrics` op renders
    // it.
    let registry = Arc::new(Registry::new());
    let store = Arc::new(ResultStore::open(cfg.store.clone(), &registry)?);
    let scheduler = Arc::new(Scheduler::new(cfg.scheduler.clone(), store, &registry));
    let meters = Arc::new(RequestMeters::register(&registry));
    let sentinel = sentinel_path(&cfg);
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let scheduler = scheduler.clone();
                let registry = registry.clone();
                let meters = meters.clone();
                let stop = stop.clone();
                connections.push(std::thread::spawn(move || {
                    meters.connections_open.add(1);
                    // Connection errors (peer reset mid-line, broken pipe)
                    // only end that connection.
                    let _ = handle_connection(stream, &scheduler, &registry, &meters, &stop);
                    meters.connections_open.sub(1);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if let Some(p) = &sentinel {
                    if p.exists() {
                        let _ = std::fs::remove_file(p);
                        stop.store(true, Ordering::SeqCst);
                    }
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
        connections.retain(|h| !h.is_finished());
    }
    // Graceful drain: finish everything accepted, then let the in-flight
    // fetches observe completion and the readers observe the flag.
    scheduler.drain();
    for h in connections {
        let _ = h.join();
    }
    Ok(())
}

/// Reads one `\n`-terminated line from a stream with a read timeout,
/// preserving partial bytes across timeouts and re-checking `stop`.
/// `Ok(None)` = clean EOF or shutdown; `Ok(Some(None))` = the line was
/// longer than [`MAX_LINE`] and has been skipped through its `\n`.
fn read_line_with_flag(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    stop: &AtomicBool,
) -> io::Result<Option<Option<String>>> {
    buf.clear();
    let mut overlong = false;
    loop {
        // At most `MAX_LINE + 1` bytes are held: one more than a served
        // line's content, so a full buffer without `\n` is over the cap.
        let room = (MAX_LINE + 1 - buf.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', buf) {
            Ok(0) => {
                return Ok(None); // EOF
            }
            Ok(_) if buf.last() == Some(&b'\n') => {
                if overlong {
                    return Ok(Some(None));
                }
                buf.pop();
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
                let line = String::from_utf8_lossy(buf).into_owned();
                return Ok(Some(Some(line)));
            }
            // Past the cap, drop what was read and read on to the `\n`.
            Ok(_) if buf.len() > MAX_LINE => {
                overlong = true;
                buf.clear();
            }
            // A read timeout mid-line leaves what was read in `buf`;
            // loop to keep appending unless we are shutting down.
            Ok(_) => {}
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if stop.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    scheduler: &Scheduler,
    registry: &Registry,
    meters: &RequestMeters,
    stop: &Arc<AtomicBool>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(250)))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    while let Some(line) = read_line_with_flag(&mut reader, &mut buf, stop)? {
        if line.as_deref().is_some_and(|l| l.trim().is_empty()) {
            continue;
        }
        // Per-op request accounting: the latency span covers the whole
        // dispatch, including any `fetch_wait` blocking — exactly what
        // the client experiences past the socket.
        let started = std::time::Instant::now();
        let (reply, op) = match line {
            Some(line) => dispatch(&line, scheduler, registry, stop),
            None => (error_reply(&format!("request line exceeds {MAX_LINE} bytes")), INVALID),
        };
        meters.requests[op].inc();
        meters.latency[op].record_duration(started.elapsed());
        writer.write_all(reply.as_bytes())?;
        if !reply.ends_with('\n') {
            writer.write_all(b"\n")?;
        }
        writer.flush()?;
    }
    Ok(())
}

fn error_reply(msg: &str) -> String {
    json::obj(vec![("ok", Json::Bool(false)), ("error", json::str(msg))]).render()
}

fn parse_job_id(req: &Json) -> Result<u64, String> {
    let hex = req.get("job").and_then(Json::as_str).ok_or("missing `job` id")?;
    u64::from_str_radix(hex, 16).map_err(|_| format!("`{hex}` is not a 16-hex job id"))
}

/// Serves one request line, returning the reply and the index in
/// [`OP_LABELS`] the request is metered under.
fn dispatch(
    line: &str,
    scheduler: &Scheduler,
    registry: &Registry,
    stop: &Arc<AtomicBool>,
) -> (String, usize) {
    let req = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return (error_reply(&format!("bad request JSON: {e}")), INVALID),
    };
    let name = req.get("op").and_then(Json::as_str).unwrap_or("");
    let served = &OP_LABELS[..INVALID];
    let op = served.iter().position(|&label| label == name).unwrap_or(UNKNOWN);
    let reply = match name {
        "submit" => {
            let Some(spec) = req.get("spec") else {
                return (error_reply("submit needs a `spec` object"), op);
            };
            match spec_from_wire(spec).and_then(|s| scheduler.submit(s)) {
                Ok((digest, how)) => {
                    let status = scheduler
                        .status(digest)
                        .map(|s| s.label().to_string())
                        .unwrap_or_else(|| "done".into());
                    json::obj(vec![
                        ("ok", Json::Bool(true)),
                        ("job", json::str(format!("{digest:016x}"))),
                        ("status", json::str(status)),
                        ("cached", Json::Bool(how == Submitted::Cached)),
                        ("coalesced", Json::Bool(how == Submitted::Coalesced)),
                    ])
                    .render()
                }
                Err(e) => error_reply(&e),
            }
        }
        "poll" => match parse_job_id(&req) {
            Ok(digest) => match scheduler.status(digest) {
                Some(st) => json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("job", json::str(format!("{digest:016x}"))),
                    ("status", json::str(st.label())),
                ])
                .render(),
                None => error_reply("unknown job; submit it first"),
            },
            Err(e) => error_reply(&e),
        },
        "fetch" => match parse_job_id(&req) {
            Ok(digest) => match scheduler.fetch_wait(digest) {
                Ok(doc) => doc.to_string(),
                Err(e) => error_reply(&e.to_string()),
            },
            Err(e) => error_reply(&e),
        },
        "run" => {
            let Some(spec) = req.get("spec") else {
                return (error_reply("run needs a `spec` object"), op);
            };
            match spec_from_wire(spec).and_then(|s| scheduler.submit(s)) {
                Ok((digest, _)) => match scheduler.fetch_wait(digest) {
                    Ok(doc) => doc.to_string(),
                    Err(e) => error_reply(&e.to_string()),
                },
                Err(e) => error_reply(&e),
            }
        }
        "metrics" => {
            let format = req.get("format").and_then(Json::as_str).unwrap_or("json");
            match format {
                // The registry's one-line dialect is itself a JSON object,
                // so it embeds as a raw subdocument.
                "json" => format!("{{\"ok\":true,\"metrics\":{}}}", registry.render_json()),
                // The multi-line text exposition rides inside the
                // single-line protocol as an escaped string field.
                "prometheus" => json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("format", json::str("prometheus")),
                    ("exposition", json::str(registry.render_prometheus())),
                ])
                .render(),
                other => {
                    error_reply(&format!("unknown metrics format `{other}` (json|prometheus)"))
                }
            }
        }
        "suites" => {
            let suites: Vec<Json> = Suite::ALL
                .iter()
                .map(|s| {
                    json::obj(vec![
                        ("suite", json::str(s.name())),
                        ("description", json::str(s.description())),
                    ])
                })
                .collect();
            json::obj(vec![("ok", Json::Bool(true)), ("suites", Json::Arr(suites))]).render()
        }
        "shutdown" => {
            stop.store(true, Ordering::SeqCst);
            json::obj(vec![("ok", Json::Bool(true)), ("draining", Json::Bool(true))]).render()
        }
        other => error_reply(&format!("unknown op `{other}` ({})", served.join("|"))),
    };
    (reply, op)
}

/// A blocking client for the protocol above — what `mgx-client` and the
/// tests speak.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: &SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self { writer: stream.try_clone()?, reader: BufReader::new(stream) })
    }

    /// [`Client::connect`] from a `host:port` string.
    pub fn connect_str(addr: &str) -> io::Result<Self> {
        let parsed: SocketAddr = addr
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{addr}: {e}")))?;
        Self::connect(&parsed)
    }

    /// Sends one request line, returns the one response line (without the
    /// trailing newline).
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
        }
        while reply.ends_with('\n') || reply.ends_with('\r') {
            reply.pop();
        }
        Ok(reply)
    }

    /// Submits a spec (already canonicalized or not), returning the reply
    /// envelope.
    pub fn submit(&mut self, spec: &mgx_sim::job::JobSpec) -> io::Result<Json> {
        let line = format!("{{\"op\":\"submit\",\"spec\":{}}}", spec_to_wire(spec));
        self.request_parsed(&line)
    }

    /// Submit + fetch in one round trip; returns the raw result document.
    pub fn run(&mut self, spec: &mgx_sim::job::JobSpec) -> io::Result<String> {
        let line = format!("{{\"op\":\"run\",\"spec\":{}}}", spec_to_wire(spec));
        self.request(&line)
    }

    /// Fetches a job's result document by hex id, verbatim.
    pub fn fetch(&mut self, job_hex: &str) -> io::Result<String> {
        self.request(&format!("{{\"op\":\"fetch\",\"job\":\"{job_hex}\"}}"))
    }

    /// Polls a job's status envelope.
    pub fn poll(&mut self, job_hex: &str) -> io::Result<Json> {
        self.request_parsed(&format!("{{\"op\":\"poll\",\"job\":\"{job_hex}\"}}"))
    }

    /// Fetches the full observability registry in the line-JSON dialect:
    /// `{"ok":true,"metrics":{"counters":…,"gauges":…,"histograms":…}}`.
    pub fn metrics(&mut self) -> io::Result<Json> {
        self.request_parsed("{\"op\":\"metrics\"}")
    }

    /// Fetches the Prometheus text exposition (unescaped, multi-line).
    pub fn metrics_prometheus(&mut self) -> io::Result<String> {
        let v = self.request_parsed("{\"op\":\"metrics\",\"format\":\"prometheus\"}")?;
        v.get("exposition")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing exposition"))
    }

    /// Requests a graceful drain.
    pub fn shutdown(&mut self) -> io::Result<Json> {
        self.request_parsed("{\"op\":\"shutdown\"}")
    }

    fn request_parsed(&mut self, line: &str) -> io::Result<Json> {
        let reply = self.request(line)?;
        Json::parse(&reply)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}: {reply}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgx_sim::job::JobSpec;
    use mgx_sim::{DramBackend, Scale};

    fn tiny_spec(frames: usize) -> JobSpec {
        JobSpec {
            suite: Suite::Video,
            scale: Scale { video_frames: frames, ..Scale::quick() },
            schemes: vec![],
            threads: 1,
            backend: DramBackend::ClosedForm,
        }
    }

    fn boot() -> Handle {
        spawn(ServerConfig {
            scheduler: SchedulerConfig { workers: 2, queue_capacity: 8 },
            ..ServerConfig::default()
        })
        .expect("bind loopback")
    }

    /// A counter from the `metrics` op, by full name.
    fn counter(c: &mut Client, name: &str) -> Option<u64> {
        c.metrics().unwrap().get("metrics")?.get("counters")?.get(name)?.as_u64()
    }

    #[test]
    fn submit_poll_fetch_and_stats_flow() {
        let server = boot();
        let mut c = Client::connect(&server.addr).unwrap();
        let spec = tiny_spec(2);
        let reply = c.submit(&spec).unwrap();
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{reply:?}");
        let job = reply.get("job").and_then(Json::as_str).unwrap().to_string();
        assert_eq!(job, spec.digest_hex());
        let doc = c.fetch(&job).unwrap();
        let expected = spec.clone().canonicalize();
        assert_eq!(doc, expected.result_json(&expected.execute()));
        assert_eq!(c.poll(&job).unwrap().get("status").and_then(Json::as_str), Some("done"));
        assert_eq!(counter(&mut c, "mgx_jobs_executed_total"), Some(1));
        c.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn run_op_is_submit_plus_fetch_and_caches() {
        let server = boot();
        let spec = tiny_spec(3);
        let mut c = Client::connect(&server.addr).unwrap();
        let cold = c.run(&spec).unwrap();
        let warm = c.run(&spec).unwrap();
        assert_eq!(cold, warm, "cached response must be bit-identical");
        assert_eq!(counter(&mut c, "mgx_jobs_executed_total"), Some(1));
        assert!(counter(&mut c, "mgx_store_hits_total").unwrap() >= 1);
        c.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn protocol_errors_are_reported_not_fatal() {
        let server = boot();
        let mut c = Client::connect(&server.addr).unwrap();
        for (line, needle) in [
            ("not json", "bad request JSON"),
            ("{\"op\":\"teleport\"}", "unknown op"),
            ("{\"op\":\"submit\"}", "needs a `spec`"),
            ("{\"op\":\"submit\",\"spec\":{\"suite\":\"nope\"}}", "unknown suite"),
            ("{\"op\":\"run\",\"spec\":{\"suite\":\"video\",\"x\":1}}", "unknown spec field"),
            ("{\"op\":\"fetch\",\"job\":\"zz\"}", "not a 16-hex"),
            ("{\"op\":\"fetch\",\"job\":\"00000000000000aa\"}", "unknown job"),
        ] {
            let reply = c.request(line).unwrap();
            assert!(reply.contains(needle), "`{line}` → `{reply}`");
            let v = Json::parse(&reply).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        }
        // `stats` is no op: the hint lists every op the server serves.
        assert_eq!(
            c.request("{\"op\":\"stats\"}").unwrap(),
            "{\"ok\":false,\"error\":\"unknown op `stats` \
             (submit|poll|fetch|run|metrics|suites|shutdown)\"}"
        );
        // The connection is still usable after every error, and both
        // unnamed ops (`teleport`, `stats`) counted as `unknown`.
        assert_eq!(counter(&mut c, "mgx_requests_total{op=\"unknown\"}"), Some(2));
        assert_eq!(counter(&mut c, "mgx_requests_total{op=\"invalid\"}"), Some(1));
        c.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn suites_op_lists_the_registry() {
        let server = boot();
        let mut c = Client::connect(&server.addr).unwrap();
        let v = c.request_parsed("{\"op\":\"suites\"}").unwrap();
        let suites = v.get("suites").and_then(Json::as_arr).unwrap();
        assert_eq!(suites.len(), Suite::ALL.len());
        assert!(suites.iter().any(|s| s.get("suite").and_then(Json::as_str) == Some("genome")));
        c.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn handle_shutdown_drains_without_a_client() {
        let server = boot();
        let mut c = Client::connect(&server.addr).unwrap();
        let spec = tiny_spec(4);
        c.submit(&spec).unwrap();
        let doc = c.fetch(&spec.digest_hex()).unwrap();
        assert!(doc.contains("\"suite\":\"video\""));
        drop(c);
        server.shutdown();
        server.join().unwrap();
    }
}
