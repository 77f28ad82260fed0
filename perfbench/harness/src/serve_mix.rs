//! The `serve-mix` workload: a mix of `run` requests against the `serve`
//! daemon.
//!
//! 90% of requests go to a fixed hot set warmed in set-up (store hits);
//! 10% are fresh video specs drawn without replacement from video frames ×
//! scheme subset × DRAM backend, each a cold simulation of a few
//! milliseconds plus a store insert and an LRU eviction. The whole request
//! sequence is generated from the seed before the clock starts.
//!
//! The untraced run drives the mix as a closed loop on one connection: the
//! next request goes out when the previous reply is in, and each latency is
//! timed from its send. The traced run drives it as an open loop at `RATE`,
//! timing each latency from the request's scheduled send time, so a stall is
//! charged to the requests queued behind it; the daemon's capacity comes
//! from the same open loop.

use crate::layers::{self, Metrics};
use mgx_core::Scheme;
use mgx_serve::codec::{evaluated_from_json, spec_to_wire};
use mgx_serve::json::Json;
use mgx_serve::Client;
use mgx_sim::experiments::summary_claims;
use mgx_sim::job::{JobSpec, Suite};
use mgx_sim::{DramBackend, Scale};
use std::collections::HashSet;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Offered load of the traced run's open-loop window, about 40% of the
/// daemon's capacity on a quiet 2-core host.
const RATE: f64 = 1000.0;
/// Requests scheduled per second of the untraced run's closed loop. The loop
/// completes about 2000 a second on a quiet 2-core host; it ends early if it
/// uses them all up.
const CLOSED_PER_S: f64 = 5000.0;
/// The open-loop generator's connection pool. A request goes out on an idle
/// connection, so a miss holds up no hit behind it; at `RATE` about half a
/// miss is in flight on average, so all four are busy only when the daemon
/// stalls.
const CONNECTIONS: usize = 4;
/// One request in every block of this many is fresh, at a seeded position
/// in the block; the rest go to the hot set (90% hits). Stratifying keeps
/// the miss share exact per window and bounds how misses cluster, which
/// sets the p99 tail.
const FRESH_EVERY: usize = 10;
/// Latency limit on p99 for `max_rps`. At 20 ms the limit sat only 2–5×
/// above the largest miss, where p99 grows slowly with load, and the search
/// landed anywhere in 920–2180 req/s across seeds on a busy 2-core host. At
/// 50 ms it falls where latency climbs steeply, next to saturation.
const SLO_MS: f64 = 50.0;
/// `max_rps` search resolution: the final bracket spans at most 10%.
const SEARCH_STEP: f64 = 1.1;
/// Slices of a `max_rps` probe window (see `probe_passes`).
const SLICES: usize = 3;
/// Store capacity: the hot set plus room for fresh results. Set-up fills
/// it, so every fresh insert in the window evicts the least-recently-used
/// fresh entry; a hot spec is touched every ~9 requests and never reaches
/// the LRU end.
const MEM_ENTRIES: usize = 32;
/// Set-up repetitions (each spawns and warms a fresh daemon).
const SETUPS: usize = 3;
/// Direct (in-process) executions of the hot set compared with the served
/// bytes; their median wall time is `sweep_s`. One follows each of as many
/// stretches of the closed loop, so they sample the host's speed across the
/// run: a hot-set sweep lasts ~2 s, and five back to back at the end of the
/// run spread 28% (IQR over median) over ten runs as the host's speed
/// drifted.
const DIRECT_SWEEPS: usize = 5;
/// Fresh specs from the closed loop re-executed directly after it.
const SAMPLE: usize = 16;
/// With no reply outstanding, the generator sleeps until this long before
/// the next send time and then polls, so the timer's wake-up lateness
/// (~0.1 ms, varying with host load) is not charged to the daemon.
const SEND_POLL: Duration = Duration::from_micros(300);

pub struct Opts {
    pub serve_bin: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

/// SplitMix64: the workload generator's only randomness source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn spec(suite: Suite, scale: Scale, schemes: Vec<Scheme>, backend: DramBackend) -> JobSpec {
    JobSpec { suite, scale, schemes, threads: 1, backend }.canonicalize()
}

/// The hot set: fixed across seeds. The quick-scale graph spec comes first;
/// its served result carries the graph claims behind `paper_err_pct`.
pub fn hot_set() -> Vec<JobSpec> {
    use DramBackend::{ClosedForm, Queued};
    let quick = Scale::quick();
    let video = |frames| Scale { video_frames: frames, ..quick };
    vec![
        spec(Suite::Graph, quick, vec![], ClosedForm),
        spec(Suite::Graph, Scale { graph_divisor: 384, pr_iters: 1, ..quick }, vec![], ClosedForm),
        spec(Suite::Genome, quick, vec![], ClosedForm),
        spec(Suite::Genome, quick, vec![], Queued),
        spec(Suite::Video, video(16), vec![], ClosedForm),
        spec(Suite::Video, video(16), vec![], Queued),
        spec(Suite::Video, video(32), vec![Scheme::Mgx, Scheme::Baseline], ClosedForm),
        spec(Suite::Video, video(48), vec![], ClosedForm),
    ]
}

/// Every fresh spec in a seeded order: video frames × non-empty scheme
/// subset × backend, minus the hot set. Frames span 4–32 on the closed form
/// and 4–16 on the queued model, which costs about twice as much per frame,
/// so every miss is a 0.4–4 ms simulation.
fn fresh_specs(seed: u64, hot: &[JobSpec]) -> Vec<JobSpec> {
    let hot: HashSet<u64> = hot.iter().map(JobSpec::digest).collect();
    let mut all = Vec::new();
    for (backend, max_frames) in [(DramBackend::ClosedForm, 32), (DramBackend::Queued, 16)] {
        for frames in 4..=max_frames {
            for mask in 1u32..(1 << Scheme::ALL.len()) {
                let schemes = Scheme::ALL
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &s)| s);
                let s = spec(
                    Suite::Video,
                    Scale { video_frames: frames, ..Scale::quick() },
                    schemes.collect(),
                    backend,
                );
                if !hot.contains(&s.digest()) {
                    all.push(s);
                }
            }
        }
    }
    let mut rng = Rng(seed ^ 0xf8e5_11ed);
    for i in (1..all.len()).rev() {
        all.swap(i, rng.below(i + 1));
    }
    all
}

fn run_line(spec: &JobSpec) -> String {
    format!("{{\"op\":\"run\",\"spec\":{}}}", spec_to_wire(spec))
}

/// One scheduled request.
struct Req {
    line: String,
    /// Index into the hot set, or `None` for a fresh spec.
    hot: Option<usize>,
    /// The fresh spec and its digest (hex), checked against the reply.
    fresh: Option<(JobSpec, String)>,
}

/// What one request measured.
#[derive(Clone, Copy)]
struct Outcome {
    /// From the scheduled send time to the full reply; `u64::MAX` when the
    /// request failed (a failure misses every latency limit).
    latency_ns: u64,
    /// How late the generator sent it.
    late_ns: u64,
    hot: bool,
    ok: bool,
}

/// The seeded draw for the generator: hot picks and the fresh-spec stream.
///
/// Fresh specs come from one seeded permutation, without replacement. A
/// run that uses them all up starts over on the same permutation: by then
/// every earlier fresh result has long been evicted (the store keeps the
/// last `MEM_ENTRIES - HOT` of them), so a redrawn spec is a miss again.
struct Mix {
    rng: Rng,
    fresh: Vec<JobSpec>,
    next: usize,
    hot_lines: Vec<String>,
}

impl Mix {
    fn new(seed: u64, hot: &[JobSpec]) -> Self {
        let fresh = fresh_specs(seed, hot);
        Self { rng: Rng(seed), fresh, next: 0, hot_lines: hot.iter().map(run_line).collect() }
    }

    fn next_fresh(&mut self) -> JobSpec {
        let s = self.fresh[self.next % self.fresh.len()].clone();
        self.next += 1;
        s
    }

    /// `n` requests of the mix.
    fn schedule(&mut self, n: usize) -> Vec<Req> {
        let mut fresh_at = 0;
        (0..n)
            .map(|i| {
                if i % FRESH_EVERY == 0 {
                    fresh_at = i + self.rng.below(FRESH_EVERY);
                }
                if i != fresh_at {
                    let h = self.rng.below(self.hot_lines.len());
                    Req { line: self.hot_lines[h].clone(), hot: Some(h), fresh: None }
                } else {
                    let s = self.next_fresh();
                    let digest = s.digest_hex();
                    Req { line: run_line(&s), hot: None, fresh: Some((s, digest)) }
                }
            })
            .collect()
    }
}

/// A spawned `serve` daemon.
struct Server {
    child: Child,
    addr: String,
    /// Drains the daemon's stderr; joined at shutdown.
    stderr: Option<std::thread::JoinHandle<String>>,
}

impl Server {
    fn spawn(bin: &PathBuf) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--queue", "64"])
            .args(["--mem-entries", &MEM_ENTRIES.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut reader = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.wait();
                return Err("serve exited before listening".into());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest.split_whitespace().next().unwrap_or_default().to_string();
            }
        };
        let stderr = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = reader.read_to_string(&mut rest);
            rest
        });
        Ok(Self { child, addr, stderr: Some(stderr) })
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect_str(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Peak resident set of the daemon so far, in MB (`VmHWM`).
    fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    fn metrics(&self) -> Result<Json, String> {
        let reply = self.client()?.metrics().map_err(|e| e.to_string())?;
        reply.get("metrics").cloned().ok_or_else(|| "metrics op returned no metrics".into())
    }

    /// Graceful shutdown; `true` when the daemon drained and exited 0.
    fn shutdown(mut self) -> bool {
        let sent = self.client().and_then(|mut c| c.shutdown().map_err(|e| e.to_string())).is_ok();
        if !sent {
            let _ = self.child.kill();
        }
        let status = self.child.wait();
        let log = self.stderr.take().and_then(|h| h.join().ok()).unwrap_or_default();
        sent && status.is_ok_and(|s| s.success()) && log.contains("drained and exited cleanly")
    }
}

/// A daemon left running by an early return is killed and reaped.
impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One connection of the generator's pool: the daemon's line protocol on a
/// non-blocking socket, with at most one request in flight.
struct Conn {
    stream: TcpStream,
    /// The reply read so far.
    buf: Vec<u8>,
    /// Scratch for one `read`, reused across polls.
    chunk: Vec<u8>,
    /// The request in flight: its index and when it was sent.
    pending: Option<(usize, Instant)>,
}

impl Conn {
    fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self { stream, buf: Vec::new(), chunk: vec![0; 1 << 16], pending: None })
    }

    fn send(&mut self, i: usize, line: &str) -> io::Result<()> {
        let at = Instant::now();
        let msg = format!("{line}\n");
        let mut rest = msg.as_bytes();
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) =>
                {
                    std::thread::yield_now()
                }
                Err(e) => return Err(e),
            }
        }
        self.pending = Some((i, at));
        Ok(())
    }

    /// Sends one request and polls until its reply is in; returns the reply
    /// and its latency from the send.
    fn round_trip(&mut self, i: usize, line: &str) -> io::Result<(String, Duration)> {
        self.send(i, line)?;
        loop {
            if let Some(reply) = self.poll()? {
                let (_, at) = self.pending.take().expect("a request is in flight");
                return Ok((reply, at.elapsed()));
            }
            std::thread::yield_now();
        }
    }

    /// Reads what has arrived; returns the reply line, without its newline,
    /// once it is complete.
    fn poll(&mut self) -> io::Result<Option<String>> {
        loop {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // The daemon sends nothing but the reply, so it is complete when
        // the bytes read so far end in a newline.
        if self.buf.last() != Some(&b'\n') {
            return Ok(None);
        }
        self.buf.pop();
        String::from_utf8(std::mem::take(&mut self.buf))
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Checks one served reply: hot replies must equal the set-up reply byte
/// for byte; fresh replies must be the result document of their digest.
fn reply_ok(req: &Req, reply: &str, hot_ref: &[String]) -> bool {
    match req.hot {
        Some(h) => reply == hot_ref[h],
        None => {
            let digest = req.fresh.as_ref().map_or("", |(_, d)| d.as_str());
            reply.starts_with("{\"v\":\"") && reply.get(..120).is_some_and(|h| h.contains(digest))
        }
    }
}

/// Sends `reqs` on the open-loop schedule at `rate`, returning one outcome
/// per request.
///
/// One thread drives the whole pool: it sends each request when due on an
/// idle connection (later, if all are busy) and polls the busy ones for
/// replies, yielding the CPU between rounds, so no reply waits for a client
/// thread to wake. A request whose connection fails stays failed, and the
/// connection leaves the pool.
fn run_window(addr: &str, reqs: &[Req], rate: f64, hot_ref: &[String]) -> Vec<Outcome> {
    let mut outcomes: Vec<Outcome> = reqs
        .iter()
        .map(|r| Outcome { latency_ns: u64::MAX, late_ns: 0, hot: r.hot.is_some(), ok: false })
        .collect();
    let mut conns: Vec<Conn> = (0..CONNECTIONS).filter_map(|_| Conn::connect(addr).ok()).collect();
    let start = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut next = 0;
    while !conns.is_empty() && (next < reqs.len() || conns.iter().any(|c| c.pending.is_some())) {
        let mut c = 0;
        while c < conns.len() {
            let Some((i, sent)) = conns[c].pending else {
                c += 1;
                continue;
            };
            match conns[c].poll() {
                Ok(None) => c += 1,
                Ok(Some(reply)) => {
                    let done = Instant::now();
                    let o = &mut outcomes[i];
                    o.ok = reply_ok(&reqs[i], &reply, hot_ref);
                    if o.ok {
                        o.latency_ns = done.saturating_duration_since(due(i)).as_nanos() as u64;
                    }
                    o.late_ns = sent.saturating_duration_since(due(i)).as_nanos() as u64;
                    conns[c].pending = None;
                    c += 1;
                }
                Err(_) => {
                    conns.swap_remove(c);
                }
            }
        }
        let now = Instant::now();
        while next < reqs.len() && due(next) <= now {
            let Some(c) = conns.iter().position(|c| c.pending.is_none()) else { break };
            if conns[c].send(next, &reqs[next].line).is_err() {
                conns.swap_remove(c);
            }
            next += 1;
        }
        if next < reqs.len() && conns.iter().all(|c| c.pending.is_none()) {
            if let Some(wait) = due(next).checked_duration_since(Instant::now() + SEND_POLL) {
                std::thread::sleep(wait);
            }
        }
        std::thread::yield_now();
    }
    outcomes
}

/// One stretch of the untraced run's closed loop: `conn` sends `reqs` in
/// order from index `from`, each as soon as the previous reply is in, until
/// `seconds` have passed. Returns one outcome per request sent, timed from
/// its send, and the replies of the fresh requests by index. A connection
/// error fails its request and ends the stretch.
fn closed_loop(
    conn: &mut Conn,
    reqs: &[Req],
    from: usize,
    seconds: f64,
    hot_ref: &[String],
) -> (Vec<Outcome>, Vec<(usize, String)>) {
    let (mut outcomes, mut fresh) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for (i, req) in reqs.iter().enumerate().skip(from) {
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let mut o = Outcome { latency_ns: u64::MAX, late_ns: 0, hot: req.hot.is_some(), ok: false };
        let reply = conn.round_trip(i, &req.line);
        if let Ok((reply, latency)) = &reply {
            o.ok = reply_ok(req, reply, hot_ref);
            if o.ok {
                o.latency_ns = latency.as_nanos() as u64;
            }
        }
        outcomes.push(o);
        match reply {
            Ok((reply, _)) if !o.hot => fresh.push((i, reply)),
            Ok(_) => {}
            Err(_) => break,
        }
    }
    (outcomes, fresh)
}

/// Nearest-rank percentile of `v` in ms (`u64::MAX` entries count as
/// misses and sort last); 0 for an empty sample.
fn pct_ms(mut v: Vec<u64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    let x = v[rank - 1];
    if x == u64::MAX {
        f64::INFINITY
    } else {
        x as f64 / 1e6
    }
}

/// A stretch of requests meets the limit when p99 ≤ `SLO_MS` and the
/// generator was no more than `SLO_MS` late over its last tenth (no growing
/// backlog).
fn meets_slo(outcomes: &[Outcome]) -> bool {
    let p99 = pct_ms(outcomes.iter().map(|o| o.latency_ns).collect(), 0.99);
    let tail = &outcomes[outcomes.len() - outcomes.len().div_ceil(10)..];
    let tail_late = tail.iter().map(|o| o.late_ns).max().unwrap_or(0) as f64 / 1e6;
    p99 <= SLO_MS && tail_late <= SLO_MS
}

/// A probe window passes when most of its `SLICES` consecutive slices meet
/// the limit, so one host stall does not decide the search.
fn probe_passes(outcomes: &[Outcome]) -> bool {
    let slice = outcomes.len().div_ceil(SLICES).max(1);
    2 * outcomes.chunks(slice).filter(|c| meets_slo(c)).count() > SLICES
}

/// Requests per second a window completed: from its first scheduled send to
/// its last reply.
fn achieved_rps(outcomes: &[Outcome], rate: f64) -> f64 {
    let end = outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| i as f64 / rate + o.latency_ns as f64 / 1e9)
        .fold(0.0, f64::max);
    outcomes.len() as f64 / end
}

/// Mean `rel_err` (in %) of the summary's graph claims, measured on the
/// served quick-scale graph sweep.
fn graph_claims_err_pct(doc: &str) -> Result<f64, String> {
    let evals = evaluated_from_json(doc)?;
    let claims: Vec<_> = summary_claims(&[], &[], &evals)
        .into_iter()
        .filter(|c| c.metric.starts_with("Graph"))
        .collect();
    Ok(claims.iter().map(|c| c.rel_err()).sum::<f64>() / claims.len() as f64 * 100.0)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The run's result: end-to-end or per-layer metrics plus the op counts.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub spans: Vec<String>,
}

struct Warm {
    server: Server,
    setup_s: f64,
    hot_ref: Vec<String>,
}

/// Spawns a daemon and warms it: the hot set (cold), fillers until the
/// store is at capacity, then the hot set again. The second pass must hit
/// with the same bytes, and it leaves the hot entries most recently used,
/// so the window's first fresh inserts evict fillers, not hot results.
fn set_up(bin: &PathBuf, hot: &[JobSpec], fillers: &[JobSpec]) -> Result<Warm, String> {
    let t = Instant::now();
    let server = Server::spawn(bin)?;
    let mut c = server.client()?;
    let mut run = |s: &JobSpec| -> Result<String, String> {
        let reply = c.run(s).map_err(|e| e.to_string())?;
        if reply.starts_with("{\"v\":\"") {
            Ok(reply)
        } else {
            Err(format!("warm-up of {} failed: {reply}", spec_to_wire(s)))
        }
    };
    let hot_ref = hot.iter().map(&mut run).collect::<Result<Vec<_>, _>>()?;
    for s in fillers {
        run(s)?;
    }
    for (s, cold) in hot.iter().zip(&hot_ref) {
        if run(s)? != *cold {
            return Err(format!("cached reply for {} differs from the cold one", spec_to_wire(s)));
        }
    }
    Ok(Warm { server, setup_s: t.elapsed().as_secs_f64(), hot_ref })
}

/// One untraced run: set-up ×3, the closed loop for `--seconds` with a
/// direct hot-set sweep after each fifth of it, then the output gate.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let hot = hot_set();
    let mut mix = Mix::new(opts.seed, &hot);
    let fillers: Vec<JobSpec> = (hot.len()..MEM_ENTRIES).map(|_| mix.next_fresh()).collect();
    let main = mix.schedule((CLOSED_PER_S * opts.seconds).round() as usize);

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut setups = Vec::new();
    let mut last: Option<Warm> = None;
    for _ in 0..SETUPS {
        let mut prev_ref = None;
        if let Some(Warm { server, hot_ref, .. }) = last.take() {
            attempted += 1;
            failed += u64::from(!server.shutdown());
            prev_ref = Some(hot_ref);
        }
        let w = set_up(&opts.serve_bin, &hot, &fillers)?;
        setups.push(w.setup_s);
        if let Some(prev) = prev_ref {
            // The same spec must serve the same bytes from every daemon.
            attempted += hot.len() as u64;
            failed += w.hot_ref.iter().zip(&prev).filter(|(a, b)| a != b).count() as u64;
        }
        last = Some(w);
    }
    let Warm { server, hot_ref, .. } = last.expect("SETUPS > 0");

    let mut conn =
        Conn::connect(&server.addr).map_err(|e| format!("connect {}: {e}", server.addr))?;
    let (mut outcomes, mut fresh, mut sweeps) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..DIRECT_SWEEPS {
        let stretch = opts.seconds / DIRECT_SWEEPS as f64;
        let (o, f) = closed_loop(&mut conn, &main, outcomes.len(), stretch, &hot_ref);
        outcomes.extend(o);
        fresh.extend(f);
        // The served hot set must equal a direct execution, which is also
        // the direct sweep.
        let t = Instant::now();
        let docs: Vec<String> = hot.iter().map(|s| s.result_json(&s.execute())).collect();
        sweeps.push(t.elapsed().as_secs_f64());
        attempted += docs.len() as u64;
        failed += docs.iter().zip(&hot_ref).filter(|(a, b)| a != b).count() as u64;
    }
    attempted += outcomes.len() as u64;
    failed += outcomes.iter().filter(|o| !o.ok).count() as u64;
    let p50 = pct_ms(outcomes.iter().map(|o| o.latency_ns).collect(), 0.50);

    let peak_rss_mb = server.peak_rss_mb();
    attempted += 1;
    failed += u64::from(!server.shutdown());

    // Output gate: a seeded sample of the fresh replies must equal a direct
    // execution.
    let mut pick = Rng(opts.seed ^ 0x005a_3b1e);
    let sample: HashSet<usize> =
        (0..SAMPLE.min(fresh.len())).map(|_| pick.below(fresh.len())).collect();
    for (i, reply) in sample.iter().map(|&k| &fresh[k]) {
        let (s, _) = main[*i].fresh.as_ref().expect("only fresh replies are sampled");
        attempted += 1;
        if *reply != s.result_json(&s.execute()) {
            eprintln!("# served {} differs from JobSpec::execute", spec_to_wire(s));
            failed += 1;
        }
    }
    let paper_err_pct = graph_claims_err_pct(&hot_ref[0])?;

    Ok(Report {
        attempted,
        failed,
        metrics: vec![
            ("sweep_s".into(), median(sweeps)),
            ("setup_s".into(), median(setups)),
            ("peak_rss_mb".into(), peak_rss_mb),
            ("paper_err_pct".into(), paper_err_pct),
            ("p50_ms".into(), p50),
        ],
        spans: Vec::new(),
    })
}

/// The highest offered rate that keeps p99 ≤ `SLO_MS` with no growing
/// backlog, as the rate that window completed: doubling from `RATE` until a
/// probe misses the limit, then geometric bisection down to `SEARCH_STEP`.
/// Returns (rate, requests sent, requests failed).
fn max_rps(addr: &str, mix: &mut Mix, hot_ref: &[String], probe_s: f64) -> (f64, u64, u64) {
    let (mut sent, mut failed) = (0u64, 0u64);
    let mut best = 0.0;
    let mut probe = |rate: f64, best: &mut f64| -> bool {
        let reqs = mix.schedule((rate * probe_s).round() as usize);
        let o = run_window(addr, &reqs, rate, hot_ref);
        sent += o.len() as u64;
        failed += o.iter().filter(|o| !o.ok).count() as u64;
        let pass = probe_passes(&o);
        if pass {
            *best = achieved_rps(&o, rate);
        }
        pass
    };
    let (mut lo, mut hi) = if probe(RATE, &mut best) { (RATE, f64::INFINITY) } else { (0.0, RATE) };
    while hi.is_infinite() && lo < 64_000.0 {
        if probe(lo * 2.0, &mut best) {
            lo *= 2.0;
        } else {
            hi = lo * 2.0;
        }
    }
    while lo == 0.0 && hi > 16.0 {
        if probe(hi / 2.0, &mut best) {
            lo = hi / 2.0;
        } else {
            hi /= 2.0;
        }
    }
    while lo > 0.0 && hi.is_finite() && hi / lo > SEARCH_STEP {
        let mid = (lo * hi).sqrt();
        if probe(mid, &mut best) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (best, sent, failed)
}

fn hist_ms(m: &Json, name: &str, q: &str) -> f64 {
    m.get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get(q))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
        / 1e6
}

fn counter(m: &Json, name: &str) -> f64 {
    m.get("counters").and_then(|c| c.get(name)).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The traced run: one set-up, one window at `RATE`, the daemon's `metrics`
/// op (its histograms include the set-up's warm-up requests), the `max_rps`
/// search, then the hot set through the traced pipeline.
pub fn run_traced(opts: &Opts) -> Result<Report, String> {
    let hot = hot_set();
    let mut mix = Mix::new(opts.seed, &hot);
    let fillers: Vec<JobSpec> = (hot.len()..MEM_ENTRIES).map(|_| mix.next_fresh()).collect();
    let main = mix.schedule((RATE * opts.seconds * 1.2).round() as usize);
    let Warm { server, hot_ref, .. } = set_up(&opts.serve_bin, &hot, &fillers)?;
    let outcomes = run_window(&server.addr, &main, RATE, &hot_ref);
    let m = server.metrics()?;
    let (rps, probed, probe_failed) =
        max_rps(&server.addr, &mut mix, &hot_ref, opts.seconds * 0.15);
    let mut failed = outcomes.iter().filter(|o| !o.ok).count() as u64 + probe_failed;
    failed += u64::from(!server.shutdown());

    let lat = |hot: bool| outcomes.iter().filter(|o| o.hot == hot).map(|o| o.latency_ns).collect();
    let (hits, misses) =
        (counter(&m, "mgx_store_hits_total"), counter(&m, "mgx_store_misses_total"));
    let serve = [
        ("serve.server.run.p50_ms", hist_ms(&m, "mgx_request_ns{op=\"run\"}", "p50")),
        ("serve.server.run.p99_ms", hist_ms(&m, "mgx_request_ns{op=\"run\"}", "p99")),
        ("serve.client.hit.p50_ms", pct_ms(lat(true), 0.50)),
        ("serve.client.p99_ms", pct_ms(outcomes.iter().map(|o| o.latency_ns).collect(), 0.99)),
        ("serve.store.hit_rate", if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 }),
        ("serve.client.miss.p50_ms", pct_ms(lat(false), 0.50)),
        ("serve.client.miss.p99_ms", pct_ms(lat(false), 0.99)),
        ("serve.sched.queue_wait.p50_ms", hist_ms(&m, "mgx_job_queue_wait_ns", "p50")),
        ("serve.sched.queue_wait.p99_ms", hist_ms(&m, "mgx_job_queue_wait_ns", "p99")),
        ("serve.sched.execute.p50_ms", hist_ms(&m, "mgx_job_execute_ns", "p50")),
        ("serve.sched.execute.p99_ms", hist_ms(&m, "mgx_job_execute_ns", "p99")),
        ("serve.sched.jobs_executed", counter(&m, "mgx_jobs_executed_total")),
        ("serve.store.insertions", counter(&m, "mgx_store_insertions_total")),
        ("serve.store.evictions", counter(&m, "mgx_store_evictions_total")),
        ("serve.max_rps", rps),
        ("loadgen.late.p99_ms", pct_ms(outcomes.iter().map(|o| o.late_ns).collect(), 0.99)),
    ];
    let outcome = layers::traced_run(&hot);
    Ok(Report {
        attempted: outcomes.len() as u64 + probed + outcome.attempted + 1,
        failed: failed + outcome.failed,
        metrics: layers::metrics(&outcome, &serve),
        spans: layers::spans(&outcome).map(|s| s.json()).collect(),
    })
}
