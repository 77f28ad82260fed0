//! Fault injection against the `mgx-serve` request layer: a careless or
//! hostile client gets a structured error and the connection keeps
//! serving, while the server's memory stays bounded and its shutdown
//! cannot be held up.

use mgx::serve::json::Json;
use mgx::serve::{spawn, Client, SchedulerConfig, ServerConfig};
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

fn boot() -> mgx::serve::Handle {
    spawn(ServerConfig {
        scheduler: SchedulerConfig { workers: 1, queue_capacity: 4 },
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

/// A counter from the `metrics` op, by full name.
fn counter(c: &mut Client, name: &str) -> Option<u64> {
    c.metrics().unwrap().get("metrics")?.get("counters")?.get(name)?.as_u64()
}

/// A `suites` request padded with an ignored field to exactly `len` bytes.
fn padded_suites_request(len: usize) -> String {
    let head = "{\"op\":\"suites\",\"pad\":\"";
    let tail = "\"}";
    format!("{head}{}{tail}", "x".repeat(len - head.len() - tail.len()))
}

#[test]
fn an_overlong_request_line_is_rejected_and_the_connection_kept() {
    let server = boot();
    let mut c = Client::connect(&server.addr).unwrap();
    let reply = c.request(&"x".repeat(1 << 20)).unwrap();
    assert_eq!(reply, "{\"ok\":false,\"error\":\"request line exceeds 65536 bytes\"}");

    // A line of exactly the cap is served, on the same connection.
    let at_cap = padded_suites_request(65_536);
    assert_eq!(at_cap.len(), 65_536);
    let reply = Json::parse(&c.request(&at_cap).unwrap()).unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{reply:?}");
    assert!(reply.get("suites").and_then(Json::as_arr).is_some_and(|s| !s.is_empty()));

    // So is the next request, and only the overlong line counted as invalid.
    assert_eq!(counter(&mut c, "mgx_requests_total{op=\"invalid\"}"), Some(1));
    assert_eq!(counter(&mut c, "mgx_requests_total{op=\"suites\"}"), Some(1));
    c.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn a_client_that_never_reads_cannot_hang_shutdown() {
    let server = boot();
    // Pipeline `metrics` requests and read no reply, until the replies
    // fill both socket buffers, the server's connection thread blocks in
    // its write and stops reading, and so this client's own write times
    // out. The stream stays open to the end: closing it would reset the
    // connection and unblock the server for the wrong reason.
    let mut stalled = TcpStream::connect(server.addr).expect("connect");
    stalled.set_write_timeout(Some(Duration::from_millis(500))).unwrap();
    let batch = "{\"op\":\"metrics\"}\n".repeat(1024);
    loop {
        match stalled.write_all(batch.as_bytes()) {
            Ok(()) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
            Err(e) => panic!("flood write failed: {e}"),
        }
    }

    // The server's 2 s write timeout ends the stalled connection, so the
    // drain joins its thread; without it `join` never returns, so it runs
    // on a thread of its own and a hang fails the test instead of stalling
    // it. A send that stalls after copying part of a reply returns that
    // part when the timeout expires, and the next send fails after another
    // one: the bound is two timeouts plus slack for the buffers to settle.
    server.shutdown();
    let (done, joined) = mpsc::channel();
    std::thread::spawn(move || done.send(server.join()).unwrap());
    let result = joined
        .recv_timeout(Duration::from_secs(2 * 2 + 5))
        .expect("shutdown must not wait on a client that never reads");
    result.expect("server exits cleanly");
    drop(stalled);
}
