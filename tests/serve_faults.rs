//! Fault injection against the `mgx-serve` request layer: a careless or
//! hostile client gets a structured error and the connection keeps
//! serving, while the server's memory stays bounded.

use mgx::serve::json::Json;
use mgx::serve::{spawn, Client, SchedulerConfig, ServerConfig};

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
