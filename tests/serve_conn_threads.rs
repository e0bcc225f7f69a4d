//! Closed connections do not pin their thread stacks.
//!
//! `rega serve` runs every connection on its own thread. A thread that has
//! finished but was never joined keeps its stack (and the stack's guard
//! page) mapped, so a server that held every connection's handle until
//! drain would grow by about two `/proc/self/maps` entries per connection
//! it ever accepted — until `thread::spawn` could no longer map a stack
//! and the accept loop aborted. This file holds one test, so no other
//! test's threads share the address space it measures.

#![cfg(target_os = "linux")]

use rega_serve::{Server, ServerConfig};
use serde_json::Value as Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds of connections opened while the mappings are counted.
const ROUNDS: usize = 16;
/// Connections open at once in each round.
const PER_ROUND: usize = 16;

/// The number of mappings in this process's address space.
fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("/proc/self/maps is readable")
        .lines()
        .count()
}

/// Opens `PER_ROUND` connections, has each answer a health probe, closes
/// them all, and waits until the server has seen every one close.
fn round(addr: SocketAddr, open: &rega_obs::Gauge) {
    let mut conns: Vec<TcpStream> = (0..PER_ROUND)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    for conn in &mut conns {
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        conn.write_all(b"{\"cmd\":\"health\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(&*conn).read_line(&mut line).unwrap();
        let response: Json = serde_json::from_str(&line).unwrap();
        assert_eq!(response["ok"], Json::Bool(true), "{line}");
    }
    drop(conns);
    let deadline = Instant::now() + Duration::from_secs(30);
    while open.get() > 0 {
        assert!(Instant::now() < deadline, "connections never closed");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn closed_connections_release_their_thread_stacks() {
    let server = Server::bind(ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let open = server.tenants().metrics().gauge("serve.connections.open");
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = std::thread::spawn(move || server.run(flag));

    // Warm-up: the first connection threads map the stacks later ones
    // reuse, and the allocator its per-thread arenas.
    round(addr, &open);
    round(addr, &open);
    let before = mappings();
    for _ in 0..ROUNDS {
        round(addr, &open);
    }
    let grown = mappings().saturating_sub(before);
    let opened = ROUNDS * PER_ROUND;
    assert!(
        grown < opened,
        "{opened} closed connections grew the address space by {grown} mappings"
    );

    shutdown.store(true, Ordering::SeqCst);
    let report = handle.join().expect("the server thread ends cleanly");
    assert_eq!(report["clean"], Json::Bool(true));
}
