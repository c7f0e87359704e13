//! Transport parity: stdin and a TCP connection are two clients of the
//! same single writer thread, so one script must produce the same bytes
//! on both — the bytes CI pins in `tests/data/serve_smoke.expected`.

use lockfree_pagerank::graph::generators::erdos_renyi;
use lockfree_pagerank::graph::selfloops::add_self_loops;
use lockfree_pagerank::server::{serve_stdin, spawn_with, ServerOptions};
use lockfree_pagerank::{GraphSource, ServeConfig, UpdateSession};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// The session `lfpr serve --gen 200 800 7 --threads 1` serves.
fn smoke_session() -> UpdateSession {
    let args: Vec<String> = "--gen 200 800 7 --threads 1"
        .split_whitespace()
        .map(String::from)
        .collect();
    let cfg = ServeConfig::from_args(&args).unwrap();
    let GraphSource::Generated { n, m, seed } = cfg.source else {
        unreachable!("--gen parses to a generated source")
    };
    let mut g = erdos_renyi(n, m, seed);
    add_self_loops(&mut g);
    let mut s = UpdateSession::new_with_layout(g, cfg.algo, cfg.pagerank_options(), cfg.layout);
    s.enable_delta_tracking();
    s
}

#[test]
fn stdin_and_tcp_transcripts_match_the_pinned_fixture() {
    let script = std::fs::read_to_string("tests/data/serve_smoke.in").unwrap();
    let expected = std::fs::read_to_string("tests/data/serve_smoke.expected").unwrap();

    let mut stdin_out = Vec::new();
    serve_stdin(
        smoke_session(),
        None,
        &None,
        script.as_bytes(),
        &mut stdin_out,
    )
    .unwrap();
    assert_eq!(
        String::from_utf8(stdin_out).unwrap(),
        expected,
        "stdin transcript drifted from serve_smoke.expected"
    );

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = spawn_with(smoke_session(), listener, ServerOptions::new(1)).unwrap();
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    conn.write_all(script.as_bytes()).unwrap();
    // The script ends with `quit`: the server closes after its `bye`.
    let mut tcp_out = String::new();
    conn.read_to_string(&mut tcp_out).unwrap();
    server.stop();
    assert_eq!(
        tcp_out, expected,
        "tcp transcript drifted from serve_smoke.expected"
    );
}
