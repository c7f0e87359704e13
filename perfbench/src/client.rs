//! A protocol client that classifies every outcome.
//!
//! Every reply must parse with `protocol::parse_response`; a reply that
//! does not is a broken server, not a slow one, and ends the run. An
//! `err` reply, a timeout or a disconnect is a failed request.

use lockfree_pagerank::protocol::{continuation_lines, parse_response, Response};
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Why a request did not get its answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// The server answered `err …`.
    ErrReply(String),
    /// No reply within the read timeout.
    Timeout,
    /// The connection closed or broke.
    Disconnect(String),
    /// The reply did not parse, or is not the answer the request should
    /// get: a correctness failure, not a lost request.
    Wrong(String),
}

impl Failure {
    fn from_io(e: io::Error) -> Failure {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Failure::Timeout,
            _ => Failure::Disconnect(e.to_string()),
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::ErrReply(m) => write!(f, "err reply: {m}"),
            Failure::Timeout => write!(f, "timeout"),
            Failure::Disconnect(m) => write!(f, "disconnect: {m}"),
            Failure::Wrong(m) => write!(f, "wrong reply: {m}"),
        }
    }
}

/// One reply: the raw block as it came off the wire, and its parse.
#[derive(Debug, Clone)]
pub struct Reply {
    pub raw: String,
    pub resp: Response,
}

/// Classify one raw reply block.
pub fn classify(raw: String) -> Result<Reply, Failure> {
    match parse_response(&raw) {
        None => Err(Failure::Wrong(format!(
            "unparseable {:?}",
            raw.lines().next().unwrap_or("")
        ))),
        Some(Response::Error(e)) => Err(Failure::ErrReply(e.to_string())),
        Some(resp) => Ok(Reply { raw, resp }),
    }
}

/// A line-protocol connection.
pub struct Conn {
    out: TcpStream,
    input: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<Conn> {
        let out = TcpStream::connect(addr)?;
        out.set_nodelay(true)?;
        out.set_read_timeout(Some(timeout))?;
        let input = BufReader::with_capacity(1 << 16, out.try_clone()?);
        Ok(Conn { out, input })
    }

    pub fn send(&mut self, text: &str) -> Result<(), Failure> {
        self.out
            .write_all(text.as_bytes())
            .map_err(Failure::from_io)
    }

    /// Read one reply block (head line plus its continuation lines).
    pub fn recv(&mut self) -> Result<Reply, Failure> {
        let mut raw = String::new();
        self.read_line(&mut raw)?;
        for _ in 0..continuation_lines(&raw) {
            self.read_line(&mut raw)?;
        }
        classify(raw)
    }

    /// Send one request line and read its reply.
    pub fn request(&mut self, line: &str) -> Result<Reply, Failure> {
        self.send(line)?;
        self.recv()
    }

    fn read_line(&mut self, buf: &mut String) -> Result<(), Failure> {
        match self.input.read_line(buf) {
            Ok(0) => Err(Failure::Disconnect("connection closed".into())),
            Ok(_) => Ok(()),
            Err(e) => Err(Failure::from_io(e)),
        }
    }
}
