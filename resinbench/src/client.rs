//! A keep-alive HTTP/1.1 client: one request in flight per connection,
//! as a browser tab waits for its page (a closed loop).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::content::form_encode;

/// A parsed response. The body is kept as bytes: the oracle compares
/// them exactly.
#[derive(Debug, Default)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// Bytes on the wire, head included.
    pub wire_bytes: usize,
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A server that stops answering fails the request instead of
        // hanging the run.
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Sends one request and reads its whole reply.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.send(request)?;
        self.recv()
    }

    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)
    }

    /// Reads the next whole reply.
    pub fn recv(&mut self) -> io::Result<Reply> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(reply) = self.parse_buffered()? {
                return Ok(reply);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-reply",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Takes one complete reply off the buffer, if one has arrived.
    fn parse_buffered(&mut self) -> io::Result<Option<Reply>> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 reply head"))?;
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let len = head
            .split("\r\n")
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse::<usize>().ok())
                    .flatten()
            })
            .ok_or_else(|| bad("reply without Content-Length"))?;
        let total = head_end + 4 + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Reply {
            status,
            body,
            wire_bytes: total,
        }))
    }
}

pub fn get(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: forum.bench\r\n\r\n").into_bytes()
}

/// A form POST; `sid` authenticates it.
pub fn post_form(path: &str, field: &str, value: &str, sid: Option<&str>) -> Vec<u8> {
    let form = format!("{field}={}", form_encode(value));
    let cookie = sid
        .map(|s| format!("Cookie: sid={s}\r\n"))
        .unwrap_or_default();
    format!(
        "POST {path} HTTP/1.1\r\nHost: forum.bench\r\n{cookie}Content-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n{form}",
        form.len()
    )
    .into_bytes()
}

/// Logs `user` in over `conn`; returns the session id.
pub fn login(conn: &mut Conn, user: &str) -> io::Result<String> {
    let reply = conn.roundtrip(&post_form("/login", "user", user, None))?;
    if reply.status != 200 {
        return Err(io::Error::other(format!("login answered {}", reply.status)));
    }
    String::from_utf8(reply.body).map_err(|_| io::Error::other("non-UTF-8 sid"))
}
