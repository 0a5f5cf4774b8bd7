//! A minimal HTTP/1.1 keep-alive client: one socket, one request in
//! flight, `Content-Length` and chunked response bodies.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The exact bytes sent for one request.
pub fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One keep-alive connection.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self { stream, buf: Vec::with_capacity(64 * 1024) })
    }

    /// Sends pre-rendered request bytes and returns `(status, body)`.
    pub fn send(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.stream.write_all(request)?;
        self.read_response()
    }

    /// `GET path` with an empty body.
    pub fn get(&mut self, path: &str) -> io::Result<(u16, Vec<u8>)> {
        self.send(&request_bytes("GET", path, b""))
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_response(&mut self) -> io::Result<(u16, Vec<u8>)> {
        let head_len = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_len]).map_err(|_| bad("non-UTF-8 head"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let mut content_length = None;
        let mut chunked = false;
        for line in head.lines().skip(1) {
            let Some((k, v)) = line.split_once(':') else { continue };
            let (k, v) = (k.trim().to_ascii_lowercase(), v.trim());
            if k == "content-length" {
                content_length = Some(v.parse::<usize>().map_err(|_| bad("bad content-length"))?);
            } else if k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked") {
                chunked = true;
            }
        }
        self.buf.drain(..head_len);
        let body = if chunked {
            self.read_chunked()?
        } else {
            let n = content_length.unwrap_or(0);
            while self.buf.len() < n {
                self.fill()?;
            }
            self.buf.drain(..n).collect()
        };
        Ok((status, body))
    }

    fn read_chunked(&mut self) -> io::Result<Vec<u8>> {
        let mut body = Vec::new();
        loop {
            let line_end = loop {
                if let Some(i) = find(&self.buf, b"\r\n") {
                    break i;
                }
                self.fill()?;
            };
            let size_text =
                std::str::from_utf8(&self.buf[..line_end]).map_err(|_| bad("bad chunk size"))?;
            let size = usize::from_str_radix(size_text.split(';').next().unwrap_or("").trim(), 16)
                .map_err(|_| bad("bad chunk size"))?;
            let need = line_end + 2 + size + 2;
            while self.buf.len() < need {
                self.fill()?;
            }
            body.extend_from_slice(&self.buf[line_end + 2..line_end + 2 + size]);
            self.buf.drain(..need);
            if size == 0 {
                return Ok(body);
            }
        }
    }
}
