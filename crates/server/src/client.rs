//! A minimal blocking HTTP/1.1 client for the campaign service.
//!
//! Just enough protocol for the load harness and the test batteries:
//! keep-alive request/response over one [`TcpStream`], fixed-length
//! (`Content-Length`) and `chunked` response bodies, nothing else.  It
//! deliberately shares no code with the server-side parser in
//! [`crate::http`], so the two directions of every integration test
//! exercise independently written framing logic.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A parsed response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header name/value pairs, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The de-framed body (chunked bodies arrive re-assembled).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// A keep-alive connection to a campaign server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    host: String,
}

fn invalid(detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.into())
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7878`).
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect(addr: impl ToSocketAddrs + std::fmt::Display) -> io::Result<Self> {
        let host = addr.to_string();
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(600)))?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            host,
        })
    }

    /// Sends a `GET` and reads the response.
    ///
    /// # Errors
    ///
    /// Returns transport errors and protocol violations as [`io::Error`].
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        let head = format!("GET {path} HTTP/1.1\r\nHost: {}\r\n\r\n", self.host);
        self.writer.write_all(head.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Sends a `POST` with a binary body and reads the response.
    ///
    /// # Errors
    ///
    /// Returns transport errors and protocol violations as [`io::Error`].
    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<ClientResponse> {
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n",
            self.host,
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body)?;
        self.writer.flush()?;
        self.read_response()
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(invalid("connection closed mid-response"));
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }

    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let status_line = self.read_line()?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| invalid(format!("bad status line: {status_line:?}")))?;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                headers.push((name.trim().to_string(), value.trim().to_string()));
            }
        }
        let header = |name: &str| {
            headers
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.as_str())
        };
        let body = if header("Transfer-Encoding")
            .is_some_and(|te| te.eq_ignore_ascii_case("chunked"))
        {
            self.read_chunked()?
        } else {
            let length: usize = header("Content-Length")
                .unwrap_or("0")
                .parse()
                .map_err(|_| invalid("unparseable Content-Length"))?;
            let mut body = vec![0u8; length];
            self.reader.read_exact(&mut body)?;
            body
        };
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }

    fn read_chunked(&mut self) -> io::Result<Vec<u8>> {
        let mut body = Vec::new();
        loop {
            let size_line = self.read_line()?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| invalid(format!("bad chunk size: {size_line:?}")))?;
            if size == 0 {
                // Trailer section: read lines until the blank terminator.
                loop {
                    if self.read_line()?.is_empty() {
                        break;
                    }
                }
                return Ok(body);
            }
            let start = body.len();
            body.resize(start + size, 0);
            self.reader.read_exact(&mut body[start..])?;
            let sep = self.read_line()?;
            if !sep.is_empty() {
                return Err(invalid("missing CRLF after chunk"));
            }
        }
    }
}
