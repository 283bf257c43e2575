//! A client for the server's line protocol.
//!
//! `TCP_NODELAY` is set and every request goes out in one `write`, so the
//! client's own batching never shows in a measured latency; what is left
//! is the server's.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// One response: the lines before the status line, and the status.
pub struct Response {
    pub body: Vec<String>,
    /// `Ok(n)` for `OK n`, `Err(message)` for `ERR message`.
    pub status: Result<usize, String>,
}

pub struct Client {
    out: TcpStream,
    input: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let out = TcpStream::connect(addr)?;
        out.set_nodelay(true)?;
        let mut input = BufReader::new(out.try_clone()?);
        let mut greeting = String::new();
        input.read_line(&mut greeting)?;
        if !greeting.starts_with('#') {
            return Err(io::Error::other(format!(
                "unexpected greeting {greeting:?}"
            )));
        }
        Ok(Client { out, input })
    }

    /// Send `text` (one or more newline-terminated requests) in a single
    /// write, then read `responses` responses.
    pub fn exchange(&mut self, text: &str, responses: usize) -> io::Result<Vec<Response>> {
        self.out.write_all(text.as_bytes())?;
        (0..responses).map(|_| self.response()).collect()
    }

    /// One request, one response.
    pub fn request(&mut self, line: &str) -> io::Result<Response> {
        let mut text = String::with_capacity(line.len() + 1);
        text.push_str(line);
        text.push('\n');
        Ok(self.exchange(&text, 1)?.pop().expect("one response"))
    }

    fn response(&mut self) -> io::Result<Response> {
        let mut body = Vec::new();
        loop {
            let mut line = String::new();
            if self.input.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed",
                ));
            }
            let line = line.trim_end_matches(['\n', '\r']);
            if let Some(n) = line.strip_prefix("OK ") {
                let n = n
                    .parse()
                    .map_err(|_| io::Error::other(format!("bad status {line}")))?;
                return Ok(Response {
                    body,
                    status: Ok(n),
                });
            }
            if let Some(message) = line.strip_prefix("ERR ") {
                return Ok(Response {
                    body,
                    status: Err(message.to_string()),
                });
            }
            body.push(line.to_string());
        }
    }
}
