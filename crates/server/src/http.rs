//! A minimal, dependency-free HTTP/1.1 codec.
//!
//! The server only needs the subset a JSON API uses: request line, headers,
//! `Content-Length`-delimited bodies, keep-alive, and fixed-length
//! responses.  Chunked transfer encoding and HTTP/2 are deliberately out of
//! scope — the load balancer in front of a production deployment speaks
//! plain HTTP/1.1 to its upstreams anyway.
//!
//! [`HttpClient`] is the matching client used by the integration tests and
//! the `asrs-bench` load generator, so both ends of the wire exercise the
//! same framing rules.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Upper bound on the request line plus headers, defending the worker pool
/// against unbounded allocations from a misbehaving client.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a request body (a batch of a few thousand queries fits
/// comfortably).
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct HttpRequest {
    /// Request method, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target (path plus optional query string).
    pub path: String,
    /// Header names are lower-cased; values are trimmed.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (`Content-Length`-delimited; empty when absent).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// The first header with the given lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// defaults to keep-alive unless `Connection: close` is sent).
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A wall-clock budget covering one whole request read, from its first
/// byte.  The per-read socket timeout only bounds individual syscalls, so
/// a client trickling one byte per timeout window could pin a pool worker
/// indefinitely; the budget closes the connection once the *total* read
/// time is spent (reported as `TimedOut`, which the server treats as a
/// silent close).
#[derive(Debug)]
struct ReadBudget {
    started: Instant,
    limit: Duration,
}

impl ReadBudget {
    fn new(limit: Duration) -> Self {
        Self {
            started: Instant::now(),
            limit,
        }
    }

    fn check(&self) -> io::Result<()> {
        if self.started.elapsed() > self.limit {
            Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request read exceeded the whole-request deadline",
            ))
        } else {
            Ok(())
        }
    }
}

/// Reads one request from the stream.  Returns `Ok(None)` on a clean
/// end-of-stream before any byte of a request, and `Err` with
/// `InvalidData` on malformed framing (the caller answers 400 and closes)
/// or `TimedOut` when the read, counted from the request's first byte,
/// exceeds `deadline` (the caller closes silently).  Idle time before the
/// first byte — a keep-alive connection between requests — is bounded by
/// the stream's own read timeout, not by `deadline`.
pub fn read_request<R: BufRead>(
    reader: &mut R,
    deadline: Duration,
) -> io::Result<Option<HttpRequest>> {
    if reader.fill_buf()?.is_empty() {
        return Ok(None);
    }
    let budget = ReadBudget::new(deadline);
    let mut head = 0usize;
    // Request line; tolerate stray blank lines between pipelined requests.
    let request_line = loop {
        let Some(line) = read_line(reader, &mut head, &budget)? else {
            return Ok(None);
        };
        if !line.is_empty() {
            break line;
        }
    };
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => {
            (m.to_string(), p.to_string(), v)
        }
        _ => return Err(malformed(format!("bad request line: {request_line:?}"))),
    };
    let _ = version;

    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line(reader, &mut head, &budget)? else {
            return Err(malformed("connection closed mid-headers".to_string()));
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(malformed(format!("bad header line: {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // Bodies are framed by Content-Length only; reject the transfer
    // encodings this codec does not speak rather than silently treating
    // the body as empty and desyncing on the chunk framing that follows.
    if let Some((_, encoding)) = headers.iter().find(|(k, _)| k == "transfer-encoding") {
        return Err(malformed(format!(
            "transfer-encoding {encoding:?} is not supported; send Content-Length"
        )));
    }
    // Conflicting duplicate Content-Length headers are the classic
    // request-smuggling desync vector (RFC 9112 requires rejecting
    // differing values); repeats of the *same* value are tolerated.
    let mut content_length: Option<usize> = None;
    for (_, value) in headers.iter().filter(|(k, _)| k == "content-length") {
        let parsed: usize = value
            .parse()
            .map_err(|_| malformed(format!("bad content-length: {value:?}")))?;
        match content_length {
            None => content_length = Some(parsed),
            Some(existing) if existing == parsed => {}
            Some(existing) => {
                return Err(malformed(format!(
                    "conflicting content-length headers: {existing} vs {parsed}"
                )))
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(malformed(format!(
            "body of {content_length} bytes exceeds the limit"
        )));
    }
    // Read the body in bounded steps so the whole-request budget applies
    // between syscalls (read_exact could block-trickle past any deadline).
    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    while filled < content_length {
        budget.check()?;
        let n = reader.read(&mut body[filled..])?;
        if n == 0 {
            return Err(malformed("connection closed mid-body".to_string()));
        }
        filled += n;
    }
    Ok(Some(HttpRequest {
        method,
        path,
        headers,
        body,
    }))
}

/// Reads one CRLF/LF-terminated line, charging its bytes against the
/// per-request head budget.  `Ok(None)` means end-of-stream.
///
/// The budget is enforced *while* reading, never after: a newline-free
/// byte stream errors out as soon as it crosses the limit instead of
/// accumulating in memory first (`BufRead::read_line` would buffer the
/// whole "line" before any length check could run).
fn read_line<R: BufRead>(
    reader: &mut R,
    head: &mut usize,
    budget: &ReadBudget,
) -> io::Result<Option<String>> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        budget.check()?;
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            // End of stream: clean only if nothing of a line was read.
            if line.is_empty() {
                return Ok(None);
            }
            break;
        }
        let (take, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos + 1, true),
            None => (buf.len(), false),
        };
        if *head + line.len() + take > MAX_HEAD_BYTES {
            return Err(malformed("request head exceeds the limit".to_string()));
        }
        line.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if done {
            break;
        }
    }
    *head += line.len();
    while line.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| malformed("request head is not UTF-8".to_string()))
}

fn malformed(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// The standard reason phrase for the status codes the server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes one JSON response with explicit framing.
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {len}\r\nConnection: {conn}\r\n\r\n{body}",
        reason = reason_phrase(status),
        len = body.len(),
        conn = if keep_alive { "keep-alive" } else { "close" },
    )?;
    writer.flush()
}

/// A keep-alive HTTP/1.1 client speaking the same subset as the server.
/// Used by the integration tests and the `asrs-bench` load generator.
#[derive(Debug)]
pub struct HttpClient {
    reader: BufReader<TcpStream>,
}

impl HttpClient {
    /// Connects to `addr`.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        // Request/response round trips are latency-bound; Nagle's algorithm
        // interacting with delayed ACKs adds tens of milliseconds per hop.
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request and reads the full response, returning the status
    /// code and body.  The connection stays open for the next call.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        {
            let stream = self.reader.get_mut();
            write!(
                stream,
                "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len(),
            )?;
            stream.flush()?;
        }
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<(u16, String)> {
        // Generous: a cold query may legitimately compute for a while
        // before the first response byte arrives.
        let budget = ReadBudget::new(Duration::from_secs(120));
        let mut head = 0usize;
        let status_line = read_line(&mut self.reader, &mut head, &budget)?
            .ok_or_else(|| malformed("connection closed before a response".to_string()))?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| malformed(format!("bad status line: {status_line:?}")))?;
        let mut content_length = 0usize;
        loop {
            let line = read_line(&mut self.reader, &mut head, &budget)?
                .ok_or_else(|| malformed("connection closed mid-headers".to_string()))?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| malformed(format!("bad content-length: {value:?}")))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        String::from_utf8(body)
            .map(|body| (status, body))
            .map_err(|_| malformed("response body is not UTF-8".to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(text: &str) -> io::Result<Option<HttpRequest>> {
        read_request(
            &mut Cursor::new(text.as_bytes().to_vec()),
            Duration::from_secs(5),
        )
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.body, b"{\"a\"");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.keep_alive());
    }

    #[test]
    fn connection_close_is_honoured() {
        let req = parse("GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive());
        assert!(req.body.is_empty());
    }

    #[test]
    fn clean_eof_yields_none_and_garbage_errors() {
        assert!(parse("").unwrap().is_none());
        assert!(parse("NONSENSE\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\nContent-Length: zero\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\nbroken header\r\n\r\n").is_err());
        // A truncated body is an error, not a hang.
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").is_err());
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        // CL.CL request smuggling: a front proxy honouring the other copy
        // of the header would desync from us, so differing duplicates are
        // a hard error; identical repeats are tolerated per RFC 9112.
        assert!(
            parse("POST / HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 2\r\n\r\nhi").is_err()
        );
        let req = parse("POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"hi");
    }

    #[test]
    fn chunked_transfer_encoding_is_rejected_explicitly() {
        // Silently ignoring Transfer-Encoding would route a bodyless
        // request and then parse the chunk-size line as the next request —
        // a confusing two-error failure instead of one clear rejection.
        assert!(parse(
            "POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
        )
        .is_err());
    }

    #[test]
    fn oversized_heads_and_bodies_are_rejected() {
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_HEAD_BYTES));
        assert!(parse(&huge).is_err());
        // A newline-free stream must be rejected at the budget, not
        // buffered whole: the error fires even though no line ever ends.
        let endless = format!("GET /{}", "x".repeat(MAX_HEAD_BYTES * 4));
        assert!(parse(&endless).is_err());
        let big_body = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(parse(&big_body).is_err());
    }

    #[test]
    fn responses_are_framed_with_length_and_connection() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"ok\":true}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));

        let mut out = Vec::new();
        write_response(&mut out, 408, "{}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 408 Request Timeout\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }
}
