//! A hand-rolled HTTP/1.1 server on `std::net` — no external crates.
//!
//! The query API's traffic is tiny (short JSON responses, a metrics
//! page) and the workspace is offline, so the server is deliberately
//! minimal: a fixed pool of worker threads each blocking on
//! `accept` against a shared listener (the kernel load-balances
//! accepts), one connection handled at a time per worker, keep-alive
//! honoured, and a routing closure supplied by the daemon. What it
//! implements of HTTP/1.1 is exactly what the endpoints and common
//! clients (curl, the bundled [`crate::client`]) need:
//!
//! * request line + headers + `Content-Length` bodies (no chunked
//!   transfer, no trailers) with hard size limits,
//! * `Connection: close` / keep-alive,
//! * percent-decoding for path segments and query parameters.
//!
//! Shutdown is cooperative: workers poll the [`ShutdownFlag`] at every
//! accept and every connection read timeout, and [`HttpPool::join`]
//! nudges workers blocked in `accept` with throwaway connections until
//! the pool's live count hits zero — the pure-`std` substitute for
//! closing the listener out from under them.

use crate::ShutdownFlag;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest accepted request line (method + path + version).
const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 64;
/// Largest accepted request body.
const MAX_BODY: usize = 256 * 1024;
/// Read timeout on idle connections — the keep-alive poll interval for
/// the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(200);

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, ...).
    pub method: String,
    /// Percent-decoded path, query string stripped (always starts
    /// with `/`).
    pub path: String,
    /// Percent-decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Raw request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of query parameter `name`, if present.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One response to write back.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    fn status_text(status: u16) -> &'static str {
        match status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Status",
        }
    }
}

/// Decodes `%XX` escapes (`XX` two ASCII hex digits) and `+` as space,
/// form-style, in `s`; malformed escapes pass through literally rather
/// than erroring — a path that was never encoded still routes.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                // `from_str_radix` alone would take a sign: `%+1` is no escape.
                let hex = bytes
                    .get(i + 1..i + 3)
                    .filter(|h| h.iter().all(u8::is_ascii_hexdigit));
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The daemon-supplied request handler.
pub type Router = dyn Fn(&Request) -> Response + Send + Sync;

/// A running worker pool serving one listener.
#[derive(Debug)]
pub struct HttpPool {
    workers: Vec<JoinHandle<()>>,
    live: Arc<AtomicUsize>,
    addr: SocketAddr,
}

/// Spawns `workers` threads accepting on `listener` and routing through
/// `router` until `shutdown` triggers.
///
/// # Errors
///
/// Returns any I/O error from interrogating or cloning the listener.
pub fn serve(
    listener: TcpListener,
    workers: usize,
    shutdown: Arc<ShutdownFlag>,
    router: Arc<Router>,
) -> io::Result<HttpPool> {
    let addr = listener.local_addr()?;
    let workers = workers.max(1);
    let live = Arc::new(AtomicUsize::new(workers));
    let mut handles = Vec::with_capacity(workers);
    for i in 0..workers {
        let listener = listener.try_clone()?;
        let shutdown = Arc::clone(&shutdown);
        let router = Arc::clone(&router);
        let live = Arc::clone(&live);
        handles.push(
            std::thread::Builder::new()
                .name(format!("hf-http-{i}"))
                .spawn(move || {
                    accept_loop(&listener, &shutdown, router.as_ref());
                    live.fetch_sub(1, Ordering::SeqCst);
                })
                .expect("spawn http worker"),
        );
    }
    Ok(HttpPool {
        workers: handles,
        live,
        addr,
    })
}

impl HttpPool {
    /// The bound listener address (with the real port for `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Joins every worker. The shutdown flag must already be triggered;
    /// workers parked in `accept` are woken with throwaway connections.
    pub fn join(self) {
        // A worker blocked in accept() consumes exactly one nudge and
        // exits; a worker mid-connection exits at its next idle poll.
        let mut target = self.addr;
        if target.ip().is_unspecified() {
            target = SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), target.port());
        }
        while self.live.load(Ordering::SeqCst) > 0 {
            let _ = TcpStream::connect_timeout(&target, Duration::from_millis(100));
            std::thread::sleep(Duration::from_millis(5));
        }
        for w in self.workers {
            let _ = w.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shutdown: &ShutdownFlag, router: &Router) {
    loop {
        if shutdown.is_set() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if shutdown.is_set() {
                    return; // a wake-up nudge, not a client
                }
                handle_connection(stream, shutdown, router);
            }
            Err(_) => {
                if shutdown.is_set() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn handle_connection(stream: TcpStream, shutdown: &ShutdownFlag, router: &Router) {
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        if shutdown.is_set() {
            return;
        }
        // Idle poll: wait for the first byte of a request (or EOF) so a
        // read timeout here means "nothing in flight", never a
        // half-parsed request.
        match reader.fill_buf() {
            Ok([]) => return, // clean EOF
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
        match read_request(&mut reader) {
            Ok(Some((request, keep_alive))) => {
                let response = router(&request);
                if write_response(&mut writer, &response).is_err() || !keep_alive {
                    return;
                }
            }
            Ok(None) => return,
            Err(e) => {
                let status = if e.kind() == io::ErrorKind::InvalidData {
                    400
                } else {
                    500
                };
                let _ = write_response(&mut writer, &Response::text(status, e.to_string()));
                return;
            }
        }
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Reads one request. `Ok(None)` is clean EOF before a request started.
/// The boolean is whether the connection should be kept alive.
#[allow(clippy::type_complexity)]
fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<(Request, bool)>> {
    let mut line = String::new();
    if read_limited_line(reader, &mut line)? == 0 {
        return Ok(None);
    }
    let (method, target, keep_alive) = {
        let mut parts = line.split_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| bad("empty request line"))?
            .to_ascii_uppercase();
        let target = parts
            .next()
            .ok_or_else(|| bad("missing request target"))?
            .to_string();
        let version = parts.next().unwrap_or("HTTP/1.0");
        (method, target, version == "HTTP/1.1")
    };
    let mut keep_alive = keep_alive;
    let mut content_length = 0usize;
    for headers in 0.. {
        line.clear();
        read_limited_line(reader, &mut line)?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if headers == MAX_HEADERS {
            return Err(bad("too many headers"));
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad("malformed header"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| bad("unparseable content-length"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    if content_length > MAX_BODY {
        return Err(bad("request body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target.as_str(), None),
    };
    let query = raw_query
        .map(|q| {
            q.split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => (percent_decode(k), percent_decode(v)),
                    None => (percent_decode(kv), String::new()),
                })
                .collect()
        })
        .unwrap_or_default();
    Ok(Some((
        Request {
            method,
            path: percent_decode(raw_path),
            query,
            body,
        },
        keep_alive,
    )))
}

/// `read_line` with the request-line/header size limit enforced while
/// reading: at most one byte past the limit is taken from `reader`, so a
/// client streaming a line without end is refused, not buffered.
fn read_limited_line<R: BufRead>(reader: &mut R, line: &mut String) -> io::Result<usize> {
    let n = reader.take(MAX_REQUEST_LINE as u64 + 1).read_line(line)?;
    if line.len() > MAX_REQUEST_LINE {
        return Err(bad("request line or header too long"));
    }
    Ok(n)
}

fn write_response<W: Write>(writer: &mut W, response: &Response) -> io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        response.status,
        Response::status_text(response.status),
        response.content_type,
        response.body.len()
    )?;
    writer.write_all(&response.body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Option<(Request, bool)> {
        read_request(&mut BufReader::new(raw.as_bytes())).unwrap()
    }

    #[test]
    fn parses_a_get_with_query() {
        let (req, keep_alive) =
            parse("GET /epochs/3/top?k=5&x=a%20b HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/epochs/3/top");
        assert_eq!(req.query_param("k"), Some("5"));
        assert_eq!(req.query_param("x"), Some("a b"));
        assert!(req.body.is_empty());
        assert!(keep_alive);
    }

    #[test]
    fn parses_a_post_body_and_connection_close() {
        let (req, keep_alive) =
            parse("POST /queries HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbody")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"body");
        assert!(!keep_alive);
    }

    #[test]
    fn eof_before_a_request_is_clean() {
        assert!(parse("").is_none());
    }

    #[test]
    fn rejects_oversized_bodies_and_bad_headers() {
        let raw = format!(
            "POST /q HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(read_request(&mut BufReader::new(raw.as_bytes())).is_err());
        assert!(read_request(&mut BufReader::new(
            "GET / HTTP/1.1\r\nbroken header\r\n\r\n".as_bytes()
        ))
        .is_err());
    }

    /// Counts the bytes taken from the reader it wraps.
    struct Counted<R> {
        inner: R,
        taken: usize,
    }

    impl<R: io::Read> io::Read for Counted<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.taken += n;
            Ok(n)
        }
    }

    #[test]
    fn a_line_without_end_is_refused_at_the_limit() {
        const BUFFER: usize = 4096;
        for prefix in ["", "GET / HTTP/1.1\r\nX-Long: "] {
            let endless = Counted {
                inner: prefix.as_bytes().chain(io::repeat(b'a')),
                taken: 0,
            };
            let mut reader = BufReader::with_capacity(BUFFER, endless);
            let err = read_request(&mut reader).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{prefix:?}");
            let taken = reader.get_ref().taken;
            assert!(
                taken <= prefix.len() + MAX_REQUEST_LINE + 1 + BUFFER,
                "{prefix:?}: read {taken} bytes"
            );
        }
    }

    #[test]
    fn more_than_the_header_limit_is_refused() {
        let request = |headers: usize| {
            let mut raw = "GET / HTTP/1.1\r\n".to_string();
            for i in 0..headers {
                raw.push_str(&format!("X-H{i}: v\r\n"));
            }
            raw.push_str("\r\n");
            read_request(&mut BufReader::new(raw.as_bytes()))
        };
        assert!(request(MAX_HEADERS).unwrap().is_some());
        let err = request(MAX_HEADERS + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_seeded_sweep_of_garbage_requests_never_panics() {
        // SplitMix64, so the sweep is the same on every run.
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // Fragments of real requests, so the garbage reaches past the
        // request line into headers, lengths, bodies and escapes.
        const PIECES: [&[u8]; 12] = [
            b"GET ",
            b"POST ",
            b"/epochs/1/flows/10.0.0.1:80-%3E10.0.0.2:443%2F6",
            b"?k=%",
            b" HTTP/1.1",
            b"\r\n",
            b"\n",
            b"Content-Length: ",
            b"99999999999999999999",
            b"Connection: close",
            b": ",
            b"\xff\xfe%zz+",
        ];
        for _ in 0..2_000 {
            let mut raw = Vec::new();
            for _ in 0..next() % 24 {
                match next() % 3 {
                    0 => raw.push(next() as u8),
                    _ => raw.extend_from_slice(PIECES[(next() % 12) as usize]),
                }
            }
            let _ = read_request(&mut BufReader::new(raw.as_slice()));
        }
    }

    #[test]
    fn percent_decoding_handles_the_flow_key_form() {
        assert_eq!(
            percent_decode("10.0.0.1:80-%3E10.0.0.2:443%2F6"),
            "10.0.0.1:80->10.0.0.2:443/6"
        );
        assert_eq!(percent_decode("a%ZZb"), "a%ZZb", "bad escapes pass through");
        assert_eq!(
            percent_decode("/epochs/%+1"),
            "/epochs/% 1",
            "a sign is no hex digit"
        );
    }

    #[test]
    fn response_renders_with_length() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{}".into())).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
