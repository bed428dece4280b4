//! A dependency-free HTTP/1.1 server over `std::net`.
//!
//! The original SkyServer front end is IIS + JavaScript ASP (§5); this is
//! the smallest substrate that lets the reproduction serve the same page
//! families and SQL endpoints to a browser or `curl`.  The serving model
//! mirrors what §7 demanded of the real site (a 20x TV-driven traffic
//! spike, months of crawler load): a **bounded worker pool** pulls
//! connections off a fixed-depth accept queue (overload answers `503`
//! instead of spawning unbounded threads), connections are reused via
//! **HTTP/1.1 keep-alive** (the `Connection:` header is honored), and the
//! request head is capped at [`ServerConfig::max_header_bytes`] so a
//! hostile client cannot grow memory without limit.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// HTTP method (`GET`, ...).
    pub method: String,
    /// Path without the query string, e.g. `/en/tools/search/x_sql.asp`.
    pub path: String,
    /// Decoded query parameters.
    pub query: HashMap<String, String>,
    /// Protocol version from the request line (`HTTP/1.1`, `HTTP/1.0`).
    pub version: String,
    /// Request headers, keys lowercased.
    pub headers: HashMap<String, String>,
    /// Request body (empty for GET; read up to
    /// [`ServerConfig::max_body_bytes`] for POST).
    pub body: Vec<u8>,
}

impl Request {
    /// A query parameter by name.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(String::as_str)
    }

    /// Attach a body (builder style; used by tests that construct requests
    /// through [`parse_request`], which parses the head only).
    pub fn with_body(mut self, body: Vec<u8>) -> Request {
        self.body = body;
        self
    }

    /// Whether the body is an HTML-form submission
    /// (`application/x-www-form-urlencoded`).
    pub fn is_form(&self) -> bool {
        self.header("content-type")
            .is_some_and(|ct| ct.starts_with("application/x-www-form-urlencoded"))
    }

    /// Decoded `application/x-www-form-urlencoded` body parameters (empty
    /// for any other content type).  Keys are lowercased like query keys.
    pub fn form_params(&self) -> HashMap<String, String> {
        if !self.is_form() {
            return HashMap::new();
        }
        parse_query_pairs(&String::from_utf8_lossy(&self.body))
    }

    /// A header by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// Whether the client wants the connection kept open: HTTP/1.1 defaults
    /// to keep-alive unless `Connection: close`; HTTP/1.0 defaults to close
    /// unless `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => self.version != "HTTP/1.0",
        }
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: String,
    /// The response body.
    pub body: Vec<u8>,
    /// Extra response headers (`(name, value)` pairs) beyond the
    /// Content-Type / Content-Length / Connection set the server always
    /// writes.  The API tier uses these for pagination metadata on
    /// non-JSON bodies (`X-Next-Cursor`, `X-Total-Rows`).
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// A response with an arbitrary status code and a plain-text body.
    pub fn with_status(status: u16, message: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8".into(),
            body: message.as_bytes().to_vec(),
            headers: Vec::new(),
        }
    }

    /// 200 OK with a text body.
    pub fn ok(content_type: &str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status: 200,
            content_type: content_type.to_string(),
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// HTML convenience constructor.
    pub fn html(body: impl Into<String>) -> Response {
        Response::ok("text/html; charset=utf-8", body.into().into_bytes())
    }

    /// 404 Not Found.
    pub fn not_found(path: &str) -> Response {
        Response::with_status(404, &format!("not found: {path}"))
    }

    /// 400 Bad Request.
    pub fn bad_request(message: &str) -> Response {
        Response::with_status(400, message)
    }

    /// 503 Service Unavailable (the accept queue is full).
    pub fn unavailable(message: &str) -> Response {
        Response::with_status(503, message)
    }

    /// Attach an extra response header (builder style).
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// The first extra header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn status_text(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            406 => "Not Acceptable",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "OK",
        }
    }

    /// Serialise to the wire format.  `keep_alive` selects the
    /// `Connection:` header; callers that close unconditionally pass
    /// `false` (the pre-keep-alive behaviour).
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            self.status_text(),
            self.content_type,
            self.body.len(),
            connection,
        );
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// Percent-decode a URL component (enough for the SQL the search page
/// sends).  Works on the raw bytes so a `%` followed by multibyte UTF-8
/// cannot cause an out-of-boundary string slice.
pub fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        match (b, bytes.get(i + 1), bytes.get(i + 2)) {
            (b'%', Some(&hi), Some(&lo)) if hi.is_ascii_hexdigit() && lo.is_ascii_hexdigit() => {
                out.push((hex_val(hi) << 4) | hex_val(lo));
                i += 3;
            }
            (b'+', _, _) => {
                out.push(b' ');
                i += 1;
            }
            _ => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Value of one hex digit.  Total: callers guard with `is_ascii_hexdigit`,
/// and any other byte maps to 0 rather than panicking on a request path.
fn hex_val(b: u8) -> u8 {
    match b {
        b'0'..=b'9' => b - b'0',
        b'a'..=b'f' => b - b'a' + 10,
        b'A'..=b'F' => b - b'A' + 10,
        _ => 0,
    }
}

/// Decode `k=v&k2=v2` pairs (query strings and form bodies share the
/// encoding).  Keys are lowercased.
fn parse_query_pairs(raw: &str) -> HashMap<String, String> {
    let mut pairs = HashMap::new();
    for pair in raw.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        pairs.insert(url_decode(k).to_ascii_lowercase(), url_decode(v));
    }
    pairs
}

/// Parse the request line, query string and headers of an HTTP request
/// head.  The body (if any) is read separately by the server and attached
/// via [`Request::with_body`].
pub fn parse_request(raw: &str) -> Option<Request> {
    let mut lines = raw.lines();
    let first_line = lines.next()?;
    let mut parts = first_line.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?;
    let version = parts.next().unwrap_or("HTTP/1.1").to_string();
    let (path, query_string) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = parse_query_pairs(query_string);
    let mut headers = HashMap::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
    }
    Some(Request {
        method,
        path: url_decode(path),
        query,
        version,
        headers,
        body: Vec::new(),
    })
}

/// Tuning knobs of the serving tier.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of worker threads handling connections.
    pub workers: usize,
    /// Depth of the accept queue; connections beyond it get a `503`.
    pub queue_depth: usize,
    /// Maximum bytes of request line + headers before the server answers
    /// `400` and closes (defends against unbounded header growth).
    pub max_header_bytes: usize,
    /// Maximum bytes of request body (POST) before the server answers
    /// `413` and closes.
    pub max_body_bytes: usize,
    /// Maximum requests served over one keep-alive connection.
    pub max_keep_alive_requests: usize,
    /// Socket read timeout (also bounds how long an idle keep-alive
    /// connection pins a worker between requests).
    pub read_timeout: Duration,
    /// Wall-clock budget for one connection.  With a bounded pool a
    /// long-lived keep-alive socket pins a worker; past this age the next
    /// response says `Connection: close` so the worker rotates back to the
    /// queue.
    pub max_connection_age: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ServerConfig {
            // Enough workers to overlap I/O even on small machines: with a
            // bounded pool, every worker a slow client can pin matters.
            workers: (2 * cores).clamp(8, 32),
            queue_depth: 64,
            max_header_bytes: 16 * 1024,
            max_body_bytes: 256 * 1024,
            max_keep_alive_requests: 100,
            read_timeout: Duration::from_secs(5),
            max_connection_age: Duration::from_secs(30),
        }
    }
}

/// A running HTTP server: an accept thread plus a bounded worker pool.
///
/// The accept thread blocks in `accept`; [`HttpServer::stop`] wakes it by
/// connecting to the server's own address.  Workers park in `read` on idle
/// keep-alive connections, and `stop` ends those reads by shutting down the
/// read side of every open connection.
pub struct HttpServer {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    connections: Arc<Connections>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// The connections the workers are serving.  Shutting down a connection's
/// read side makes a worker parked in `read` on it see end-of-stream at
/// once instead of after [`ServerConfig::read_timeout`]; a request already
/// read is still answered, with `Connection: close`.
#[derive(Default)]
struct Connections {
    open: Mutex<HashMap<u64, TcpStream>>,
    next_id: AtomicU64,
}

impl Connections {
    fn lock(&self) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.open.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Track `stream` until [`Connections::close`].  A connection that
    /// arrives after shutdown began is closed for reading here: under the
    /// lock, either `close_reads` already ran and set the flag first, or it
    /// has yet to run and will find the entry.
    fn open(&self, stream: &TcpStream, shutdown: &AtomicBool) -> Option<u64> {
        let tracked = stream.try_clone().ok()?;
        let mut open = self.lock();
        if shutdown.load(Ordering::SeqCst) {
            let _ = tracked.shutdown(Shutdown::Read);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        open.insert(id, tracked);
        Some(id)
    }

    fn close(&self, id: Option<u64>) {
        if let Some(id) = id {
            self.lock().remove(&id);
        }
    }

    fn close_reads(&self) {
        for stream in self.lock().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

impl HttpServer {
    /// Start serving on `127.0.0.1:port` (port 0 picks a free port) with the
    /// given request handler and default configuration.
    pub fn start<F>(port: u16, handler: F) -> std::io::Result<HttpServer>
    where
        F: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        HttpServer::start_with(port, ServerConfig::default(), handler)
    }

    /// Start serving with an explicit [`ServerConfig`].
    pub fn start_with<F>(port: u16, config: ServerConfig, handler: F) -> std::io::Result<HttpServer>
    where
        F: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(Connections::default());
        let handler = Arc::new(handler);
        let config = Arc::new(config);
        let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) =
            std::sync::mpsc::sync_channel(config.queue_depth);
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::with_capacity(config.workers);
        for _ in 0..config.workers.max(1) {
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(&handler);
            let config = Arc::clone(&config);
            let shutdown = Arc::clone(&shutdown);
            let connections = Arc::clone(&connections);
            workers.push(std::thread::spawn(move || loop {
                // Holding the lock only while waiting: once a connection is
                // received the lock drops and the next worker can wait.
                let stream = match rx
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .recv()
                {
                    Ok(stream) => stream,
                    // All senders are gone: the accept loop exited.
                    Err(_) => break,
                };
                // A panicking handler must cost one connection, not a pool
                // worker — with a bounded pool, `workers` leaked panics
                // would otherwise brick the whole server.
                let id = connections.open(&stream, &shutdown);
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = handle_connection(stream, handler.as_ref(), &config, &shutdown);
                }));
                connections.close(id);
            }));
        }

        let shutdown_flag = Arc::clone(&shutdown);
        let accept_handle = std::thread::spawn(move || {
            // `tx` is moved in here; dropping it on exit stops the workers.
            for stream in listener.incoming() {
                if shutdown_flag.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(stream) => match tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(stream)) => {
                            // Bounded overload behaviour: shed the
                            // connection instead of queueing without
                            // limit, hinting when to come back.
                            let _ = refuse_connection(
                                stream,
                                Response::unavailable("server overloaded, retry shortly")
                                    .with_header("Retry-After", crate::api::RETRY_AFTER_SECONDS),
                            );
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    },
                    Err(_) => break,
                }
            }
        });
        Ok(HttpServer {
            addr,
            shutdown,
            connections,
            accept_handle: Some(accept_handle),
            workers,
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting connections, close idle keep-alive connections and
    /// join the accept thread and workers.  Requests already read are
    /// answered first.
    pub fn stop(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            // One connection of our own wakes the blocked `accept` to see
            // the flag.  If it cannot be made, the threads are left to
            // finish on their own rather than joined forever.
            if !h.is_finished() && TcpStream::connect(self.addr).is_err() {
                self.workers.clear();
                return;
            }
            let _ = h.join();
        }
        self.connections.close_reads();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// Serve one connection, possibly across many keep-alive requests.
fn handle_connection<F>(
    mut stream: TcpStream,
    handler: &F,
    config: &ServerConfig,
    shutdown: &AtomicBool,
) -> std::io::Result<()>
where
    F: Fn(&Request) -> Response,
{
    stream.set_read_timeout(Some(config.read_timeout))?;
    // Small request/response exchanges over keep-alive connections stall on
    // Nagle + delayed-ACK (~40 ms per round trip) without this.
    stream.set_nodelay(true)?;
    let opened = std::time::Instant::now();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut served = 0usize;
    loop {
        let head = match read_request_head(&mut reader, config.max_header_bytes)? {
            HeadRead::Complete(head) => head,
            HeadRead::Closed => return Ok(()),
            HeadRead::TooLarge => {
                // The client may still be streaming headers; a plain close
                // here would RST the socket and destroy the 400 before the
                // client reads it.
                return refuse_connection(
                    stream,
                    Response::bad_request("request headers too large"),
                );
            }
        };
        let (response, client_keep_alive) = match parse_request(&head) {
            Some(mut request) => {
                // Chunked uploads are not supported; a declared body is
                // read in full (keep-alive depends on consuming it) up to
                // the configured cap.  Every parsed method reaches the
                // handler — method routing (405s, the API's structured
                // envelope) is the application's concern, not transport's.
                if request
                    .header("transfer-encoding")
                    .is_some_and(|te| !te.eq_ignore_ascii_case("identity"))
                {
                    return refuse_connection(
                        stream,
                        Response::bad_request("chunked request bodies are not supported"),
                    );
                }
                let content_length = match request.header("content-length") {
                    None => 0,
                    // A declared-but-unparseable length must close the
                    // connection: treating it as 0 would leave the body
                    // bytes in the stream to corrupt the next keep-alive
                    // request.
                    Some(v) => match v.trim().parse::<usize>() {
                        Ok(n) => n,
                        Err(_) => {
                            return refuse_connection(
                                stream,
                                Response::bad_request("malformed Content-Length"),
                            )
                        }
                    },
                };
                if content_length > config.max_body_bytes {
                    return refuse_connection(
                        stream,
                        Response::with_status(413, "request body too large"),
                    );
                }
                if content_length > 0 {
                    let mut body = vec![0u8; content_length];
                    reader.read_exact(&mut body)?;
                    request.body = body;
                }
                let keep = request.wants_keep_alive();
                // A panicking handler costs this one request, not the
                // connection's worker: the client gets a structured 500
                // envelope and the connection closes (the handler may
                // have died before consuming request state, so keep-alive
                // cannot be trusted to stay in sync).
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(&request)));
                match outcome {
                    Ok(response) => (response, keep),
                    Err(_) => (internal_error_response(), false),
                }
            }
            None => (Response::bad_request("malformed request"), false),
        };
        served += 1;
        let keep_alive = client_keep_alive
            && served < config.max_keep_alive_requests
            && opened.elapsed() < config.max_connection_age
            && !shutdown.load(Ordering::Relaxed);
        // Chaos hook: an injected fault here models a socket-level write
        // failure.  The error drops the connection (there is no channel
        // left to answer on) but must never take the worker with it.
        skyserver::storage::failpoints::check("http.response_write")
            .map_err(std::io::Error::other)?;
        stream.write_all(&response.to_bytes(keep_alive))?;
        stream.flush()?;
        if !keep_alive {
            return Ok(());
        }
    }
}

/// The structured `500` a panicking handler turns into: same envelope
/// shape as the API's `internal_error`, so machine clients parse it even
/// on the legacy routes.
fn internal_error_response() -> Response {
    let body = serde_json::json!({
        "error": {
            "code": "internal_error",
            "message": "the request handler failed unexpectedly; the connection will close",
            "detail": serde_json::Value::Null,
        }
    });
    let mut response = Response::ok(
        "application/json; charset=utf-8",
        body.to_string().into_bytes(),
    );
    response.status = 500;
    response
}

/// Send a refusal response on a connection whose request was never (fully)
/// read, then close gracefully.  Closing with unread bytes in the socket
/// would send RST, which flushes the client's receive buffer and destroys
/// the response — so half-close the write side and briefly drain instead.
fn refuse_connection(mut stream: TcpStream, response: Response) -> std::io::Result<()> {
    stream.write_all(&response.to_bytes(false))?;
    stream.flush()?;
    stream.shutdown(std::net::Shutdown::Write)?;
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut sink = [0u8; 4096];
    // Bounded drain: up to ~256 KiB or the 50 ms timeout, whichever first.
    for _ in 0..64 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    Ok(())
}

enum HeadRead {
    /// Request line + headers, terminated by the blank line.
    Complete(String),
    /// The client closed the connection before sending a request.
    Closed,
    /// The head exceeded the configured byte cap.
    TooLarge,
}

/// Read one request head (request line + headers) with a total byte cap.
fn read_request_head<R: BufRead>(reader: &mut R, cap: usize) -> std::io::Result<HeadRead> {
    let mut head = String::new();
    // `take` enforces the cap even inside a single unterminated line, so a
    // client streaming one endless header cannot grow the buffer.
    let mut limited = reader.take(cap as u64);
    loop {
        let mut line = String::new();
        let n = limited.read_line(&mut line)?;
        if n == 0 {
            return Ok(if head.is_empty() {
                HeadRead::Closed
            } else {
                // EOF (or the byte cap) hit mid-request.
                HeadRead::TooLarge
            });
        }
        if !line.ends_with('\n') {
            // read_line stopped because the `take` limit was reached.
            return Ok(HeadRead::TooLarge);
        }
        if line == "\r\n" || line == "\n" {
            return Ok(HeadRead::Complete(head));
        }
        head.push_str(&line);
    }
}

/// Minimal blocking HTTP GET used by the integration tests and examples
/// (one request per connection: sends `Connection: close`).
pub fn http_get(
    addr: std::net::SocketAddr,
    path_and_query: &str,
) -> std::io::Result<(u16, String)> {
    http_request(addr, "GET", path_and_query, None, &[])
}

/// Minimal blocking HTTP request with an optional body (one request per
/// connection: sends `Connection: close`).  `content_type` must be given
/// whenever `body` is non-empty.
pub fn http_request(
    addr: std::net::SocketAddr,
    method: &str,
    path_and_query: &str,
    content_type: Option<&str>,
    body: &[u8],
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let content_type_header = content_type
        .map(|ct| format!("Content-Type: {ct}\r\n"))
        .unwrap_or_default();
    write!(
        stream,
        "{method} {path_and_query} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\
         {content_type_header}Content-Length: {}\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// A keep-alive HTTP client: issues many GETs over one TCP connection,
/// transparently reconnecting when the server answers `Connection: close`
/// (e.g. after [`ServerConfig::max_keep_alive_requests`]).  Used by the
/// concurrency tests and the TCP benchmark.
pub struct HttpClient {
    addr: std::net::SocketAddr,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// `Retry-After` (in seconds) from the most recent response, if the
    /// server sent one — the backoff loop honors it.
    retry_after: Option<u64>,
}

impl HttpClient {
    /// Open a persistent connection to the server.
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<HttpClient> {
        let (stream, reader) = HttpClient::open(addr)?;
        Ok(HttpClient {
            addr,
            stream,
            reader,
            retry_after: None,
        })
    }

    fn open(addr: std::net::SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok((stream, reader))
    }

    /// Issue one GET and read the full response (status, body).  The
    /// connection stays open for the next call unless the server asked to
    /// close it, in which case the next call reconnects.
    pub fn get(&mut self, path_and_query: &str) -> std::io::Result<(u16, String)> {
        self.request("GET", path_and_query, None, &[])
    }

    /// Issue one request with an optional body over the persistent
    /// connection (status, body).  `content_type` must be given whenever
    /// `body` is non-empty.
    pub fn request(
        &mut self,
        method: &str,
        path_and_query: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> std::io::Result<(u16, String)> {
        let content_type_header = content_type
            .map(|ct| format!("Content-Type: {ct}\r\n"))
            .unwrap_or_default();
        write!(
            self.stream,
            "{method} {path_and_query} HTTP/1.1\r\nHost: localhost\r\n\
             {content_type_header}Content-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.stream.write_all(body)?;
        self.stream.flush()?;
        let mut status = 0u16;
        let mut content_length = 0usize;
        let mut server_closes = false;
        let mut retry_after: Option<u64> = None;
        let mut first = true;
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
            let trimmed = line.trim_end();
            if first {
                status = trimmed
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                first = false;
                continue;
            }
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                let name = name.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().unwrap_or(0);
                } else if name.eq_ignore_ascii_case("connection") {
                    server_closes = value.trim().eq_ignore_ascii_case("close");
                } else if name.eq_ignore_ascii_case("retry-after") {
                    retry_after = value.trim().parse().ok();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        self.retry_after = retry_after;
        if server_closes {
            let (stream, reader) = HttpClient::open(self.addr)?;
            self.stream = stream;
            self.reader = reader;
        }
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }

    /// The `Retry-After` hint (seconds) from the most recent response, if
    /// the server sent one.
    pub fn retry_after(&self) -> Option<u64> {
        self.retry_after
    }

    /// Issue a GET, retrying on shedding responses (`503`/`429`) with
    /// capped exponential backoff that honors the server's `Retry-After`
    /// hint.  Returns the last response after at most `max_attempts`
    /// tries — still a `503` if the server never let the request through.
    /// `max_delay` caps every sleep (the overload benchmark compresses
    /// the hinted seconds to keep wall-clock bounded).
    pub fn get_with_backoff(
        &mut self,
        path_and_query: &str,
        max_attempts: u32,
        max_delay: Duration,
    ) -> std::io::Result<(u16, String)> {
        let mut delay = Duration::from_millis(10).min(max_delay);
        let mut attempt = 0u32;
        loop {
            let (status, body) = self.get(path_and_query)?;
            attempt += 1;
            if (status != 503 && status != 429) || attempt >= max_attempts.max(1) {
                return Ok((status, body));
            }
            let hinted = self.retry_after.map(Duration::from_secs);
            std::thread::sleep(hinted.unwrap_or(delay).min(max_delay));
            delay = (delay * 2).min(max_delay);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parsing_with_query() {
        let r = parse_request(
            "GET /en/tools/search/x_sql.asp?cmd=select+count(*)+from+PhotoObj&format=csv HTTP/1.1\r\nHost: x\r\n",
        )
        .unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/en/tools/search/x_sql.asp");
        assert_eq!(r.param("cmd"), Some("select count(*) from PhotoObj"));
        assert_eq!(r.param("format"), Some("csv"));
        assert_eq!(r.header("host"), Some("x"));
        assert!(parse_request("").is_none());
    }

    #[test]
    fn url_decoding() {
        assert_eq!(url_decode("a%20b+c"), "a b c");
        assert_eq!(url_decode("100%25"), "100%");
        assert_eq!(url_decode("plain"), "plain");
        assert_eq!(
            url_decode("select+*+from+t%20where%20a%3D1"),
            "select * from t where a=1"
        );
    }

    #[test]
    fn url_decoding_survives_multibyte_utf8_after_percent() {
        // A multibyte char right after '%' must not slice across a char
        // boundary (this used to panic).
        assert_eq!(url_decode("%é"), "%é");
        assert_eq!(url_decode("%4é"), "%4é");
        assert_eq!(url_decode("é%20è"), "é è");
        // Percent-encoded UTF-8 still decodes.
        assert_eq!(url_decode("%C3%A9"), "é");
        // Trailing and malformed escapes pass through unchanged.
        assert_eq!(url_decode("%"), "%");
        assert_eq!(url_decode("%2"), "%2");
        assert_eq!(url_decode("%zz"), "%zz");
    }

    #[test]
    fn keep_alive_negotiation() {
        let http11 = parse_request("GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(http11.wants_keep_alive());
        let close = parse_request("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!close.wants_keep_alive());
        let http10 = parse_request("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!http10.wants_keep_alive());
        let http10_ka = parse_request("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(http10_ka.wants_keep_alive());
    }

    #[test]
    fn response_serialisation() {
        let r = Response::ok("text/plain", "hello");
        let text = String::from_utf8(r.to_bytes(false)).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 5"));
        assert!(text.contains("Connection: close"));
        assert!(text.ends_with("hello"));
        let text = String::from_utf8(r.to_bytes(true)).unwrap();
        assert!(text.contains("Connection: keep-alive"));
        assert_eq!(Response::not_found("/x").status, 404);
        assert_eq!(Response::unavailable("busy").status, 503);
    }

    #[test]
    fn server_round_trip() {
        let server = HttpServer::start(0, |req| {
            if req.path == "/hello" {
                Response::ok("text/plain", "hi there")
            } else {
                Response::not_found(&req.path)
            }
        })
        .unwrap();
        let (status, body) = http_get(server.addr(), "/hello").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "hi there");
        let (status, _) = http_get(server.addr(), "/missing").unwrap();
        assert_eq!(status, 404);
        server.stop();
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let server =
            HttpServer::start(0, |req| Response::ok("text/plain", req.path.clone())).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        for i in 0..10 {
            let (status, body) = client.get(&format!("/echo/{i}")).unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, format!("/echo/{i}"));
        }
        drop(client);
        server.stop();
    }

    #[test]
    fn client_reconnects_when_the_server_closes_after_max_requests() {
        let config = ServerConfig {
            max_keep_alive_requests: 3,
            ..ServerConfig::default()
        };
        let server = HttpServer::start_with(0, config, |req| {
            Response::ok("text/plain", req.path.clone())
        })
        .unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        // 8 requests across a server that closes every 3rd connection: the
        // client must ride through the `Connection: close` responses.
        for i in 0..8 {
            let (status, body) = client.get(&format!("/r{i}")).unwrap();
            assert_eq!(status, 200, "request {i}");
            assert_eq!(body, format!("/r{i}"));
        }
        drop(client);
        server.stop();
    }

    #[test]
    fn rotating_every_connection_costs_no_accept_poll() {
        let config = ServerConfig {
            max_keep_alive_requests: 1,
            ..ServerConfig::default()
        };
        let server = HttpServer::start_with(0, config, |req| {
            Response::ok("text/plain", req.path.clone())
        })
        .unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        // Every response says `Connection: close`, so each request waits
        // for the accept thread to take a new connection.
        let started = std::time::Instant::now();
        for i in 0..200 {
            let (status, body) = client.get(&format!("/r{i}")).unwrap();
            assert_eq!(status, 200, "request {i}");
            assert_eq!(body, format!("/r{i}"));
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(250),
            "200 rotated requests took {elapsed:?}"
        );
        drop(client);
        server.stop();
    }

    #[test]
    fn stop_closes_an_idle_keep_alive_connection() {
        let server =
            HttpServer::start(0, |req| Response::ok("text/plain", req.path.clone())).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        // A worker now waits in `read` for this client's next request.
        assert_eq!(client.get("/idle").unwrap().0, 200);
        let started = std::time::Instant::now();
        server.stop();
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(500),
            "stop took {elapsed:?} with an idle client connected"
        );
        // The client sees the connection closed, not a hang.
        assert!(client.get("/after").is_err());
    }

    #[test]
    fn oversized_request_head_answers_400() {
        let config = ServerConfig {
            max_header_bytes: 1024,
            ..ServerConfig::default()
        };
        let server =
            HttpServer::start_with(0, config, |_| Response::ok("text/plain", "ok")).unwrap();
        // Headers beyond the cap (sent as proper header lines).
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(stream, "GET / HTTP/1.1\r\n").unwrap();
        for i in 0..64 {
            write!(stream, "X-Filler-{i}: {}\r\n", "y".repeat(64)).unwrap();
        }
        write!(stream, "\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 400"),
            "expected 400, got: {response}"
        );

        // One endless header line without a newline is also bounded.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(stream, "GET / HTTP/1.1\r\nX-Huge: {}", "z".repeat(4096)).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 400"),
            "expected 400, got: {response}"
        );

        // A normal request still works.
        let (status, _) = http_get(server.addr(), "/").unwrap();
        assert_eq!(status, 200);
        server.stop();
    }

    #[test]
    fn post_bodies_reach_the_handler_and_form_params_decode() {
        let server = HttpServer::start(0, |req| {
            if req.method == "POST" {
                let form = req.form_params();
                let echo = form
                    .get("sql")
                    .cloned()
                    .unwrap_or_else(|| String::from_utf8_lossy(&req.body).into_owned());
                Response::ok("text/plain", echo)
            } else {
                Response::ok("text/plain", "not a post")
            }
        })
        .unwrap();
        // A urlencoded form body.
        let (status, body) = http_request(
            server.addr(),
            "POST",
            "/submit",
            Some("application/x-www-form-urlencoded"),
            b"sql=select+1&x=2",
        )
        .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "select 1");
        // A raw body passes through untouched.
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (status, body) = client
            .request(
                "POST",
                "/submit",
                Some("text/plain"),
                b"select top 3 x from t",
            )
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "select top 3 x from t");
        // The connection survives for a follow-up request.
        let (status, _) = client.get("/after").unwrap();
        assert_eq!(status, 200);
        drop(client);
        server.stop();
    }

    #[test]
    fn every_method_reaches_the_handler_and_bad_bodies_are_refused() {
        let config = ServerConfig {
            max_body_bytes: 16,
            ..ServerConfig::default()
        };
        let server = HttpServer::start_with(0, config, |req| {
            Response::ok("text/plain", req.method.clone())
        })
        .unwrap();
        // Method routing (including 405s) is the application's concern:
        // the transport forwards whatever parses, so the API tier can
        // answer wrong methods with its structured envelope.
        for method in ["GET", "POST", "DELETE", "PATCH", "PUT"] {
            let (status, body) = http_request(server.addr(), method, "/", None, &[]).unwrap();
            assert_eq!(status, 200, "{method}");
            assert_eq!(body, method);
        }
        // Oversized bodies are a 413 before the handler runs.
        let (status, _) =
            http_request(server.addr(), "POST", "/", Some("text/plain"), &[b'x'; 64]).unwrap();
        assert_eq!(status, 413);
        // A malformed Content-Length closes with a 400 instead of leaving
        // the declared body bytes in the stream to corrupt the next
        // keep-alive request.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(
            stream,
            "POST / HTTP/1.1\r\nContent-Length: 2abc\r\n\r\nhello"
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 400"),
            "expected 400, got: {response}"
        );
        server.stop();
    }

    #[test]
    fn extra_headers_are_serialised() {
        let r = Response::ok("text/plain", "x").with_header("X-Next-Cursor", "abc123");
        assert_eq!(r.header("x-next-cursor"), Some("abc123"));
        let text = String::from_utf8(r.to_bytes(false)).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.contains("X-Next-Cursor: abc123"), "{head}");
        assert_eq!(body, "x");
    }

    #[test]
    fn worker_pool_handles_parallel_connections() {
        let config = ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        };
        let server = HttpServer::start_with(0, config, |req| {
            Response::ok("text/plain", req.path.clone())
        })
        .unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let (status, body) = http_get(addr, &format!("/{i}")).unwrap();
                    assert_eq!(status, 200);
                    assert_eq!(body, format!("/{i}"));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.stop();
    }
}
