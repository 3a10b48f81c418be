//! Dependency-free operations HTTP server.
//!
//! A minimal HTTP/1.1 server on [`std::net::TcpListener`] with a bounded
//! worker pool and a graceful-shutdown handle, built for low-volume
//! scrape/introspection traffic (`GET /metrics`, `GET /api/...`). Routes
//! are plain closures over whatever state the caller captures; the
//! server itself knows nothing about Galaxy or GYAN.
//!
//! Saturation behaves like the rest of the stack's admission control:
//! the accept loop enqueues connections into a bounded channel, and when
//! every worker is busy and the backlog is full, new connections get an
//! immediate `503` instead of unbounded queueing. `/healthz` reports
//! that saturation state so scrapers can see pressure before it turns
//! into refusals.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-connection socket timeout: an ops server must never hang on a
/// stalled scraper.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Queued-connection backlog per worker.
const BACKLOG_PER_WORKER: usize = 4;
/// Most bytes of a request head (request line plus headers) the server
/// reads: an ops request is one short `GET`.
const MAX_HEAD_BYTES: u64 = 8 * 1024;
/// Most header lines a request head may carry.
const MAX_HEADER_LINES: usize = 100;
/// Most bytes read and discarded after refusing an oversized head, so
/// that closing does not reset the connection before the client has read
/// the refusal.
const MAX_DISCARD_BYTES: u64 = 64 * 1024;

/// A parsed (minimal) HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, ...).
    pub method: String,
    /// Request path, query string stripped.
    pub path: String,
    /// Raw query string (everything after the first `?`, empty if none).
    pub query: String,
}

impl Request {
    /// Look up a `key=value` query parameter; a bare `key` (no `=`)
    /// yields `Some("")`. No percent-decoding — the ops plane's
    /// parameters are plain tokens.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }
}

/// An HTTP response a handler returns.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: String,
    /// Extra headers beyond Content-Type/Content-Length (e.g. `Allow`).
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// `200` with an explicit content type.
    pub fn ok(content_type: &str, body: impl Into<String>) -> Self {
        Response {
            status: 200,
            content_type: content_type.to_string(),
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// `200 application/json`.
    pub fn json(body: impl Into<String>) -> Self {
        Response::ok("application/json", body)
    }

    /// `200 text/plain`.
    pub fn text(body: impl Into<String>) -> Self {
        Response::ok("text/plain; charset=utf-8", body)
    }

    /// Attach an extra response header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Error responses are plain text: curl-friendly, nothing to parse.
    fn error(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8".to_string(),
            body,
            headers: Vec::new(),
        }
    }

    /// `404 text/plain`.
    pub fn not_found(what: &str) -> Self {
        Response::error(404, format!("not found: {what}\n"))
    }

    /// `405 text/plain` with `Allow: GET` (the ops plane is read-only).
    pub fn method_not_allowed() -> Self {
        Response::error(405, "method not allowed\n".to_string()).with_header("Allow", "GET")
    }

    /// `500 text/plain` — a handler failed (e.g. panicked).
    pub fn internal_error(why: &str) -> Self {
        Response::error(500, format!("internal error: {why}\n"))
    }

    /// `503 text/plain` with the refusal reason.
    pub fn unavailable(why: &str) -> Self {
        Response::error(503, format!("unavailable: {why}\n"))
    }

    fn status_text(&self) -> &'static str {
        match self.status {
            200 => "OK",
            404 => "Not Found",
            405 => "Method Not Allowed",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Error",
        }
    }
}

/// A route handler.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

struct PoolStats {
    workers: usize,
    busy: AtomicUsize,
    queued: AtomicUsize,
    requests: AtomicU64,
    refused: AtomicU64,
}

/// Builder for the ops server: register routes, then [`OpsServer::start`].
pub struct OpsServer {
    routes: BTreeMap<String, Handler>,
    workers: usize,
}

impl Default for OpsServer {
    fn default() -> Self {
        Self::new()
    }
}

impl OpsServer {
    /// A server with no routes and 2 workers.
    pub fn new() -> Self {
        OpsServer { routes: BTreeMap::new(), workers: 2 }
    }

    /// Set the worker-thread count (min 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Register `handler` for an exact `path` (a trailing request
    /// sub-path, `path/...`, also dispatches here — handlers see the
    /// full request path).
    pub fn route(mut self, path: impl Into<String>, handler: Handler) -> Self {
        self.routes.insert(path.into(), handler);
        self
    }

    /// Register `GET /metrics` serving `registry`'s Prometheus text.
    pub fn serve_metrics(self, registry: &crate::metrics::Registry) -> Self {
        let registry = registry.clone();
        self.route(
            "/metrics",
            Arc::new(move |_req| {
                Response::ok("text/plain; version=0.0.4", registry.render_prometheus())
            }),
        )
    }

    /// Bind `addr` (use port 0 for an ephemeral port) and serve until
    /// [`OpsHandle::shutdown`].
    pub fn start(self, addr: impl ToSocketAddrs) -> io::Result<OpsHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stats = Arc::new(PoolStats {
            workers: self.workers,
            busy: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            refused: AtomicU64::new(0),
        });
        let routes = Arc::new(self.routes);
        let shutdown = Arc::new(AtomicBool::new(false));

        let (tx, rx) = sync_channel::<TcpStream>(self.workers * BACKLOG_PER_WORKER);
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<JoinHandle<()>> = (0..self.workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let routes = Arc::clone(&routes);
                let stats = Arc::clone(&stats);
                std::thread::Builder::new()
                    .name(format!("obs-ops-{i}"))
                    .spawn(move || worker_loop(&rx, &routes, &stats))
                    .expect("spawn ops worker")
            })
            .collect();

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("obs-ops-accept".to_string())
                .spawn(move || {
                    // `tx` moves in here: dropping it on exit disconnects
                    // the workers' receiver and ends their loops.
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        stats.queued.fetch_add(1, Ordering::SeqCst);
                        match tx.try_send(stream) {
                            Ok(()) => {}
                            Err(TrySendError::Full(mut stream)) => {
                                stats.queued.fetch_sub(1, Ordering::SeqCst);
                                stats.refused.fetch_add(1, Ordering::SeqCst);
                                let _ = write_response(
                                    &mut stream,
                                    &Response::unavailable("handler pool saturated"),
                                );
                            }
                            Err(TrySendError::Disconnected(_)) => break,
                        }
                    }
                })
                .expect("spawn ops accept loop")
        };

        Ok(OpsHandle { addr: local, shutdown, accept: Some(accept), workers })
    }
}

type ReceiverSlot = Arc<Mutex<Receiver<TcpStream>>>;

fn worker_loop(rx: &ReceiverSlot, routes: &BTreeMap<String, Handler>, stats: &PoolStats) {
    loop {
        // The mutex only serializes the dequeue, not request handling.
        let next = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
        let Ok(mut stream) = next else { break };
        stats.queued.fetch_sub(1, Ordering::SeqCst);
        stats.busy.fetch_add(1, Ordering::SeqCst);
        stats.requests.fetch_add(1, Ordering::SeqCst);
        let _ = handle_connection(&mut stream, routes, stats);
        stats.busy.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_connection(
    stream: &mut TcpStream,
    routes: &BTreeMap<String, Handler>,
    stats: &PoolStats,
) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let Some(request_line) = read_head(stream)? else {
        let too_large = Response::error(431, "request header fields too large\n".to_string());
        write_response(stream, &too_large)?;
        stream.shutdown(Shutdown::Write)?;
        io::copy(&mut Read::take(&*stream, MAX_DISCARD_BYTES), &mut io::sink())?;
        return Ok(());
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("/");
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let request = Request { method, path, query };
    let response = dispatch(&request, routes, stats);
    write_response(stream, &response)
}

/// Read a request head through its blank line (or to the end of the
/// stream) and return its request line; `None` when the head exceeds
/// [`MAX_HEAD_BYTES`] or [`MAX_HEADER_LINES`].
fn read_head(stream: &TcpStream) -> io::Result<Option<String>> {
    let mut reader = BufReader::new(Read::take(stream, MAX_HEAD_BYTES));
    let mut request_line = String::new();
    let mut read = reader.read_line(&mut request_line)?;
    // Headers up to the blank line; bodies are ignored (GET only).
    let mut header = String::new();
    for _ in 0..=MAX_HEADER_LINES {
        header.clear();
        let n = reader.read_line(&mut header)?;
        read += n;
        if n == 0 {
            // The stream ended: the client's end, or the cap's.
            return Ok((read < MAX_HEAD_BYTES as usize).then_some(request_line));
        }
        if header.ends_with('\n') && header.trim().is_empty() {
            return Ok(Some(request_line));
        }
    }
    Ok(None)
}

fn dispatch(request: &Request, routes: &BTreeMap<String, Handler>, stats: &PoolStats) -> Response {
    if request.method != "GET" {
        return Response::method_not_allowed();
    }
    if request.path == "/healthz" {
        return healthz(stats);
    }
    // Longest matching route wins: exact path, or a registered prefix
    // followed by `/` (so `/api/jobs` also serves `/api/jobs/17`).
    let matched = routes
        .iter()
        .filter(|(route, _)| {
            request.path == **route
                || (request.path.starts_with(*route)
                    && request.path.as_bytes().get(route.len()) == Some(&b'/'))
        })
        .max_by_key(|(route, _)| route.len());
    match matched {
        // A panicking handler must not kill the worker thread: turn the
        // panic into a 500 so the connection still gets an answer and
        // the pool keeps serving.
        Some((_, handler)) => catch_unwind(AssertUnwindSafe(|| handler(request)))
            .unwrap_or_else(|_| Response::internal_error("handler panicked")),
        None => Response::not_found(&request.path),
    }
}

fn healthz(stats: &PoolStats) -> Response {
    let busy = stats.busy.load(Ordering::SeqCst);
    let queued = stats.queued.load(Ordering::SeqCst);
    let saturated = busy >= stats.workers && queued > 0;
    Response::json(format!(
        "{{\"status\":\"ok\",\"http_pool\":{{\"workers\":{},\"busy\":{busy},\"queued\":{queued},\
         \"saturated\":{saturated},\"requests\":{},\"refused\":{}}}}}",
        stats.workers,
        stats.requests.load(Ordering::SeqCst),
        stats.refused.load(Ordering::SeqCst),
    ))
}

fn write_response(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        response.status_text(),
        response.content_type,
        response.body.len(),
    );
    for (name, value) in &response.headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

/// Handle to a running server: the bound address plus graceful shutdown.
pub struct OpsHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl OpsHandle {
    /// The address the server actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// Stop accepting, drain the workers, and join every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(accept) = self.accept.take() else { return };
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept loop blocks in `incoming()`; poke it with one
        // throwaway connection so it observes the flag.
        if let Ok(stream) = TcpStream::connect(self.addr) {
            drop(stream);
        }
        let _ = accept.join();
        // `tx` dropped with the accept thread → workers' recv() errors
        // out once the queue drains.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for OpsHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Minimal blocking HTTP GET against a local server; returns
/// `(status, body)`. This is the test/CLI client half of the ops plane —
/// enough HTTP to scrape ourselves, nothing more.
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let (status, _headers, body) = http_get_headers(addr, path)?;
    Ok((status, body))
}

/// Response headers as lowercased `(name, value)` pairs.
pub type HeaderPairs = Vec<(String, String)>;

/// Like [`http_get`] but also returns the response headers as lowercased
/// `(name, value)` pairs, for asserting on `Allow`, `Content-Length`,
/// and content types.
pub fn http_get_headers(addr: SocketAddr, path: &str) -> io::Result<(u16, HeaderPairs, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: ops\r\nConnection: close\r\n\r\n")?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header/body separator"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let headers = head
        .lines()
        .skip(1)
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name.trim().to_ascii_lowercase(), value.trim().to_string()))
        .collect();
    Ok((status, headers, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn test_server() -> OpsHandle {
        let registry = crate::metrics::Registry::new();
        registry.inc_counter("ops_test_total", 7);
        OpsServer::new()
            .serve_metrics(&registry)
            .route(
                "/api/echo",
                Arc::new(|req: &Request| {
                    Response::json(format!("{{\"path\":\"{}\"}}", crate::json_escape(&req.path)))
                }),
            )
            .start("127.0.0.1:0")
            .expect("bind ephemeral port")
    }

    #[test]
    fn serves_metrics_and_routes() {
        let server = test_server();
        let (status, body) = http_get(server.addr(), "/metrics").unwrap();
        assert_eq!(status, 200);
        let samples = crate::metrics::parse_prometheus(&body).expect("scrape parses");
        assert!(samples.iter().any(|s| s.name == "ops_test_total" && s.value == 7.0));

        let (status, body) = http_get(server.addr(), "/api/echo").unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            json::parse(&body).unwrap().get("path").and_then(|v| v.as_str()),
            Some("/api/echo")
        );
        server.shutdown();
    }

    #[test]
    fn subpaths_dispatch_to_the_route_prefix() {
        let server = test_server();
        let (status, body) = http_get(server.addr(), "/api/echo/42?verbose=1").unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            json::parse(&body).unwrap().get("path").and_then(|v| v.as_str()),
            Some("/api/echo/42")
        );
        server.shutdown();
    }

    fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
        headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    #[test]
    fn unknown_paths_get_404() {
        let server = test_server();
        let (status, body) = http_get(server.addr(), "/nope").unwrap();
        assert_eq!(status, 404);
        assert!(body.contains("not found"));
        // A prefix match must be on a path-segment boundary.
        let (status, _) = http_get(server.addr(), "/api/echoes").unwrap();
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn not_found_is_plain_text_with_content_length() {
        let server = test_server();
        let (status, headers, body) = http_get_headers(server.addr(), "/nope").unwrap();
        assert_eq!(status, 404);
        assert_eq!(header(&headers, "content-type"), Some("text/plain; charset=utf-8"));
        assert_eq!(header(&headers, "content-length"), Some(body.len().to_string().as_str()));
        assert_eq!(body, "not found: /nope\n");
        server.shutdown();
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(stream, "DELETE /metrics HTTP/1.1\r\nHost: ops\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
        let (head, body) = raw.split_once("\r\n\r\n").unwrap();
        let head_lower = head.to_ascii_lowercase();
        assert!(head_lower.contains("allow: GET".to_ascii_lowercase().as_str()), "{head}");
        assert!(head_lower.contains("content-type: text/plain"), "{head}");
        assert!(head_lower.contains(&format!("content-length: {}", body.len())), "{head}");
        server.shutdown();
    }

    #[test]
    fn panicking_handler_yields_500_and_server_survives() {
        let server = OpsServer::new()
            .route("/boom", Arc::new(|_req: &Request| -> Response { panic!("kaboom") }))
            .route("/fine", Arc::new(|_req: &Request| Response::text("ok")))
            .start("127.0.0.1:0")
            .expect("bind ephemeral port");
        let (status, headers, body) = http_get_headers(server.addr(), "/boom").unwrap();
        assert_eq!(status, 500);
        assert_eq!(header(&headers, "content-type"), Some("text/plain; charset=utf-8"));
        assert_eq!(header(&headers, "content-length"), Some(body.len().to_string().as_str()));
        assert!(body.contains("internal error"));
        // Same pool of workers keeps answering after the panic.
        let (status, body) = http_get(server.addr(), "/fine").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "ok");
        server.shutdown();
    }

    #[test]
    fn query_parameters_are_parsed() {
        let server = OpsServer::new()
            .route(
                "/api/q",
                Arc::new(|req: &Request| {
                    Response::text(format!(
                        "reset={} format={} bare={} missing={}",
                        req.query_param("reset").unwrap_or("-"),
                        req.query_param("format").unwrap_or("-"),
                        req.query_param("bare").unwrap_or("-"),
                        req.query_param("missing").unwrap_or("-"),
                    ))
                }),
            )
            .start("127.0.0.1:0")
            .expect("bind ephemeral port");
        let (status, body) =
            http_get(server.addr(), "/api/q?reset=1&format=collapsed&bare").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "reset=1 format=collapsed bare= missing=-");
        server.shutdown();
    }

    #[test]
    fn healthz_reports_http_pool_state() {
        let server = test_server();
        let (status, body) = http_get(server.addr(), "/healthz").unwrap();
        assert_eq!(status, 200);
        let doc = json::parse(&body).expect("healthz parses");
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("ok"));
        let pool = doc.get("http_pool").unwrap();
        assert_eq!(pool.get("workers").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(pool.get("saturated").and_then(|v| v.as_bool()), Some(false));
        assert!(body.ends_with("}}"), "the HTTP pool is the document's last member: {body}");
        server.shutdown();
    }

    /// An oversized head is refused with `431` after reading at most
    /// [`MAX_HEAD_BYTES`] of it, and the worker is free for the next
    /// request at once.
    #[test]
    fn oversized_request_heads_get_431_and_the_server_keeps_serving() {
        let server = test_server();
        let refused = |head: String| {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(head.as_bytes()).unwrap();
            let mut raw = String::new();
            stream.read_to_string(&mut raw).unwrap();
            raw
        };
        let long_line = format!("GET /{} HTTP/1.1\r\nHost: ops\r\n\r\n", "a".repeat(64 * 1024));
        let many_headers = format!("GET /metrics HTTP/1.1\r\n{}\r\n", "X-A: b\r\n".repeat(101));
        for head in [long_line, many_headers] {
            let raw = refused(head);
            assert!(raw.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"), "{raw}");
            assert_eq!(http_get(server.addr(), "/healthz").unwrap().0, 200);
        }
        // A head at the line limit is still served.
        let at_limit = format!("GET /metrics HTTP/1.1\r\n{}\r\n", "X-A: b\r\n".repeat(100));
        assert!(refused(at_limit).starts_with("HTTP/1.1 200 OK\r\n"));
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_all_threads() {
        let server = test_server();
        let addr = server.addr();
        assert_eq!(http_get(addr, "/healthz").unwrap().0, 200);
        // The real assertion is that this returns at all: shutdown joins
        // the accept loop and every worker, so a stuck thread would hang
        // the test here.
        server.shutdown();
    }

    #[test]
    fn concurrent_requests_are_served() {
        let server = test_server();
        let addr = server.addr();
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(move || http_get(addr, "/metrics").unwrap().0))
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 200);
        }
        server.shutdown();
    }
}
