//! A tiny built-in HTTP listener for the Prometheus endpoint.
//!
//! Deliberately minimal (std only, one thread, serial request handling):
//! it exists so `tdb serve --metrics <addr>` can be scraped without
//! pulling an HTTP stack into the workspace. `GET /metrics` (and `GET /`)
//! answer with whatever the supplied render closure produces; anything
//! else gets a 404. Connections are handled one at a time — scrapers
//! poll at multi-second intervals, so serialization is not a bottleneck.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running metrics listener. Call [`MetricsServer::shutdown`] to stop
/// it; dropping the handle leaves the listener running detached.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the listener and join its thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Bind `addr` (e.g. `127.0.0.1:0`) and serve `GET /metrics` with the
/// output of `render` until shut down. Returns once the listener is
/// bound. `GET /healthz` always answers `200 ok` — use
/// [`serve_metrics_with_health`] to wire a real health verdict.
pub fn serve_metrics<F>(addr: &str, render: F) -> std::io::Result<MetricsServer>
where
    F: Fn() -> String + Send + 'static,
{
    serve_metrics_with_health(addr, render, || {
        (true, String::from("{\"health\":\"ok\"}\n"))
    })
}

/// Like [`serve_metrics`], but `GET /healthz` answers with the supplied
/// closure: `(serving, body)` where `serving == false` renders as
/// `503 Service Unavailable` so a dumb TCP health check (or a router
/// deciding where to shed load) needs only the status line, while the
/// body carries the structured verdict (health state + burn rates).
pub fn serve_metrics_with_health<F, H>(
    addr: &str,
    render: F,
    health: H,
) -> std::io::Result<MetricsServer>
where
    F: Fn() -> String + Send + 'static,
    H: Fn() -> (bool, String) + Send + 'static,
{
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let thread = std::thread::spawn(move || {
        while !flag.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => handle(stream, &render, &health),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => break,
            }
        }
    });
    Ok(MetricsServer {
        addr,
        stop,
        thread: Some(thread),
    })
}

/// Read one request head (bounded, with a timeout), answer, close.
fn handle<F: Fn() -> String, H: Fn() -> (bool, String)>(
    mut stream: TcpStream,
    render: &F,
    health: &H,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 8192 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let request = String::from_utf8_lossy(&head);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("");
    let (status, body) = if request.starts_with("GET ") && (path == "/metrics" || path == "/") {
        ("200 OK", render())
    } else if request.starts_with("GET ") && path == "/healthz" {
        let (serving, body) = health();
        (
            if serving {
                "200 OK"
            } else {
                "503 Service Unavailable"
            },
            body,
        )
    } else {
        ("404 Not Found", String::from("not found\n"))
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn metrics_endpoint_serves_rendered_text() {
        let server = serve_metrics("127.0.0.1:0", || "tdb_up 1\n".to_string()).unwrap();
        let addr = server.addr();
        let reply = get(addr, "/metrics");
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.contains("tdb_up 1"), "{reply}");
        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.contains("\"health\":\"ok\""), "{health}");
        let miss = get(addr, "/nope");
        assert!(miss.starts_with("HTTP/1.1 404"), "{miss}");
        server.shutdown();
    }

    #[test]
    fn healthz_reports_503_when_not_serving() {
        use std::sync::atomic::AtomicBool;
        let sick = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&sick);
        let server = serve_metrics_with_health("127.0.0.1:0", String::new, move || {
            if flag.load(Ordering::SeqCst) {
                (false, "{\"health\":\"critical\"}\n".into())
            } else {
                (true, "{\"health\":\"degraded\"}\n".into())
            }
        })
        .unwrap();
        let addr = server.addr();
        let soft = get(addr, "/healthz");
        assert!(soft.starts_with("HTTP/1.1 200 OK"), "{soft}");
        assert!(soft.contains("degraded"), "{soft}");
        sick.store(true, Ordering::SeqCst);
        let hard = get(addr, "/healthz");
        assert!(hard.starts_with("HTTP/1.1 503"), "{hard}");
        assert!(hard.contains("critical"), "{hard}");
        server.shutdown();
    }
}
