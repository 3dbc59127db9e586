//! The TCP front end: accept loop, per-connection threads, read
//! timeouts, and graceful shutdown.
//!
//! The threading model is deliberately boring: one accept thread, one
//! thread per connection (keep-alive, so a client reuses its thread
//! across submissions), and the [`Service`]'s bounded permit pool as
//! the only throttle on actual campaign execution — an idle connection
//! costs a parked thread, never a worker slot.  Slow-loris protection
//! comes from the per-connection read timeout: a peer that dribbles a
//! request head slower than the deadline gets its connection closed.
//!
//! Shutdown is graceful by construction: [`ServerHandle::shutdown`]
//! flips the stop flag, nudges the accept loop awake with a
//! self-connection, and then *joins* every connection thread — a
//! campaign that was accepted before the flag flipped runs to
//! completion, its result is persisted and its response delivered,
//! before `shutdown` returns.

use crate::http::{finish_chunks, HttpError, Limits};
use crate::http::{read_request, status_reason, write_chunk, write_chunked_head, write_response};
use crate::service::{Action, Service};
use crate::store::ResultStore;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker-pool size: campaigns executing at once.
    pub workers: usize,
    /// Maximum accepted request-body size in bytes.
    pub max_body: usize,
    /// Per-connection read timeout (slow-loris defence).
    pub read_timeout: Duration,
    /// Threads per campaign (`None`: single-threaded campaigns, the
    /// worker pool provides the parallelism).
    pub campaign_threads: Option<usize>,
    /// Seed lanes per campaign worker (`None`: engine default).
    pub campaign_lanes: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            max_body: 64 * 1024 * 1024,
            read_timeout: Duration::from_secs(10),
            campaign_threads: None,
            campaign_lanes: None,
        }
    }
}

/// A running server; dropping the handle does *not* stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, then drains: joins every connection thread, so
    /// in-flight campaigns finish and their responses are delivered
    /// before this returns.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); a throwaway connection
        // wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        let handles = {
            let mut guard = match self.connections.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            std::mem::take(&mut *guard)
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Binds and starts a server.
///
/// # Errors
///
/// Returns the bind error (address in use, permission, …).
pub fn start(config: ServerConfig, store: ResultStore) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let mut service = Service::new(store, config.workers);
    if let Some(threads) = config.campaign_threads {
        service = service.with_campaign_threads(threads);
    }
    if let Some(lanes) = config.campaign_lanes {
        service = service.with_campaign_lanes(lanes);
    }
    let service = Arc::new(service);
    let limits = Limits {
        max_body: config.max_body,
        ..Limits::default()
    };
    let stop = Arc::new(AtomicBool::new(false));
    let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept_stop = Arc::clone(&stop);
    let accept_connections = Arc::clone(&connections);
    let read_timeout = config.read_timeout;
    let accept_thread = std::thread::spawn(move || {
        for incoming in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match incoming {
                Ok(stream) => stream,
                Err(_) => continue,
            };
            let service = Arc::clone(&service);
            let stop = Arc::clone(&accept_stop);
            let handle = std::thread::spawn(move || {
                serve_connection(stream, &service, &limits, read_timeout, &stop);
            });
            let mut guard = match accept_connections.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            // Prune finished threads so a long-lived server does not
            // accumulate handles without bound.
            guard.retain(|h| !h.is_finished());
            guard.push(handle);
        }
    });

    Ok(ServerHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
        connections,
    })
}

/// Serves one keep-alive connection until EOF, error, protocol refusal
/// that forces a close, or server shutdown.
fn serve_connection(
    stream: TcpStream,
    service: &Service,
    limits: &Limits,
    read_timeout: Duration,
    stop: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_nodelay(true);
    let write_half = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut writer = write_half;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let request = match read_request(&mut reader, limits) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(err) => {
                respond_error(&mut writer, &err);
                return;
            }
        };
        let close = request.close;
        let action = service.handle(&request);
        if write_action(&mut writer, &action).is_err() {
            return;
        }
        if close {
            return;
        }
    }
}

/// Best-effort protocol-error response; the connection closes either
/// way (a stream that failed mid-head cannot be trusted to be framed).
fn respond_error(writer: &mut TcpStream, err: &HttpError) {
    if let Some(status) = err.status() {
        let body = format!("{}: {err}\n", status_reason(status));
        let headers = [
            ("Content-Type", "text/plain".to_string()),
            ("Connection", "close".to_string()),
        ];
        let _ = write_response(writer, status, &headers, body.as_bytes());
    }
    let _ = writer.flush();
}

fn write_action(writer: &mut TcpStream, action: &Action) -> io::Result<()> {
    match action {
        Action::Simple {
            status,
            headers,
            body,
        } => {
            let rendered: Vec<(&str, String)> = headers
                .iter()
                .map(|(name, value)| (*name, value.clone()))
                .collect();
            write_response(writer, *status, &rendered, body)
        }
        Action::Stream {
            status,
            headers,
            chunks,
        } => {
            let rendered: Vec<(&str, String)> = headers
                .iter()
                .map(|(name, value)| (*name, value.clone()))
                .collect();
            write_chunked_head(writer, *status, &rendered)?;
            for chunk in chunks {
                write_chunk(writer, chunk)?;
            }
            finish_chunks(writer)
        }
    }
}
