//! Campaign-as-a-service: the `gqed serve` loop and its client.
//!
//! A served campaign is the same campaign the CLI runs one-shot — same
//! worker pool, portfolio, journal-grade telemetry — wrapped in a
//! long-running process so the expensive state survives between batches:
//! the synthesized-model cache ([`gqed_core::ModelCache`]) and the
//! content-addressed [`VerdictStore`] persist across every batch the
//! server handles, which is what makes resubmitting an unchanged batch
//! effectively free.
//!
//! ## Protocol
//!
//! Line-delimited JSON over TCP, one JSON object per line, built entirely
//! from the in-tree [`crate::json`] codec. The client sends a
//! [`BatchRequest`] line; the server streams back the batch's telemetry
//! events (`job_start`, `job_verdict`, `job_cached`, ... — the same
//! stream `--telemetry` writes to a file) and closes the batch with a
//! single [`BatchResponse`] line. Malformed or version-incompatible
//! requests get a structured `{"type":"error",...}` line ([`ApiError`]),
//! never a dropped connection mid-parse. A `{"type":"shutdown"}` line is
//! acknowledged with `{"type":"shutdown_ack"}` and stops the server after
//! the connection closes.
//!
//! Batches are handled sequentially (one campaign at a time); the
//! parallelism lives *inside* a batch, in the campaign worker pool.
//!
//! ## Accept model
//!
//! The loop blocks in `accept`, so a client that connects is picked up
//! at once rather than after a poll interval. Because a blocked `accept`
//! never looks at the configuration's interrupt flag, a scoped waker
//! thread watches the flag (every 25 ms) and, once it is raised, opens
//! one connection to the listener's own address (loopback when bound to
//! an unspecified IP). The loop re-checks the shutdown and interrupt
//! flags after every accept and drops that wake connection uncounted.
//! An interrupt raised while a batch runs stops the loop once the
//! connection closes. From a signal, the interrupt takes at most about
//! 50 ms to stop an idle server: the CLI's signal watcher and the waker
//! each poll every 25 ms.

use crate::api::{self, ApiError, BatchRequest, BatchResponse};
use crate::json::{parse_json, JsonValue};
use crate::runner::{Campaign, CampaignConfig};
use crate::store::VerdictStore;
use crate::telemetry::Telemetry;
use gqed_core::ModelCache;
use std::io::{BufRead, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::Duration;

/// Configuration for a serve loop.
pub struct ServeOptions {
    /// Base campaign configuration; per-batch request overrides are
    /// applied on top (see [`BatchRequest::apply_to`]).
    pub config: CampaignConfig,
    /// Path of the persistent verdict store. `None` keeps the store
    /// in memory — still shared across batches, but only for the
    /// lifetime of the process.
    pub store: Option<PathBuf>,
    /// Socket read timeout per connection: a client that opens a
    /// connection and goes silent is answered with a structured
    /// `timeout` error and disconnected instead of blocking the
    /// single-threaded serve loop forever. `None` disables the timeout.
    pub read_timeout: Option<Duration>,
    /// Upper bound on one request line's length in bytes. A client
    /// streaming an endless line is answered with a structured
    /// `request-too-large` error and disconnected instead of growing
    /// the server's buffer without bound.
    pub max_request_bytes: usize,
    /// Server-side telemetry: `serve_error` events for failed
    /// connections and a final `serve_summary` event at shutdown.
    /// Distinct from the per-batch telemetry streamed to clients.
    pub telemetry: Telemetry,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            config: CampaignConfig::default(),
            store: None,
            read_timeout: Some(Duration::from_secs(30)),
            max_request_bytes: 8 << 20,
            telemetry: Telemetry::null(),
        }
    }
}

/// Aggregate counters of one serve loop's lifetime, returned by
/// [`serve`] at shutdown and emitted as its `serve_summary` telemetry
/// event.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Batches run to a response.
    pub batches: u64,
    /// Connections dropped by a genuine I/O failure (not by a protocol
    /// error, which gets a structured answer and a clean close).
    pub connection_errors: u64,
    /// Requests rejected for exceeding
    /// [`ServeOptions::max_request_bytes`].
    pub oversize_requests: u64,
    /// Connections dropped after a silent client hit
    /// [`ServeOptions::read_timeout`].
    pub timeouts: u64,
}

/// Runs the serve loop on an already-bound listener until a client sends
/// a shutdown request or the base configuration's interrupt flag is
/// raised. Binding is the caller's job so tests and the CLI can bind
/// `127.0.0.1:0` and learn the ephemeral port before the loop starts.
/// Returns the loop's lifetime counters.
pub fn serve(listener: TcpListener, opts: &ServeOptions) -> std::io::Result<ServeSummary> {
    let store = match &opts.store {
        Some(path) => VerdictStore::open(path)?,
        None => VerdictStore::in_memory()?,
    };
    let model_cache = Arc::new(ModelCache::new());
    let interrupt = opts
        .config
        .interrupt
        .clone()
        .unwrap_or_else(|| Arc::new(AtomicBool::new(false)));
    let mut wake_addr = listener.local_addr()?;
    if wake_addr.ip().is_unspecified() {
        wake_addr.set_ip(match wake_addr.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let done = AtomicBool::new(false);
    let summary = std::thread::scope(|scope| {
        let waker = scope.spawn(|| wake_on_interrupt(&interrupt, &done, wake_addr));
        let _stop = StopWaker {
            done: &done,
            waker: waker.thread().clone(),
        };
        accept_loop(&listener, opts, &store, &model_cache, &interrupt)
    })?;
    opts.telemetry.emit(
        &JsonValue::obj()
            .field("type", "serve_summary")
            .field("connections", summary.connections)
            .field("batches", summary.batches)
            .field("connection_errors", summary.connection_errors)
            .field("oversize_requests", summary.oversize_requests)
            .field("timeouts", summary.timeouts),
    );
    opts.telemetry.flush();
    opts.telemetry.sync();
    Ok(summary)
}

/// Accepts and handles connections one at a time until a shutdown
/// request or the interrupt flag stops the loop.
fn accept_loop(
    listener: &TcpListener,
    opts: &ServeOptions,
    store: &VerdictStore,
    model_cache: &Arc<ModelCache>,
    interrupt: &AtomicBool,
) -> std::io::Result<ServeSummary> {
    let shutdown = AtomicBool::new(false);
    let stopping = || shutdown.load(Ordering::Relaxed) || interrupt.load(Ordering::Relaxed);
    let mut summary = ServeSummary::default();
    while !stopping() {
        let (stream, _peer) = listener.accept()?;
        if stopping() {
            // The waker's connection, or a client that raced the
            // interrupt: either way the loop is done. The waker connects
            // only after it has read the raised flag, and the kernel's
            // connect/accept handoff orders that read before this one.
            break;
        }
        summary.connections += 1;
        if let Err(e) = handle_connection(stream, opts, store, model_cache, &shutdown, &mut summary)
        {
            // A broken client connection must not take the server down:
            // count it, report it in telemetry, and keep accepting.
            summary.connection_errors += 1;
            opts.telemetry.emit(
                &JsonValue::obj()
                    .field("type", "serve_error")
                    .field("error", e.to_string())
                    .field("connection_errors", summary.connection_errors),
            );
        }
    }
    Ok(summary)
}

/// Unblocks the accept loop once `interrupt` is raised by connecting to
/// `addr`, the listener's own address; returns early once `done` is set.
fn wake_on_interrupt(interrupt: &AtomicBool, done: &AtomicBool, addr: SocketAddr) {
    while !done.load(Ordering::Relaxed) {
        if interrupt.load(Ordering::Relaxed) && TcpStream::connect(addr).is_ok() {
            return;
        }
        std::thread::park_timeout(Duration::from_millis(25));
    }
}

/// Raises `done` and wakes the `waker` thread when dropped, by return or
/// by unwind, so a thread scope around both can join: here when the
/// accept loop ends, in the runner when a portfolio attempt ends.
pub(crate) struct StopWaker<'a> {
    pub(crate) done: &'a AtomicBool,
    pub(crate) waker: Thread,
}

impl Drop for StopWaker<'_> {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
        self.waker.unpark();
    }
}

/// Reads one `\n`-terminated request line of at most `max` bytes.
/// `Ok(None)` is a clean EOF; `ErrorKind::InvalidData` is an oversize
/// line; `WouldBlock`/`TimedOut` surface the socket's read timeout.
/// Built on `fill_buf`/`consume` instead of `BufRead::lines` so the
/// buffer cannot outgrow the cap and a timeout keeps its error kind.
fn read_request_line(
    reader: &mut BufReader<TcpStream>,
    max: usize,
) -> std::io::Result<Option<String>> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return if buf.is_empty() {
                Ok(None)
            } else {
                Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
            };
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(available.len());
        if buf.len() + take > max {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("request line exceeds {max} bytes"),
            ));
        }
        buf.extend_from_slice(&available[..take]);
        reader.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            return Ok(Some(String::from_utf8_lossy(&buf).into_owned()));
        }
    }
}

/// Handles one client connection: zero or more batch requests, each
/// answered with a telemetry stream and a final response line. Oversize
/// and timed-out requests get a structured error and a clean close —
/// they are counted in the serve summary, not as connection errors.
fn handle_connection(
    stream: TcpStream,
    opts: &ServeOptions,
    store: &VerdictStore,
    model_cache: &Arc<ModelCache>,
    shutdown: &AtomicBool,
    summary: &mut ServeSummary,
) -> std::io::Result<()> {
    stream.set_read_timeout(opts.read_timeout)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_request_line(&mut reader, opts.max_request_bytes) {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                summary.oversize_requests += 1;
                // The line can't be resynchronized mid-stream; answer
                // and close.
                send_line(
                    &mut writer,
                    &ApiError::new("request-too-large", e.to_string()).to_json(),
                )?;
                return Ok(());
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                summary.timeouts += 1;
                // Best-effort answer — the silent client may be gone.
                let _ = send_line(
                    &mut writer,
                    &ApiError::new("timeout", "no request within the read timeout").to_json(),
                );
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        let Some(value) = parse_json(&line) else {
            send_line(
                &mut writer,
                &ApiError::new("bad-request", "invalid JSON").to_json(),
            )?;
            continue;
        };
        match value.get("type").and_then(JsonValue::as_str) {
            Some("batch_request") => {
                match run_batch(&value, opts, store, model_cache, &mut writer) {
                    Ok(response) => {
                        summary.batches += 1;
                        send_line(&mut writer, &response.to_json())?;
                    }
                    Err(e) => send_line(&mut writer, &e.to_json())?,
                }
            }
            Some("shutdown") => {
                if let Err(e) = api::check_schema_version(&value) {
                    send_line(&mut writer, &e.to_json())?;
                    continue;
                }
                send_line(&mut writer, &api::shutdown_ack())?;
                shutdown.store(true, Ordering::Relaxed);
                return Ok(());
            }
            other => {
                let what = other.unwrap_or("<missing type>");
                send_line(
                    &mut writer,
                    &ApiError::new("bad-request", format!("unknown request type '{what}'"))
                        .to_json(),
                )?;
            }
        }
    }
}

/// Parses, resolves and runs one batch, streaming its telemetry to the
/// client. Any protocol-level failure (bad version, unknown design,
/// unknown engine) is a structured error *before* any solving starts.
fn run_batch(
    value: &JsonValue,
    opts: &ServeOptions,
    store: &VerdictStore,
    model_cache: &Arc<ModelCache>,
    writer: &mut TcpStream,
) -> Result<BatchResponse, ApiError> {
    let request = BatchRequest::from_json(value)?;
    let config = request.apply_to(&opts.config)?;
    let obligations = request.resolve_obligations()?;
    let telemetry = Telemetry::new(Box::new(writer.try_clone().map_err(io_error)?));
    let summary = Campaign::new(&obligations)
        .config(config)
        .verdict_store(store)
        .model_cache(Arc::clone(model_cache))
        .run(&telemetry);
    telemetry.flush();
    Ok(BatchResponse::from_summary(&request.batch, &summary))
}

/// Submits one batch to a running server and blocks until the final
/// response. Every telemetry line the server streams before the response
/// is handed to `on_event` in arrival order.
pub fn submit_batch(
    addr: &str,
    request: &BatchRequest,
    mut on_event: impl FnMut(&JsonValue),
) -> Result<BatchResponse, ApiError> {
    let stream = TcpStream::connect(addr).map_err(io_error)?;
    stream.set_nodelay(true).map_err(io_error)?;
    let mut writer = stream.try_clone().map_err(io_error)?;
    send_line(&mut writer, &request.to_json()).map_err(io_error)?;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = line.map_err(io_error)?;
        if line.trim().is_empty() {
            continue;
        }
        let value = parse_json(&line)
            .ok_or_else(|| ApiError::new("bad-request", format!("unparseable line: {line}")))?;
        match value.get("type").and_then(JsonValue::as_str) {
            Some("batch_response") => return BatchResponse::from_json(&value),
            Some("error") => {
                return Err(ApiError::from_json(&value)
                    .unwrap_or_else(|| ApiError::new("bad-request", "malformed error line")))
            }
            _ => on_event(&value),
        }
    }
    Err(ApiError::new(
        "io",
        "connection closed before a batch response arrived",
    ))
}

/// [`submit_batch`] with capped exponential backoff on *transport*
/// failures (`code: "io"` — refused connection, dropped connection,
/// timeout). Structured protocol errors (bad request, unknown design,
/// unsupported version) fail fast: retrying cannot fix them.
/// Resubmission is idempotent by construction — a batch that solved
/// before the connection dropped is answered from the content-addressed
/// verdict store on the retry.
///
/// Each retry is announced to `on_event` as a `submit_retry` line
/// (`attempt`, `delay_ms`, `error`) so callers — and tests — can observe
/// the schedule. The delay doubles per attempt from `retry_delay`,
/// capped at 10 seconds.
pub fn submit_batch_with_retry(
    addr: &str,
    request: &BatchRequest,
    retries: u32,
    retry_delay: Duration,
    mut on_event: impl FnMut(&JsonValue),
) -> Result<BatchResponse, ApiError> {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match submit_batch(addr, request, &mut on_event) {
            Ok(response) => return Ok(response),
            Err(e) if e.code == "io" && attempt <= retries => {
                let delay = retry_delay
                    .saturating_mul(1u32 << (attempt - 1).min(10))
                    .min(Duration::from_secs(10));
                on_event(
                    &JsonValue::obj()
                        .field("type", "submit_retry")
                        .field("attempt", attempt)
                        .field("delay_ms", delay.as_millis() as u64)
                        .field("error", e.message.as_str()),
                );
                std::thread::sleep(delay);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Asks a running server to shut down; returns once the server has
/// acknowledged (it stops accepting connections when the current one
/// closes).
pub fn request_shutdown(addr: &str) -> Result<(), ApiError> {
    let stream = TcpStream::connect(addr).map_err(io_error)?;
    stream.set_nodelay(true).map_err(io_error)?;
    let mut writer = stream.try_clone().map_err(io_error)?;
    send_line(&mut writer, &api::shutdown_request()).map_err(io_error)?;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = line.map_err(io_error)?;
        if line.trim().is_empty() {
            continue;
        }
        let Some(value) = parse_json(&line) else {
            continue;
        };
        match value.get("type").and_then(JsonValue::as_str) {
            Some("shutdown_ack") => return Ok(()),
            Some("error") => {
                return Err(ApiError::from_json(&value)
                    .unwrap_or_else(|| ApiError::new("bad-request", "malformed error line")))
            }
            _ => {}
        }
    }
    Err(ApiError::new("io", "connection closed before shutdown_ack"))
}

/// Sends one JSON line in a single write (an unbuffered socket needs no
/// flush).
fn send_line(writer: &mut TcpStream, value: &JsonValue) -> std::io::Result<()> {
    let mut line = value.render();
    line.push('\n');
    writer.write_all(line.as_bytes())
}

fn io_error(e: std::io::Error) -> ApiError {
    ApiError::new("io", e.to_string())
}
