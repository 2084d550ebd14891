//! The daemon side: a frame/request loop bound to stdio or a unix socket.
//!
//! Request → response mapping (all messages ride [`crate::framing`]
//! frames; grammar in [`crate::protocol`]):
//!
//! | request                                          | response |
//! |--------------------------------------------------|----------|
//! | `SUBMIT tenant= entry=? request=? #script #payload` | `RESULT job= request= tenant= wall_us= ok=true cached= attempts= transforms= #module`, or `RESULT ... ok=false cached= #error` |
//! | `ARTIFACT job=\|request= kind=`                  | `ARTIFACT job= kind= #data`, or `ERR code=not_found` |
//! | `STATS`                                          | `STATS #data` (the service counters JSON, internal registry included) |
//! | `PING`                                           | `PONG uptime_ms= proto= build= instance=` |
//! | `SHUTDOWN`                                       | `BYE`, then the connection (and in stdio mode the daemon) ends |
//! | anything else                                    | `ERR reason=` |
//!
//! `cached=true` says the result cache answered the job instead of running
//! it — a failure as well as a success: the engine caches a job's
//! deterministic failure (transform, parse, missing entry) as it caches a
//! result, and a cached failure's `#error` is byte-identical to the
//! executed one's.
//!
//! `SUBMIT request=` lets the client supply its own request id (charset
//! `[A-Za-z0-9._:/-]`, ≤64 bytes); otherwise the service mints one.
//! Either way `RESULT request=` echoes it, and it is the id stamped into
//! the job's trace spans, journal steps and flight bundles — the
//! correlation key of the observability plane.
//!
//! Admission refusals answer `ERR code=unknown_tenant|queue_full|`
//! `budget_exhausted|draining reason=...` — the job was *not* run and the
//! connection stays usable. Malformed frames and protocol violations also
//! answer `ERR` where the stream is still in sync (a bad message in a
//! good frame); a broken *frame* (truncated/oversized) ends the
//! connection, because byte-stream sync is gone.
//!
//! In unix-socket mode each connection gets its own thread, so one slow
//! tenant connection cannot head-of-line-block another — cross-tenant
//! fairness is the [`crate::scheduler`]'s job, not the accept loop's.

use crate::framing::{read_frame, write_frame, FrameError};
use crate::protocol::{self, err_message, Message};
use crate::service::{AdmitError, Service};
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use td_sched::TxnMode;
use td_support::metrics;

/// How a connection's request loop ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnectionOutcome {
    /// The peer closed the stream (clean EOF between frames).
    Eof,
    /// The peer sent `SHUTDOWN`; the daemon should drain and exit.
    Shutdown,
}

/// Runs the request loop over one established connection until EOF,
/// `SHUTDOWN`, or a framing error.
///
/// # Errors
/// Transport-level failures only (I/O, truncated or oversized frames);
/// application-level problems are answered in-band with `ERR`.
pub fn handle_connection(
    service: &Service,
    reader: &mut impl Read,
    writer: &mut impl Write,
) -> std::io::Result<ConnectionOutcome> {
    loop {
        let payload = match read_frame(reader) {
            Ok(Some(payload)) => payload,
            Ok(None) => return Ok(ConnectionOutcome::Eof),
            Err(FrameError::Io(e)) => return Err(e),
            Err(e @ (FrameError::Truncated { .. } | FrameError::Oversized { .. })) => {
                // Stream sync is unrecoverable; say why, then hang up.
                let _ = write_frame(writer, &err_message(e.to_string()).encode());
                return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e));
            }
        };
        let request = match Message::decode(&payload) {
            Ok(request) => request,
            Err(e) => {
                // The frame was sound, so the stream is still in sync.
                metrics::counter("serve.requests.malformed", 1);
                write_frame(writer, &err_message(e.to_string()).encode())?;
                continue;
            }
        };
        metrics::counter("serve.requests", 1);
        let response = match request.verb.as_str() {
            protocol::VERB_SUBMIT => handle_submit(service, &request),
            protocol::VERB_ARTIFACT => handle_artifact(service, &request),
            protocol::VERB_STATS => {
                Message::new(protocol::VERB_STATS).blob("data", service.stats_json().into_bytes())
            }
            protocol::VERB_PING => Message::new(protocol::VERB_PONG)
                .field("uptime_ms", service.uptime_ms().to_string())
                .field("proto", protocol::HEADER)
                .field("build", env!("CARGO_PKG_VERSION"))
                .field("instance", service.instance()),
            protocol::VERB_SHUTDOWN => {
                write_frame(writer, &Message::new(protocol::VERB_BYE).encode())?;
                return Ok(ConnectionOutcome::Shutdown);
            }
            other => err_message(format!("unknown verb '{other}'")),
        };
        write_frame(writer, &response.encode())?;
    }
}

fn handle_submit(service: &Service, request: &Message) -> Message {
    let Some(tenant) = request.get_field("tenant") else {
        return err_message("SUBMIT needs a tenant= field");
    };
    let entry = request.get_field("entry").unwrap_or("main");
    let request_id = request.get_field("request");
    // Optional per-request transactional override; an invalid value is a
    // validation ERR (code bad_txn_mode), never a dropped connection.
    let txn = match request.get_field("txn_mode") {
        Some(text) => match TxnMode::parse(text) {
            Ok(mode) => Some(mode),
            Err(message) => return err_message(message).field("code", "bad_txn_mode"),
        },
        None => None,
    };
    let (Some(script), Some(payload)) = (
        request.get_blob_text("script"),
        request.get_blob_text("payload"),
    ) else {
        return err_message("SUBMIT needs #script and #payload blobs");
    };
    let admitted = service.submit_with_options(tenant, script, payload, entry, request_id, txn);
    match admitted.map(|(id, _)| service.wait(id)) {
        Ok(done) => {
            let base = Message::new(protocol::VERB_RESULT)
                .field("job", done.job_id.to_string())
                .field("request", done.request)
                .field("tenant", done.tenant)
                .field("wall_us", done.wall.as_micros().to_string());
            match done.result {
                Ok(output) => base
                    .field("ok", "true")
                    .field("cached", done.cached.to_string())
                    .field("attempts", output.attempts.to_string())
                    .field("transforms", output.transforms_executed.to_string())
                    .blob("module", output.module_text.into_bytes()),
                Err(error) => base
                    .field("ok", "false")
                    .field("cached", done.cached.to_string())
                    .blob("error", error.to_string().into_bytes()),
            }
        }
        Err(refusal) => {
            let code = match refusal {
                AdmitError::UnknownTenant(_) => "unknown_tenant",
                AdmitError::QueueFull => "queue_full",
                AdmitError::BudgetExhausted => "budget_exhausted",
                AdmitError::Draining => "draining",
                AdmitError::BadRequestId(_) => "bad_request_id",
            };
            err_message(refusal.to_string()).field("code", code)
        }
    }
}

fn handle_artifact(service: &Service, request: &Message) -> Message {
    let Some(kind) = request.get_field("kind") else {
        return err_message("ARTIFACT needs a kind= field");
    };
    // Artifacts are addressed by job id or, equivalently, by the request
    // id the RESULT echoed — the observability plane's correlation key.
    let job_id = match (request.get_field("job"), request.get_field("request")) {
        (Some(job), _) => match job.parse::<u64>() {
            Ok(id) => id,
            Err(_) => return err_message(format!("bad job id '{job}'")),
        },
        (None, Some(rid)) => match service.job_for_request(rid) {
            Some(id) => id,
            None => {
                return err_message(format!("unknown request id '{rid}'"))
                    .field("code", "not_found")
            }
        },
        (None, None) => return err_message("ARTIFACT needs a job= or request= field"),
    };
    match service.artifact(job_id, kind) {
        Some(data) => Message::new(protocol::VERB_ARTIFACT)
            .field("job", job_id.to_string())
            .field("kind", kind)
            .blob("data", data.into_bytes()),
        None => {
            err_message(format!("no '{kind}' artifact for job {job_id}")).field("code", "not_found")
        }
    }
}

/// Serves one session over stdin/stdout — the subprocess transport (the
/// smoke test and `td_serve` without `TD_SERVE_SOCK` use this). Returns
/// after EOF or `SHUTDOWN`, with the service drained either way.
///
/// # Errors
/// Transport-level failures; the service is still drained first.
pub fn serve_stdio(service: &Service) -> std::io::Result<ConnectionOutcome> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let outcome = handle_connection(service, &mut stdin.lock(), &mut stdout.lock());
    service.drain();
    outcome
}

/// A bound unix-socket listener whose socket file is removed on drop.
pub struct UnixServer {
    listener: UnixListener,
    path: PathBuf,
}

impl UnixServer {
    /// Binds `path`, replacing a stale socket file from a dead daemon.
    ///
    /// # Errors
    /// The bind failure, if any.
    pub fn bind(path: impl Into<PathBuf>) -> std::io::Result<UnixServer> {
        let path = path.into();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        Ok(UnixServer { listener, path })
    }

    /// The socket path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Accepts connections (one thread each) until some connection sends
    /// `SHUTDOWN`, then drains the service and returns. Per-connection
    /// transport errors end that connection only.
    ///
    /// # Errors
    /// Accept-loop failures; per-connection I/O errors are swallowed.
    pub fn serve(&self, service: &Service) -> std::io::Result<()> {
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for connection in self.listener.incoming() {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = connection else { continue };
                let stop = &stop;
                let path = &self.path;
                scope.spawn(move || {
                    let mut reader = match stream.try_clone() {
                        Ok(clone) => clone,
                        Err(_) => return,
                    };
                    let mut writer = stream;
                    if let Ok(ConnectionOutcome::Shutdown) =
                        handle_connection(service, &mut reader, &mut writer)
                    {
                        stop.store(true, Ordering::Release);
                        // Wake the blocked accept() so the loop observes
                        // the stop flag.
                        let _ = UnixStream::connect(path);
                    }
                });
            }
        });
        service.drain();
        Ok(())
    }
}

impl Drop for UnixServer {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The socket path in `TD_SERVE_SOCK`, if set — selects unix-socket mode
/// in the `td_serve` binary (stdio mode otherwise).
pub fn env_socket_path() -> Option<PathBuf> {
    std::env::var_os("TD_SERVE_SOCK")
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
}

/// The persistent-cache directory in `TD_SERVE_CACHE_DIR`, if set.
pub fn env_cache_dir() -> Option<PathBuf> {
    std::env::var_os("TD_SERVE_CACHE_DIR")
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
}

/// The disk-cache size cap in `TD_SERVE_CACHE_MAX_BYTES`, if set and
/// parsable.
pub fn env_cache_max_bytes() -> Option<u64> {
    std::env::var("TD_SERVE_CACHE_MAX_BYTES")
        .ok()
        .and_then(|s| s.parse().ok())
}
