//! A minimal synchronous client for the td-serve protocol.
//!
//! Works over any `(Read, Write)` pair — a `UnixStream` and its clone, or
//! a child daemon's stdout/stdin pipes (how `serve_smoke` drives the
//! daemon). One request in flight at a time: every helper writes one
//! frame and reads exactly one response frame.

use crate::framing::{read_frame, write_frame};
use crate::protocol::{self, Message};
use std::io::{Read, Write};

/// A connected client.
pub struct Client<R: Read, W: Write> {
    reader: R,
    writer: W,
}

/// A completed submission, decoded from a `RESULT` message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubmitOutcome {
    /// The daemon-assigned job id (artifact retrieval key).
    pub job_id: u64,
    /// The request id echoed by `RESULT request=` — client-supplied or
    /// daemon-minted; the correlation key across traces, journals and
    /// flight bundles.
    pub request: String,
    /// Transformed module text (`Ok`) or the job's error display (`Err`).
    pub output: Result<String, String>,
    /// Whether the daemon's result cache answered the job — its output, or
    /// its cached failure — instead of running it.
    pub cached: bool,
    /// Transform ops the interpreter executed (0 on cache hits).
    pub transforms: usize,
}

/// Daemon identity fields from an enriched `PONG`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerInfo {
    /// Daemon uptime in milliseconds.
    pub uptime_ms: u64,
    /// Protocol magic+version (`td-serve/1`).
    pub proto: String,
    /// Daemon build fingerprint (crate version).
    pub build: String,
    /// Instance token distinguishing daemon incarnations.
    pub instance: String,
}

/// A client-side failure: transport trouble or an `ERR` response.
#[derive(Debug)]
pub enum ClientError {
    /// Frame- or stream-level I/O failure (includes unexpected EOF).
    Transport(std::io::Error),
    /// The daemon answered `ERR`; the refusal code (if any) and reason.
    Refused {
        /// Machine-readable code (`queue_full`, `budget_exhausted`, ...).
        code: Option<String>,
        /// Human-readable reason.
        reason: String,
    },
    /// The daemon answered something other than the expected verb.
    UnexpectedVerb(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Refused { code, reason } => match code {
                Some(code) => write!(f, "refused ({code}): {reason}"),
                None => write!(f, "refused: {reason}"),
            },
            ClientError::UnexpectedVerb(verb) => write!(f, "unexpected response verb '{verb}'"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Transport(e)
    }
}

impl<R: Read, W: Write> Client<R, W> {
    /// A client over an established transport.
    pub fn new(reader: R, writer: W) -> Self {
        Client { reader, writer }
    }

    /// Sends one request and reads one response.
    ///
    /// # Errors
    /// [`ClientError::Transport`] on I/O or framing trouble (EOF before a
    /// response is an `UnexpectedEof` transport error).
    pub fn request(&mut self, message: &Message) -> Result<Message, ClientError> {
        write_frame(&mut self.writer, &message.encode())
            .map_err(|e| ClientError::Transport(e.into_io()))?;
        let payload = read_frame(&mut self.reader)
            .map_err(|e| ClientError::Transport(e.into_io()))?
            .ok_or_else(|| {
                ClientError::Transport(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the stream before responding",
                ))
            })?;
        Message::decode(&payload).map_err(|e| {
            ClientError::Transport(std::io::Error::new(std::io::ErrorKind::InvalidData, e))
        })
    }

    /// Expects `verb` back; maps `ERR` to [`ClientError::Refused`].
    fn expect(&mut self, request: &Message, verb: &str) -> Result<Message, ClientError> {
        let response = self.request(request)?;
        if response.verb == verb {
            Ok(response)
        } else if response.verb == protocol::VERB_ERR {
            Err(ClientError::Refused {
                code: response.get_field("code").map(str::to_owned),
                reason: response
                    .get_field("reason")
                    .unwrap_or("unspecified")
                    .to_owned(),
            })
        } else {
            Err(ClientError::UnexpectedVerb(response.verb))
        }
    }

    /// Submits one job and waits for its result.
    ///
    /// # Errors
    /// Admission refusals surface as [`ClientError::Refused`] with the
    /// machine-readable `code`; a job that *ran* and failed is `Ok` with
    /// `output: Err(...)`.
    pub fn submit(
        &mut self,
        tenant: &str,
        script: &str,
        payload: &str,
        entry: &str,
    ) -> Result<SubmitOutcome, ClientError> {
        self.submit_with_request(tenant, script, payload, entry, None)
    }

    /// [`Client::submit`] with an explicit request id to stamp on the job
    /// (`None` lets the daemon mint one; either way the outcome carries
    /// the effective id).
    ///
    /// # Errors
    /// As [`Client::submit`]; a malformed id refuses with code
    /// `bad_request_id`.
    pub fn submit_with_request(
        &mut self,
        tenant: &str,
        script: &str,
        payload: &str,
        entry: &str,
        request_id: Option<&str>,
    ) -> Result<SubmitOutcome, ClientError> {
        self.submit_with_options(tenant, script, payload, entry, request_id, None)
    }

    /// [`Client::submit_with_request`] plus an optional `txn_mode` field
    /// (`always` | `never`) overriding the tenant's configured
    /// transactional mode for this one job.
    ///
    /// # Errors
    /// As [`Client::submit`]; an invalid mode refuses with code
    /// `bad_txn_mode`.
    pub fn submit_with_options(
        &mut self,
        tenant: &str,
        script: &str,
        payload: &str,
        entry: &str,
        request_id: Option<&str>,
        txn_mode: Option<&str>,
    ) -> Result<SubmitOutcome, ClientError> {
        let mut request = Message::new(protocol::VERB_SUBMIT)
            .field("tenant", tenant)
            .field("entry", entry);
        if let Some(id) = request_id {
            request = request.field("request", id);
        }
        if let Some(mode) = txn_mode {
            request = request.field("txn_mode", mode);
        }
        let request = request
            .blob("script", script.as_bytes().to_vec())
            .blob("payload", payload.as_bytes().to_vec());
        let response = self.expect(&request, protocol::VERB_RESULT)?;
        let job_id = response
            .get_field("job")
            .and_then(|j| j.parse().ok())
            .unwrap_or(0);
        let ok = response.get_field("ok") == Some("true");
        let output = if ok {
            Ok(response.get_blob_text("module").unwrap_or_default())
        } else {
            Err(response
                .get_blob_text("error")
                .unwrap_or_else(|| "unspecified error".to_owned()))
        };
        Ok(SubmitOutcome {
            job_id,
            request: response.get_field("request").unwrap_or_default().to_owned(),
            output,
            cached: response.get_field("cached") == Some("true"),
            transforms: response
                .get_field("transforms")
                .and_then(|t| t.parse().ok())
                .unwrap_or(0),
        })
    }

    /// Retrieves an artifact (`report` / `bisect` / `flight`) by job id.
    ///
    /// # Errors
    /// [`ClientError::Refused`] with code `not_found` when not retained.
    pub fn artifact(&mut self, job: u64, kind: &str) -> Result<String, ClientError> {
        let request = Message::new(protocol::VERB_ARTIFACT)
            .field("job", job.to_string())
            .field("kind", kind);
        let response = self.expect(&request, protocol::VERB_ARTIFACT)?;
        Ok(response.get_blob_text("data").unwrap_or_default())
    }

    /// Retrieves an artifact by *request* id instead of job id.
    ///
    /// # Errors
    /// [`ClientError::Refused`] with code `not_found` when the request id
    /// is unknown or the artifact was not retained.
    pub fn artifact_by_request(
        &mut self,
        request_id: &str,
        kind: &str,
    ) -> Result<String, ClientError> {
        let request = Message::new(protocol::VERB_ARTIFACT)
            .field("request", request_id)
            .field("kind", kind);
        let response = self.expect(&request, protocol::VERB_ARTIFACT)?;
        Ok(response.get_blob_text("data").unwrap_or_default())
    }

    /// Fetches the service counters JSON.
    ///
    /// # Errors
    /// Transport failures or an `ERR` response.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let response = self.expect(&Message::new(protocol::VERB_STATS), protocol::VERB_STATS)?;
        Ok(response.get_blob_text("data").unwrap_or_default())
    }

    /// Liveness probe; returns the daemon's identity fields.
    ///
    /// # Errors
    /// Transport failures or a non-`PONG` response.
    pub fn ping(&mut self) -> Result<ServerInfo, ClientError> {
        let response = self.expect(&Message::new(protocol::VERB_PING), protocol::VERB_PONG)?;
        Ok(ServerInfo {
            uptime_ms: response
                .get_field("uptime_ms")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
            proto: response.get_field("proto").unwrap_or_default().to_owned(),
            build: response.get_field("build").unwrap_or_default().to_owned(),
            instance: response
                .get_field("instance")
                .unwrap_or_default()
                .to_owned(),
        })
    }

    /// Asks the daemon to drain and exit; returns once `BYE` arrives.
    ///
    /// # Errors
    /// Transport failures or a non-`BYE` response.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.expect(&Message::new(protocol::VERB_SHUTDOWN), protocol::VERB_BYE)
            .map(|_| ())
    }
}
