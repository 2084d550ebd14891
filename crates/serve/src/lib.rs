//! # td-serve — the long-lived multi-tenant schedule-compilation service
//!
//! The transform dialect's artifact-exchange story ("schedules are
//! plain-text artifacts, decoupled from the compiler release cycle")
//! implies a deployment shape the paper only gestures at: a *daemon*. If
//! schedules arrive as text and results leave as text, then schedule
//! compilation is a service — jobs in, modules out — and everything this
//! repository already built (the scheduling engine, deterministic fault
//! injection, journaling, flight recording) becomes service
//! infrastructure. This crate is that daemon:
//!
//! * [`framing`] / [`protocol`] — the wire format: 4-byte length-prefixed
//!   frames carrying a plain-text message grammar with binary-safe blobs
//!   for MLIR module texts.
//! * [`tenant`] — per-tenant policy: WFQ weight, admission cap, deadline,
//!   retry budget, cumulative failure budget, chaos lane
//!   (`TD_SERVE_TENANTS` grammar).
//! * [`scheduler`] — weighted-fair queueing across tenant backlogs (pure,
//!   unit-testable bookkeeping).
//! * [`diskcache`] — the byte-keyed result cache promoted to a
//!   content-addressed on-disk store: one append-only segment per daemon,
//!   checksummed versioned records, an in-memory index of offsets, warm
//!   starts across daemon restarts.
//! * [`service`] — admission control, the worker pool that pulls from the
//!   fair queue and runs each job where it popped it (one
//!   [`td_sched::Engine`] over one cache, each job under its tenant's
//!   [`td_sched::JobPolicy`]), artifact retention, drain.
//! * [`server`] / [`client`] — the request loop over stdio or a unix
//!   socket, and the matching synchronous client.
//!
//! Tenant isolation is structural rather than policed: fault lanes scope
//! chaos to one tenant's jobs, failure budgets fuse one tenant's
//! admission, weights bound one tenant's share of the pool, and the
//! shared cache is content-addressed so cross-tenant reuse can never
//! change a result — only its latency.

pub mod artifacts;
pub mod client;
pub mod diskcache;
pub mod framing;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod service;
pub mod tenant;

pub use client::{Client, ClientError, ServerInfo, SubmitOutcome};
pub use diskcache::{DiskCounters, DiskStore};
pub use framing::{read_frame, write_frame, FrameError, MAX_FRAME};
pub use protocol::{Message, ProtoError};
pub use scheduler::FairQueue;
pub use server::{handle_connection, serve_stdio, ConnectionOutcome, UnixServer};
pub use service::{AdmitError, DrainSummary, ServeResult, Service, ServiceConfig};
pub use tenant::{parse_tenants, TenantConfig};
