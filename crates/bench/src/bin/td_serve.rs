//! The `td-serve` daemon entrypoint: a long-lived multi-tenant
//! schedule-compilation service speaking the framed protocol over stdio
//! (default) or a unix socket.
//!
//! ```text
//! # stdio mode — one session on stdin/stdout (subprocess transport):
//! cargo run -p td-bench --bin td_serve
//!
//! # unix-socket mode — a daemon accepting concurrent connections:
//! TD_SERVE_SOCK=/tmp/td-serve.sock cargo run -p td-bench --bin td_serve
//! ```
//!
//! Configuration is entirely environmental:
//!
//! | variable                   | effect                                              |
//! |----------------------------|-----------------------------------------------------|
//! | `TD_SERVE_SOCK`            | bind this unix socket instead of serving stdio      |
//! | `TD_SERVE_CACHE_DIR`       | persistent result cache directory (warm restarts)   |
//! | `TD_SERVE_CACHE_MAX_BYTES` | disk-cache size cap (oldest-segment eviction)       |
//! | `TD_SERVE_TENANTS`         | tenant spec (see `td_serve::tenant` for the grammar)|
//! | `TD_SERVE_WORKERS`         | worker threads (default 4)                          |
//!
//! Without `TD_SERVE_TENANTS` a single default tenant named `default` is
//! configured — handy for local poking, useless for multi-tenant tests,
//! which always pass an explicit spec.

use td_serve::{server, tenant, Service, ServiceConfig, TenantConfig};

fn main() {
    let tenants = match tenant::env_tenant_spec() {
        Some(spec) => match tenant::parse_tenants(&spec) {
            Ok(tenants) => tenants,
            Err(e) => {
                eprintln!("td-serve: bad TD_SERVE_TENANTS: {e}");
                std::process::exit(2);
            }
        },
        None => vec![TenantConfig::new("default")],
    };
    let workers = std::env::var("TD_SERVE_WORKERS")
        .ok()
        .and_then(|w| w.parse().ok())
        .unwrap_or(4);

    let mut config = ServiceConfig::new(tenants).with_workers(workers);
    if let Some(dir) = server::env_cache_dir() {
        config = config.with_cache_dir(dir);
    }
    if let Some(bytes) = server::env_cache_max_bytes() {
        config = config.with_cache_max_bytes(bytes);
    }
    let service = match Service::start(config) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("td-serve: failed to start: {e}");
            std::process::exit(2);
        }
    };

    let outcome = match server::env_socket_path() {
        Some(path) => {
            let listener = match server::UnixServer::bind(&path) {
                Ok(listener) => listener,
                Err(e) => {
                    eprintln!("td-serve: cannot bind {}: {e}", path.display());
                    std::process::exit(2);
                }
            };
            eprintln!("td-serve: listening on {}", path.display());
            listener.serve(&service).map(|()| "socket closed")
        }
        None => server::serve_stdio(&service).map(|outcome| match outcome {
            server::ConnectionOutcome::Shutdown => "shutdown requested",
            server::ConnectionOutcome::Eof => "stdin closed",
        }),
    };
    match outcome {
        Ok(why) => eprintln!("td-serve: drained and exiting ({why})"),
        Err(e) => {
            eprintln!("td-serve: transport error: {e}");
            std::process::exit(1);
        }
    }
}
