//! `serve_cold` and `serve_warm`: the real `td_serve` binary on a Unix
//! socket, driven by closed-loop clients.

use crate::gen::{self, JobSpec};
use crate::json::{self, Value};
use crate::reference::{self, Expected};
use crate::stats;
use crate::workload::{timed_segment, Round, Scale, Segment, Workload, OUT_DIR};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use td_serve::{Client, ClientError, SubmitOutcome};

/// Tenant spec every daemon runs with; jobs alternate between the two.
const TENANTS: &str = "alpha:weight=2;beta";

/// A scratch directory under the benchmark's own output directory, removed
/// on drop. Paths stay relative to the working directory so the socket path
/// fits `sun_path` however deep the checkout lives.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `benchmark/out/tmp/<pid>-<n>`.
    pub fn new() -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = Path::new(OUT_DIR).join("tmp").join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }

    /// A path inside the scratch directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `td_serve` process with its shipped defaults (artifacts and
/// observability on, 1024-entry memory cache) and `workers` workers.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    sock: PathBuf,
}

impl Daemon {
    /// Spawns the daemon over `cache_dir` and waits until it answers PING.
    /// Every `TD_*` variable of the harness's own environment is scrubbed
    /// first, so tracing, journaling and fault plans are off.
    ///
    /// # Panics
    /// Panics if the binary is missing or the daemon does not come up
    /// within ten seconds.
    pub fn spawn(scratch: &Scratch, cache_dir: &Path, workers: usize) -> Daemon {
        let binary = std::env::current_exe()
            .expect("own path")
            .with_file_name("td_serve");
        assert!(
            binary.exists(),
            "daemon binary missing at {} (run benchmark/run.sh, which builds it)",
            binary.display()
        );
        let sock = scratch.join("s");
        let log = std::fs::File::create(scratch.join("daemon.log")).expect("create daemon log");
        let mut command = Command::new(binary);
        for (name, _) in std::env::vars_os() {
            if name.to_string_lossy().starts_with("TD_") {
                command.env_remove(name);
            }
        }
        let child = command
            .env("TD_SERVE_SOCK", &sock)
            .env("TD_SERVE_CACHE_DIR", cache_dir)
            .env("TD_SERVE_TENANTS", TENANTS)
            .env("TD_SERVE_WORKERS", workers.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .expect("spawn td_serve");
        let daemon = Daemon { child, sock };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(mut client) = daemon.try_connect() {
                if client.ping().is_ok() {
                    return daemon;
                }
            }
            assert!(Instant::now() < deadline, "td_serve did not come up");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn try_connect(&self) -> std::io::Result<Connection> {
        let stream = UnixStream::connect(&self.sock)?;
        Ok(Client::new(stream.try_clone()?, stream))
    }

    /// A new client connection.
    pub fn connect(&self) -> Connection {
        self.try_connect().expect("connect to td_serve")
    }

    /// The daemon's pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to drain and exit, and waits for it.
    ///
    /// # Panics
    /// Panics if the daemon refuses or exits dirty.
    pub fn shutdown(mut self) {
        self.connect().shutdown().expect("SHUTDOWN must answer BYE");
        let status = self.child.wait().expect("daemon exit status");
        assert!(status.success(), "td_serve exited dirty: {status}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached with the child still running when the harness is
        // unwinding; never leave a daemon behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Requests per timed segment of a pass: a few hundred milliseconds of
/// work, cut at the same places in every round.
const SEGMENT_REQUESTS: usize = 256;

/// A client connection to a daemon.
type Connection = Client<UnixStream, UnixStream>;

/// What one pass of requests over a daemon produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// The pass's segments of [`SEGMENT_REQUESTS`] requests, each timed from
    /// its first submit to its last reply.
    pub segments: Vec<Segment>,
    /// Caller-seen latency per request, in request order.
    pub latencies_ns: Vec<u64>,
    /// Requests whose outcome differed from the reference (wrong text,
    /// wrong error, refusal, transport error).
    pub failed: usize,
    /// Bytes of output or error text received.
    pub output_bytes: u64,
    /// Sum of the RESULT frames' `transforms` fields.
    pub transforms: u64,
}

/// One request's reply with its position in the pass and its latency.
type Reply = (usize, u64, Result<SubmitOutcome, ClientError>);

/// Submits `requests` (indices into `corpus`) over one connection per
/// client, segment by segment; within a segment each client is a closed
/// loop taking the next unclaimed request. Request `i` goes to tenant alpha
/// when `i` is even, beta otherwise. Every reply is checked against the
/// job's reference once its segment's clock has stopped.
pub fn submit_pass(
    daemon: &Daemon,
    corpus: &[JobSpec],
    requests: &[usize],
    clients: usize,
) -> Pass {
    let mut connections: Vec<Connection> = (0..clients).map(|_| daemon.connect()).collect();
    let mut pass = Pass {
        latencies_ns: vec![0; requests.len()],
        ..Pass::default()
    };
    for from in (0..requests.len()).step_by(SEGMENT_REQUESTS) {
        let to = (from + SEGMENT_REQUESTS).min(requests.len());
        let (segment, replies) = timed_segment(daemon.pid(), || {
            submit_segment(&mut connections, corpus, requests, from..to)
        });
        pass.segments.push(segment);
        for (i, latency_ns, reply) in replies {
            pass.latencies_ns[i] = latency_ns;
            match reply {
                Ok(outcome) => {
                    let seen = Expected::of(outcome.output.as_deref().map_err(String::as_str));
                    pass.failed += usize::from(seen != corpus[requests[i]].expected);
                    pass.output_bytes += seen.bytes as u64;
                    pass.transforms += outcome.transforms as u64;
                }
                Err(_) => pass.failed += 1,
            }
        }
    }
    pass
}

fn submit_segment(
    connections: &mut [Connection],
    corpus: &[JobSpec],
    requests: &[usize],
    range: std::ops::Range<usize>,
) -> Vec<Reply> {
    let next = AtomicUsize::new(range.start);
    std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .iter_mut()
            .map(|client| {
                let (next, end) = (&next, range.end);
                scope.spawn(move || {
                    let mut replies = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= end {
                            break replies;
                        }
                        let job = &corpus[requests[i]];
                        let tenant = if i % 2 == 0 { "alpha" } else { "beta" };
                        let sent = Instant::now();
                        let reply = client.submit(tenant, &job.script, &job.payload, &job.entry);
                        replies.push((i, sent.elapsed().as_nanos() as u64, reply));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// Cache and transaction counters read from a daemon's STATS.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaemonCounters {
    /// Lookups served (memory or disk).
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// New memory entries.
    pub inserts: u64,
    /// Memory entries evicted.
    pub evictions: u64,
    /// The subset of `hits` served from disk.
    pub disk_hits: u64,
    /// Undo-log entries recorded, summed over tenants.
    pub undo_entries: u64,
    /// Top-level steps rolled back, summed over tenants.
    pub rollbacks: u64,
}

impl DaemonCounters {
    /// Reads the counters over a fresh connection.
    ///
    /// # Panics
    /// Panics if STATS is not the JSON document `Service::stats_json` writes.
    pub fn read(daemon: &Daemon) -> DaemonCounters {
        let text = daemon.connect().stats().expect("STATS");
        let stats =
            json::parse(&text).unwrap_or_else(|e| panic!("STATS is not JSON ({e}): {text}"));
        let count = |value: Option<&Value>, key: &str| -> u64 {
            value
                .and_then(|v| v.get(key))
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("STATS lacks {key}: {text}")) as u64
        };
        let cache = |key| count(stats.get("cache"), key);
        let tenants = |key| -> u64 {
            let tenants = stats.get("tenants").map_or(&[][..], Value::elements);
            tenants.iter().map(|tenant| count(Some(tenant), key)).sum()
        };
        DaemonCounters {
            hits: cache("hits"),
            misses: cache("misses"),
            inserts: cache("inserts"),
            evictions: cache("evictions"),
            disk_hits: cache("disk_hits"),
            undo_entries: tenants("undo_entries"),
            rollbacks: tenants("rollbacks"),
        }
    }

    fn since(&self, earlier: &DaemonCounters) -> DaemonCounters {
        DaemonCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            inserts: self.inserts - earlier.inserts,
            evictions: self.evictions - earlier.evictions,
            disk_hits: self.disk_hits - earlier.disk_hits,
            undo_entries: self.undo_entries - earlier.undo_entries,
            rollbacks: self.rollbacks - earlier.rollbacks,
        }
    }
}

fn round_from(pass: Pass, counters: DaemonCounters, peak_rss_kb: u64, exact: bool) -> Round {
    let lookups = (counters.hits + counters.misses).max(1) as f64;
    let mut signature = vec![
        pass.latencies_ns.len() as u64,
        pass.output_bytes,
        pass.transforms,
    ];
    if exact {
        // A cold pass sees every key once, so every cache counter is a
        // pure function of the corpus whatever the interleaving was.
        signature.extend([
            counters.hits,
            counters.misses,
            counters.inserts,
            counters.evictions,
            counters.undo_entries,
            counters.rollbacks,
        ]);
    }
    Round {
        segments: pass.segments,
        latencies_ns: pass.latencies_ns,
        failed: pass.failed,
        peak_rss_kb,
        signature,
        output_bytes: pass.output_bytes,
        transforms: pass.transforms,
        undo_entries: counters.undo_entries,
        rolled_back: counters.rollbacks,
        cache_hit_share: counters.hits as f64 / lookups,
        cache_disk_hit_share: counters.disk_hits as f64 / lookups,
        cache_evictions: counters.evictions,
    }
}

/// `serve_cold`: every round starts a fresh daemon on an empty cache
/// directory and submits the corpus exactly once.
#[derive(Debug)]
pub struct ServeCold {
    corpus: Vec<JobSpec>,
    requests: Vec<usize>,
    clients: usize,
}

impl ServeCold {
    /// Corpus generation, reference computation and one daemon spawn.
    pub fn setup(seed: u64, scale: &Scale, clients: usize) -> ServeCold {
        let corpus = gen::corpus(seed, scale.corpus);
        let scratch = Scratch::new();
        Daemon::spawn(&scratch, &scratch.join("cache"), clients).shutdown();
        ServeCold {
            requests: (0..corpus.len()).collect(),
            corpus,
            clients,
        }
    }

    /// The corpus, for the traced replay.
    pub fn corpus(&self) -> &[JobSpec] {
        &self.corpus
    }
}

fn corpus_digest(corpus: &[JobSpec]) -> u64 {
    reference::fold_digests(corpus.iter().flat_map(|job| {
        [
            reference::digest(&[&job.script, &job.payload, &job.entry]),
            job.expected.digest,
        ]
    }))
}

impl Workload for ServeCold {
    fn digest(&self) -> u64 {
        corpus_digest(&self.corpus)
    }

    fn round(&mut self) -> Round {
        let scratch = Scratch::new();
        let daemon = Daemon::spawn(&scratch, &scratch.join("cache"), self.clients);
        let pass = submit_pass(&daemon, &self.corpus, &self.requests, self.clients);
        let peak_rss_kb = stats::peak_rss_kb(daemon.pid());
        let counters = DaemonCounters::read(&daemon);
        daemon.shutdown();
        round_from(pass, counters, peak_rss_kb, true)
    }
}

/// `serve_warm`: one daemon restarted over a cache directory that an
/// unmeasured cold pass populated; every round replays the same seeded
/// request order.
#[derive(Debug)]
pub struct ServeWarm {
    corpus: Vec<JobSpec>,
    requests: Vec<usize>,
    clients: usize,
    daemon: Option<Daemon>,
    _scratch: Scratch,
}

impl ServeWarm {
    /// Corpus generation, reference computation, the prefill pass on a
    /// first daemon, and the restart.
    ///
    /// # Panics
    /// Panics if the prefill pass itself disagrees with the references.
    pub fn setup(seed: u64, scale: &Scale, clients: usize) -> ServeWarm {
        let corpus = gen::corpus(seed, scale.corpus);
        let scratch = Scratch::new();
        let cache_dir = scratch.join("cache");
        let prefill = Daemon::spawn(&scratch, &cache_dir, clients);
        let all: Vec<usize> = (0..corpus.len()).collect();
        let pass = submit_pass(&prefill, &corpus, &all, clients);
        assert_eq!(pass.failed, 0, "prefill pass disagrees with the references");
        prefill.shutdown();
        let daemon = Daemon::spawn(&scratch, &cache_dir, clients);
        ServeWarm {
            requests: gen::warm_requests(seed, corpus.len(), scale.warm_draws),
            corpus,
            clients,
            daemon: Some(daemon),
            _scratch: scratch,
        }
    }

    /// The corpus, for the traced replay.
    pub fn corpus(&self) -> &[JobSpec] {
        &self.corpus
    }

    /// The request order of one round.
    pub fn requests(&self) -> &[usize] {
        &self.requests
    }

    /// The daemon the rounds run against.
    pub fn daemon(&self) -> &Daemon {
        self.daemon.as_ref().expect("daemon runs until drop")
    }
}

impl Workload for ServeWarm {
    fn digest(&self) -> u64 {
        reference::fold_digests([
            corpus_digest(&self.corpus),
            reference::fold_digests(self.requests.iter().map(|&i| i as u64)),
        ])
    }

    fn round(&mut self) -> Round {
        let daemon = self.daemon.as_ref().expect("daemon runs until drop");
        let before = DaemonCounters::read(daemon);
        let pass = submit_pass(daemon, &self.corpus, &self.requests, self.clients);
        let counters = DaemonCounters::read(daemon).since(&before);
        round_from(pass, counters, stats::peak_rss_kb(daemon.pid()), false)
    }
}

impl Drop for ServeWarm {
    fn drop(&mut self) {
        if let Some(daemon) = self.daemon.take() {
            if !std::thread::panicking() {
                daemon.shutdown();
            }
        }
    }
}
