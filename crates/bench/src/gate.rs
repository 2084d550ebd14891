//! What the CI gates share (`td_gate <name>`, one gate per process): the
//! loop payload and tile/unroll schedule they drive, the `td_serve`
//! daemon plumbing, the one paired-timing method behind every overhead
//! bound and A/B table, and the `TD_BENCH_QUICK` switch.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Duration;
use td_serve::Client;
use td_support::trace;

/// Whether `TD_BENCH_QUICK=1` asks for the CI smoke-sized run.
pub fn quick() -> bool {
    std::env::var("TD_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// Function `@work<i>`: one `scf.for` of extent `step * (i + 1)` that
/// doubles a memref in place, the payload every gate schedules.
pub fn loop_payload(i: usize, step: usize) -> String {
    let extent = step * (i + 1);
    format!(
        r#"module {{
  func.func @work{i}(%x: memref<{extent}xf32>) {{
    %lo = arith.constant 0 : index
    %hi = arith.constant {extent} : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {{
      %v = "memref.load"(%x, %i) : (memref<{extent}xf32>, index) -> f32
      %w = "arith.addf"(%v, %v) : (f32, f32) -> f32
      "memref.store"(%w, %x, %i) : (f32, memref<{extent}xf32>, index) -> ()
    }}
    func.return
  }}
}}"#
    )
}

/// A schedule whose `@entry` tiles the payload's first `scf.for` by
/// `tile` and, given a factor, unrolls the tiled points by it: steps
/// match (0), tile (1) and unroll (2).
pub fn tile_schedule(entry: &str, tile: u32, unroll: Option<u32>) -> String {
    let unroll = unroll.map_or(String::new(), |factor| {
        format!(
            "\n    %unrolled = \"transform.loop.unroll\"(%points) {{factor = {factor}}} : (!transform.any_op) -> !transform.any_op"
        )
    });
    format!(
        r#"module {{
  transform.named_sequence @{entry}(%root: !transform.any_op) {{
    %loop = "transform.match_op"(%root) {{name = "scf.for", select = "first"}} : (!transform.any_op) -> !transform.any_op
    %tiles, %points = "transform.loop.tile"(%loop) {{tile_sizes = [{tile}]}} : (!transform.any_op) -> (!transform.any_op, !transform.any_op){unroll}
  }}
}}"#
    )
}

/// A schedule whose step 2 fails silenceably on any payload (it matches
/// no `nonexistent.op`); the trailing annotate is the innocent suffix a
/// bisection must drop.
pub const FAILING_SCRIPT: &str = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    "transform.annotate"(%root) {name = "started"} : (!transform.any_op) -> ()
    %missing = "transform.match_op"(%root) {name = "nonexistent.op", select = "first"} : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%root) {name = "never_reached"} : (!transform.any_op) -> ()
  }
}"#;

/// Chrome trace JSON of this thread's trace, validated: the `TD_TRACE`
/// file when set (re-read from disk), else the in-memory snapshot.
pub fn exported_trace() -> String {
    let json = match trace::write_env_trace().expect("write trace file") {
        Some(path) => {
            println!("wrote {path}");
            std::fs::read_to_string(&path).expect("re-read trace file")
        }
        None => trace::snapshot().to_chrome_json(),
    };
    trace::validate_json(&json).unwrap_or_else(|e| panic!("invalid trace JSON: {e}"));
    json
}

/// `binary` next to the running executable (`td_serve`), which
/// a `--workspace` or `-p td-bench` build puts there.
pub fn sibling(binary: &str) -> PathBuf {
    let path = std::env::current_exe()
        .expect("own path")
        .with_file_name(binary);
    assert!(
        path.exists(),
        "{binary} missing at {} (build the workspace first)",
        path.display()
    );
    path
}

/// A daemon client over the child's stdio.
pub type StdioClient = Client<ChildStdout, ChildStdin>;

/// Spawns `command` (a `td_serve` [`sibling`] with the gate's environment)
/// speaking the protocol on its stdio, and a client there whose PING it
/// answered.
pub fn spawn_stdio(command: &mut Command) -> (Child, StdioClient) {
    let mut child = command
        .env_remove("TD_SERVE_SOCK")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn td_serve");
    let (stdout, stdin) = (child.stdout.take(), child.stdin.take());
    let mut client = Client::new(stdout.expect("child stdout"), stdin.expect("child stdin"));
    client.ping().expect("daemon must answer PING");
    (child, client)
}

/// Spawns `command` listening on `socket`, and a client connected once
/// the daemon has bound it (retrying for up to 5 s).
pub fn spawn_socket(
    command: &mut Command,
    socket: &Path,
) -> (Child, Client<UnixStream, UnixStream>) {
    let mut child = command
        .env("TD_SERVE_SOCK", socket)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn td_serve");
    for _ in 0..200 {
        if let Ok(stream) = UnixStream::connect(socket) {
            let reader = stream.try_clone().expect("clone stream");
            return (child, Client::new(reader, stream));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let _ = child.kill().and_then(|()| child.wait());
    panic!("daemon never bound {}", socket.display());
}

/// Shuts the daemon down over `client` and requires a clean exit.
pub fn shut_down<R: Read, W: Write>(mut child: Child, client: &mut Client<R, W>) {
    client.shutdown().expect("SHUTDOWN must answer BYE");
    let status = child.wait().expect("daemon exit");
    assert!(status.success(), "daemon exited dirty: {status}");
}

/// Per-round side totals of a [`paired`] run, warm-up round excluded.
#[derive(Clone, Debug)]
pub struct Paired {
    /// `rounds[r][side]`: what round `r`'s items of `side` spent.
    pub rounds: Vec<Vec<Duration>>,
}

/// The rounds of a [`Paired`] run ranked by one side's total over
/// another's: that ratio at the lower quartile, median and upper quartile
/// round, and which round is the median one.
#[derive(Clone, Copy, Debug)]
pub struct Spread {
    /// Ratio of the lower-quartile round.
    pub lower: f64,
    /// Ratio of the median round.
    pub median: f64,
    /// Ratio of the upper-quartile round.
    pub upper: f64,
    /// Index of the median round in [`Paired::rounds`].
    pub median_round: usize,
}

impl std::fmt::Display for Spread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Spread {
            median,
            lower,
            upper,
            ..
        } = self;
        write!(f, "ratio {median:.3} (quartiles {lower:.3}-{upper:.3})")
    }
}

impl Paired {
    /// The spread of `side`'s total over `base`'s across rounds.
    pub fn ratio(&self, side: usize, base: usize) -> Spread {
        let ratio = |round: usize| {
            self.rounds[round][side].as_secs_f64() / self.rounds[round][base].as_secs_f64()
        };
        let mut order: Vec<usize> = (0..self.rounds.len()).collect();
        order.sort_by(|&a, &b| ratio(a).total_cmp(&ratio(b)));
        let n = order.len();
        Spread {
            lower: ratio(order[n / 4]),
            median: ratio(order[n / 2]),
            upper: ratio(order[3 * n / 4]),
            median_round: order[n / 2],
        }
    }
}

/// Times `sides` variants of one workload against each other, the one
/// A/B method the gates and tables read. A round runs `items` items of
/// every side, interleaved side by side (item 0 of each side, then item
/// 1, ...), and `item(side, index)` runs one and returns the time it
/// spent, so each item is timed on its own and can leave its setup out.
/// `index` counts a side's items over the whole run, so no side repeats
/// an input a fresh cache would notice. The side that leads rotates each
/// round, and one warm-up round runs first and is discarded.
///
/// Host drift lasts far longer than one item, so it lands on every side
/// of a round alike; keep rounds short, and most see no stall at all, and
/// a median over rounds ([`Paired::ratio`]) shrugs off the ones that do,
/// where a best-of-N minimum per side picks two unrelated outliers.
///
/// # Panics
/// Panics if `sides` or `rounds` is 0.
pub fn paired(
    sides: usize,
    rounds: usize,
    items: usize,
    mut item: impl FnMut(usize, usize) -> Duration,
) -> Paired {
    assert!(sides > 0 && rounds > 0, "at least one side and one round");
    let mut round = |leader: usize, first: usize| {
        let mut totals = vec![Duration::ZERO; sides];
        for index in first..first + items {
            for k in 0..sides {
                let side = (leader + k) % sides;
                totals[side] += item(side, index);
            }
        }
        totals
    };
    round(0, 0);
    Paired {
        rounds: (0..rounds)
            .map(|r| round(r % sides, (r + 1) * items))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_rotates_the_leader_and_ranks_rounds_by_ratio() {
        let mut calls = Vec::new();
        // Side 0 costs 1 s an item, side 1 `cost[index]` (the warm-up's 9
        // is discarded), so the rounds' ratios are 5, 1, 4, 2, 3.
        let cost = [9, 5, 1, 4, 2, 3];
        let run = paired(2, 5, 1, |side, index| {
            calls.push((side, index));
            Duration::from_secs(if side == 0 { 1 } else { cost[index] })
        });
        let leaders: Vec<_> = calls.chunks(2).map(|round| round[0]).collect();
        assert_eq!(leaders, [(0, 0), (0, 1), (1, 2), (0, 3), (1, 4), (0, 5)]);
        assert_eq!(run.rounds.len(), 5);
        let spread = run.ratio(1, 0);
        assert_eq!((spread.lower, spread.median, spread.upper), (2.0, 3.0, 4.0));
        assert_eq!(spread.median_round, 4);
    }
}
