//! What one disk-cache write costs the process, by how it touches the file
//! system: creating a new file per entry (the per-entry layout of cache
//! format 2 wrote a `*.tmp` file and renamed it into place), renaming, and
//! a positioned write appending to a file that is already open (the log of
//! format 3).
//!
//! ```text
//! cargo run --release -p td-serve --example disk_write_cost -- <dir> [ops]
//! ```
//!
//! Each line covers `ops` operations (default 2000) on a 2 KiB entry: the
//! median and p90 wall time per operation. Nothing is synced, as in the
//! store, so no operation waits for the disk and wall time stays close to
//! the CPU the calling thread spends in the file system. Run it in a
//! directory on each file system to compare; it removes what it created.

use std::fs::{self, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::time::Instant;

/// Runs `op(0..ops)` and prints its median and p90 wall time per
/// operation.
fn measure(label: &str, ops: usize, mut op: impl FnMut(usize)) {
    let mut wall_us = Vec::with_capacity(ops);
    for i in 0..ops {
        let start = Instant::now();
        op(i);
        wall_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    wall_us.sort_by(f64::total_cmp);
    println!(
        "{label:<26} p50 {:>7.1} us  p90 {:>7.1} us",
        wall_us[ops / 2],
        wall_us[ops * 9 / 10]
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let dir = args.next().expect("usage: disk_write_cost <dir> [ops]");
    let ops: usize = args
        .next()
        .map_or(2000, |n| n.parse().expect("ops is a count"));
    assert!(ops > 0, "ops must be positive");
    let dir = Path::new(&dir).join(format!("disk-write-cost-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create the probe directory");
    let entry = vec![b'x'; 2048];
    let tmp = |i: usize| dir.join(format!("{i}.tmp"));
    measure("create + write (new file)", ops, |i| {
        fs::write(tmp(i), &entry).expect("write a new file");
    });
    measure("rename into place", ops, |i| {
        fs::rename(tmp(i), dir.join(format!("{i}.v2"))).expect("rename");
    });
    let log = OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(dir.join("segment"))
        .expect("create the segment");
    measure("append (positioned write)", ops, |i| {
        log.write_all_at(&entry, (i * entry.len()) as u64)
            .expect("append");
    });
    fs::remove_dir_all(&dir).expect("remove the probe directory");
}
