//! Per-job artifact store: retrievable diagnostics keyed by job id.
//!
//! Every completed job can leave behind textual artifacts — the batch
//! report JSON (`report`), a minimized bisect repro (`bisect`, jobs that
//! failed with a transform error), a flight-recorder bundle (`flight`) —
//! and a client fetches them later with an `ARTIFACT` request naming
//! `(job, kind)`. Almost none ever are, so an entry is one of two things:
//! *ready* text ([`ArtifactStore::put`] — what must be captured at
//! completion time, like a snapshot of the flight ring), or a *deferred*
//! value of the store's type parameter ([`ArtifactStore::put_deferred`] —
//! what the text can be computed from). A deferred entry is computed on
//! first retrieval, by the retrieving thread, memoised, and evicted with
//! its job like any other.
//!
//! The store is bounded by *job count* with FIFO eviction: a long-lived
//! daemon keeps the most recent `capacity` jobs' diagnostics, which is
//! what an operator debugging a live incident actually wants.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

/// A bounded, thread-safe artifact store whose deferred entries hold a
/// `D` until someone asks for their text.
pub struct ArtifactStore<D> {
    state: Mutex<State<D>>,
    capacity: usize,
}

struct State<D> {
    by_job: HashMap<u64, Vec<Arc<Entry<D>>>>,
    order: VecDeque<u64>,
}

/// One artifact. `text` is set once: at `put`, or by the first `get` of a
/// deferred entry (`None` = there turned out to be nothing to retrieve).
/// Forcing happens inside the cell's initialiser and outside every mutex,
/// so concurrent readers of one entry block on each other — all of them
/// get the one computed text — while the rest of the store stays usable.
struct Entry<D> {
    kind: String,
    text: OnceLock<Option<String>>,
    deferred: Mutex<Option<D>>,
}

impl<D> ArtifactStore<D> {
    /// A store retaining artifacts for at most `capacity` jobs (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ArtifactStore {
            state: Mutex::new(State {
                by_job: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Attaches `content` under `(job, kind)`, evicting the oldest job's
    /// artifacts when the job cap is exceeded.
    pub fn put(&self, job: u64, kind: impl Into<String>, content: impl Into<String>) {
        self.insert(
            job,
            Entry {
                kind: kind.into(),
                text: OnceLock::from(Some(content.into())),
                deferred: Mutex::new(None),
            },
        );
    }

    /// Attaches a deferred entry under `(job, kind)`: its text is whatever
    /// the first [`ArtifactStore::get`] computes from `deferred`. Evicts
    /// like [`ArtifactStore::put`].
    pub fn put_deferred(&self, job: u64, kind: impl Into<String>, deferred: D) {
        self.insert(
            job,
            Entry {
                kind: kind.into(),
                text: OnceLock::new(),
                deferred: Mutex::new(Some(deferred)),
            },
        );
    }

    fn insert(&self, job: u64, entry: Entry<D>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if !state.by_job.contains_key(&job) {
            if state.order.len() >= self.capacity {
                if let Some(evicted) = state.order.pop_front() {
                    state.by_job.remove(&evicted);
                }
            }
            state.order.push_back(job);
        }
        state.by_job.entry(job).or_default().push(Arc::new(entry));
    }

    /// The artifact under `(job, kind)`, if retained. A deferred entry is
    /// forced here, on the calling thread, by `force` — at most once per
    /// entry over the store's lifetime; every later (or concurrent) call
    /// returns the memoised text without calling its `force`. A `force`
    /// that returns `None` makes the entry answer `None` from then on.
    ///
    /// No store lock is held while `force` runs. Should it panic, the
    /// panic reaches the caller, nothing is poisoned, and the entry —
    /// its deferred value consumed — answers `None` afterwards.
    pub fn get(
        &self,
        job: u64,
        kind: &str,
        force: impl FnOnce(D) -> Option<String>,
    ) -> Option<String> {
        let entry = {
            let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(state.by_job.get(&job)?.iter().find(|e| e.kind == kind)?)
        };
        entry
            .text
            .get_or_init(|| {
                let deferred = entry
                    .deferred
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take();
                deferred.and_then(force)
            })
            .clone()
    }

    /// The artifact kinds retained for `job`, in insertion order (deferred
    /// entries included, forced or not).
    pub fn kinds(&self, job: u64) -> Vec<String> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state
            .by_job
            .get(&job)
            .map(|arts| arts.iter().map(|e| e.kind.clone()).collect())
            .unwrap_or_default()
    }

    /// Number of jobs with retained artifacts.
    pub fn job_count(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .by_job
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// `force` for entries that must already hold their text.
    fn unforced(_: u32) -> Option<String> {
        panic!("a ready or memoised entry must not be forced")
    }

    #[test]
    fn put_get_and_kinds() {
        let store = ArtifactStore::new(8);
        store.put(7, "report", "{}");
        store.put(7, "bisect", "module {}");
        assert_eq!(store.get(7, "report", unforced).as_deref(), Some("{}"));
        assert_eq!(store.get(7, "missing", unforced), None);
        assert_eq!(store.kinds(7), vec!["report", "bisect"]);
        assert_eq!(store.kinds(8), Vec::<String>::new());
    }

    #[test]
    fn fifo_eviction_by_job() {
        let store = ArtifactStore::new(2);
        store.put(1, "report", "a");
        store.put_deferred(1, "bisect", 10);
        store.put(2, "report", "b");
        store.put(2, "flight", "fb"); // same job: no eviction
        store.put_deferred(3, "report", 30);
        assert_eq!(store.get(1, "report", unforced), None, "oldest job evicted");
        assert_eq!(
            store.get(1, "bisect", unforced),
            None,
            "its deferred entry went with it, unforced"
        );
        assert_eq!(store.get(2, "flight", unforced).as_deref(), Some("fb"));
        assert_eq!(
            store.get(3, "report", |n| Some(n.to_string())).as_deref(),
            Some("30")
        );
        assert_eq!(store.job_count(), 2);
    }

    #[test]
    fn a_deferred_entry_is_forced_once_and_memoised() {
        let store = ArtifactStore::new(4);
        store.put(5, "report", "{}");
        store.put_deferred(5, "bisect", 41);
        store.put_deferred(6, "bisect", 0);
        assert_eq!(store.kinds(5), vec!["report", "bisect"], "listed unforced");

        let forced = AtomicUsize::new(0);
        let render = |n: u32| {
            forced.fetch_add(1, Ordering::Relaxed);
            (n > 0).then(|| format!("repro {}", n + 1))
        };
        assert_eq!(store.get(5, "bisect", render).as_deref(), Some("repro 42"));
        assert_eq!(
            store.get(5, "bisect", unforced).as_deref(),
            Some("repro 42")
        );
        // Nothing to retrieve is memoised too.
        assert_eq!(store.get(6, "bisect", render), None);
        assert_eq!(store.get(6, "bisect", unforced), None);
        assert_eq!(forced.load(Ordering::Relaxed), 2);
        assert_eq!(store.kinds(6), vec!["bisect"]);
    }

    #[test]
    fn concurrent_readers_of_a_fresh_entry_share_one_forcing() {
        let store = ArtifactStore::new(4);
        store.put_deferred(1, "bisect", 7);
        let forced = AtomicUsize::new(0);
        let start = Barrier::new(4);
        let texts: Vec<Option<String>> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        store.get(1, "bisect", |n| {
                            forced.fetch_add(1, Ordering::Relaxed);
                            // Long enough that the others arrive mid-force.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Some(format!("repro {n}"))
                        })
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(forced.load(Ordering::Relaxed), 1);
        assert!(
            texts.iter().all(|t| t.as_deref() == Some("repro 7")),
            "no reader may see a transient miss: {texts:?}"
        );
    }

    #[test]
    fn forcing_holds_no_store_lock_and_survives_a_panic() {
        let store = ArtifactStore::new(4);
        store.put_deferred(1, "bisect", 1);
        // put/get/kinds on the same store from inside a force: a store-wide
        // lock held across it would deadlock right here.
        let text = store.get(1, "bisect", |_| {
            store.put(2, "report", "{}");
            assert_eq!(store.kinds(1), vec!["bisect"]);
            store.get(2, "report", unforced)
        });
        assert_eq!(text.as_deref(), Some("{}"));

        store.put_deferred(3, "bisect", 3);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.get(3, "bisect", |_| panic!("probe blew up"))
        }));
        assert!(unwound.is_err(), "the panic is the caller's to contain");
        assert_eq!(store.get(3, "bisect", unforced), None, "not poisoned");
        store.put(4, "report", "still serving");
        assert_eq!(
            store.get(4, "report", unforced).as_deref(),
            Some("still serving")
        );
    }
}
