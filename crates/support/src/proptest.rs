//! A minimal in-tree property-testing harness — the workspace's
//! replacement for the external `proptest` crate, so tests stay hermetic.
//!
//! Design:
//!
//! * **Seeded generation.** Every test run derives one sub-seed per case
//!   from a master seed (fixed by default, overridable), so runs are fully
//!   deterministic and each failing case is addressable by `(seed, size)`.
//! * **Shrinking by halving.** Generators draw through a [`Gen`], whose
//!   `size` bounds collection lengths and magnitudes. On failure the
//!   harness replays the *same* case seed at repeatedly halved sizes and
//!   reports the smallest size that still fails.
//! * **Failure-seed replay.** A failure panic prints a
//!   `TD_PROP_REPLAY=<seed>:<size>` line; exporting that environment
//!   variable re-runs exactly the failing case (and nothing else). See
//!   README "Property tests" for the workflow.
//!
//! ```
//! use td_support::proptest::{check, Config};
//! check("addition_commutes", Config::default(), |g| {
//!     let a = g.i64(-1000, 1000);
//!     let b = g.i64(-1000, 1000);
//!     if a + b != b + a {
//!         return Err(format!("{a} + {b} not commutative"));
//!     }
//!     Ok(())
//! });
//! ```

use crate::rng::{derive_seed, Rng};

/// Environment variable holding a `seed:size` pair to replay one case.
pub const REPLAY_ENV: &str = "TD_PROP_REPLAY";

/// Default master seed. Fixed (not time-derived) so CI is deterministic;
/// change locally or via [`Config::seed`] to explore other schedules.
pub const DEFAULT_SEED: u64 = 0x7D5E_CA57_C605_2025;

/// Harness configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Number of random cases to run.
    pub cases: u32,
    /// Maximum `size` passed to generators (cases ramp up towards it).
    pub max_size: u32,
    /// Master seed; per-case seeds derive from it.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 64,
            max_size: 64,
            seed: DEFAULT_SEED,
        }
    }
}

impl Config {
    /// Configuration with a custom case count.
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }
}

/// The generation context handed to a property: a seeded RNG plus the
/// current `size`, which generators should treat as an upper bound on
/// "how big" produced values are. Shrinking replays with smaller sizes.
pub struct Gen {
    rng: Rng,
    size: u32,
}

impl Gen {
    fn new(seed: u64, size: u32) -> Self {
        Gen {
            rng: Rng::seed_from_u64(seed),
            size,
        }
    }

    /// Current size bound (≥ 1).
    pub fn size(&self) -> u32 {
        self.size.max(1)
    }

    /// Direct access to the underlying RNG.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Uniform `u8` in `[lo, hi)`.
    pub fn u8(&mut self, lo: u8, hi: u8) -> u8 {
        self.rng.range_i64(lo as i64, hi as i64) as u8
    }

    /// Any `u8`.
    pub fn any_u8(&mut self) -> u8 {
        (self.rng.next_u64() & 0xFF) as u8
    }

    /// Any `u64`.
    pub fn any_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.rng.below(hi - lo)
    }

    /// Uniform `i64` in `[lo, hi)`.
    pub fn i64(&mut self, lo: i64, hi: i64) -> i64 {
        self.rng.range_i64(lo, hi)
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.range_usize(lo, hi)
    }

    /// Uniform `bool`.
    pub fn bool(&mut self) -> bool {
        self.rng.next_bool()
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.rng.next_f64()
    }

    /// A vector of `len ∈ [min_len, max_len]` elements, with the effective
    /// maximum scaled down by the current size (this is what makes vectors
    /// shrink under halving).
    pub fn vec<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let scaled_max = min_len.max((max_len * self.size() as usize / 64).max(min_len.max(1)));
        let hi = scaled_max.min(max_len);
        let len = if hi <= min_len {
            min_len
        } else {
            self.rng.range_usize(min_len, hi + 1)
        };
        (0..len).map(|_| item(self)).collect()
    }

    /// A lowercase-ASCII identifier of `len ∈ [min_len, max_len]` chars.
    pub fn ident(&mut self, min_len: usize, max_len: usize) -> String {
        let len = self.rng.range_usize(min_len, max_len + 1);
        (0..len)
            .map(|_| (b'a' + (self.rng.below(26) as u8)) as char)
            .collect()
    }
}

/// Outcome of a full [`check`] run (returned for introspection by the
/// harness's own tests; ordinary property tests just let failures panic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// All cases passed.
    Passed {
        /// Number of cases executed.
        cases: u32,
    },
    /// A case failed; fields give the minimal replay coordinates.
    Failed {
        /// Per-case seed of the minimal failure.
        seed: u64,
        /// Smallest size at which the case still fails.
        size: u32,
        /// The property's error message at that size.
        message: String,
    },
}

/// Runs `property` against `config.cases` generated cases and panics with
/// replay instructions on the first (shrunk) failure.
///
/// # Panics
/// Panics if any case fails, after shrinking; the panic message contains a
/// `TD_PROP_REPLAY=seed:size` line that reproduces the minimal case.
pub fn check<F>(name: &str, config: Config, property: F)
where
    F: Fn(&mut Gen) -> Result<(), String>,
{
    if let Outcome::Failed {
        seed,
        size,
        message,
    } = check_quiet(name, config, &property)
    {
        panic!(
            "property '{name}' failed (shrunk): {message}\n\
             replay with: {REPLAY_ENV}={seed}:{size} cargo test -q"
        );
    }
}

/// Like [`check`] but returns the outcome instead of panicking — used by
/// the harness's own tests and by callers that want custom reporting.
pub fn check_quiet<F>(name: &str, config: Config, property: &F) -> Outcome
where
    F: Fn(&mut Gen) -> Result<(), String>,
{
    let replay = std::env::var(REPLAY_ENV).ok();
    check_quiet_with_replay(name, config, property, replay.as_deref())
}

/// The [`check_quiet`] engine with the replay directive passed explicitly
/// (instead of read from the environment), so the replay path is testable
/// without mutating process-global state.
pub fn check_quiet_with_replay<F>(
    name: &str,
    config: Config,
    property: &F,
    replay: Option<&str>,
) -> Outcome
where
    F: Fn(&mut Gen) -> Result<(), String>,
{
    // Replay mode: run exactly one case and skip everything else.
    if let Some((seed, size)) = replay.and_then(parse_replay) {
        let mut g = Gen::new(seed, size);
        return match property(&mut g) {
            Ok(()) => Outcome::Passed { cases: 1 },
            Err(message) => Outcome::Failed {
                seed,
                size,
                message,
            },
        };
    }

    let name_stream = name
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
    for case in 0..config.cases {
        let case_seed = derive_seed(config.seed ^ name_stream, case as u64);
        // Ramp sizes up so early cases are small (fast, and already
        // near-minimal when they fail).
        let size = (config.max_size * (case + 1) / config.cases).max(1);
        let mut g = Gen::new(case_seed, size);
        if let Err(first_message) = property(&mut g) {
            let minimal = shrink_size(case_seed, size, property);
            let mut replay = Gen::new(case_seed, minimal);
            let message = property(&mut replay).err().unwrap_or(first_message);
            return Outcome::Failed {
                seed: case_seed,
                size: minimal,
                message,
            };
        }
    }
    Outcome::Passed {
        cases: config.cases,
    }
}

/// Shrinks by halving: replays `seed` at size/2, size/4, … and returns the
/// smallest size that still fails.
fn shrink_size<F>(seed: u64, mut size: u32, property: &F) -> u32
where
    F: Fn(&mut Gen) -> Result<(), String>,
{
    let mut best = size;
    while size > 1 {
        size /= 2;
        let mut g = Gen::new(seed, size);
        if property(&mut g).is_err() {
            best = size;
        } else {
            break; // smaller no longer fails; halving shrink stops here
        }
    }
    best
}

fn parse_replay(replay: &str) -> Option<(u64, u32)> {
    let (seed, size) = replay.split_once(':')?;
    Some((seed.trim().parse().ok()?, size.trim().parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let outcome = check_quiet("tautology", Config::with_cases(10), &|g: &mut Gen| {
            let _ = g.i64(0, 10);
            Ok(())
        });
        assert_eq!(outcome, Outcome::Passed { cases: 10 });
    }

    #[test]
    fn failing_property_shrinks_by_halving() {
        // Fails whenever the generated vector is non-empty: the minimal
        // size must be 1 (halving cannot go below it).
        let outcome = check_quiet("nonempty_fails", Config::default(), &|g: &mut Gen| {
            let v = g.vec(1, 40, |g| g.any_u8());
            Err(format!("len={}", v.len()))
        });
        match outcome {
            Outcome::Failed { size, .. } => assert_eq!(size, 1, "shrunk to minimal size"),
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn failure_is_reproducible_from_seed_and_size() {
        let property = |g: &mut Gen| -> Result<(), String> {
            let x = g.i64(0, 1000);
            if x >= 7 {
                Err(format!("x={x}"))
            } else {
                Ok(())
            }
        };
        let Outcome::Failed {
            seed,
            size,
            message,
        } = check_quiet("ge7", Config::default(), &property)
        else {
            panic!("property must fail");
        };
        // Re-running the generator at the reported coordinates reproduces
        // the identical failure — this is what TD_PROP_REPLAY relies on.
        let mut g = Gen::new(seed, size);
        assert_eq!(property(&mut g), Err(message));
    }

    #[test]
    fn cases_are_deterministic_across_runs() {
        let collect = || {
            let values = std::cell::RefCell::new(Vec::new());
            let _ = check_quiet("collect", Config::with_cases(5), &|g: &mut Gen| {
                values.borrow_mut().push(g.any_u64());
                Ok(())
            });
            values.into_inner()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    #[should_panic(expected = "TD_PROP_REPLAY=")]
    fn panic_message_contains_replay_instructions() {
        check("always_fails", Config::with_cases(3), |_g| {
            Err("nope".into())
        });
    }

    #[test]
    fn replay_directive_runs_exactly_the_named_case() {
        // Find a failure, then feed its coordinates back through the
        // replay path (as `TD_PROP_REPLAY=seed:size` would) and observe
        // the identical single-case failure.
        let property = |g: &mut Gen| -> Result<(), String> {
            let v = g.vec(1, 40, |g| g.any_u8());
            if v.iter().any(|&b| b % 3 == 0) {
                Err(format!("{v:?}"))
            } else {
                Ok(())
            }
        };
        let Outcome::Failed {
            seed,
            size,
            message,
        } = check_quiet_with_replay("mod3", Config::default(), &property, None)
        else {
            panic!("property must fail");
        };
        let directive = format!("{seed}:{size}");
        let replayed =
            check_quiet_with_replay("mod3", Config::default(), &property, Some(&directive));
        assert_eq!(
            replayed,
            Outcome::Failed {
                seed,
                size,
                message
            }
        );
        // A malformed directive falls back to a normal full run.
        let fallback =
            check_quiet_with_replay("mod3", Config::default(), &property, Some("garbage"));
        assert!(matches!(fallback, Outcome::Failed { .. }));
    }

    #[test]
    fn replay_directives_parse() {
        assert_eq!(parse_replay("123:4"), Some((123, 4)));
        assert_eq!(parse_replay(" 99 : 7 "), Some((99, 7)));
        assert_eq!(parse_replay("123"), None);
        assert_eq!(parse_replay("a:b"), None);
    }
}
