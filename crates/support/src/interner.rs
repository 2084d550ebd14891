//! String interning.
//!
//! Operation names, attribute keys, and symbol names are interned into
//! [`Symbol`]s: cheap `Copy` handles that compare in O(1). A process-global
//! interner is used so symbols can be created from anywhere without
//! threading a context around; this mirrors how MLIR interns identifiers in
//! its `MLIRContext`.
//!
//! Interning a new string takes a lock; reading does not. The strings live
//! in an append-only table of segments indexed by id, each slot written
//! (under the lock) before its id is handed out, so [`Symbol::as_str`] is
//! two acquire loads — the segment, then the slot — from any thread.
//!
//! Interning a string seen before is lock-free in the common case: each
//! thread keeps a small direct-mapped cache keyed by the string's address
//! and length, and a hit is confirmed by comparing bytes with the interned
//! string. Call sites mostly pass `&'static str` literals, whose address
//! is stable, so they hit; a heap string whose buffer is freed and reused
//! with other contents fails the byte comparison and takes the locked
//! path, so a reused address never yields a wrong symbol.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned string.
///
/// ```
/// use td_support::interner::Symbol;
/// let a = Symbol::new("scf.for");
/// let b = Symbol::new("scf.for");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "scf.for");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

/// Slots in segment 0; segment `k` holds `FIRST_SEGMENT << k`, so
/// `SEGMENTS` of them cover every `u32` id.
const FIRST_SEGMENT: usize = 256;
const SEGMENTS: usize = 25;

type Segment = Box<[OnceLock<&'static str>]>;

/// The strings by id. A segment is allocated on its first id and never
/// freed or moved; a slot is written once.
static STRINGS: [OnceLock<Segment>; SEGMENTS] = [const { OnceLock::new() }; SEGMENTS];

/// The segment holding `id`, and the slot within it.
fn locate(id: u32) -> (usize, usize) {
    let blocks = id as usize / FIRST_SEGMENT + 1;
    let segment = blocks.ilog2() as usize;
    (segment, id as usize - FIRST_SEGMENT * ((1 << segment) - 1))
}

/// String → id; only [`Symbol::new`] touches it.
fn ids() -> &'static Mutex<HashMap<&'static str, u32>> {
    static IDS: OnceLock<Mutex<HashMap<&'static str, u32>>> = OnceLock::new();
    IDS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Entries in each thread's cache (a power of two).
const CACHE_SLOTS: usize = 512;

/// One cache entry: the address and length of a string last interned
/// from there, and its symbol. Address 0 marks an empty entry.
type CacheEntry = Cell<(usize, usize, u32)>;

thread_local! {
    static CACHE: [CacheEntry; CACHE_SLOTS] = const { [const { Cell::new((0, 0, 0)) }; CACHE_SLOTS] };
}

/// The cache entry for a string at `addr` of `len` bytes.
fn cache_slot(addr: usize, len: usize) -> usize {
    let mixed = (addr ^ (addr >> 9) ^ len.wrapping_mul(0x9e37)) >> 3;
    mixed & (CACHE_SLOTS - 1)
}

impl Symbol {
    /// Interns `s` and returns its symbol.
    pub fn new(s: &str) -> Symbol {
        let (addr, len) = (s.as_ptr() as usize, s.len());
        let slot = cache_slot(addr, len);
        let cached = CACHE.with(|cache| cache[slot].get());
        if cached.0 == addr && cached.1 == len && Symbol(cached.2).as_str() == s {
            return Symbol(cached.2);
        }
        let symbol = Symbol::intern(s);
        CACHE.with(|cache| cache[slot].set((addr, len, symbol.0)));
        symbol
    }

    /// The locked path: looks `s` up in the table, adding it if new.
    fn intern(s: &str) -> Symbol {
        let mut ids = ids().lock().expect("interner poisoned");
        if let Some(&id) = ids.get(s) {
            return Symbol(id);
        }
        // Interned strings live for the duration of the process; leaking is
        // the standard implementation technique for a global interner.
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(ids.len()).expect("interner full");
        let (segment, slot) = locate(id);
        let slots = STRINGS[segment].get_or_init(|| {
            (0..FIRST_SEGMENT << segment)
                .map(|_| OnceLock::new())
                .collect()
        });
        slots[slot].set(leaked).expect("each id is written once");
        ids.insert(leaked, id);
        Symbol(id)
    }

    /// Returns the interned string.
    pub fn as_str(self) -> &'static str {
        let (segment, slot) = locate(self.0);
        STRINGS[segment]
            .get()
            .and_then(|slots| slots[slot].get())
            .expect("a symbol's string is written before its id is returned")
    }

    /// The raw id; stable within a process, useful as a dense map key.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::new(&s)
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedupes() {
        let a = Symbol::new("arith.addi");
        let b = Symbol::new("arith.addi");
        let c = Symbol::new("arith.addf");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn round_trip() {
        let s = "transform.named_sequence";
        assert_eq!(Symbol::new(s).as_str(), s);
    }

    #[test]
    fn compares_with_str() {
        let a = Symbol::new("func.func");
        assert_eq!(a, "func.func");
        assert_ne!(a, "func.return");
    }

    #[test]
    fn segments_tile_the_id_space() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(FIRST_SEGMENT as u32 - 1), (0, FIRST_SEGMENT - 1));
        assert_eq!(locate(FIRST_SEGMENT as u32), (1, 0));
        assert_eq!(
            locate(3 * FIRST_SEGMENT as u32 - 1),
            (1, 2 * FIRST_SEGMENT - 1)
        );
        assert_eq!(locate(3 * FIRST_SEGMENT as u32), (2, 0));
        let (segment, slot) = locate(u32::MAX);
        assert!(segment < SEGMENTS && slot < FIRST_SEGMENT << segment);
    }

    #[test]
    fn concurrent_interning_round_trips() {
        const THREADS: usize = 8;
        const COUNT: usize = 10_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|thread| {
                std::thread::spawn(move || {
                    // Every thread interns the same fresh strings, in its own
                    // order, and reads each back at once and again at the end.
                    let names: Vec<String> = (0..COUNT)
                        .map(|i| format!("concurrent.{}", (i * 7 + thread * 1231) % COUNT))
                        .collect();
                    let symbols: Vec<Symbol> = names
                        .iter()
                        .map(|name| {
                            let symbol = Symbol::new(name);
                            assert_eq!(symbol.as_str(), name);
                            symbol
                        })
                        .collect();
                    for (symbol, name) in symbols.iter().zip(&names) {
                        assert_eq!(symbol.as_str(), name);
                        assert_eq!(*symbol, name.as_str());
                    }
                    names.into_iter().zip(symbols).collect::<HashMap<_, _>>()
                })
            })
            .collect();
        let maps: Vec<HashMap<String, Symbol>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(maps[0].len(), COUNT);
        assert!(maps.windows(2).all(|w| w[0] == w[1]), "one id per string");
    }

    #[test]
    fn the_thread_cache_never_answers_for_a_reused_buffer() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 2_000;
        let statics = ["arith.addi", "scf.for", "func.func", "tensor.empty", ""];
        let handles: Vec<_> = (0..THREADS)
            .map(|thread| {
                std::thread::spawn(move || {
                    for round in 0..ROUNDS {
                        let fixed = statics[round % statics.len()];
                        assert_eq!(Symbol::new(fixed).as_str(), fixed);
                        // A heap string, interned, then freed; the next one
                        // has the same length and, usually, the same
                        // address but other bytes.
                        let first = format!("cache.{thread}.{:06}", round);
                        let addr = first.as_ptr();
                        assert_eq!(Symbol::new(&first).as_str(), first);
                        drop(first);
                        let second = format!("cache.{thread}.{:06}", round + ROUNDS);
                        let reused = second.as_ptr() == addr;
                        assert_eq!(
                            Symbol::new(&second).as_str(),
                            second,
                            "reused buffer: {reused}"
                        );
                        // The same bytes at another address hit the table.
                        let copy = second.clone();
                        assert_eq!(Symbol::new(&copy), Symbol::new(&second));
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    fn threads_share_symbols() {
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| Symbol::new("shared.symbol")))
            .collect();
        let symbols: Vec<Symbol> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(symbols.windows(2).all(|w| w[0] == w[1]));
    }
}
