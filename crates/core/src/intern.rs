//! Global string interning for the names that saturate schematic
//! parse/emit hot paths.
//!
//! A batch migration re-reads the same library, cell, pin, net, and
//! property names thousands of times — `VDD`, `CLK`, `refdes`,
//! `stdcell/nand2` — and with plain `String` fields every design pays
//! a fresh heap allocation per occurrence. [`IStr`] is an immutable
//! handle to a `&'static str` deduplicated through a global sharded
//! intern table: the first occurrence copies the text into an
//! allocation that is leaked once and lives for the rest of the
//! process; every later occurrence is a table lookup. Cloning a handle
//! copies a pointer and dropping one does nothing, so copying or
//! dropping a design touches no shared reference count, however many
//! threads hold the same names.
//!
//! Design points:
//!
//! * **Order and equality are by content**, so swapping `String` for
//!   `IStr` inside `BTreeMap`/`BTreeSet` keys changes neither iteration
//!   order nor any emitted byte. Every handle for a given text points
//!   at the same allocation, so equality is a pointer comparison and
//!   ordering takes that fast path before comparing bytes.
//! * **`Borrow<str>`** lets maps and sets keyed by `IStr` keep their
//!   `get(&str)` lookups (`Hash` agrees with `str`'s);
//!   `Deref<Target = str>` keeps most call sites compiling untouched.
//! * The table is append-only for the process lifetime (names are tiny
//!   and heavily reused; eviction would cost more bookkeeping than it
//!   frees), which is what makes leaking each string sound. [`stats`]
//!   exposes its size for observability.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::ops::Deref;
use std::sync::{Mutex, OnceLock};

use crate::hash::{FNV_OFFSET, FNV_PRIME};

const SHARDS: usize = 16;

struct InternTable {
    shards: [Mutex<HashSet<&'static str>>; SHARDS],
}

fn table() -> &'static InternTable {
    static TABLE: OnceLock<InternTable> = OnceLock::new();
    TABLE.get_or_init(|| InternTable {
        shards: std::array::from_fn(|_| Mutex::new(HashSet::new())),
    })
}

fn shard_of(s: &str) -> usize {
    let mut h = FNV_OFFSET;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    (h as usize) % SHARDS
}

/// Returns the shared handle for `s`, interning it on first sight.
pub fn intern(s: &str) -> IStr {
    let shard = &table().shards[shard_of(s)];
    let mut set = shard.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(&existing) = set.get(s) {
        return IStr(existing);
    }
    // Leaked on purpose: the table never removes a string, so the
    // allocation would live until exit anyway.
    let leaked: &'static str = Box::leak(Box::from(s));
    set.insert(leaked);
    IStr(leaked)
}

/// Intern-table occupancy: `(distinct strings, total content bytes)`.
pub fn stats() -> (usize, usize) {
    let mut count = 0usize;
    let mut bytes = 0usize;
    for shard in &table().shards {
        let set = shard.lock().unwrap_or_else(|p| p.into_inner());
        count += set.len();
        bytes += set.iter().map(|s| s.len()).sum::<usize>();
    }
    (count, bytes)
}

/// An interned, immutable string handle. Cloning copies a pointer and
/// dropping does nothing; handles are content-ordered and
/// transparently usable as `&str`.
///
/// Deliberately not `Copy`: call sites spell copies as `.clone()`,
/// which clippy's `clone_on_copy` would flag on a `Copy` type.
#[derive(Clone)]
pub struct IStr(&'static str);

impl IStr {
    /// The underlying string slice.
    pub fn as_str(&self) -> &str {
        self.0
    }

    /// True when both handles point at one allocation, which holds for
    /// every pair of handles with equal content.
    pub fn ptr_eq(a: &IStr, b: &IStr) -> bool {
        std::ptr::eq(a.0, b.0)
    }
}

impl Default for IStr {
    fn default() -> Self {
        intern("")
    }
}

impl Deref for IStr {
    type Target = str;
    fn deref(&self) -> &str {
        self.0
    }
}

impl AsRef<str> for IStr {
    fn as_ref(&self) -> &str {
        self.0
    }
}

impl Borrow<str> for IStr {
    fn borrow(&self) -> &str {
        self.0
    }
}

impl PartialEq for IStr {
    fn eq(&self, other: &Self) -> bool {
        // `intern` hands out one allocation per distinct text, so
        // content equality is pointer equality.
        IStr::ptr_eq(self, other)
    }
}

impl Eq for IStr {}

impl PartialOrd for IStr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IStr {
    fn cmp(&self, other: &Self) -> Ordering {
        if IStr::ptr_eq(self, other) {
            Ordering::Equal
        } else {
            self.0.cmp(other.0)
        }
    }
}

impl std::hash::Hash for IStr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Must agree with `str`'s Hash for Borrow-keyed map lookups.
        self.0.hash(state);
    }
}

impl fmt::Display for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.0, f)
    }
}

impl fmt::Debug for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl From<&str> for IStr {
    fn from(s: &str) -> Self {
        intern(s)
    }
}

impl From<&String> for IStr {
    fn from(s: &String) -> Self {
        intern(s)
    }
}

impl From<String> for IStr {
    fn from(s: String) -> Self {
        intern(&s)
    }
}

impl From<&IStr> for IStr {
    fn from(s: &IStr) -> Self {
        s.clone()
    }
}

impl From<IStr> for String {
    fn from(s: IStr) -> Self {
        s.as_str().to_string()
    }
}

impl From<&IStr> for String {
    fn from(s: &IStr) -> Self {
        s.as_str().to_string()
    }
}

impl PartialEq<str> for IStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for IStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for IStr {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<IStr> for str {
    fn eq(&self, other: &IStr) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<IStr> for &str {
    fn eq(&self, other: &IStr) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<IStr> for String {
    fn eq(&self, other: &IStr) -> bool {
        self.as_str() == other.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};
    use std::sync::Barrier;

    #[test]
    fn equal_content_shares_one_allocation() {
        let a = intern("net_clk");
        let b = intern("net_clk");
        assert!(IStr::ptr_eq(&a, &b));
        assert_eq!(a, b);
        let c = intern("net_rst");
        assert!(!IStr::ptr_eq(&a, &c));
        assert_ne!(a, c);
    }

    #[test]
    fn ordering_matches_str_ordering() {
        let mut names = [intern("z"), intern("a<3>"), intern("a<10>"), intern("A")];
        names.sort();
        let raw: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let mut expect = vec!["z", "a<3>", "a<10>", "A"];
        expect.sort();
        assert_eq!(raw, expect);
    }

    #[test]
    fn btreemap_keyed_by_istr_supports_str_lookup() {
        let mut m: BTreeMap<IStr, u32> = BTreeMap::new();
        m.insert(intern("refdes"), 7);
        assert_eq!(m.get("refdes"), Some(&7));
        assert_eq!(m.get("missing"), None);
    }

    #[test]
    fn hashmap_and_hashset_keyed_by_istr_support_str_lookup() {
        let mut h: HashMap<IStr, u32> = HashMap::new();
        h.insert(intern("refdes"), 7);
        assert_eq!(h.get("refdes"), Some(&7));
        assert_eq!(h.get("missing"), None);

        let set: HashSet<IStr> = ["VDD", "GND"].into_iter().map(intern).collect();
        assert!(set.contains("VDD"));
        assert!(!set.contains("vdd"));
    }

    #[test]
    fn default_is_the_interned_empty_string() {
        assert_eq!(IStr::default(), intern(""));
        assert!(IStr::ptr_eq(&IStr::default(), &intern("")));
        assert_eq!(IStr::default().as_str(), "");
    }

    #[test]
    fn interning_is_thread_safe() {
        // Every thread interns the same fresh text at once (the barrier
        // lines them up on its first sighting), then a shared set.
        let start = Barrier::new(8);
        let all: Vec<Vec<IStr>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        let mut got = vec![intern("first_sighting_race")];
                        got.extend((0..100).map(|i| intern(&format!("shared_{}", (t + i) % 10))));
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for probe in [intern("first_sighting_race"), intern("shared_3")] {
            let mut seen = 0;
            for s in all
                .iter()
                .flatten()
                .filter(|s| s.as_str() == probe.as_str())
            {
                assert!(IStr::ptr_eq(s, &probe), "{probe} interned twice");
                seen += 1;
            }
            assert!(seen >= 8, "{probe} seen {seen} times");
        }
    }

    #[test]
    fn stats_report_distinct_strings() {
        let before = stats().0;
        intern("stats_probe_unique_string_xyzzy");
        intern("stats_probe_unique_string_xyzzy");
        let after = stats().0;
        assert_eq!(after, before + 1);
    }
}
