//! Copy-on-write chunks for value types that are cloned far more often
//! than they are changed.
//!
//! The migration cache memoises a design after every pipeline stage,
//! yet a stage rewrites only one or two kinds of chunk (a sheet's wires,
//! its instances, a library's symbols). A [`Shared`] field turns the
//! clone of such a value into a reference-count bump: every copy points
//! at the same chunk until one of them asks for `&mut`, and only then is
//! that one chunk copied, and only if someone else still holds it.
//!
//! * **Reads** go through [`Deref`], so `sheet.wires.iter()`,
//!   `sheet.wires.len()` and `&sheet.wires[i]` read as they would on the
//!   bare value.
//! * **Writes** go through [`DerefMut`], which calls
//!   [`Arc::make_mut`]: a chunk held by one handle is changed in place,
//!   a chunk held by several is copied first. Any `&mut` access counts
//!   as a write, whether or not it changes anything, so code that only
//!   *might* change a chunk should scan it through `&` first.
//! * **Equality and `Debug` are deep.** Two handles compare by content,
//!   never by address: a chunk holding a NaN must still compare unequal
//!   to itself, exactly like the bare value. Use [`Shared::ptr_eq`] to
//!   ask whether two handles share storage.
//! * **Stable hashing is transparent.** A chunk feeds exactly the bytes
//!   of the value it holds, so every digest equals that of the bare
//!   value. In the count-only walk of [`crate::hash::size_of`] a chunk
//!   reports its byte count from a cache kept beside the value, filled
//!   by the first walk over that chunk version and cleared by every
//!   `&mut` access; ten memos sharing one chunk pay for counting it once.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::hash::{StableHash, StableHasher};

/// Marks a chunk whose byte count has not been walked since it last
/// changed.
const UNCOUNTED: usize = usize::MAX;

/// A copy-on-write handle to a `T` (see the [module docs](self)).
///
/// ```
/// use interop_core::Shared;
///
/// let a: Shared<Vec<u32>> = vec![1, 2, 3].into();
/// let mut b = a.clone();
/// assert!(Shared::ptr_eq(&a, &b));
/// b.push(4); // copies the chunk: `a` still holds the only other handle
/// assert!(!Shared::ptr_eq(&a, &b));
/// assert_eq!((a.len(), b.len()), (3, 4));
/// ```
pub struct Shared<T>(Arc<Chunk<T>>);

struct Chunk<T> {
    value: T,
    /// Stable-hash byte count of `value`, or [`UNCOUNTED`].
    bytes: AtomicUsize,
}

impl<T: Clone> Clone for Chunk<T> {
    fn clone(&self) -> Self {
        Chunk::new(self.value.clone())
    }
}

impl<T> Chunk<T> {
    fn new(value: T) -> Self {
        Chunk {
            value,
            bytes: AtomicUsize::new(UNCOUNTED),
        }
    }
}

impl<T> Shared<T> {
    /// Wraps `value` in a chunk of its own.
    pub fn new(value: T) -> Self {
        Shared(Arc::new(Chunk::new(value)))
    }

    /// True when both handles point at the same chunk — no copy has
    /// separated them since one was cloned from the other.
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Feeds the chunk's value into `h` through `walk`, the function
    /// that defines this chunk type's stable encoding. A count-only
    /// walk ([`crate::hash::size_of`]) adds the cached byte count instead
    /// when the chunk has one; any walk fills the cache when it is empty.
    ///
    /// The cache does not record which `walk` produced it, so a chunk
    /// type must always be hashed through the same function.
    /// [`Shared`]'s own [`StableHash`] passes `T::stable_hash`; a field
    /// whose encoding differs from its type's (a map hashed by its
    /// values alone, say) passes its own.
    pub fn stable_hash_by(&self, h: &mut StableHasher, walk: impl FnOnce(&T, &mut StableHasher)) {
        // `Relaxed` suffices: the count publishes no other data, and a
        // shared chunk's value cannot change, so racing walks store the
        // same number.
        let cached = self.0.bytes.load(Ordering::Relaxed);
        if cached != UNCOUNTED && !h.hashing {
            h.bytes += cached;
            return;
        }
        let before = h.bytes;
        walk(&self.0.value, h);
        if cached == UNCOUNTED {
            self.0.bytes.store(h.bytes - before, Ordering::Relaxed);
        }
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<T> Deref for Shared<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0.value
    }
}

impl<T: Clone> DerefMut for Shared<T> {
    /// Copies the chunk first if another handle still shares it, and
    /// forgets its cached byte count.
    fn deref_mut(&mut self) -> &mut T {
        let chunk = Arc::make_mut(&mut self.0);
        *chunk.bytes.get_mut() = UNCOUNTED;
        &mut chunk.value
    }
}

impl<T: Default> Default for Shared<T> {
    fn default() -> Self {
        Shared::new(T::default())
    }
}

impl<T> From<T> for Shared<T> {
    fn from(value: T) -> Self {
        Shared::new(value)
    }
}

impl<A, T: FromIterator<A>> FromIterator<A> for Shared<T> {
    fn from_iter<I: IntoIterator<Item = A>>(iter: I) -> Self {
        Shared::new(iter.into_iter().collect())
    }
}

impl<'a, T> IntoIterator for &'a Shared<T>
where
    &'a T: IntoIterator,
{
    type Item = <&'a T as IntoIterator>::Item;
    type IntoIter = <&'a T as IntoIterator>::IntoIter;

    fn into_iter(self) -> Self::IntoIter {
        (**self).into_iter()
    }
}

impl<'a, T: Clone> IntoIterator for &'a mut Shared<T>
where
    &'a mut T: IntoIterator,
{
    type Item = <&'a mut T as IntoIterator>::Item;
    type IntoIter = <&'a mut T as IntoIterator>::IntoIter;

    fn into_iter(self) -> Self::IntoIter {
        (**self).into_iter()
    }
}

/// Deep: compares the values, never the addresses (see the module docs).
impl<T: PartialEq> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// Formats exactly like the bare value.
impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: StableHash> StableHash for Shared<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.stable_hash_by(h, T::stable_hash);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{hash_and_size, hash_of, size_of};

    fn words(list: &[&str]) -> Shared<Vec<String>> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn clone_then_mutate_leaves_the_original_unchanged() {
        let a = words(&["x", "y"]);
        let mut b = a.clone();
        assert!(Shared::ptr_eq(&a, &b));
        b[0].push('!');
        assert!(!Shared::ptr_eq(&a, &b));
        assert_eq!(*a, ["x", "y"]);
        assert_eq!(*b, ["x!", "y"]);
    }

    #[test]
    fn a_sole_handle_is_changed_in_place() {
        let mut a = words(&["x"]);
        let before: *const Vec<String> = &*a;
        a.push("y".into());
        assert!(std::ptr::eq(before, &*a));
    }

    #[test]
    fn digests_and_counts_equal_the_bare_values() {
        let bare: Vec<(String, Option<u64>)> = vec![("a".into(), None), ("bc".into(), Some(3))];
        let shared: Shared<_> = bare.clone().into();
        assert_eq!(hash_and_size(&shared), hash_and_size(&bare));
        assert_eq!(size_of(&shared), size_of(&bare));
        // Nested inside other values, with the count cached.
        let pair = (shared.clone(), shared);
        assert_eq!(hash_and_size(&pair), hash_and_size(&(&bare, &bare)));
        assert_eq!(size_of(&pair), hash_and_size(&pair).1);
    }

    /// Fills the cache with a count-only walk, changes the chunk through
    /// `edit`, and checks that the count and digest follow the edit.
    fn assert_edit_recounts(edit: impl Fn(&mut Shared<Vec<String>>)) {
        let mut a = words(&["one", "two"]);
        let keep = a.clone();
        assert_eq!(size_of(&a), size_of(&*a));
        edit(&mut a);
        assert_eq!(size_of(&a), size_of(&*a), "stale count after {a:?}");
        assert_eq!(hash_of(&a), hash_of(&*a));
        assert_eq!(size_of(&keep), size_of(&*keep));
        // The same again with the chunk held by this handle alone.
        let before = size_of(&a);
        edit(&mut a);
        assert_eq!(size_of(&a), size_of(&*a));
        assert_ne!(size_of(&a), before);
    }

    #[test]
    fn every_mutable_path_forgets_the_cached_count() {
        assert_edit_recounts(|a| a.push("three".into()));
        assert_edit_recounts(|a| {
            for w in a.iter_mut() {
                w.push('+');
            }
        });
        assert_edit_recounts(|a| {
            for w in &mut *a {
                w.push('+');
            }
        });
        assert_edit_recounts(|a| (**a)[0].push_str("long"));
    }

    #[test]
    fn equality_is_deep_and_nan_stays_unequal() {
        let nan: Shared<Vec<f64>> = vec![f64::NAN].into();
        assert_ne!(nan, nan.clone());
        #[allow(clippy::eq_op)]
        let self_equal = nan == nan;
        assert!(!self_equal);
        let a: Shared<Vec<u8>> = vec![1, 2].into();
        let b: Shared<Vec<u8>> = vec![1, 2].into();
        assert!(!Shared::ptr_eq(&a, &b));
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{:?}", vec![1u8, 2]));
    }

    #[test]
    fn iteration_by_reference_reads_and_writes() {
        let mut a: Shared<Vec<u32>> = (1..=3).collect();
        let sum: u32 = (&a).into_iter().sum();
        assert_eq!(sum, 6);
        for v in &mut a {
            *v *= 2;
        }
        assert_eq!(*a, [2, 4, 6]);
        assert!(Shared::<Vec<u32>>::default().is_empty());
    }
}
