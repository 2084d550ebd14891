//! Generational arena used to store IR entities.
//!
//! Every IR object (operation, block, region, value) lives in an [`Arena`]
//! and is referred to by a small, `Copy`-able [`Idx`]. Erasing an entity
//! bumps the *generation* of its slot, so stale indices are detected rather
//! than silently resolving to an unrelated entity. This is the mechanical
//! foundation of the *handle invalidation* story of the Transform dialect:
//! a dangling payload reference is a detectable error, not undefined
//! behaviour.

use std::fmt;
use std::marker::PhantomData;

/// A generational index into an [`Arena<T>`].
///
/// The `T` parameter is a phantom tag so indices of different entity kinds
/// (operations vs. blocks, say) cannot be confused.
pub struct Idx<T> {
    index: u32,
    generation: u32,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Idx<T> {
    /// Creates an index from raw parts. Mostly useful in tests.
    pub fn from_raw(index: u32, generation: u32) -> Self {
        Idx {
            index,
            generation,
            _marker: PhantomData,
        }
    }

    /// The slot position inside the arena.
    pub fn index(self) -> u32 {
        self.index
    }

    /// The generation this index was created at.
    pub fn generation(self) -> u32 {
        self.generation
    }
}

/// The placeholder index: never returned by [`Arena::alloc`] (no arena
/// grows to `u32::MAX` slots), so it resolves nowhere. It fills the unused
/// slots of an [`InlineVec`].
impl<T> Default for Idx<T> {
    fn default() -> Self {
        Idx::from_raw(u32::MAX, u32::MAX)
    }
}

impl<T> Clone for Idx<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Idx<T> {}
impl<T> PartialEq for Idx<T> {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index && self.generation == other.generation
    }
}
impl<T> Eq for Idx<T> {}
impl<T> std::hash::Hash for Idx<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.index.hash(state);
        self.generation.hash(state);
    }
}
impl<T> PartialOrd for Idx<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Idx<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.index, self.generation).cmp(&(other.index, other.generation))
    }
}
impl<T> fmt::Debug for Idx<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}v{}", self.index, self.generation)
    }
}

enum Slot<T> {
    Occupied {
        generation: u32,
        value: T,
    },
    Free {
        generation: u32,
        next_free: Option<u32>,
    },
}

/// A generational arena: O(1) insert, erase, and lookup with stale-index
/// detection.
///
/// # Examples
///
/// ```
/// use td_support::arena::Arena;
/// let mut arena = Arena::new();
/// let a = arena.alloc("hello");
/// assert_eq!(arena[a], "hello");
/// arena.erase(a);
/// assert!(arena.get(a).is_none());
/// ```
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free_head: Option<u32>,
    len: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free_head: None,
            len: 0,
        }
    }

    /// Number of live entities.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no live entity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocates a new entity and returns its index.
    pub fn alloc(&mut self, value: T) -> Idx<T> {
        self.len += 1;
        if let Some(index) = self.free_head {
            let slot = &mut self.slots[index as usize];
            let generation = match slot {
                Slot::Free {
                    generation,
                    next_free,
                } => {
                    self.free_head = *next_free;
                    *generation
                }
                Slot::Occupied { .. } => unreachable!("free list points at occupied slot"),
            };
            *slot = Slot::Occupied { generation, value };
            Idx::from_raw(index, generation)
        } else {
            let index = self.slots.len() as u32;
            self.slots.push(Slot::Occupied {
                generation: 0,
                value,
            });
            Idx::from_raw(index, 0)
        }
    }

    /// Returns a reference to the entity, or `None` if the index is stale
    /// (the entity was erased) or out of bounds.
    pub fn get(&self, idx: Idx<T>) -> Option<&T> {
        match self.slots.get(idx.index as usize) {
            Some(Slot::Occupied { generation, value }) if *generation == idx.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Mutable variant of [`Arena::get`].
    pub fn get_mut(&mut self, idx: Idx<T>) -> Option<&mut T> {
        match self.slots.get_mut(idx.index as usize) {
            Some(Slot::Occupied { generation, value }) if *generation == idx.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Whether `idx` refers to a live entity.
    pub fn contains(&self, idx: Idx<T>) -> bool {
        self.get(idx).is_some()
    }

    /// Erases the entity. Returns the value if the index was live.
    ///
    /// The slot's generation is bumped, so any outstanding copy of `idx`
    /// becomes detectably stale.
    pub fn erase(&mut self, idx: Idx<T>) -> Option<T> {
        let slot = self.slots.get_mut(idx.index as usize)?;
        match slot {
            Slot::Occupied { generation, .. } if *generation == idx.generation => {
                let next_gen = idx.generation.wrapping_add(1);
                let old = std::mem::replace(
                    slot,
                    Slot::Free {
                        generation: next_gen,
                        next_free: self.free_head,
                    },
                );
                self.free_head = Some(idx.index);
                self.len -= 1;
                match old {
                    Slot::Occupied { value, .. } => Some(value),
                    Slot::Free { .. } => unreachable!(),
                }
            }
            _ => None,
        }
    }

    /// Re-occupies a freed slot with the exact index *and generation* it
    /// had before [`Arena::erase`], making every outstanding copy of `idx`
    /// live again. This is the primitive undo-log rollback is built on:
    /// replaying an erase in reverse must resurrect the entity under its
    /// original id, because other restored entities still refer to it.
    ///
    /// The slot is unlinked from the free list. Restores that replay
    /// erases in reverse order find their slot at the head of the list
    /// (erase pushes, restore pops), so the common case is O(1); an
    /// interleaved alloc history degrades gracefully to a list walk.
    ///
    /// # Errors
    /// Returns the value if the slot is currently occupied or was never
    /// allocated — a sign the caller's replay is out of order.
    pub fn restore(&mut self, idx: Idx<T>, value: T) -> Result<(), T> {
        let index = idx.index as usize;
        if !matches!(self.slots.get(index), Some(Slot::Free { .. })) {
            return Err(value);
        }
        // Unlink `index` from the singly-linked free list.
        let mut cursor = self.free_head;
        let mut prev: Option<u32> = None;
        while let Some(at) = cursor {
            if at == idx.index {
                break;
            }
            prev = Some(at);
            cursor = match &self.slots[at as usize] {
                Slot::Free { next_free, .. } => *next_free,
                Slot::Occupied { .. } => None,
            };
        }
        if cursor != Some(idx.index) {
            return Err(value); // not on the free list: corrupt replay
        }
        let next = match &self.slots[index] {
            Slot::Free { next_free, .. } => *next_free,
            Slot::Occupied { .. } => unreachable!("checked free above"),
        };
        match prev {
            None => self.free_head = next,
            Some(p) => {
                if let Slot::Free { next_free, .. } = &mut self.slots[p as usize] {
                    *next_free = next;
                }
            }
        }
        self.slots[index] = Slot::Occupied {
            generation: idx.generation,
            value,
        };
        self.len += 1;
        Ok(())
    }

    /// Iterates over all live `(index, value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Idx<T>, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot {
                Slot::Occupied { generation, value } => {
                    Some((Idx::from_raw(i as u32, *generation), value))
                }
                Slot::Free { .. } => None,
            })
    }
}

impl<T> std::ops::Index<Idx<T>> for Arena<T> {
    type Output = T;
    /// # Panics
    /// Panics if the index is stale or out of bounds.
    fn index(&self, idx: Idx<T>) -> &T {
        self.get(idx)
            .unwrap_or_else(|| panic!("stale or invalid arena index {idx:?}"))
    }
}

impl<T> std::ops::IndexMut<Idx<T>> for Arena<T> {
    fn index_mut(&mut self, idx: Idx<T>) -> &mut T {
        self.get_mut(idx)
            .unwrap_or_else(|| panic!("stale or invalid arena index {idx:?}"))
    }
}

impl<T: fmt::Debug> fmt::Debug for Arena<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A list of `Copy` items that holds up to `N` of them in place and
/// spills to a heap `Vec` only past that: the storage of an op's operand,
/// result, region and successor lists and of a value's use list, sized so
/// the common arity never allocates. Once spilled it stays on the heap
/// (shrinking back is not worth a copy). Reads go through `Deref` to a
/// slice; the mutators are the few `Vec` ones the IR uses.
///
/// ```
/// use td_support::arena::InlineVec;
/// let mut list: InlineVec<u32, 2> = InlineVec::new();
/// list.push(1);
/// list.push(2);
/// assert!(!list.spilled());
/// list.push(3);
/// assert!(list.spilled());
/// assert_eq!(&list[..], &[1, 2, 3]);
/// ```
#[derive(Clone)]
pub struct InlineVec<T, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    /// `buf[..len]` are the items; the rest are `T::default()` filler.
    Inline {
        len: u32,
        buf: [T; N],
    },
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty list (no allocation).
    pub fn new() -> Self {
        InlineVec(Repr::Inline {
            len: 0,
            buf: [T::default(); N],
        })
    }

    /// A list holding a copy of `items`; allocates only past `N` items.
    pub fn from_slice(items: &[T]) -> Self {
        if items.len() <= N {
            let mut buf = [T::default(); N];
            buf[..items.len()].copy_from_slice(items);
            InlineVec(Repr::Inline {
                len: items.len() as u32,
                buf,
            })
        } else {
            InlineVec(Repr::Heap(items.to_vec()))
        }
    }

    /// Whether the items live on the heap.
    pub fn spilled(&self) -> bool {
        matches!(self.0, Repr::Heap(_))
    }

    /// The items as a slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(items) => items,
        }
    }

    /// The items as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Heap(items) => items,
        }
    }

    /// The heap form, moving the inline items out first if there is no
    /// room for one more.
    fn grow(&mut self) -> &mut Vec<T> {
        if let Repr::Inline { len, buf } = &self.0 {
            let mut items = Vec::with_capacity(2 * N.max(2));
            items.extend_from_slice(&buf[..*len as usize]);
            self.0 = Repr::Heap(items);
        }
        match &mut self.0 {
            Repr::Heap(items) => items,
            Repr::Inline { .. } => unreachable!("just spilled"),
        }
    }

    /// Appends an item.
    pub fn push(&mut self, item: T) {
        match &mut self.0 {
            Repr::Inline { len, buf } if (*len as usize) < N => {
                buf[*len as usize] = item;
                *len += 1;
            }
            _ => self.grow().push(item),
        }
    }

    /// Removes and returns the last item.
    pub fn pop(&mut self) -> Option<T> {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                *len = len.checked_sub(1)?;
                Some(std::mem::take(&mut buf[*len as usize]))
            }
            Repr::Heap(items) => items.pop(),
        }
    }

    /// Removes the item at `index`, moving the last item into its place.
    ///
    /// # Panics
    /// Panics if `index >= len`.
    pub fn swap_remove(&mut self, index: usize) -> T {
        let last = self.len() - 1;
        self.as_mut_slice().swap(index, last);
        self.pop().expect("non-empty")
    }

    /// Keeps only the items `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut kept = 0;
        for i in 0..self.len() {
            let item = self[i];
            if keep(&item) {
                self.as_mut_slice()[kept] = item;
                kept += 1;
            }
        }
        while self.len() > kept {
            self.pop();
        }
    }

    /// Removes every item (a spilled list keeps its heap buffer).
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Heap(items) => items.clear(),
        }
    }

    /// Appends a copy of every item of `items`.
    pub fn extend_from_slice(&mut self, items: &[T]) {
        match &mut self.0 {
            Repr::Inline { len, buf } if *len as usize + items.len() <= N => {
                buf[*len as usize..*len as usize + items.len()].copy_from_slice(items);
                *len += items.len() as u32;
            }
            _ => self.grow().extend_from_slice(items),
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> AsRef<[T]> for InlineVec<T, N> {
    fn as_ref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> std::ops::DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + std::hash::Hash, const N: usize> std::hash::Hash for InlineVec<T, N> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        for item in items {
            self.push(item);
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut list = Self::new();
        list.extend(items);
        list
    }
}

impl<T: Copy + Default, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;
    fn into_iter(self) -> IntoIter<T, N> {
        IntoIter {
            list: self,
            next: 0,
        }
    }
}

/// The by-value iterator of an [`InlineVec`].
#[derive(Clone, Debug)]
pub struct IntoIter<T: Copy + Default, const N: usize> {
    list: InlineVec<T, N>,
    next: usize,
}

impl<T: Copy + Default, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        let item = self.list.get(self.next).copied();
        self.next += 1;
        item
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_vec_spills_past_its_capacity_and_keeps_order() {
        let mut list: InlineVec<u32, 3> = InlineVec::new();
        for i in 0..3 {
            list.push(i);
        }
        assert!(!list.spilled());
        list.push(3);
        assert!(list.spilled());
        assert_eq!(&list[..], &[0, 1, 2, 3]);
        assert_eq!(list.swap_remove(0), 0);
        assert_eq!(&list[..], &[3, 1, 2]);
        list.retain(|&x| x != 1);
        assert_eq!(&list[..], &[3, 2]);
        assert_eq!(list.pop(), Some(2));
        assert_eq!(list.into_iter().collect::<Vec<_>>(), [3]);
    }

    #[test]
    fn inline_vec_edits_in_place_below_its_capacity() {
        let mut list = InlineVec::<u32, 4>::from_slice(&[4, 5]);
        list.extend_from_slice(&[6, 7]);
        assert_eq!(&list[..], &[4, 5, 6, 7]);
        assert!(!list.spilled());
        assert_eq!(list.swap_remove(1), 5);
        list.retain(|&x| x % 2 == 0);
        assert_eq!(&list[..], &[4, 6]);
        assert_eq!(list, InlineVec::from_slice(&[4, 6]));
        assert_eq!(list.pop(), Some(6));
        assert_eq!(list.pop(), Some(4));
        assert_eq!(list.pop(), None);
        assert!(InlineVec::<u32, 1>::from_slice(&[1, 2]).spilled());
    }

    #[test]
    fn alloc_and_get() {
        let mut arena = Arena::new();
        let a = arena.alloc(1);
        let b = arena.alloc(2);
        assert_eq!(arena[a], 1);
        assert_eq!(arena[b], 2);
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn erase_detects_stale() {
        let mut arena = Arena::new();
        let a = arena.alloc("x");
        assert_eq!(arena.erase(a), Some("x"));
        assert!(arena.get(a).is_none());
        assert!(!arena.contains(a));
        assert_eq!(arena.erase(a), None);
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let mut arena = Arena::new();
        let a = arena.alloc(10);
        arena.erase(a);
        let b = arena.alloc(20);
        assert_eq!(a.index(), b.index(), "slot should be reused");
        assert_ne!(a.generation(), b.generation());
        assert!(arena.get(a).is_none(), "old index must not resolve");
        assert_eq!(arena[b], 20);
    }

    #[test]
    fn iter_skips_free_slots() {
        let mut arena = Arena::new();
        let a = arena.alloc(1);
        let _b = arena.alloc(2);
        let c = arena.alloc(3);
        arena.erase(a);
        arena.erase(c);
        let values: Vec<_> = arena.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, vec![2]);
    }

    #[test]
    fn index_mut_updates() {
        let mut arena = Arena::new();
        let a = arena.alloc(5);
        arena[a] += 1;
        assert_eq!(arena[a], 6);
    }

    #[test]
    #[should_panic(expected = "stale or invalid")]
    fn index_panics_on_stale() {
        let mut arena = Arena::new();
        let a = arena.alloc(1);
        arena.erase(a);
        let _ = arena[a];
    }

    #[test]
    fn phantom_tag_is_zero_cost() {
        assert_eq!(std::mem::size_of::<Idx<String>>(), 8);
    }

    #[test]
    fn restore_resurrects_the_original_id() {
        let mut arena = Arena::new();
        let a = arena.alloc("a");
        let b = arena.alloc("b");
        arena.erase(a);
        assert!(arena.get(a).is_none());
        arena.restore(a, "a again").expect("slot is free");
        assert_eq!(arena[a], "a again", "the *original* id resolves again");
        assert_eq!(arena[b], "b");
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn restore_rejects_occupied_or_unallocated_slots() {
        let mut arena = Arena::new();
        let a = arena.alloc(1);
        assert_eq!(arena.restore(a, 2), Err(2), "occupied slot");
        let ghost = Idx::from_raw(99, 0);
        assert_eq!(arena.restore(ghost, 3), Err(3), "never-allocated slot");
    }

    #[test]
    fn restore_in_reverse_erase_order_repairs_the_free_list() {
        let mut arena = Arena::new();
        let ids: Vec<_> = (0..4).map(|i| arena.alloc(i)).collect();
        for &id in &ids {
            arena.erase(id);
        }
        // Reverse replay: last erased restored first (the O(1) path).
        for &id in ids.iter().rev() {
            arena.restore(id, arena_value(id)).unwrap();
        }
        for &id in &ids {
            assert_eq!(arena[id], arena_value(id));
        }
        // The free list is empty again: fresh allocs get fresh slots.
        let fresh = arena.alloc(100);
        assert_eq!(fresh.index(), 4);
    }

    fn arena_value(id: Idx<i32>) -> i32 {
        id.index() as i32
    }

    #[test]
    fn restore_from_the_middle_of_the_free_list() {
        let mut arena = Arena::new();
        let a = arena.alloc("a");
        let b = arena.alloc("b");
        let c = arena.alloc("c");
        arena.erase(a);
        arena.erase(b);
        arena.erase(c);
        // Free list is c -> b -> a; restore the middle entry.
        arena.restore(b, "b").unwrap();
        assert_eq!(arena[b], "b");
        // Remaining free slots are still allocatable, exactly twice.
        let r1 = arena.alloc("x");
        let r2 = arena.alloc("y");
        assert_eq!(arena.len(), 3);
        assert_ne!(r1.index(), b.index());
        assert_ne!(r2.index(), b.index());
        let r3 = arena.alloc("z");
        assert_eq!(r3.index(), 3, "free list exhausted, new slot grown");
    }

    #[test]
    fn restored_slot_erases_again_cleanly() {
        let mut arena = Arena::new();
        let a = arena.alloc(7);
        arena.erase(a);
        arena.restore(a, 7).unwrap();
        assert_eq!(arena.erase(a), Some(7));
        let again = arena.alloc(8);
        assert_eq!(again.index(), a.index());
        assert_ne!(again.generation(), a.generation());
    }
}
