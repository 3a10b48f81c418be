//! Records stored where their id points.
//!
//! The app hands out job ids densely from 1 (`GalaxyApp::create_job`),
//! and a history its dataset ids the same way, so a table keyed by such
//! an id needs no hashing and no search: record `id` sits at position
//! `id - FIRST_ID`. The job table, the ledger, the queue engine's retry
//! contexts and the history share this one piece of arithmetic. Slots
//! are a deque so that a table can drop its oldest ids from the front,
//! the ids below it then being an offset, not a rewrite: removing the
//! front record drops it and the holes behind it, so a table whose
//! records leave in roughly id order (the engine's in-flight jobs) spans
//! only the ids still in it.

use std::collections::VecDeque;

/// The first id handed out.
const FIRST_ID: u64 = 1;

/// Records by dense id; an id never inserted is a hole that lookups and
/// iteration skip.
#[derive(Debug, Clone)]
pub(crate) struct Slots<T> {
    slots: VecDeque<Option<T>>,
    /// The id of the front slot; the ids below it were removed.
    front: u64,
    /// Occupied slots.
    len: usize,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots { slots: VecDeque::new(), front: FIRST_ID, len: 0 }
    }
}

impl<T> Slots<T> {
    /// Where `id` sits; `None` below the front or past the address space.
    fn position(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.front)?).ok()
    }

    /// The id the next record appended without a hole gets.
    pub(crate) fn next_id(&self) -> u64 {
        self.front + self.slots.len() as u64
    }

    /// Record `id`, if present.
    pub(crate) fn get(&self, id: u64) -> Option<&T> {
        self.slots.get(self.position(id)?)?.as_ref()
    }

    /// Record `id`, mutably, if present.
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let at = self.position(id)?;
        self.slots.get_mut(at)?.as_mut()
    }

    /// Store `value` at `id`, replacing what was there. Ids are meant to
    /// be dense: an id past the end grows the table to it, with holes
    /// for the ids skipped.
    ///
    /// # Panics
    ///
    /// On an id below the front: 0, or one already removed from the
    /// front (a removed id is never stored again).
    pub(crate) fn insert(&mut self, id: u64, value: T) {
        let at = self.position(id).expect("ids start at 1 and a removed id is not stored again");
        if at >= self.slots.len() {
            self.slots.resize_with(at + 1, || None);
        }
        if self.slots[at].replace(value).is_none() {
            self.len += 1;
        }
    }

    /// Take record `id` out, leaving a hole; holes at the front are
    /// dropped, moving the front past them.
    pub(crate) fn remove(&mut self, id: u64) -> Option<T> {
        let at = self.position(id)?;
        let taken = self.slots.get_mut(at)?.take()?;
        self.len -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.front += 1;
        }
        Some(taken)
    }

    /// The records in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }

    /// Number of records (holes not counted).
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_outside_the_table_find_nothing() {
        let mut slots = Slots::default();
        for id in 1..=3u64 {
            slots.insert(id, id * 10);
        }
        for id in [0, 4, u64::MAX] {
            assert_eq!(slots.get(id), None, "id {id}");
            assert_eq!(slots.get_mut(id), None, "id {id}");
        }
        assert_eq!((slots.get(2), slots.len(), slots.next_id()), (Some(&20), 3, 4));
    }

    #[test]
    fn holes_are_skipped_and_counted_once() {
        let mut slots = Slots::default();
        for id in [5u64, 1, 3] {
            slots.insert(id, id);
        }
        slots.insert(3, 33);
        assert_eq!(slots.iter().copied().collect::<Vec<_>>(), [1, 33, 5]);
        assert_eq!((slots.len(), slots.get(2), slots.get(4)), (3, None, None));
        assert_eq!((slots.remove(1), slots.remove(1), slots.remove(2)), (Some(1), None, None));
        assert_eq!(slots.iter().copied().collect::<Vec<_>>(), [33, 5]);
        assert_eq!((slots.len(), slots.remove(0), slots.remove(u64::MAX)), (2, None, None));
    }

    #[test]
    fn removing_the_front_drops_it_and_keeps_later_ids_in_place() {
        let mut slots = Slots::default();
        for id in 1..=4u64 {
            slots.insert(id, id);
        }
        assert_eq!((slots.remove(2), slots.slots.len()), (Some(2), 4), "a hole inside stays");
        assert_eq!((slots.remove(1), slots.slots.len()), (Some(1), 2), "the front and the hole go");
        assert_eq!(
            (slots.get(1), slots.get(2), slots.get(3), slots.get(4)),
            (None, None, Some(&3), Some(&4))
        );
        assert_eq!(slots.next_id(), 5);
        for id in [3, 4] {
            slots.remove(id);
        }
        assert_eq!((slots.slots.len(), slots.len(), slots.next_id()), (0, 0, 5));
        slots.insert(6, 6);
        assert_eq!((slots.get(5), slots.get(6), slots.len()), (None, Some(&6), 1));
        assert_eq!(slots.iter().copied().collect::<Vec<_>>(), [6]);
    }

    #[test]
    #[should_panic(expected = "ids start at 1")]
    fn id_zero_is_refused() {
        Slots::default().insert(0, ());
    }

    #[test]
    #[should_panic(expected = "a removed id is not stored again")]
    fn an_id_removed_from_the_front_is_refused() {
        let mut slots = Slots::default();
        slots.insert(1, ());
        slots.remove(1);
        slots.insert(1, ());
    }
}
