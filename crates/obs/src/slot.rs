//! Slot-indexed metric storage.
//!
//! Counters and histograms live in dense vectors behind one sorted
//! key→slot index. Name-based updates, exports and snapshots go through
//! the index. A [`CounterKey`] or [`HistogramKey`] held by an instrumented
//! component remembers the slot its name resolved to, so its later
//! updates index the storage directly.
//!
//! A remembered slot is stamped with the registry's *generation*, a
//! process-unique number the registry draws when it is created, reset or
//! restored. A key used against another registry, or against one that was
//! reset or reloaded since, sees a different generation and resolves its
//! name again instead of reaching into storage it does not belong to.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::{FixedHistogram, DEFAULT_BUCKETS};
use crate::key::MetricKey;

static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

/// A fresh registry generation (never 0, never repeated: the atomic
/// increment alone makes it unique, so no ordering is needed).
pub(crate) fn next_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// Bits of a cached slot that hold the index; the rest hold the
/// generation.
const INDEX_BITS: u32 = 24;
const INDEX_MASK: u64 = (1 << INDEX_BITS) - 1;

/// A key's resolved slot, packed as `generation << INDEX_BITS | index` in
/// one atomic so a reader never pairs one generation with another's
/// index. 0 means unresolved: no generation is 0.
///
/// `Relaxed` is enough: the cache is read and written only under the
/// lock of the registry whose storage it indexes, and a value whose
/// generation matches that registry was stored under that same lock, so
/// the mutex orders the slot's creation before its use.
#[derive(Debug)]
struct SlotCache(AtomicU64);

impl SlotCache {
    const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    fn get(&self, generation: u64) -> Option<usize> {
        let packed = self.0.load(Ordering::Relaxed);
        (packed >> INDEX_BITS == generation).then_some((packed & INDEX_MASK) as usize)
    }

    fn set(&self, generation: u64, index: usize) {
        // Beyond the packable range the key stays unresolved and each
        // update takes the name lookup instead.
        let index = index as u64;
        if index <= INDEX_MASK && generation >> (u64::BITS - INDEX_BITS) == 0 {
            self.0
                .store(generation << INDEX_BITS | index, Ordering::Relaxed);
        }
    }
}

impl Clone for SlotCache {
    fn clone(&self) -> Self {
        Self(AtomicU64::new(self.0.load(Ordering::Relaxed)))
    }
}

/// A counter key that resolves once per registry to a slot in its dense
/// storage (see [`Handle::counter_add_key`](crate::Handle::counter_add_key)).
///
/// Components that bump the same counter many times per simulated second
/// hold one of these instead of passing the name each time. Resolution
/// happens on the first enabled update, so a key costs nothing while
/// telemetry is off, and the counter appears in exports only once it has
/// been updated.
///
/// ```
/// use bz_obs::{CounterKey, Handle};
///
/// let obs = Handle::isolated();
/// let sent = CounterKey::from_static("wsn.packets.sent");
/// obs.counter_inc_key(&sent);
/// obs.counter_inc("wsn.packets.sent"); // the name reaches the same slot
/// assert_eq!(obs.snapshot().counters["wsn.packets.sent"], 2);
/// ```
#[derive(Debug, Clone)]
pub struct CounterKey {
    name: MetricKey,
    slot: SlotCache,
}

impl CounterKey {
    /// A key for a fixed instrumentation point.
    #[must_use]
    pub const fn from_static(name: &'static str) -> Self {
        Self {
            name: MetricKey::from_static(name),
            slot: SlotCache::new(),
        }
    }

    /// A key for a runtime-built name such as `wsn.node.21.sent`.
    #[must_use]
    pub fn new(name: impl Into<MetricKey>) -> Self {
        Self {
            name: name.into(),
            slot: SlotCache::new(),
        }
    }
}

/// A histogram key over [`DEFAULT_BUCKETS`] that resolves once per
/// registry to a slot in its dense storage (see
/// [`Handle::observe_key`](crate::Handle::observe_key) and
/// [`CounterKey`]).
#[derive(Debug, Clone)]
pub struct HistogramKey {
    name: MetricKey,
    slot: SlotCache,
}

impl HistogramKey {
    /// A key for a fixed instrumentation point.
    #[must_use]
    pub const fn from_static(name: &'static str) -> Self {
        Self {
            name: MetricKey::from_static(name),
            slot: SlotCache::new(),
        }
    }
}

/// Dense metric storage behind a sorted key→slot index. Slots are only
/// ever appended, so an index stays valid until the storage is replaced.
#[derive(Debug)]
pub(crate) struct Slots<T> {
    index: BTreeMap<MetricKey, usize>,
    values: Vec<T>,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Self {
            index: BTreeMap::new(),
            values: Vec::new(),
        }
    }
}

impl<T> Slots<T> {
    /// The slot of `name`, created with `init` on first use. The key is
    /// cloned only when it is new.
    fn resolve(&mut self, name: &MetricKey, init: impl FnOnce() -> T) -> usize {
        match self.index.get(name.as_str()) {
            Some(&slot) => slot,
            None => self.insert(name.clone(), init()),
        }
    }

    /// Appends `value` in a new slot indexed by `name`.
    fn insert(&mut self, name: MetricKey, value: T) -> usize {
        self.values.push(value);
        let slot = self.values.len() - 1;
        self.index.insert(name, slot);
        slot
    }

    /// The value of `name`, created with `init` on first use. A new key
    /// moves into the index.
    pub(crate) fn get_or_insert(&mut self, name: MetricKey, init: impl FnOnce() -> T) -> &mut T {
        let slot = match self.index.get(name.as_str()) {
            Some(&slot) => slot,
            None => self.insert(name, init()),
        };
        &mut self.values[slot]
    }

    /// The value behind a cached slot of `generation`'s storage,
    /// resolving and caching it on a miss.
    fn get_cached(
        &mut self,
        generation: u64,
        cache: &SlotCache,
        name: &MetricKey,
        init: impl FnOnce() -> T,
    ) -> &mut T {
        let slot = cache.get(generation).unwrap_or_else(|| {
            let slot = self.resolve(name, init);
            cache.set(generation, slot);
            slot
        });
        &mut self.values[slot]
    }

    /// Entries in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&MetricKey, &T)> {
        self.index
            .iter()
            .map(|(name, &slot)| (name, &self.values[slot]))
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

impl Slots<u64> {
    /// The counter `key` names, through its cached slot.
    pub(crate) fn counter(&mut self, generation: u64, key: &CounterKey) -> &mut u64 {
        self.get_cached(generation, &key.slot, &key.name, || 0)
    }
}

impl Slots<FixedHistogram> {
    /// The histogram `key` names, through its cached slot.
    pub(crate) fn histogram(&mut self, generation: u64, key: &HistogramKey) -> &mut FixedHistogram {
        self.get_cached(generation, &key.slot, &key.name, || {
            FixedHistogram::new(DEFAULT_BUCKETS)
        })
    }
}

impl<T: Clone> Slots<T> {
    /// A sorted map copy, for snapshots.
    pub(crate) fn to_map(&self) -> BTreeMap<MetricKey, T> {
        self.iter()
            .map(|(name, value)| (name.clone(), value.clone()))
            .collect()
    }
}

impl<T> FromIterator<(MetricKey, T)> for Slots<T> {
    fn from_iter<I: IntoIterator<Item = (MetricKey, T)>>(entries: I) -> Self {
        let mut slots = Self::default();
        for (name, value) in entries {
            slots.insert(name, value);
        }
        slots
    }
}

/// Encoded exactly as the `BTreeMap<MetricKey, T>` it replaced, so
/// checkpoint bytes are unchanged.
impl<T: bz_state::Persist> bz_state::Persist for Slots<T> {
    fn save(&self, w: &mut bz_state::Writer) {
        w.put_len(self.index.len());
        for (name, value) in self.iter() {
            name.save(w);
            value.save(w);
        }
    }

    fn load(r: &mut bz_state::Reader<'_>) -> Result<Self, bz_state::StateError> {
        Ok(BTreeMap::<MetricKey, T>::load(r)?.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cached_slot_only_matches_its_generation() {
        let cache = SlotCache::new();
        assert_eq!(cache.get(1), None);
        cache.set(7, 3);
        assert_eq!(cache.get(7), Some(3));
        assert_eq!(cache.get(8), None);
    }

    #[test]
    fn unpackable_slots_stay_unresolved() {
        let cache = SlotCache::new();
        cache.set(1, 1 << INDEX_BITS);
        assert_eq!(cache.get(1), None);
        let huge = 1 << (u64::BITS - INDEX_BITS);
        cache.set(huge, 0);
        assert_eq!(cache.get(huge), None);
    }

    #[test]
    fn names_and_cached_keys_share_one_slot() {
        let mut slots = Slots::<u64>::default();
        let key = CounterKey::from_static("b");
        *slots.counter(5, &key) += 2;
        *slots.get_or_insert(MetricKey::from_static("a"), || 0) += 1;
        *slots.get_or_insert(MetricKey::from_static("b"), || 0) += 3;
        *slots.counter(5, &key) += 4;
        let entries: Vec<(&str, u64)> = slots.iter().map(|(k, &v)| (k.as_str(), v)).collect();
        assert_eq!(entries, [("a", 1), ("b", 9)]);
    }
}
