//! Flat arena storage for node-set collections (the set `R` of RR sets).

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};
use tim_graph::{Array, Mmap, NodeId};

/// Reusable per-thread scratch for [`SetCollection::count_covered`]'s
/// index-backed path: a stamped bitmap over set ids. Bumping the stamp
/// "clears" the map in O(1); the vec itself is only rewritten on the
/// (practically unreachable) stamp wraparound, and grows monotonically to
/// the largest collection the thread has evaluated.
#[derive(Default)]
struct CoverScratch {
    stamp: u32,
    mark: Vec<u32>,
}

thread_local! {
    static COVER_SCRATCH: RefCell<CoverScratch> = RefCell::new(CoverScratch::default());
}

/// A collection of node sets over the universe `0..n`, stored as one flat
/// arena plus offsets, with an inverted index built on demand.
///
/// Appending a set is O(|set|); `memory_bytes` reports the arena footprint
/// that dominates TIM's memory profile (Figure 12). The four arrays are
/// [`Array`]s: owned `Vec`s for a sampled or heap-decoded pool, or views
/// of a mapped pool file, whose persisted inverted index is served as is
/// ([`from_raw_parts`](Self::from_raw_parts) and
/// [`with_index`](Self::with_index) take either). Every query reads both
/// the same way; [`push`](Self::push) copies a mapped arena onto the heap
/// first.
#[derive(Debug, Clone)]
pub struct SetCollection {
    n: usize,
    /// Concatenated member lists.
    data: Array<NodeId>,
    /// Set `i` occupies `data[offsets[i]..offsets[i + 1]]`.
    offsets: Array<u64>,
    /// Inverted index (node → ids of sets containing it): node `v`'s
    /// posting list is `inv_data[inv_offsets[v]..inv_offsets[v + 1]]`.
    inv_data: Array<u32>,
    inv_offsets: Array<u64>,
    inv_built_for: usize,
    /// Greedy's candidate order, derived from the index on first use
    /// ([`degree_order`](Self::degree_order)); reset whenever the index
    /// is rebuilt or adopted.
    order: OnceLock<Vec<NodeId>>,
}

impl SetCollection {
    /// Creates an empty collection over the universe `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            data: Array::default(),
            offsets: Array::from(vec![0]),
            inv_data: Array::default(),
            inv_offsets: Array::default(),
            inv_built_for: usize::MAX,
            order: OnceLock::new(),
        }
    }

    /// Creates an empty collection with arena capacity for `total` members.
    pub fn with_capacity(n: usize, sets: usize, total: usize) -> Self {
        let mut c = Self::new(n);
        c.data.edit(|data| data.reserve(total));
        c.offsets.edit(|offsets| offsets.reserve(sets));
        c
    }

    /// Universe size.
    #[inline]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Number of sets stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no sets are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of members across all sets (arena length).
    #[inline]
    pub fn total_members(&self) -> usize {
        self.data.len()
    }

    /// The members of set `i`.
    #[inline]
    pub fn set(&self, i: usize) -> &[NodeId] {
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The flat member arena: all sets concatenated back to back. Together
    /// with [`raw_offsets`](Self::raw_offsets) this is the full persistent
    /// state of the collection (the inverted index is derived data), which
    /// is what `tim_engine` serializes into `.timp` pool files.
    #[inline]
    pub fn raw_data(&self) -> &[NodeId] {
        &self.data
    }

    /// Set boundaries into [`raw_data`](Self::raw_data): set `i` occupies
    /// `raw_data()[raw_offsets()[i]..raw_offsets()[i + 1]]`. Always has
    /// `len() + 1` entries starting at 0.
    #[inline]
    pub fn raw_offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Builds a collection over the arena layout exposed by
    /// [`raw_data`](Self::raw_data) / [`raw_offsets`](Self::raw_offsets),
    /// owned or mapped, checking every bound the accessors rely on:
    /// offsets run monotonically from 0 to the arena length, every member
    /// lies in the universe, and set ids fit the index's `u32`s. The pool
    /// open runs it on untrusted bytes.
    pub fn from_raw_parts(
        n: usize,
        data: impl Into<Array<NodeId>>,
        offsets: impl Into<Array<u64>>,
    ) -> Result<Self, String> {
        let (data, offsets) = (data.into(), offsets.into());
        if offsets.first() != Some(&0) {
            return Err("offsets must start at 0".into());
        }
        if offsets.last() != Some(&(data.len() as u64)) {
            return Err("offsets must end at the arena length".into());
        }
        if offsets.len() - 1 > u32::MAX as usize {
            return Err(format!(
                "set count {} exceeds the u32 set-id space",
                offsets.len() - 1
            ));
        }
        if !offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err("offsets must be non-decreasing".into());
        }
        if let Some(&v) = data.iter().max().filter(|&&v| v as usize >= n) {
            return Err(format!("member {v} out of universe 0..{n}"));
        }
        Ok(Self {
            n,
            data,
            offsets,
            inv_data: Array::default(),
            inv_offsets: Array::default(),
            inv_built_for: usize::MAX,
            order: OnceLock::new(),
        })
    }

    /// Adopts a persisted inverted index (the arrays
    /// [`raw_inverted`](Self::raw_inverted) exposes), checking the bounds
    /// that keep every posting-list slice and solver index in range:
    /// offsets run monotonically from 0 to the arena length and every
    /// entry names a stored set. Whether the index also *agrees* with the
    /// arena is [`validate_index`](Self::validate_index)'s question.
    pub fn with_index(
        mut self,
        inv_offsets: impl Into<Array<u64>>,
        inv_data: impl Into<Array<u32>>,
    ) -> Result<Self, String> {
        let (inv_offsets, inv_data) = (inv_offsets.into(), inv_data.into());
        let total = self.data.len() as u64;
        if inv_offsets.len() != self.n + 1 || inv_data.len() != self.data.len() {
            return Err("inverted index does not match the universe and arena sizes".into());
        }
        if inv_offsets[0] != 0 || inv_offsets[self.n] != total {
            return Err(format!(
                "inverted offsets must run from 0 to the arena length {total}"
            ));
        }
        if !inv_offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err("inverted offsets must be non-decreasing".into());
        }
        if let Some(&s) = inv_data.iter().max().filter(|&&s| s as usize >= self.len()) {
            return Err(format!(
                "posting entry {s} out of set range 0..{}",
                self.len()
            ));
        }
        self.inv_offsets = inv_offsets;
        self.inv_data = inv_data;
        self.inv_built_for = self.len();
        self.order = OnceLock::new();
        Ok(self)
    }

    /// Checks that the inverted index describes the arena: each node's
    /// posting list is strictly ascending and as long as the node's
    /// occurrence count in the member arena, or greedy coverage counts go
    /// wrong. One counting pass over the arena plus one posting walk per
    /// node. Passes when no index is built.
    pub fn validate_index(&self) -> Result<(), String> {
        if !self.has_inverted_index() {
            return Ok(());
        }
        let mut counts = vec![0u64; self.n];
        for &v in self.data.iter() {
            counts[v as usize] += 1;
        }
        for (v, &count) in counts.iter().enumerate() {
            let list = self.sets_containing(v as NodeId);
            if list.len() as u64 != count {
                return Err(format!(
                    "node {v} posting list holds {} entries but occurs {count} times in the arena",
                    list.len()
                ));
            }
            if !list.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("node {v} posting list is not strictly ascending"));
            }
        }
        Ok(())
    }

    /// Appends a set. Members must be in `[0, n)` (checked in debug builds);
    /// duplicates within one set are the caller's responsibility (RR
    /// samplers never produce them).
    #[inline]
    pub fn push(&mut self, members: &[NodeId]) {
        debug_assert!(
            members.iter().all(|&v| (v as usize) < self.n),
            "set member out of universe"
        );
        self.data.edit(|data| data.extend_from_slice(members));
        let end = self.data.len() as u64;
        self.offsets.edit(|offsets| offsets.push(end));
        self.inv_built_for = usize::MAX; // invalidate
    }

    /// Appends sets `sets` of `other`, in order: the same collection as
    /// pushing them one by one, in one copy of their arena slice.
    ///
    /// # Panics
    /// Panics if `sets` reaches past `other`'s end.
    pub fn extend_from(&mut self, other: &SetCollection, sets: std::ops::Range<usize>) {
        debug_assert!(other.n <= self.n, "set member out of universe");
        let (lo, hi) = (other.offsets[sets.start], other.offsets[sets.end]);
        let base = self.data.len() as u64;
        self.data
            .edit(|data| data.extend_from_slice(&other.data[lo as usize..hi as usize]));
        let ends = &other.offsets[sets.start + 1..=sets.end];
        self.offsets
            .edit(|offsets| offsets.extend(ends.iter().map(|&end| end - lo + base)));
        self.inv_built_for = usize::MAX; // invalidate
    }

    /// Heap bytes held by the arena and index (0 for a mapped collection:
    /// see [`mapped_bytes`](Self::mapped_bytes)).
    pub fn memory_bytes(&self) -> usize {
        self.data.heap_bytes()
            + self.offsets.heap_bytes()
            + self.inv_data.heap_bytes()
            + self.inv_offsets.heap_bytes()
    }

    /// The pool-file mapping the member arena views, or `None` for a
    /// collection held on the heap.
    pub fn mapping(&self) -> Option<&Arc<Mmap>> {
        self.data.mapping()
    }

    /// Bytes of the file mapping the arena views (the whole pool file);
    /// 0 on the heap.
    pub fn mapped_bytes(&self) -> usize {
        self.mapping().map_or(0, |map| map.len())
    }

    /// True when the inverted index is built and matches the current set
    /// count. While this holds, every query the index serves
    /// ([`sets_containing`](Self::sets_containing),
    /// [`degree`](Self::degree), and the `*_indexed` greedy solvers) is
    /// `&self` — the basis for answering influence queries concurrently
    /// from a shared read-only pool.
    #[inline]
    pub fn has_inverted_index(&self) -> bool {
        self.inv_built_for == self.len()
    }

    /// Builds (or rebuilds) the inverted index if stale.
    pub fn ensure_inverted_index(&mut self) {
        if self.inv_built_for == self.len() {
            return;
        }
        let (inv_offsets, inv_data) = build_inverted_index(self.n, &self.data, &self.offsets);
        self.inv_offsets = inv_offsets.into();
        self.inv_data = inv_data.into();
        self.inv_built_for = self.len();
        self.order = OnceLock::new();
    }

    /// The built inverted index as its raw arrays `(inv_offsets,
    /// inv_data)`: node `v`'s posting list is
    /// `inv_data[inv_offsets[v]..inv_offsets[v + 1]]`, set ids strictly
    /// ascending within each list. `None` while the index is stale.
    ///
    /// This is what the `.timp` pool format persists, so a restored pool
    /// skips the counting-sort rebuild entirely.
    pub fn raw_inverted(&self) -> Option<(&[u64], &[u32])> {
        self.has_inverted_index()
            .then_some((&self.inv_offsets[..], &self.inv_data[..]))
    }

    /// Ids of the sets containing `v`, ascending.
    ///
    /// # Panics
    /// Panics if the inverted index has not been built
    /// ([`ensure_inverted_index`](Self::ensure_inverted_index)).
    #[inline]
    pub fn sets_containing(&self, v: NodeId) -> &[u32] {
        assert!(
            self.inv_built_for == self.len(),
            "inverted index is stale; call ensure_inverted_index first"
        );
        let v = v as usize;
        &self.inv_data[self.inv_offsets[v] as usize..self.inv_offsets[v + 1] as usize]
    }

    /// Number of sets containing `v` (its coverage count / hypergraph
    /// degree).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.sets_containing(v).len()
    }

    /// The nodes of positive degree by descending `(degree, id)`: the
    /// order in which greedy first counts its candidates, since a node's
    /// degree bounds its gain over any prefix of the sets. Derived from the
    /// index on first use and kept until the index is rebuilt or adopted;
    /// concurrent first readers of a shared collection fill it once.
    /// Like the index it is derived data, so
    /// [`memory_bytes`](Self::memory_bytes) leaves it out.
    ///
    /// # Panics
    /// Panics if the inverted index is stale.
    pub(crate) fn degree_order(&self) -> &[NodeId] {
        assert!(
            self.has_inverted_index(),
            "inverted index is stale; call ensure_inverted_index first"
        );
        self.order.get_or_init(|| {
            let degree = |v: usize| (self.inv_offsets[v + 1] - self.inv_offsets[v]) as usize;
            // Counting sort: `slot[d]` is where the next node of degree
            // `d` goes, buckets laid out from the largest degree down.
            // Filling each bucket from the largest id keeps ids
            // descending within it.
            let max = (0..self.n).map(degree).max().unwrap_or(0);
            let mut slot = vec![0usize; max + 1];
            for v in 0..self.n {
                slot[degree(v)] += 1;
            }
            let mut listed = 0;
            for d in (1..=max).rev() {
                (slot[d], listed) = (listed, listed + slot[d]);
            }
            let mut order = vec![0; listed];
            for v in (0..self.n).rev() {
                let d = degree(v);
                if d > 0 {
                    order[slot[d]] = v as NodeId;
                    slot[d] += 1;
                }
            }
            order
        })
    }

    /// `F_R(S)`: the fraction of stored sets covered by (intersecting) the
    /// node set `seeds`. Returns 0 when the collection is empty.
    ///
    /// By Corollary 1, `n · F_R(S)` is an unbiased estimator of `E[I(S)]`.
    pub fn coverage_fraction(&self, seeds: &[NodeId]) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.count_covered(seeds) as f64 / self.len() as f64
    }

    /// Number of stored sets intersecting `seeds`.
    ///
    /// With the inverted index built this walks only the seeds' posting
    /// lists — O(Σ|sets_containing(seed)|) with a reusable per-thread
    /// scratch bitmap, which is what keeps protocol `eval`/`marginal`
    /// lines cheap against big warm pools. Without the index it falls
    /// back to scanning every member (this method never mutates the
    /// collection, so it cannot build the index itself).
    pub fn count_covered(&self, seeds: &[NodeId]) -> usize {
        if self.has_inverted_index() {
            return count_covered_indexed(self, seeds);
        }
        for &s in seeds {
            assert!((s as usize) < self.n, "seed {s} out of universe");
        }
        let mut in_seed = vec![false; self.n];
        for &s in seeds {
            in_seed[s as usize] = true;
        }
        (0..self.len())
            .filter(|&i| self.set(i).iter().any(|&v| in_seed[v as usize]))
            .count()
    }
}

/// Counting-sort construction of the inverted index for an arena layout
/// (`data`/`offsets` as in [`SetCollection::raw_data`] /
/// [`SetCollection::raw_offsets`]): returns `(inv_offsets, inv_data)`
/// where node `v`'s posting list is
/// `inv_data[inv_offsets[v]..inv_offsets[v + 1]]`, with set ids strictly
/// ascending within each list (set ids are appended in increasing
/// order). Shared by [`SetCollection::ensure_inverted_index`] and the
/// `.timp` pool writer in `tim_engine`, which persists the arrays so a
/// restored pool never pays this build.
pub fn build_inverted_index(n: usize, data: &[NodeId], offsets: &[u64]) -> (Vec<u64>, Vec<u32>) {
    let mut counts = vec![0u64; n + 1];
    for &v in data {
        counts[v as usize + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let inv_offsets = counts.clone();
    let mut inv_data = vec![0u32; data.len()];
    let mut cursor = counts;
    for set_id in 0..offsets.len() - 1 {
        for &v in &data[offsets[set_id] as usize..offsets[set_id + 1] as usize] {
            inv_data[cursor[v as usize] as usize] = set_id as u32;
            cursor[v as usize] += 1;
        }
    }
    (inv_offsets, inv_data)
}

/// Number of sets in `collection` intersecting `seeds`, walking the
/// seeds' posting lists with a reusable per-thread scratch bitmap — the
/// index-backed counting path (see [`SetCollection::count_covered`] for
/// the cost model).
///
/// # Panics
/// Panics if the inverted index is not built or a seed falls outside the
/// universe.
pub fn count_covered_indexed(collection: &SetCollection, seeds: &[NodeId]) -> usize {
    assert!(
        collection.has_inverted_index(),
        "inverted index is stale; call ensure_inverted_index first"
    );
    let n = collection.universe();
    for &s in seeds {
        assert!((s as usize) < n, "seed {s} out of universe");
    }
    COVER_SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        if scratch.mark.len() < collection.len() {
            scratch.mark.resize(collection.len(), 0);
        }
        scratch.stamp = match scratch.stamp.checked_add(1) {
            Some(s) => s,
            None => {
                scratch.mark.fill(0);
                1
            }
        };
        let stamp = scratch.stamp;
        let mut count = 0usize;
        for &s in seeds {
            for &set_id in collection.sets_containing(s) {
                let mark = &mut scratch.mark[set_id as usize];
                if *mark != stamp {
                    *mark = stamp;
                    count += 1;
                }
            }
        }
        count
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SetCollection {
        let mut c = SetCollection::new(5);
        c.push(&[0, 1]);
        c.push(&[1, 2]);
        c.push(&[3]);
        c.push(&[1, 3, 4]);
        c
    }

    #[test]
    fn basic_accessors() {
        let c = sample();
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        assert_eq!(c.universe(), 5);
        assert_eq!(c.total_members(), 8);
        assert_eq!(c.set(0), &[0, 1]);
        assert_eq!(c.set(3), &[1, 3, 4]);
    }

    #[test]
    fn extend_from_copies_sets_as_push_does() {
        let c = sample();
        let mut pushed = SetCollection::new(5);
        pushed.push(&[4]);
        let mut extended = pushed.clone();
        for i in 1..3 {
            pushed.push(c.set(i));
        }
        extended.extend_from(&c, 1..3);
        extended.extend_from(&c, 4..4);
        assert_eq!(extended.raw_data(), pushed.raw_data());
        assert_eq!(extended.raw_offsets(), pushed.raw_offsets());
    }

    #[test]
    fn inverted_index_matches_membership() {
        let mut c = sample();
        c.ensure_inverted_index();
        assert_eq!(c.sets_containing(1), &[0, 1, 3]);
        assert_eq!(c.sets_containing(3), &[2, 3]);
        assert_eq!(c.sets_containing(0), &[0]);
        assert_eq!(c.degree(1), 3);
        assert_eq!(c.degree(4), 1);
    }

    #[test]
    fn index_rebuilds_after_push() {
        let mut c = sample();
        c.ensure_inverted_index();
        c.push(&[0, 4]);
        c.ensure_inverted_index();
        assert_eq!(c.sets_containing(0), &[0, 4]);
        assert_eq!(c.sets_containing(4), &[3, 4]);
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn stale_index_access_panics() {
        let mut c = sample();
        c.ensure_inverted_index();
        c.push(&[2]);
        let _ = c.sets_containing(2);
    }

    #[test]
    fn raw_inverted_exposes_the_built_index() {
        let mut c = sample();
        assert!(c.raw_inverted().is_none(), "index not built yet");
        c.ensure_inverted_index();
        let (inv_offsets, inv_data) = c.raw_inverted().unwrap();
        assert_eq!(inv_offsets.len(), c.universe() + 1);
        assert_eq!(inv_data.len(), c.total_members());
        for v in 0..c.universe() {
            assert_eq!(
                &inv_data[inv_offsets[v] as usize..inv_offsets[v + 1] as usize],
                c.sets_containing(v as NodeId),
            );
        }
        c.push(&[2]);
        assert!(c.raw_inverted().is_none(), "push invalidates the index");
    }

    #[test]
    fn build_inverted_index_matches_ensure() {
        let mut c = sample();
        let (inv_offsets, inv_data) =
            build_inverted_index(c.universe(), c.raw_data(), c.raw_offsets());
        c.ensure_inverted_index();
        assert_eq!(c.raw_inverted(), Some((&inv_offsets[..], &inv_data[..])));
        // Posting lists come out strictly ascending — the invariant the
        // mapped backing validates at open.
        for v in 0..c.universe() {
            let list = &inv_data[inv_offsets[v] as usize..inv_offsets[v + 1] as usize];
            assert!(list.windows(2).all(|w| w[0] < w[1]), "node {v}: {list:?}");
        }
    }

    #[test]
    fn coverage_fraction_counts_intersections() {
        let c = sample();
        assert_eq!(c.coverage_fraction(&[1]), 0.75);
        assert_eq!(c.coverage_fraction(&[3]), 0.5);
        assert_eq!(c.coverage_fraction(&[1, 3]), 1.0);
        assert_eq!(c.coverage_fraction(&[]), 0.0);
        assert_eq!(c.count_covered(&[0]), 1);
    }

    #[test]
    fn empty_collection_has_zero_coverage() {
        let c = SetCollection::new(3);
        assert!(c.is_empty());
        assert_eq!(c.coverage_fraction(&[0, 1, 2]), 0.0);
    }

    #[test]
    fn empty_sets_are_allowed() {
        let mut c = SetCollection::new(3);
        c.push(&[]);
        c.push(&[1]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.set(0), &[] as &[NodeId]);
        assert_eq!(c.coverage_fraction(&[1]), 0.5);
    }

    #[test]
    fn memory_bytes_grows_with_content() {
        let mut c = SetCollection::new(100);
        let before = c.memory_bytes();
        for i in 0..50u32 {
            c.push(&[i, i + 1, i + 2]);
        }
        assert!(c.memory_bytes() > before);
    }

    #[test]
    fn raw_parts_round_trip() {
        let c = sample();
        let rebuilt = SetCollection::from_raw_parts(
            c.universe(),
            c.raw_data().to_vec(),
            c.raw_offsets().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt.len(), c.len());
        for i in 0..c.len() {
            assert_eq!(rebuilt.set(i), c.set(i));
        }
    }

    #[test]
    fn from_raw_parts_rejects_malformed_layouts() {
        assert!(SetCollection::from_raw_parts(5, vec![0, 1], vec![1, 2]).is_err());
        assert!(SetCollection::from_raw_parts(5, vec![0, 1], vec![0, 1]).is_err());
        assert!(SetCollection::from_raw_parts(5, vec![0, 1], vec![0, 2, 1]).is_err());
        assert!(SetCollection::from_raw_parts(2, vec![0, 9], vec![0, 2]).is_err());
        assert!(SetCollection::from_raw_parts(5, vec![0, 1], vec![0, 1, 2]).is_ok());
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn coverage_with_bad_seed_panics() {
        let c = sample();
        c.coverage_fraction(&[10]);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn indexed_coverage_with_bad_seed_panics() {
        let mut c = sample();
        c.ensure_inverted_index();
        c.coverage_fraction(&[10]);
    }

    /// The degree order written from its definition: every node of
    /// positive degree, sorted by descending `(degree, id)`.
    fn degree_order_by_sorting(c: &SetCollection) -> Vec<NodeId> {
        let mut order: Vec<NodeId> = (0..c.universe() as NodeId)
            .filter(|&v| c.degree(v) > 0)
            .collect();
        order.sort_unstable_by_key(|&v| std::cmp::Reverse((c.degree(v), v)));
        order
    }

    #[test]
    fn degree_order_lists_positive_degrees_by_descending_degree_then_id() {
        let mut c = sample();
        c.ensure_inverted_index();
        // Degrees 1, 3, 1, 2, 1 for nodes 0..5.
        assert_eq!(c.degree_order(), &[1, 3, 4, 2, 0]);
        let mut wide = SetCollection::new(8);
        wide.push(&[7]);
        wide.ensure_inverted_index();
        assert_eq!(wide.degree_order(), &[7], "degree-0 nodes are not listed");

        use tim_rng::{RandomSource, Rng};
        let mut rng = Rng::seed_from_u64(0x0DE6);
        for _ in 0..30 {
            let n = 1 + rng.next_index(40);
            let mut c = SetCollection::new(n);
            for _ in 0..rng.next_index(120) {
                let mut m: Vec<NodeId> = (0..rng.next_index(6))
                    .map(|_| rng.next_index(n) as NodeId)
                    .collect();
                m.sort_unstable();
                m.dedup();
                c.push(&m);
            }
            c.ensure_inverted_index();
            assert_eq!(c.degree_order(), degree_order_by_sorting(&c));
        }
    }

    #[test]
    fn mapped_collection_has_the_heap_degree_order() {
        use tim_graph::container::{le_bytes, FileBytes};
        let mut c = sample();
        c.ensure_inverted_index();
        // The four arrays back to back in one mapped file, each 8-aligned.
        let (inv_offsets, inv_data) = c.raw_inverted().unwrap();
        let parts = [
            le_bytes(c.raw_offsets()),
            le_bytes(c.raw_data()),
            le_bytes(inv_offsets),
            le_bytes(inv_data),
        ];
        let mut bytes = Vec::new();
        let mut at = [0; 4];
        for (i, part) in parts.iter().enumerate() {
            bytes.resize(bytes.len().next_multiple_of(8), 0);
            at[i] = bytes.len();
            bytes.extend_from_slice(part);
        }
        let path = std::env::temp_dir().join(format!("tim_sets_order_{}", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let FileBytes::Mapped(map) = FileBytes::read(&path, true).unwrap() else {
            panic!("expected a mapping");
        };
        let m = SetCollection::from_raw_parts(
            c.universe(),
            Array::mapped(&map, at[1], c.total_members()).unwrap(),
            Array::mapped(&map, at[0], c.len() + 1).unwrap(),
        )
        .and_then(|m| {
            m.with_index(
                Array::mapped(&map, at[2], c.universe() + 1)?,
                Array::mapped(&map, at[3], c.total_members())?,
            )
        })
        .unwrap();
        assert!(m.mapping().is_some());
        assert_eq!(m.degree_order(), c.degree_order());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn degree_order_is_rebuilt_with_the_index() {
        use crate::greedy::greedy_max_cover_indexed;
        // Node 4 overtakes node 1 once the new sets are indexed.
        let grow: &[&[NodeId]] = &[&[4], &[2, 4], &[0, 4]];
        let mut fresh = sample();
        for s in grow {
            fresh.push(s);
        }
        fresh.ensure_inverted_index();
        let want = greedy_max_cover_indexed(&fresh, 2);
        assert_eq!(want.seeds, [4, 1]);

        // Rebuilt by ensure_inverted_index after a push...
        let mut c = sample();
        c.ensure_inverted_index();
        assert_eq!(greedy_max_cover_indexed(&c, 2).seeds, [1, 3]);
        let cached = c.clone();
        for s in grow {
            c.push(s);
        }
        c.ensure_inverted_index();
        assert_eq!(c.degree_order(), fresh.degree_order());
        assert_eq!(greedy_max_cover_indexed(&c, 2), want);

        // ...and by with_index adopting an index for the grown arena.
        let mut c = cached;
        for s in grow {
            c.push(s);
        }
        let (inv_offsets, inv_data) =
            build_inverted_index(c.universe(), c.raw_data(), c.raw_offsets());
        let c = c.with_index(inv_offsets, inv_data).unwrap();
        assert_eq!(c.degree_order(), fresh.degree_order());
        assert_eq!(greedy_max_cover_indexed(&c, 2), want);
    }

    /// Counts intersections the slow way, bypassing the index path — the
    /// oracle the index-backed fast path must agree with.
    fn count_covered_slow(c: &SetCollection, seeds: &[NodeId]) -> usize {
        (0..c.len())
            .filter(|&i| c.set(i).iter().any(|&v| seeds.contains(&v)))
            .count()
    }

    #[test]
    fn indexed_count_covered_matches_the_slow_path() {
        let mut c = sample();
        let seed_sets: &[&[NodeId]] = &[&[], &[0], &[1], &[1, 3], &[0, 1, 2, 3, 4], &[4, 2]];
        for &seeds in seed_sets {
            let slow = c.count_covered(seeds);
            assert_eq!(slow, count_covered_slow(&c, seeds), "oracle disagrees");
            c.ensure_inverted_index();
            assert_eq!(c.count_covered(seeds), slow, "seeds {seeds:?}");
            assert_eq!(
                c.coverage_fraction(seeds),
                slow as f64 / c.len() as f64,
                "seeds {seeds:?}"
            );
            // Drop back to the slow path for the next iteration.
            c.push(&[2]);
        }
    }

    #[test]
    fn indexed_count_covered_matches_on_random_instances() {
        use tim_rng::{RandomSource, Rng};
        let mut rng = Rng::seed_from_u64(0xC0FE);
        for _ in 0..30 {
            let n = 2 + rng.next_index(40);
            let mut c = SetCollection::new(n);
            for _ in 0..rng.next_index(80) {
                let size = rng.next_index(6);
                let mut m: Vec<NodeId> = (0..size).map(|_| rng.next_index(n) as u32).collect();
                m.sort_unstable();
                m.dedup();
                c.push(&m);
            }
            let mut seeds: Vec<NodeId> = (0..rng.next_index(n + 1))
                .map(|_| rng.next_index(n) as u32)
                .collect();
            seeds.sort_unstable();
            seeds.dedup();
            let slow = c.count_covered(&seeds);
            c.ensure_inverted_index();
            // Repeated calls exercise the scratch's stamp reuse.
            assert_eq!(c.count_covered(&seeds), slow);
            assert_eq!(c.count_covered(&seeds), slow);
        }
    }
}
