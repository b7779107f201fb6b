//! The bounded top-k heap of every refine phase in the stack.
//!
//! A max-heap over candidate ids that retains the `k` best candidates,
//! with the *worst* retained one on top. The heap never sees a key: every
//! ordering decision is one call to a caller-supplied [`Ranking`], so the
//! same heap serves the scheme's secure refine (paper Algorithm 2, one DCE
//! `DistanceComp` per decision) and the baselines' AME or plaintext
//! comparisons. Each offer costs at most `1 + 2⌈log₂ k⌉` comparisons.

/// The order a [`TopK`] keeps. Closures `FnMut(u32, u32) -> bool`
/// implement it; a named type lets a wrapper store its heap without boxing
/// the comparator.
pub trait Ranking {
    /// `true` iff candidate `a` ranks strictly worse (is farther from the
    /// query) than candidate `b`.
    fn farther(&mut self, a: u32, b: u32) -> bool;
}

impl<F: FnMut(u32, u32) -> bool> Ranking for F {
    #[inline]
    fn farther(&mut self, a: u32, b: u32) -> bool {
        self(a, b)
    }
}

/// A bounded max-heap of ids ordered by a [`Ranking`], counting the
/// comparisons it makes.
pub struct TopK<R> {
    ranking: R,
    capacity: usize,
    heap: Vec<u32>,
    comparisons: u64,
}

impl<R: Ranking> TopK<R> {
    /// An empty heap retaining at most `capacity` (`k`) ids.
    ///
    /// # Panics
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize, ranking: R) -> Self {
        Self::with_storage(capacity, ranking, Vec::with_capacity(capacity + 1))
    }

    /// [`Self::new`] reusing recycled storage (cleared here): a warm caller
    /// hands the same `Vec` through [`Self::into_sorted_parts`] query after
    /// query, so the heap itself never re-allocates.
    pub fn with_storage(capacity: usize, ranking: R, mut storage: Vec<u32>) -> Self {
        assert!(capacity > 0, "a top-k heap requires capacity ≥ 1");
        storage.clear();
        Self { ranking, capacity, heap: storage, comparisons: 0 }
    }

    /// Number of retained candidates.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// True once `capacity` candidates are retained: from then on every
    /// offer must beat [`Self::top`].
    pub fn is_full(&self) -> bool {
        self.heap.len() == self.capacity
    }

    /// The worst retained candidate.
    pub fn top(&self) -> Option<u32> {
        self.heap.first().copied()
    }

    /// The ranking the heap orders by.
    pub fn ranking(&self) -> &R {
        &self.ranking
    }

    /// Comparisons performed so far, including those added through
    /// [`Self::record_comparisons`].
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Counts `n` comparisons a caller made on the heap's behalf (a batched
    /// screen against [`Self::top`]).
    pub fn record_comparisons(&mut self, n: u64) {
        self.comparisons += n;
    }

    #[inline]
    fn farther(&mut self, a: u32, b: u32) -> bool {
        self.comparisons += 1;
        self.ranking.farther(a, b)
    }

    /// Offers a candidate: inserted outright while the heap is under
    /// capacity; otherwise it replaces the current top iff the top ranks
    /// worse.
    pub fn offer(&mut self, id: u32) {
        if self.heap.len() < self.capacity {
            self.heap.push(id);
            self.sift_up(self.heap.len() - 1);
        } else if self.farther(self.heap[0], id) {
            self.heap[0] = id;
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !self.farther(self.heap[i], self.heap[parent]) {
                return;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < self.heap.len() && self.farther(self.heap[l], self.heap[largest]) {
                largest = l;
            }
            if r < self.heap.len() && self.farther(self.heap[r], self.heap[largest]) {
                largest = r;
            }
            if largest == i {
                return;
            }
            self.heap.swap(i, largest);
            i = largest;
        }
    }

    /// Drains the heap into ids ordered best first (`k·log k` further
    /// comparisons).
    pub fn into_sorted_ids(self) -> Vec<u32> {
        self.into_sorted_parts().0
    }

    /// [`Self::into_sorted_ids`] that also returns the (now empty) heap
    /// storage for recycling into the next [`Self::with_storage`].
    pub fn into_sorted_parts(mut self) -> (Vec<u32>, Vec<u32>) {
        let mut out = Vec::with_capacity(self.heap.len());
        while !self.heap.is_empty() {
            let last = self.heap.len() - 1;
            self.heap.swap(0, last);
            out.push(self.heap.pop().expect("nonempty"));
            if !self.heap.is_empty() {
                self.sift_down(0);
            }
        }
        out.reverse();
        (out, self.heap)
    }
}
