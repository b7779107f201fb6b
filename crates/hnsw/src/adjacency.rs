//! Graph adjacency: a fixed-stride arena for layer 0, per-node lists for
//! the sparse upper layers.
//!
//! A search spends nearly all its time on layer 0, and every node has a
//! layer-0 list, so layer 0 is one flat `Vec<u32>` of equal-width rows:
//!
//! ```text
//! row(id) = layer0[id·stride .. (id+1)·stride],   stride = m0 + 2
//!         = [len | slot 0 … slot m0−1 | spare]
//! ```
//!
//! Reaching a neighbour list is one multiply and one bounds-checked slice
//! whose length word sits on the same cache line as its first links, where
//! a per-node `Vec<Vec<u32>>` costs three dependent loads (node,
//! layer-list header, list) through three allocations. The spare
//! slot holds the one-link overflow an insert creates when it links a full
//! node back to the newcomer; `shrink_if_needed` trims it straight after
//! the push, so no row ever holds more than `m0 + 1` links.
//!
//! Only about `1/m` of nodes reach layer 1, so layers `1..=level` stay per
//! node in `upper[id][layer − 1]`, and a node's level is `upper[id].len()`.

/// Adjacency of every node on every layer it lives on.
#[derive(Debug)]
pub(crate) struct Adjacency {
    /// Words per layer-0 row: the length word, `m0` slots, one spare.
    stride: usize,
    layer0: Vec<u32>,
    upper: Vec<Vec<Vec<u32>>>,
}

impl Adjacency {
    /// Empty adjacency whose layer-0 rows hold up to `m0` links plus the
    /// spare, with room reserved for `nodes` rows; `None` if that arena's
    /// size overflows `usize`.
    pub(crate) fn with_capacity(m0: usize, nodes: usize) -> Option<Self> {
        let stride = m0.checked_add(2)?;
        let words = nodes.checked_mul(stride)?;
        words.checked_mul(std::mem::size_of::<u32>()).filter(|&b| b <= isize::MAX as usize)?;
        Some(Self { stride, layer0: Vec::with_capacity(words), upper: Vec::with_capacity(nodes) })
    }

    /// Appends a node with empty lists on layers `0..=level`; returns its id.
    pub(crate) fn add_node(&mut self, level: usize) -> u32 {
        let id = self.upper.len() as u32;
        self.layer0.resize(self.layer0.len() + self.stride, 0);
        self.upper.push(vec![Vec::new(); level]);
        id
    }

    /// The top layer node `id` lives on.
    #[inline]
    pub(crate) fn level(&self, id: u32) -> usize {
        self.upper[id as usize].len()
    }

    /// The whole layer-0 row of `id` — length word, slots and spare — the
    /// span a prefetch of the node's next expansion covers.
    #[inline]
    pub(crate) fn row(&self, id: u32) -> &[u32] {
        let start = id as usize * self.stride;
        &self.layer0[start..start + self.stride]
    }

    fn row_mut(&mut self, id: u32) -> &mut [u32] {
        let start = id as usize * self.stride;
        &mut self.layer0[start..start + self.stride]
    }

    /// The neighbour list of `id` on `layer`.
    #[inline]
    pub(crate) fn links_at(&self, id: u32, layer: usize) -> &[u32] {
        if layer == 0 {
            let row = self.row(id);
            &row[1..=row[0] as usize]
        } else {
            &self.upper[id as usize][layer - 1]
        }
    }

    /// Appends `nb` to the list of `id` on `layer`.
    ///
    /// # Panics
    /// Panics if the layer-0 row already holds `m0 + 1` links.
    pub(crate) fn push_link(&mut self, id: u32, layer: usize, nb: u32) {
        if layer == 0 {
            let row = self.row_mut(id);
            let len = row[0] as usize;
            assert!(len + 1 < row.len(), "layer-0 row of node {id} is full");
            row[len + 1] = nb;
            row[0] += 1;
        } else {
            self.upper[id as usize][layer - 1].push(nb);
        }
    }

    /// Replaces the list of `id` on `layer` with `links`, in order.
    ///
    /// # Panics
    /// Panics if `links` holds more than `m0 + 1` ids for layer 0.
    pub(crate) fn set_links(
        &mut self,
        id: u32,
        layer: usize,
        links: impl IntoIterator<Item = u32>,
    ) {
        if layer == 0 {
            let row = self.row_mut(id);
            let mut len = 0;
            for nb in links {
                len += 1;
                assert!(len < row.len(), "layer-0 row of node {id} is full");
                row[len] = nb;
            }
            row[0] = len as u32;
        } else {
            let list = &mut self.upper[id as usize][layer - 1];
            list.clear();
            list.extend(links);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_keep_order_through_push_and_set() {
        let mut adj = Adjacency::with_capacity(3, 2).unwrap();
        assert_eq!((adj.add_node(0), adj.add_node(2)), (0, 1));
        assert_eq!((adj.level(0), adj.level(1)), (0, 2));
        for nb in [1, 7, 1, 9] {
            adj.push_link(0, 0, nb);
        }
        assert_eq!(adj.links_at(0, 0), &[1, 7, 1, 9], "m0 links plus the spare");
        adj.set_links(0, 0, [4, 5]);
        assert_eq!(adj.links_at(0, 0), &[4, 5]);
        assert_eq!(adj.row(0), &[2, 4, 5, 1, 9], "stale slots past len are never read");
        assert!(adj.links_at(1, 0).is_empty());
        adj.push_link(1, 2, 0);
        adj.set_links(1, 1, [0]);
        assert_eq!((adj.links_at(1, 1), adj.links_at(1, 2)), (&[0][..], &[0][..]));
    }

    #[test]
    #[should_panic(expected = "is full")]
    fn a_row_refuses_a_link_past_the_spare() {
        let mut adj = Adjacency::with_capacity(2, 1).unwrap();
        adj.add_node(0);
        for nb in 0..4 {
            adj.push_link(0, 0, nb);
        }
    }

    #[test]
    fn an_arena_too_large_to_address_is_refused() {
        assert!(Adjacency::with_capacity(usize::MAX, 1).is_none());
        assert!(Adjacency::with_capacity(30, usize::MAX / 8).is_none());
    }
}
