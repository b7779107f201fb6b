//! Generation-stamped visited table.
//!
//! Best-first graph search marks thousands of nodes per query; clearing a
//! bitmap each time would cost O(n). A stamp table instead bumps a generation
//! counter per search and compares stamps, making `reset` O(1).

#[derive(Clone, Debug, Default)]
pub(crate) struct VisitedTable {
    stamp: u32,
    marks: Vec<u32>,
}

impl VisitedTable {
    /// Prepares the table for a new search over `n` nodes.
    pub fn reset(&mut self, n: usize) {
        if self.marks.len() < n {
            self.marks.resize(n, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Stamp wrapped: clear everything once every 2³² searches.
            self.marks.fill(0);
            self.stamp = 1;
        }
    }

    /// Marks `id`; returns `true` if it was not yet visited this generation.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        let slot = &mut self.marks[id as usize];
        if *slot == self.stamp {
            false
        } else {
            *slot = self.stamp;
            true
        }
    }

    /// Resident heap bytes held by the mark array.
    pub fn resident_bytes(&self) -> usize {
        self.marks.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_generation_forgets_marks() {
        let mut t = VisitedTable::default();
        t.reset(4);
        assert!(t.insert(2));
        assert!(!t.insert(2));
        t.reset(4);
        assert!(t.insert(2));
    }

    #[test]
    fn grows_on_demand() {
        let mut t = VisitedTable::default();
        t.reset(2);
        t.reset(10);
        assert!(t.insert(9));
    }
}
