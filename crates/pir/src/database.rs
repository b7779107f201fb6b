//! The replicated block database both PIR servers hold.

/// A database of `n` fixed-size blocks, replicated verbatim on both servers.
#[derive(Clone, Debug)]
pub struct PirDatabase {
    block_size: usize,
    blocks: Vec<u8>,
}

impl PirDatabase {
    /// Builds a database from equally-padded blocks.
    ///
    /// Every block is padded (with zeros) to `block_size`; blocks larger than
    /// `block_size` are rejected.
    pub fn from_blocks(block_size: usize, items: &[Vec<u8>]) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let mut blocks = vec![0u8; block_size * items.len()];
        for (i, item) in items.iter().enumerate() {
            assert!(
                item.len() <= block_size,
                "block {i} has {} bytes, exceeds block size {block_size}",
                item.len()
            );
            blocks[i * block_size..i * block_size + item.len()].copy_from_slice(item);
        }
        Self { block_size, blocks }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len() / self.block_size
    }

    /// True when the database holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Direct (non-private) block access — used by tests and by the client
    /// after decoding to compare.
    pub fn block(&self, i: usize) -> &[u8] {
        &self.blocks[i * self.block_size..(i + 1) * self.block_size]
    }

    /// XOR of all blocks whose bit is set in `mask`, plus the number of
    /// blocks touched (the server-side work of one answer).
    pub(crate) fn xor_selected(&self, mask: &[u64]) -> (Vec<u8>, u64) {
        let mut acc = vec![0u8; self.block_size];
        let mut touched = 0u64;
        for i in 0..self.len() {
            if mask[i / 64] >> (i % 64) & 1 == 1 {
                touched += 1;
                let b = self.block(i);
                for (a, x) in acc.iter_mut().zip(b) {
                    *a ^= x;
                }
            }
        }
        (acc, touched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_and_access() {
        let db = PirDatabase::from_blocks(4, &[vec![1, 2], vec![3, 4, 5, 6]]);
        assert_eq!(db.len(), 2);
        assert_eq!(db.block(0), &[1, 2, 0, 0]);
        assert_eq!(db.block(1), &[3, 4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "exceeds block size")]
    fn oversized_block_rejected() {
        PirDatabase::from_blocks(2, &[vec![1, 2, 3]]);
    }

    #[test]
    fn xor_selected_counts_work() {
        let db = PirDatabase::from_blocks(1, &[vec![1], vec![2], vec![4], vec![8]]);
        let mask = vec![0b1011u64];
        let (acc, touched) = db.xor_selected(&mask);
        assert_eq!(acc, vec![1 ^ 2 ^ 8]);
        assert_eq!(touched, 3);
    }
}
