//! The bounded top-k heap against sort-then-truncate.
//!
//! For random `f64` keys and every capacity from 1 to one past the input
//! size, the heap keeps exactly the `k` smallest keys, drains them in
//! ascending order, and offers them with at most `1 + 2⌈log₂ k⌉`
//! comparisons each.

use ppann_linalg::TopK;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn top_k_equals_sort_then_truncate(keys in proptest::collection::vec(any::<f64>(), 0..80)) {
        let n = keys.len();
        // Ties break by id, so the expected order is unique.
        let key = |id: u32| (keys[id as usize], id);
        let mut sorted: Vec<u32> = (0..n as u32).collect();
        sorted.sort_by(|&a, &b| key(a).partial_cmp(&key(b)).unwrap());
        for k in 1..=n + 1 {
            let mut heap = TopK::new(k, |a: u32, b: u32| key(a) > key(b));
            for id in 0..n as u32 {
                heap.offer(id);
            }
            let bound = n as u64 * (1 + 2 * (k as f64).log2().ceil() as u64);
            prop_assert!(
                heap.comparisons() <= bound,
                "k={k}: {} comparisons exceed {bound}",
                heap.comparisons()
            );
            prop_assert_eq!(heap.into_sorted_ids(), sorted[..k.min(n)].to_vec(), "k={}", k);
        }
    }
}
