//! Random permutations of vector coordinates.
//!
//! DCE uses two secret permutations (`π₁` over `R^d`, `π₂` over `R^{d+8}`) to
//! scatter coordinates before and after matrix encryption. A permutation is
//! stored as a "take-from" map: `apply(v)[i] = v[map[i]]`, which makes the
//! inner-product-preservation property trivial to reason about — applying the
//! *same* permutation to both operands of a dot product leaves it unchanged.

use rand::seq::SliceRandom;
use rand::Rng;

/// A permutation of `n` coordinates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    /// `apply(v)[i] = v[map[i]]`.
    map: Vec<u32>,
}

impl Permutation {
    /// The identity permutation on `n` elements.
    pub fn identity(n: usize) -> Self {
        Self { map: (0..n as u32).collect() }
    }

    /// A uniformly random permutation on `n` elements (Fisher–Yates).
    pub fn random(n: usize, rng: &mut impl Rng) -> Self {
        let mut map: Vec<u32> = (0..n as u32).collect();
        map.shuffle(rng);
        Self { map }
    }

    /// Constructs a permutation from an explicit take-from map.
    ///
    /// # Panics
    /// Panics if `map` is not a permutation of `0..map.len()`.
    pub fn from_map(map: Vec<u32>) -> Self {
        Self::try_from_map(map).expect("from_map: not a permutation")
    }

    /// [`Self::from_map`] for maps read from outside the process: `None`
    /// unless `map` is a permutation of `0..map.len()`.
    pub fn try_from_map(map: Vec<u32>) -> Option<Self> {
        let mut seen = vec![false; map.len()];
        for &m in &map {
            let slot = seen.get_mut(m as usize)?;
            if std::mem::replace(slot, true) {
                return None;
            }
        }
        Some(Self { map })
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The raw take-from map.
    pub fn map(&self) -> &[u32] {
        &self.map
    }

    /// Applies the permutation: `out[i] = v[map[i]]`.
    pub fn apply(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.map.len(), "apply: dimension mismatch");
        self.map.iter().map(|&j| v[j as usize]).collect()
    }

    /// The inverse permutation (`inverse().apply(apply(v)) == v`).
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0u32; self.map.len()];
        for (i, &j) in self.map.iter().enumerate() {
            inv[j as usize] = i as u32;
        }
        Permutation { map: inv }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use crate::vector::dot;

    #[test]
    fn identity_is_noop() {
        let p = Permutation::identity(4);
        assert_eq!(p.apply(&[1.0, 2.0, 3.0, 4.0]), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn inverse_roundtrip() {
        let mut rng = seeded_rng(1);
        let p = Permutation::random(17, &mut rng);
        let v: Vec<f64> = (0..17).map(|i| i as f64).collect();
        assert_eq!(p.inverse().apply(&p.apply(&v)), v);
        assert_eq!(p.apply(&p.inverse().apply(&v)), v);
    }

    #[test]
    fn same_permutation_preserves_inner_product() {
        let mut rng = seeded_rng(2);
        let p = Permutation::random(32, &mut rng);
        let a: Vec<f64> = (0..32).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..32).map(|i| (i as f64).cos()).collect();
        let lhs = dot(&p.apply(&a), &p.apply(&b));
        assert!((lhs - dot(&a, &b)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn from_map_rejects_duplicates() {
        Permutation::from_map(vec![0, 0, 1]);
    }
}
