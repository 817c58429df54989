//! A small fixed-capacity bitset used to represent row sets.

use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Fixed-capacity bitset over `0..len`.
///
/// Row sets in the covering matrix are dense and small (one bit per
/// constraint arc), so flat words beat hash sets by a wide margin in the
/// branch-and-bound inner loop. Sets of up to 128 elements keep their
/// words inline, so building, cloning and dropping one never touches
/// the heap.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Words,
    len: usize,
}

/// Words kept inline up to this many.
const INLINE_WORDS: usize = 2;

/// A bitset's backing words: inline for small sets, else on the heap.
/// Either way it reads as the slice of exactly the words in use.
#[derive(Clone)]
enum Words {
    Inline(u8, [u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

impl Words {
    fn zeroed(n: usize) -> Words {
        if n <= INLINE_WORDS {
            Words::Inline(n as u8, [0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0; n])
        }
    }
}

impl Deref for Words {
    type Target = [u64];

    #[inline(always)]
    fn deref(&self) -> &[u64] {
        match self {
            Words::Inline(n, w) => &w[..usize::from(*n)],
            Words::Heap(w) => w,
        }
    }
}

impl DerefMut for Words {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            Words::Inline(n, w) => &mut w[..usize::from(*n)],
            Words::Heap(w) => w,
        }
    }
}

impl PartialEq for Words {
    fn eq(&self, other: &Words) -> bool {
        **self == **other
    }
}

impl Eq for Words {}

impl Hash for Words {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl std::fmt::Debug for Words {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl BitSet {
    /// Creates an empty set with capacity for `len` elements.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: Words::zeroed(len.div_ceil(64)),
            len,
        }
    }

    /// Creates a set containing all of `0..len`.
    pub fn full(len: usize) -> Self {
        let mut s = BitSet::new(len);
        for i in 0..len {
            s.insert(i);
        }
        s
    }

    /// Capacity (the universe size, not the population count).
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Inserts `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of elements in the set.
    ///
    /// Four-wide unrolled popcount: independent accumulators let the
    /// CPU retire several `popcnt`s per cycle instead of serializing on
    /// one running sum, and the compiler auto-vectorizes the chunked
    /// loop where the target has SIMD popcount.
    pub fn count(&self) -> usize {
        let mut chunks = self.words.chunks_exact(4);
        let (mut c0, mut c1, mut c2, mut c3) = (0u32, 0u32, 0u32, 0u32);
        for w in chunks.by_ref() {
            c0 += w[0].count_ones();
            c1 += w[1].count_ones();
            c2 += w[2].count_ones();
            c3 += w[3].count_ones();
        }
        let tail: u32 = chunks.remainder().iter().map(|w| w.count_ones()).sum();
        (c0 + c1 + c2 + c3 + tail) as usize
    }

    /// `true` when no element is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self ∩ other` is non-empty.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// `self ⊆ other`.
    ///
    /// Four-wide unrolled ANDN: violations from four words are OR-folded
    /// into one lane before the (rarely taken) early-exit branch, so the
    /// common all-zero case runs branch-free through each chunk.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        let n = self.words.len().min(other.words.len());
        let (a, b) = (&self.words[..n], &other.words[..n]);
        let mut ca = a.chunks_exact(4);
        let mut cb = b.chunks_exact(4);
        for (wa, wb) in ca.by_ref().zip(cb.by_ref()) {
            let v = (wa[0] & !wb[0]) | (wa[1] & !wb[1]) | (wa[2] & !wb[2]) | (wa[3] & !wb[3]);
            if v != 0 {
                return false;
            }
        }
        ca.remainder()
            .iter()
            .zip(cb.remainder())
            .all(|(x, y)| x & !y == 0)
    }

    /// In-place `self ∖ other`.
    pub fn subtract(&mut self, other: &BitSet) {
        let n = self.words.len().min(other.words.len());
        let (a, b) = (&mut self.words[..n], &other.words[..n]);
        let mut ca = a.chunks_exact_mut(4);
        let mut cb = b.chunks_exact(4);
        for (wa, wb) in ca.by_ref().zip(cb.by_ref()) {
            wa[0] &= !wb[0];
            wa[1] &= !wb[1];
            wa[2] &= !wb[2];
            wa[3] &= !wb[3];
        }
        for (x, y) in ca.into_remainder().iter_mut().zip(cb.remainder()) {
            *x &= !y;
        }
    }

    /// In-place `self ∩ other`.
    pub fn intersect(&mut self, other: &BitSet) {
        let n = self.words.len().min(other.words.len());
        let (a, b) = (&mut self.words[..n], &other.words[..n]);
        let mut ca = a.chunks_exact_mut(4);
        let mut cb = b.chunks_exact(4);
        for (wa, wb) in ca.by_ref().zip(cb.by_ref()) {
            wa[0] &= wb[0];
            wa[1] &= wb[1];
            wa[2] &= wb[2];
            wa[3] &= wb[3];
        }
        for (x, y) in ca.into_remainder().iter_mut().zip(cb.remainder()) {
            *x &= y;
        }
    }

    /// Overwrites `self` with the intersection of `sets` — the fused
    /// multi-way AND of clique extension, replacing a `copy_from` plus
    /// one `intersect` pass per member with a single sweep over the
    /// words.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is empty or any capacity differs from `self`'s.
    pub fn assign_intersection(&mut self, sets: &[&BitSet]) {
        assert!(!sets.is_empty(), "assign_intersection needs >= 1 set");
        for s in sets {
            assert_eq!(
                self.len, s.len,
                "assign_intersection requires equal capacity"
            );
        }
        let out = &mut *self.words;
        match sets {
            [a, b] => {
                for ((w, x), y) in out.iter_mut().zip(a.words.iter()).zip(b.words.iter()) {
                    *w = x & y;
                }
            }
            _ => {
                out.copy_from_slice(&sets[0].words);
                for s in &sets[1..] {
                    for (w, x) in out.iter_mut().zip(s.words.iter()) {
                        *w &= x;
                    }
                }
            }
        }
    }

    /// Overwrites `self` with `other`, reusing the word buffer (no
    /// allocation when capacities match — the point of keeping one
    /// scratch set across a hot loop).
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    #[inline]
    pub fn copy_from(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "copy_from requires equal capacity");
        self.words.copy_from_slice(&other.words);
    }

    /// Removes every element `< limit`, keeping `limit..` intact — the
    /// "indices greater than the clique's last member" mask of ordered
    /// clique extension.
    #[inline]
    pub fn clear_below(&mut self, limit: usize) {
        let word = limit / 64;
        let full = word.min(self.words.len());
        for w in &mut self.words[..full] {
            *w = 0;
        }
        if word < self.words.len() {
            self.words[word] &= !0u64 << (limit % 64);
        }
    }

    /// In-place `self ∪ other`.
    pub fn union(&mut self, other: &BitSet) {
        let n = self.words.len().min(other.words.len());
        let (a, b) = (&mut self.words[..n], &other.words[..n]);
        let mut ca = a.chunks_exact_mut(4);
        let mut cb = b.chunks_exact(4);
        for (wa, wb) in ca.by_ref().zip(cb.by_ref()) {
            wa[0] |= wb[0];
            wa[1] |= wb[1];
            wa[2] |= wb[2];
            wa[3] |= wb[3];
        }
        for (x, y) in ca.into_remainder().iter_mut().zip(cb.remainder()) {
            *x |= y;
        }
    }

    /// Number of elements of `self ∩ other` — fused AND + popcount, no
    /// intermediate set.
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        let n = self.words.len().min(other.words.len());
        let (a, b) = (&self.words[..n], &other.words[..n]);
        let mut ca = a.chunks_exact(4);
        let mut cb = b.chunks_exact(4);
        let (mut c0, mut c1, mut c2, mut c3) = (0u32, 0u32, 0u32, 0u32);
        for (wa, wb) in ca.by_ref().zip(cb.by_ref()) {
            c0 += (wa[0] & wb[0]).count_ones();
            c1 += (wa[1] & wb[1]).count_ones();
            c2 += (wa[2] & wb[2]).count_ones();
            c3 += (wa[3] & wb[3]).count_ones();
        }
        let tail: u32 = ca
            .remainder()
            .iter()
            .zip(cb.remainder())
            .map(|(x, y)| (x & y).count_ones())
            .sum();
        (c0 + c1 + c2 + c3 + tail) as usize
    }

    /// Removes every element, keeping the capacity and word buffer.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The backing words, least-significant element first.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates over members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, &w)| word_members(wi, w))
    }

    /// Iterates over the members of `self ∩ other` in increasing order,
    /// one word AND at a time — no membership test per element.
    pub fn iter_and<'a>(&'a self, other: &'a BitSet) -> impl Iterator<Item = usize> + 'a {
        self.words
            .iter()
            .zip(other.words.iter())
            .enumerate()
            .flat_map(|(wi, (&a, &b))| word_members(wi, a & b))
    }
}

/// The members encoded by word `wi` of a set, ascending.
fn word_members(wi: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if bits == 0 {
            None
        } else {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(wi * 64 + b)
        }
    })
}

impl FromIterator<usize> for BitSet {
    /// Builds a set sized to fit the largest element (`max + 1`).
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 3);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(1000));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        BitSet::new(8).insert(8);
    }

    #[test]
    fn full_and_iter() {
        let s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v.len(), 70);
        assert_eq!(v[0], 0);
        assert_eq!(v[69], 69);
    }

    #[test]
    fn set_algebra() {
        let a: BitSet = [1usize, 2, 3, 64].into_iter().collect();
        let mut b = BitSet::new(a.capacity());
        b.insert(2);
        b.insert(64);
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(a.intersects(&b));
        assert_eq!(a.intersection_count(&b), 2);

        let mut c = a.clone();
        c.subtract(&b);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![1, 3]);

        let mut d = a.clone();
        d.intersect(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![2, 64]);

        let mut e = b.clone();
        e.union(&a);
        assert_eq!(e.count(), 4);
    }

    #[test]
    fn copy_from_reuses_buffer() {
        let a: BitSet = [1usize, 65, 100].into_iter().collect();
        let mut b = BitSet::new(a.capacity());
        b.insert(7);
        b.copy_from(&a);
        assert_eq!(b, a);
        // The old contents are fully overwritten, not merged.
        assert!(!b.contains(7));
    }

    #[test]
    #[should_panic(expected = "equal capacity")]
    fn copy_from_capacity_mismatch_panics() {
        let a = BitSet::new(10);
        let mut b = BitSet::new(11);
        b.copy_from(&a);
    }

    #[test]
    fn clear_below_keeps_upper_bits() {
        let mut s: BitSet = [0usize, 5, 63, 64, 65, 127, 128].into_iter().collect();
        s.clear_below(64);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![64, 65, 127, 128]);
        s.clear_below(65);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![65, 127, 128]);
        s.clear_below(0); // no-op
        assert_eq!(s.count(), 3);
        s.clear_below(s.capacity()); // clears everything
        assert!(s.is_empty());
        // A limit past the capacity is also "clear everything".
        let mut t: BitSet = [3usize].into_iter().collect();
        t.clear_below(1000);
        assert!(t.is_empty());
    }

    #[test]
    fn clear_empties_and_keeps_capacity() {
        let mut s: BitSet = [0usize, 63, 64, 129].into_iter().collect();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 130);
        s.insert(129);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn assign_intersection_matches_sequential() {
        let a: BitSet = [1usize, 2, 3, 64, 65, 200].into_iter().collect();
        let mut b = BitSet::new(a.capacity());
        let mut c = BitSet::new(a.capacity());
        for i in [2usize, 3, 64, 200] {
            b.insert(i);
        }
        for i in [3usize, 64, 65, 200] {
            c.insert(i);
        }
        let mut out = BitSet::new(a.capacity());
        out.insert(7); // stale contents must be overwritten
        out.assign_intersection(&[&a, &b, &c]);
        let mut want = a.clone();
        want.intersect(&b);
        want.intersect(&c);
        assert_eq!(out, want);
        out.assign_intersection(&[&a]);
        assert_eq!(out, a);
    }

    #[test]
    #[should_panic(expected = "equal capacity")]
    fn assign_intersection_capacity_mismatch_panics() {
        let a = BitSet::new(10);
        let b = BitSet::new(11);
        BitSet::new(10).assign_intersection(&[&a, &b]);
    }

    /// Scalar one-word-at-a-time references for the unrolled kernels.
    mod scalar {
        use super::BitSet;

        pub fn count(a: &BitSet) -> usize {
            a.iter().count()
        }
        pub fn is_subset(a: &BitSet, b: &BitSet) -> bool {
            a.iter().all(|i| b.contains(i))
        }
        pub fn intersection_count(a: &BitSet, b: &BitSet) -> usize {
            a.iter().filter(|&i| b.contains(i)).count()
        }
    }

    proptest::proptest! {
        /// Widened kernels agree with the scalar reference word-for-word
        /// on random sets, including capacities that exercise partial
        /// tail words and sub-4-word remainders (1..=300 spans 1..5
        /// words, hitting both the unrolled body and every remainder
        /// length).
        #[test]
        fn widened_kernels_match_scalar_reference(
            cap in 1usize..=300,
            bits_a in proptest::collection::vec(0usize..2, 300),
            bits_b in proptest::collection::vec(0usize..2, 300),
            bits_m in proptest::collection::vec(0usize..2, 300),
        ) {
            let build = |bits: &[usize]| {
                let mut s = BitSet::new(cap);
                for (i, &on) in bits.iter().take(cap).enumerate() {
                    if on == 1 {
                        s.insert(i);
                    }
                }
                s
            };
            let a = build(&bits_a);
            let b = build(&bits_b);
            let m = build(&bits_m);

            proptest::prop_assert_eq!(a.count(), scalar::count(&a));
            proptest::prop_assert_eq!(a.is_subset(&b), scalar::is_subset(&a, &b));
            proptest::prop_assert_eq!(
                a.intersection_count(&b),
                scalar::intersection_count(&a, &b)
            );

            let mut and = a.clone();
            and.intersect(&b);
            let want_and: Vec<usize> = a.iter().filter(|&i| b.contains(i)).collect();
            proptest::prop_assert_eq!(and.iter().collect::<Vec<_>>(), want_and);

            let mut sub = a.clone();
            sub.subtract(&b);
            let want_sub: Vec<usize> = a.iter().filter(|&i| !b.contains(i)).collect();
            proptest::prop_assert_eq!(sub.iter().collect::<Vec<_>>(), want_sub);

            let mut or = a.clone();
            or.union(&b);
            let mut want_or: Vec<usize> = a.iter().chain(b.iter()).collect();
            want_or.sort_unstable();
            want_or.dedup();
            proptest::prop_assert_eq!(or.iter().collect::<Vec<_>>(), want_or);

            let mut multi = BitSet::new(cap);
            multi.assign_intersection(&[&a, &b, &m]);
            let mut want_multi = a.clone();
            want_multi.intersect(&b);
            want_multi.intersect(&m);
            proptest::prop_assert_eq!(multi, want_multi);
        }
    }

    #[test]
    fn from_iter_sizes_to_max() {
        let s: BitSet = [5usize].into_iter().collect();
        assert_eq!(s.capacity(), 6);
        assert!(s.contains(5));
        let empty: BitSet = std::iter::empty::<usize>().collect();
        assert_eq!(empty.capacity(), 0);
        assert!(empty.is_empty());
    }
}
