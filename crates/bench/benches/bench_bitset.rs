//! Criterion bench: the 4-wide unrolled `BitSet` kernels the covering
//! solver's dominance reductions and bound computations sit on.

use ccs_covering::bitset::BitSet;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Deterministic ~half-full bitset (xorshift64*), so every kernel sees
/// realistic mixed words rather than all-zeros fast paths.
fn filled(cap: usize, mut seed: u64) -> BitSet {
    let mut s = BitSet::new(cap);
    for i in 0..cap {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        if seed & 1 == 1 {
            s.insert(i);
        }
    }
    s
}

fn bench_bitset(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitset");
    for &cap in &[1024usize, 4096, 16384] {
        let a = filled(cap, 0x9e3779b97f4a7c15);
        let b = filled(cap, 0xd1b54a32d192ed03);
        let m = filled(cap, 0x2545f4914f6cdd1d);
        // A near-subset pair: `sub` is `a ∩ b`, so `is_subset` scans to
        // the end instead of bailing on the first word.
        let mut sub = a.clone();
        sub.intersect(&b);
        group.bench_with_input(BenchmarkId::new("count", cap), &a, |bch, a| {
            bch.iter(|| black_box(a).count())
        });
        group.bench_with_input(BenchmarkId::new("is_subset", cap), &sub, |bch, s| {
            bch.iter(|| black_box(s).is_subset(black_box(&a)))
        });
        group.bench_with_input(BenchmarkId::new("intersection_count", cap), &a, |bch, a| {
            bch.iter(|| black_box(a).intersection_count(black_box(&b)))
        });
        let mut out = BitSet::new(cap);
        group.bench_with_input(
            BenchmarkId::new("assign_intersection_3", cap),
            &a,
            |bch, a| {
                bch.iter(|| {
                    out.assign_intersection(&[black_box(a), black_box(&b), black_box(&m)]);
                    black_box(out.is_empty())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_bitset);
criterion_main!(benches);
