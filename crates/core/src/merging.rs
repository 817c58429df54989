//! Merge-candidate enumeration with the paper's pruning results
//! (Lemmas 3.1/3.2, Theorems 3.1/3.2; the algorithm of Fig. 2).
//!
//! A *k-way merging* implements k constraint arcs with a shared common
//! path. Enumerating all `2^|A|` subsets is hopeless, so the paper prunes
//! with sufficient conditions that a subset can **not** be profitably
//! merged:
//!
//! * **Lemma 3.1** — a pair `{a, a′}` with
//!   `Γ(a, a′) ≤ Δ(a, a′)` (no positive *slack*) is not 2-way mergeable;
//! * **Lemma 3.2** — a k-subset whose slacks against a pivot arc sum to
//!   `≤ 0` is not k-way mergeable;
//! * **Theorem 3.1** — an arc in no surviving k-subset can be dropped
//!   from all larger subsets (the "column removal" of Fig. 2);
//! * **Theorem 3.2** — a subset whose total bandwidth exceeds
//!   `max_l b(l) + min_j b(aⱼ)` cannot share any library link as its
//!   common path.
//!
//! ### Faithfulness note (pivot choice)
//!
//! Lemma 3.2 singles out one arc `a_k`. Applied with *every* member as
//! pivot the WAN example yields 13/18/16/6 candidates per k; the paper
//! reports **13/21/16/5**. The k = 2..4 counts reproduce exactly when the
//! lemma is applied once per subset with the **highest-index arc** as
//! pivot — the natural reading of Fig. 2's incremental loop — so that is
//! the default ([`MergePruneRule::LastArcPivot`]); the stricter
//! [`MergePruneRule::AnyPivot`] is available as a config option. Both are
//! sound (each application is a sufficient non-mergeability condition).
//!
//! ### Parallelism & determinism
//!
//! Each level's extension and prune sweeps are chunked over a
//! [`ccs_exec::Executor`] (see [`enumerate_with`]). Determinism is by
//! construction: chunks are contiguous index ranges emitted back in
//! input order (slot-addressed), per-worker [`LevelStats`] partials are
//! [merged](LevelStats::merge) so every counter equals the serial count
//! exactly, and each level's survivors are generated in canonical
//! lexicographic order before the Theorem 3.1 closure runs.
//! `enumerate_with` therefore returns **bit-identical** results for
//! every thread count; [`enumerate`] is the serial special case.
//!
//! ### The bitset kernel
//!
//! The hot loops run on flat buffers (see [`crate::bits`]): the level-2
//! sweep derives each chunk's pairs arithmetically from the triangular
//! index instead of materializing a pair list; the surviving-pair graph
//! is stored as word-packed [`NeighborMasks`] rows so clique extension
//! is an AND of the members' rows iterated with `trailing_zeros`; and
//! each level's subsets live in one flat `Vec<u32>` (k entries per
//! subset) rather than a `Vec<Vec<usize>>` of per-subset allocations.
//! The public [`MergeEnumeration`] shape is unchanged — survivors are
//! unflattened once per level on the way out.

use crate::bits::{pair_at, pair_count, NeighborMasks};
use crate::constraint::ConstraintGraph;
use crate::library::Library;
use crate::matrices::DistanceMatrices;
use crate::units::Bandwidth;
use ccs_covering::bitset::BitSet;
use ccs_exec::{chunk_ranges, ExecStats, Executor};
use ccs_obs::ledger::{self, Cause, DecisionEvent};

/// Which pivots Lemma 3.2 is evaluated with (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergePruneRule {
    /// One application per subset, pivot = highest-index arc (paper-count
    /// faithful; default).
    #[default]
    LastArcPivot,
    /// Prune when *any* member as pivot satisfies the lemma (strictly
    /// stronger pruning).
    AnyPivot,
}

/// How candidate subsets are enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnumerationStrategy {
    /// Pick [`Exhaustive`](Self::Exhaustive) for `|A| ≤ 14`, otherwise
    /// [`PairwiseCliques`](Self::PairwiseCliques).
    #[default]
    Auto,
    /// Test every k-subset of the active arcs (paper-faithful; the WAN
    /// candidate counts are produced under this strategy).
    Exhaustive,
    /// Only grow subsets that are cliques in the surviving-pair graph —
    /// a scalable restriction (merging arcs that are pairwise
    /// non-mergeable is never profitable in practice).
    PairwiseCliques,
}

/// Configuration for merge-candidate enumeration.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeConfig {
    /// Pivot rule for Lemma 3.2.
    pub prune_rule: MergePruneRule,
    /// Subset enumeration strategy.
    pub strategy: EnumerationStrategy,
    /// Largest merging order considered (`None` = up to `|A|`).
    pub max_k: Option<usize>,
    /// Apply the Lemma 3.1/3.2 geometric prunes (disable only for
    /// ablation studies — every subset then survives to the costing
    /// stage).
    pub geometry_prune: bool,
    /// Apply the Theorem 3.2 bandwidth prune.
    pub bandwidth_prune: bool,
    /// Hard cap on the number of subsets *examined* per level; exceeding
    /// it stops enumeration and is recorded in
    /// [`MergeStats::truncated_at_k`] (never silent).
    pub max_subsets_per_level: usize,
    /// Gate hub-placement solves with a cheap geometric cost lower
    /// bound ([`crate::placement::merge_cost_lower_bound`]): a subset
    /// whose bound already meets the dominance threshold (the sum of
    /// its members' point-to-point costs) is dropped without running
    /// the Weber/two-hub iteration. Sound — the gated candidates are
    /// exactly ones the dominance filter would discard after the solve
    /// (Def. 2.5) — so results are identical; only
    /// `placement.solves_skipped` accounting changes. The same switch
    /// lets the placement kernel stop a solve once it certifies the
    /// threshold ([`crate::placement::price_merge`]). Disable via
    /// `--no-lb-gate` to measure both or to debug them.
    pub lb_gate: bool,
}

impl Default for MergeConfig {
    fn default() -> Self {
        MergeConfig {
            prune_rule: MergePruneRule::default(),
            strategy: EnumerationStrategy::default(),
            max_k: None,
            geometry_prune: true,
            bandwidth_prune: true,
            max_subsets_per_level: 2_000_000,
            lb_gate: true,
        }
    }
}

/// Enumeration output: surviving subsets per merge order, plus statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeEnumeration {
    /// `subsets[i]` holds the surviving subsets of order `k = i + 2`,
    /// each a sorted vector of arc indices.
    pub subsets_by_k: Vec<Vec<Vec<usize>>>,
    /// Statistics of the run.
    pub stats: MergeStats,
}

/// Per-level (per merge order k) enumeration statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LevelStats {
    /// The merge order this level enumerated.
    pub k: usize,
    /// Subsets generated and tested at this level.
    pub examined: u64,
    /// Subsets killed by Lemma 3.1 (k = 2) / Lemma 3.2 (k ≥ 3).
    pub geometry_pruned: u64,
    /// Subsets killed by the Theorem 3.2 bandwidth condition.
    pub bandwidth_pruned: u64,
    /// Subsets that survived to the costing stage.
    pub survivors: u64,
    /// Arcs removed by the Theorem 3.1 monotone closure after this
    /// level.
    pub deactivated: u64,
}

impl LevelStats {
    /// Accumulates a per-worker partial into `self` (same level `k`).
    ///
    /// Every counter is a plain sum, so merging worker partials in any
    /// order reproduces the serial totals exactly.
    ///
    /// # Panics
    ///
    /// Panics if the two partials describe different levels.
    pub fn merge(&mut self, other: &LevelStats) {
        assert_eq!(self.k, other.k, "merging LevelStats of different levels");
        self.examined += other.examined;
        self.geometry_pruned += other.geometry_pruned;
        self.bandwidth_pruned += other.bandwidth_pruned;
        self.survivors += other.survivors;
        self.deactivated += other.deactivated;
    }
}

/// Statistics from one enumeration run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MergeStats {
    /// `(k, surviving count)` per level, in increasing k.
    pub counts: Vec<(usize, usize)>,
    /// For each arc, the level k after which Theorem 3.1 removed it
    /// (`None` = never removed).
    pub deactivated_at: Vec<Option<usize>>,
    /// Subsets pruned by the Lemma 3.1/3.2 geometric condition.
    pub geometry_pruned: u64,
    /// Subsets pruned by the Theorem 3.2 bandwidth condition.
    pub bandwidth_pruned: u64,
    /// The level at which enumeration hit
    /// [`MergeConfig::max_subsets_per_level`], if any.
    pub truncated_at_k: Option<usize>,
    /// Per-level breakdown. Unlike [`counts`](Self::counts), a trailing
    /// level that examined subsets but kept none is retained here, so
    /// the per-level prune counts always sum to the aggregates.
    pub levels: Vec<LevelStats>,
    /// Executor telemetry of the run (tasks, steals, busy time).
    /// Everything else in this struct is identical for every thread
    /// count; this field is scheduling-dependent and excluded from
    /// determinism comparisons.
    pub exec: ExecStats,
}

impl MergeEnumeration {
    /// All surviving subsets across every order, flattened.
    pub fn all_subsets(&self) -> impl Iterator<Item = &Vec<usize>> + '_ {
        self.subsets_by_k.iter().flatten()
    }

    /// Total number of surviving merge candidates.
    pub fn candidate_count(&self) -> usize {
        self.subsets_by_k.iter().map(Vec::len).sum()
    }
}

/// Lemma 3.1: `true` when the pair `{i, j}` is provably not 2-way
/// mergeable (`Γ ≤ Δ`, i.e. slack `ε ≤ 0`).
pub fn pair_pruned(m: &DistanceMatrices, i: usize, j: usize) -> bool {
    m.slack(i, j) <= 1e-12
}

/// Lemma 3.2 with a given pivot: `true` when
/// `Σ_{i ≠ pivot} ε(aᵢ, a_pivot) ≤ 0`, proving the subset not k-way
/// mergeable.
///
/// # Panics
///
/// Panics if `pivot` is not a member of `subset`.
pub fn subset_pruned_with_pivot(m: &DistanceMatrices, subset: &[usize], pivot: usize) -> bool {
    assert!(subset.contains(&pivot), "pivot must belong to the subset");
    let total: f64 = subset
        .iter()
        .filter(|&&i| i != pivot)
        .map(|&i| m.slack(i, pivot))
        .sum();
    total <= 1e-12
}

/// Applies Lemma 3.2 under the configured pivot rule.
pub fn subset_pruned(m: &DistanceMatrices, subset: &[usize], rule: MergePruneRule) -> bool {
    match rule {
        MergePruneRule::LastArcPivot => {
            let pivot = *subset.iter().max().expect("non-empty subset");
            subset_pruned_with_pivot(m, subset, pivot)
        }
        MergePruneRule::AnyPivot => subset
            .iter()
            .any(|&p| subset_pruned_with_pivot(m, subset, p)),
    }
}

/// Theorem 3.2: `true` when the subset's total bandwidth proves it cannot
/// share a common path: `Σ b(aᵢ) ≥ max_l b(l) + min_j b(aⱼ)`.
pub fn bandwidth_pruned(graph: &ConstraintGraph, library: &Library, subset: &[usize]) -> bool {
    let total: Bandwidth = subset
        .iter()
        .map(|&i| graph.arc(crate::constraint::ArcId(i as u32)).bandwidth)
        .sum();
    let min = subset
        .iter()
        .map(|&i| graph.arc(crate::constraint::ArcId(i as u32)).bandwidth)
        .fold(None::<Bandwidth>, |acc, b| match acc {
            Some(a) if a < b => Some(a),
            _ => Some(b),
        })
        .unwrap_or(Bandwidth::ZERO);
    total.as_mbps() >= library.max_bandwidth().as_mbps() + min.as_mbps() - 1e-9
}

/// Lemma 3.2 on a flat `u32` subset — the same floats in the same order
/// as [`subset_pruned`], without building a `Vec<usize>` per subset.
fn subset_pruned_u32(m: &DistanceMatrices, subset: &[u32], rule: MergePruneRule) -> bool {
    match rule {
        MergePruneRule::LastArcPivot => {
            let pivot = *subset.iter().max().expect("non-empty subset") as usize;
            slack_sum_pruned(m, subset, pivot)
        }
        MergePruneRule::AnyPivot => subset
            .iter()
            .any(|&p| slack_sum_pruned(m, subset, p as usize)),
    }
}

/// `Σ_{i ≠ pivot} ε(aᵢ, a_pivot) ≤ 0` with the summation in subset
/// order, matching [`subset_pruned_with_pivot`] bit-for-bit.
fn slack_sum_pruned(m: &DistanceMatrices, subset: &[u32], pivot: usize) -> bool {
    let total: f64 = subset
        .iter()
        .filter(|&&i| i as usize != pivot)
        .map(|&i| m.slack(i as usize, pivot))
        .sum();
    total <= 1e-12
}

/// Theorem 3.2 against precomputed per-arc bandwidths — the same sums
/// in the same order as [`bandwidth_pruned`], without the per-call arc
/// lookups and `max_bandwidth` fold.
fn bandwidth_pruned_fast(bws: &[Bandwidth], max_bw_mbps: f64, subset: &[u32]) -> bool {
    let total: Bandwidth = subset.iter().map(|&i| bws[i as usize]).sum();
    let min = subset
        .iter()
        .map(|&i| bws[i as usize])
        .fold(None::<Bandwidth>, |acc, b| match acc {
            Some(a) if a < b => Some(a),
            _ => Some(b),
        })
        .unwrap_or(Bandwidth::ZERO);
    total.as_mbps() >= max_bw_mbps + min.as_mbps() - 1e-9
}

/// Unflattens a level arena (`k` entries per subset) into the public
/// `Vec<Vec<usize>>` shape — one conversion per level, on the way out.
fn unflatten(flat: &[u32], k: usize) -> Vec<Vec<usize>> {
    flat.chunks_exact(k)
        .map(|c| c.iter().map(|&a| a as usize).collect())
        .collect()
}

/// Debug-build invariant check: the extension kernel emits subsets in
/// lexicographic order by construction, so no level ever needs a sort.
fn is_lex_sorted(flat: &[u32], k: usize) -> bool {
    flat.chunks_exact(k)
        .zip(flat.chunks_exact(k).skip(1))
        .all(|(a, b)| a <= b)
}

/// Enumerates all surviving merge candidates of `graph` under `config`
/// (the `GenerateCandidateArcImplementations` loop of Fig. 2, minus the
/// point-to-point singletons which [`crate::p2p`] provides), serially.
///
/// Equivalent to [`enumerate_with`] on a single-threaded executor — and,
/// by the determinism guarantee, to `enumerate_with` on *any* executor.
pub fn enumerate(
    graph: &ConstraintGraph,
    library: &Library,
    matrices: &DistanceMatrices,
    config: &MergeConfig,
) -> MergeEnumeration {
    enumerate_with(graph, library, matrices, config, &Executor::serial())
}

/// [`enumerate`] with the level sweeps fanned out over `exec`.
///
/// The result is bit-identical for every thread count: sweeps emit into
/// index-ordered slots, per-worker [`LevelStats`] are merged (sums), and
/// survivors are canonically re-sorted before Theorem 3.1 deactivation.
pub fn enumerate_with(
    graph: &ConstraintGraph,
    library: &Library,
    matrices: &DistanceMatrices,
    config: &MergeConfig,
    exec: &Executor,
) -> MergeEnumeration {
    let n = graph.arc_count();
    let mut stats = MergeStats {
        deactivated_at: vec![None; n],
        ..MergeStats::default()
    };
    let mut subsets_by_k: Vec<Vec<Vec<usize>>> = Vec::new();
    if n < 2 {
        return MergeEnumeration {
            subsets_by_k,
            stats,
        };
    }
    let strategy = match config.strategy {
        EnumerationStrategy::Auto => {
            if n <= 14 {
                EnumerationStrategy::Exhaustive
            } else {
                EnumerationStrategy::PairwiseCliques
            }
        }
        s => s,
    };
    let max_k = config.max_k.unwrap_or(n).min(n);
    if max_k < 2 {
        // Merging disabled outright (`max_k <= 1`): every arc stays
        // point-to-point, mirroring the `n < 2` early return.
        return MergeEnumeration {
            subsets_by_k,
            stats,
        };
    }
    let sweep_parts = exec.threads() * 8;
    // Contiguous chunks over `0..n`: `sweep_parts` of them, but none
    // shorter than MIN_CHUNK items (~40 µs of checks), so a small level
    // is one chunk and runs inline instead of paying for workers.
    const MIN_CHUNK: usize = 512;
    let sweep_chunks = |n: usize| chunk_ranges(n, sweep_parts.min(n.div_ceil(MIN_CHUNK)));

    // Per-arc bandwidths and the library's best link rate, hoisted out
    // of the Theorem 3.2 check (same values, same summation order as
    // the per-call lookups they replace).
    let bws: Vec<Bandwidth> = (0..n)
        .map(|i| graph.arc(crate::constraint::ArcId(i as u32)).bandwidth)
        .collect();
    let max_bw_mbps = library.max_bandwidth().as_mbps();

    // ---- Level k = 2 ---------------------------------------------------
    // Chunked Lemma 3.1 / Theorem 3.2 sweep over all unordered pairs.
    // Each chunk unranks its first pair from the triangular index and
    // advances sequentially — no materialized pair list. The profile
    // scope stays on this thread for the whole level (per-chunk scopes
    // would make call counts depend on the chunk count, which is a
    // function of the thread count).
    let profile_level = ccs_obs::profile::scope("pairs");
    // Hoisted ledger check: sweeps build no event when provenance
    // recording is off (the default).
    let ledger_on = ledger::enabled();
    let chunks = sweep_chunks(pair_count(n));
    let (parts, sweep_stats) = exec.par_map_stats(&chunks, |_, &(s, e)| {
        let mut ls = LevelStats {
            k: 2,
            ..LevelStats::default()
        };
        let mut surviving: Vec<u32> = Vec::new();
        let (mut i, mut j) = pair_at(n, s);
        for _ in s..e {
            ls.examined += 1;
            if config.geometry_prune && pair_pruned(matrices, i, j) {
                ls.geometry_pruned += 1;
                if ledger_on {
                    ledger::emit(DecisionEvent::new(
                        Cause::MergingGeometryPruned,
                        vec![i as u32, j as u32],
                        0.0,
                        0.0,
                        "k=2".to_string(),
                    ));
                }
            } else if config.bandwidth_prune
                && bandwidth_pruned_fast(&bws, max_bw_mbps, &[i as u32, j as u32])
            {
                ls.bandwidth_pruned += 1;
                if ledger_on {
                    ledger::emit(DecisionEvent::new(
                        Cause::MergingBandwidthPruned,
                        vec![i as u32, j as u32],
                        bws[i].as_mbps() + bws[j].as_mbps(),
                        max_bw_mbps,
                        "k=2".to_string(),
                    ));
                }
            } else {
                surviving.push(i as u32);
                surviving.push(j as u32);
            }
            j += 1;
            if j == n {
                i += 1;
                j = i + 1;
            }
        }
        (ls, surviving)
    });
    stats.exec.merge(&sweep_stats);
    let mut level = LevelStats {
        k: 2,
        ..LevelStats::default()
    };
    let mut pairs_flat: Vec<u32> = Vec::new();
    let mut masks = NeighborMasks::new(n);
    for (ls, surviving) in parts {
        level.merge(&ls);
        for p in surviving.chunks_exact(2) {
            masks.connect(p[0] as usize, p[1] as usize);
        }
        pairs_flat.extend_from_slice(&surviving);
    }
    stats.geometry_pruned += level.geometry_pruned;
    stats.bandwidth_pruned += level.bandwidth_pruned;
    // The sweep emits pairs in increasing triangular rank, which *is*
    // lexicographic order — the canonical order Theorem 3.1 expects.
    debug_assert!(is_lex_sorted(&pairs_flat, 2));
    let mut active: Vec<bool> = vec![false; n];
    let mut active_mask = BitSet::new(n);
    for &a in &pairs_flat {
        if !active[a as usize] {
            active[a as usize] = true;
            active_mask.insert(a as usize);
        }
    }
    for (a, act) in active.iter().enumerate() {
        if !act {
            stats.deactivated_at[a] = Some(2);
            level.deactivated += 1;
            if ledger_on {
                ledger::emit(DecisionEvent::new(
                    Cause::MergingDeactivated,
                    vec![a as u32],
                    0.0,
                    0.0,
                    "k=2".to_string(),
                ));
            }
        }
    }
    let pair_survivors = pairs_flat.len() / 2;
    level.survivors = pair_survivors as u64;
    stats.counts.push((2, pair_survivors));
    stats.levels.push(level);
    subsets_by_k.push(unflatten(&pairs_flat, 2));
    let mut prev_flat = pairs_flat;
    let mut prev_k = 2usize;
    drop(profile_level);

    // ---- Levels k = 3.. -------------------------------------------------
    for k in 3..=max_k {
        if prev_flat.is_empty() {
            break;
        }
        let _profile_level = ccs_obs::profile::scope_owned(format!("k{k}"));
        let mut truncated = false;

        // Flat candidate arena: k entries per subset.
        let candidates_flat: Vec<u32> = match strategy {
            EnumerationStrategy::Exhaustive => {
                let arcs: Vec<usize> = (0..n).filter(|&a| active[a]).collect();
                k_subsets_flat(&arcs, k, config.max_subsets_per_level, &mut truncated)
            }
            EnumerationStrategy::PairwiseCliques | EnumerationStrategy::Auto => {
                // Extend each surviving (k−1)-clique by a higher-index
                // arc adjacent to all members: AND the members' neighbor
                // rows, mask to active arcs above the last member, pop
                // extensions with trailing_zeros. One scratch set per
                // chunk — chunked over the previous level's arena,
                // flattened back in input order.
                let prev_count = prev_flat.len() / prev_k;
                let chunks = sweep_chunks(prev_count);
                let (parts, sweep_stats) = exec.par_map_stats(&chunks, |_, &(s, e)| {
                    let mut ext: Vec<u32> = Vec::new();
                    let mut scratch = masks.scratch();
                    for sub in prev_flat[s * prev_k..e * prev_k].chunks_exact(prev_k) {
                        masks.extension_mask(sub, &active_mask, &mut scratch);
                        for j in scratch.iter() {
                            ext.extend_from_slice(sub);
                            ext.push(j as u32);
                        }
                    }
                    ext
                });
                stats.exec.merge(&sweep_stats);
                let mut ext: Vec<u32> = Vec::new();
                'flatten: for part in parts {
                    for t in part.chunks_exact(k) {
                        if ext.len() / k >= config.max_subsets_per_level {
                            truncated = true;
                            break 'flatten;
                        }
                        ext.extend_from_slice(t);
                    }
                }
                ext
            }
        };

        // Chunked Lemma 3.2 / Theorem 3.2 sweep; per-worker LevelStats
        // partials merge to the exact serial counts.
        let n_candidates = candidates_flat.len() / k;
        let examined_cap = n_candidates.min(config.max_subsets_per_level);
        if n_candidates > config.max_subsets_per_level {
            truncated = true;
        }
        let chunks = sweep_chunks(examined_cap);
        let (parts, sweep_stats) = exec.par_map_stats(&chunks, |_, &(s, e)| {
            let mut ls = LevelStats {
                k,
                ..LevelStats::default()
            };
            let mut surviving: Vec<u32> = Vec::new();
            for subset in candidates_flat[s * k..e * k].chunks_exact(k) {
                ls.examined += 1;
                if config.geometry_prune && subset_pruned_u32(matrices, subset, config.prune_rule) {
                    ls.geometry_pruned += 1;
                    if ledger_on {
                        ledger::emit(DecisionEvent::new(
                            Cause::MergingGeometryPruned,
                            subset.to_vec(),
                            0.0,
                            0.0,
                            format!("k={k}"),
                        ));
                    }
                } else if config.bandwidth_prune && bandwidth_pruned_fast(&bws, max_bw_mbps, subset)
                {
                    ls.bandwidth_pruned += 1;
                    if ledger_on {
                        let total: f64 = subset.iter().map(|&a| bws[a as usize].as_mbps()).sum();
                        ledger::emit(DecisionEvent::new(
                            Cause::MergingBandwidthPruned,
                            subset.to_vec(),
                            total,
                            max_bw_mbps,
                            format!("k={k}"),
                        ));
                    }
                } else {
                    surviving.extend_from_slice(subset);
                }
            }
            (ls, surviving)
        });
        stats.exec.merge(&sweep_stats);
        let mut level = LevelStats {
            k,
            ..LevelStats::default()
        };
        let mut survivors_flat: Vec<u32> = Vec::new();
        for (ls, surviving) in parts {
            level.merge(&ls);
            survivors_flat.extend_from_slice(&surviving);
        }
        stats.geometry_pruned += level.geometry_pruned;
        stats.bandwidth_pruned += level.bandwidth_pruned;
        // Extension of a lex-ordered previous level by ascending j keeps
        // lex order, and the prune sweep only deletes — the canonical
        // order Theorem 3.1 expects holds by construction.
        debug_assert!(is_lex_sorted(&survivors_flat, k));
        if truncated {
            stats.truncated_at_k = Some(k);
            if ledger_on {
                ledger::emit(DecisionEvent::new(
                    Cause::MergingTruncated,
                    Vec::new(),
                    n_candidates as f64,
                    config.max_subsets_per_level as f64,
                    format!("k={k}"),
                ));
            }
        }

        // Theorem 3.1 housekeeping: deactivate arcs in no survivor. A
        // fully empty level ends enumeration and is trimmed below, so it
        // records no per-arc deactivations.
        if !survivors_flat.is_empty() {
            let mut seen = vec![false; n];
            for &a in &survivors_flat {
                seen[a as usize] = true;
            }
            for a in 0..n {
                if active[a] && !seen[a] {
                    active[a] = false;
                    active_mask.remove(a);
                    stats.deactivated_at[a] = Some(k);
                    level.deactivated += 1;
                    if ledger_on {
                        ledger::emit(DecisionEvent::new(
                            Cause::MergingDeactivated,
                            vec![a as u32],
                            0.0,
                            0.0,
                            format!("k={k}"),
                        ));
                    }
                }
            }
        }

        let n_survivors = survivors_flat.len() / k;
        level.survivors = n_survivors as u64;
        stats.counts.push((k, n_survivors));
        stats.levels.push(level);
        subsets_by_k.push(unflatten(&survivors_flat, k));
        prev_flat = survivors_flat;
        prev_k = k;
        if truncated {
            break;
        }
    }

    // Trim trailing empty levels for a tidy result (stats.levels keeps
    // them — see its docs).
    while subsets_by_k.last().is_some_and(Vec::is_empty) {
        subsets_by_k.pop();
        stats.counts.pop();
    }

    emit_level_counters(&stats);
    MergeEnumeration {
        subsets_by_k,
        stats,
    }
}

/// Whether the Theorem 3.2 bandwidth test cannot prune any subset of
/// `graph` under `config`, so the enumeration does not depend on the
/// arcs' bandwidths at all.
///
/// A subset `S` is pruned when `Σ_S b − min_S b` reaches the library's
/// best link rate; over subsets of at most `max_k` arcs that difference
/// peaks at the sum of the `max_k − 1` largest bandwidths. The check
/// keeps a relative margin far above the sums' round-off.
pub(crate) fn bandwidth_prune_inert(
    graph: &ConstraintGraph,
    library: &Library,
    config: &MergeConfig,
) -> bool {
    let n = graph.arc_count();
    let max_k = config.max_k.unwrap_or(n).min(n);
    if !config.bandwidth_prune || max_k < 2 {
        return true;
    }
    let mut bws: Vec<f64> = graph.arcs().map(|(_, a)| a.bandwidth.as_mbps()).collect();
    bws.sort_by(|a, b| b.total_cmp(a));
    let top: f64 = bws[..max_k - 1].iter().sum();
    top * (1.0 + 1e-6) < library.max_bandwidth().as_mbps() - 1e-9
}

/// Reports the per-level breakdown to the global [`ccs_obs`] recorder
/// (counter names `merging.k{k}.examined` / `.geometry_pruned` /
/// `.bandwidth_pruned` / `.survivors` / `.deactivated`).
pub(crate) fn emit_level_counters(stats: &MergeStats) {
    if !ccs_obs::enabled() {
        return;
    }
    for l in &stats.levels {
        let k = l.k;
        ccs_obs::counter(&format!("merging.k{k}.examined"), l.examined);
        ccs_obs::counter(&format!("merging.k{k}.geometry_pruned"), l.geometry_pruned);
        ccs_obs::counter(
            &format!("merging.k{k}.bandwidth_pruned"),
            l.bandwidth_pruned,
        );
        ccs_obs::counter(&format!("merging.k{k}.survivors"), l.survivors);
        ccs_obs::counter(&format!("merging.k{k}.deactivated"), l.deactivated);
    }
}

/// All k-subsets of `items` (sorted ascending) in one flat arena (`k`
/// entries per subset), capped at `cap` subsets with the overflow flag
/// set.
fn k_subsets_flat(items: &[usize], k: usize, cap: usize, truncated: &mut bool) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::new();
    if k == 0 || k > items.len() {
        return out;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        // Check the cap before pushing: at the top of the loop another
        // subset is always pending, so stopping here returns exactly
        // `cap` subsets with the overflow flag set.
        if out.len() / k >= cap {
            *truncated = true;
            return out;
        }
        out.extend(idx.iter().map(|&i| items[i] as u32));
        // Advance the combination.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + items.len() - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        idx[i] += 1;
        for j in (i + 1)..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// Test shim over [`k_subsets_flat`] in the historical nested shape.
#[cfg(test)]
fn k_subsets(items: &[usize], k: usize, cap: usize, truncated: &mut bool) -> Vec<Vec<usize>> {
    unflatten(&k_subsets_flat(items, k, cap, truncated), k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintGraph;
    use crate::library::wan_paper_library;
    use ccs_geom::{Norm, Point2};

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    /// Two parallel close channels plus one far-away unrelated channel.
    fn simple_graph() -> ConstraintGraph {
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let a0 = b.add_port("s0", Point2::new(0.0, 0.0));
        let a1 = b.add_port("t0", Point2::new(100.0, 0.0));
        let c0 = b.add_port("s1", Point2::new(0.0, 1.0));
        let c1 = b.add_port("t1", Point2::new(100.0, 1.0));
        let f0 = b.add_port("s2", Point2::new(0.0, 500.0));
        let f1 = b.add_port("t2", Point2::new(10.0, 500.0));
        b.add_channel(a0, a1, mbps(10.0)).unwrap();
        b.add_channel(c0, c1, mbps(10.0)).unwrap();
        b.add_channel(f0, f1, mbps(10.0)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn parallel_pair_survives_far_pair_pruned() {
        let g = simple_graph();
        let m = DistanceMatrices::compute(&g);
        assert!(!pair_pruned(&m, 0, 1)); // parallel channels: big slack
        assert!(pair_pruned(&m, 0, 2)); // far channel: no gain
        assert!(pair_pruned(&m, 1, 2));
    }

    #[test]
    fn enumeration_keeps_only_parallel_pair() {
        let g = simple_graph();
        let m = DistanceMatrices::compute(&g);
        let lib = wan_paper_library();
        let e = enumerate(&g, &lib, &m, &MergeConfig::default());
        assert_eq!(e.subsets_by_k.len(), 1);
        assert_eq!(e.subsets_by_k[0], vec![vec![0, 1]]);
        assert_eq!(e.candidate_count(), 1);
        // Arc 2 deactivated at level 2 (Theorem 3.1 bookkeeping).
        assert_eq!(e.stats.deactivated_at[2], Some(2));
        assert_eq!(e.stats.deactivated_at[0], None);
        assert_eq!(e.stats.counts, vec![(2, 1)]);
    }

    #[test]
    fn pivot_rules_agree_on_pairs() {
        let g = simple_graph();
        let m = DistanceMatrices::compute(&g);
        for (i, j) in [(0, 1), (0, 2), (1, 2)] {
            assert_eq!(
                subset_pruned(&m, &[i, j], MergePruneRule::LastArcPivot),
                subset_pruned(&m, &[i, j], MergePruneRule::AnyPivot)
            );
        }
    }

    #[test]
    fn any_pivot_at_least_as_strong() {
        // Three parallel channels: all pairs mergeable; triple survives
        // both rules.
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let mut ids = Vec::new();
        for y in [0.0, 1.0, 2.0] {
            let s = b.add_port("s", Point2::new(0.0, y));
            let t = b.add_port("t", Point2::new(100.0, y));
            ids.push(b.add_channel(s, t, mbps(10.0)).unwrap());
        }
        let g = b.build().unwrap();
        let m = DistanceMatrices::compute(&g);
        let sub = [0usize, 1, 2];
        assert!(!subset_pruned(&m, &sub, MergePruneRule::AnyPivot));
        assert!(!subset_pruned(&m, &sub, MergePruneRule::LastArcPivot));
    }

    #[test]
    fn bandwidth_prune_matches_theorem_3_2() {
        let g = simple_graph(); // three 10 Mb/s channels
        let lib = wan_paper_library(); // max b(l) = 1000 Mb/s
                                       // Σ = 20 or 30 < 1000 + 10: no prune.
        assert!(!bandwidth_pruned(&g, &lib, &[0, 1]));
        assert!(!bandwidth_pruned(&g, &lib, &[0, 1, 2]));
        // A tiny library makes the same subsets prunable.
        let tiny = crate::library::Library::builder()
            .link(crate::library::Link::per_length("t", mbps(12.0), 1.0))
            .build()
            .unwrap();
        assert!(!bandwidth_pruned(&g, &tiny, &[0])); // 10 < 12 + 10
        assert!(!bandwidth_pruned(&g, &tiny, &[0, 1])); // 20 < 22
        assert!(bandwidth_pruned(&g, &tiny, &[0, 1, 2])); // 30 ≥ 22
    }

    #[test]
    fn k_subsets_enumerates_combinations() {
        let mut tr = false;
        let s = k_subsets(&[1, 3, 5, 7], 2, 100, &mut tr);
        assert_eq!(s.len(), 6);
        assert!(!tr);
        assert!(s.contains(&vec![1, 7]));
        let s3 = k_subsets(&[0, 1, 2], 3, 100, &mut tr);
        assert_eq!(s3, vec![vec![0, 1, 2]]);
        let none = k_subsets(&[0, 1], 3, 100, &mut tr);
        assert!(none.is_empty());
    }

    #[test]
    fn k_subsets_cap_sets_flag() {
        let mut tr = false;
        let items: Vec<usize> = (0..10).collect();
        let s = k_subsets(&items, 3, 5, &mut tr);
        assert!(tr);
        assert_eq!(s.len(), 5); // exactly cap, flagged
                                // The kept subsets are the lexicographically first five.
        assert_eq!(s[0], vec![0, 1, 2]);
        assert_eq!(s[4], vec![0, 1, 6]);
    }

    #[test]
    fn k_subsets_exact_cap_is_not_truncated() {
        // C(4, 2) = 6 subsets at cap 6: all returned, no flag.
        let mut tr = false;
        let s = k_subsets(&[0, 1, 2, 3], 2, 6, &mut tr);
        assert_eq!(s.len(), 6);
        assert!(!tr, "a cap equal to the subset count must not flag");
    }

    #[test]
    fn strategies_agree_on_small_instances() {
        let g = simple_graph();
        let m = DistanceMatrices::compute(&g);
        let lib = wan_paper_library();
        let mut cfg = MergeConfig {
            strategy: EnumerationStrategy::Exhaustive,
            ..MergeConfig::default()
        };
        let a = enumerate(&g, &lib, &m, &cfg);
        cfg.strategy = EnumerationStrategy::PairwiseCliques;
        let b = enumerate(&g, &lib, &m, &cfg);
        // On this instance all multi-way sets are cliques, so identical.
        assert_eq!(a.subsets_by_k, b.subsets_by_k);
    }

    #[test]
    fn max_k_caps_order() {
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        for y in 0..5 {
            let s = b.add_port("s", Point2::new(0.0, y as f64));
            let t = b.add_port("t", Point2::new(100.0, y as f64));
            b.add_channel(s, t, mbps(1.0)).unwrap();
        }
        let g = b.build().unwrap();
        let m = DistanceMatrices::compute(&g);
        let lib = wan_paper_library();
        let cfg = MergeConfig {
            max_k: Some(3),
            ..MergeConfig::default()
        };
        let e = enumerate(&g, &lib, &m, &cfg);
        assert!(e.subsets_by_k.len() <= 2); // k = 2 and k = 3 only
        assert!(e.all_subsets().all(|s| s.len() <= 3));
    }

    #[test]
    fn max_k_one_disables_merging() {
        // `max_k` is the largest merging order *considered*; 1 (or 0)
        // must suppress even the pair level, not just levels >= 3.
        let g = simple_graph();
        let m = DistanceMatrices::compute(&g);
        let uncapped = enumerate(&g, &wan_paper_library(), &m, &MergeConfig::default());
        assert!(uncapped.candidate_count() > 0, "graph must be mergeable");
        for cap in [0, 1] {
            let cfg = MergeConfig {
                max_k: Some(cap),
                ..MergeConfig::default()
            };
            let e = enumerate(&g, &wan_paper_library(), &m, &cfg);
            assert_eq!(e.candidate_count(), 0, "max_k = {cap}");
            assert!(e.stats.counts.is_empty());
        }
    }

    #[test]
    fn single_arc_graph_has_no_candidates() {
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let s = b.add_port("s", Point2::new(0.0, 0.0));
        let t = b.add_port("t", Point2::new(1.0, 0.0));
        b.add_channel(s, t, mbps(1.0)).unwrap();
        let g = b.build().unwrap();
        let m = DistanceMatrices::compute(&g);
        let e = enumerate(&g, &wan_paper_library(), &m, &MergeConfig::default());
        assert_eq!(e.candidate_count(), 0);
        assert!(e.stats.counts.is_empty());
    }

    #[test]
    #[should_panic(expected = "pivot must belong")]
    fn foreign_pivot_panics() {
        let g = simple_graph();
        let m = DistanceMatrices::compute(&g);
        let _ = subset_pruned_with_pivot(&m, &[0, 1], 2);
    }

    /// A denser instance: `n` near-parallel channels in one corridor plus
    /// a handful of deliberately un-mergeable outliers.
    fn corridor_graph(n: usize) -> ConstraintGraph {
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        for i in 0..n {
            let y = (i as f64) * 1.5;
            let s = b.add_port("s", Point2::new((i % 3) as f64, y));
            let t = b.add_port("t", Point2::new(150.0 + (i % 5) as f64, y));
            b.add_channel(s, t, mbps(4.0 + (i % 7) as f64)).unwrap();
        }
        for i in 0..4 {
            let s = b.add_port("u", Point2::new(0.0, 2000.0 + 300.0 * i as f64));
            let t = b.add_port("v", Point2::new(20.0, 2000.0 + 300.0 * i as f64));
            b.add_channel(s, t, mbps(6.0)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn level_stats_partials_merge_to_serial_totals() {
        // Split the k = 2 sweep of a real instance at arbitrary points;
        // the merged partials must equal the whole-sweep totals.
        let g = corridor_graph(10);
        let m = DistanceMatrices::compute(&g);
        let lib = wan_paper_library();
        let n = g.arc_count();
        let mut pairs = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                pairs.push((i, j));
            }
        }
        let sweep = |range: &[(usize, usize)]| {
            let mut ls = LevelStats {
                k: 2,
                ..LevelStats::default()
            };
            for &(i, j) in range {
                ls.examined += 1;
                if pair_pruned(&m, i, j) {
                    ls.geometry_pruned += 1;
                } else if bandwidth_pruned(&g, &lib, &[i, j]) {
                    ls.bandwidth_pruned += 1;
                } else {
                    ls.survivors += 1;
                }
            }
            ls
        };
        let whole = sweep(&pairs);
        for parts in [1usize, 2, 3, 7, pairs.len()] {
            let mut merged = LevelStats {
                k: 2,
                ..LevelStats::default()
            };
            for (s, e) in chunk_ranges(pairs.len(), parts) {
                merged.merge(&sweep(&pairs[s..e]));
            }
            assert_eq!(merged, whole, "parts = {parts}");
        }
    }

    #[test]
    #[should_panic(expected = "different levels")]
    fn level_stats_merge_rejects_mixed_levels() {
        let mut a = LevelStats {
            k: 2,
            ..LevelStats::default()
        };
        let b = LevelStats {
            k: 3,
            ..LevelStats::default()
        };
        a.merge(&b);
    }

    #[test]
    fn enumeration_is_identical_across_thread_counts() {
        let g = corridor_graph(12);
        let m = DistanceMatrices::compute(&g);
        let lib = wan_paper_library();
        for strategy in [
            EnumerationStrategy::PairwiseCliques,
            EnumerationStrategy::Exhaustive,
        ] {
            let cfg = MergeConfig {
                strategy,
                max_k: Some(4),
                ..MergeConfig::default()
            };
            let serial = enumerate_with(&g, &lib, &m, &cfg, &Executor::serial());
            for threads in [2, 4, 8] {
                let par = enumerate_with(&g, &lib, &m, &cfg, &Executor::new(threads));
                assert_eq!(
                    par.subsets_by_k, serial.subsets_by_k,
                    "{strategy:?} threads = {threads}"
                );
                assert_eq!(par.stats.counts, serial.stats.counts);
                assert_eq!(par.stats.deactivated_at, serial.stats.deactivated_at);
                assert_eq!(par.stats.geometry_pruned, serial.stats.geometry_pruned);
                assert_eq!(par.stats.bandwidth_pruned, serial.stats.bandwidth_pruned);
                assert_eq!(par.stats.truncated_at_k, serial.stats.truncated_at_k);
                assert_eq!(par.stats.levels, serial.stats.levels);
            }
        }
    }

    #[test]
    fn enumeration_truncation_is_thread_count_invariant() {
        // A cap small enough to trip mid-level: the exactly-cap kept
        // subsets, the truncation flag, and every counter must not depend
        // on the thread count.
        let g = corridor_graph(12);
        let m = DistanceMatrices::compute(&g);
        let lib = wan_paper_library();
        let cfg = MergeConfig {
            max_subsets_per_level: 9,
            ..MergeConfig::default()
        };
        let serial = enumerate_with(&g, &lib, &m, &cfg, &Executor::serial());
        assert!(serial.stats.truncated_at_k.is_some(), "cap should trip");
        for threads in [3, 6] {
            let par = enumerate_with(&g, &lib, &m, &cfg, &Executor::new(threads));
            assert_eq!(par.subsets_by_k, serial.subsets_by_k);
            assert_eq!(par.stats.levels, serial.stats.levels);
            assert_eq!(par.stats.truncated_at_k, serial.stats.truncated_at_k);
        }
    }
}
