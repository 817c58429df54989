//! Cross-thread determinism of the parallel covering branch-and-bound.
//!
//! The solver's contract is that the winning cover and every
//! deterministic [`SolveStats`] field are byte-identical at every
//! thread count — seeded or unseeded, full-budget or anytime. These
//! properties drive random matrices through executors of 1, 2, and 4
//! workers and require bit-for-bit agreement; scheduling may only show
//! in `steals`/`dominance_ns`, which `SolveStats`' equality ignores.

use ccs_covering::{CoverMatrix, Search, SolveStats};
use ccs_exec::Executor;
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 4];

/// Random instances sized to actually branch (several rows, overlapping
/// columns) in two weight regimes — unit scale and million scale — so
/// the dead-band arithmetic is exercised at both magnitudes.
fn random_instance() -> impl Strategy<Value = CoverMatrix> {
    (2usize..9, 2usize..12, 0usize..2).prop_flat_map(|(rows, cols, big)| {
        let scale = if big == 1 { 1e6 } else { 1.0 };
        let col = (0.5f64..10.0, proptest::collection::vec(0..rows, 1..=rows));
        proptest::collection::vec(col, cols).prop_map(move |cs| {
            let mut m = CoverMatrix::new(rows);
            for (w, rws) in cs {
                m.add_column(w * scale, rws);
            }
            m
        })
    })
}

fn assert_identical(
    label: &str,
    reference: &(ccs_covering::Cover, SolveStats),
    got: &(ccs_covering::Cover, SolveStats),
) {
    assert_eq!(
        got.0.columns, reference.0.columns,
        "{label}: cover columns diverged"
    );
    assert_eq!(
        got.0.cost.to_bits(),
        reference.0.cost.to_bits(),
        "{label}: cover cost bits diverged"
    );
    assert_eq!(got.1, reference.1, "{label}: deterministic stats diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Unseeded exact solve: identical cover bytes and stats at every
    /// thread count.
    #[test]
    fn exact_is_thread_count_invariant(m in random_instance()) {
        match m.solve(Search::Exact, &Executor::new(1)) {
            Ok(reference) => {
                for t in THREADS {
                    let got = m.solve(Search::Exact, &Executor::new(t)).unwrap();
                    assert_identical(&format!("threads={t}"), &reference, &got);
                }
                // The serial executor runs the same search inline.
                let plain = m.solve(Search::Exact, &Executor::serial()).unwrap();
                assert_identical("serial", &reference, &plain);
            }
            Err(e) => {
                // Infeasible instances must fail identically everywhere.
                for t in THREADS {
                    prop_assert_eq!(
                        m.solve(Search::Exact, &Executor::new(t)).unwrap_err(),
                        e.clone()
                    );
                }
            }
        }
    }

    /// Seeded solve: warm-start identity holds at every thread count,
    /// with both a greedy seed and the optimum itself.
    #[test]
    fn seeded_is_thread_count_invariant(m in random_instance()) {
        if let Ok(cold) = m.solve(Search::Exact, &Executor::new(1)) {
            let greedy = m.solve_greedy().unwrap();
            for seed in [&greedy.columns, &cold.0.columns] {
                let warm1 = m.solve(Search::Seeded(seed), &Executor::new(1)).unwrap();
                prop_assert_eq!(&warm1.0.columns, &cold.0.columns);
                prop_assert_eq!(warm1.0.cost.to_bits(), cold.0.cost.to_bits());
                for t in THREADS {
                    let got = m.solve(Search::Seeded(seed), &Executor::new(t)).unwrap();
                    assert_identical(&format!("seeded threads={t}"), &warm1, &got);
                }
            }
        }
    }

    /// Budgeted anytime solve: at each budget the result is identical
    /// across thread counts, and within one thread count a bigger
    /// budget never returns a worse cover.
    #[test]
    fn anytime_is_thread_count_invariant_and_monotone(m in random_instance()) {
        if m.solve_greedy().is_ok() {
            let mut last = f64::INFINITY;
            for budget in [0u64, 3, 10, 100, u64::MAX] {
                let reference = m.solve(Search::Budget(budget), &Executor::new(1)).unwrap();
                for t in THREADS {
                    let got = m.solve(Search::Budget(budget), &Executor::new(t)).unwrap();
                    assert_identical(&format!("budget={budget} threads={t}"), &reference, &got);
                }
                prop_assert!(
                    reference.0.cost <= last + 1e-9 * last.abs().max(1.0),
                    "budget {budget} regressed: {} > {last}", reference.0.cost
                );
                last = reference.0.cost;
            }
        }
    }
}

/// A structured instance whose root expansion actually produces
/// subtree tasks, merged per-worker stats and all. Disjoint odd cycles
/// carry an LP integrality gap of ½ each, so the dual-ascent bound
/// cannot close the root and the search genuinely branches.
#[test]
fn structured_instance_spawns_subtrees_and_stays_identical() {
    let mut m = CoverMatrix::new(21);
    let mut w = 0usize;
    for cyc in 0..3usize {
        let base = cyc * 7;
        for i in 0..7usize {
            m.add_column(1.0 + w as f64 * 0.001, [base + i, base + (i + 1) % 7]);
            w += 1;
        }
    }
    let reference = m.solve(Search::Exact, &Executor::new(1)).unwrap();
    assert!(
        reference.1.subtrees > 0,
        "expected a real root split, got {:?}",
        reference.1
    );
    assert!(reference.1.proven_optimal);
    for t in [2usize, 4, 8] {
        let got = m.solve(Search::Exact, &Executor::new(t)).unwrap();
        assert_eq!(got.0.columns, reference.0.columns);
        assert_eq!(got.0.cost.to_bits(), reference.0.cost.to_bits());
        assert_eq!(got.1, reference.1);
    }
}

/// The same odd cycles padded past the serial-sweep column threshold
/// with singleton rows (each forced by an essential column at the
/// root): the subtree sweep really runs on worker threads, and stays
/// identical to the serial search.
#[test]
fn padded_instance_sweeps_on_workers_and_stays_identical() {
    let (cycles, padding) = (21usize, 120usize);
    let mut m = CoverMatrix::new(cycles + padding);
    for cyc in 0..3usize {
        let base = cyc * 7;
        for i in 0..7usize {
            m.add_column(
                1.0 + (base + i) as f64 * 0.001,
                [base + i, base + (i + 1) % 7],
            );
        }
    }
    for r in cycles..cycles + padding {
        m.add_column(2.0, [r]);
    }
    assert!(m.n_cols() >= 128, "must exceed the serial-sweep threshold");
    let reference = m.solve(Search::Exact, &Executor::new(1)).unwrap();
    assert!(reference.1.subtrees > 0, "{:?}", reference.1);
    assert!(reference.1.proven_optimal);
    for t in [2usize, 4, 8] {
        let got = m.solve(Search::Exact, &Executor::new(t)).unwrap();
        assert_eq!(got.0.columns, reference.0.columns);
        assert_eq!(got.0.cost.to_bits(), reference.0.cost.to_bits());
        assert_eq!(got.1, reference.1);
    }
}
