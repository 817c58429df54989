//! Property: the lower-bound gate (`MergeConfig::lb_gate`) and the
//! placement kernel's certified early exit that rides on it are pure
//! optimizations. For any instance, running with the gate on and off
//! must produce the identical selected cover, identical total cost
//! (to the last f64 bit), and a byte-identical `ccs-topology-v1`
//! document. The gate may only skip placement solves whose outcome
//! (infeasible or dominated) cannot change the candidate pool the
//! covering step sees, and the certificate only solves whose outcome
//! is dominated.

use ccs::core::constraint::ConstraintGraph;
use ccs::core::library::{soc_paper_library, wan_paper_library, Library, Link, NodeKind};
use ccs::core::matrices::DistanceMatrices;
use ccs::core::merging::{enumerate_with, MergeConfig};
use ccs::core::placement::{
    merge_candidate_explained, merge_cost_lower_bound, point_to_point_candidate, price_merge,
    MergePricing, PlacementCache,
};
use ccs::core::report::topology_json;
use ccs::core::synthesis::{SynthesisConfig, SynthesisResult, Synthesizer};
use ccs::core::units::Bandwidth;
use ccs::gen::random::{clustered_wan, soc_floorplan, ClusteredWanConfig, SocConfig};
use ccs::geom::Norm;
use proptest::prelude::*;

fn run(g: &ConstraintGraph, lib: &Library, lb_gate: bool) -> SynthesisResult {
    let mut sc = SynthesisConfig::default();
    sc.merge.lb_gate = lb_gate;
    Synthesizer::new(g, lib)
        .with_config(sc)
        .run()
        .expect("synthesis succeeds")
}

/// Asserts the two runs are result-identical: same candidates, same
/// selection, bit-equal costs, byte-equal topology document.
fn assert_gate_invariant(g: &ConstraintGraph, lib: &Library) -> (SynthesisResult, SynthesisResult) {
    let gated = run(g, lib, true);
    let ungated = run(g, lib, false);

    assert_eq!(gated.candidates.len(), ungated.candidates.len());
    for (a, b) in gated.candidates.iter().zip(&ungated.candidates) {
        assert_eq!(a.arcs, b.arcs);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "cost bits differ");
    }
    let sel = |r: &SynthesisResult| {
        r.selected
            .iter()
            .map(|c| c.arcs.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(sel(&gated), sel(&ungated));
    assert_eq!(gated.total_cost().to_bits(), ungated.total_cost().to_bits());

    // Every gated subset would have been infeasible or dominated: the
    // three buckets are a reclassification of the same population.
    assert_eq!(
        gated.stats.lb_gated + gated.stats.infeasible_merges + gated.stats.dominated_dropped,
        ungated.stats.infeasible_merges + ungated.stats.dominated_dropped
    );
    assert_eq!(ungated.stats.lb_gated, 0);
    assert_eq!(ungated.stats.solves_skipped, 0);
    // Certified subsets are dominated ones that skipped the full solve.
    assert!(gated.stats.lb_certified <= gated.stats.dominated_dropped);
    assert_eq!(ungated.stats.lb_certified, 0);

    let render = |r: &SynthesisResult| {
        let mut out = String::new();
        topology_json(r, g, lib).write_pretty(&mut out, 0);
        out
    };
    let doc = render(&gated);
    assert_eq!(doc, render(&ungated));
    assert!(doc.contains("ccs-topology-v1"));
    (gated, ungated)
}

/// Prices every surviving merge subset of `g` both ways through the
/// public API: [`price_merge`], the pipeline's path, and the bound
/// followed by a full [`merge_candidate_explained`] solve. A certified
/// subset must be one the full solve drops as dominated, and a subset
/// priced in full must get the same result. Returns how many subsets
/// the kernel certified.
fn assert_certificate_exact(g: &ConstraintGraph, lib: &Library) -> usize {
    let exec = ccs::exec::Executor::serial();
    let matrices = DistanceMatrices::compute(g);
    let merges = enumerate_with(g, lib, &matrices, &MergeConfig::default(), &exec);
    let p2p: Vec<f64> = (0..g.arc_count())
        .map(|i| point_to_point_candidate(g, lib, i).unwrap().cost)
        .collect();
    let cache = PlacementCache::new();
    let mut certified = 0;
    for s in merges.all_subsets() {
        let threshold = s.iter().map(|&i| p2p[i]).sum::<f64>() * (1.0 - 1e-6) - 1e-12;
        let priced = price_merge(g, lib, s, &cache, threshold).unwrap();
        if let MergePricing::Gated { lb } = priced {
            assert_eq!(
                lb.to_bits(),
                merge_cost_lower_bound(g, lib, s, &cache).to_bits()
            );
            continue;
        }
        let full = merge_candidate_explained(g, lib, s, &cache).unwrap();
        match priced {
            MergePricing::Certified { lb } => {
                certified += 1;
                let c = full.expect("a certified subset is feasible");
                assert!(
                    c.cost >= threshold,
                    "{s:?}: certified {lb}, solved {}",
                    c.cost
                );
                assert!(lb >= threshold && lb <= c.cost, "{s:?}: {lb} vs {}", c.cost);
            }
            MergePricing::Solved(r) => assert_eq!(r, full, "{s:?}"),
            MergePricing::Gated { .. } => unreachable!(),
        }
    }
    certified
}

/// Two hundred seeded clustered WANs under every norm, priced with the
/// paper library, the capped library and its switch-only variant: the
/// pipeline with the gate and the certificate is result-identical to
/// the plain solve, and every subset the certificate drops is one the
/// full solve drops as dominated.
#[test]
fn certificate_is_result_invariant_on_seeded_wans() {
    let libraries = [
        wan_paper_library(),
        capped_library(true),
        capped_library(false),
    ];
    let mut certified = [0usize; 3];
    for seed in 0..200u64 {
        let cfg = ClusteredWanConfig {
            clusters: 2 + (seed % 2) as usize,
            channels: 5 + (seed % 4) as usize,
            seed: 4000 + seed,
            ..ClusteredWanConfig::default()
        };
        let g = clustered_wan(&cfg);
        for norm in Norm::ALL {
            let g = with_norm(&g, norm);
            for (n, lib) in certified.iter_mut().zip(&libraries) {
                let (gated, _) = assert_gate_invariant(&g, lib);
                let exact = assert_certificate_exact(&g, lib);
                assert_eq!(gated.stats.lb_certified, exact);
                if norm != Norm::Euclidean {
                    assert_eq!(exact, 0, "only the Euclidean kernel certifies");
                }
                *n += exact;
            }
        }
    }
    assert!(
        certified.iter().all(|&n| n > 0),
        "certified per library: {certified:?}"
    );
}

/// A library whose placement weights overstate every cost floor
/// (`rate_floor < effective_rate`): both links are length-capped, so
/// each amortizes a priced repeater,
/// and the trunk link is per-segment. With `mux_demux` a switch
/// undercuts the mux + demux pair, so the hub floor is the switch;
/// without, the switch star is the only topology.
fn capped_library(mux_demux: bool) -> Library {
    let mut b = Library::builder()
        .link(Link::per_length_capped(
            "radio",
            Bandwidth::from_mbps(11.0),
            30.0,
            2000.0,
        ))
        .link(Link::fixed_length(
            "fiber",
            Bandwidth::from_gbps(1.0),
            25.0,
            60_000.0,
        ))
        .node(NodeKind::Repeater, 4_000.0)
        .node(NodeKind::Switch, 5_000.0);
    if mux_demux {
        b = b
            .node(NodeKind::Mux, 3_000.0)
            .node(NodeKind::Demux, 3_000.0);
    }
    b.build().expect("valid library")
}

/// `g` with its ports and channels re-measured under `norm`.
fn with_norm(g: &ConstraintGraph, norm: Norm) -> ConstraintGraph {
    let mut b = ConstraintGraph::builder(norm);
    let ids: Vec<_> = g
        .ports()
        .map(|(_, p)| b.add_port(p.name.clone(), p.position))
        .collect();
    for (_, a) in g.arcs() {
        b.add_channel_limited(
            ids[a.src.index()],
            ids[a.dst.index()],
            a.bandwidth,
            a.max_hops,
        )
        .expect("valid channel");
    }
    b.build().expect("valid graph")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Seeded clustered WANs priced with the capped library and its
    /// switch-only variant under every norm: gate on vs off is
    /// result-identical where the weights overstate the floors, the node
    /// floor is a switch, and (switch-only) the star is the one topology.
    #[test]
    fn lb_gate_is_result_invariant_with_capped_links(
        seed in 1u64..1000,
        clusters in 2usize..4,
        channels in 4usize..10,
    ) {
        let cfg = ClusteredWanConfig { clusters, channels, seed, ..ClusteredWanConfig::default() };
        let g = clustered_wan(&cfg);
        for norm in Norm::ALL {
            for mux_demux in [true, false] {
                assert_gate_invariant(&with_norm(&g, norm), &capped_library(mux_demux));
            }
        }
    }

    /// Seeded clustered-WAN instances: gate on vs off is result-identical.
    #[test]
    fn lb_gate_is_result_invariant_on_wan(
        seed in 1u64..1000,
        clusters in 2usize..4,
        nodes in 2usize..4,
        channels in 4usize..10,
    ) {
        let cfg = ClusteredWanConfig {
            clusters,
            nodes_per_cluster: nodes,
            channels,
            seed,
            ..ClusteredWanConfig::default()
        };
        let g = clustered_wan(&cfg);
        assert_gate_invariant(&g, &wan_paper_library());
    }

    /// Seeded SoC floorplans (Manhattan norm, on-chip library): the same
    /// invariant holds on the other cost regime, where short wires cost
    /// nothing and the node floor dominates.
    #[test]
    fn lb_gate_is_result_invariant_on_soc(
        seed in 1u64..1000,
        modules in 4usize..9,
        channels in 5usize..12,
    ) {
        let cfg = SocConfig { modules, channels, seed, ..SocConfig::default() };
        let g = soc_floorplan(&cfg);
        assert_gate_invariant(&g, &soc_paper_library(1.0));
    }
}

/// On a clustered WAN the gate actually fires: equal-rate co-located
/// pairs have a lower bound meeting the dominance threshold, so some
/// placement solves are skipped — and each skipped subset saves one
/// mux+demux solve and one switch solve with the paper library.
#[test]
fn lb_gate_fires_on_clustered_wan() {
    let cfg = ClusteredWanConfig {
        clusters: 3,
        nodes_per_cluster: 3,
        channels: 12,
        seed: 20020610,
        ..ClusteredWanConfig::default()
    };
    let g = clustered_wan(&cfg);
    let gated = run(&g, &wan_paper_library(), true);
    assert!(
        gated.stats.lb_gated > 0,
        "expected the LB gate to skip at least one subset"
    );
    assert_eq!(
        gated.stats.solves_skipped,
        gated.stats.lb_gated as u64 * 2,
        "paper library has mux+demux and switch: two solves per subset"
    );
}
