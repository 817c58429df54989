//! Robustness and failure-injection tests across crates: the verifier and
//! the simulator must catch broken architectures, and the public model
//! layer must lower cleanly.

use ccs::core::check::{verify, Violation};
use ccs::core::implementation::ImplementationGraph;
use ccs::core::model::SystemSpec;
use ccs::core::placement::point_to_point_candidate;
use ccs::core::synthesis::Synthesizer;
use ccs::gen::wan;
use ccs::netsim::NetSim;
use ccs::prelude::*;

fn wan_synthesis() -> (
    ccs::core::constraint::ConstraintGraph,
    Library,
    ImplementationGraph,
) {
    let g = wan::paper_instance();
    let lib = wan::paper_library();
    let imp = Synthesizer::new(&g, &lib)
        .run()
        .expect("synthesis")
        .implementation;
    (g, lib, imp)
}

#[test]
fn verifier_catches_missing_arc() {
    let (g, lib, _) = wan_synthesis();
    // Build an architecture implementing only the first arc.
    let only_first = vec![point_to_point_candidate(&g, &lib, 0).expect("feasible")];
    let broken = ImplementationGraph::build(&g, &lib, &only_first);
    let violations = verify(&g, &lib, &broken);
    assert!(violations
        .iter()
        .any(|v| matches!(v, Violation::MissingRoute(_))));
    // Seven arcs are unimplemented.
    assert_eq!(
        violations
            .iter()
            .filter(|v| matches!(v, Violation::MissingRoute(_)))
            .count(),
        7
    );
}

#[test]
fn verifier_catches_underprovisioned_bandwidth() {
    let (_, lib, imp) = wan_synthesis();
    // Re-verify the same architecture against a hotter demand set.
    let mut b = ConstraintGraph::builder(Norm::Euclidean);
    for (i, &(src, dst)) in wan::ARCS.iter().enumerate() {
        let out = b.add_port(
            format!("{}.out{}", wan::NODE_NAMES[src], i),
            Point2::new(wan::NODES[src].0, wan::NODES[src].1),
        );
        let inp = b.add_port(
            format!("{}.in{}", wan::NODE_NAMES[dst], i),
            Point2::new(wan::NODES[dst].0, wan::NODES[dst].1),
        );
        b.add_channel(out, inp, Bandwidth::from_gbps(2.0)).unwrap();
    }
    let hot = b.build().unwrap();
    let violations = verify(&hot, &lib, &imp);
    assert!(violations
        .iter()
        .any(|v| matches!(v, Violation::InsufficientBandwidth { .. })));
}

#[test]
fn every_single_group_failure_is_detected() {
    let (g, _, imp) = wan_synthesis();
    let baseline = NetSim::new(&g, &imp).run();
    assert!(baseline.all_satisfied());
    for group in 0..imp.group_count() {
        let failed = NetSim::new(&g, &imp).with_failed_group(group).run();
        assert!(
            failed.unsatisfied().count() >= 1,
            "failing group {group} went unnoticed"
        );
    }
}

#[test]
fn system_spec_lowers_and_synthesizes() {
    let mut spec = SystemSpec::new(Norm::Euclidean);
    let hub = spec.add_module("hub", Point2::new(0.0, 0.0));
    for i in 0..4 {
        let leaf = spec.add_module(
            format!("leaf{i}"),
            Point2::new(10.0 + i as f64, 5.0 * i as f64),
        );
        spec.connect(hub, leaf, Bandwidth::from_mbps(5.0));
        spec.connect(leaf, hub, Bandwidth::from_mbps(2.0));
    }
    let g = spec.to_constraint_graph().expect("lowering succeeds");
    assert_eq!(g.arc_count(), 8);
    let lib = wan::paper_library();
    let r = Synthesizer::new(&g, &lib).run().expect("synthesis");
    assert!(verify(&g, &lib, &r.implementation).is_empty());
    let sim = NetSim::new(&g, &r.implementation).run();
    assert!(sim.all_satisfied());
}

#[test]
fn assumption_check_rejects_zero_cost_arcs() {
    // The monotonicity half of Assumption 2.1 holds by construction for
    // any library (the per-arc optimum is a min of functions that are
    // non-decreasing in distance and bandwidth), so the reachable
    // violation is `C(P(a)) = 0`: a channel shorter than the critical
    // length costs nothing under the on-chip library (wire free, no
    // repeater needed). The check must flag it.
    let lib = ccs::core::library::soc_paper_library(0.6);
    let mut b = ConstraintGraph::builder(Norm::Manhattan);
    let a = b.add_port("a", Point2::new(0.0, 0.0));
    let c = b.add_port("b", Point2::new(0.3, 0.0)); // below l_crit → free
    b.add_channel(a, c, Bandwidth::from_mbps(100.0)).unwrap();
    let g = b.build().unwrap();

    let cfg = ccs::core::synthesis::SynthesisConfig {
        check_assumption: true,
        ..Default::default()
    };
    let err = Synthesizer::new(&g, &lib)
        .with_config(cfg)
        .run()
        .expect_err("zero-cost arc detected");
    assert!(matches!(
        err,
        ccs::core::error::SynthesisError::AssumptionViolated(_, _)
    ));

    // Without the opt-in check the pipeline still works (the covering
    // matrix clamps zero weights).
    let ok = Synthesizer::new(&g, &lib)
        .run()
        .expect("synthesis succeeds");
    assert_eq!(ok.total_cost(), 0.0);
}

#[test]
fn dot_exports_are_well_formed() {
    let (_, _, imp) = wan_synthesis();
    let dot = imp.to_dot("wan");
    assert!(dot.starts_with("digraph wan {"));
    assert_eq!(dot.matches("->").count(), imp.graph().edge_count());
}

#[test]
fn multi_lane_trunk_merge_builds_verifies_and_simulates() {
    // Three 600 Mb/s channels into one node: the merged trunk needs
    // 1800 Mb/s, i.e. two optical lanes — duplication nested inside a
    // merging. Theorem 3.2 assumes a single-link common path and would
    // prune this subset (DESIGN.md §3.5), so the bandwidth prune is
    // disabled; the builder, verifier and both simulators must agree.
    let mut b = ConstraintGraph::builder(Norm::Euclidean);
    let a = b.add_port("A", Point2::new(0.0, 0.0));
    let c = b.add_port("B", Point2::new(5.0, 0.0));
    let e = b.add_port("C", Point2::new(-2.8, 4.6));
    let d = b.add_port("D", Point2::new(64.8, 76.4));
    for src in [a, c, e] {
        b.add_channel(src, d, Bandwidth::from_mbps(600.0)).unwrap();
    }
    let g = b.build().unwrap();
    let lib = wan::paper_library();
    let mut cfg = ccs::core::synthesis::SynthesisConfig::default();
    cfg.merge.bandwidth_prune = false;
    let r = Synthesizer::new(&g, &lib)
        .with_config(cfg)
        .run()
        .expect("synthesis succeeds");

    // The three channels merge and the trunk is duplicated.
    let merged = r
        .selected
        .iter()
        .find(|cand| cand.arcs.len() == 3)
        .expect("3-way merge selected");
    let trunk = merged
        .segments
        .iter()
        .find(|s| {
            s.from == ccs::core::placement::Endpoint::HubA
                && s.to == ccs::core::placement::Endpoint::HubB
        })
        .expect("trunk exists");
    assert_eq!(trunk.plan.lanes, 2, "trunk must duplicate");
    assert!(r.total_cost() < r.stats.p2p_cost);

    // Structure: the duplication adds its own demux/mux pair around the
    // trunk lanes, on top of the merge's hub pair.
    assert!(verify(&g, &lib, &r.implementation).is_empty());
    assert_eq!(r.implementation.count_nodes(NodeKind::Mux), 2);
    assert_eq!(r.implementation.count_nodes(NodeKind::Demux), 2);

    // Both simulators deliver all demands.
    let fluid = NetSim::new(&g, &r.implementation).run();
    assert!(fluid.all_satisfied());
    let cfg = ccs::netsim::packet::PacketSimConfig {
        packet_bits: 65_536.0,
        horizon_us: 4_000.0,
        ..Default::default()
    };
    let packets = ccs::netsim::packet::simulate(&g, &r.implementation, &cfg);
    assert!(packets.meets_demands(&g, &cfg), "{packets:#?}");
}

#[test]
fn synthesis_is_deterministic() {
    // Same inputs → identical architectures, costs, and rendered reports
    // (reproducibility is a headline claim of this repository).
    let g = wan::paper_instance();
    let lib = wan::paper_library();
    let a = Synthesizer::new(&g, &lib).run().expect("first run");
    let b = Synthesizer::new(&g, &lib).run().expect("second run");
    assert_eq!(a.total_cost(), b.total_cost());
    assert_eq!(
        ccs::core::report::selection_summary(&a, &g, &lib),
        ccs::core::report::selection_summary(&b, &g, &lib)
    );
    assert_eq!(a.implementation.to_dot("x"), b.implementation.to_dot("x"));
}

/// Finite coordinates of 1e300 overflow the Euclidean arc distance to
/// infinity. Every path that builds a constraint graph must reject that
/// with a typed error rather than panic in point-to-point planning.
#[test]
fn overflowing_distance_is_a_builder_error() {
    use ccs::core::error::BuildError;
    let mut b = ConstraintGraph::builder(Norm::Euclidean);
    let p0 = b.add_port("A", Point2::ORIGIN);
    let p1 = b.add_port("B", Point2::new(1e300, 1e300));
    assert_eq!(
        b.add_channel(p0, p1, Bandwidth::from_mbps(10.0)),
        Err(BuildError::NonFiniteDistance(p0, p1))
    );
}

#[test]
fn overflowing_distance_is_a_parse_error() {
    let text = "ccs-instance v1\nnorm euclidean\nport A 0 0\nport B 1e300 1e300\nchannel 0 1 10\n";
    let err = ccs::gen::io::instance_from_str(text).expect_err("distance overflows");
    assert!(err.message.contains("too far apart"), "{err}");
}

#[test]
fn overflowing_port_move_is_rejected_and_session_survives() {
    let g = wan::paper_instance();
    let lib = wan::paper_library();
    let mut session = SynthesisSession::new(g, lib, SynthesisConfig::default());
    let before = session.resynthesize(&[]).expect("cold fill");
    let port = session.graph().port(PortId(1)).name.clone();
    let err = session
        .resynthesize(&[Edit::MovePort {
            port,
            position: Point2::new(1e300, 1e300),
        }])
        .expect_err("distance overflows");
    assert!(matches!(err, SynthesisError::InvalidEdit(_)), "{err}");
    // The rejected edit left the session untouched and usable.
    let after = session.resynthesize(&[]).expect("session still usable");
    assert_eq!(after.selected, before.selected);
    assert_eq!(after.total_cost().to_bits(), before.total_cost().to_bits());
}
