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

/// The paper WAN under the Manhattan norm with `B.in_a1` moved to
/// `(1e307, 0)`: every distance stays finite, but arc a1's cheapest
/// plan costs more than an `f64` holds.
fn overflowing_cost_instance() -> String {
    let text = manhattan_wan_text();
    let moved = text.replace("port B.in_a1 5 0\n", "port B.in_a1 1e307 0\n");
    assert_ne!(moved, text, "the instance text changed its format");
    moved
}

fn manhattan_wan_text() -> String {
    ccs::gen::io::instance_to_string(&wan::paper_instance())
        .replace("norm euclidean", "norm manhattan")
}

#[test]
fn overflowing_cost_is_a_cli_error() {
    let dir = std::env::temp_dir().join(format!("ccs-robustness-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (inst, lib) = (dir.join("huge.ccs"), dir.join("lib.ccs"));
    std::fs::write(&inst, overflowing_cost_instance()).unwrap();
    std::fs::write(&lib, ccs::gen::io::library_to_string(&wan::paper_library())).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccs"))
        .arg("synth")
        .arg("--instance")
        .arg(&inst)
        .arg("--library")
        .arg(&lib)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("arc a1 has no finite-cost implementation"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overflowing_cost_edit_errors_and_session_survives() {
    let g = ccs::gen::io::instance_from_str(&manhattan_wan_text()).unwrap();
    let lib = wan::paper_library();
    let mut session = SynthesisSession::new(g.clone(), lib.clone(), SynthesisConfig::default());
    session.resynthesize(&[]).expect("cold fill");
    let port = |s: &SynthesisSession| s.graph().port(PortId(1)).clone();
    let home = port(&session);
    let err = session
        .resynthesize(&[Edit::MovePort {
            port: home.name.clone(),
            position: Point2::new(1e307, 0.0),
        }])
        .expect_err("cost overflows");
    assert_eq!(err, SynthesisError::NonFiniteCost(ArcId(0)));
    // Moving the port back re-synthesizes exactly like a cold run.
    let warm = session
        .resynthesize(&[Edit::MovePort {
            port: home.name.clone(),
            position: home.position,
        }])
        .expect("session still usable");
    let cold = Synthesizer::new(&g, &lib).run().expect("cold run");
    assert_eq!(warm.selected, cold.selected);
    assert_eq!(warm.total_cost().to_bits(), cold.total_cost().to_bits());
}

#[test]
fn overflowing_cost_request_errors_and_serve_keeps_serving() {
    use ccs::obs::json::{self, Value};
    use ccs::serve::{ServeConfig, Server, REQUEST_SCHEMA};
    use std::io::{BufRead, BufReader, Write};

    let server = Server::bind(ServeConfig {
        listen: Some("127.0.0.1:0".to_string()),
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());
    let library = ccs::gen::io::library_to_string(&wan::paper_library());
    let line = |id: &str, kind: &str, instance: Option<String>| {
        let mut obj = std::collections::BTreeMap::new();
        obj.insert("schema".to_string(), Value::Str(REQUEST_SCHEMA.to_string()));
        obj.insert("id".to_string(), Value::Str(id.to_string()));
        obj.insert("kind".to_string(), Value::Str(kind.to_string()));
        if let Some(instance) = instance {
            obj.insert("instance".to_string(), Value::Str(instance));
            obj.insert("library".to_string(), Value::Str(library.clone()));
        }
        let mut s = String::new();
        Value::Obj(obj).write_compact(&mut s);
        s
    };
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    // Both requests queue behind the one worker.
    let bad = Some(overflowing_cost_instance());
    writeln!(writer, "{}", line("bad", "synth", bad)).unwrap();
    let good = Some(ccs::gen::io::instance_to_string(&wan::paper_instance()));
    writeln!(writer, "{}", line("good", "synth", good)).unwrap();
    let mut responses = std::collections::BTreeMap::new();
    for _ in 0..2 {
        let mut buf = String::new();
        assert!(reader.read_line(&mut buf).unwrap() > 0, "peer closed");
        let v = json::parse(buf.trim_end()).unwrap();
        let id = v.get("id").and_then(Value::as_str).unwrap().to_string();
        responses.insert(id, v);
    }
    let status = |id: &str| responses[id].get("status").and_then(Value::as_str).unwrap();
    assert_eq!(status("bad"), "error");
    let message = responses["bad"]
        .get("error")
        .and_then(Value::as_str)
        .unwrap_or("");
    assert!(
        message.contains("no finite-cost implementation"),
        "{message}"
    );
    assert_eq!(status("good"), "ok");
    writeln!(writer, "{}", line("bye", "shutdown", None)).unwrap();
    let summary = handle.join().unwrap();
    assert_eq!(summary.errors, 1);
}
