//! Independent verification of an implementation graph against its
//! constraint graph (the conditions of Def. 2.4).
//!
//! [`verify`] trusts nothing the synthesizer computed except the graph
//! structure itself: it re-walks every recorded route, re-measures every
//! edge, re-derives lane-group capacities and re-checks them against the
//! constraint bandwidths. An empty violation list certifies the
//! architecture.

use crate::constraint::{ArcId, ConstraintGraph};
use crate::implementation::{EdgeKind, ImplEdge, ImplementationGraph};
use crate::library::Library;
use crate::units::Bandwidth;
use std::collections::HashMap;
use std::fmt;

/// Relative tolerance for geometric comparisons.
const TOL: f64 = 1e-6;

/// A verification failure.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// No route was recorded for a constraint arc.
    MissingRoute(ArcId),
    /// A route does not start at `χ(u)` or end at `χ(v)`.
    WrongEndpoints(ArcId),
    /// A route passes through another computational vertex (Def. 2.4
    /// item 1 forbids it).
    ThroughComputational(ArcId),
    /// Two consecutive route vertices are not connected by an edge.
    BrokenRoute(ArcId),
    /// A lane group's aggregate capacity is below its demand.
    InsufficientBandwidth {
        /// The lane group.
        group: u32,
        /// Aggregate demand routed over the group.
        demand: Bandwidth,
        /// Aggregate capacity (lanes × link bandwidth).
        capacity: Bandwidth,
    },
    /// An edge is longer than its link's maximum span.
    LinkTooLong {
        /// Lane group of the offending edge.
        group: u32,
        /// Edge length.
        length: f64,
        /// The link's maximum.
        max: f64,
    },
    /// An edge's recorded length disagrees with its endpoint positions.
    LengthMismatch {
        /// Lane group of the offending edge.
        group: u32,
        /// Recorded length.
        recorded: f64,
        /// Geometric distance between the endpoints.
        measured: f64,
    },
    /// A communication node's connectivity contradicts its kind (e.g. a
    /// repeater with fan-out, a mux merging a single stream).
    BadNodeDegree {
        /// The node kind.
        kind: crate::library::NodeKind,
        /// Incoming edges (links and attachments).
        ins: usize,
        /// Outgoing edges.
        outs: usize,
    },
    /// A route uses more link hops than the channel's bound allows.
    TooManyHops {
        /// The constrained arc.
        arc: ArcId,
        /// Link hops along the implemented route.
        hops: u32,
        /// The channel's bound.
        max: u32,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MissingRoute(a) => write!(f, "arc {a} has no route"),
            Violation::WrongEndpoints(a) => write!(f, "route of arc {a} has wrong endpoints"),
            Violation::ThroughComputational(a) => {
                write!(f, "route of arc {a} passes through a computational vertex")
            }
            Violation::BrokenRoute(a) => write!(f, "route of arc {a} is disconnected"),
            Violation::InsufficientBandwidth {
                group,
                demand,
                capacity,
            } => write!(
                f,
                "lane group {group}: demand {demand} exceeds capacity {capacity}"
            ),
            Violation::LinkTooLong { group, length, max } => {
                write!(
                    f,
                    "lane group {group}: edge length {length} exceeds link max {max}"
                )
            }
            Violation::LengthMismatch {
                group,
                recorded,
                measured,
            } => write!(
                f,
                "lane group {group}: recorded length {recorded} but endpoints are {measured} apart"
            ),
            Violation::BadNodeDegree { kind, ins, outs } => {
                write!(f, "{kind} node with in-degree {ins}, out-degree {outs}")
            }
            Violation::TooManyHops { arc, hops, max } => {
                write!(f, "arc {arc}: route uses {hops} hops, bound is {max}")
            }
        }
    }
}

/// Verifies `imp` against `graph` and `library`; returns all violations
/// found (empty = the architecture satisfies every constraint).
pub fn verify(
    graph: &ConstraintGraph,
    library: &Library,
    imp: &ImplementationGraph,
) -> Vec<Violation> {
    let mut out = Vec::new();
    verify_routes(graph, imp, &mut out);
    verify_capacities(graph, imp, &mut out);
    verify_geometry(library, imp, &mut out);
    verify_node_degrees(imp, &mut out);
    out
}

/// Structural sanity of communication nodes: a repeater relays exactly
/// one stream, a mux merges at least two, a demux splits into at least
/// two, a switch does at least one of the two.
fn verify_node_degrees(imp: &ImplementationGraph, out: &mut Vec<Violation>) {
    use crate::implementation::ImplVertex;
    use crate::library::NodeKind;
    for (id, v) in imp.graph().nodes() {
        let ImplVertex::Communication { kind, .. } = v else {
            continue;
        };
        let ins = imp.graph().in_degree(id);
        let outs = imp.graph().out_degree(id);
        let ok = match kind {
            NodeKind::Repeater => ins == 1 && outs == 1,
            NodeKind::Mux => ins >= 2 && outs >= 1,
            NodeKind::Demux => ins >= 1 && outs >= 2,
            NodeKind::Switch => ins >= 1 && outs >= 1,
        };
        if !ok {
            out.push(Violation::BadNodeDegree {
                kind: *kind,
                ins,
                outs,
            });
        }
    }
}

fn verify_routes(graph: &ConstraintGraph, imp: &ImplementationGraph, out: &mut Vec<Violation>) {
    for (aid, arc) in graph.arcs() {
        let route = imp.route(aid);
        if route.len() < 2 {
            out.push(Violation::MissingRoute(aid));
            continue;
        }
        let src_v = imp.port_vertex(arc.src);
        let dst_v = imp.port_vertex(arc.dst);
        if route[0] != src_v || *route.last().expect("non-empty") != dst_v {
            out.push(Violation::WrongEndpoints(aid));
        }
        if route[1..route.len() - 1]
            .iter()
            .any(|&v| imp.graph().node(v).is_computational())
        {
            out.push(Violation::ThroughComputational(aid));
        }
        let mut hops = 0u32;
        for w in route.windows(2) {
            let edge = imp.graph().out_edges(w[0]).find(|(_, e)| e.dst == w[1]);
            match edge {
                None => {
                    out.push(Violation::BrokenRoute(aid));
                    break;
                }
                Some((_, e)) => {
                    if matches!(e.data.kind, crate::implementation::EdgeKind::Link(_)) {
                        hops += 1;
                    }
                }
            }
        }
        if let Some(max) = arc.max_hops {
            if hops > max {
                out.push(Violation::TooManyHops {
                    arc: aid,
                    hops,
                    max,
                });
            }
        }
    }
}

fn verify_capacities(graph: &ConstraintGraph, imp: &ImplementationGraph, out: &mut Vec<Violation>) {
    // Group edges by lane group; each group carries the same arc set over
    // `lanes` parallel chains of identical capacity.
    let mut groups: HashMap<u32, (&ImplEdge, Vec<usize>)> = HashMap::new();
    for (_, e) in imp.graph().edges() {
        if matches!(e.data.kind, EdgeKind::Link(_)) {
            groups
                .entry(e.data.lane_group)
                .or_insert_with(|| (&e.data, e.data.arcs.clone()));
        }
    }
    for (&g, &(edge, ref arcs)) in &groups {
        let demand: Bandwidth = arcs
            .iter()
            .map(|&i| graph.arc(ArcId(i as u32)).bandwidth)
            .sum();
        let capacity = edge.capacity * edge.lanes as f64;
        if demand.as_mbps() > capacity.as_mbps() * (1.0 + TOL) {
            out.push(Violation::InsufficientBandwidth {
                group: g,
                demand,
                capacity,
            });
        }
    }
}

fn verify_geometry(library: &Library, imp: &ImplementationGraph, out: &mut Vec<Violation>) {
    let norm = imp.norm();
    let mut reported: std::collections::HashSet<u32> = std::collections::HashSet::new();
    for (_, e) in imp.graph().edges() {
        let EdgeKind::Link(link_id) = e.data.kind else {
            continue;
        };
        let g = e.data.lane_group;
        let link = library.link(link_id);
        if e.data.length > link.max_length * (1.0 + TOL) && reported.insert(g) {
            out.push(Violation::LinkTooLong {
                group: g,
                length: e.data.length,
                max: link.max_length,
            });
        }
        let from = imp.graph().node(e.src).position();
        let to = imp.graph().node(e.dst).position();
        let measured = norm.distance(from, to);
        if (measured - e.data.length).abs() > TOL * (1.0 + e.data.length) && reported.insert(g) {
            out.push(Violation::LengthMismatch {
                group: g,
                recorded: e.data.length,
                measured,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintGraph;
    use crate::library::wan_paper_library;
    use crate::placement::{merge_candidate, point_to_point_candidate};
    use ccs_geom::{Norm, Point2};

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    fn graph_and_lib() -> (ConstraintGraph, Library) {
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let s0 = b.add_port("A", Point2::new(0.0, 0.0));
        let s1 = b.add_port("B", Point2::new(5.0, 0.0));
        let d = b.add_port("D", Point2::new(64.8, 76.4));
        b.add_channel(s0, d, mbps(10.0)).unwrap();
        b.add_channel(s1, d, mbps(10.0)).unwrap();
        (b.build().unwrap(), wan_paper_library())
    }

    #[test]
    fn valid_p2p_architecture_passes() {
        let (g, lib) = graph_and_lib();
        let cands = vec![
            point_to_point_candidate(&g, &lib, 0).unwrap(),
            point_to_point_candidate(&g, &lib, 1).unwrap(),
        ];
        let imp = ImplementationGraph::build(&g, &lib, &cands);
        assert_eq!(verify(&g, &lib, &imp), Vec::new());
    }

    #[test]
    fn valid_merged_architecture_passes() {
        let (g, lib) = graph_and_lib();
        let cand = merge_candidate(&g, &lib, &[0, 1]).unwrap().unwrap();
        let imp = ImplementationGraph::build(&g, &lib, &[cand]);
        assert_eq!(verify(&g, &lib, &imp), Vec::new());
    }

    #[test]
    fn missing_arc_detected() {
        let (g, lib) = graph_and_lib();
        // Implement only arc 0; arc 1 has no route.
        let cands = vec![point_to_point_candidate(&g, &lib, 0).unwrap()];
        let imp = ImplementationGraph::build(&g, &lib, &cands);
        let v = verify(&g, &lib, &imp);
        assert!(v.contains(&Violation::MissingRoute(ArcId(1))));
    }

    #[test]
    fn overloaded_trunk_detected() {
        // Force an undersized trunk by lying about the demand: implement
        // both arcs with a *pair* merge but raise one arc's bandwidth in
        // a second constraint graph used for verification.
        let (g, lib) = graph_and_lib();
        let cand = merge_candidate(&g, &lib, &[0, 1]).unwrap().unwrap();
        let imp = ImplementationGraph::build(&g, &lib, &[cand]);

        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let s0 = b.add_port("A", Point2::new(0.0, 0.0));
        let s1 = b.add_port("B", Point2::new(5.0, 0.0));
        let d = b.add_port("D", Point2::new(64.8, 76.4));
        b.add_channel(s0, d, mbps(10.0)).unwrap();
        // 2 Gb/s demand exceeds even the optical trunk.
        b.add_channel(s1, d, Bandwidth::from_gbps(2.0)).unwrap();
        let g_hot = b.build().unwrap();
        let v = verify(&g_hot, &lib, &imp);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::InsufficientBandwidth { .. })),
            "got {v:?}"
        );
    }

    #[test]
    fn degenerate_single_stream_mux_detected() {
        // Hand-build a pathological "merging" of one arc: the mux ends up
        // relaying a single stream, which the degree check must flag.
        let (g, lib) = graph_and_lib();
        let mut cand = crate::placement::merge_candidate(&g, &lib, &[0, 1])
            .unwrap()
            .unwrap();
        cand.arcs = vec![0];
        cand.segments = cand
            .segments
            .iter()
            .filter(|s| s.arcs == vec![0] || s.arcs.len() > 1)
            .cloned()
            .collect();
        let imp = ImplementationGraph::build(&g, &lib, std::slice::from_ref(&cand));
        let v = verify(&g, &lib, &imp);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::BadNodeDegree { .. })),
            "got {v:?}"
        );
    }

    #[test]
    fn hop_bound_violation_detected_post_hoc() {
        // Synthesize on an on-chip instance (segmentation → many hops),
        // then re-verify against a constraint set demanding 1 hop.
        let lib = crate::library::soc_paper_library(0.6);
        let mut b = ConstraintGraph::builder(ccs_geom::Norm::Manhattan);
        let s = b.add_port("s", Point2::new(0.0, 0.0));
        let t = b.add_port("t", Point2::new(2.0, 0.0));
        b.add_channel(s, t, mbps(100.0)).unwrap();
        let g = b.build().unwrap();
        let imp = crate::synthesis::Synthesizer::new(&g, &lib)
            .run()
            .unwrap()
            .implementation;
        assert!(verify(&g, &lib, &imp).is_empty());

        let mut b2 = ConstraintGraph::builder(ccs_geom::Norm::Manhattan);
        let s2 = b2.add_port("s", Point2::new(0.0, 0.0));
        let t2 = b2.add_port("t", Point2::new(2.0, 0.0));
        b2.add_channel_limited(s2, t2, mbps(100.0), Some(1))
            .unwrap();
        let tight = b2.build().unwrap();
        let v = verify(&tight, &lib, &imp);
        assert!(
            v.iter().any(|x| matches!(x, Violation::TooManyHops { .. })),
            "got {v:?}"
        );
    }

    #[test]
    fn violation_display_nonempty() {
        let v = Violation::InsufficientBandwidth {
            group: 3,
            demand: mbps(30.0),
            capacity: mbps(11.0),
        };
        assert!(v.to_string().contains("lane group 3"));
        assert!(!Violation::MissingRoute(ArcId(0)).to_string().is_empty());
    }
}
