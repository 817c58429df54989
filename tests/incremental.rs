//! Incremental re-synthesis properties: a `SynthesisSession` fed a
//! random edit sequence must land exactly where a cold run on the final
//! edited instance lands — byte-identical `ccs-topology-v1` documents,
//! at every thread count — and the `resynth.*` invalidation ledger must
//! be a pure function of the edits, not of scheduling.
//!
//! Edits are generated as raw opcodes and decoded against the session's
//! *current* graph right before application, so rate edits copy rates
//! that exist in the instance (always feasible against the library) and
//! moves perturb current positions.

use ccs::core::constraint::ConstraintGraph;
use ccs::core::library::Library;
use ccs::core::report::topology_json;
use ccs::core::synthesis::{Edit, SynthesisConfig, SynthesisSession, Synthesizer};
use ccs::core::units::Bandwidth;
use ccs::gen::random::{clustered_wan, soc_floorplan, ClusteredWanConfig, SocConfig};
use ccs::gen::wan;
use ccs::geom::Point2;
use ccs::obs::ledger::Cause;
use ccs::obs::scope::{self, RequestObs};
use proptest::prelude::*;

/// One raw edit opcode: (op, arc/port selector, secondary selector,
/// dx, dy). Decoded by [`decode`] against a concrete graph.
type RawEdit = (usize, usize, usize, i64, i64);

fn raw_edit_seqs() -> impl Strategy<Value = Vec<RawEdit>> {
    proptest::collection::vec(
        (0usize..4, 0usize..64, 0usize..64, -40i64..40, -40i64..40),
        1..5,
    )
}

fn wan_cfg_strategy() -> impl Strategy<Value = ClusteredWanConfig> {
    (1u64..1000, 2usize..4, 2usize..4, 4usize..9).prop_map(|(seed, clusters, nodes, channels)| {
        ClusteredWanConfig {
            clusters,
            nodes_per_cluster: nodes,
            channels,
            seed,
            ..ClusteredWanConfig::default()
        }
    })
}

/// Decodes one raw opcode into a concrete, feasible edit:
///
/// * op 0 — copy arc `j`'s rate onto arc `i` (the rate already
///   synthesizes against the library, so the edit stays feasible);
/// * op 1 — clear arc `i`'s hop bound;
/// * op 2 — set a generous hop bound (never binding for the generated
///   instances, but it dirties the arc and its candidates);
/// * op 3 — nudge a port by up to five units in each axis.
fn decode(graph: &ConstraintGraph, &(op, i, j, dx, dy): &RawEdit) -> Edit {
    let n = graph.arc_count();
    match op {
        0 => Edit::ArcRate {
            arc: i % n,
            bandwidth: graph.arcs().nth(j % n).expect("arc exists").1.bandwidth,
        },
        1 => Edit::ArcBound {
            arc: i % n,
            max_hops: None,
        },
        2 => Edit::ArcBound {
            arc: i % n,
            max_hops: Some(200 + (j % 100) as u32),
        },
        _ => {
            let ports: Vec<(String, Point2)> = graph
                .ports()
                .map(|(_, p)| (p.name.clone(), p.position))
                .collect();
            let (name, pos) = &ports[i % ports.len()];
            Edit::MovePort {
                port: name.clone(),
                position: Point2::new(pos.x + dx as f64 / 8.0, pos.y + dy as f64 / 8.0),
            }
        }
    }
}

fn session_config(threads: usize) -> SynthesisConfig {
    let mut cfg = SynthesisConfig {
        threads,
        ..Default::default()
    };
    cfg.merge.max_k = Some(3);
    cfg
}

/// Cold-fills a session, applies `raws` one edit per re-synthesis, and
/// returns the final warm `ccs-topology-v1` bytes plus the session's
/// final (graph, library) for the cold cross-check.
fn warm_bytes(
    graph: ConstraintGraph,
    library: Library,
    raws: &[RawEdit],
    threads: usize,
) -> (String, ConstraintGraph, Library) {
    let mut session = SynthesisSession::new(graph, library, session_config(threads));
    let mut last = session.resynthesize(&[]).expect("cold fill succeeds");
    for raw in raws {
        let edit = decode(session.graph(), raw);
        last = session.resynthesize(&[edit]).expect("warm edit succeeds");
    }
    let mut out = String::new();
    topology_json(&last, session.graph(), session.library()).write_pretty(&mut out, 0);
    (out, session.graph().clone(), session.library().clone())
}

fn cold_bytes(graph: &ConstraintGraph, library: &Library, threads: usize) -> String {
    let r = Synthesizer::new(graph, library)
        .with_config(session_config(threads))
        .run()
        .expect("cold run succeeds");
    let mut out = String::new();
    topology_json(&r, graph, library).write_pretty(&mut out, 0);
    out
}

/// Runs the same warm edit sequence under a scoped ledger and returns
/// the exact `resynth.invalidated` / `resynth.reused` event counts.
fn resynth_cause_counts(
    graph: ConstraintGraph,
    library: Library,
    raws: &[RawEdit],
    threads: usize,
) -> (u64, u64) {
    let obs = RequestObs::new(None, Some(4096));
    let guard = scope::enter(obs.clone());
    let mut session = SynthesisSession::new(graph, library, session_config(threads));
    session.resynthesize(&[]).expect("cold fill succeeds");
    for raw in raws {
        let edit = decode(session.graph(), raw);
        session.resynthesize(&[edit]).expect("warm edit succeeds");
    }
    drop(guard);
    let ledger = obs.take_ledger().expect("scoped ledger collected");
    (
        ledger.cause(Cause::ResynthInvalidated).count,
        ledger.cause(Cause::ResynthReused).count,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// After any edit sequence, the warm result renders byte-identically
    /// to a cold run on the final edited WAN instance — at one thread
    /// and at four, and identically across the two.
    #[test]
    fn wan_warm_is_byte_identical_to_cold(cfg in wan_cfg_strategy(), raws in raw_edit_seqs()) {
        let g = clustered_wan(&cfg);
        let lib = wan::paper_library();
        let (warm1, edited_g, edited_lib) = warm_bytes(g.clone(), lib.clone(), &raws, 1);
        prop_assert_eq!(&warm1, &cold_bytes(&edited_g, &edited_lib, 1));
        let (warm4, g4, lib4) = warm_bytes(g, lib, &raws, 4);
        prop_assert_eq!(&warm4, &cold_bytes(&g4, &lib4, 4));
        prop_assert_eq!(&warm1, &warm4);
        prop_assert!(warm1.contains("ccs-topology-v1"));
    }

    /// The same property on SoC floorplans (Manhattan norm, segmented
    /// wires where hop bounds actually count segments).
    #[test]
    fn soc_warm_is_byte_identical_to_cold(
        seed in 1u64..500,
        modules in 4usize..8,
        channels in 3usize..8,
        raws in raw_edit_seqs(),
    ) {
        let g = soc_floorplan(&SocConfig { modules, channels, seed, ..SocConfig::default() });
        let lib = ccs::core::library::soc_paper_library(0.6);
        let (warm1, edited_g, edited_lib) = warm_bytes(g.clone(), lib.clone(), &raws, 1);
        prop_assert_eq!(&warm1, &cold_bytes(&edited_g, &edited_lib, 1));
        let (warm4, _, _) = warm_bytes(g, lib, &raws, 4);
        prop_assert_eq!(&warm1, &warm4);
    }

    /// The invalidation ledger (exact per-cause counts) depends only on
    /// the edit sequence, never on the thread count: the dirty-region
    /// computation is serial by construction.
    #[test]
    fn invalidation_ledger_is_thread_count_invariant(
        cfg in wan_cfg_strategy(),
        raws in raw_edit_seqs(),
    ) {
        let g = clustered_wan(&cfg);
        let lib = wan::paper_library();
        let serial = resynth_cause_counts(g.clone(), lib.clone(), &raws, 1);
        let parallel = resynth_cause_counts(g, lib, &raws, 4);
        prop_assert_eq!(serial, parallel);
        // Warm runs after an edit must actually reuse something: every
        // generated instance has more than one arc, so at least one
        // subset survives any single-arc dirty region.
        prop_assert!(serial.1 > 0, "no resynth.reused events recorded");
    }
}

/// A library swap invalidates every cached candidate: the reuse counter
/// stays at zero on the next warm run and the ledger records the purge.
/// A library-API session bounds its private placement cache: a long
/// stream of edits that keep pricing fresh demands evicts (with the
/// same deterministic policy as `ccs serve`) instead of growing without
/// limit, and the warm result still equals a cold run.
#[test]
fn long_edit_stream_keeps_the_session_cache_bounded() {
    let cfg = ClusteredWanConfig {
        seed: 7,
        channels: 8,
        ..ClusteredWanConfig::default()
    };
    let mut session =
        SynthesisSession::new(clustered_wan(&cfg), wan::paper_library(), session_config(2));
    let cache = session
        .config()
        .shared_cache
        .clone()
        .expect("the session installs a private cache");
    assert!(cache.capacity() < usize::MAX, "session cache is bounded");
    session.resynthesize(&[]).expect("cold fill succeeds");
    let n = session.graph().arc_count();
    let mut fresh = 0usize;
    while cache.evictions() == 0 {
        assert!(fresh < 4 * cache.capacity(), "the cache never evicted");
        // Every arc gets a rate no earlier step used, so each re-run
        // prices a new demand per arc and per surviving subset.
        let edits: Vec<Edit> = (0..n)
            .map(|arc| {
                fresh += 1;
                Edit::ArcRate {
                    arc,
                    bandwidth: Bandwidth::from_mbps(2.0 + fresh as f64 * 1e-4),
                }
            })
            .collect();
        session.resynthesize(&edits).expect("warm edit succeeds");
        assert!(cache.len() <= cache.capacity());
    }
    let last = session.resynthesize(&[]).expect("warm re-run succeeds");
    let mut warm = String::new();
    topology_json(&last, session.graph(), session.library()).write_pretty(&mut warm, 0);
    assert_eq!(warm, cold_bytes(session.graph(), session.library(), 2));
}

#[test]
fn library_swap_invalidates_everything() {
    let cfg = ClusteredWanConfig {
        seed: 77,
        channels: 8,
        ..ClusteredWanConfig::default()
    };
    let g = clustered_wan(&cfg);
    let obs = RequestObs::new(None, Some(4096));
    let guard = scope::enter(obs.clone());
    let mut session = SynthesisSession::new(g, wan::paper_library(), session_config(1));
    session.resynthesize(&[]).expect("cold fill");
    let swapped = Edit::SetLibrary(wan::paper_library());
    let r = session.resynthesize(&[swapped]).expect("library swap");
    drop(guard);
    assert_eq!(r.stats.counters.get("resynth.p2p_reused"), Some(&0));
    assert_eq!(r.stats.counters.get("resynth.verdicts_reused"), Some(&0));
    let ledger = obs.take_ledger().expect("ledger");
    assert!(ledger.cause(Cause::ResynthInvalidated).count > 0);
}

/// A warm run whose edit leaves most subsets clean reuses the verdicts
/// the placement kernel certified in the cold fill, and still lands
/// exactly where a cold run on the edited instance lands — the same
/// topology bytes and the same placement accounting.
#[test]
fn warm_run_reusing_certified_verdicts_matches_cold() {
    let cfg = ClusteredWanConfig {
        seed: 42,
        channels: 12,
        ..ClusteredWanConfig::default()
    };
    let mut config = session_config(2);
    config.merge.max_k = Some(4);
    let obs = RequestObs::new(None, Some(4096));
    let guard = scope::enter(obs.clone());
    let mut session =
        SynthesisSession::new(clustered_wan(&cfg), wan::paper_library(), config.clone());
    let fill = session.resynthesize(&[]).expect("cold fill");
    assert!(
        fill.stats.lb_certified > 0,
        "the kernel certifies on this WAN"
    );
    let edit = Edit::ArcRate {
        arc: 2,
        bandwidth: Bandwidth::from_mbps(25.0),
    };
    let warm = session.resynthesize(&[edit]).expect("warm edit");
    drop(guard);
    let ledger = obs.take_ledger().expect("scoped ledger collected");
    assert!(
        ledger
            .cause(Cause::ResynthReused)
            .events()
            .any(|e| e.detail_tag("via") == Some("kernel")),
        "the warm run reuses a certified verdict"
    );

    let cold = Synthesizer::new(session.graph(), session.library())
        .with_config(config)
        .run()
        .expect("cold run");
    let render = |r: &ccs::core::synthesis::SynthesisResult| {
        let mut out = String::new();
        topology_json(r, session.graph(), session.library()).write_pretty(&mut out, 0);
        out
    };
    assert_eq!(render(&warm), render(&cold));
    assert_eq!(warm.candidates, cold.candidates);
    for (w, c) in [
        (warm.stats.lb_certified, cold.stats.lb_certified),
        (warm.stats.lb_gated, cold.stats.lb_gated),
        (warm.stats.dominated_dropped, cold.stats.dominated_dropped),
        (warm.stats.infeasible_merges, cold.stats.infeasible_merges),
    ] {
        assert_eq!(w, c);
    }
}
