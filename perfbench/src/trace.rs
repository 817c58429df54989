//! Outside-timed spans and the traced replay of the synthesis pipeline.
//!
//! The replay calls the pipeline's public layer functions in
//! `Synthesizer::run` order, over the same `Executor` fan-out, and
//! records one span per layer call. Nothing inside the program is
//! instrumented: a span brackets the benchmark's own call into a layer.

use ccs::core::constraint::ConstraintGraph;
use ccs::core::cover::select_seeded_on;
use ccs::core::error::SynthesisError;
use ccs::core::implementation::ImplementationGraph;
use ccs::core::library::Library;
use ccs::core::matrices::DistanceMatrices;
use ccs::core::merging::enumerate_with;
use ccs::core::placement::{
    merge_candidate_explained, merge_cost_lower_bound, point_to_point_candidate, Candidate,
    InfeasibleReason, PlacementCache,
};
use ccs::core::synthesis::{SynthesisConfig, SynthesisResult};
use ccs::exec::Executor;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One recorded span. Spans of one operation share `op`.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u32,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store; written out once, at the end of a run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    op_kinds: Vec<&'static str>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            op_kinds: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts an operation of `kind` and opens its root span.
    pub fn begin_op(&mut self, kind: &'static str) -> (u32, usize) {
        let op = self.op_kinds.len() as u32;
        self.op_kinds.push(kind);
        let root = self.open(op, None, kind);
        (op, root)
    }

    pub fn open(&mut self, op: u32, parent: Option<usize>, name: &'static str) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            op,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.now();
        let s = &mut self.spans[id];
        s.end_ns = end;
        end - s.start_ns
    }

    /// Each span's duration minus the part of it its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Summed self time per span name over the operations whose kind
    /// `keep` accepts.
    pub fn self_by_name(&self, keep: impl Fn(&str) -> bool) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            if keep(self.op_kinds[s.op as usize]) {
                *out.entry(s.name).or_insert(0) += t;
            }
        }
        out
    }

    /// The spans as JSON lines, after a `header` line.
    pub fn to_jsonl(&self, header: &str) -> String {
        let mut out = String::with_capacity(96 * (self.spans.len() + 1));
        out.push_str(header);
        out.push('\n');
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"op\":{},\"kind\":\"{}\",\"span\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, self.op_kinds[s.op as usize], s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Work counts of the pipeline layers, summed over replayed operations.
#[derive(Debug, Default, Clone)]
pub struct PipelineCounts {
    pub ops: u64,
    pub p2p_calls: u64,
    pub examined: u64,
    pub survivors: u64,
    pub lb_calls: u64,
    pub lb_gated: u64,
    pub solves: u64,
    pub kept: u64,
    pub dominated: u64,
    pub solve_ns: u64,
    pub cols: u64,
    pub nodes: u64,
    pub bound_prunes: u64,
    pub subtrees: u64,
    pub proven: u64,
    /// Summed worker busy time of the executor sweeps.
    pub busy_ns: u64,
    /// Summed `threads × wall` of the same sweeps.
    pub capacity_ns: u64,
}

/// What the replay produced, for the fidelity check.
pub struct Replayed {
    pub candidates: usize,
    pub cost: f64,
    pub implementation: ImplementationGraph,
}

/// Trace fidelity: a replay must reproduce `Synthesizer::run`'s
/// candidate count and cost bits.
pub fn same_as_cold(
    cold: &Result<SynthesisResult, SynthesisError>,
    replayed: &Result<Replayed, SynthesisError>,
) -> bool {
    match (cold, replayed) {
        (Ok(c), Ok(r)) => {
            c.candidates.len() == r.candidates && c.total_cost().to_bits() == r.cost.to_bits()
        }
        _ => false,
    }
}

pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Replays `Synthesizer::run` (cold, no session) layer by layer under
/// `parent`, recording one span per layer call and the layer counts.
pub fn traced_synth(
    tr: &mut Tracer,
    op: u32,
    parent: usize,
    graph: &ConstraintGraph,
    library: &Library,
    cfg: &SynthesisConfig,
    counts: &mut PipelineCounts,
) -> Result<Replayed, SynthesisError> {
    let exec = Executor::new(cfg.threads);
    let threads = exec.threads() as u64;
    let n = graph.arc_count();
    counts.ops += 1;

    let span = tr.open(op, Some(parent), "p2p");
    let arcs: Vec<usize> = (0..n).collect();
    let (p2p, st) = exec.par_map_stats(&arcs, |_, &i| point_to_point_candidate(graph, library, i));
    let mut candidates = p2p.into_iter().collect::<Result<Vec<Candidate>, _>>()?;
    let wall = tr.close(span);
    counts.p2p_calls += n as u64;
    counts.busy_ns += nanos(st.busy);
    counts.capacity_ns += threads * wall;

    let span = tr.open(op, Some(parent), "matrices");
    let matrices = DistanceMatrices::compute(graph);
    tr.close(span);

    let span = tr.open(op, Some(parent), "merging");
    let enumeration = enumerate_with(graph, library, &matrices, &cfg.merge, &exec);
    let wall = tr.close(span);
    counts.examined += enumeration
        .stats
        .levels
        .iter()
        .map(|l| l.examined)
        .sum::<u64>();
    counts.survivors += enumeration.candidate_count() as u64;
    counts.busy_ns += nanos(enumeration.stats.exec.busy);
    counts.capacity_ns += threads * wall;

    let span = tr.open(op, Some(parent), "placement");
    enum Placed {
        Gated,
        Done(Result<Candidate, InfeasibleReason>),
    }
    let subsets: Vec<&Vec<usize>> = enumeration.all_subsets().collect();
    let cache = cfg
        .shared_cache
        .clone()
        .unwrap_or_else(|| Arc::new(PlacementCache::new()));
    let lb_gate = cfg.merge.lb_gate && !cfg.keep_dominated;
    let lb_calls = AtomicU64::new(0);
    let solve_ns = AtomicU64::new(0);
    let member_sum = |s: &[usize]| -> f64 { s.iter().map(|&i| candidates[i].cost).sum() };
    let (placed, st) = exec.par_map_stats(&subsets, |_, s| {
        if lb_gate {
            lb_calls.fetch_add(1, Ordering::Relaxed);
            let lb = merge_cost_lower_bound(graph, library, s, &cache);
            if lb >= member_sum(s) * (1.0 - 1e-6) - 1e-12 {
                return Ok(Placed::Gated);
            }
        }
        let t = Instant::now();
        let r = merge_candidate_explained(graph, library, s, &cache);
        solve_ns.fetch_add(nanos(t.elapsed()), Ordering::Relaxed);
        r.map(Placed::Done)
    });
    let mut kept = Vec::new();
    for (subset, r) in subsets.iter().zip(placed) {
        match r? {
            Placed::Gated => counts.lb_gated += 1,
            Placed::Done(Err(_)) => counts.solves += 1,
            Placed::Done(Ok(c)) => {
                counts.solves += 1;
                if !cfg.keep_dominated && c.cost >= member_sum(subset) * (1.0 - 1e-6) - 1e-12 {
                    counts.dominated += 1;
                } else {
                    counts.kept += 1;
                    kept.push(c);
                }
            }
        }
    }
    candidates.extend(kept);
    let wall = tr.close(span);
    counts.lb_calls += lb_calls.into_inner();
    counts.solve_ns += solve_ns.into_inner();
    counts.busy_ns += nanos(st.busy);
    counts.capacity_ns += threads * wall;

    let span = tr.open(op, Some(parent), "covering");
    let outcome = select_seeded_on(&candidates, n, cfg.cover, None, &exec)?;
    tr.close(span);
    counts.cols += outcome.cols as u64;
    if let Some(s) = &outcome.stats {
        counts.nodes += s.nodes;
        counts.bound_prunes += s.bound_prunes;
        counts.subtrees += s.subtrees;
        counts.proven += u64::from(s.proven_optimal);
    }
    let selected: Vec<Candidate> = outcome
        .selected
        .iter()
        .map(|&i| candidates[i].clone())
        .collect();

    let span = tr.open(op, Some(parent), "assembly");
    let implementation = ImplementationGraph::build(graph, library, &selected);
    tr.close(span);

    Ok(Replayed {
        candidates: candidates.len(),
        cost: implementation.total_cost(),
        implementation,
    })
}

/// A named metric value with its unit.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

pub fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_string(), (value, unit));
}

/// Per-op means of the pipeline layers' self times and counts, over the
/// operations of the kinds `keep` accepts.
pub fn pipeline_metrics(
    tr: &Tracer,
    keep: impl Fn(&str) -> bool,
    c: &PipelineCounts,
    m: &mut Metrics,
) {
    use crate::stats::ratio;
    let self_ns = tr.self_by_name(&keep);
    let ops = c.ops.max(1) as f64;
    let ms = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let per_op = |x: u64| x as f64 / ops;
    // Everything the kept operations spent, the op roots' own glue
    // included: the base of the layer shares.
    let op_ms: f64 = self_ns.values().sum::<u64>() as f64 / 1e6;
    put(m, "p2p.self_ms", ms("p2p") / ops, "ms");
    put(m, "p2p.calls", per_op(c.p2p_calls), "count");
    put(m, "matrices.self_ms", ms("matrices") / ops, "ms");
    put(m, "merging.self_ms", ms("merging") / ops, "ms");
    put(m, "merging.examined", per_op(c.examined), "count");
    put(m, "merging.survivors", per_op(c.survivors), "count");
    put(
        m,
        "merging.survivor_ratio",
        ratio(c.survivors as f64, c.examined as f64),
        "ratio",
    );
    put(m, "placement.self_ms", ms("placement") / ops, "ms");
    put(
        m,
        "placement.self_share",
        ratio(ms("placement"), op_ms),
        "ratio",
    );
    put(m, "placement.lb_calls", per_op(c.lb_calls), "count");
    put(m, "placement.lb_gated", per_op(c.lb_gated), "count");
    put(m, "placement.solves", per_op(c.solves), "count");
    put(m, "placement.kept", per_op(c.kept), "count");
    put(m, "placement.dominated", per_op(c.dominated), "count");
    put(
        m,
        "placement.kept_ratio",
        ratio(c.kept as f64, c.solves as f64),
        "ratio",
    );
    put(
        m,
        "placement.us_per_solve",
        ratio(c.solve_ns as f64 / 1e3, c.solves as f64),
        "us",
    );
    put(m, "covering.self_ms", ms("covering") / ops, "ms");
    put(
        m,
        "covering.self_share",
        ratio(ms("covering"), op_ms),
        "ratio",
    );
    put(m, "covering.cols", per_op(c.cols), "count");
    put(m, "covering.bnb_nodes", per_op(c.nodes), "count");
    put(m, "covering.bound_prunes", per_op(c.bound_prunes), "count");
    put(m, "covering.subtrees", per_op(c.subtrees), "count");
    put(m, "covering.proven_optimal_frac", per_op(c.proven), "ratio");
    put(
        m,
        "covering.us_per_node",
        ratio(ms("covering") * 1e3, c.nodes as f64),
        "us",
    );
    put(m, "assembly.self_ms", ms("assembly") / ops, "ms");
    put(
        m,
        "exec.busy_ratio",
        ratio(c.busy_ns as f64, c.capacity_ns as f64),
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u32, parent: Option<usize>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            op,
            parent,
            name,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let tr = Tracer {
            origin: Instant::now(),
            spans: vec![
                span(0, None, "op", 0, 100),
                span(0, Some(0), "a", 10, 40),
                // Overlaps `a`: the union, not the sum, is subtracted.
                span(0, Some(0), "b", 30, 50),
                span(0, Some(0), "c", 90, 120),
                span(0, Some(1), "d", 15, 20),
            ],
            op_kinds: vec!["synth"],
        };
        assert_eq!(tr.self_times(), vec![50, 25, 20, 30, 5]);
        let by = tr.self_by_name(|k| k == "synth");
        assert_eq!(by["op"], 50);
        assert!(tr.self_by_name(|k| k == "other").is_empty());
    }

    #[test]
    fn replay_matches_the_synthesizer() {
        use crate::workload::Family;
        use ccs::core::synthesis::Synthesizer;
        for family in [Family::Wan, Family::Soc] {
            let g = family.instance(5);
            let lib = family.library();
            let cfg = family.config(2);
            let cold = Synthesizer::new(&g, &lib)
                .with_config(cfg.clone())
                .run()
                .expect("synthesis succeeds");
            let mut tr = Tracer::new();
            let mut counts = PipelineCounts::default();
            let (op, root) = tr.begin_op("synth");
            let r = traced_synth(&mut tr, op, root, &g, &lib, &cfg, &mut counts)
                .expect("replay succeeds");
            tr.close(root);
            assert_eq!(r.candidates, cold.candidates.len());
            assert_eq!(r.cost.to_bits(), cold.total_cost().to_bits());
            assert_eq!(counts.lb_gated as usize, cold.stats.lb_gated);
            assert_eq!(counts.dominated as usize, cold.stats.dominated_dropped);
            // One root plus six layer spans.
            assert_eq!(tr.spans.len(), 7);
        }
    }
}
