//! The serve workload: an in-process `Engine` driven as a closed loop
//! by [`CALLERS`] callers, each with exactly one request outstanding.
//! A caller's next request is submitted from the response callback of
//! its previous one, so the load needs no client threads.

use crate::stats::{median, ratio};
use crate::trace::{nanos, put, same_as_cold, traced_synth, Metrics, PipelineCounts, Tracer};
use crate::workload::{Caller, Family, OpKind};
use ccs::core::constraint::ConstraintGraph;
use ccs::core::library::Library;
use ccs::core::synthesis::{Edit, SynthesisSession, Synthesizer};
use ccs::core::units::Bandwidth;
use ccs::exec::Executor;
use ccs::gen::io;
use ccs::geom::Point2;
use ccs::netsim::resilience;
use ccs::obs::json::{self, Value};
use ccs::serve::{EditSpec, Engine, Request, ResponseSink, ServeConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Rewrites a request before submission (self-tests inject failures).
pub type Tamper = Arc<dyn Fn(&mut Request) + Send + Sync>;

/// One completed request, as the caller saw it.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub caller: usize,
    pub seq: u64,
    pub kind: OpKind,
    pub latency_ns: u64,
    pub ok: bool,
    pub cost: Option<f64>,
    pub p2p_cost: Option<f64>,
    pub bytes: usize,
    /// The start of the response line of a failed request.
    pub failure: Option<String>,
}

struct Pending {
    seq: u64,
    id: String,
    kind: OpKind,
    session: Option<usize>,
    submitted: Instant,
}

struct Slot {
    caller: Caller,
    pending: Option<Pending>,
    /// Last served `total_cost` per session.
    last_cost: Vec<Option<f64>>,
    records: Vec<OpRecord>,
}

struct Shared {
    engine: Arc<Engine>,
    slots: Vec<Mutex<Slot>>,
    done: Vec<AtomicUsize>,
    deadline: Instant,
    hard_deadline: Instant,
    min_per_caller: usize,
    outstanding: AtomicUsize,
    max_outstanding: AtomicUsize,
    /// Responses whose id was not the caller's pending request.
    mismatched: AtomicUsize,
    active: AtomicUsize,
    finished: Mutex<Option<Instant>>,
    tamper: Option<Tamper>,
}

struct CallerSink {
    shared: Arc<Shared>,
    caller: usize,
    me: OnceLock<Weak<CallerSink>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a benchmark thread panicked while holding a caller slot")
}

impl Shared {
    fn should_stop(&self, now: Instant) -> bool {
        now >= self.hard_deadline
            || (now >= self.deadline
                && self
                    .done
                    .iter()
                    .all(|d| d.load(Ordering::SeqCst) >= self.min_per_caller))
    }

    /// Plans caller `c`'s next request and hands it to the engine.
    fn submit_next(&self, c: usize, sink: Arc<dyn ResponseSink>) {
        let req = {
            let mut slot = lock(&self.slots[c]);
            let (mut req, kind, session) = slot.caller.next_request();
            if let Some(t) = &self.tamper {
                t(&mut req);
            }
            slot.pending = Some(Pending {
                seq: slot.caller.issued - 1,
                id: req.id.clone(),
                kind,
                session,
                submitted: Instant::now(),
            });
            req
        };
        let now = self.outstanding.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_outstanding.fetch_max(now, Ordering::SeqCst);
        self.engine.submit(req, &sink);
    }
}

fn topology_costs(v: &Value) -> (Option<f64>, Option<f64>) {
    let topo = v.get("metrics").and_then(|m| m.get("topology"));
    let num = |k: &str| topo.and_then(|t| t.get(k)).and_then(Value::as_num);
    (num("total_cost"), num("p2p_cost"))
}

impl ResponseSink for CallerSink {
    fn send_line(&self, line: &str) {
        let now = Instant::now();
        let shared = &self.shared;
        shared.outstanding.fetch_sub(1, Ordering::SeqCst);
        {
            let mut slot = lock(&shared.slots[self.caller]);
            let Some(p) = slot.pending.take() else {
                shared.mismatched.fetch_add(1, Ordering::SeqCst);
                return;
            };
            let parsed = json::parse(line.trim_end()).ok();
            let id_ok = parsed
                .as_ref()
                .and_then(|v| v.get("id"))
                .and_then(Value::as_str)
                == Some(p.id.as_str());
            if !id_ok {
                shared.mismatched.fetch_add(1, Ordering::SeqCst);
            }
            let status_ok = parsed
                .as_ref()
                .and_then(|v| v.get("status"))
                .and_then(Value::as_str)
                == Some("ok");
            let (cost, p2p_cost) = parsed.as_ref().map_or((None, None), topology_costs);
            // A served architecture never costs more than the
            // point-to-point baseline it was built from.
            let cost_ok = matches!((cost, p2p_cost), (Some(c), Some(b)) if c <= b * (1.0 + 1e-9));
            let ok = id_ok && status_ok && cost_ok;
            if let (true, Some(j)) = (ok, p.session) {
                slot.last_cost[j] = cost;
            }
            slot.records.push(OpRecord {
                caller: self.caller,
                seq: p.seq,
                kind: p.kind,
                latency_ns: nanos(now.duration_since(p.submitted)),
                ok,
                cost,
                p2p_cost,
                bytes: line.len(),
                failure: (!ok).then(|| line.chars().take(200).collect()),
            });
        }
        shared.done[self.caller].fetch_add(1, Ordering::SeqCst);
        if shared.should_stop(now) {
            if shared.active.fetch_sub(1, Ordering::SeqCst) == 1 {
                *lock(&shared.finished) = Some(now);
                shared.engine.close();
            }
            return;
        }
        let me: Arc<CallerSink> = self
            .me
            .get()
            .and_then(Weak::upgrade)
            .expect("run_closed_loop holds every caller sink until the loop ends");
        shared.submit_next(self.caller, me);
    }
}

/// What one closed-loop run produced.
pub struct LoopResult {
    /// Completed requests, ordered by caller then sequence number.
    pub records: Vec<OpRecord>,
    /// Wall time from the first submission to the last response.
    pub wall: Duration,
    pub max_outstanding: usize,
    pub mismatched: usize,
    /// Final caller states (their sessions' full edit histories).
    pub callers: Vec<Caller>,
    /// Last served cost per caller and session.
    pub last_cost: Vec<Vec<Option<f64>>>,
    /// The engine's `ccs-serve-stats-v1` document after the run.
    pub stats: Value,
}

/// Drives `callers` against a fresh engine with `workers` worker slots
/// (the calling thread is one of them) until `seconds` have passed and
/// every caller has completed `min_per_caller` requests. `tamper`, when
/// set, rewrites every request before submission (self-tests only).
pub fn run_closed_loop(
    callers: Vec<Caller>,
    workers: usize,
    seconds: f64,
    min_per_caller: usize,
    tamper: Option<Tamper>,
) -> LoopResult {
    let engine = Engine::new(&ServeConfig {
        workers,
        request_threads: 1,
        ..ServeConfig::default()
    });
    let n = callers.len();
    let start = Instant::now();
    let shared = Arc::new(Shared {
        engine: engine.clone(),
        slots: callers
            .into_iter()
            .map(|caller| {
                let sessions = caller.sessions.len();
                Mutex::new(Slot {
                    caller,
                    pending: None,
                    last_cost: vec![None; sessions],
                    records: Vec::new(),
                })
            })
            .collect(),
        done: (0..n).map(|_| AtomicUsize::new(0)).collect(),
        deadline: start + Duration::from_secs_f64(seconds),
        hard_deadline: start + Duration::from_secs_f64(3.0 * seconds + 10.0),
        min_per_caller,
        outstanding: AtomicUsize::new(0),
        max_outstanding: AtomicUsize::new(0),
        mismatched: AtomicUsize::new(0),
        active: AtomicUsize::new(n),
        finished: Mutex::new(None),
        tamper,
    });
    let sinks: Vec<Arc<CallerSink>> = (0..n)
        .map(|caller| {
            let sink = Arc::new(CallerSink {
                shared: shared.clone(),
                caller,
                me: OnceLock::new(),
            });
            sink.me
                .set(Arc::downgrade(&sink))
                .expect("a fresh sink has no self handle yet");
            sink
        })
        .collect();
    for (c, sink) in sinks.iter().enumerate() {
        shared.submit_next(c, sink.clone());
    }
    std::thread::scope(|s| {
        for _ in 1..workers.max(1) {
            let engine = engine.clone();
            s.spawn(move || engine.worker_loop());
        }
        engine.worker_loop();
    });
    let finished = lock(&shared.finished).unwrap_or_else(Instant::now);
    let stats = engine.stats_json();
    drop(sinks);
    let shared = Arc::try_unwrap(shared)
        .ok()
        .expect("every sink (and the engine's jobs) released the shared state");
    let mut records = Vec::new();
    let mut callers = Vec::new();
    let mut last_cost = Vec::new();
    for slot in shared.slots {
        let slot = slot
            .into_inner()
            .expect("a benchmark thread panicked while holding a caller slot");
        records.extend(slot.records);
        callers.push(slot.caller);
        last_cost.push(slot.last_cost);
    }
    LoopResult {
        records,
        wall: finished.duration_since(start),
        max_outstanding: shared.max_outstanding.into_inner(),
        mismatched: shared.mismatched.into_inner(),
        callers,
        last_cost,
        stats,
    }
}

/// The synthesis edit a wire edit stands for (as the engine converts
/// it).
pub fn to_edit(spec: &EditSpec) -> Edit {
    match spec {
        EditSpec::ArcRate { arc, mbps } => Edit::ArcRate {
            arc: *arc,
            bandwidth: Bandwidth::from_mbps(*mbps),
        },
        EditSpec::ArcBound { arc, hops } => Edit::ArcBound {
            arc: *arc,
            max_hops: *hops,
        },
        EditSpec::MovePort { port, x, y } => Edit::MovePort {
            port: port.clone(),
            position: Point2::new(*x, *y),
        },
        EditSpec::Library { .. } => unreachable!("the workload never swaps libraries"),
    }
}

/// Warm ≡ cold: a cold `Synthesizer::run` of each session's final
/// edited instance must reproduce the session's last served cost bits.
/// Returns the number of sessions checked and the number that differ.
pub fn check_sessions(family: Family, threads: usize, result: &LoopResult) -> (usize, usize) {
    let mut checked = 0;
    let mut bad = 0;
    for (caller, costs) in result.callers.iter().zip(&result.last_cost) {
        for (plan, last) in caller.sessions.iter().zip(costs) {
            if !plan.created {
                continue;
            }
            checked += 1;
            let edits: Vec<Edit> = plan.edits.iter().map(to_edit).collect();
            let mut session = SynthesisSession::new(
                plan.original.clone(),
                family.library(),
                family.config(threads),
            );
            let cold = session.resynthesize(&edits).and_then(|_| {
                Synthesizer::new(session.graph(), session.library())
                    .with_config(family.config(threads))
                    .run()
            });
            match (cold, last) {
                (Ok(r), Some(c)) if r.total_cost().to_bits() == c.to_bits() => {}
                _ => bad += 1,
            }
        }
    }
    (checked, bad)
}

/// Session, resilience and pipeline work of a serve replay.
#[derive(Debug, Default)]
pub struct ServeCounts {
    pub warm_ns: Vec<u64>,
    pub cold_ns: u64,
    pub verdicts_reused: u64,
    pub verdicts_total: u64,
    pub scenarios: u64,
    pub analyzed: u64,
    /// Time of the replayed cold requests, traced and untraced.
    pub traced_ns: u64,
    pub untraced_ns: u64,
    pub ops: usize,
    /// One message per failed request.
    pub failures: Vec<String>,
}

fn parse_request_inputs(req: &Request) -> Option<(ConstraintGraph, Library)> {
    Some((
        io::instance_from_str(&req.instance).ok()?,
        io::library_from_str(&req.library).ok()?,
    ))
}

/// Replays the first `issued[c]` requests of every caller through
/// `SynthesisSession`, the traced pipeline and `resilience::analyze`,
/// one request at a time (callers interleaved round-robin), until
/// `deadline`. Each warm resynth is also re-run cold, which checks
/// warm ≡ cold and gives the warm-to-cold time ratio.
pub fn replay(
    family: Family,
    seed: u64,
    issued: &[u64],
    deadline: Instant,
    tr: &mut Tracer,
    pipeline: &mut PipelineCounts,
    counts: &mut ServeCounts,
) {
    // One request thread, like the engine; each run keeps a private
    // placement cache, so the traced and untraced runs of a request do
    // the same work.
    let cfg = family.config(1);
    let mut callers: Vec<Caller> = (0..issued.len())
        .map(|c| Caller::new(family, seed, c))
        .collect();
    let mut sessions: Vec<Vec<Option<SynthesisSession>>> = callers
        .iter()
        .map(|c| c.sessions.iter().map(|_| None).collect())
        .collect();
    let rounds = issued.iter().copied().max().unwrap_or(0);
    for step in 0..rounds {
        for (c, caller) in callers.iter_mut().enumerate() {
            if step >= issued[c] {
                continue;
            }
            if Instant::now() >= deadline {
                return;
            }
            let (req, kind, session) = caller.next_request();
            counts.ops += 1;
            let ok = match kind {
                OpKind::Synth | OpKind::Analyze => {
                    let Some((graph, library)) = parse_request_inputs(&req) else {
                        counts
                            .failures
                            .push(format!("{}: unparsable inputs", req.id));
                        continue;
                    };
                    let t = Instant::now();
                    let cold = Synthesizer::new(&graph, &library)
                        .with_config(cfg.clone())
                        .run();
                    counts.untraced_ns += nanos(t.elapsed());
                    let t = Instant::now();
                    let (op, root) = tr.begin_op(kind.name());
                    let rep = traced_synth(tr, op, root, &graph, &library, &cfg, pipeline);
                    counts.traced_ns += nanos(t.elapsed());
                    let same = same_as_cold(&cold, &rep);
                    if let (true, Ok(r), OpKind::Analyze) = (same, &rep, kind) {
                        let span = tr.open(op, Some(root), "netsim");
                        let sweep = resilience::analyze(
                            &graph,
                            &r.implementation,
                            &resilience::ResilienceConfig::default(),
                            &Executor::new(1),
                        );
                        tr.close(span);
                        counts.scenarios += sweep.scenarios.len() as u64;
                        counts.analyzed += 1;
                    }
                    tr.close(root);
                    same
                }
                OpKind::ResynthCreate => {
                    let j = session.expect("resynth requests name a session");
                    let Some((graph, library)) = parse_request_inputs(&req) else {
                        counts
                            .failures
                            .push(format!("{}: unparsable inputs", req.id));
                        continue;
                    };
                    let mut s = SynthesisSession::new(graph, library, cfg.clone());
                    let (op, root) = tr.begin_op(kind.name());
                    let span = tr.open(op, Some(root), "session");
                    let ok = s.resynthesize(&[]).is_ok();
                    tr.close(span);
                    tr.close(root);
                    sessions[c][j] = Some(s);
                    ok
                }
                OpKind::Resynth | OpKind::ResynthRedraw => {
                    let j = session.expect("resynth requests name a session");
                    let Some(s) = sessions[c][j].as_mut() else {
                        counts
                            .failures
                            .push(format!("{}: session never created", req.id));
                        continue;
                    };
                    let edits: Vec<Edit> = req.edits.iter().map(to_edit).collect();
                    let (op, root) = tr.begin_op(kind.name());
                    let span = tr.open(op, Some(root), "session");
                    let warm = s.resynthesize(&edits);
                    counts.warm_ns.push(tr.close(span));
                    tr.close(root);
                    let t = Instant::now();
                    let cold = Synthesizer::new(s.graph(), s.library())
                        .with_config(cfg.clone())
                        .run();
                    counts.cold_ns += nanos(t.elapsed());
                    match (warm, cold) {
                        (Ok(w), Ok(c)) => {
                            counts.verdicts_reused += w
                                .stats
                                .counters
                                .get("resynth.verdicts_reused")
                                .copied()
                                .unwrap_or(0);
                            counts.verdicts_total += w
                                .stats
                                .merge_stats
                                .counts
                                .iter()
                                .map(|&(_, n)| n as u64)
                                .sum::<u64>();
                            w.total_cost().to_bits() == c.total_cost().to_bits()
                        }
                        _ => false,
                    }
                }
            };
            if !ok {
                counts.failures.push(format!(
                    "{} ({}): replay differs from a cold run or failed",
                    req.id,
                    kind.name()
                ));
            }
        }
    }
}

fn stats_num(stats: &Value, path: &[&str]) -> f64 {
    let mut v = Some(stats);
    for k in path {
        v = v.and_then(|x| x.get(k));
    }
    v.and_then(Value::as_num).unwrap_or(0.0)
}

/// Session, netsim and serve-layer metrics of a serve run and its
/// replay.
pub fn serve_metrics(result: &LoopResult, counts: &ServeCounts, tr: &Tracer, m: &mut Metrics) {
    let warm: Vec<f64> = counts.warm_ns.iter().map(|&n| n as f64 / 1e6).collect();
    let warm_total: u64 = counts.warm_ns.iter().sum();
    put(
        m,
        "session.warm_ms_p50",
        if warm.is_empty() { 0.0 } else { median(&warm) },
        "ms",
    );
    put(
        m,
        "session.verdicts_reused",
        ratio(counts.verdicts_reused as f64, warm.len() as f64),
        "count",
    );
    put(
        m,
        "session.reuse_ratio",
        ratio(counts.verdicts_reused as f64, counts.verdicts_total as f64),
        "ratio",
    );
    put(
        m,
        "session.warm_vs_cold",
        ratio(warm_total as f64, counts.cold_ns as f64),
        "ratio",
    );
    let netsim_ns = tr
        .self_by_name(|k| k == "analyze")
        .get("netsim")
        .copied()
        .unwrap_or(0);
    put(
        m,
        "netsim.self_ms",
        ratio(netsim_ns as f64 / 1e6, counts.analyzed as f64),
        "ms",
    );
    put(
        m,
        "netsim.scenarios",
        ratio(counts.scenarios as f64, counts.analyzed as f64),
        "count",
    );

    let s = &result.stats;
    let ms =
        |op: &str, metric: &str, q: &str| stats_num(s, &["ops", op, metric, "lifetime", q]) / 1e6;
    let count = |op: &str| stats_num(s, &["ops", op, "total", "lifetime", "count"]);
    let ops = ["synth", "analyze", "resynth"];
    let n: f64 = ops.iter().map(|o| count(o)).sum();
    // Pooled over op kinds: the count-weighted mean of each kind's
    // median (the stats document keeps one histogram per kind).
    let pooled = |metric: &str| {
        ratio(
            ops.iter().map(|o| count(o) * ms(o, metric, "p50_ns")).sum(),
            n,
        )
    };
    put(m, "serve.queue_wait_ms_p50", pooled("queue_wait"), "ms");
    put(m, "serve.run_ms_p50", pooled("run"), "ms");
    put(
        m,
        "serve.synth_p50_ms",
        ms("synth", "total", "p50_ns"),
        "ms",
    );
    put(
        m,
        "serve.resynth_p50_ms",
        ms("resynth", "total", "p50_ns"),
        "ms",
    );
    put(
        m,
        "serve.analyze_p50_ms",
        ms("analyze", "total", "p50_ns"),
        "ms",
    );
    let hits = stats_num(s, &["cache", "hits"]);
    let misses = stats_num(s, &["cache", "misses"]);
    put(
        m,
        "serve.cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    let bytes: usize = result.records.iter().map(|r| r.bytes).sum();
    put(
        m,
        "serve.response_kb",
        ratio(bytes as f64 / 1024.0, result.records.len() as f64),
        "KiB",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{callers, CALLERS};

    #[test]
    fn closed_loop_keeps_one_request_per_caller_outstanding() {
        let r = run_closed_loop(callers(Family::Wan, 21), 2, 0.3, 3, None);
        assert_eq!(r.max_outstanding, CALLERS);
        assert_eq!(r.mismatched, 0);
        // Every issued request was answered, in order, per caller.
        for (c, caller) in r.callers.iter().enumerate() {
            let seqs: Vec<u64> = r
                .records
                .iter()
                .filter(|x| x.caller == c)
                .map(|x| x.seq)
                .collect();
            assert_eq!(seqs, (0..caller.issued).collect::<Vec<_>>());
            assert!(caller.issued >= 3);
        }
        assert!(r.records.iter().all(|x| x.ok), "{:?}", r.records);
        let (checked, bad) = check_sessions(Family::Wan, 1, &r);
        assert!(checked > 0);
        assert_eq!(bad, 0);
    }

    #[test]
    fn injected_failure_is_counted() {
        // Break the first cold synth/analyze request of the run (a broken
        // session request would also fail every later edit of it).
        let seed = 22;
        let target = callers(Family::Wan, seed)
            .into_iter()
            .flat_map(|mut c| (0..2).map(move |_| c.next_request()))
            .find(|(_, kind, _)| matches!(kind, OpKind::Synth | OpKind::Analyze))
            .map(|(req, _, _)| req.id)
            .expect("two requests per caller include a cold one");
        let id = target.clone();
        let tamper: Tamper = Arc::new(move |req: &mut Request| {
            if req.id == id {
                req.instance = "not an instance".to_string();
            }
        });
        let r = run_closed_loop(callers(Family::Wan, seed), 2, 0.0, 2, Some(tamper));
        let failed: Vec<&OpRecord> = r.records.iter().filter(|x| !x.ok).collect();
        assert_eq!(failed.len(), 1, "{:?}", r.records);
        assert_eq!(format!("c{}-{}", failed[0].caller, failed[0].seq), target);
        let attempted = r.records.len();
        assert!(attempted >= 2 * CALLERS);
        assert_eq!(
            ratio(failed.len() as f64, attempted as f64),
            1.0 / attempted as f64
        );
    }
}
