//! Seeded inputs: instance families, the one-shot instance streams, and
//! the per-caller request sequences of the serve workload.
//!
//! Everything here is a pure function of the workload seed, so the same
//! seed yields byte-identical instance texts and request sequences.

use ccs::core::constraint::ConstraintGraph;
use ccs::core::library::{soc_paper_library, Library};
use ccs::core::synthesis::SynthesisConfig;
use ccs::gen::io;
use ccs::gen::random::{clustered_wan, soc_floorplan, ClusteredWanConfig, SocConfig};
use ccs::serve::{EditSpec, Request, RequestKind};

/// SplitMix64: a tiny, fully specified generator, so the benchmark's
/// inputs do not depend on any RNG crate's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives an independent sub-seed for `(stream, index)` of a workload
/// seed.
pub fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut r = Rng::new(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
    r.next_u64();
    Rng::new(r.next_u64() ^ index.wrapping_mul(0x8cb9_2ba7_2f3d_8dd7)).next_u64()
}

/// Instance families the workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Clustered WAN, 12 channels, paper WAN library, `max_k = 4`.
    Wan,
    /// SoC floorplan, 16 modules, 16 channels, `soc_paper_library(0.6)`,
    /// `max_k = 3`.
    Soc,
}

impl Family {
    pub fn instance(self, seed: u64) -> ConstraintGraph {
        match self {
            Family::Wan => clustered_wan(&ClusteredWanConfig {
                seed,
                channels: 12,
                ..ClusteredWanConfig::default()
            }),
            Family::Soc => soc_floorplan(&SocConfig {
                seed,
                modules: 16,
                channels: 16,
                ..SocConfig::default()
            }),
        }
    }

    pub fn library(self) -> Library {
        match self {
            Family::Wan => ccs::gen::wan::paper_library(),
            Family::Soc => soc_paper_library(0.6),
        }
    }

    pub fn max_k(self) -> usize {
        match self {
            Family::Wan => 4,
            Family::Soc => 3,
        }
    }

    pub fn config(self, threads: usize) -> SynthesisConfig {
        let mut cfg = SynthesisConfig::default();
        cfg.merge.max_k = Some(self.max_k());
        cfg.threads = threads;
        cfg
    }

    /// One seeded edit of a session whose last drawn instance is `base`:
    /// a rate change inside the generator's bandwidth range, a hop bound,
    /// or a port moved by a small jitter around its drawn position. Hop
    /// bounds stay above the hops of the longest point-to-point route
    /// (WAN links are unsegmented; a 0.6 mm SoC wire needs 18 hops across
    /// the jittered die), so every edit leaves the instance feasible.
    fn edit(self, rng: &mut Rng, base: &ConstraintGraph, names: &[String]) -> EditSpec {
        let (mbps, jitter, hops) = match self {
            Family::Wan => ((2.0, 10.0), 6.0, (6, 12)),
            Family::Soc => ((100.0, 1000.0), 0.3, (18, 24)),
        };
        let arc = rng.below(base.arc_count());
        let u = rng.unit();
        if u < 0.5 {
            EditSpec::ArcRate {
                arc,
                mbps: rng.range(mbps.0, mbps.1),
            }
        } else if u < 0.75 {
            let h = hops.0 + rng.below(hops.1 - hops.0 + 1);
            EditSpec::ArcBound {
                arc,
                hops: (rng.unit() < 0.75).then_some(h as u32),
            }
        } else {
            let k = rng.below(names.len());
            let p = base.ports().nth(k).expect("one name per port").1.position;
            EditSpec::MovePort {
                port: names[k].clone(),
                x: (p.x + rng.range(-jitter, jitter)).max(0.0),
                y: (p.y + rng.range(-jitter, jitter)).max(0.0),
            }
        }
    }
}

/// The edits that turn a session into `drawn`, a fresh instance of the
/// same family: every port moved, every arc's rate and hop bound set.
/// Both instances have one port pair per channel, in channel order, so
/// the session's port `k` takes `drawn`'s port `k` position.
fn redraw_edits(drawn: &ConstraintGraph, names: &[String]) -> Vec<EditSpec> {
    let moves = drawn
        .ports()
        .zip(names)
        .map(|((_, p), name)| EditSpec::MovePort {
            port: name.clone(),
            x: p.position.x,
            y: p.position.y,
        });
    let arcs = drawn.arcs().enumerate().flat_map(|(arc, (_, a))| {
        [
            EditSpec::ArcRate {
                arc,
                mbps: a.bandwidth.as_mbps(),
            },
            EditSpec::ArcBound {
                arc,
                hops: a.max_hops,
            },
        ]
    });
    moves.chain(arcs).collect()
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WanPlacement,
    SocCovering,
    ServeEdits,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "wan_placement" => Some(Workload::WanPlacement),
            "soc_covering" => Some(Workload::SocCovering),
            "serve_edits" => Some(Workload::ServeEdits),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WanPlacement => "wan_placement",
            Workload::SocCovering => "soc_covering",
            Workload::ServeEdits => "serve_edits",
        }
    }

    pub fn family(self) -> Family {
        match self {
            Workload::SocCovering => Family::Soc,
            Workload::WanPlacement | Workload::ServeEdits => Family::Wan,
        }
    }
}

/// Seed stream of the one-shot instances.
const STREAM_ONE_SHOT: u64 = 1;
/// Seed streams of the serve callers (one per caller, offset by index).
const STREAM_CALLER: u64 = 100;
/// Fixed seed of the warm-up inputs: set-up does the same work for
/// every workload seed, so `setup_s` compares across seeds.
pub const WARMUP_SEED: u64 = 0x5eed_f00d;

/// Instance `i` of a one-shot workload's stream. Each op generates its
/// instance just before it runs (untimed), so the stream never repeats
/// and the benchmark holds no instance pool in memory.
pub fn stream_instance(family: Family, seed: u64, i: u64) -> ConstraintGraph {
    family.instance(sub_seed(seed, STREAM_ONE_SHOT, i))
}

/// Concurrent callers of the serve workload.
pub const CALLERS: usize = 4;
/// Named sessions each caller owns: 16 in all, the engine's session
/// capacity, so none is ever evicted. Resynth cost depends on the
/// session's instance, so more sessions make a run's cost less
/// dependent on the seed.
pub const SESSIONS_PER_CALLER: usize = 4;

const _: () = assert!(CALLERS * SESSIONS_PER_CALLER <= ccs::serve::MAX_SESSIONS);

/// One block of a caller's request sequence: 5 `synth`, 3 `analyze` and
/// 12 `resynth`, in a seeded order per block. A fixed mix per block keeps
/// every seed's mix identical.
const MIX: [RequestKind; 20] = {
    let mut mix = [RequestKind::Resynth; 20];
    let mut i = 0;
    while i < 8 {
        mix[i] = if i < 5 {
            RequestKind::Synth
        } else {
            RequestKind::Analyze
        };
        i += 1;
    }
    mix
};
/// Seed-stream tag of the per-block mix order.
const BLOCK_TAG: u64 = 1 << 40;
/// Warm resynths a session takes before its next resynth redraws it as a
/// fresh instance. Resynth cost depends on the session's instance, so
/// redrawing spreads a run's resynths over many instances and makes the
/// run's cost depend less on the seed.
const REDRAW_EVERY: u32 = 6;

/// What one planned request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Synth,
    Analyze,
    /// First request of a session: carries the instance, no edits.
    ResynthCreate,
    Resynth,
    /// A resynth whose edits turn the session into a fresh instance.
    ResynthRedraw,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Synth => "synth",
            OpKind::Analyze => "analyze",
            OpKind::ResynthCreate => "resynth_create",
            OpKind::Resynth => "resynth",
            OpKind::ResynthRedraw => "resynth_redraw",
        }
    }
}

/// A caller-owned server-side session, mirrored client-side.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    pub name: String,
    /// The instance the session was created from.
    pub original: ConstraintGraph,
    /// Port names of `original`: edits address ports by name.
    names: Vec<String>,
    /// The last instance drawn into the session (small edits jitter
    /// around it).
    base: ConstraintGraph,
    since_draw: u32,
    pub created: bool,
    /// Every edit sent so far, in order.
    pub edits: Vec<EditSpec>,
}

/// One caller of the serve workload: a deterministic request sequence
/// plus the state of the sessions it owns.
#[derive(Debug, Clone)]
pub struct Caller {
    pub index: usize,
    family: Family,
    seed: u64,
    library_text: String,
    /// Requests planned so far.
    pub issued: u64,
    /// Resynths planned so far (they visit the sessions round-robin).
    resynths: u64,
    pub sessions: Vec<SessionPlan>,
}

impl Caller {
    pub fn new(family: Family, seed: u64, index: usize) -> Caller {
        let library_text = io::library_to_string(&family.library());
        let sessions = (0..SESSIONS_PER_CALLER)
            .map(|j| {
                let original = family.instance(sub_seed(
                    seed,
                    STREAM_CALLER + index as u64,
                    1 << 32 | j as u64,
                ));
                SessionPlan {
                    name: format!("c{index}-s{j}"),
                    names: original.ports().map(|(_, p)| p.name.clone()).collect(),
                    base: original.clone(),
                    original,
                    since_draw: 0,
                    created: false,
                    edits: Vec::new(),
                }
            })
            .collect();
        Caller {
            index,
            family,
            seed,
            library_text,
            issued: 0,
            resynths: 0,
            sessions,
        }
    }

    /// Plans the next request: per block of [`MIX`], 25% cold `synth` and
    /// 15% `analyze` on a fresh instance, 60% `resynth` on the caller's
    /// sessions in turn. The first `resynth` of a session creates it;
    /// after that each carries one to three small edits, and every
    /// [`REDRAW_EVERY`] + 1-th redraws the session. Returns the request
    /// and, for resynth, the session index.
    pub fn next_request(&mut self) -> (Request, OpKind, Option<usize>) {
        let n = self.issued;
        self.issued += 1;
        let mut rng = Rng::new(sub_seed(self.seed, STREAM_CALLER + self.index as u64, n));
        let mut req = Request {
            id: format!("c{}-{n}", self.index),
            kind: RequestKind::Synth,
            instance: String::new(),
            library: String::new(),
            priority: 0,
            threads: None,
            greedy: false,
            max_k: Some(self.family.max_k()),
            lb_gate: true,
            ledger: false,
            fail_k: None,
            scenario_budget: None,
            max_cost_overhead: None,
            target: None,
            session: None,
            edits: Vec::new(),
        };
        let stream = STREAM_CALLER + self.index as u64;
        let mut order: Vec<usize> = (0..MIX.len()).collect();
        let mut block_rng = Rng::new(sub_seed(self.seed, stream, BLOCK_TAG | (n / 20)));
        for i in (1..order.len()).rev() {
            order.swap(i, block_rng.below(i + 1));
        }
        req.kind = MIX[order[(n % 20) as usize]];
        if req.kind != RequestKind::Resynth {
            let kind = if req.kind == RequestKind::Synth {
                OpKind::Synth
            } else {
                OpKind::Analyze
            };
            let g = self.family.instance(rng.next_u64());
            req.instance = io::instance_to_string(&g);
            req.library = self.library_text.clone();
            return (req, kind, None);
        }
        let j = (self.resynths % self.sessions.len() as u64) as usize;
        self.resynths += 1;
        let family = self.family;
        let s = &mut self.sessions[j];
        req.session = Some(s.name.clone());
        let kind = if s.created && s.since_draw >= REDRAW_EVERY {
            s.base = family.instance(rng.next_u64());
            s.since_draw = 0;
            req.edits = redraw_edits(&s.base, &s.names);
            s.edits.extend(req.edits.iter().cloned());
            OpKind::ResynthRedraw
        } else if s.created {
            for _ in 0..1 + rng.below(3) {
                let e = family.edit(&mut rng, &s.base, &s.names);
                s.edits.push(e.clone());
                req.edits.push(e);
            }
            s.since_draw += 1;
            OpKind::Resynth
        } else {
            s.created = true;
            req.instance = io::instance_to_string(&s.original);
            req.library = self.library_text.clone();
            OpKind::ResynthCreate
        };
        (req, kind, Some(j))
    }
}

/// The callers of one serve run.
pub fn callers(family: Family, seed: u64) -> Vec<Caller> {
    (0..CALLERS).map(|i| Caller::new(family, seed, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_text(r: &Request) -> String {
        format!(
            "{}|{:?}|{}|{}|{:?}|{:?}",
            r.id, r.kind, r.instance, r.library, r.session, r.edits
        )
    }

    #[test]
    fn same_seed_same_instances() {
        for family in [Family::Wan, Family::Soc] {
            let text = |seed: u64| -> Vec<String> {
                (0..16)
                    .map(|i| io::instance_to_string(&stream_instance(family, seed, i)))
                    .collect()
            };
            assert_eq!(text(7), text(7));
            assert_ne!(text(7), text(8));
            // Distinct instances within one stream.
            let t = text(7);
            assert!(t.iter().enumerate().all(|(i, x)| !t[..i].contains(x)));
        }
    }

    #[test]
    fn same_seed_same_requests() {
        let plan = |seed: u64| -> Vec<String> {
            let mut out = Vec::new();
            for mut c in callers(Family::Wan, seed) {
                for _ in 0..40 {
                    out.push(request_text(&c.next_request().0));
                }
            }
            out
        };
        assert_eq!(plan(3), plan(3));
        assert_ne!(plan(3), plan(4));
    }

    #[test]
    fn every_block_has_the_same_mix() {
        let mut c = Caller::new(Family::Wan, 11, 0);
        for _ in 0..3 {
            let mut seen = std::collections::BTreeMap::new();
            for _ in 0..MIX.len() {
                *seen
                    .entry(format!("{:?}", c.next_request().0.kind))
                    .or_insert(0) += 1;
            }
            assert_eq!(seen["Synth"], 5);
            assert_eq!(seen["Analyze"], 3);
            assert_eq!(seen["Resynth"], 12);
        }
        // Every session was created, then edited.
        assert!(c.sessions.iter().all(|s| s.created && !s.edits.is_empty()));
        let redraws = (0..200)
            .filter(|_| c.next_request().1 == OpKind::ResynthRedraw)
            .count();
        assert!(redraws >= SESSIONS_PER_CALLER, "{redraws}");
    }
}
