//! Load generation (the `workloads` layer): every workload's inputs are a
//! pure function of the seed, built with the repository's own generators,
//! and pinned by an FNV-1a digest so a generator change fails the run
//! instead of silently changing the benchmark.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use gbatch_core::{
    operator_fingerprint, BandBatch, FingerprintHasher, Precision, RhsBatch, ShapeKey,
};
use gbatch_serve::{FlushPolicy, SolveRequest};
use gbatch_workloads::{
    adversarial_traffic, poisson_traffic, random_band_batch, timestep_traffic, AdversarialConfig,
    Arrival, BandDistribution, TimestepConfig, TrafficConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of a run that names none.
pub const DEFAULT_SEED: u64 = 1;

/// Independent input sets per run, one per untraced repetition; the
/// modeled metrics pool all of them, which narrows their seed-to-seed
/// spread by about the square root of this.
pub const ROUNDS: usize = 5;

/// Deadline budget of every serve workload, seconds of virtual time.
pub const BUDGET_S: f64 = 2.0e-3;

/// `paper_batch` cases: `n<order>_<kl>_<ku>_r<nrhs>`, `f64` unless marked.
pub const PAPER_CASES: [&str; 5] = [
    "n64_2_3_r1",
    "n512_2_3_r1",
    "n256_10_7_r1",
    "n512_10_7_r10",
    "n512_10_7_r1_f32",
];

/// `lone_large` cases: one class of lone system each.
pub const LONE_CASES: [&str; 3] = ["lone_dominant_f64", "lone_dominant_f32", "lone_uniform_f64"];

/// Digests of the full-size round-0 inputs at [`DEFAULT_SEED`], one per
/// workload.
const PINNED: [(Workload, &str); 5] = [
    (Workload::PaperBatch, "2d15ce8993716dd1767a196c4cc47114"),
    (Workload::ServeMix, "046d4b2da7e9be9d27183828d915a269"),
    (Workload::ServeTimestep, "e8f714e523511a71954258a54cabf6be"),
    (
        Workload::FleetAdversarial,
        "551adbf3afd08cda0f7db4f568dea683",
    ),
    (Workload::LoneLarge, "973de4f056609febf749d5242222eca0"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperBatch,
    ServeMix,
    ServeTimestep,
    FleetAdversarial,
    LoneLarge,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PaperBatch,
        Workload::ServeMix,
        Workload::ServeTimestep,
        Workload::FleetAdversarial,
        Workload::LoneLarge,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBatch => "paper_batch",
            Workload::ServeMix => "serve_mix",
            Workload::ServeTimestep => "serve_timestep",
            Workload::FleetAdversarial => "fleet_adversarial",
            Workload::LoneLarge => "lone_large",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_serve(self) -> bool {
        !matches!(self, Workload::PaperBatch | Workload::LoneLarge)
    }

    /// Each workload draws from its own streams: `seed * ROUNDS + round +
    /// offset`, so no two (seed, round) pairs of a workload share one.
    fn seed_offset(self) -> u64 {
        match self {
            Workload::PaperBatch => 100,
            Workload::ServeMix => 200,
            Workload::ServeTimestep => 300,
            Workload::FleetAdversarial => 400,
            Workload::LoneLarge => 500,
        }
    }

    /// Generate input set `round` of `seed`. `div` shrinks request counts
    /// and system sizes for tests; runs use `1`.
    pub fn generate(self, seed: u64, round: usize, div: usize) -> Inputs {
        let stream = seed
            .wrapping_mul(ROUNDS as u64)
            .wrapping_add(round as u64)
            .wrapping_add(self.seed_offset());
        let mut rng = StdRng::seed_from_u64(stream);
        match self {
            Workload::PaperBatch => Inputs::Library(paper_cases(&mut rng, div)),
            Workload::LoneLarge => Inputs::Library(lone_cases(&mut rng, div)),
            Workload::ServeMix => {
                let cfg = TrafficConfig::section2_mix(1.0e6, BUDGET_S);
                let arrivals = poisson_traffic(&mut rng, 20_000 / div, &cfg);
                Inputs::Serve(Trace::new(
                    "h100_pcie:1",
                    FlushPolicy::default(),
                    arrivals,
                    BTreeSet::new(),
                ))
            }
            Workload::ServeTimestep => {
                let mut cfg =
                    TimestepConfig::timestepper(ShapeKey::gbsv(128, 2, 3, 1), 64, 0.02, 1.0e6);
                cfg.deadline_s = BUDGET_S;
                let arrivals = timestep_traffic(&mut rng, 60_000 / div, &cfg);
                Inputs::Serve(Trace::new(
                    "h100_pcie:1",
                    FlushPolicy::default(),
                    arrivals,
                    BTreeSet::new(),
                ))
            }
            Workload::FleetAdversarial => {
                let cfg = AdversarialConfig::fleet_mix(4.0e6, BUDGET_S);
                let storm = cfg
                    .poison_storm
                    .expect("the fleet mix carries poison storms");
                let arrivals = adversarial_traffic(&mut rng, 20_000 / div, &cfg);
                let poisoned = arrivals
                    .iter()
                    .map(|a| a.id)
                    .filter(|&id| {
                        let id = id as usize;
                        id >= storm.every && id % storm.every < storm.len
                    })
                    .collect();
                let policy = FlushPolicy::default()
                    .with_target_batch(64)
                    .with_min_gpu_batch(16);
                Inputs::Serve(Trace::new(
                    "h100_pcie:1,mi250x_gcd:2",
                    policy,
                    arrivals,
                    poisoned,
                ))
            }
        }
    }

    /// Regenerate the full-size round-0 inputs at [`DEFAULT_SEED`] and
    /// compare their digest with the pinned one.
    pub fn check_pinned(self) -> Result<(), String> {
        let want = PINNED
            .iter()
            .find(|(w, _)| *w == self)
            .map(|(_, d)| *d)
            .expect("every workload is pinned");
        let got = self.generate(DEFAULT_SEED, 0, 1).digest();
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "{}: round-0 inputs at seed {DEFAULT_SEED} hash to {got}, pinned {want}; \
                 a workload generator changed, so results are not comparable",
                self.name()
            ))
        }
    }
}

/// One batched call's inputs, always held in `f64`; `f32` cases are
/// narrowed when the call's containers are built.
pub struct Call {
    pub a: BandBatch,
    pub b: RhsBatch,
}

/// A named group of calls at one precision (a paper shape, or one class
/// of lone large system).
pub struct Case {
    pub name: &'static str,
    pub precision: Precision,
    pub calls: Vec<Call>,
}

impl Case {
    /// Systems across all calls.
    pub fn systems(&self) -> usize {
        self.calls.iter().map(|c| c.a.batch()).sum()
    }
}

/// One request of a serve trace. Operators shared by several requests
/// (timestepping) are stored once.
pub struct Request {
    pub id: u64,
    pub at_s: f64,
    pub shape: ShapeKey,
    pub ab: Arc<Vec<f64>>,
    pub rhs: Vec<f64>,
}

impl Request {
    /// The wire request, with arrival times compressed by `speedup`
    /// (`1.0` replays the trace as generated) and the deadline budget kept.
    pub fn to_solve(&self, speedup: f64) -> SolveRequest {
        let at = self.at_s / speedup;
        SolveRequest {
            id: self.id,
            shape: self.shape,
            ab: self.ab.to_vec(),
            rhs: self.rhs.clone(),
            submitted_s: at,
            deadline_s: at + BUDGET_S,
        }
    }
}

/// An open-loop serve trace: arrival times fixed by the seed.
pub struct Trace {
    /// Fleet composition in `FleetSpec` syntax.
    pub fleet: &'static str,
    pub policy: FlushPolicy,
    pub requests: Vec<Request>,
    /// Ids whose operator is exactly singular by construction.
    pub poisoned: BTreeSet<u64>,
}

impl Trace {
    fn new(
        fleet: &'static str,
        policy: FlushPolicy,
        arrivals: Vec<Arrival>,
        poisoned: BTreeSet<u64>,
    ) -> Self {
        let mut shared: BTreeMap<(u64, u64), Arc<Vec<f64>>> = BTreeMap::new();
        let requests = arrivals
            .into_iter()
            .map(|a| {
                let key = operator_fingerprint(&a.shape, &a.ab).to_words();
                let ab = match shared.get(&key) {
                    Some(op) if **op == a.ab => Arc::clone(op),
                    _ => {
                        let op = Arc::new(a.ab);
                        shared.insert(key, Arc::clone(&op));
                        op
                    }
                };
                Request {
                    id: a.id,
                    at_s: a.at_s,
                    shape: a.shape,
                    ab,
                    rhs: a.rhs,
                }
            })
            .collect();
        Trace {
            fleet,
            policy,
            requests,
            poisoned,
        }
    }
}

/// A workload's generated inputs.
pub enum Inputs {
    /// Closed-loop library calls.
    Library(Vec<Case>),
    /// An open-loop request trace through the solve service.
    Serve(Trace),
}

impl Inputs {
    pub fn into_cases(self) -> Vec<Case> {
        match self {
            Inputs::Library(cases) => cases,
            Inputs::Serve(_) => panic!("a serve workload has no library cases"),
        }
    }

    pub fn into_trace(self) -> Trace {
        match self {
            Inputs::Serve(trace) => trace,
            Inputs::Library(_) => panic!("a library workload has no serve trace"),
        }
    }

    /// Operations one repetition attempts: systems or requests.
    pub fn ops(&self) -> usize {
        match self {
            Inputs::Library(cases) => cases.iter().map(Case::systems).sum(),
            Inputs::Serve(t) => t.requests.len(),
        }
    }

    /// 128-bit FNV-1a digest over arrival times, shape keys and payload
    /// bits, as 32 hex digits.
    pub fn digest(&self) -> String {
        let mut h = FingerprintHasher::new();
        let shape = |h: &mut FingerprintHasher, s: &ShapeKey| {
            for v in [s.n, s.kl, s.ku, s.nrhs, s.precision.elem_bytes()] {
                h.write_u64(v as u64);
            }
        };
        match self {
            Inputs::Library(cases) => {
                for case in cases {
                    for call in &case.calls {
                        let l = call.a.layout();
                        let key = ShapeKey::gbsv(l.n, l.kl, l.ku, call.b.nrhs())
                            .with_precision(case.precision);
                        shape(&mut h, &key);
                        h.write_u64(call.a.batch() as u64);
                        h.write_f64s(call.a.data());
                        h.write_f64s(call.b.data());
                    }
                }
            }
            Inputs::Serve(t) => {
                for r in &t.requests {
                    h.write_u64(r.id);
                    h.write_u64(r.at_s.to_bits());
                    shape(&mut h, &r.shape);
                    h.write_f64s(&r.ab);
                    h.write_f64s(&r.rhs);
                }
            }
        }
        let (hi, lo) = h.finish().to_words();
        format!("{hi:016x}{lo:016x}")
    }
}

fn rhs(rng: &mut StdRng, batch: usize, n: usize, nrhs: usize) -> RhsBatch {
    RhsBatch::from_fn(batch, n, nrhs, |_, _, _| rng.gen_range(-1.0..=1.0))
        .expect("valid rhs dimensions")
}

/// The paper's GBSV measurement (Tables 2/3, Figs. 8/9): batches of 1000
/// uniform random bands, which pivot.
fn paper_cases(rng: &mut StdRng, div: usize) -> Vec<Case> {
    const SHAPES: [(usize, usize, usize, usize, Precision); 5] = [
        (64, 2, 3, 1, Precision::F64),
        (512, 2, 3, 1, Precision::F64),
        (256, 10, 7, 1, Precision::F64),
        (512, 10, 7, 10, Precision::F64),
        (512, 10, 7, 1, Precision::F32),
    ];
    PAPER_CASES
        .into_iter()
        .zip(SHAPES)
        .map(|(name, (n, kl, ku, nrhs, precision))| {
            let batch = 1000 / div;
            let a = random_band_batch(rng, batch, n, kl, ku, BandDistribution::Uniform);
            let b = rhs(rng, batch, n, nrhs);
            Case {
                name,
                precision,
                calls: vec![Call { a, b }],
            }
        })
        .collect()
}

/// Lone large systems, the SPIKE regime: six systems of order 65536 per
/// class. Dominant operators accept the truncated split; uniform ones walk
/// the fallback chain.
fn lone_cases(rng: &mut StdRng, div: usize) -> Vec<Case> {
    let dominant = BandDistribution::DiagonallyDominant { margin: 1.0 };
    let n = (65_536 / div).max(gbatch_kernels::dispatch::SPIKE_MIN_N);
    LONE_CASES
        .into_iter()
        .zip([
            (Precision::F64, dominant),
            (Precision::F32, dominant),
            (Precision::F64, BandDistribution::Uniform),
        ])
        .map(|(name, (precision, dist))| {
            let calls = (0..6)
                .map(|_| Call {
                    a: random_band_batch(rng, 1, n, 8, 8, dist),
                    b: rhs(rng, 1, n, 1),
                })
                .collect();
            Case {
                name,
                precision,
                calls,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for w in Workload::ALL {
            let a = w.generate(7, 1, 50).digest();
            assert_eq!(a, w.generate(7, 1, 50).digest(), "{}", w.name());
            assert_ne!(a, w.generate(8, 1, 50).digest(), "{}", w.name());
            assert_ne!(a, w.generate(7, 2, 50).digest(), "{}", w.name());
        }
    }

    #[test]
    fn the_seed_draws_values_not_shapes() {
        let div = 50;
        for (w, batch, n) in [
            (Workload::PaperBatch, 1000 / div, None),
            (Workload::LoneLarge, 1, Some(65_536 / div)),
        ] {
            for (seed, round) in [(1, 0), (2, 3), (9, 4)] {
                for call in w
                    .generate(seed, round, div)
                    .into_cases()
                    .iter()
                    .flat_map(|c| &c.calls)
                {
                    assert_eq!(call.a.batch(), batch, "{}", w.name());
                    if let Some(n) = n {
                        let n = n.max(gbatch_kernels::dispatch::SPIKE_MIN_N);
                        assert_eq!(call.a.layout().n, n, "{}", w.name());
                    }
                }
            }
        }
    }

    #[test]
    fn timestep_operators_are_shared_not_copied() {
        let t = Workload::ServeTimestep.generate(3, 0, 20).into_trace();
        let distinct: BTreeSet<*const Vec<f64>> =
            t.requests.iter().map(|r| Arc::as_ptr(&r.ab)).collect();
        assert!(
            distinct.len() * 4 < t.requests.len(),
            "{} operators",
            distinct.len()
        );
    }

    #[test]
    fn poison_ids_follow_the_storm() {
        let t = Workload::FleetAdversarial.generate(3, 0, 4).into_trace();
        assert_eq!(
            t.poisoned.len(),
            24,
            "ids 1500..1508, 3000..3008 and 4500..4508"
        );
        assert!(t.poisoned.contains(&1500) && !t.poisoned.contains(&1508));
    }
}
