//! Bitwise pins of the batched dispatch, cell by cell.
//!
//! Every cell runs one `gbsv_batch` or `gbtrf_batch` call and pins what
//! the dispatcher decided and what it produced: the chosen algorithm, the
//! launch count, the modeled time bits, the `info` codes, and FNV-1a
//! digests of the factors, pivots and solutions. The case grid reaches
//! every selection branch:
//!
//! - the fused GBSV kernel, and the same shape with the fused
//!   factorization forced;
//! - the fused factorization under a 10-RHS solve;
//! - the sliding window;
//! - the layout priced by `Auto` either way, and the interleaved layout
//!   forced;
//! - each forced column-major algorithm;
//! - the wide-band corner (`kl = ku = 200`), where nothing column-major
//!   fits: the reference kernels, or the streaming interleaved kernels;
//! - the per-column solve, when the blocked solve's RHS cache cannot fit;
//! - SPIKE picked by `Auto` (n = 4096, (2,2)), forced, and blocked by a
//!   forced algorithm;
//! - singular lanes on the fused, column-major and interleaved paths;
//! - every forced [`FactorAlgo`] on a one-RHS `gbsv` at n = 16 and n = 48
//!   ((2,3)), where each must report the kernel it names, and the
//!   documented substitutes: `FusedGbsv` and `Spike` on `gbtrf`, and
//!   `Spike` on a diagonal band, run the `ColumnMajor` plan.
//!
//! Each case runs at f64 and f32, on `h100_pcie` and `mi250x_gcd`, under
//! the per-launch and the resident engine.
//!
//! A second grid pins the solve-only entry points, `gbtrs_batch` and
//! `gbtrs_batch_lanes`, over factors from `gbtrf_batch`: the chosen
//! algorithm, launch count, time bits and the solution digest, at the
//! `serve_timestep` geometry ((128,2,3), batch 64) and at the raw-speed
//! trajectory's (n = 16, (2,3), batch 4096). Two forced values that no
//! solve-only call can offer, `FusedGbsv` and `Spike`, pin the substitutes
//! at the timestep geometry: the `ColumnMajor` factorization, then the
//! column solve.

use std::fmt::Write as _;
use std::iter::once;

use gbatch::core::gbtrs::Transpose;
use gbatch::core::{BandBatch, InfoArray, PivotBatch, RhsBatch, Scalar};
use gbatch::gpu_sim::{registry, EngineMode};
use gbatch::kernels::dispatch::{
    gbsv_batch, gbtrf_batch, gbtrs_batch, gbtrs_batch_lanes, FactorAlgo, GbsvOptions,
};
use gbatch::kernels::spike::SpikeParams;

/// 64-bit FNV-1a over a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (w.to_le_bytes().iter()).fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

/// Digest of the length, then the bit pattern of every element (f32
/// widened exactly).
fn bits<S: Scalar>(v: &[S]) -> u64 {
    fnv(once(v.len() as u64).chain(v.iter().map(|x| x.to_f64().to_bits())))
}

fn ints(v: &[i32]) -> u64 {
    fnv(once(v.len() as u64).chain(v.iter().map(|&p| p as u64)))
}

/// One dispatch call of the grid.
struct Case {
    name: &'static str,
    /// `None` runs the factor-only entry point.
    nrhs: Option<usize>,
    n: usize,
    kl: usize,
    ku: usize,
    batch: usize,
    /// Lane whose first column is zeroed (`info = 1`).
    singular: Option<usize>,
    opts: GbsvOptions,
}

fn cases() -> Vec<Case> {
    let forced = |algo| GbsvOptions {
        algo,
        ..Default::default()
    };
    let column = forced(FactorAlgo::ColumnMajor);
    let case = |name, nrhs, (n, kl, ku), batch, singular, opts| Case {
        name,
        nrhs,
        n,
        kl,
        ku,
        batch,
        singular,
        opts,
    };
    vec![
        case(
            "fused_gbsv",
            Some(1),
            (32, 2, 3),
            6,
            Some(3),
            GbsvOptions::default(),
        ),
        case(
            "no_fused_gbsv",
            Some(1),
            (32, 2, 3),
            6,
            None,
            forced(FactorAlgo::Fused),
        ),
        case("fused_10rhs", Some(10), (48, 2, 3), 4, None, column),
        case("window", Some(1), (200, 2, 3), 6, Some(1), column),
        case("window_factor", None, (200, 10, 7), 3, None, column),
        case(
            "auto_gbsv",
            Some(1),
            (96, 2, 3),
            40,
            None,
            GbsvOptions::default(),
        ),
        case(
            "auto_factor",
            None,
            (96, 2, 3),
            40,
            Some(7),
            GbsvOptions::default(),
        ),
        case(
            "auto_column",
            Some(2),
            (24, 1, 1),
            64,
            None,
            GbsvOptions::default(),
        ),
        case(
            "auto_column_factor",
            None,
            (16, 1, 2),
            256,
            None,
            GbsvOptions::default(),
        ),
        case(
            "forced_interleaved",
            Some(2),
            (100, 1, 1),
            4,
            Some(2),
            forced(FactorAlgo::Interleaved),
        ),
        case(
            "forced_fused",
            Some(2),
            (48, 2, 3),
            3,
            None,
            forced(FactorAlgo::Fused),
        ),
        case(
            "forced_window",
            Some(2),
            (48, 2, 3),
            3,
            None,
            forced(FactorAlgo::Window),
        ),
        case(
            "forced_reference",
            Some(2),
            (48, 2, 3),
            3,
            Some(0),
            forced(FactorAlgo::Reference),
        ),
        case(
            "forced_fused_factor",
            None,
            (48, 2, 3),
            3,
            None,
            forced(FactorAlgo::Fused),
        ),
        case(
            "wide_auto",
            None,
            (208, 200, 200),
            2,
            None,
            GbsvOptions::default(),
        ),
        case("wide_column", None, (208, 200, 200), 2, None, column),
        case("percol_solve", Some(1232), (96, 40, 40), 2, None, column),
        case(
            "spike_auto",
            Some(1),
            (4096, 2, 2),
            1,
            None,
            GbsvOptions::default(),
        ),
        case(
            "spike_forced",
            Some(2),
            (120, 2, 3),
            2,
            None,
            GbsvOptions {
                spike: Some(SpikeParams::default().with_parts(4)),
                ..forced(FactorAlgo::Spike)
            },
        ),
        case(
            "spike_blocked",
            Some(1),
            (4096, 2, 2),
            1,
            None,
            forced(FactorAlgo::Window),
        ),
        case(
            "n16_fused_gbsv",
            Some(1),
            (16, 2, 3),
            4,
            None,
            forced(FactorAlgo::FusedGbsv),
        ),
        case(
            "n16_fused",
            Some(1),
            (16, 2, 3),
            4,
            None,
            forced(FactorAlgo::Fused),
        ),
        case(
            "n16_window",
            Some(1),
            (16, 2, 3),
            4,
            None,
            forced(FactorAlgo::Window),
        ),
        case(
            "n16_reference",
            Some(1),
            (16, 2, 3),
            4,
            None,
            forced(FactorAlgo::Reference),
        ),
        case(
            "n16_interleaved",
            Some(1),
            (16, 2, 3),
            4,
            None,
            forced(FactorAlgo::Interleaved),
        ),
        case(
            "n16_spike",
            Some(1),
            (16, 2, 3),
            4,
            None,
            forced(FactorAlgo::Spike),
        ),
        case(
            "n48_fused_gbsv",
            Some(1),
            (48, 2, 3),
            4,
            None,
            forced(FactorAlgo::FusedGbsv),
        ),
        case(
            "n48_fused",
            Some(1),
            (48, 2, 3),
            4,
            None,
            forced(FactorAlgo::Fused),
        ),
        case(
            "n48_window",
            Some(1),
            (48, 2, 3),
            4,
            None,
            forced(FactorAlgo::Window),
        ),
        case(
            "n48_reference",
            Some(1),
            (48, 2, 3),
            4,
            None,
            forced(FactorAlgo::Reference),
        ),
        case(
            "n48_interleaved",
            Some(1),
            (48, 2, 3),
            4,
            None,
            forced(FactorAlgo::Interleaved),
        ),
        case(
            "n48_spike",
            Some(1),
            (48, 2, 3),
            4,
            None,
            forced(FactorAlgo::Spike),
        ),
        case(
            "gbtrf_fused_gbsv",
            None,
            (48, 2, 3),
            4,
            None,
            forced(FactorAlgo::FusedGbsv),
        ),
        case(
            "gbtrf_spike",
            None,
            (48, 2, 3),
            4,
            None,
            forced(FactorAlgo::Spike),
        ),
        case(
            "diagonal_spike",
            Some(1),
            (48, 0, 0),
            4,
            None,
            forced(FactorAlgo::Spike),
        ),
    ]
}

/// Deterministic diagonally dominant batch.
fn band<S: Scalar>(c: &Case) -> BandBatch<S> {
    BandBatch::<S>::from_fn(c.batch, c.n, c.n, c.kl, c.ku, |id, m| {
        for j in 0..c.n {
            let (s, e) = m.layout.col_rows(j);
            let mut sum = 0.0;
            for i in (s..e).filter(|&i| i != j) {
                let v = ((i * 7 + j * 3 + id) % 5) as f64 * 0.1 + 0.05;
                sum += v;
                m.set(i, j, S::from_f64(v));
            }
            m.set(j, j, S::from_f64(sum + 1.0));
            if c.singular == Some(id) && j == 0 {
                (s..e).for_each(|i| m.set(i, 0, S::ZERO));
            }
        }
    })
    .unwrap()
}

/// Deterministic right-hand sides for `nrhs` columns.
fn rhs<S: Scalar>(c: &Case, nrhs: usize) -> RhsBatch<S> {
    RhsBatch::<S>::from_fn(c.batch, c.n, nrhs, |id, i, col| {
        S::from_f64(((i * 13 + col * 5 + id) % 11) as f64 * 0.1 - 0.5)
    })
    .unwrap()
}

/// Run one cell and render its line.
fn cell<S: Scalar>(out: &mut String, dev_name: &str, engine: EngineMode, c: &Case) {
    let dev = registry::device(dev_name).unwrap();
    let opts = GbsvOptions {
        engine: Some(engine),
        ..c.opts
    };
    let mut a = band::<S>(c);
    let mut piv = PivotBatch::new(c.batch, c.n, c.n);
    let mut info = InfoArray::new(c.batch);
    let (rep, x) = match c.nrhs {
        Some(nrhs) => {
            let mut b = rhs::<S>(c, nrhs);
            let rep = gbsv_batch::<S>(&dev, &mut a, &mut piv, &mut b, &mut info, &opts);
            (rep.unwrap(), format!("{:#018x}", bits(b.data())))
        }
        None => {
            let rep = gbtrf_batch::<S>(&dev, &mut a, &mut piv, &mut info, &opts);
            (rep.unwrap(), "-".into())
        }
    };
    writeln!(
        out,
        "{dev_name} {} {engine:?} {} algo={:?} launches={} time={:#018x} singular={:?} \
         info={:#018x} a={:#018x} piv={:#018x} x={x}",
        S::PRECISION,
        c.name,
        rep.algo,
        rep.launches,
        rep.time.secs().to_bits(),
        rep.singular,
        ints(info.as_slice()),
        bits(a.data()),
        ints(piv.as_slice()),
    )
    .unwrap();
}

fn render() -> String {
    let mut out = String::new();
    for c in &cases() {
        for dev in [registry::H100_PCIE, registry::MI250X_GCD] {
            for engine in [EngineMode::PerLaunch, EngineMode::Resident] {
                cell::<f64>(&mut out, dev, engine, c);
                cell::<f32>(&mut out, dev, engine, c);
            }
        }
    }
    out
}

const PINS: &str = "\
h100_pcie f64 PerLaunch fused_gbsv algo=FusedGbsv launches=1 time=0x3eefe74dd910881e singular=[3] info=0x2f08ef342a184562 a=0x36d79449e25368f3 piv=0x828e1f95781f8285 x=0x9139a41d1924b583\n\
h100_pcie f32 PerLaunch fused_gbsv algo=FusedGbsv launches=1 time=0x3eefe74dd910881e singular=[3] info=0x2f08ef342a184562 a=0x82b68a253b6bfdc1 piv=0x828e1f95781f8285 x=0x82b4cfe7d6ff9481\n\
h100_pcie f64 Resident fused_gbsv algo=FusedGbsv launches=1 time=0x3ee8904182c0f030 singular=[3] info=0x2f08ef342a184562 a=0x36d79449e25368f3 piv=0x828e1f95781f8285 x=0x9139a41d1924b583\n\
h100_pcie f32 Resident fused_gbsv algo=FusedGbsv launches=1 time=0x3ee8904182c0f030 singular=[3] info=0x2f08ef342a184562 a=0x82b68a253b6bfdc1 piv=0x828e1f95781f8285 x=0x82b4cfe7d6ff9481\n\
mi250x_gcd f64 PerLaunch fused_gbsv algo=FusedGbsv launches=1 time=0x3ef90dded6ab63b7 singular=[3] info=0x2f08ef342a184562 a=0x36d79449e25368f3 piv=0x828e1f95781f8285 x=0x9139a41d1924b583\n\
mi250x_gcd f32 PerLaunch fused_gbsv algo=FusedGbsv launches=1 time=0x3ef90dded6ab63b7 singular=[3] info=0x2f08ef342a184562 a=0x82b68a253b6bfdc1 piv=0x828e1f95781f8285 x=0x82b4cfe7d6ff9481\n\
mi250x_gcd f64 Resident fused_gbsv algo=FusedGbsv launches=1 time=0x3ef38c9595efb1c5 singular=[3] info=0x2f08ef342a184562 a=0x36d79449e25368f3 piv=0x828e1f95781f8285 x=0x9139a41d1924b583\n\
mi250x_gcd f32 Resident fused_gbsv algo=FusedGbsv launches=1 time=0x3ef38c9595efb1c5 singular=[3] info=0x2f08ef342a184562 a=0x82b68a253b6bfdc1 piv=0x828e1f95781f8285 x=0x82b4cfe7d6ff9481\n\
h100_pcie f64 PerLaunch no_fused_gbsv algo=Fused launches=3 time=0x3efa6c69b84cf596 singular=[] info=0x55b0986fe7822fc3 a=0x9abadd536f6a1d76 piv=0x828e1f95781f8285 x=0x349966098178b08e\n\
h100_pcie f32 PerLaunch no_fused_gbsv algo=Fused launches=3 time=0x3efa6c69b84cf596 singular=[] info=0x55b0986fe7822fc3 a=0xc4ec02fafbb2bf6d piv=0x828e1f95781f8285 x=0x83a79f21a2cbfe8a\n\
h100_pcie f64 Resident no_fused_gbsv algo=Fused launches=3 time=0x3eeed3ae6dab2364 singular=[] info=0x55b0986fe7822fc3 a=0x9abadd536f6a1d76 piv=0x828e1f95781f8285 x=0x349966098178b08e\n\
h100_pcie f32 Resident no_fused_gbsv algo=Fused launches=3 time=0x3eeed3ae6dab2364 singular=[] info=0x55b0986fe7822fc3 a=0xc4ec02fafbb2bf6d piv=0x828e1f95781f8285 x=0x83a79f21a2cbfe8a\n\
mi250x_gcd f64 PerLaunch no_fused_gbsv algo=Fused launches=3 time=0x3f04479ee445789a singular=[] info=0x55b0986fe7822fc3 a=0x9abadd536f6a1d76 piv=0x828e1f95781f8285 x=0x349966098178b08e\n\
mi250x_gcd f32 PerLaunch no_fused_gbsv algo=Fused launches=3 time=0x3f04479ee445789a singular=[] info=0x55b0986fe7822fc3 a=0xc4ec02fafbb2bf6d piv=0x828e1f95781f8285 x=0x83a79f21a2cbfe8a\n\
mi250x_gcd f64 Resident no_fused_gbsv algo=Fused launches=3 time=0x3ef80b620657db5c singular=[] info=0x55b0986fe7822fc3 a=0x9abadd536f6a1d76 piv=0x828e1f95781f8285 x=0x349966098178b08e\n\
mi250x_gcd f32 Resident no_fused_gbsv algo=Fused launches=3 time=0x3ef80b620657db5c singular=[] info=0x55b0986fe7822fc3 a=0xc4ec02fafbb2bf6d piv=0x828e1f95781f8285 x=0x83a79f21a2cbfe8a\n\
h100_pcie f64 PerLaunch fused_10rhs algo=Fused launches=3 time=0x3f071dd38c9826b0 singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x517c80a4c75ebcd6\n\
h100_pcie f32 PerLaunch fused_10rhs algo=Fused launches=3 time=0x3f071dd38c9826b0 singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x63180685a0a7d9ba\n\
h100_pcie f64 Resident fused_10rhs algo=Fused launches=3 time=0x3f019c8a4bdc74be singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x517c80a4c75ebcd6\n\
h100_pcie f32 Resident fused_10rhs algo=Fused launches=3 time=0x3f019c8a4bdc74be singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x63180685a0a7d9ba\n\
mi250x_gcd f64 PerLaunch fused_10rhs algo=Fused launches=3 time=0x3f15441b9f7f7364 singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x517c80a4c75ebcd6\n\
mi250x_gcd f32 PerLaunch fused_10rhs algo=Fused launches=3 time=0x3f15441b9f7f7364 singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x63180685a0a7d9ba\n\
mi250x_gcd f64 Resident fused_10rhs algo=Fused launches=3 time=0x3f112324aef2adee singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x517c80a4c75ebcd6\n\
mi250x_gcd f32 Resident fused_10rhs algo=Fused launches=3 time=0x3f112324aef2adee singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x63180685a0a7d9ba\n\
h100_pcie f64 PerLaunch window algo=Window launches=3 time=0x3f1b0d5f8e7f0594 singular=[1] info=0xb7148fa574af9522 a=0x75773844718b60a8 piv=0x388351899e644ec9 x=0x02b2c8e47171b3ca\n\
h100_pcie f32 PerLaunch window algo=Window launches=3 time=0x3f1b0d5f8e7f0594 singular=[1] info=0xb7148fa574af9522 a=0x027d36f3e0cd09c7 piv=0x388351899e644ec9 x=0xa4af4c35559ecd54\n\
h100_pcie f64 Resident window algo=Window launches=3 time=0x3f184cbaee212c9a singular=[1] info=0xb7148fa574af9522 a=0x75773844718b60a8 piv=0x388351899e644ec9 x=0x02b2c8e47171b3ca\n\
h100_pcie f32 Resident window algo=Window launches=3 time=0x3f184cbaee212c9a singular=[1] info=0xb7148fa574af9522 a=0x027d36f3e0cd09c7 piv=0x388351899e644ec9 x=0xa4af4c35559ecd54\n\
mi250x_gcd f64 PerLaunch window algo=Window launches=3 time=0x3f25a7b491f0048d singular=[1] info=0xb7148fa574af9522 a=0x75773844718b60a8 piv=0x388351899e644ec9 x=0x02b2c8e47171b3ca\n\
mi250x_gcd f32 PerLaunch window algo=Window launches=3 time=0x3f25a7b491f0048d singular=[1] info=0xb7148fa574af9522 a=0x027d36f3e0cd09c7 piv=0x388351899e644ec9 x=0xa4af4c35559ecd54\n\
mi250x_gcd f64 Resident window algo=Window launches=3 time=0x3f23973919a9a1d2 singular=[1] info=0xb7148fa574af9522 a=0x75773844718b60a8 piv=0x388351899e644ec9 x=0x02b2c8e47171b3ca\n\
mi250x_gcd f32 Resident window algo=Window launches=3 time=0x3f23973919a9a1d2 singular=[1] info=0xb7148fa574af9522 a=0x027d36f3e0cd09c7 piv=0x388351899e644ec9 x=0xa4af4c35559ecd54\n\
h100_pcie f64 PerLaunch window_factor algo=Window launches=1 time=0x3f250ddbfa2f8cdd singular=[] info=0x11dac35ef0813626 a=0x7bef3546acb1fcd9 piv=0xa4025740ca1faa67 x=-\n\
h100_pcie f32 PerLaunch window_factor algo=Window launches=1 time=0x3f250ddbfa2f8cdd singular=[] info=0x11dac35ef0813626 a=0xd74cc85ba8e82e22 piv=0xa4025740ca1faa67 x=-\n\
h100_pcie f64 Resident window_factor algo=Window launches=1 time=0x3f24986b34ca935f singular=[] info=0x11dac35ef0813626 a=0x7bef3546acb1fcd9 piv=0xa4025740ca1faa67 x=-\n\
h100_pcie f32 Resident window_factor algo=Window launches=1 time=0x3f24986b34ca935f singular=[] info=0x11dac35ef0813626 a=0xd74cc85ba8e82e22 piv=0xa4025740ca1faa67 x=-\n\
mi250x_gcd f64 PerLaunch window_factor algo=Window launches=1 time=0x3f36feca1ff43c27 singular=[] info=0x11dac35ef0813626 a=0x7bef3546acb1fcd9 piv=0xa4025740ca1faa67 x=-\n\
mi250x_gcd f32 PerLaunch window_factor algo=Window launches=1 time=0x3f36feca1ff43c27 singular=[] info=0x11dac35ef0813626 a=0xd74cc85ba8e82e22 piv=0xa4025740ca1faa67 x=-\n\
mi250x_gcd f64 Resident window_factor algo=Window launches=1 time=0x3f36a6b58be88108 singular=[] info=0x11dac35ef0813626 a=0x7bef3546acb1fcd9 piv=0xa4025740ca1faa67 x=-\n\
mi250x_gcd f32 Resident window_factor algo=Window launches=1 time=0x3f36a6b58be88108 singular=[] info=0x11dac35ef0813626 a=0xd74cc85ba8e82e22 piv=0xa4025740ca1faa67 x=-\n\
h100_pcie f64 PerLaunch auto_gbsv algo=Interleaved launches=2 time=0x3ee22f28dd29ed04 singular=[] info=0x7e74ccb5438367ad a=0x8579474cdb9a782d piv=0x16910826b7f0cef0 x=0x732b5d63c1f2dcf8\n\
h100_pcie f32 PerLaunch auto_gbsv algo=Interleaved launches=2 time=0x3ee1e67556c6d8a9 singular=[] info=0x7e74ccb5438367ad a=0xfedc4b8f1379dd0d piv=0x16910826b7f0cef0 x=0xfc6b684d7866af95\n\
h100_pcie f64 Resident auto_gbsv algo=Interleaved launches=2 time=0x3ebc08818455e946 singular=[] info=0x7e74ccb5438367ad a=0x8579474cdb9a782d piv=0x16910826b7f0cef0 x=0x732b5d63c1f2dcf8\n\
h100_pcie f32 Resident auto_gbsv algo=Interleaved launches=2 time=0x3eb9c2e5513d4670 singular=[] info=0x7e74ccb5438367ad a=0xfedc4b8f1379dd0d piv=0x16910826b7f0cef0 x=0xfc6b684d7866af95\n\
mi250x_gcd f64 PerLaunch auto_gbsv algo=Interleaved launches=2 time=0x3eea9c751c02905e singular=[] info=0x7e74ccb5438367ad a=0x8579474cdb9a782d piv=0x16910826b7f0cef0 x=0x732b5d63c1f2dcf8\n\
mi250x_gcd f32 PerLaunch auto_gbsv algo=Interleaved launches=2 time=0x3eea3c69bb2d0fab singular=[] info=0x7e74ccb5438367ad a=0xfedc4b8f1379dd0d piv=0x16910826b7f0cef0 x=0xfc6b684d7866af95\n\
mi250x_gcd f64 Resident auto_gbsv algo=Interleaved launches=2 time=0x3ec25d40644f2252 singular=[] info=0x7e74ccb5438367ad a=0x8579474cdb9a782d piv=0x16910826b7f0cef0 x=0x732b5d63c1f2dcf8\n\
mi250x_gcd f32 Resident auto_gbsv algo=Interleaved launches=2 time=0x3ec0dd12e0f91f87 singular=[] info=0x7e74ccb5438367ad a=0xfedc4b8f1379dd0d piv=0x16910826b7f0cef0 x=0xfc6b684d7866af95\n\
h100_pcie f64 PerLaunch auto_factor algo=Interleaved launches=1 time=0x3ed2748c00119b10 singular=[7] info=0xa50b52e39c92998c a=0x1f07188289e78287 piv=0x16910826b7f0cef0 x=-\n\
h100_pcie f32 PerLaunch auto_factor algo=Interleaved launches=1 time=0x3ed2748c00119b10 singular=[7] info=0xa50b52e39c92998c a=0x51f9a8ec6adb7975 piv=0x16910826b7f0cef0 x=-\n\
h100_pcie f64 Resident auto_factor algo=Interleaved launches=1 time=0x3eae339a9b9359a8 singular=[7] info=0xa50b52e39c92998c a=0x1f07188289e78287 piv=0x16910826b7f0cef0 x=-\n\
h100_pcie f32 Resident auto_factor algo=Interleaved launches=1 time=0x3eae339a9b9359a8 singular=[7] info=0xa50b52e39c92998c a=0x51f9a8ec6adb7975 piv=0x16910826b7f0cef0 x=-\n\
mi250x_gcd f64 PerLaunch auto_factor algo=Interleaved launches=1 time=0x3edaca0be139822d singular=[7] info=0xa50b52e39c92998c a=0x1f07188289e78287 piv=0x16910826b7f0cef0 x=-\n\
mi250x_gcd f32 PerLaunch auto_factor algo=Interleaved launches=1 time=0x3edac3d0a4c8a1c5 singular=[7] info=0xa50b52e39c92998c a=0x51f9a8ec6adb7975 piv=0x16910826b7f0cef0 x=-\n\
mi250x_gcd f64 Resident auto_factor algo=Interleaved launches=1 time=0x3eb3139b792ae990 singular=[7] info=0xa50b52e39c92998c a=0x1f07188289e78287 piv=0x16910826b7f0cef0 x=-\n\
mi250x_gcd f32 Resident auto_factor algo=Interleaved launches=1 time=0x3eb2faae876767ee singular=[7] info=0xa50b52e39c92998c a=0x51f9a8ec6adb7975 piv=0x16910826b7f0cef0 x=-\n\
h100_pcie f64 PerLaunch auto_column algo=Interleaved launches=2 time=0x3ee120b1bfc95f82 singular=[] info=0x1d4d63e57f86ea05 a=0x1e56ff4e719f3b4b piv=0x0d3d91a2d58288a3 x=0x51be4f9ed8ff14bd\n\
h100_pcie f32 PerLaunch auto_column algo=Interleaved launches=2 time=0x3ee106ade60d7c66 singular=[] info=0x1d4d63e57f86ea05 a=0x6c9bfdc8da4a5eef piv=0x0d3d91a2d58288a3 x=0xee500f9583fd3ba9\n\
h100_pcie f64 Resident auto_column algo=Interleaved launches=2 time=0x3eb394c899517d32 singular=[] info=0x1d4d63e57f86ea05 a=0x1e56ff4e719f3b4b piv=0x0d3d91a2d58288a3 x=0x51be4f9ed8ff14bd\n\
h100_pcie f32 Resident auto_column algo=Interleaved launches=2 time=0x3eb2c4a9cb726454 singular=[] info=0x1d4d63e57f86ea05 a=0x6c9bfdc8da4a5eef piv=0x0d3d91a2d58288a3 x=0xee500f9583fd3ba9\n\
mi250x_gcd f64 PerLaunch auto_column algo=Interleaved launches=2 time=0x3ee989b010176fce singular=[] info=0x1d4d63e57f86ea05 a=0x1e56ff4e719f3b4b piv=0x0d3d91a2d58288a3 x=0x51be4f9ed8ff14bd\n\
mi250x_gcd f32 PerLaunch auto_column algo=Interleaved launches=2 time=0x3ee9672a2b9d8d95 singular=[] info=0x1d4d63e57f86ea05 a=0x6c9bfdc8da4a5eef piv=0x0d3d91a2d58288a3 x=0xee500f9583fd3ba9\n\
mi250x_gcd f64 Resident auto_column algo=Interleaved launches=2 time=0x3ebc245869454025 singular=[] info=0x1d4d63e57f86ea05 a=0x1e56ff4e719f3b4b piv=0x0d3d91a2d58288a3 x=0x51be4f9ed8ff14bd\n\
mi250x_gcd f32 Resident auto_column algo=Interleaved launches=2 time=0x3ebb102945762e5e singular=[] info=0x1d4d63e57f86ea05 a=0x6c9bfdc8da4a5eef piv=0x0d3d91a2d58288a3 x=0xee500f9583fd3ba9\n\
h100_pcie f64 PerLaunch auto_column_factor algo=Interleaved launches=1 time=0x3ed1b63d48e9c819 singular=[] info=0x2557fe638573a6ea a=0x5723b6e41a5fc0a0 piv=0xdd8d9088dc990c15 x=-\n\
h100_pcie f32 PerLaunch auto_column_factor algo=Interleaved launches=1 time=0x3ed1b63d48e9c819 singular=[] info=0x2557fe638573a6ea a=0x05084ffe03ddad83 piv=0xdd8d9088dc990c15 x=-\n\
h100_pcie f64 Resident auto_column_factor algo=Interleaved launches=1 time=0x3ea84124e254c1ee singular=[] info=0x2557fe638573a6ea a=0x5723b6e41a5fc0a0 piv=0xdd8d9088dc990c15 x=-\n\
h100_pcie f32 Resident auto_column_factor algo=Interleaved launches=1 time=0x3ea84124e254c1ee singular=[] info=0x2557fe638573a6ea a=0x05084ffe03ddad83 piv=0xdd8d9088dc990c15 x=-\n\
mi250x_gcd f64 PerLaunch auto_column_factor algo=Interleaved launches=1 time=0x3edbed946104924f singular=[] info=0x2557fe638573a6ea a=0x5723b6e41a5fc0a0 piv=0xdd8d9088dc990c15 x=-\n\
mi250x_gcd f32 PerLaunch auto_column_factor algo=Interleaved launches=1 time=0x3eda0e7692dbe7cb singular=[] info=0x2557fe638573a6ea a=0x05084ffe03ddad83 piv=0xdd8d9088dc990c15 x=-\n\
mi250x_gcd f64 Resident auto_column_factor algo=Interleaved launches=1 time=0x3eb7a1bd78572a18 singular=[] info=0x2557fe638573a6ea a=0x5723b6e41a5fc0a0 piv=0xdd8d9088dc990c15 x=-\n\
mi250x_gcd f32 Resident auto_column_factor algo=Interleaved launches=1 time=0x3eb025463fb48004 singular=[] info=0x2557fe638573a6ea a=0x05084ffe03ddad83 piv=0xdd8d9088dc990c15 x=-\n\
h100_pcie f64 PerLaunch forced_interleaved algo=Interleaved launches=2 time=0x3ee0df12544977ac singular=[2] info=0x7768651b1296d980 a=0xb7481c913b7d088b piv=0x421685347eae767a x=0x09571ca8409460f9\n\
h100_pcie f32 PerLaunch forced_interleaved algo=Interleaved launches=2 time=0x3ee0d7efa47d5f64 singular=[2] info=0x7768651b1296d980 a=0x8af87a952a2848b5 piv=0x421685347eae767a x=0x08b457584b73ba21\n\
h100_pcie f64 Resident forced_interleaved algo=Interleaved launches=2 time=0x3eb187cd3d523e86 singular=[2] info=0x7768651b1296d980 a=0xb7481c913b7d088b piv=0x421685347eae767a x=0x09571ca8409460f9\n\
h100_pcie f32 Resident forced_interleaved algo=Interleaved launches=2 time=0x3eb14eb7bef17c4a singular=[2] info=0x7768651b1296d980 a=0x8af87a952a2848b5 piv=0x421685347eae767a x=0x08b457584b73ba21\n\
mi250x_gcd f64 PerLaunch forced_interleaved algo=Interleaved launches=2 time=0x3ee943436c5bf2bf singular=[2] info=0x7768651b1296d980 a=0xb7481c913b7d088b piv=0x421685347eae767a x=0x09571ca8409460f9\n\
mi250x_gcd f32 PerLaunch forced_interleaved algo=Interleaved launches=2 time=0x3ee93a9f083e62e2 singular=[2] info=0x7768651b1296d980 a=0x8af87a952a2848b5 piv=0x421685347eae767a x=0x08b457584b73ba21\n\
mi250x_gcd f64 Resident forced_interleaved algo=Interleaved launches=2 time=0x3eb9f0f34b6957b0 singular=[2] info=0x7768651b1296d980 a=0xb7481c913b7d088b piv=0x421685347eae767a x=0x09571ca8409460f9\n\
mi250x_gcd f32 Resident forced_interleaved algo=Interleaved launches=2 time=0x3eb9abd02a7cd8c6 singular=[2] info=0x7768651b1296d980 a=0x8af87a952a2848b5 piv=0x421685347eae767a x=0x08b457584b73ba21\n\
h100_pcie f64 PerLaunch forced_fused algo=Fused launches=3 time=0x3f0170519c65d796 singular=[] info=0x11dac35ef0813626 a=0xbeb3a727b0c07754 piv=0xc4efdfaac20c3b55 x=0x3921c607de37ccf0\n\
h100_pcie f32 PerLaunch forced_fused algo=Fused launches=3 time=0x3f0170519c65d796 singular=[] info=0x11dac35ef0813626 a=0x0c10d30186ce86f9 piv=0xc4efdfaac20c3b55 x=0x3d227d846b9a1674\n\
h100_pcie f64 Resident forced_fused algo=Fused launches=3 time=0x3ef7de10b7544b48 singular=[] info=0x11dac35ef0813626 a=0xbeb3a727b0c07754 piv=0xc4efdfaac20c3b55 x=0x3921c607de37ccf0\n\
h100_pcie f32 Resident forced_fused algo=Fused launches=3 time=0x3ef7de10b7544b48 singular=[] info=0x11dac35ef0813626 a=0x0c10d30186ce86f9 piv=0xc4efdfaac20c3b55 x=0x3d227d846b9a1674\n\
mi250x_gcd f64 PerLaunch forced_fused algo=Fused launches=3 time=0x3f0bb11088be5a1d singular=[] info=0x11dac35ef0813626 a=0xbeb3a727b0c07754 piv=0xc4efdfaac20c3b55 x=0x3921c607de37ccf0\n\
mi250x_gcd f32 PerLaunch forced_fused algo=Fused launches=3 time=0x3f0bb11088be5a1d singular=[] info=0x11dac35ef0813626 a=0x0c10d30186ce86f9 piv=0xc4efdfaac20c3b55 x=0x3d227d846b9a1674\n\
mi250x_gcd f64 Resident forced_fused algo=Fused launches=3 time=0x3f036f22a7a4cf32 singular=[] info=0x11dac35ef0813626 a=0xbeb3a727b0c07754 piv=0xc4efdfaac20c3b55 x=0x3921c607de37ccf0\n\
mi250x_gcd f32 Resident forced_fused algo=Fused launches=3 time=0x3f036f22a7a4cf32 singular=[] info=0x11dac35ef0813626 a=0x0c10d30186ce86f9 piv=0xc4efdfaac20c3b55 x=0x3d227d846b9a1674\n\
h100_pcie f64 PerLaunch forced_window algo=Window launches=3 time=0x3f024396626091a4 singular=[] info=0x11dac35ef0813626 a=0xbeb3a727b0c07754 piv=0xc4efdfaac20c3b55 x=0x3921c607de37ccf0\n\
h100_pcie f32 PerLaunch forced_window algo=Window launches=3 time=0x3f024396626091a4 singular=[] info=0x11dac35ef0813626 a=0x0c10d30186ce86f9 piv=0xc4efdfaac20c3b55 x=0x3d227d846b9a1674\n\
h100_pcie f64 Resident forced_window algo=Window launches=3 time=0x3ef9849a4349bf64 singular=[] info=0x11dac35ef0813626 a=0xbeb3a727b0c07754 piv=0xc4efdfaac20c3b55 x=0x3921c607de37ccf0\n\
h100_pcie f32 Resident forced_window algo=Window launches=3 time=0x3ef9849a4349bf64 singular=[] info=0x11dac35ef0813626 a=0x0c10d30186ce86f9 piv=0xc4efdfaac20c3b55 x=0x3d227d846b9a1674\n\
mi250x_gcd f64 PerLaunch forced_window algo=Window launches=3 time=0x3f0d5b673b851dee singular=[] info=0x11dac35ef0813626 a=0xbeb3a727b0c07754 piv=0xc4efdfaac20c3b55 x=0x3921c607de37ccf0\n\
mi250x_gcd f32 PerLaunch forced_window algo=Window launches=3 time=0x3f0d5b673b851dee singular=[] info=0x11dac35ef0813626 a=0x0c10d30186ce86f9 piv=0xc4efdfaac20c3b55 x=0x3d227d846b9a1674\n\
mi250x_gcd f64 Resident forced_window algo=Window launches=3 time=0x3f0519795a6b9303 singular=[] info=0x11dac35ef0813626 a=0xbeb3a727b0c07754 piv=0xc4efdfaac20c3b55 x=0x3921c607de37ccf0\n\
mi250x_gcd f32 Resident forced_window algo=Window launches=3 time=0x3f0519795a6b9303 singular=[] info=0x11dac35ef0813626 a=0x0c10d30186ce86f9 piv=0xc4efdfaac20c3b55 x=0x3d227d846b9a1674\n\
h100_pcie f64 PerLaunch forced_reference algo=Reference launches=99 time=0x3f3a7ce098ebcab0 singular=[0] info=0x38826c9aadeb2087 a=0xf71a8c84cbf9e620 piv=0xc4efdfaac20c3b55 x=0xe112453a3dba8e3f\n\
h100_pcie f32 PerLaunch forced_reference algo=Reference launches=99 time=0x3f3a7cc910425362 singular=[0] info=0x38826c9aadeb2087 a=0x51e5b9bc5058031c piv=0xc4efdfaac20c3b55 x=0xb934afdf15ea3d0e\n\
h100_pcie f64 Resident forced_reference algo=Reference launches=99 time=0x3f0e3c936f2c6550 singular=[0] info=0x38826c9aadeb2087 a=0xf71a8c84cbf9e620 piv=0xc4efdfaac20c3b55 x=0xe112453a3dba8e3f\n\
h100_pcie f32 Resident forced_reference algo=Reference launches=99 time=0x3f0e3bd729e0aab0 singular=[0] info=0x38826c9aadeb2087 a=0x51e5b9bc5058031c piv=0xc4efdfaac20c3b55 x=0xb934afdf15ea3d0e\n\
mi250x_gcd f64 PerLaunch forced_reference algo=Reference launches=99 time=0x3f43f1bbe2a13e9e singular=[0] info=0x38826c9aadeb2087 a=0xf71a8c84cbf9e620 piv=0xc4efdfaac20c3b55 x=0xe112453a3dba8e3f\n\
mi250x_gcd f32 PerLaunch forced_reference algo=Reference launches=99 time=0x3f43f1a545058b99 singular=[0] info=0x38826c9aadeb2087 a=0x51e5b9bc5058031c piv=0xc4efdfaac20c3b55 x=0xb934afdf15ea3d0e\n\
mi250x_gcd f64 Resident forced_reference algo=Reference launches=99 time=0x3f174e0a12e480e2 singular=[0] info=0x38826c9aadeb2087 a=0xf71a8c84cbf9e620 piv=0xc4efdfaac20c3b55 x=0xe112453a3dba8e3f\n\
mi250x_gcd f32 Resident forced_reference algo=Reference launches=99 time=0x3f174d552606e896 singular=[0] info=0x38826c9aadeb2087 a=0x51e5b9bc5058031c piv=0xc4efdfaac20c3b55 x=0xb934afdf15ea3d0e\n\
h100_pcie f64 PerLaunch forced_fused_factor algo=Fused launches=1 time=0x3ef1efaceb760d34 singular=[] info=0x11dac35ef0813626 a=0xbeb3a727b0c07754 piv=0xc4efdfaac20c3b55 x=-\n\
h100_pcie f32 PerLaunch forced_fused_factor algo=Fused launches=1 time=0x3ef1efaceb760d34 singular=[] info=0x11dac35ef0813626 a=0x0c10d30186ce86f9 piv=0xc4efdfaac20c3b55 x=-\n\
h100_pcie f64 Resident forced_fused_factor algo=Fused launches=1 time=0x3eec884d809c827a singular=[] info=0x11dac35ef0813626 a=0xbeb3a727b0c07754 piv=0xc4efdfaac20c3b55 x=-\n\
h100_pcie f32 Resident forced_fused_factor algo=Fused launches=1 time=0x3eec884d809c827a singular=[] info=0x11dac35ef0813626 a=0x0c10d30186ce86f9 piv=0xc4efdfaac20c3b55 x=-\n\
mi250x_gcd f64 PerLaunch forced_fused_factor algo=Fused launches=1 time=0x3efb75d9d3781440 singular=[] info=0x11dac35ef0813626 a=0xbeb3a727b0c07754 piv=0xc4efdfaac20c3b55 x=-\n\
mi250x_gcd f32 PerLaunch forced_fused_factor algo=Fused launches=1 time=0x3efb75d9d3781440 singular=[] info=0x11dac35ef0813626 a=0x0c10d30186ce86f9 piv=0xc4efdfaac20c3b55 x=-\n\
mi250x_gcd f64 Resident forced_fused_factor algo=Fused launches=1 time=0x3ef5f49092bc624e singular=[] info=0x11dac35ef0813626 a=0xbeb3a727b0c07754 piv=0xc4efdfaac20c3b55 x=-\n\
mi250x_gcd f32 Resident forced_fused_factor algo=Fused launches=1 time=0x3ef5f49092bc624e singular=[] info=0x11dac35ef0813626 a=0x0c10d30186ce86f9 piv=0xc4efdfaac20c3b55 x=-\n\
h100_pcie f64 PerLaunch wide_auto algo=Interleaved launches=3 time=0x3f1818ad17722eea singular=[] info=0xcf21924e7b0ff7c7 a=0x73e28af9a42f1ef4 piv=0xd2823800fb56834a x=-\n\
h100_pcie f32 PerLaunch wide_auto algo=Interleaved launches=3 time=0x3f0b3e0a7b8b76ae singular=[] info=0xcf21924e7b0ff7c7 a=0x45a309e870999d3f piv=0xd2823800fb56834a x=-\n\
h100_pcie f64 Resident wide_auto algo=Interleaved launches=3 time=0x3f155808771455f0 singular=[] info=0xcf21924e7b0ff7c7 a=0x73e28af9a42f1ef4 piv=0xd2823800fb56834a x=-\n\
h100_pcie f32 Resident wide_auto algo=Interleaved launches=3 time=0x3f05bcc13acfc4bc singular=[] info=0xcf21924e7b0ff7c7 a=0x45a309e870999d3f piv=0xd2823800fb56834a x=-\n\
mi250x_gcd f64 PerLaunch wide_auto algo=Interleaved launches=3 time=0x3f21b6635e4f606d singular=[] info=0xcf21924e7b0ff7c7 a=0x73e28af9a42f1ef4 piv=0xd2823800fb56834a x=-\n\
mi250x_gcd f32 PerLaunch wide_auto algo=Interleaved launches=3 time=0x3f141269279a2eea singular=[] info=0xcf21924e7b0ff7c7 a=0x45a309e870999d3f piv=0xd2823800fb56834a x=-\n\
mi250x_gcd f64 Resident wide_auto algo=Interleaved launches=3 time=0x3f1f4bcfcc11fb64 singular=[] info=0xcf21924e7b0ff7c7 a=0x73e28af9a42f1ef4 piv=0xd2823800fb56834a x=-\n\
mi250x_gcd f32 Resident wide_auto algo=Interleaved launches=3 time=0x3f0fe2e46e1ad2e8 singular=[] info=0xcf21924e7b0ff7c7 a=0x45a309e870999d3f piv=0xd2823800fb56834a x=-\n\
h100_pcie f64 PerLaunch wide_column algo=Reference launches=417 time=0x3f5c274f97705e38 singular=[] info=0xcf21924e7b0ff7c7 a=0x73e28af9a42f1ef4 piv=0xd2823800fb56834a x=-\n\
h100_pcie f32 PerLaunch wide_column algo=Reference launches=417 time=0x3f5bbdb4f1397a6c singular=[] info=0xcf21924e7b0ff7c7 a=0x45a309e870999d3f piv=0xd2823800fb56834a x=-\n\
h100_pcie f64 Resident wide_column algo=Reference launches=417 time=0x3f30f6e5990444f5 singular=[] info=0xcf21924e7b0ff7c7 a=0x73e28af9a42f1ef4 piv=0xd2823800fb56834a x=-\n\
h100_pcie f32 Resident wide_column algo=Reference launches=417 time=0x3f2ea0f600516bc4 singular=[] info=0xcf21924e7b0ff7c7 a=0x45a309e870999d3f piv=0xd2823800fb56834a x=-\n\
mi250x_gcd f64 PerLaunch wide_column algo=Reference launches=417 time=0x3f6519db01abc590 singular=[] info=0xcf21924e7b0ff7c7 a=0x73e28af9a42f1ef4 piv=0xd2823800fb56834a x=-\n\
mi250x_gcd f32 PerLaunch wide_column algo=Reference launches=417 time=0x3f64cc775aeb1ea2 singular=[] info=0xcf21924e7b0ff7c7 a=0x45a309e870999d3f piv=0xd2823800fb56834a x=-\n\
mi250x_gcd f64 Resident wide_column algo=Reference launches=417 time=0x3f395552e6425ebd singular=[] info=0xcf21924e7b0ff7c7 a=0x73e28af9a42f1ef4 piv=0xd2823800fb56834a x=-\n\
mi250x_gcd f32 Resident wide_column algo=Reference launches=417 time=0x3f36ea35b03d2774 singular=[] info=0xcf21924e7b0ff7c7 a=0x45a309e870999d3f piv=0xd2823800fb56834a x=-\n\
h100_pcie f64 PerLaunch percol_solve algo=Window launches=287 time=0x3f5fc825893afc77 singular=[] info=0xcf21924e7b0ff7c7 a=0xf3bf167b3349d5e3 piv=0x8e778e9fd6c80e85 x=0x4327032d11b7b4aa\n\
h100_pcie f32 PerLaunch percol_solve algo=Window launches=287 time=0x3f5eb1a8b109a9d9 singular=[] info=0xcf21924e7b0ff7c7 a=0x351fd25ee05eaabd piv=0x8e778e9fd6c80e85 x=0x1eeaeca42c7c430a\n\
h100_pcie f64 Resident percol_solve algo=Window launches=287 time=0x3f4ea5efbf690b9e singular=[] info=0xcf21924e7b0ff7c7 a=0xf3bf167b3349d5e3 piv=0x8e778e9fd6c80e85 x=0x4327032d11b7b4aa\n\
h100_pcie f32 Resident percol_solve algo=Window launches=287 time=0x3f4c78f60f06665d singular=[] info=0xcf21924e7b0ff7c7 a=0x351fd25ee05eaabd piv=0x8e778e9fd6c80e85 x=0x1eeaeca42c7c430a\n\
mi250x_gcd f64 PerLaunch percol_solve algo=Reference launches=479 time=0x3f69739ea535559c singular=[] info=0xcf21924e7b0ff7c7 a=0xf3bf167b3349d5e3 piv=0x8e778e9fd6c80e85 x=0x4327032d11b7b4aa\n\
mi250x_gcd f32 PerLaunch percol_solve algo=Window launches=287 time=0x3f6c62efc78bbadc singular=[] info=0xcf21924e7b0ff7c7 a=0x351fd25ee05eaabd piv=0x8e778e9fd6c80e85 x=0x1eeaeca42c7c430a\n\
mi250x_gcd f64 Resident percol_solve algo=Reference launches=479 time=0x3f43673a13dbc6b4 singular=[] info=0xcf21924e7b0ff7c7 a=0xf3bf167b3349d5e3 piv=0x8e778e9fd6c80e85 x=0x4327032d11b7b4aa\n\
mi250x_gcd f32 Resident percol_solve algo=Window launches=287 time=0x3f600b0d8866e1db singular=[] info=0xcf21924e7b0ff7c7 a=0x351fd25ee05eaabd piv=0x8e778e9fd6c80e85 x=0x1eeaeca42c7c430a\n\
h100_pcie f64 PerLaunch spike_auto algo=Spike launches=19 time=0x3f1a8fdda60c3ece singular=[] info=0x392209f14dea4c24 a=0x74892976265a2970 piv=0x880df12a20921e15 x=0x6c9bd5abc56b0f7b\n\
h100_pcie f32 PerLaunch spike_auto algo=Spike launches=13 time=0x3f12f780a55811ba singular=[] info=0x392209f14dea4c24 a=0x25faae2d618888ba piv=0x880df12a20921e15 x=0x4e686b04be5ab0ae\n\
h100_pcie f64 Resident spike_auto algo=Spike launches=19 time=0x3f024240b21e6bf6 singular=[] info=0x392209f14dea4c24 a=0x74892976265a2970 piv=0x880df12a20921e15 x=0x6c9bd5abc56b0f7b\n\
h100_pcie f32 Resident spike_auto algo=Spike launches=13 time=0x3efc2832645aeb5d singular=[] info=0x392209f14dea4c24 a=0x25faae2d618888ba piv=0x880df12a20921e15 x=0x4e686b04be5ab0ae\n\
mi250x_gcd f64 PerLaunch spike_auto algo=Spike launches=19 time=0x3f2471fbfe9ec6e9 singular=[] info=0x392209f14dea4c24 a=0x74892976265a2970 piv=0x880df12a20921e15 x=0x6c9bd5abc56b0f7b\n\
mi250x_gcd f32 PerLaunch spike_auto algo=Spike launches=13 time=0x3f1d629746a47d72 singular=[] info=0x392209f14dea4c24 a=0x25faae2d618888ba piv=0x880df12a20921e15 x=0x4e686b04be5ab0ae\n\
mi250x_gcd f64 Resident spike_auto algo=Spike launches=19 time=0x3f0d7bb813840120 singular=[] info=0x392209f14dea4c24 a=0x74892976265a2970 piv=0x880df12a20921e15 x=0x6c9bd5abc56b0f7b\n\
mi250x_gcd f32 Resident spike_auto algo=Spike launches=13 time=0x3f06fcd26884f63e singular=[] info=0x392209f14dea4c24 a=0x25faae2d618888ba piv=0x880df12a20921e15 x=0x4e686b04be5ab0ae\n\
h100_pcie f64 PerLaunch spike_forced algo=Spike launches=18 time=0x3f1ccfa7a54bb646 singular=[] info=0xcf21924e7b0ff7c7 a=0x613fda72e1ee4c34 piv=0xdcf0f064a7785975 x=0xdf452987696d8b4c\n\
h100_pcie f32 PerLaunch spike_forced algo=Spike launches=18 time=0x3f1ccf2029cff257 singular=[] info=0xcf21924e7b0ff7c7 a=0x9f31b95e037f6bc8 piv=0xdcf0f064a7785975 x=0x7edbdd52d634a0db\n\
h100_pcie f64 Resident spike_forced algo=Spike launches=18 time=0x3f089797c63140de singular=[] info=0xcf21924e7b0ff7c7 a=0x613fda72e1ee4c34 piv=0xdcf0f064a7785975 x=0xdf452987696d8b4c\n\
h100_pcie f32 Resident spike_forced algo=Spike launches=18 time=0x3f089688cf39b902 singular=[] info=0xcf21924e7b0ff7c7 a=0x9f31b95e037f6bc8 piv=0xdcf0f064a7785975 x=0x7edbdd52d634a0db\n\
mi250x_gcd f64 PerLaunch spike_forced algo=Spike launches=18 time=0x3f265d37163afa5e singular=[] info=0xcf21924e7b0ff7c7 a=0x613fda72e1ee4c34 piv=0xdcf0f064a7785975 x=0xdf452987696d8b4c\n\
mi250x_gcd f32 PerLaunch spike_forced algo=Spike launches=18 time=0x3f265cae03dcc26b singular=[] info=0xcf21924e7b0ff7c7 a=0x9f31b95e037f6bc8 piv=0xdcf0f064a7785975 x=0x7edbdd52d634a0db\n\
mi250x_gcd f64 Resident spike_forced algo=Spike launches=18 time=0x3f13f4a4892953f9 singular=[] info=0xcf21924e7b0ff7c7 a=0x613fda72e1ee4c34 piv=0xdcf0f064a7785975 x=0xdf452987696d8b4c\n\
mi250x_gcd f32 Resident spike_forced algo=Spike launches=18 time=0x3f13f392646ce411 singular=[] info=0xcf21924e7b0ff7c7 a=0x9f31b95e037f6bc8 piv=0xdcf0f064a7785975 x=0x7edbdd52d634a0db\n\
h100_pcie f64 PerLaunch spike_blocked algo=Window launches=3 time=0x3f5de473bfc0d19b singular=[] info=0x392209f14dea4c24 a=0xe425217aab73cd11 piv=0x880df12a20921e15 x=0x4a3536f97505c963\n\
h100_pcie f32 PerLaunch spike_blocked algo=Window launches=3 time=0x3f5de473bfc0d19b singular=[] info=0x392209f14dea4c24 a=0xed76ba5ead0ea689 piv=0x880df12a20921e15 x=0x234eb7efcbc4f423\n\
h100_pcie f64 Resident spike_blocked algo=Window launches=3 time=0x3f5db86975baf40c singular=[] info=0x392209f14dea4c24 a=0xe425217aab73cd11 piv=0x880df12a20921e15 x=0x4a3536f97505c963\n\
h100_pcie f32 Resident spike_blocked algo=Window launches=3 time=0x3f5db86975baf40c singular=[] info=0x392209f14dea4c24 a=0xed76ba5ead0ea689 piv=0x880df12a20921e15 x=0x234eb7efcbc4f423\n\
mi250x_gcd f64 PerLaunch spike_blocked algo=Window launches=3 time=0x3f67a0277fce43f2 singular=[] info=0x392209f14dea4c24 a=0xe425217aab73cd11 piv=0x880df12a20921e15 x=0x4a3536f97505c963\n\
mi250x_gcd f32 PerLaunch spike_blocked algo=Window launches=3 time=0x3f67a0277fce43f2 singular=[] info=0x392209f14dea4c24 a=0xed76ba5ead0ea689 piv=0x880df12a20921e15 x=0x234eb7efcbc4f423\n\
mi250x_gcd f64 Resident spike_blocked algo=Window launches=3 time=0x3f677f1fc849ddc7 singular=[] info=0x392209f14dea4c24 a=0xe425217aab73cd11 piv=0x880df12a20921e15 x=0x4a3536f97505c963\n\
mi250x_gcd f32 Resident spike_blocked algo=Window launches=3 time=0x3f677f1fc849ddc7 singular=[] info=0x392209f14dea4c24 a=0xed76ba5ead0ea689 piv=0x880df12a20921e15 x=0x234eb7efcbc4f423\n\
h100_pcie f64 PerLaunch n16_fused_gbsv algo=FusedGbsv launches=1 time=0x3ee40c7dfc6550b4 singular=[] info=0xc6667ae325abf1c1 a=0xa1fda5be41296cfd piv=0xd7baeedba0833205 x=0x5af12648f9f0b762\n\
h100_pcie f32 PerLaunch n16_fused_gbsv algo=FusedGbsv launches=1 time=0x3ee40c7dfc6550b4 singular=[] info=0xc6667ae325abf1c1 a=0xb7129fa079c6b10b piv=0xd7baeedba0833205 x=0x5b5722ab68a9ec25\n\
h100_pcie f64 Resident n16_fused_gbsv algo=FusedGbsv launches=1 time=0x3ed96ae34c2b718e singular=[] info=0xc6667ae325abf1c1 a=0xa1fda5be41296cfd piv=0xd7baeedba0833205 x=0x5af12648f9f0b762\n\
h100_pcie f32 Resident n16_fused_gbsv algo=FusedGbsv launches=1 time=0x3ed96ae34c2b718e singular=[] info=0xc6667ae325abf1c1 a=0xb7129fa079c6b10b piv=0xd7baeedba0833205 x=0x5b5722ab68a9ec25\n\
mi250x_gcd f64 PerLaunch n16_fused_gbsv algo=FusedGbsv launches=1 time=0x3eef14be230bc3a9 singular=[] info=0xc6667ae325abf1c1 a=0xa1fda5be41296cfd piv=0xd7baeedba0833205 x=0x5af12648f9f0b762\n\
mi250x_gcd f32 PerLaunch n16_fused_gbsv algo=FusedGbsv launches=1 time=0x3eef14be230bc3a9 singular=[] info=0xc6667ae325abf1c1 a=0xb7129fa079c6b10b piv=0xd7baeedba0833205 x=0x5b5722ab68a9ec25\n\
mi250x_gcd f64 Resident n16_fused_gbsv algo=FusedGbsv launches=1 time=0x3ee4122ba1945fc4 singular=[] info=0xc6667ae325abf1c1 a=0xa1fda5be41296cfd piv=0xd7baeedba0833205 x=0x5af12648f9f0b762\n\
mi250x_gcd f32 Resident n16_fused_gbsv algo=FusedGbsv launches=1 time=0x3ee4122ba1945fc4 singular=[] info=0xc6667ae325abf1c1 a=0xb7129fa079c6b10b piv=0xd7baeedba0833205 x=0x5b5722ab68a9ec25\n\
h100_pcie f64 PerLaunch n16_fused algo=Fused launches=3 time=0x3ef36390b3dacfc8 singular=[] info=0xc6667ae325abf1c1 a=0xa1fda5be41296cfd piv=0xd7baeedba0833205 x=0x5af12648f9f0b762\n\
h100_pcie f32 PerLaunch n16_fused algo=Fused launches=3 time=0x3ef36390b3dacfc8 singular=[] info=0xc6667ae325abf1c1 a=0xb7129fa079c6b10b piv=0xd7baeedba0833205 x=0x5b5722ab68a9ec25\n\
h100_pcie f64 Resident n16_fused algo=Fused launches=3 time=0x3ee0c1fc64c6d7c6 singular=[] info=0xc6667ae325abf1c1 a=0xa1fda5be41296cfd piv=0xd7baeedba0833205 x=0x5af12648f9f0b762\n\
h100_pcie f32 Resident n16_fused algo=Fused launches=3 time=0x3ee0c1fc64c6d7c6 singular=[] info=0xc6667ae325abf1c1 a=0xb7129fa079c6b10b piv=0xd7baeedba0833205 x=0x5b5722ab68a9ec25\n\
mi250x_gcd f64 PerLaunch n16_fused algo=Fused launches=3 time=0x3efd72242d295156 singular=[] info=0xc6667ae325abf1c1 a=0xa1fda5be41296cfd piv=0xd7baeedba0833205 x=0x5af12648f9f0b762\n\
mi250x_gcd f32 PerLaunch n16_fused algo=Fused launches=3 time=0x3efd72242d295156 singular=[] info=0xc6667ae325abf1c1 a=0xb7129fa079c6b10b piv=0xd7baeedba0833205 x=0x5b5722ab68a9ec25\n\
mi250x_gcd f64 Resident n16_fused algo=Fused launches=3 time=0x3ee9dc90d5ec76fd singular=[] info=0xc6667ae325abf1c1 a=0xa1fda5be41296cfd piv=0xd7baeedba0833205 x=0x5af12648f9f0b762\n\
mi250x_gcd f32 Resident n16_fused algo=Fused launches=3 time=0x3ee9dc90d5ec76fd singular=[] info=0xc6667ae325abf1c1 a=0xb7129fa079c6b10b piv=0xd7baeedba0833205 x=0x5b5722ab68a9ec25\n\
h100_pcie f64 PerLaunch n16_window algo=Window launches=3 time=0x3ef3b8129ca5809a singular=[] info=0xc6667ae325abf1c1 a=0xa1fda5be41296cfd piv=0xd7baeedba0833205 x=0x5af12648f9f0b762\n\
h100_pcie f32 PerLaunch n16_window algo=Window launches=3 time=0x3ef3b8129ca5809a singular=[] info=0xc6667ae325abf1c1 a=0xb7129fa079c6b10b piv=0xd7baeedba0833205 x=0x5b5722ab68a9ec25\n\
h100_pcie f64 Resident n16_window algo=Window launches=3 time=0x3ee16b00365c396b singular=[] info=0xc6667ae325abf1c1 a=0xa1fda5be41296cfd piv=0xd7baeedba0833205 x=0x5af12648f9f0b762\n\
h100_pcie f32 Resident n16_window algo=Window launches=3 time=0x3ee16b00365c396b singular=[] info=0xc6667ae325abf1c1 a=0xb7129fa079c6b10b piv=0xd7baeedba0833205 x=0x5b5722ab68a9ec25\n\
mi250x_gcd f64 PerLaunch n16_window algo=Window launches=3 time=0x3efe1cad4178d2dc singular=[] info=0xc6667ae325abf1c1 a=0xa1fda5be41296cfd piv=0xd7baeedba0833205 x=0x5af12648f9f0b762\n\
mi250x_gcd f32 PerLaunch n16_window algo=Window launches=3 time=0x3efe1cad4178d2dc singular=[] info=0xc6667ae325abf1c1 a=0xb7129fa079c6b10b piv=0xd7baeedba0833205 x=0x5b5722ab68a9ec25\n\
mi250x_gcd f64 Resident n16_window algo=Window launches=3 time=0x3eeb31a2fe8b7a0a singular=[] info=0xc6667ae325abf1c1 a=0xa1fda5be41296cfd piv=0xd7baeedba0833205 x=0x5af12648f9f0b762\n\
mi250x_gcd f32 Resident n16_window algo=Window launches=3 time=0x3eeb31a2fe8b7a0a singular=[] info=0xc6667ae325abf1c1 a=0xb7129fa079c6b10b piv=0xd7baeedba0833205 x=0x5b5722ab68a9ec25\n\
h100_pcie f64 PerLaunch n16_reference algo=Reference launches=35 time=0x3f22a2e2a1e0a7ea singular=[] info=0xc6667ae325abf1c1 a=0xa1fda5be41296cfd piv=0xd7baeedba0833205 x=0x5af12648f9f0b762\n\
h100_pcie f32 PerLaunch n16_reference algo=Reference launches=35 time=0x3f22a2cc4f78a6ea singular=[] info=0xc6667ae325abf1c1 a=0xb7129fa079c6b10b piv=0xd7baeedba0833205 x=0x5b5722ab68a9ec25\n\
h100_pcie f64 Resident n16_reference algo=Reference launches=35 time=0x3ef4a3bd28945c90 singular=[] info=0xc6667ae325abf1c1 a=0xa1fda5be41296cfd piv=0xd7baeedba0833205 x=0x5af12648f9f0b762\n\
h100_pcie f32 Resident n16_reference algo=Reference launches=35 time=0x3ef4a30a95545475 singular=[] info=0xc6667ae325abf1c1 a=0xb7129fa079c6b10b piv=0xd7baeedba0833205 x=0x5b5722ab68a9ec25\n\
mi250x_gcd f64 PerLaunch n16_reference algo=Reference launches=35 time=0x3f2bfc44e35594cd singular=[] info=0xc6667ae325abf1c1 a=0xa1fda5be41296cfd piv=0xd7baeedba0833205 x=0x5af12648f9f0b762\n\
mi250x_gcd f32 PerLaunch n16_reference algo=Reference launches=35 time=0x3f2bfc1f6eebe42a singular=[] info=0xc6667ae325abf1c1 a=0xb7129fa079c6b10b piv=0xd7baeedba0833205 x=0x5b5722ab68a9ec25\n\
mi250x_gcd f64 Resident n16_reference algo=Reference launches=35 time=0x3eff352341035244 singular=[] info=0xc6667ae325abf1c1 a=0xa1fda5be41296cfd piv=0xd7baeedba0833205 x=0x5af12648f9f0b762\n\
mi250x_gcd f32 Resident n16_reference algo=Reference launches=35 time=0x3eff33f79db5cd17 singular=[] info=0xc6667ae325abf1c1 a=0xb7129fa079c6b10b piv=0xd7baeedba0833205 x=0x5b5722ab68a9ec25\n\
h100_pcie f64 PerLaunch n16_interleaved algo=Interleaved launches=2 time=0x3ee0cc54f4f27b29 singular=[] info=0xc6667ae325abf1c1 a=0xa1fda5be41296cfd piv=0xd7baeedba0833205 x=0x5af12648f9f0b762\n\
h100_pcie f32 PerLaunch n16_interleaved algo=Interleaved launches=2 time=0x3ee0cb46886ff28c singular=[] info=0xc6667ae325abf1c1 a=0xb7129fa079c6b10b piv=0xd7baeedba0833205 x=0x5b5722ab68a9ec25\n\
h100_pcie f64 Resident n16_interleaved algo=Interleaved launches=2 time=0x3eb0f1e2429a5a6c singular=[] info=0xc6667ae325abf1c1 a=0xa1fda5be41296cfd piv=0xd7baeedba0833205 x=0x5af12648f9f0b762\n\
h100_pcie f32 Resident n16_interleaved algo=Interleaved launches=2 time=0x3eb0e96ede86158a singular=[] info=0xc6667ae325abf1c1 a=0xb7129fa079c6b10b piv=0xd7baeedba0833205 x=0x5b5722ab68a9ec25\n\
mi250x_gcd f64 PerLaunch n16_interleaved algo=Interleaved launches=2 time=0x3ee92feed71b4c1a singular=[] info=0xc6667ae325abf1c1 a=0xa1fda5be41296cfd piv=0xd7baeedba0833205 x=0x5af12648f9f0b762\n\
mi250x_gcd f32 PerLaunch n16_interleaved algo=Interleaved launches=2 time=0x3ee92e944b61136a singular=[] info=0xc6667ae325abf1c1 a=0xb7129fa079c6b10b piv=0xd7baeedba0833205 x=0x5b5722ab68a9ec25\n\
mi250x_gcd f64 Resident n16_interleaved algo=Interleaved launches=2 time=0x3eb9564ea164228a singular=[] info=0xc6667ae325abf1c1 a=0xa1fda5be41296cfd piv=0xd7baeedba0833205 x=0x5af12648f9f0b762\n\
mi250x_gcd f32 Resident n16_interleaved algo=Interleaved launches=2 time=0x3eb94b7a43925d04 singular=[] info=0xc6667ae325abf1c1 a=0xb7129fa079c6b10b piv=0xd7baeedba0833205 x=0x5b5722ab68a9ec25\n\
h100_pcie f64 PerLaunch n16_spike algo=Spike launches=36 time=0x3f25bca08ba9f21b singular=[] info=0xc6667ae325abf1c1 a=0x515bb8eb451bdd99 piv=0xd7baeedba0833205 x=0x04b9094a1d0df25a\n\
h100_pcie f32 PerLaunch n16_spike algo=Spike launches=36 time=0x3f25bca08ba9f21b singular=[] info=0xc6667ae325abf1c1 a=0x2b96fd851b20b4d5 piv=0xd7baeedba0833205 x=0x45786e221b929ac2\n\
h100_pcie f64 Resident n16_spike algo=Spike launches=36 time=0x3f04e31325db7111 singular=[] info=0xc6667ae325abf1c1 a=0x515bb8eb451bdd99 piv=0xd7baeedba0833205 x=0x04b9094a1d0df25a\n\
h100_pcie f32 Resident n16_spike algo=Spike launches=36 time=0x3f04e31325db7111 singular=[] info=0xc6667ae325abf1c1 a=0x2b96fd851b20b4d5 piv=0xd7baeedba0833205 x=0x45786e221b929ac2\n\
mi250x_gcd f64 PerLaunch n16_spike algo=Spike launches=36 time=0x3f305e4ebfb8306c singular=[] info=0xc6667ae325abf1c1 a=0x515bb8eb451bdd99 piv=0xd7baeedba0833205 x=0x04b9094a1d0df25a\n\
mi250x_gcd f32 PerLaunch n16_spike algo=Spike launches=36 time=0x3f305e43f1508d98 singular=[] info=0xc6667ae325abf1c1 a=0x2b96fd851b20b4d5 piv=0xd7baeedba0833205 x=0x45786e221b929ac2\n\
mi250x_gcd f64 Resident n16_spike algo=Spike launches=36 time=0x3f0fdb4f708f0055 singular=[] info=0xc6667ae325abf1c1 a=0x515bb8eb451bdd99 piv=0xd7baeedba0833205 x=0x04b9094a1d0df25a\n\
mi250x_gcd f32 Resident n16_spike algo=Spike launches=36 time=0x3f0fdaf8fd51e9ad singular=[] info=0xc6667ae325abf1c1 a=0x2b96fd851b20b4d5 piv=0xd7baeedba0833205 x=0x45786e221b929ac2\n\
h100_pcie f64 PerLaunch n48_fused_gbsv algo=FusedGbsv launches=1 time=0x3ef5e10edadddfc3 singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x07eb24ce1fbe6063\n\
h100_pcie f32 PerLaunch n48_fused_gbsv algo=FusedGbsv launches=1 time=0x3ef5e10edadddfc3 singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x5c63df7127b1a26a\n\
h100_pcie f64 Resident n48_fused_gbsv algo=FusedGbsv launches=1 time=0x3ef23588afb613cc singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x07eb24ce1fbe6063\n\
h100_pcie f32 Resident n48_fused_gbsv algo=FusedGbsv launches=1 time=0x3ef23588afb613cc singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x5c63df7127b1a26a\n\
mi250x_gcd f64 PerLaunch n48_fused_gbsv algo=FusedGbsv launches=1 time=0x3f0148af4de872cd singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x07eb24ce1fbe6063\n\
mi250x_gcd f32 PerLaunch n48_fused_gbsv algo=FusedGbsv launches=1 time=0x3f0148af4de872cd singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x5c63df7127b1a26a\n\
mi250x_gcd f64 Resident n48_fused_gbsv algo=FusedGbsv launches=1 time=0x3efd10155b1533a8 singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x07eb24ce1fbe6063\n\
mi250x_gcd f32 Resident n48_fused_gbsv algo=FusedGbsv launches=1 time=0x3efd10155b1533a8 singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x5c63df7127b1a26a\n\
h100_pcie f64 PerLaunch n48_fused algo=Fused launches=3 time=0x3f00baa15e5f8db3 singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x07eb24ce1fbe6063\n\
h100_pcie f32 PerLaunch n48_fused algo=Fused launches=3 time=0x3f00baa15e5f8db3 singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x5c63df7127b1a26a\n\
h100_pcie f64 Resident n48_fused algo=Fused launches=3 time=0x3ef672b03b47b781 singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x07eb24ce1fbe6063\n\
h100_pcie f32 Resident n48_fused algo=Fused launches=3 time=0x3ef672b03b47b781 singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x5c63df7127b1a26a\n\
mi250x_gcd f64 PerLaunch n48_fused algo=Fused launches=3 time=0x3f09d62bb1f64888 singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x07eb24ce1fbe6063\n\
mi250x_gcd f32 PerLaunch n48_fused algo=Fused launches=3 time=0x3f09d62bb1f64888 singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x5c63df7127b1a26a\n\
mi250x_gcd f64 Resident n48_fused algo=Fused launches=3 time=0x3f01943dd0dcbd9c singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x07eb24ce1fbe6063\n\
mi250x_gcd f32 Resident n48_fused algo=Fused launches=3 time=0x3f01943dd0dcbd9c singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x5c63df7127b1a26a\n\
h100_pcie f64 PerLaunch n48_window algo=Window launches=3 time=0x3f018de6245a47c1 singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x07eb24ce1fbe6063\n\
h100_pcie f32 PerLaunch n48_window algo=Window launches=3 time=0x3f018de6245a47c1 singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x5c63df7127b1a26a\n\
h100_pcie f64 Resident n48_window algo=Window launches=3 time=0x3ef81939c73d2b9e singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x07eb24ce1fbe6063\n\
h100_pcie f32 Resident n48_window algo=Window launches=3 time=0x3ef81939c73d2b9e singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x5c63df7127b1a26a\n\
mi250x_gcd f64 PerLaunch n48_window algo=Window launches=3 time=0x3f0b808264bd0c59 singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x07eb24ce1fbe6063\n\
mi250x_gcd f32 PerLaunch n48_window algo=Window launches=3 time=0x3f0b808264bd0c59 singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x5c63df7127b1a26a\n\
mi250x_gcd f64 Resident n48_window algo=Window launches=3 time=0x3f033e9483a3816e singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x07eb24ce1fbe6063\n\
mi250x_gcd f32 Resident n48_window algo=Window launches=3 time=0x3f033e9483a3816e singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x5c63df7127b1a26a\n\
h100_pcie f64 PerLaunch n48_reference algo=Reference launches=99 time=0x3f3a663d3c7af78b singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x07eb24ce1fbe6063\n\
h100_pcie f32 PerLaunch n48_reference algo=Reference launches=99 time=0x3f3a6618d0851a1a singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x5c63df7127b1a26a\n\
h100_pcie f64 Resident n48_reference algo=Reference launches=99 time=0x3f0d87788ba5cc17 singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x07eb24ce1fbe6063\n\
h100_pcie f32 Resident n48_reference algo=Reference launches=99 time=0x3f0d86552bf6e099 singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x5c63df7127b1a26a\n\
mi250x_gcd f64 PerLaunch n48_reference algo=Reference launches=99 time=0x3f43d41d5c05d490 singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x07eb24ce1fbe6063\n\
mi250x_gcd f32 PerLaunch n48_reference algo=Reference launches=99 time=0x3f43d3ff03427bc0 singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x5c63df7127b1a26a\n\
mi250x_gcd f64 Resident n48_reference algo=Reference launches=99 time=0x3f166115de09306e singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x07eb24ce1fbe6063\n\
mi250x_gcd f32 Resident n48_reference algo=Reference launches=99 time=0x3f16602317ee6a02 singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x5c63df7127b1a26a\n\
h100_pcie f64 PerLaunch n48_interleaved algo=Interleaved launches=2 time=0x3ee0d897fea175b2 singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x07eb24ce1fbe6063\n\
h100_pcie f32 PerLaunch n48_interleaved algo=Interleaved launches=2 time=0x3ee0d50d4782605a singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x5c63df7127b1a26a\n\
h100_pcie f64 Resident n48_interleaved algo=Interleaved launches=2 time=0x3eb153fa90122eb4 singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x07eb24ce1fbe6063\n\
h100_pcie f32 Resident n48_interleaved algo=Interleaved launches=2 time=0x3eb137a4d71983fb singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x5c63df7127b1a26a\n\
mi250x_gcd f64 PerLaunch n48_interleaved algo=Interleaved launches=2 time=0x3ee93b982f460d29 singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x07eb24ce1fbe6063\n\
mi250x_gcd f32 PerLaunch n48_interleaved algo=Interleaved launches=2 time=0x3ee937df6a5e42ac singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x5c63df7127b1a26a\n\
mi250x_gcd f64 Resident n48_interleaved algo=Interleaved launches=2 time=0x3eb9b39962ba2afd singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=0x07eb24ce1fbe6063\n\
mi250x_gcd f32 Resident n48_interleaved algo=Interleaved launches=2 time=0x3eb995d33b7bd711 singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=0x5c63df7127b1a26a\n\
h100_pcie f64 PerLaunch n48_spike algo=Spike launches=36 time=0x3f306ea130210dda singular=[] info=0xc6667ae325abf1c1 a=0x00f12652f97ed677 piv=0x45ff175c7875e685 x=0xa6bce45e3ac61dd9\n\
h100_pcie f32 PerLaunch n48_spike algo=Spike launches=36 time=0x3f306e89c7ca6e59 singular=[] info=0xc6667ae325abf1c1 a=0x221ccfbdec9d1add piv=0x45ff175c7875e685 x=0x27009803fa4b0ddd\n\
h100_pcie f64 Resident n48_spike algo=Spike launches=36 time=0x3f2059669e0f05e0 singular=[] info=0xc6667ae325abf1c1 a=0x00f12652f97ed677 piv=0x45ff175c7875e685 x=0xa6bce45e3ac61dd9\n\
h100_pcie f32 Resident n48_spike algo=Spike launches=36 time=0x3f205937cd61c6dc singular=[] info=0xc6667ae325abf1c1 a=0x221ccfbdec9d1add piv=0x45ff175c7875e685 x=0x27009803fa4b0ddd\n\
mi250x_gcd f64 PerLaunch n48_spike algo=Spike launches=36 time=0x3f3b77525a143592 singular=[] info=0xc6667ae325abf1c1 a=0x00f12652f97ed677 piv=0x45ff175c7875e685 x=0xa6bce45e3ac61dd9\n\
mi250x_gcd f32 PerLaunch n48_spike algo=Spike launches=36 time=0x3f3b77300b6a4205 singular=[] info=0xc6667ae325abf1c1 a=0x221ccfbdec9d1add piv=0x45ff175c7875e685 x=0x27009803fa4b0ddd\n\
mi250x_gcd f64 Resident n48_spike algo=Spike launches=36 time=0x3f2e28db10dbca64 singular=[] info=0xc6667ae325abf1c1 a=0x00f12652f97ed677 piv=0x45ff175c7875e685 x=0xa6bce45e3ac61dd9\n\
mi250x_gcd f32 Resident n48_spike algo=Spike launches=36 time=0x3f2e28967387e349 singular=[] info=0xc6667ae325abf1c1 a=0x221ccfbdec9d1add piv=0x45ff175c7875e685 x=0x27009803fa4b0ddd\n\
h100_pcie f64 PerLaunch gbtrf_fused_gbsv algo=Fused launches=1 time=0x3ef1efaceb760d34 singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=-\n\
h100_pcie f32 PerLaunch gbtrf_fused_gbsv algo=Fused launches=1 time=0x3ef1efaceb760d34 singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=-\n\
h100_pcie f64 Resident gbtrf_fused_gbsv algo=Fused launches=1 time=0x3eec884d809c827a singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=-\n\
h100_pcie f32 Resident gbtrf_fused_gbsv algo=Fused launches=1 time=0x3eec884d809c827a singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=-\n\
mi250x_gcd f64 PerLaunch gbtrf_fused_gbsv algo=Fused launches=1 time=0x3efb75d9d3781440 singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=-\n\
mi250x_gcd f32 PerLaunch gbtrf_fused_gbsv algo=Fused launches=1 time=0x3efb75d9d3781440 singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=-\n\
mi250x_gcd f64 Resident gbtrf_fused_gbsv algo=Fused launches=1 time=0x3ef5f49092bc624e singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=-\n\
mi250x_gcd f32 Resident gbtrf_fused_gbsv algo=Fused launches=1 time=0x3ef5f49092bc624e singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=-\n\
h100_pcie f64 PerLaunch gbtrf_spike algo=Fused launches=1 time=0x3ef1efaceb760d34 singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=-\n\
h100_pcie f32 PerLaunch gbtrf_spike algo=Fused launches=1 time=0x3ef1efaceb760d34 singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=-\n\
h100_pcie f64 Resident gbtrf_spike algo=Fused launches=1 time=0x3eec884d809c827a singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=-\n\
h100_pcie f32 Resident gbtrf_spike algo=Fused launches=1 time=0x3eec884d809c827a singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=-\n\
mi250x_gcd f64 PerLaunch gbtrf_spike algo=Fused launches=1 time=0x3efb75d9d3781440 singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=-\n\
mi250x_gcd f32 PerLaunch gbtrf_spike algo=Fused launches=1 time=0x3efb75d9d3781440 singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=-\n\
mi250x_gcd f64 Resident gbtrf_spike algo=Fused launches=1 time=0x3ef5f49092bc624e singular=[] info=0xc6667ae325abf1c1 a=0x8e659009d4528bae piv=0x45ff175c7875e685 x=-\n\
mi250x_gcd f32 Resident gbtrf_spike algo=Fused launches=1 time=0x3ef5f49092bc624e singular=[] info=0xc6667ae325abf1c1 a=0xfdcdf5c5522f4903 piv=0x45ff175c7875e685 x=-\n\
h100_pcie f64 PerLaunch diagonal_spike algo=FusedGbsv launches=1 time=0x3ee7a23ca6915852 singular=[] info=0xc6667ae325abf1c1 a=0x86856638deb81e85 piv=0x45ff175c7875e685 x=0x10fc659f97bd641b\n\
h100_pcie f32 PerLaunch diagonal_spike algo=FusedGbsv launches=1 time=0x3ee7a23ca6915852 singular=[] info=0xc6667ae325abf1c1 a=0x86856638deb81e85 piv=0x45ff175c7875e685 x=0x346383835985fa90\n\
h100_pcie f64 Resident diagonal_spike algo=FusedGbsv launches=1 time=0x3ee04b305041c065 singular=[] info=0xc6667ae325abf1c1 a=0x86856638deb81e85 piv=0x45ff175c7875e685 x=0x10fc659f97bd641b\n\
h100_pcie f32 Resident diagonal_spike algo=FusedGbsv launches=1 time=0x3ee04b305041c065 singular=[] info=0xc6667ae325abf1c1 a=0x86856638deb81e85 piv=0x45ff175c7875e685 x=0x346383835985fa90\n\
mi250x_gcd f64 PerLaunch diagonal_spike algo=FusedGbsv launches=1 time=0x3ef10620ea9a7c57 singular=[] info=0xc6667ae325abf1c1 a=0x86856638deb81e85 piv=0x45ff175c7875e685 x=0x10fc659f97bd641b\n\
mi250x_gcd f32 PerLaunch diagonal_spike algo=FusedGbsv launches=1 time=0x3ef10620ea9a7c57 singular=[] info=0xc6667ae325abf1c1 a=0x86856638deb81e85 piv=0x45ff175c7875e685 x=0x346383835985fa90\n\
mi250x_gcd f64 Resident diagonal_spike algo=FusedGbsv launches=1 time=0x3ee709af53bd94c9 singular=[] info=0xc6667ae325abf1c1 a=0x86856638deb81e85 piv=0x45ff175c7875e685 x=0x10fc659f97bd641b\n\
mi250x_gcd f32 Resident diagonal_spike algo=FusedGbsv launches=1 time=0x3ee709af53bd94c9 singular=[] info=0xc6667ae325abf1c1 a=0x86856638deb81e85 piv=0x45ff175c7875e685 x=0x346383835985fa90\n\
";

#[test]
fn dispatch_cells_are_pinned_bitwise() {
    let got = render();
    for (g, p) in got.lines().zip(PINS.lines().chain(std::iter::repeat(""))) {
        if g != p {
            eprintln!("got: {g}\npin: {p}");
        }
    }
    assert!(got == PINS, "dispatch pins moved:\n{got}");
}

/// The solve-only grid: one single-RHS case per geometry, each solved
/// through both entry points.
fn solve_cases() -> Vec<Case> {
    let case = |name, (n, kl, ku), batch, algo| Case {
        name,
        nrhs: Some(1),
        n,
        kl,
        ku,
        batch,
        singular: None,
        opts: GbsvOptions {
            algo,
            ..Default::default()
        },
    };
    vec![
        case("timestep", (128, 2, 3), 64, FactorAlgo::Auto),
        case("raw_speed", (16, 2, 3), 4096, FactorAlgo::Auto),
        case(
            "timestep_fused_gbsv",
            (128, 2, 3),
            64,
            FactorAlgo::FusedGbsv,
        ),
        case("timestep_spike", (128, 2, 3), 64, FactorAlgo::Spike),
    ]
}

/// Factor one solve case, then solve it through `gbtrs_batch` and
/// `gbtrs_batch_lanes` and render a line for each.
fn solve_cell<S: Scalar>(out: &mut String, dev_name: &str, engine: EngineMode, c: &Case) {
    let dev = registry::device(dev_name).unwrap();
    let opts = GbsvOptions {
        engine: Some(engine),
        ..c.opts
    };
    let mut a = band::<S>(c);
    let mut piv = PivotBatch::new(c.batch, c.n, c.n);
    let mut info = InfoArray::new(c.batch);
    let _ = gbtrf_batch::<S>(&dev, &mut a, &mut piv, &mut info, &opts).unwrap();
    assert!(info.all_ok());
    let l = a.layout();
    let stride = a.matrix_stride();
    let lanes: Vec<(&[S], &[i32])> = (0..c.batch)
        .map(|k| (&a.data()[k * stride..(k + 1) * stride], piv.pivots(k)))
        .collect();
    for entry in ["gbtrs_batch", "gbtrs_batch_lanes"] {
        let mut b = rhs::<S>(c, c.nrhs.unwrap());
        let rep = match entry {
            "gbtrs_batch" => {
                gbtrs_batch::<S>(&dev, Transpose::No, &l, a.data(), &piv, &mut b, &opts)
            }
            _ => gbtrs_batch_lanes::<S>(&dev, Transpose::No, &l, &lanes, &mut b, &opts),
        }
        .unwrap();
        writeln!(
            out,
            "{dev_name} {} {engine:?} {} {entry} algo={:?} launches={} time={:#018x} x={:#018x}",
            S::PRECISION,
            c.name,
            rep.algo,
            rep.launches,
            rep.time.secs().to_bits(),
            bits(b.data()),
        )
        .unwrap();
    }
}

fn render_solves() -> String {
    let mut out = String::new();
    for c in &solve_cases() {
        for dev in [registry::H100_PCIE, registry::MI250X_GCD] {
            for engine in [EngineMode::PerLaunch, EngineMode::Resident] {
                solve_cell::<f64>(&mut out, dev, engine, c);
                solve_cell::<f32>(&mut out, dev, engine, c);
            }
        }
    }
    out
}

const SOLVE_PINS: &str = "\
h100_pcie f64 PerLaunch timestep gbtrs_batch algo=Interleaved launches=1 time=0x3ed337540a533825 x=0x20cfe35f1655c035\n\
h100_pcie f64 PerLaunch timestep gbtrs_batch_lanes algo=Interleaved launches=1 time=0x3ed337540a533825 x=0x20cfe35f1655c035\n\
h100_pcie f32 PerLaunch timestep gbtrs_batch algo=Interleaved launches=1 time=0x3ed1ff25d58492d9 x=0x8e93d3c0978c8564\n\
h100_pcie f32 PerLaunch timestep gbtrs_batch_lanes algo=Interleaved launches=1 time=0x3ed1ff25d58492d9 x=0x8e93d3c0978c8564\n\
h100_pcie f64 Resident timestep gbtrs_batch algo=Interleaved launches=1 time=0x3eb224ed76d02125 x=0x20cfe35f1655c035\n\
h100_pcie f64 Resident timestep gbtrs_batch_lanes algo=Interleaved launches=1 time=0x3eb224ed76d02125 x=0x20cfe35f1655c035\n\
h100_pcie f32 Resident timestep gbtrs_batch algo=Interleaved launches=1 time=0x3eaa8869472b17ec x=0x8e93d3c0978c8564\n\
h100_pcie f32 Resident timestep gbtrs_batch_lanes algo=Interleaved launches=1 time=0x3eaa8869472b17ec x=0x8e93d3c0978c8564\n\
mi250x_gcd f64 PerLaunch timestep gbtrs_batch algo=Interleaved launches=1 time=0x3ede991a32ee0704 x=0x20cfe35f1655c035\n\
mi250x_gcd f64 PerLaunch timestep gbtrs_batch_lanes algo=Interleaved launches=1 time=0x3ede991a32ee0704 x=0x20cfe35f1655c035\n\
mi250x_gcd f32 PerLaunch timestep gbtrs_batch algo=Interleaved launches=1 time=0x3eda96c4e2d0cfb9 x=0x8e93d3c0978c8564\n\
mi250x_gcd f32 PerLaunch timestep gbtrs_batch_lanes algo=Interleaved launches=1 time=0x3eda96c4e2d0cfb9 x=0x8e93d3c0978c8564\n\
mi250x_gcd f64 Resident timestep gbtrs_batch algo=Interleaved launches=1 time=0x3ec127ea5ffe7e76 x=0x20cfe35f1655c035\n\
mi250x_gcd f64 Resident timestep gbtrs_batch_lanes algo=Interleaved launches=1 time=0x3ec127ea5ffe7e76 x=0x20cfe35f1655c035\n\
mi250x_gcd f32 Resident timestep gbtrs_batch algo=Interleaved launches=1 time=0x3eb2467f7f881fbd x=0x8e93d3c0978c8564\n\
mi250x_gcd f32 Resident timestep gbtrs_batch_lanes algo=Interleaved launches=1 time=0x3eb2467f7f881fbd x=0x8e93d3c0978c8564\n\
h100_pcie f64 PerLaunch raw_speed gbtrs_batch algo=Interleaved launches=1 time=0x3edb7a9571daebc0 x=0xd3c16c40ecde87c5\n\
h100_pcie f64 PerLaunch raw_speed gbtrs_batch_lanes algo=Interleaved launches=1 time=0x3edb7a9571daebc0 x=0xd3c16c40ecde87c5\n\
h100_pcie f32 PerLaunch raw_speed gbtrs_batch algo=Interleaved launches=1 time=0x3ed6657eb8e90801 x=0x268f6bff918927b6\n\
h100_pcie f32 PerLaunch raw_speed gbtrs_batch_lanes algo=Interleaved launches=1 time=0x3ed6657eb8e90801 x=0x268f6bff918927b6\n\
h100_pcie f64 Resident raw_speed gbtrs_batch algo=Interleaved launches=1 time=0x3ec998f98a7777c9 x=0xd3c16c40ecde87c5\n\
h100_pcie f64 Resident raw_speed gbtrs_batch_lanes algo=Interleaved launches=1 time=0x3ec998f98a7777c9 x=0xd3c16c40ecde87c5\n\
h100_pcie f32 Resident raw_speed gbtrs_batch algo=Interleaved launches=1 time=0x3ebedd9831276096 x=0x268f6bff918927b6\n\
h100_pcie f32 Resident raw_speed gbtrs_batch_lanes algo=Interleaved launches=1 time=0x3ebedd9831276096 x=0x268f6bff918927b6\n\
mi250x_gcd f64 PerLaunch raw_speed gbtrs_batch algo=Interleaved launches=1 time=0x3ee46ce222e5ff80 x=0xd3c16c40ecde87c5\n\
mi250x_gcd f64 PerLaunch raw_speed gbtrs_batch_lanes algo=Interleaved launches=1 time=0x3ee46ce222e5ff80 x=0xd3c16c40ecde87c5\n\
mi250x_gcd f32 PerLaunch raw_speed gbtrs_batch algo=Interleaved launches=1 time=0x3ee0b369e988c415 x=0x268f6bff918927b6\n\
mi250x_gcd f32 PerLaunch raw_speed gbtrs_batch_lanes algo=Interleaved launches=1 time=0x3ee0b369e988c415 x=0x268f6bff918927b6\n\
mi250x_gcd f64 Resident raw_speed gbtrs_batch algo=Interleaved launches=1 time=0x3ed2d49f42dd3737 x=0xd3c16c40ecde87c5\n\
mi250x_gcd f64 Resident raw_speed gbtrs_batch_lanes algo=Interleaved launches=1 time=0x3ed2d49f42dd3737 x=0xd3c16c40ecde87c5\n\
mi250x_gcd f32 Resident raw_speed gbtrs_batch algo=Interleaved launches=1 time=0x3ec6c35da04580c2 x=0x268f6bff918927b6\n\
mi250x_gcd f32 Resident raw_speed gbtrs_batch_lanes algo=Interleaved launches=1 time=0x3ec6c35da04580c2 x=0x268f6bff918927b6\n\
h100_pcie f64 PerLaunch timestep_fused_gbsv gbtrs_batch algo=Window launches=2 time=0x3efba5a10c322adb x=0x20cfe35f1655c035\n\
h100_pcie f64 PerLaunch timestep_fused_gbsv gbtrs_batch_lanes algo=Window launches=2 time=0x3efba5a10c322adb x=0x20cfe35f1655c035\n\
h100_pcie f32 PerLaunch timestep_fused_gbsv gbtrs_batch algo=Window launches=2 time=0x3efba5a10c322adb x=0x8e93d3c0978c8564\n\
h100_pcie f32 PerLaunch timestep_fused_gbsv gbtrs_batch_lanes algo=Window launches=2 time=0x3efba5a10c322adb x=0x8e93d3c0978c8564\n\
h100_pcie f64 Resident timestep_fused_gbsv gbtrs_batch algo=Window launches=2 time=0x3ef44e94b5e292ee x=0x20cfe35f1655c035\n\
h100_pcie f64 Resident timestep_fused_gbsv gbtrs_batch_lanes algo=Window launches=2 time=0x3ef44e94b5e292ee x=0x20cfe35f1655c035\n\
h100_pcie f32 Resident timestep_fused_gbsv gbtrs_batch algo=Window launches=2 time=0x3ef44e94b5e292ee x=0x8e93d3c0978c8564\n\
h100_pcie f32 Resident timestep_fused_gbsv gbtrs_batch_lanes algo=Window launches=2 time=0x3ef44e94b5e292ee x=0x8e93d3c0978c8564\n\
mi250x_gcd f64 PerLaunch timestep_fused_gbsv gbtrs_batch algo=Window launches=2 time=0x3f060d6f3b07fa87 x=0x20cfe35f1655c035\n\
mi250x_gcd f64 PerLaunch timestep_fused_gbsv gbtrs_batch_lanes algo=Window launches=2 time=0x3f060d6f3b07fa87 x=0x20cfe35f1655c035\n\
mi250x_gcd f32 PerLaunch timestep_fused_gbsv gbtrs_batch algo=Window launches=2 time=0x3f060d6f3b07fa87 x=0x8e93d3c0978c8564\n\
mi250x_gcd f32 PerLaunch timestep_fused_gbsv gbtrs_batch_lanes algo=Window launches=2 time=0x3f060d6f3b07fa87 x=0x8e93d3c0978c8564\n\
mi250x_gcd f64 Resident timestep_fused_gbsv gbtrs_batch algo=Window launches=2 time=0x3f008c25fa4c4895 x=0x20cfe35f1655c035\n\
mi250x_gcd f64 Resident timestep_fused_gbsv gbtrs_batch_lanes algo=Window launches=2 time=0x3f008c25fa4c4895 x=0x20cfe35f1655c035\n\
mi250x_gcd f32 Resident timestep_fused_gbsv gbtrs_batch algo=Window launches=2 time=0x3f008c25fa4c4895 x=0x8e93d3c0978c8564\n\
mi250x_gcd f32 Resident timestep_fused_gbsv gbtrs_batch_lanes algo=Window launches=2 time=0x3f008c25fa4c4895 x=0x8e93d3c0978c8564\n\
h100_pcie f64 PerLaunch timestep_spike gbtrs_batch algo=Window launches=2 time=0x3efba5a10c322adb x=0x20cfe35f1655c035\n\
h100_pcie f64 PerLaunch timestep_spike gbtrs_batch_lanes algo=Window launches=2 time=0x3efba5a10c322adb x=0x20cfe35f1655c035\n\
h100_pcie f32 PerLaunch timestep_spike gbtrs_batch algo=Window launches=2 time=0x3efba5a10c322adb x=0x8e93d3c0978c8564\n\
h100_pcie f32 PerLaunch timestep_spike gbtrs_batch_lanes algo=Window launches=2 time=0x3efba5a10c322adb x=0x8e93d3c0978c8564\n\
h100_pcie f64 Resident timestep_spike gbtrs_batch algo=Window launches=2 time=0x3ef44e94b5e292ee x=0x20cfe35f1655c035\n\
h100_pcie f64 Resident timestep_spike gbtrs_batch_lanes algo=Window launches=2 time=0x3ef44e94b5e292ee x=0x20cfe35f1655c035\n\
h100_pcie f32 Resident timestep_spike gbtrs_batch algo=Window launches=2 time=0x3ef44e94b5e292ee x=0x8e93d3c0978c8564\n\
h100_pcie f32 Resident timestep_spike gbtrs_batch_lanes algo=Window launches=2 time=0x3ef44e94b5e292ee x=0x8e93d3c0978c8564\n\
mi250x_gcd f64 PerLaunch timestep_spike gbtrs_batch algo=Window launches=2 time=0x3f060d6f3b07fa87 x=0x20cfe35f1655c035\n\
mi250x_gcd f64 PerLaunch timestep_spike gbtrs_batch_lanes algo=Window launches=2 time=0x3f060d6f3b07fa87 x=0x20cfe35f1655c035\n\
mi250x_gcd f32 PerLaunch timestep_spike gbtrs_batch algo=Window launches=2 time=0x3f060d6f3b07fa87 x=0x8e93d3c0978c8564\n\
mi250x_gcd f32 PerLaunch timestep_spike gbtrs_batch_lanes algo=Window launches=2 time=0x3f060d6f3b07fa87 x=0x8e93d3c0978c8564\n\
mi250x_gcd f64 Resident timestep_spike gbtrs_batch algo=Window launches=2 time=0x3f008c25fa4c4895 x=0x20cfe35f1655c035\n\
mi250x_gcd f64 Resident timestep_spike gbtrs_batch_lanes algo=Window launches=2 time=0x3f008c25fa4c4895 x=0x20cfe35f1655c035\n\
mi250x_gcd f32 Resident timestep_spike gbtrs_batch algo=Window launches=2 time=0x3f008c25fa4c4895 x=0x8e93d3c0978c8564\n\
mi250x_gcd f32 Resident timestep_spike gbtrs_batch_lanes algo=Window launches=2 time=0x3f008c25fa4c4895 x=0x8e93d3c0978c8564\n\
";

#[test]
fn solve_cells_are_pinned_bitwise() {
    let got = render_solves();
    for (g, p) in got
        .lines()
        .zip(SOLVE_PINS.lines().chain(std::iter::repeat("")))
    {
        if g != p {
            eprintln!("got: {g}\npin: {p}");
        }
    }
    assert!(got == SOLVE_PINS, "solve pins moved:\n{got}");
}
