//! Bitwise pins of both solve backends, cell by cell.
//!
//! Backends: the GPU backend over a one-device `h100_pcie` group and over
//! the two-partition `mi250x_full` group, each `PerLaunch` and
//! `Resident`, plus the CPU backend. Cases, at f64 and f32: an n=48 (3,3)
//! batch of 10 with one singular lane, and an n=4096 (2,2) pair the GPU
//! serves through the SPIKE split regime. One backend instance runs a
//! case's entry points in order (`solve_retaining`, `factorize`, then
//! `solve_with` over each set of retained factors), so resident spin-up
//! and megabatch state are pinned too. Each cell pins the modeled
//! `service_s` bits, the `info` codes, and FNV-1a digests of the solutions
//! and of the retained payloads with their pivots.

use std::fmt::Write as _;
use std::iter::once;
use std::sync::Arc;

use gbatch_core::spike::SpikeFactor;
use gbatch_core::{BandMatrixMut, FactorPayload, RetainedFactor, Scalar, ShapeKey};
use gbatch_cpu::CpuSpec;
use gbatch_gpu_sim::multi::DeviceGroup;
use gbatch_gpu_sim::{registry, EngineMode, ParallelPolicy};
use gbatch_serve::{CpuBackend, GpuBackend, RetainedLanes, SolveBackend, SolveRequest};

/// 64-bit FNV-1a over a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (w.to_le_bytes().iter()).fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

/// Length, then the bit pattern of every element (f32 widened exactly).
fn bits<S: Scalar>(v: &[S]) -> impl Iterator<Item = u64> + '_ {
    once(v.len() as u64).chain(v.iter().map(|x| x.to_f64().to_bits()))
}

fn ints(v: &[i32]) -> impl Iterator<Item = u64> + '_ {
    once(v.len() as u64).chain(v.iter().map(|&p| p as u64))
}

fn spike_words<S: Scalar>(s: &SpikeFactor<S>) -> Vec<u64> {
    let mut w = vec![s.partition.parts as u64];
    w.extend(bits(s.blocks.data()).chain(ints(s.pivots.as_slice())));
    w.extend(bits(&s.spikes).chain(bits(&s.reduced_lu)));
    w.extend(ints(&s.reduced_piv));
    w
}

/// One letter per lane (`-` none, `d`/`s` monolithic f64/f32, `D`/`S`
/// SPIKE f64/f32) and a digest of every payload and pivot sequence.
fn retained(lanes: &RetainedLanes) -> String {
    let (kinds, words): (String, Vec<Vec<u64>>) = (lanes.iter())
        .map(|lane| {
            let Some(f) = lane else {
                return ('-', Vec::new());
            };
            let (kind, mut w) = match &f.payload {
                FactorPayload::F64(v) => ('d', bits(v).collect()),
                FactorPayload::F32(v) => ('s', bits(v).collect()),
                FactorPayload::SpikeF64(s) => ('D', spike_words(s)),
                FactorPayload::SpikeF32(s) => ('S', spike_words(s)),
            };
            w.extend(ints(&f.pivots));
            (kind, w)
        })
        .unzip();
    format!("{kinds}:{:#018x}", fnv(words.into_iter().flatten()))
}

/// Deterministic diagonally dominant request; `singular` zeroes the
/// first column so the lane reports `info = 1`.
fn request(id: u64, shape: ShapeKey, singular: bool) -> SolveRequest {
    let l = shape.layout().unwrap();
    let mut ab = vec![0.0; shape.ab_len()];
    let mut m = BandMatrixMut {
        layout: l,
        data: &mut ab,
    };
    for j in 0..l.n {
        let (s, e) = l.col_rows(j);
        for i in s..e {
            m.set(i, j, ((i * 7 + j * 3) % 5) as f64 * 0.1 + 0.01 * id as f64);
        }
        let sum: f64 = (s..e).filter(|&i| i != j).map(|i| m.get(i, j).abs()).sum();
        m.set(j, j, sum + 1.0);
    }
    if singular {
        let (s, e) = l.col_rows(0);
        (s..e).for_each(|i| m.set(i, 0, 0.0));
    }
    // Not representable in f32, so a narrowed round-trip would show.
    let rhs = (0..shape.rhs_len())
        .map(|i| ((i * 13 + id as usize) % 11) as f64 * 0.1 - 0.5)
        .collect();
    SolveRequest {
        id,
        shape,
        ab,
        rhs,
        submitted_s: 0.0,
        deadline_s: 1.0,
    }
}

type Build = fn() -> Box<dyn SolveBackend>;

fn backends() -> [(&'static str, Build); 5] {
    fn h100() -> DeviceGroup {
        DeviceGroup::new(vec![registry::device(registry::H100_PCIE).unwrap()])
    }
    fn gpu(group: DeviceGroup, engine: EngineMode) -> Box<dyn SolveBackend> {
        Box::new(GpuBackend::new(group, ParallelPolicy::Serial).with_engine(engine))
    }
    [
        ("gpu-h100/per_launch", || gpu(h100(), EngineMode::PerLaunch)),
        ("gpu-h100/resident", || gpu(h100(), EngineMode::Resident)),
        ("gpu-mi250x/per_launch", || {
            gpu(DeviceGroup::mi250x_full(), EngineMode::PerLaunch)
        }),
        ("gpu-mi250x/resident", || {
            gpu(DeviceGroup::mi250x_full(), EngineMode::Resident)
        }),
        ("cpu", || {
            Box::new(CpuBackend::new(CpuSpec::xeon_gold_6140()))
        }),
    ]
}

/// Run every cell and render one line per cell.
fn render() -> String {
    let mut out = String::new();
    for f32_tagged in [false, true] {
        let shape = |n, k| match f32_tagged {
            true => ShapeKey::sgbsv(n, k, k, 1),
            false => ShapeKey::gbsv(n, k, k, 1),
        };
        for (case, shape, batch) in [("n48", shape(48, 3), 10), ("n4096", shape(4096, 2), 2)] {
            let reqs: Vec<_> = (0..batch).map(|i| request(i, shape, i == 6)).collect();
            let ops: Vec<&[f64]> = reqs.iter().map(|r| &r.ab[..]).collect();
            // Factors from a fresh per-launch MI250x backend: at n=4096
            // they are SPIKE payloads, which the CPU must also solve over.
            let gpu_factors = backends()[2].1().factorize(&shape, &ops).unwrap().factors;
            for (name, build) in backends() {
                let be = build();
                let prec = shape.precision;
                let mut line = |op: &str,
                                service_s: f64,
                                info: &[i32],
                                x: Option<&Vec<Vec<f64>>>,
                                ret: Option<&RetainedLanes>| {
                    let x = x.map_or("-".into(), |x| {
                        format!("{:#018x}", fnv(x.iter().flat_map(|v| bits(v))))
                    });
                    let ret = ret.map_or("-".into(), retained);
                    let s = service_s.to_bits();
                    writeln!(
                        out,
                        "{name} {prec} {case} {op} service={s:#018x} info={info:?} x={x} \
                         retained={ret}"
                    )
                    .unwrap();
                };
                let (s, kept) = be.solve_retaining(&shape, &reqs).unwrap();
                line(
                    "solve_retaining",
                    s.service_s,
                    &s.info,
                    Some(&s.x),
                    Some(&kept),
                );
                let f = be.factorize(&shape, &ops).unwrap();
                line("factorize", f.service_s, &f.info, None, Some(&f.factors));
                let mut warm = vec![("factorize", f.factors), ("retained", kept)];
                if name == "cpu" {
                    warm.push(("gpu factors", gpu_factors.clone()));
                }
                for (from, lanes) in warm {
                    let (wreqs, factors): (Vec<_>, Vec<Arc<RetainedFactor>>) = (reqs.iter())
                        .zip(lanes)
                        .filter_map(|(r, f)| Some((r.clone(), f?)))
                        .unzip();
                    let s = be.solve_with(&shape, &wreqs, &factors).unwrap();
                    let op = format!("solve_with({from})");
                    line(&op, s.service_s, &s.info, Some(&s.x), None);
                }
            }
        }
    }
    out
}

const PINS: &str = "\
gpu-h100/per_launch f64 n48 solve_retaining service=0x3ef727481ba10695 info=[0, 0, 0, 0, 0, 0, 1, 0, 0, 0] x=0x64aa5bd2ee6f95a7 retained=dddddd-ddd:0xaf2aafe16f72dd3f\n\
gpu-h100/per_launch f64 n48 factorize service=0x3ed120a724f16e3a info=[0, 0, 0, 0, 0, 0, 1, 0, 0, 0] x=- retained=dddddd-ddd:0xaf2aafe16f72dd3f\n\
gpu-h100/per_launch f64 n48 solve_with(factorize) service=0x3ed0eef3f76c6bf2 info=[0, 0, 0, 0, 0, 0, 0, 0, 0] x=0x1373bae0e7f39717 retained=-\n\
gpu-h100/per_launch f64 n48 solve_with(retained) service=0x3ed0eef3f76c6bf2 info=[0, 0, 0, 0, 0, 0, 0, 0, 0] x=0x1373bae0e7f39717 retained=-\n\
gpu-h100/resident f64 n48 solve_retaining service=0x3f043a3bbcae51c8 info=[0, 0, 0, 0, 0, 0, 1, 0, 0, 0] x=0x64aa5bd2ee6f95a7 retained=dddddd-ddd:0xaf2aafe16f72dd3f\n\
gpu-h100/resident f64 n48 factorize service=0x3ea39473c291f2f6 info=[0, 0, 0, 0, 0, 0, 1, 0, 0, 0] x=- retained=dddddd-ddd:0xaf2aafe16f72dd3f\n\
gpu-h100/resident f64 n48 solve_with(factorize) service=0x3ea206da5669e0b6 info=[0, 0, 0, 0, 0, 0, 0, 0, 0] x=0x1373bae0e7f39717 retained=-\n\
gpu-h100/resident f64 n48 solve_with(retained) service=0x3ea206da5669e0b6 info=[0, 0, 0, 0, 0, 0, 0, 0, 0] x=0x1373bae0e7f39717 retained=-\n\
gpu-mi250x/per_launch f64 n48 solve_retaining service=0x3f02f30600af369e info=[0, 0, 0, 0, 0, 0, 1, 0, 0, 0] x=0x64aa5bd2ee6f95a7 retained=dddddd-ddd:0xaf2aafe16f72dd3f\n\
gpu-mi250x/per_launch f64 n48 factorize service=0x3ed9552ef9dbecef info=[0, 0, 0, 0, 0, 0, 1, 0, 0, 0] x=- retained=dddddd-ddd:0xaf2aafe16f72dd3f\n\
gpu-mi250x/per_launch f64 n48 solve_with(factorize) service=0x3ed93f9eae08182f info=[0, 0, 0, 0, 0, 0, 0, 0, 0] x=0x1373bae0e7f39717 retained=-\n\
gpu-mi250x/per_launch f64 n48 solve_with(retained) service=0x3ed93f9eae08182f info=[0, 0, 0, 0, 0, 0, 0, 0, 0] x=0x1373bae0e7f39717 retained=-\n\
gpu-mi250x/resident f64 n48 solve_retaining service=0x3f0fece986fbec5a info=[0, 0, 0, 0, 0, 0, 1, 0, 0, 0] x=0x64aa5bd2ee6f95a7 retained=dddddd-ddd:0xaf2aafe16f72dd3f\n\
gpu-mi250x/resident f64 n48 factorize service=0x3eaa804fb769292a info=[0, 0, 0, 0, 0, 0, 1, 0, 0, 0] x=- retained=dddddd-ddd:0xaf2aafe16f72dd3f\n\
gpu-mi250x/resident f64 n48 solve_with(factorize) service=0x3ea9d3cd58ca832d info=[0, 0, 0, 0, 0, 0, 0, 0, 0] x=0x1373bae0e7f39717 retained=-\n\
gpu-mi250x/resident f64 n48 solve_with(retained) service=0x3ea9d3cd58ca832d info=[0, 0, 0, 0, 0, 0, 0, 0, 0] x=0x1373bae0e7f39717 retained=-\n\
cpu f64 n48 solve_retaining service=0x3ee4bdde39b5171e info=[0, 0, 0, 0, 0, 0, 1, 0, 0, 0] x=0x64aa5bd2ee6f95a7 retained=dddddd-ddd:0xaf2aafe16f72dd3f\n\
cpu f64 n48 factorize service=0x3ee3792b2577d2ad info=[0, 0, 0, 0, 0, 0, 1, 0, 0, 0] x=- retained=dddddd-ddd:0xaf2aafe16f72dd3f\n\
cpu f64 n48 solve_with(factorize) service=0x3ee2e26a49c91778 info=[0, 0, 0, 0, 0, 0, 0, 0, 0] x=0x1373bae0e7f39717 retained=-\n\
cpu f64 n48 solve_with(retained) service=0x3ee2e26a49c91778 info=[0, 0, 0, 0, 0, 0, 0, 0, 0] x=0x1373bae0e7f39717 retained=-\n\
cpu f64 n48 solve_with(gpu factors) service=0x3ee2e26a49c91778 info=[0, 0, 0, 0, 0, 0, 0, 0, 0] x=0x1373bae0e7f39717 retained=-\n\
gpu-h100/per_launch f64 n4096 solve_retaining service=0x3f3f832164bf968b info=[0, 0] x=0xf64c3434cadd3ee0 retained=DD:0x371b408d1d5b8928\n\
gpu-h100/per_launch f64 n4096 factorize service=0x3f323b3291b97724 info=[0, 0] x=- retained=DD:0x371b408d1d5b8928\n\
gpu-h100/per_launch f64 n4096 solve_with(factorize) service=0x3f1dcea297d682a8 info=[0, 0] x=0xeed6306251342d95 retained=-\n\
gpu-h100/per_launch f64 n4096 solve_with(retained) service=0x3f1dcea297d682a8 info=[0, 0] x=0xeed6306251342d95 retained=-\n\
gpu-h100/resident f64 n4096 solve_retaining service=0x3f3445d68095b5e8 info=[0, 0] x=0xf64c3434cadd3ee0 retained=DD:0x371b408d1d5b8928\n\
gpu-h100/resident f64 n4096 factorize service=0x3f2f48feb8dac9fa info=[0, 0] x=- retained=DD:0x371b408d1d5b8928\n\
gpu-h100/resident f64 n4096 solve_with(factorize) service=0x3f1373d5c2a63a0b info=[0, 0] x=0xeed6306251342d95 retained=-\n\
gpu-h100/resident f64 n4096 solve_with(retained) service=0x3f1373d5c2a63a0b info=[0, 0] x=0xeed6306251342d95 retained=-\n\
gpu-mi250x/per_launch f64 n4096 solve_retaining service=0x3f3aa84daf26c2d8 info=[0, 0] x=0xf64c3434cadd3ee0 retained=DD:0x371b408d1d5b8928\n\
gpu-mi250x/per_launch f64 n4096 factorize service=0x3f306f4fafd75f63 info=[0, 0] x=- retained=DD:0x371b408d1d5b8928\n\
gpu-mi250x/per_launch f64 n4096 solve_with(factorize) service=0x3f18b7e464f68159 info=[0, 0] x=0xeed6306251342d95 retained=-\n\
gpu-mi250x/per_launch f64 n4096 solve_with(retained) service=0x3f18b7e464f68159 info=[0, 0] x=0xeed6306251342d95 retained=-\n\
gpu-mi250x/resident f64 n4096 solve_retaining service=0x3f333c48a34e4780 info=[0, 0] x=0xf64c3434cadd3ee0 retained=DD:0x371b408d1d5b8928\n\
gpu-mi250x/resident f64 n4096 factorize service=0x3f2d0927c9752bfd info=[0, 0] x=- retained=DD:0x371b408d1d5b8928\n\
gpu-mi250x/resident f64 n4096 solve_with(factorize) service=0x3f110cf538835bc7 info=[0, 0] x=0xeed6306251342d95 retained=-\n\
gpu-mi250x/resident f64 n4096 solve_with(retained) service=0x3f110cf538835bc7 info=[0, 0] x=0xeed6306251342d95 retained=-\n\
cpu f64 n4096 solve_retaining service=0x3f1ad829947c62f8 info=[0, 0] x=0x0d7fa27bb1f289ae retained=dd:0x3eaa2445c78427b9\n\
cpu f64 n4096 factorize service=0x3f1036df033df499 info=[0, 0] x=- retained=dd:0x3eaa2445c78427b9\n\
cpu f64 n4096 solve_with(factorize) service=0x3f09aa02efdfd180 info=[0, 0] x=0x0d7fa27bb1f289ae retained=-\n\
cpu f64 n4096 solve_with(retained) service=0x3f09aa02efdfd180 info=[0, 0] x=0x0d7fa27bb1f289ae retained=-\n\
cpu f64 n4096 solve_with(gpu factors) service=0x3f09aa02efdfd180 info=[0, 0] x=0xeed6306251342d95 retained=-\n\
gpu-h100/per_launch f32 n48 solve_retaining service=0x3ef727481ba10695 info=[0, 0, 0, 0, 0, 0, 1, 0, 0, 0] x=0xa4e234e06d0b48f5 retained=ssssss-sss:0x7fb7c8987c1d890e\n\
gpu-h100/per_launch f32 n48 factorize service=0x3ed10f411aa9951e info=[0, 0, 0, 0, 0, 0, 1, 0, 0, 0] x=- retained=ssssss-sss:0x7fb7c8987c1d890e\n\
gpu-h100/per_launch f32 n48 solve_with(factorize) service=0x3ed0daf5cc112cc0 info=[0, 0, 0, 0, 0, 0, 0, 0, 0] x=0xf1212eb5276105fd retained=-\n\
gpu-h100/per_launch f32 n48 solve_with(retained) service=0x3ed0daf5cc112cc0 info=[0, 0, 0, 0, 0, 0, 0, 0, 0] x=0xf1212eb5276105fd retained=-\n\
gpu-h100/resident f32 n48 solve_retaining service=0x3f043a3bbcae51c8 info=[0, 0, 0, 0, 0, 0, 1, 0, 0, 0] x=0xa4e234e06d0b48f5 retained=ssssss-sss:0x7fb7c8987c1d890e\n\
gpu-h100/resident f32 n48 factorize service=0x3ea3094370532a14 info=[0, 0, 0, 0, 0, 0, 1, 0, 0, 0] x=- retained=ssssss-sss:0x7fb7c8987c1d890e\n\
gpu-h100/resident f32 n48 solve_with(factorize) service=0x3ea166e8fb8fe721 info=[0, 0, 0, 0, 0, 0, 0, 0, 0] x=0xf1212eb5276105fd retained=-\n\
gpu-h100/resident f32 n48 solve_with(retained) service=0x3ea166e8fb8fe721 info=[0, 0, 0, 0, 0, 0, 0, 0, 0] x=0xf1212eb5276105fd retained=-\n\
gpu-mi250x/per_launch f32 n48 solve_retaining service=0x3f02f30600af369e info=[0, 0, 0, 0, 0, 0, 1, 0, 0, 0] x=0xa4e234e06d0b48f5 retained=ssssss-sss:0x7fb7c8987c1d890e\n\
gpu-mi250x/per_launch f32 n48 factorize service=0x3ed94ce4c1c2ba31 info=[0, 0, 0, 0, 0, 0, 1, 0, 0, 0] x=- retained=ssssss-sss:0x7fb7c8987c1d890e\n\
gpu-mi250x/per_launch f32 n48 solve_with(factorize) service=0x3ed935090f8c7e42 info=[0, 0, 0, 0, 0, 0, 0, 0, 0] x=0xf1212eb5276105fd retained=-\n\
gpu-mi250x/per_launch f32 n48 solve_with(retained) service=0x3ed935090f8c7e42 info=[0, 0, 0, 0, 0, 0, 0, 0, 0] x=0xf1212eb5276105fd retained=-\n\
gpu-mi250x/resident f32 n48 solve_retaining service=0x3f0fece986fbec5a info=[0, 0, 0, 0, 0, 0, 1, 0, 0, 0] x=0xa4e234e06d0b48f5 retained=ssssss-sss:0x7fb7c8987c1d890e\n\
gpu-mi250x/resident f32 n48 factorize service=0x3eaa3dfdf69f933d info=[0, 0, 0, 0, 0, 0, 1, 0, 0, 0] x=- retained=ssssss-sss:0x7fb7c8987c1d890e\n\
gpu-mi250x/resident f32 n48 solve_with(factorize) service=0x3ea97f2064edb3c1 info=[0, 0, 0, 0, 0, 0, 0, 0, 0] x=0xf1212eb5276105fd retained=-\n\
gpu-mi250x/resident f32 n48 solve_with(retained) service=0x3ea97f2064edb3c1 info=[0, 0, 0, 0, 0, 0, 0, 0, 0] x=0xf1212eb5276105fd retained=-\n\
cpu f32 n48 solve_retaining service=0x3ee32dcab7a07513 info=[0, 0, 0, 0, 0, 0, 1, 0, 0, 0] x=0xa4e234e06d0b48f5 retained=ssssss-sss:0x7fb7c8987c1d890e\n\
cpu f32 n48 factorize service=0x3ee28b712d81d2da info=[0, 0, 0, 0, 0, 0, 1, 0, 0, 0] x=- retained=ssssss-sss:0x7fb7c8987c1d890e\n\
cpu f32 n48 solve_with(factorize) service=0x3ee24010bfaa7540 info=[0, 0, 0, 0, 0, 0, 0, 0, 0] x=0xf1212eb5276105fd retained=-\n\
cpu f32 n48 solve_with(retained) service=0x3ee24010bfaa7540 info=[0, 0, 0, 0, 0, 0, 0, 0, 0] x=0xf1212eb5276105fd retained=-\n\
cpu f32 n48 solve_with(gpu factors) service=0x3ee24010bfaa7540 info=[0, 0, 0, 0, 0, 0, 0, 0, 0] x=0xf1212eb5276105fd retained=-\n\
gpu-h100/per_launch f32 n4096 solve_retaining service=0x3f3bb6f2e4658000 info=[0, 0] x=0x4af958c3e8e5de64 retained=SS:0x21a644eaf16ee81f\n\
gpu-h100/per_launch f32 n4096 factorize service=0x3f323b3291b97724 info=[0, 0] x=- retained=SS:0x21a644eaf16ee81f\n\
gpu-h100/per_launch f32 n4096 solve_with(factorize) service=0x3f1dcea297d682a8 info=[0, 0] x=0xbc49c85e0b716ee4 retained=-\n\
gpu-h100/per_launch f32 n4096 solve_with(retained) service=0x3f1dcea297d682a8 info=[0, 0] x=0xbc49c85e0b716ee4 retained=-\n\
gpu-h100/resident f32 n4096 solve_retaining service=0x3f339ef66e5dbbe7 info=[0, 0] x=0x4af958c3e8e5de64 retained=SS:0x21a644eaf16ee81f\n\
gpu-h100/resident f32 n4096 factorize service=0x3f2f48feb8dac9fa info=[0, 0] x=- retained=SS:0x21a644eaf16ee81f\n\
gpu-h100/resident f32 n4096 solve_with(factorize) service=0x3f1373d5c2a63a0b info=[0, 0] x=0xbc49c85e0b716ee4 retained=-\n\
gpu-h100/resident f32 n4096 solve_with(retained) service=0x3f1373d5c2a63a0b info=[0, 0] x=0xbc49c85e0b716ee4 retained=-\n\
gpu-mi250x/per_launch f32 n4096 solve_retaining service=0x3f37c7f581807ec0 info=[0, 0] x=0x4af958c3e8e5de64 retained=SS:0x21a644eaf16ee81f\n\
gpu-mi250x/per_launch f32 n4096 factorize service=0x3f306f4fafd75f63 info=[0, 0] x=- retained=SS:0x21a644eaf16ee81f\n\
gpu-mi250x/per_launch f32 n4096 solve_with(factorize) service=0x3f18b7e464f68159 info=[0, 0] x=0xbc49c85e0b716ee4 retained=-\n\
gpu-mi250x/per_launch f32 n4096 solve_with(retained) service=0x3f18b7e464f68159 info=[0, 0] x=0xbc49c85e0b716ee4 retained=-\n\
gpu-mi250x/resident f32 n4096 solve_retaining service=0x3f32b7eb484198d1 info=[0, 0] x=0x4af958c3e8e5de64 retained=SS:0x21a644eaf16ee81f\n\
gpu-mi250x/resident f32 n4096 factorize service=0x3f2d0927c9752bfd info=[0, 0] x=- retained=SS:0x21a644eaf16ee81f\n\
gpu-mi250x/resident f32 n4096 solve_with(factorize) service=0x3f110cf538835bc7 info=[0, 0] x=0xbc49c85e0b716ee4 retained=-\n\
gpu-mi250x/resident f32 n4096 solve_with(retained) service=0x3f110cf538835bc7 info=[0, 0] x=0xbc49c85e0b716ee4 retained=-\n\
cpu f32 n4096 solve_retaining service=0x3f0d0be07b2ddd59 info=[0, 0] x=0x02f601b99be37fea retained=ss:0xc4f614469e2bd3b1\n\
cpu f32 n4096 factorize service=0x3f026a95e9ef6ef9 info=[0, 0] x=- retained=ss:0xc4f614469e2bd3b1\n\
cpu f32 n4096 solve_with(factorize) service=0x3efe1170bd42c642 info=[0, 0] x=0x02f601b99be37fea retained=-\n\
cpu f32 n4096 solve_with(retained) service=0x3efe1170bd42c642 info=[0, 0] x=0x02f601b99be37fea retained=-\n\
cpu f32 n4096 solve_with(gpu factors) service=0x3efe1170bd42c642 info=[0, 0] x=0xbc49c85e0b716ee4 retained=-\n\
";

#[test]
fn backend_cells_are_pinned_bitwise() {
    let got = render();
    for (g, p) in got.lines().zip(PINS.lines().chain(std::iter::repeat(""))) {
        if g != p {
            eprintln!("got: {g}\npin: {p}");
        }
    }
    assert!(got == PINS, "backend pins moved:\n{got}");
}
