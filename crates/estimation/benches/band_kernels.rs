//! Micro-benchmarks for the E-step band kernels and the end-to-end solver
//! at the fig7 working shape.
//!
//! Times the `axpy`/`dot` kernels and a fixed-iteration EM solve
//! (d_in=16, d_out=128 — the shape the fig7 protocol cells hit hardest). Set `CRITERION_JSON=BENCH_kernels.json` to emit one
//! JSON line per benchmark; that is how the checked-in `BENCH_kernels.json`
//! is produced:
//!
//! ```text
//! CRITERION_JSON=BENCH_kernels.json cargo bench -p dap-estimation --bench band_kernels
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dap_estimation::em::kernels::{axpy, dot};
use dap_estimation::em::{self, EmOptions, MStep};
use dap_estimation::rng::seeded;
use dap_estimation::{Grid, PoisonRegion, TransformMatrix};
use dap_ldp::{NumericMechanism, PiecewiseMechanism};
use rand::Rng;

/// Deterministic pseudo-band of `len` values in (0, 1] — shaped like the
/// hump-with-tails deltas a PM column carries, without mechanism plumbing.
fn synth(len: usize, salt: u64) -> Vec<f64> {
    let mut rng = seeded(0xba5e ^ salt);
    (0..len).map(|_| rng.gen_range(1e-4..1.0)).collect()
}

fn bench_dot(c: &mut Criterion) {
    let mut group = c.benchmark_group("dot");
    group.sample_size(40);
    // 97 ≈ the fig7 band length (odd, forces a tail in the portable kernel);
    // 1600 ≈ the full nnz of one d_in=16 matrix swept per iteration.
    for len in [97usize, 256, 1600] {
        let a = synth(len, 1);
        let b = synth(len, 2);
        group.throughput(Throughput::Elements(len as u64));
        group.bench_with_input(BenchmarkId::new("portable", len), &len, |bench, _| {
            bench.iter(|| std::hint::black_box(dot(&a, &b)))
        });
    }
    group.finish();
}

fn bench_axpy(c: &mut Criterion) {
    let mut group = c.benchmark_group("axpy");
    group.sample_size(40);
    for len in [97usize, 256, 1600] {
        let v = synth(len, 3);
        let mut out = vec![0.0f64; len];
        group.throughput(Throughput::Elements(len as u64));
        group.bench_with_input(BenchmarkId::new("portable", len), &len, |bench, _| {
            bench.iter(|| {
                axpy(&mut out, &v, 0.7);
                std::hint::black_box(out[0])
            })
        });
    }
    group.finish();
}

/// Fixed-iteration EM solve at the fig7 working shape. `tol = 0` pins the
/// iteration count at `max_iters`, so this measures per-iteration E-step
/// cost (structured path) rather than convergence luck.
fn bench_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("em_solve");
    group.sample_size(10);
    let eps = 1.0;
    let mech = PiecewiseMechanism::with_epsilon(eps).unwrap();
    let mut rng = seeded(7);
    let reports: Vec<f64> = (0..20_000)
        .map(|_| mech.perturb(rng.gen_range(-0.9..0.9), &mut rng))
        .collect();
    let (olo, ohi) = mech.output_range();
    let d_in = 16;
    let d_out = 128;
    let counts = Grid::new(olo, ohi, d_out).counts(&reports);
    let matrix = TransformMatrix::for_numeric(&mech, d_in, d_out, &PoisonRegion::RightOf(0.0));
    assert!(matrix.structure().is_some(), "fig7 shape must take the structured path");
    let opts = EmOptions { tol: 0.0, max_iters: 50 };
    group.throughput(Throughput::Elements(50));
    group.bench_function("fig7_shape_50_iters", |bench| {
        bench.iter(|| std::hint::black_box(em::solve(&matrix, &counts, MStep::Free, &opts)))
    });
    group.finish();
}

criterion_group!(benches, bench_dot, bench_axpy, bench_solve);
criterion_main!(benches);
