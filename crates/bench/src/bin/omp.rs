//! OMP decoder microbench: naive reference vs fast Gram/incremental-Cholesky
//! vs batched decode, at the sweep's default dictionary scale.
//!
//! Decodes two fixed populations of synthetic sparse-plus-noise frames
//! through all three entry points: 8-sparse frames that stop on the residual
//! rule after about 8 atoms, and the same frames at `residual_tol` 1e-4,
//! where the noise floor keeps the residual above tolerance and every decode
//! runs to the sparsity cap. The second shape is the one that dominates
//! sweep decode time. Checks the fast paths agree with each other bit for
//! bit (and with the reference to 1e-6), asserts the fast path is ≥5× the
//! reference on both, and emits `BENCH_omp.json` (decodes/sec per path and
//! population) for CI trend tracking.
//!
//! Run: `cargo run --release -p efficsense-bench --bin omp`

use efficsense_cs::basis::Basis;
use efficsense_cs::decode::{omp_fast, reconstruct_batch, reconstruct_fast, OmpScratch};
use efficsense_cs::memo::DictionaryArtifacts;
use efficsense_cs::recon::{reconstruct_with_artifacts, OmpConfig};
use efficsense_cs::SensingMatrix;
use std::time::Instant;

/// SplitMix64 avalanche for deterministic frame synthesis.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(seed: u64) -> f64 {
    (mix(seed) >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic frames: `k`-sparse DCT coefficient vectors measured through
/// the dictionary, plus `noise` uniform perturbation per measurement.
fn frames(art: &DictionaryArtifacts, n_frames: u64, k: u64, noise: f64) -> Vec<Vec<f64>> {
    let n = art.dictionary.cols();
    (0..n_frames)
        .map(|f| {
            let mut s = vec![0.0; n];
            for i in 0..k {
                let j = (mix(f ^ (i << 9)) as usize) % n;
                s[j] = 2.0 * unit(f ^ i) - 1.0 + 0.05;
            }
            // The dictionary already holds Φ·Ψ: measure the coefficients.
            let mut y = art.dictionary.matvec(&s);
            for (i, v) in y.iter_mut().enumerate() {
                *v += noise * (2.0 * unit(f ^ 0xA015E ^ ((i as u64) << 20)) - 1.0);
            }
            y
        })
        .collect()
}

/// Decodes/s of the naive, fast and batched paths over one population,
/// after checking the fast paths agree bit for bit and track the reference.
fn bench(label: &str, art: &DictionaryArtifacts, frames: &[Vec<f64>], cfg: &OmpConfig) -> [f64; 3] {
    let n_frames = frames.len();
    let cfgs = vec![cfg.clone(); n_frames];
    // Correctness first: fast single == batched single-thread, bitwise.
    let mut ws = OmpScratch::new();
    let batched_once = reconstruct_batch(art, frames, &cfgs, 1);
    for (r, frame) in frames.iter().enumerate() {
        let single = reconstruct_fast(art, frame, cfg, &mut ws);
        assert_eq!(
            batched_once[r], single,
            "batch and single fast decode must agree bit for bit"
        );
        let reference =
            reconstruct_with_artifacts(&art.dictionary, &art.col_norms, frame, Basis::Dct, cfg);
        for (a, b) in reference.iter().zip(&single) {
            assert!(
                (a - b).abs() < 1e-6,
                "fast decode must track the reference (got {a} vs {b})"
            );
        }
    }

    // Timed passes: decode the population `reps` times per path.
    let time_path = |path: &str, reps: usize, f: &mut dyn FnMut()| -> f64 {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        let dt = t0.elapsed().as_secs_f64();
        let rate = (reps * n_frames) as f64 / dt.max(1e-9);
        println!(
            "  {label:<9} {path:<8} {:>8.1} decodes/s  ({:.3} ms/decode)",
            rate,
            1e3 * dt / (reps * n_frames) as f64
        );
        rate
    };
    let naive = time_path("naive", 2, &mut || {
        for frame in frames {
            std::hint::black_box(reconstruct_with_artifacts(
                &art.dictionary,
                &art.col_norms,
                frame,
                Basis::Dct,
                cfg,
            ));
        }
    });
    let fast = time_path("fast", 20, &mut || {
        for frame in frames {
            std::hint::black_box(reconstruct_fast(art, frame, cfg, &mut ws));
        }
    });
    let batched = time_path("batched", 20, &mut || {
        std::hint::black_box(reconstruct_batch(art, frames, &cfgs, 1));
    });
    [naive, fast, batched]
}

fn main() {
    // The sweep's default CS design point: M=150 measurements over N_Φ=384
    // sample frames, s=2 SRBM, DCT dictionary, OMP sparsity budget 48.
    let m = 150;
    let n = 384;
    let phi = SensingMatrix::srbm(m, n, 2, 0x0B_E7C4).to_dense();
    let dict = phi.matmul(&Basis::Dct.matrix(n));
    let art = DictionaryArtifacts::from_dictionary(dict, Basis::Dct, 1.0);
    let sparsity = 48;
    let n_frames = 24usize;
    let population = frames(&art, n_frames as u64, 8, 1e-4);
    println!("OMP decode microbench: M={m}, N={n}, sparsity={sparsity}");
    let mut json_parts = Vec::new();
    for (label, residual_tol) in [("sparse", 1e-3), ("cap_bound", 1e-4)] {
        let cfg = OmpConfig {
            sparsity,
            residual_tol,
        };
        let mut ws = OmpScratch::new();
        let support: usize = population
            .iter()
            .map(|y| {
                let s = omp_fast(
                    &art.dictionary,
                    &art.gram,
                    &art.col_norms,
                    art.ridge,
                    y,
                    &cfg,
                    &mut ws,
                );
                s.iter().filter(|v| v.abs() > 0.0).count()
            })
            .sum();
        let mean_support = support as f64 / n_frames as f64;
        println!("  {label}: residual_tol {residual_tol:e}, mean support {mean_support:.1}");
        let [naive, fast, batched] = bench(label, &art, &population, &cfg);
        let speedup = fast / naive.max(1e-9);
        json_parts.push(format!(
            "\"{label}\": {{ \"residual_tol\": {residual_tol:?}, \"mean_support\": {mean_support:?}, \
             \"naive_decodes_per_s\": {naive:?}, \"fast_decodes_per_s\": {fast:?}, \
             \"batched_decodes_per_s\": {batched:?}, \"fast_over_naive\": {speedup:?} }}"
        ));
        assert!(
            speedup >= 5.0,
            "fast OMP path must be ≥5× the naive reference on the {label} population \
             (got {speedup:.2}×)"
        );
    }

    let json = format!(
        "{{\n  \"m\": {m},\n  \"n\": {n},\n  \"sparsity\": {sparsity},\n  \"frames\": {n_frames},\n  \
         \"populations\": {{\n    {}\n  }}\n}}\n",
        json_parts.join(",\n    ")
    );
    std::fs::write("BENCH_omp.json", &json).expect("can write BENCH_omp.json");
    println!("  wrote BENCH_omp.json");
}
