//! Golden fixtures: FNV-1a checksums over the IEEE 754 bit patterns of the
//! batched fast OMP decode (`decode::reconstruct_batch`).
//!
//! The population mixes the three frame shapes a sweep produces: frames
//! that stop after one atom, moderately sparse frames that stop on the
//! discrepancy rule, and noise-like frames that run to the sparsity cap
//! (k = 30 at M = 75, k = 48 at M = 192, the reduced design space's
//! budgets). Each dictionary is decoded at one and at two decode threads;
//! both must reproduce the pinned bits. A rewrite of the OMP kernel that
//! keeps every output bit passes unmodified.

use efficsense_cs::basis::Basis;
use efficsense_cs::decode::{omp_fast, reconstruct_batch, OmpScratch};
use efficsense_cs::memo::{DictionaryArtifacts, DictionaryParams};
use efficsense_cs::recon::OmpConfig;
use efficsense_dsp::approx::is_zero;
use efficsense_rng::Rng64;

/// FNV-1a (64-bit) over the little-endian bit patterns of `xs`.
fn fnv(xs: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The decoder dictionary of one reduced-space CS point (leakage-aware
/// droop folded in, DCT basis).
fn artifacts(m: usize) -> DictionaryArtifacts {
    DictionaryArtifacts::build(&DictionaryParams {
        m,
        n_phi: 384,
        s: 2,
        seed: 0x5EB1 ^ m as u64,
        c_sample_f: 0.1e-12,
        c_hold_f: 0.5e-12,
        decay: 0.9991,
        basis: Basis::Dct,
    })
}

/// Seeded frames with their decoder configs, in three groups of four:
/// single scaled atoms (support-1 stops), 6-sparse signals plus small noise
/// (discrepancy stops), and white noise at `residual_tol` 1e-4 (cap-bound).
fn population(art: &DictionaryArtifacts, cap: usize) -> (Vec<Vec<f64>>, Vec<OmpConfig>) {
    let (m, n) = (art.dictionary.rows(), art.dictionary.cols());
    let mut g = Rng64::new(0x0DEC ^ m as u64);
    let mut frames = Vec::new();
    let mut cfgs = Vec::new();
    for _ in 0..4 {
        let j = (g.next_u64() % n as u64) as usize;
        let c = g.uniform(0.2, 1.0);
        frames.push((0..m).map(|r| c * art.dictionary[(r, j)]).collect());
        cfgs.push(OmpConfig {
            sparsity: cap,
            residual_tol: 0.05,
        });
    }
    for _ in 0..4 {
        let mut y = vec![0.0; m];
        for _ in 0..6 {
            let j = (g.next_u64() % n as u64) as usize;
            let c = g.uniform(-1.0, 1.0);
            for (r, v) in y.iter_mut().enumerate() {
                *v += c * art.dictionary[(r, j)];
            }
        }
        for v in &mut y {
            *v += 1e-5 * g.normal();
        }
        frames.push(y);
        cfgs.push(OmpConfig {
            sparsity: cap,
            residual_tol: 0.01,
        });
    }
    for _ in 0..4 {
        frames.push((0..m).map(|_| g.normal()).collect());
        cfgs.push(OmpConfig {
            sparsity: cap,
            residual_tol: 1e-4,
        });
    }
    (frames, cfgs)
}

/// Support size of one frame's decode (the fixture's shape check).
fn support_len(art: &DictionaryArtifacts, y: &[f64], cfg: &OmpConfig) -> usize {
    let s = omp_fast(
        &art.dictionary,
        &art.gram,
        &art.col_norms,
        art.ridge,
        y,
        cfg,
        &mut OmpScratch::new(),
    );
    s.iter().filter(|v| !is_zero(**v)).count()
}

#[test]
fn reconstruct_batch_outputs_are_pinned() {
    let mut got = Vec::new();
    for (m, cap) in [(75usize, 30usize), (192, 48)] {
        let art = artifacts(m);
        let (frames, cfgs) = population(&art, cap);
        // The population covers what it claims to.
        let supports: Vec<usize> = frames
            .iter()
            .zip(&cfgs)
            .map(|(y, c)| support_len(&art, y, c))
            .collect();
        assert!(supports[..4].iter().all(|&k| k == 1), "{supports:?}");
        assert!(
            supports[4..8].iter().all(|&k| k > 1 && k < cap),
            "{supports:?}"
        );
        assert!(supports[8..].iter().all(|&k| k == cap), "{supports:?}");
        for threads in [1usize, 2] {
            let decoded = reconstruct_batch(&art, &frames, &cfgs, threads);
            got.push((
                format!("m{m}_k{cap}_threads{threads}"),
                fnv(decoded.into_iter().flatten()),
            ));
        }
    }
    let pinned: [u64; 4] = [
        0xb743d63146ef4131,
        0xb743d63146ef4131,
        0x419532bd019d73bd,
        0x419532bd019d73bd,
    ];
    assert_eq!(got.len(), pinned.len(), "case count changed");
    let moved: Vec<String> = got
        .iter()
        .zip(&pinned)
        .filter(|((_, g), p)| g != *p)
        .map(|((name, g), p)| format!("{name}: got {g:#018x}, pinned {p:#018x}"))
        .collect();
    assert!(moved.is_empty(), "golden mismatch:\n{}", moved.join("\n"));
}
