//! Bit-exactness locks for the Lanczos spectral solver on real LPS fabrics.
//!
//! The graph crate cannot build LPS graphs, so the locks live here, next to
//! the topologies they measure. They pin the `to_bits()` of every Ritz value
//! `lanczos_ritz_values` returns for a fixed deflation set, and the bits of a
//! full `spectral_summary`, so that any reordering of the floating-point work
//! inside the solver (fused passes, buffer reuse) shows up as a failure rather
//! than as a silent round-off drift.
//!
//! * LPS(3,13) is the PSL₂ case: 1,092 vertices, 4-regular, not bipartite,
//!   deflated by the all-ones vector.
//! * LPS(5,13) is the PGL₂ case: 2,184 vertices, 6-regular, bipartite,
//!   deflated by the all-ones vector and the normalised 2-colouring.
//!
//! Beside the locks, the bipartite case is cross-checked for correctness: the
//! one-run summary against the dense spectrum of LPS(5,7), and λ₂ across two
//! Lanczos start vectors on LPS(5,13).

use spectralfly_graph::spectral::{
    bipartite_sign_vector, dense_adjacency_eigenvalues, lanczos_ritz_values, spectral_summary,
};
use spectralfly_graph::CsrGraph;
use spectralfly_topology::{LpsGraph, Topology};

/// The unit all-ones vector, plus the unit sign vector when `bipartite`.
fn deflation_set(g: &CsrGraph, bipartite: bool) -> Vec<Vec<f64>> {
    let n = g.num_vertices();
    let mut deflate = vec![vec![1.0 / (n as f64).sqrt(); n]];
    if bipartite {
        let sign = bipartite_sign_vector(g).expect("graph is bipartite");
        let norm = sign.iter().map(|x| x * x).sum::<f64>().sqrt();
        deflate.push(sign.iter().map(|x| x / norm).collect());
    }
    deflate
}

fn ritz_bits(p: u64, q: u64, bipartite: bool) -> Vec<u64> {
    let lps = LpsGraph::new(p, q).expect("valid LPS parameters");
    let g = lps.graph();
    assert_eq!(bipartite_sign_vector(g).is_some(), bipartite);
    lanczos_ritz_values(g, &deflation_set(g, bipartite), 24, 7)
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

/// `lanczos_ritz_values(LPS(3,13), [ones], 24, 7)`, as bits.
#[rustfmt::skip]
const LPS_3_13_RITZ_BITS: [u64; 24] = [
    0xc00a382bb7e0cd92, 0xc008635924b79c0e, 0xc007fb8c55723c5c, 0xc0065f9b541def68,
    0xc004dcd39fe0cc74, 0xc004547ae5fc9dee, 0xc0002ca8811a077a, 0xbff94120b4a0ba68,
    0xbff6d9e3d880c5c8, 0xbff0602ea5bcbd4e, 0xbfeee51711f3d1bb, 0xbfa2f4c96d966a06,
    0x3fd157970c6737ae, 0x3fe174790689b777, 0x3fefc19b41fd0b7d, 0x3ff58829f5e8ff0a,
    0x3ff96dee3bebf072, 0x3ffbf7a292ff0b10, 0x40024a75148c41a6, 0x400473d568984e78,
    0x40055af5d73aae40, 0x400618b5f4c3bcfa, 0x4007ffff050a7844, 0x400aa6f3ef673aea,
];

/// `lanczos_ritz_values(LPS(5,13), [ones, sign], 24, 7)`, as bits.
#[rustfmt::skip]
const LPS_5_13_RITZ_BITS: [u64; 24] = [
    0xc010ff238e02a022, 0xc010f587148f049c, 0xc00d81e74d812833, 0xc00c4b047983cb2a,
    0xc00aa64657001bac, 0xc00817c20fab8e3f, 0xc004eb0d36cc9f48, 0xc00087ab3d593739,
    0xbffb382bb4daa78c, 0xbff3132f6649e582, 0xbfe9b52a52034bfa, 0xbfce7e3e2557d316,
    0x3fce6c89e7c282ce, 0x3fe9244751053136, 0x3ff30be657330008, 0x3ffaabefce86a0c4,
    0x4000760c50558f37, 0x4004e26f908e2dc3, 0x4008194c657020d2, 0x400ab6ae62684ec4,
    0x400c45df1e1e09be, 0x400d804f788d8396, 0x4010fa66451c926a, 0x4010fe576db7d9fc,
];

#[test]
fn ritz_values_of_lps_3_13_are_pinned() {
    assert_eq!(ritz_bits(3, 13, false), LPS_3_13_RITZ_BITS);
}

#[test]
fn ritz_values_of_bipartite_lps_5_13_are_pinned() {
    assert_eq!(ritz_bits(5, 13, true), LPS_5_13_RITZ_BITS);
}

#[test]
fn spectral_summary_of_lps_3_13_is_pinned() {
    let lps = LpsGraph::new(3, 13).expect("valid LPS parameters");
    let s = spectral_summary(lps.graph(), 100, 3);
    assert_eq!(
        s.lambda2.to_bits(),
        0x400aa6f3ef6c7cb1,
        "λ₂ = {}",
        s.lambda2
    );
    assert_eq!(
        s.lambda_nontrivial.to_bits(),
        0x400aa6f3ef6c7cb1,
        "λ(G) = {}",
        s.lambda_nontrivial
    );
    assert_eq!(s.mu1.to_bits(), 0x3fc56430424e0d3c, "µ₁ = {}", s.mu1);
    assert!(!s.bipartite);
    assert!(s.ramanujan);
}

/// LPS(5,7) is bipartite (PGL₂, 336 vertices, 6-regular): the one-run summary,
/// which deflates both trivial eigenvectors, matches the dense spectrum on λ₂
/// and on |λ(G)|.
#[test]
fn bipartite_summary_matches_dense_spectrum_on_lps_5_7() {
    let lps = LpsGraph::new(5, 7).expect("valid LPS parameters");
    let g = lps.graph();
    assert_eq!(g.num_vertices(), 336);
    let dense = dense_adjacency_eigenvalues(g);
    let n = dense.len();
    assert!((dense[0] + 6.0).abs() < 1e-9 && (dense[n - 1] - 6.0).abs() < 1e-9);
    let exact_l2 = dense[n - 2];
    let exact_lambda = dense[1].abs().max(dense[n - 2].abs());
    let s = spectral_summary(g, 100, 5);
    assert!(s.bipartite);
    assert!(s.ramanujan);
    assert!(
        (s.lambda2 - exact_l2).abs() < 1e-6,
        "λ₂ {} vs dense {exact_l2}",
        s.lambda2
    );
    assert!(
        (s.lambda_nontrivial.abs() - exact_lambda).abs() < 1e-6,
        "|λ(G)| {} vs dense {exact_lambda}",
        s.lambda_nontrivial.abs()
    );
}

/// The bipartite λ₂ does not depend on the Lanczos start vector beyond
/// round-off.
#[test]
fn bipartite_lambda2_is_seed_independent_on_lps_5_13() {
    let lps = LpsGraph::new(5, 13).expect("valid LPS parameters");
    let a = spectral_summary(lps.graph(), 100, 1);
    let b = spectral_summary(lps.graph(), 100, 2);
    assert!(a.bipartite && b.bipartite);
    assert!(
        (a.lambda2 - b.lambda2).abs() < 1e-9,
        "seed 1: {}, seed 2: {}",
        a.lambda2,
        b.lambda2
    );
}
