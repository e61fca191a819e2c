//! The projective linear groups `PGL(2, F_q)` and `PSL(2, F_q)`.
//!
//! LPS(p, q) is a Cayley graph over one of these two groups (selected by the Legendre
//! symbol `(p/q)`), so we need: a canonical representative per projective class, group
//! multiplication on canonical forms, membership tests, and full enumeration.
//!
//! A projective class (a 2×2 invertible matrix modulo nonzero scalars) is canonicalized by
//! scaling so that its first nonzero entry, in the order `a, b, c, d` of
//! `[[a, b], [c, d]]`, equals `1`. Scaling by `λ` multiplies the determinant by `λ²`, so the
//! *square class* of the determinant is a projective invariant; `PSL(2, F_q)` is exactly the
//! set of classes whose determinant is a nonzero square. This gives a uniform representation
//! for both groups.

use crate::residue::legendre;

/// Which projective group a vertex set ranges over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProjectiveKind {
    /// `PGL(2, F_q)`: all invertible matrices modulo scalars; order `q³ - q`.
    Pgl,
    /// `PSL(2, F_q)` (as a subgroup of PGL): classes with square determinant; order `(q³ - q)/2`.
    Psl,
}

/// A canonical representative of a projective class of invertible 2×2 matrices over `F_q`.
///
/// Invariants (maintained by [`ProjectiveGroup`]): entries are reduced mod `q`, the first
/// nonzero entry in order `(a, b, c, d)` is `1`, and the determinant is nonzero.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProjMat {
    /// Entry (0,0).
    pub a: u64,
    /// Entry (0,1).
    pub b: u64,
    /// Entry (1,0).
    pub c: u64,
    /// Entry (1,1).
    pub d: u64,
}

/// The group `PGL(2, F_q)` or `PSL(2, F_q)` for an odd prime `q < 2³²`.
///
/// All arithmetic is native `u64`: entries are reduced mod `q < 2³²`, so every
/// product of two entries fits without widening. Canonicalization scales by the
/// inverse of the leading entry, read from a `q`-entry table built once in
/// [`ProjectiveGroup::new`] (`4q` bytes) instead of an extended GCD per call —
/// these two are the whole cost of a Cayley-oracle translation.
#[derive(Clone, Debug)]
pub struct ProjectiveGroup {
    q: u64,
    kind: ProjectiveKind,
    /// `inv[x] = x⁻¹ mod q` for `x ∈ 1..q` (`inv[0]` is unused).
    inv: Vec<u32>,
}

impl ProjectiveGroup {
    /// Create the group over `F_q` (odd prime `3 ≤ q < 2³²`).
    pub fn new(q: u64, kind: ProjectiveKind) -> Self {
        assert!(
            q >= 3 && q % 2 == 1,
            "projective groups here require an odd prime q"
        );
        assert!(
            q < 1 << 32,
            "projective groups here require q < 2^32 (native-width arithmetic), got q = {q}"
        );
        // inv[x] = -(q / x) · inv[q mod x]: from q = (q / x)·x + q mod x, reduced mod q.
        let mut inv = vec![0u32; q as usize];
        inv[1] = 1;
        for x in 2..q {
            let t = (q / x) * inv[(q % x) as usize] as u64 % q;
            inv[x as usize] = ((q - t) % q) as u32;
        }
        ProjectiveGroup { q, kind, inv }
    }

    /// The field size `q`.
    pub fn q(&self) -> u64 {
        self.q
    }

    /// Which group this is.
    pub fn kind(&self) -> ProjectiveKind {
        self.kind
    }

    /// Resident bytes of the side tables (the inverse table).
    pub fn memory_bytes(&self) -> usize {
        self.inv.len() * std::mem::size_of::<u32>()
    }

    /// Group order: `q³ - q` for PGL, `(q³ - q)/2` for PSL.
    pub fn order(&self) -> u64 {
        let n = self.q * self.q * self.q - self.q;
        match self.kind {
            ProjectiveKind::Pgl => n,
            ProjectiveKind::Psl => n / 2,
        }
    }

    /// The identity element.
    pub fn identity(&self) -> ProjMat {
        ProjMat {
            a: 1,
            b: 0,
            c: 0,
            d: 1,
        }
    }

    /// `(x·y + z·w) mod q` for operands in `0..=q`.
    #[inline]
    fn dot(&self, x: u64, y: u64, z: u64, w: u64) -> u64 {
        let s = x * y % self.q + z * w % self.q;
        if s >= self.q {
            s - self.q
        } else {
            s
        }
    }

    /// Determinant of a representative (mod `q`).
    pub fn det(&self, m: ProjMat) -> u64 {
        self.dot(m.a, m.d, self.q - m.b, m.c)
    }

    /// Canonicalize raw entries into the unique projective representative.
    ///
    /// Returns `None` if the matrix is singular.
    pub fn canonicalize(&self, a: u64, b: u64, c: u64, d: u64) -> Option<ProjMat> {
        let q = self.q;
        let (a, b, c, d) = (a % q, b % q, c % q, d % q);
        if self.dot(a, d, q - b, c) == 0 {
            return None;
        }
        Some(self.scale_to_canonical(a, b, c, d))
    }

    /// Scale reduced, invertible entries so the first nonzero one is `1`.
    #[inline]
    fn scale_to_canonical(&self, a: u64, b: u64, c: u64, d: u64) -> ProjMat {
        // An invertible matrix with a = 0 has det = -bc != 0, so b leads.
        let lead = if a != 0 { a } else { b };
        let inv = self.inv[lead as usize] as u64;
        let q = self.q;
        ProjMat {
            a: a * inv % q,
            b: b * inv % q,
            c: c * inv % q,
            d: d * inv % q,
        }
    }

    /// Does this canonical class belong to the group (PGL: always; PSL: square determinant)?
    pub fn contains(&self, m: ProjMat) -> bool {
        match self.kind {
            ProjectiveKind::Pgl => true,
            ProjectiveKind::Psl => legendre(self.det(m), self.q) == 1,
        }
    }

    /// The adjugate `[[d, -b], [-c, a]]`: projectively the inverse class.
    #[inline]
    fn adjugate(&self, m: ProjMat) -> ProjMat {
        let neg = |x: u64| if x == 0 { 0 } else { self.q - x };
        ProjMat {
            a: m.d,
            b: neg(m.b),
            c: neg(m.c),
            d: m.a,
        }
    }

    /// Group multiplication `x · y` of canonical classes, producing a canonical class.
    ///
    /// Any reduced invertible representatives are accepted, not only canonical ones.
    #[inline]
    pub fn mul(&self, x: ProjMat, y: ProjMat) -> ProjMat {
        let a = self.dot(x.a, y.a, x.b, y.c);
        let b = self.dot(x.a, y.b, x.b, y.d);
        let c = self.dot(x.c, y.a, x.d, y.c);
        let d = self.dot(x.c, y.b, x.d, y.d);
        debug_assert_ne!(
            self.dot(a, d, self.q - b, c),
            0,
            "product of invertible matrices is invertible"
        );
        self.scale_to_canonical(a, b, c, d)
    }

    /// Inverse of a canonical class.
    pub fn inverse(&self, m: ProjMat) -> ProjMat {
        let adj = self.adjugate(m);
        self.scale_to_canonical(adj.a, adj.b, adj.c, adj.d)
    }

    /// The left quotient `x⁻¹ · y` with a single canonicalization: the adjugate
    /// of `x` is a scalar multiple of `x⁻¹`, so `adj(x) · y` already lies in the
    /// class of `x⁻¹ · y`. This is the Cayley-graph translation `diff(x, y)`.
    #[inline]
    pub fn inv_mul(&self, x: ProjMat, y: ProjMat) -> ProjMat {
        self.mul(self.adjugate(x), y)
    }

    /// Enumerate every canonical class in the group, in a deterministic order.
    ///
    /// The order is the one [`ProjectiveIndex`] inverts in closed form: the `a = 1` block
    /// ordered lexicographically by `(b, c, d)` (skipping singular `d = bc` and, for PSL,
    /// non-square determinants), then the `a = 0, b = 1` block ordered by `(c, d)`.
    /// Enumeration is `O(q³)`; for design-space *counting* use
    /// [`ProjectiveGroup::order`], which is closed-form.
    pub fn enumerate(&self) -> Vec<ProjMat> {
        let q = self.q;
        let mut out = Vec::with_capacity(self.order() as usize);
        // Case a = 1: b, c, d free with det = d - bc != 0.
        for b in 0..q {
            for c in 0..q {
                let bc = b * c % q;
                for d in 0..q {
                    if d == bc {
                        continue;
                    }
                    let m = ProjMat { a: 1, b, c, d };
                    if self.contains(m) {
                        out.push(m);
                    }
                }
            }
        }
        // Case a = 0, b = 1: det = -c != 0.
        for c in 1..q {
            for d in 0..q {
                let m = ProjMat { a: 0, b: 1, c, d };
                if self.contains(m) {
                    out.push(m);
                }
            }
        }
        debug_assert_eq!(out.len() as u64, self.order());
        out
    }
}

/// Closed-form rank of a canonical class within [`ProjectiveGroup::enumerate`]'s order.
///
/// `index_of(m)` equals `enumerate().iter().position(|&x| x == m)` without materializing
/// (or hashing) the `O(q³)` element list — the piece that turns a Cayley graph over
/// `PGL(2, F_q)` into an *implicit* vertex numbering: group arithmetic on canonical
/// matrices composes with this rank function to give O(1) vertex-id translation maps,
/// which is what million-vertex LPS path oracles need in their hot path.
///
/// The enumeration order has two blocks:
///
/// * `a = 1`: buckets ordered by `(b, c)`; within a bucket, admissible `d` (nonzero —
///   and, for PSL, square — determinant `d - bc`) in increasing order. Every bucket
///   holds exactly `q - 1` (PGL) or `(q - 1)/2` (PSL) classes, so the bucket base is a
///   multiplication and the within-bucket rank is a precomputed `O(q²)` prefix table.
/// * `a = 0, b = 1`: determinant `-c`, rows ordered by `(c, d)` with all `d` admissible;
///   a length-`q` prefix table ranks the admissible `c`.
#[derive(Clone, Debug)]
pub struct ProjectiveIndex {
    q: u64,
    kind: ProjectiveKind,
    /// `rank_d[bc * q + d]` = admissible `d' < d` in the `a = 1` bucket with product `bc`.
    rank_d: Vec<u32>,
    /// `rank_c[c]` = admissible `c' in 1..c` in the `a = 0` block.
    rank_c: Vec<u32>,
    /// Classes per `a = 1` bucket: `q - 1` (PGL) or `(q - 1)/2` (PSL).
    bucket: u64,
    /// Total size of the `a = 1` block (`q² · bucket`).
    a0_offset: u64,
}

impl ProjectiveIndex {
    /// Build the rank tables for a group (`O(q²)` time and space).
    pub fn new(group: &ProjectiveGroup) -> Self {
        let q = group.q();
        let kind = group.kind();
        // Is `det` an admissible determinant? (nonzero, and a square for PSL)
        let admissible: Vec<bool> = (0..q)
            .map(|det| match kind {
                ProjectiveKind::Pgl => det != 0,
                ProjectiveKind::Psl => legendre(det, q) == 1,
            })
            .collect();
        let mut rank_d = vec![0u32; (q * q) as usize];
        for bc in 0..q {
            let mut rank = 0u32;
            for d in 0..q {
                rank_d[(bc * q + d) as usize] = rank;
                if admissible[((d + q - bc) % q) as usize] {
                    rank += 1;
                }
            }
        }
        let mut rank_c = vec![0u32; q as usize];
        let mut rank = 0u32;
        for c in 1..q {
            rank_c[c as usize] = rank;
            if admissible[(q - c) as usize] {
                rank += 1;
            }
        }
        let bucket = match kind {
            ProjectiveKind::Pgl => q - 1,
            ProjectiveKind::Psl => (q - 1) / 2,
        };
        ProjectiveIndex {
            q,
            kind,
            rank_d,
            rank_c,
            bucket,
            a0_offset: q * q * bucket,
        }
    }

    /// The field size `q`.
    pub fn q(&self) -> u64 {
        self.q
    }

    /// Which group the ranks refer to.
    pub fn kind(&self) -> ProjectiveKind {
        self.kind
    }

    /// The rank of a canonical class in [`ProjectiveGroup::enumerate`]'s order.
    ///
    /// `m` must be a canonical member of the group this index was built for (as produced
    /// by [`ProjectiveGroup::canonicalize`] / [`ProjectiveGroup::mul`]); ranks of
    /// non-members are meaningless (debug assertions catch malformed leading entries).
    #[inline]
    pub fn index_of(&self, m: ProjMat) -> usize {
        let q = self.q;
        if m.a == 1 {
            let bc = m.b * m.c % q;
            ((m.b * q + m.c) * self.bucket + self.rank_d[(bc * q + m.d) as usize] as u64) as usize
        } else {
            debug_assert_eq!(
                (m.a, m.b),
                (0, 1),
                "canonical class with a != 1 must have a = 0, b = 1"
            );
            (self.a0_offset + self.rank_c[m.c as usize] as u64 * q + m.d) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_match_formula() {
        for q in [3u64, 5, 7, 11, 13] {
            let pgl = ProjectiveGroup::new(q, ProjectiveKind::Pgl);
            let psl = ProjectiveGroup::new(q, ProjectiveKind::Psl);
            assert_eq!(pgl.enumerate().len() as u64, q * q * q - q);
            assert_eq!(psl.enumerate().len() as u64, (q * q * q - q) / 2);
        }
    }

    #[test]
    fn enumeration_has_no_duplicates() {
        for q in [5u64, 7, 11] {
            let g = ProjectiveGroup::new(q, ProjectiveKind::Pgl);
            let elems = g.enumerate();
            let set: std::collections::HashSet<_> = elems.iter().copied().collect();
            assert_eq!(set.len(), elems.len());
        }
    }

    #[test]
    fn canonical_forms_are_fixed_points() {
        let g = ProjectiveGroup::new(11, ProjectiveKind::Pgl);
        for m in g.enumerate() {
            assert_eq!(g.canonicalize(m.a, m.b, m.c, m.d), Some(m));
        }
    }

    #[test]
    fn scaling_does_not_change_class() {
        let g = ProjectiveGroup::new(13, ProjectiveKind::Pgl);
        let m = g.canonicalize(2, 5, 7, 1).unwrap();
        for lambda in 1..13u64 {
            let scaled = g
                .canonicalize(
                    2 * lambda % 13,
                    5 * lambda % 13,
                    7 * lambda % 13,
                    lambda % 13,
                )
                .unwrap();
            assert_eq!(scaled, m);
        }
    }

    #[test]
    fn singular_matrices_rejected() {
        let g = ProjectiveGroup::new(7, ProjectiveKind::Pgl);
        assert!(g.canonicalize(0, 0, 0, 0).is_none());
        assert!(g.canonicalize(2, 4, 1, 2).is_none()); // det = 0
        assert!(g.canonicalize(3, 3, 3, 3).is_none());
    }

    #[test]
    fn group_axioms_on_samples() {
        let g = ProjectiveGroup::new(7, ProjectiveKind::Pgl);
        let elems = g.enumerate();
        let id = g.identity();
        let sample: Vec<ProjMat> = elems.iter().step_by(17).copied().collect();
        for &x in &sample {
            assert_eq!(g.mul(x, id), x);
            assert_eq!(g.mul(id, x), x);
            assert_eq!(g.mul(x, g.inverse(x)), id);
            assert_eq!(g.mul(g.inverse(x), x), id);
            for &y in &sample {
                let xy = g.mul(x, y);
                assert!(g.contains(xy));
                for &z in &sample {
                    assert_eq!(g.mul(g.mul(x, y), z), g.mul(x, g.mul(y, z)));
                }
            }
        }
    }

    #[test]
    fn psl_is_closed_under_multiplication() {
        let g = ProjectiveGroup::new(11, ProjectiveKind::Psl);
        let elems = g.enumerate();
        let sample: Vec<ProjMat> = elems.iter().step_by(13).copied().collect();
        for &x in &sample {
            for &y in &sample {
                assert!(g.contains(g.mul(x, y)));
            }
        }
    }

    /// The closed-form rank must invert the enumeration order exactly, for both
    /// kinds and several field sizes — this is the contract the Cayley path
    /// oracle's vertex translation rests on.
    #[test]
    fn projective_index_matches_enumeration_order() {
        for q in [3u64, 5, 7, 11, 13] {
            for kind in [ProjectiveKind::Pgl, ProjectiveKind::Psl] {
                let g = ProjectiveGroup::new(q, kind);
                let idx = ProjectiveIndex::new(&g);
                for (i, m) in g.enumerate().into_iter().enumerate() {
                    assert_eq!(idx.index_of(m), i, "q={q} kind={kind:?} element {m:?}");
                }
            }
        }
    }

    /// Ranks compose with group arithmetic: `index_of(mul(x, y))` is a valid
    /// vertex id, and `index_of(identity)` is stable under `x·x⁻¹`.
    #[test]
    fn projective_index_composes_with_group_ops() {
        let g = ProjectiveGroup::new(11, ProjectiveKind::Psl);
        let idx = ProjectiveIndex::new(&g);
        let elems = g.enumerate();
        let id_rank = idx.index_of(g.identity());
        for &x in elems.iter().step_by(29) {
            assert_eq!(idx.index_of(g.mul(x, g.inverse(x))), id_rank);
            for &y in elems.iter().step_by(31) {
                let r = idx.index_of(g.mul(x, y));
                assert!(r < elems.len());
                assert_eq!(elems[r], g.mul(x, y));
            }
        }
    }

    /// The `u128` + extended-GCD arithmetic the native-width group replaced,
    /// kept as the reference the fast paths must reproduce bit for bit.
    mod reference {
        use super::ProjMat;
        use crate::arith::{mod_inv, mod_mul};

        pub fn canonicalize(q: u64, a: u64, b: u64, c: u64, d: u64) -> Option<ProjMat> {
            let (a, b, c, d) = (a % q, b % q, c % q, d % q);
            if (mod_mul(a, d, q) + q - mod_mul(b, c, q)).is_multiple_of(q) {
                return None;
            }
            let lead = [a, b, c, d].into_iter().find(|&x| x != 0)?;
            let inv = mod_inv(lead, q)?;
            Some(ProjMat {
                a: mod_mul(a, inv, q),
                b: mod_mul(b, inv, q),
                c: mod_mul(c, inv, q),
                d: mod_mul(d, inv, q),
            })
        }

        pub fn mul(q: u64, x: ProjMat, y: ProjMat) -> ProjMat {
            let a = (mod_mul(x.a, y.a, q) + mod_mul(x.b, y.c, q)) % q;
            let b = (mod_mul(x.a, y.b, q) + mod_mul(x.b, y.d, q)) % q;
            let c = (mod_mul(x.c, y.a, q) + mod_mul(x.d, y.c, q)) % q;
            let d = (mod_mul(x.c, y.b, q) + mod_mul(x.d, y.d, q)) % q;
            canonicalize(q, a, b, c, d).expect("invertible product")
        }

        pub fn inverse(q: u64, m: ProjMat) -> ProjMat {
            canonicalize(q, m.d, (q - m.b) % q, (q - m.c) % q, m.a).expect("invertible")
        }
    }

    /// Exhaustive equivalence with the reference on small fields: every raw
    /// 4-tuple canonicalizes identically (singular ones to `None`), and every
    /// element and ordered pair agree on inverse, product and left quotient.
    #[test]
    fn native_arithmetic_matches_reference_exhaustively() {
        for q in [3u64, 5, 7, 11, 13] {
            for kind in [ProjectiveKind::Pgl, ProjectiveKind::Psl] {
                let g = ProjectiveGroup::new(q, kind);
                for code in 0..q.pow(4) {
                    let (a, b, c, d) = (code % q, code / q % q, code / q / q % q, code / q.pow(3));
                    assert_eq!(
                        g.canonicalize(a, b, c, d),
                        reference::canonicalize(q, a, b, c, d),
                        "q={q} canonicalize({a},{b},{c},{d})"
                    );
                }
                let elems = g.enumerate();
                for &x in &elems {
                    let x_inv = reference::inverse(q, x);
                    assert_eq!(g.inverse(x), x_inv, "q={q} {kind:?}");
                    for &y in &elems {
                        let xy = reference::mul(q, x, y);
                        assert_eq!(g.mul(x, y), xy, "q={q} {kind:?} {x:?}·{y:?}");
                        assert_eq!(
                            g.inv_mul(x, y),
                            reference::mul(q, x_inv, y),
                            "q={q} {kind:?} {x:?}⁻¹·{y:?}"
                        );
                    }
                }
            }
        }
    }

    /// Sampled equivalence at the fields the simulator's fabrics use, including
    /// unreduced inputs to `canonicalize`.
    #[test]
    fn native_arithmetic_matches_reference_on_samples() {
        for q in [47u64, 103] {
            for kind in [ProjectiveKind::Pgl, ProjectiveKind::Psl] {
                let g = ProjectiveGroup::new(q, kind);
                let elems = g.enumerate();
                // A fixed LCG walk over the element list.
                let mut state = q;
                let mut next = || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 33) as usize
                };
                for _ in 0..20_000 {
                    let x = elems[next() % elems.len()];
                    let y = elems[next() % elems.len()];
                    assert_eq!(g.mul(x, y), reference::mul(q, x, y), "q={q} {kind:?}");
                    assert_eq!(g.inverse(x), reference::inverse(q, x), "q={q} {kind:?}");
                    assert_eq!(g.inv_mul(x, y), g.mul(g.inverse(x), y), "q={q} {kind:?}");
                    let raw = [next() as u64, next() as u64, next() as u64, next() as u64];
                    assert_eq!(
                        g.canonicalize(raw[0], raw[1], raw[2], raw[3]),
                        reference::canonicalize(q, raw[0], raw[1], raw[2], raw[3]),
                        "q={q} canonicalize{raw:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "q < 2^32")]
    fn fields_beyond_native_width_are_rejected() {
        ProjectiveGroup::new((1 << 32) + 15, ProjectiveKind::Pgl);
    }

    #[test]
    fn paper_example_vertex_of_lps_3_5() {
        // Example 1: the coset {[0 1; 1 2], [0 2; 2 4], [0 3; 3 1], [0 4; 4 3]} is a single
        // element of PGL(2, F_5); all four representatives canonicalize identically.
        let g = ProjectiveGroup::new(5, ProjectiveKind::Pgl);
        let reps = [
            (0u64, 1u64, 1u64, 2u64),
            (0, 2, 2, 4),
            (0, 3, 3, 1),
            (0, 4, 4, 3),
        ];
        let canon: std::collections::HashSet<_> = reps
            .iter()
            .map(|&(a, b, c, d)| g.canonicalize(a, b, c, d).unwrap())
            .collect();
        assert_eq!(canon.len(), 1);
    }
}
