//! Property tests for the search-space compiler.
//!
//! The compiler's contract is *exact* equivalence with the naive approach:
//! enumerate the whole raw lattice product in mixed-radix order and filter
//! by `SearchSpace::is_valid`. On randomly generated small constrained
//! spaces (chains, sum bounds, opaque constraints, in any mix) the
//! compiled stream must produce the same configurations in the same order,
//! bit-identically — pruning may only ever skip *invalid* points. The
//! nearest-feasible snap is held to the same standard: whatever it prunes,
//! it returns what a first-wins scan of that stream returns. The
//! store fingerprint has its own contract: insensitive to constraint
//! ordering, byte-stable against the historical params-only scheme for
//! spaces without describable constraints.
//!
//! The space's own lattice operations, which every strategy calls instead
//! of carrying a copy, are held to a brute-force reading of their docs:
//! `snap` is the per-dimension projection exactly when that is valid,
//! `snap_feasible` lands on a valid point no other valid point is strictly
//! nearer than (clamp-only repair when nothing constrains the space), and
//! `compiled` is one object per space, freed with its last clone.

use ah_core::constraint::{Constraint, MonotoneChain, SumBound};
use ah_core::param::Param;
use ah_core::prelude::*;
use ah_core::space_compile::{CompiledSpace, FeasibleCount, SpaceCursor};
use ah_core::store::space_fingerprint;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Sum of the integer parameters must be even — deliberately opaque (no
/// `ConstraintSpec`), forcing the compiler onto its full-point fallback.
#[derive(Debug)]
struct EvenIntSum;

impl Constraint for EvenIntSum {
    fn repair(&self, _space: &SearchSpace, _coords: &mut [f64]) {}
    fn is_satisfied(&self, _space: &SearchSpace, cfg: &Configuration) -> bool {
        let sum: i64 = cfg.values().iter().filter_map(|v| v.as_int()).sum();
        sum % 2 == 0
    }
    fn check_space(&self, _space: &SearchSpace) -> std::result::Result<(), HarmonyError> {
        Ok(())
    }
}

/// Tiny deterministic generator so a single proptest `u64` seeds a whole
/// random space (the vendored proptest has no recursive strategies).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// A random small space: 2–4 int dims (mixed mins/steps/cardinalities),
/// sometimes an enum dim, and 0–2 constraints drawn from chain / sum /
/// opaque. Raw products stay under ~1500 points so naive enumeration is
/// cheap ground truth.
fn random_space(seed: u64) -> SearchSpace {
    let mut g = Lcg(seed.wrapping_add(0x9e37_79b9));
    let dims = 2 + g.below(3) as usize; // 2..=4 int dims
    let mut b = SearchSpace::builder();
    let mut int_names = Vec::new();
    for d in 0..dims {
        let name = format!("p{d}");
        let min = g.below(7) as i64 - 3;
        let step = [1, 1, 2, 5][g.below(4) as usize];
        let card = 2 + g.below(4) as i64; // 2..=5 lattice points
        b = b.int(&name, min, min + step * (card - 1), step);
        int_names.push(name);
    }
    let with_enum = g.below(3) == 0;
    if with_enum {
        b = b.enumeration("mode", ["fast", "slow", "safe"]);
    }
    for _ in 0..g.below(3) {
        match g.below(3) {
            0 => {
                // Chain over a contiguous run of int dims.
                let from = g.below(int_names.len() as u64 - 1) as usize;
                let names: Vec<&str> = int_names[from..].iter().map(String::as_str).collect();
                b = b.constraint(MonotoneChain::new(names));
            }
            1 => {
                // Sum bound over all int dims, sometimes unsatisfiable.
                let lo = g.below(20) as f64 - 10.0;
                let hi = lo + g.below(15) as f64;
                let names: Vec<&str> = int_names.iter().map(String::as_str).collect();
                b = b.constraint(SumBound::new(names, lo, hi));
            }
            _ => {
                b = b.constraint(EvenIntSum);
            }
        }
    }
    b.build().expect("generated spaces are well-formed")
}

/// Ground truth: walk the raw product in mixed-radix order (dim 0 most
/// significant) and keep what `is_valid` accepts.
fn naive_filter(space: &SearchSpace) -> Vec<Configuration> {
    let radix: Vec<u64> = space
        .params()
        .iter()
        .map(|p| p.cardinality().expect("discrete"))
        .collect();
    let mut counter = vec![0u64; radix.len()];
    let mut out = Vec::new();
    'outer: loop {
        let values: Vec<ParamValue> = space
            .params()
            .iter()
            .zip(&counter)
            .map(|(p, &i)| match p {
                Param::Int { min, step, .. } => ParamValue::Int(min + i as i64 * step),
                Param::Enum { choices, .. } => ParamValue::Enum {
                    index: i as usize,
                    label: choices[i as usize].clone(),
                },
                Param::Real { .. } => unreachable!(),
            })
            .collect();
        let cfg = space.configuration(values).expect("lattice point is typed");
        if space.is_valid(&cfg) {
            out.push(cfg);
        }
        for d in (0..counter.len()).rev() {
            counter[d] += 1;
            if counter[d] < radix[d] {
                continue 'outer;
            }
            counter[d] = 0;
        }
        return out;
    }
}

/// Ground truth for `snap_feasible`: visit every valid point in stream
/// order, keep the first of the strictly nearest; more than `cap` of them
/// is "too large".
fn naive_snap(cs: &CompiledSpace, coords: &[f64], cap: u64) -> Option<Vec<f64>> {
    let mut best: Option<(f64, Vec<f64>)> = None;
    for (n, cfg) in cs.iter().enumerate() {
        if n as u64 >= cap {
            return None;
        }
        let cand = cs.space().embed(&cfg).expect("a valid point embeds");
        let dist: f64 = cand
            .iter()
            .zip(coords)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        if best.as_ref().is_none_or(|(d, _)| dist < *d) {
            best = Some((dist, cand));
        }
    }
    best.map(|(_, c)| c)
}

/// A target for `snap_feasible`: inside the box, outside it, on lattice
/// midpoints (every coordinate equidistant from two lattice values, so
/// that ties decide), or with a NaN coordinate.
fn random_target(space: &SearchSpace, g: &mut Lcg) -> Vec<f64> {
    let mode = g.below(4);
    let nan_at = g.below(space.dims() as u64) as usize;
    space
        .params()
        .iter()
        .enumerate()
        .map(|(d, p)| {
            let (lo, hi) = (p.embed_min(), p.embed_max());
            let step = match p {
                Param::Int { step, .. } => *step as f64,
                _ => 1.0,
            };
            let cells = ((hi - lo) / step) as u64;
            match mode {
                0 => lo + (hi - lo) * g.below(1000) as f64 / 999.0,
                1 if g.below(2) == 0 => lo - 0.3 - g.below(9) as f64,
                1 => hi + 0.7 + g.below(9) as f64,
                2 => lo + step * (g.below(cells) as f64 + 0.5),
                _ if d == nan_at => f64::NAN,
                _ => lo + step * g.below(cells + 1) as f64,
            }
        })
        .collect()
}

/// Squared distance in the embedding, summed left to right as the compiled
/// walk sums it.
fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(a, b)| (a - b) * (a - b)).sum()
}

fn bits(coords: &[f64]) -> Vec<u64> {
    coords.iter().map(|c| c.to_bits()).collect()
}

/// The historical params-only fingerprint scheme, reproduced independently
/// so drift in `space_fingerprint` for unconstrained spaces is caught even
/// if both sides of the comparison change together in store.rs.
fn legacy_fingerprint(space: &SearchSpace) -> u64 {
    let blob = serde_json::to_string(&space.params()).expect("params serialize");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in blob.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compiled enumeration == naive enumerate-and-filter: same points,
    /// same order, bit-identical values, and the exact count agrees.
    #[test]
    fn compiled_stream_equals_naive_filter(seed in 0u64..1_000_000) {
        let space = random_space(seed);
        let expected = naive_filter(&space);
        let cs = CompiledSpace::compile(&space).expect("discrete space compiles");
        let compiled: Vec<Configuration> = cs.iter().collect();
        prop_assert_eq!(compiled.len(), expected.len());
        for (a, b) in compiled.iter().zip(&expected) {
            prop_assert_eq!(a, b);
            prop_assert_eq!(a.cache_key(), b.cache_key());
        }
        prop_assert_eq!(cs.count_valid(), FeasibleCount::Exact(expected.len() as u64));
    }

    /// Chunked enumeration through resumable cursors concatenates to the
    /// exact full stream, for any chunk size.
    #[test]
    fn chunked_cursors_are_seamless(seed in 0u64..1_000_000, chunk in 1usize..40) {
        let space = random_space(seed);
        let cs = CompiledSpace::compile(&space).expect("discrete space compiles");
        let whole: Vec<Configuration> = cs.iter().collect();
        let mut chunked = Vec::new();
        let mut cursor = Some(SpaceCursor::default());
        while let Some(c) = cursor {
            let (points, next) = cs.next_chunk(&c, chunk).expect("cursor stays valid");
            if next.is_some() {
                prop_assert_eq!(points.len(), chunk);
            }
            chunked.extend(points);
            cursor = next;
        }
        prop_assert_eq!(whole, chunked);
    }

    /// Banded (parallel-style) enumeration partitions the stream exactly.
    #[test]
    fn bands_partition_the_stream(seed in 0u64..1_000_000, parts in 1usize..8) {
        let space = random_space(seed);
        let cs = CompiledSpace::compile(&space).expect("discrete space compiles");
        let whole: Vec<Configuration> = cs.iter().collect();
        let banded: Vec<Configuration> = cs
            .bands(parts)
            .into_iter()
            .flat_map(|band| cs.iter_band(band).collect::<Vec<_>>())
            .collect();
        prop_assert_eq!(whole, banded);
    }

    /// `snap_feasible` == the first-wins nearest over the whole stream, bit
    /// for bit, for every kind of target, at caps below, at and above the
    /// valid count — asked in a seed-dependent order on one compiled space,
    /// so the cached count is consulted for caps it was not taken at.
    #[test]
    fn snap_equals_first_wins_nearest_over_the_stream(seed in 0u64..1_000_000) {
        let space = random_space(seed);
        let cs = CompiledSpace::compile(&space).expect("discrete space compiles");
        let valid = cs.iter().count() as u64;
        let mut g = Lcg(seed ^ 0x5eed);
        let mut caps = [valid.saturating_sub(1), valid, valid + 1, 0, u64::MAX];
        caps.rotate_left(g.below(5) as usize);
        for _ in 0..6 {
            let target = random_target(&space, &mut g);
            for cap in caps {
                let got = cs.snap_feasible(&target, cap).map(|c| {
                    c.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
                });
                let want = naive_snap(&cs, &target, cap).map(|c| {
                    c.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
                });
                prop_assert!(
                    got == want,
                    "target {:?}, cap {}, {} valid: {:?} vs {:?}",
                    target, cap, valid, got, want
                );
            }
        }
    }

    /// `snap` is `Some` exactly when the per-dimension projection of the
    /// target satisfies every constraint, and is then that projection:
    /// nothing is repaired on the way.
    #[test]
    fn snap_is_the_projection_exactly_when_it_is_valid(seed in 0u64..1_000_000) {
        let space = random_space(seed);
        let mut g = Lcg(seed ^ 0x51a9);
        for _ in 0..12 {
            let target = random_target(&space, &mut g);
            let values = space
                .params()
                .iter()
                .zip(&target)
                .map(|(p, &c)| p.project(c))
                .collect();
            let projection = space.configuration(values).expect("a projection is typed");
            let want = space.is_valid(&projection).then_some(projection);
            prop_assert!(
                space.snap(&target) == want,
                "target {:?}: {:?} vs {:?}", target, space.snap(&target), want
            );
        }
    }

    /// On a constrained space with any valid point, `snap_feasible` embeds
    /// a valid configuration and no valid point is strictly nearer the
    /// target; with nothing to satisfy (or nothing that can be) it is
    /// `repair`, which without constraints only clamps.
    #[test]
    fn snap_feasible_is_the_nearest_valid_point_or_the_repair(seed in 0u64..1_000_000) {
        let space = random_space(seed);
        let valid: Vec<Vec<f64>> = space
            .compiled()
            .expect("discrete space compiles")
            .iter()
            .map(|cfg| space.embed(&cfg).expect("a valid point embeds"))
            .collect();
        let mut g = Lcg(seed ^ 0xfea5);
        for _ in 0..8 {
            let target = random_target(&space, &mut g);
            let got = space.snap_feasible(target.clone());
            if space.constraints().is_empty() || valid.is_empty() {
                let mut repaired = target.clone();
                space.repair(&mut repaired);
                prop_assert_eq!(bits(&got), bits(&repaired));
                continue;
            }
            let landed = space.snap(&got).map(|cfg| space.embed(&cfg).expect("embeds"));
            prop_assert!(
                landed.as_deref() == Some(&got[..]),
                "target {:?} landed on {:?}, not a valid lattice point", target, got
            );
            let reach = dist2(&got, &target);
            if let Some(nearer) = valid.iter().find(|v| dist2(v, &target) < reach) {
                prop_assert!(false, "target {:?}: {:?} is nearer than {:?}", target, nearer, got);
            }
        }
    }

    /// The fingerprint ignores constraint ordering and never changes for
    /// spaces without describable constraints.
    #[test]
    fn fingerprint_contract(seed in 0u64..1_000_000) {
        let mut g = Lcg(seed);
        let dims = 2 + g.below(3) as usize;
        let base = |chain_first: bool| {
            let mut b = SearchSpace::builder();
            for d in 0..dims {
                b = b.int(format!("p{d}"), 0, 9, 1);
            }
            let chain = MonotoneChain::new(["p0", "p1"]);
            let sum = SumBound::new(["p0", "p1"], 2.0, 14.0);
            if chain_first {
                b.constraint(chain).constraint(sum)
            } else {
                b.constraint(sum).constraint(chain)
            }
            .build()
            .unwrap()
        };
        prop_assert_eq!(
            space_fingerprint(&base(true)),
            space_fingerprint(&base(false))
        );

        // Unconstrained (and opaque-only) spaces keep the legacy hash, so
        // records written by older stores still resolve.
        let mut plain = SearchSpace::builder();
        for d in 0..dims {
            plain = plain.int(format!("p{d}"), 0, 9, 1);
        }
        let unconstrained = plain.build().unwrap();
        prop_assert_eq!(
            space_fingerprint(&unconstrained),
            legacy_fingerprint(&unconstrained)
        );
        let mut opaque = SearchSpace::builder();
        for d in 0..dims {
            opaque = opaque.int(format!("p{d}"), 0, 9, 1);
        }
        let opaque = opaque.constraint(EvenIntSum).build().unwrap();
        prop_assert_eq!(space_fingerprint(&opaque), legacy_fingerprint(&opaque));

        // And a random generated space agrees with itself when rebuilt.
        prop_assert_eq!(
            space_fingerprint(&random_space(seed)),
            space_fingerprint(&random_space(seed))
        );
    }
}

#[test]
fn a_space_and_its_clones_share_one_compiled_form() {
    let space = random_space(7);
    let before = space.clone();
    let cs = space.compiled().expect("discrete space compiles");
    let after = space.clone();
    for other in [&before, &after, &space] {
        assert!(std::ptr::eq(cs, other.compiled().unwrap()));
    }
    // A space rebuilt from the same parts is another space.
    assert!(!std::ptr::eq(cs, random_space(7).compiled().unwrap()));
    // The compiled form's own copy of the space answers for itself too.
    let inner = cs.space().compiled().expect("compiles again");
    assert!(!std::ptr::eq(cs, inner));
    assert_eq!(inner.iter().count(), cs.iter().count());

    // A continuous dimension has no lattice: refused, and the refusal held.
    let real = SearchSpace::builder()
        .int("n", 0, 9, 1)
        .real("tol", 0.0, 1.0)
        .build()
        .unwrap();
    assert!(real.compiled().is_none());
    assert!(real.clone().compiled().is_none());
    // `snap_feasible` still answers on it, by repair.
    let chained = SearchSpace::builder()
        .real("a", 0.0, 1.0)
        .real("b", 0.0, 1.0)
        .constraint(MonotoneChain::new(["a", "b"]))
        .build()
        .unwrap();
    assert_eq!(chained.snap_feasible(vec![0.9, 0.2]), [0.2, 0.9]);
}

/// An always-satisfied opaque constraint that counts its own drops.
#[derive(Debug)]
struct CountsDrops(Arc<AtomicUsize>);

impl Drop for CountsDrops {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

impl Constraint for CountsDrops {
    fn repair(&self, _space: &SearchSpace, _coords: &mut [f64]) {}
    fn is_satisfied(&self, _space: &SearchSpace, _cfg: &Configuration) -> bool {
        true
    }
    fn check_space(&self, _space: &SearchSpace) -> std::result::Result<(), HarmonyError> {
        Ok(())
    }
}

/// The compiled form keeps a copy of its space. If that copy shared the
/// cell the compiled form is stored in, the cell would hold a reference to
/// itself and a space that was ever compiled would never be freed.
#[test]
fn dropping_the_last_clone_frees_the_compiled_form() {
    let drops = Arc::new(AtomicUsize::new(0));
    let space = SearchSpace::builder()
        .int("a", 0, 3, 1)
        .int("b", 0, 3, 1)
        .constraint(CountsDrops(Arc::clone(&drops)))
        .build()
        .unwrap();
    let clone = space.clone();
    assert_eq!(space.compiled().expect("compiles").iter().count(), 16);
    // Compiled through its inner copy as well, as an opaque check may.
    assert!(clone.compiled().unwrap().space().compiled().is_some());
    drop(space);
    assert_eq!(drops.load(Ordering::SeqCst), 0, "a clone is still alive");
    drop(clone);
    assert_eq!(
        drops.load(Ordering::SeqCst),
        1,
        "the space outlived its last clone"
    );
}
