//! Decomposition of the 5-D index space and exact redistribution volumes.
//!
//! The flattened index space (ordered by the [`Layout`]) is cut into `P`
//! contiguous chunks of `⌈N/P⌉` elements. A phase that needs a set of
//! dimensions `D` local (e.g. `{x, y}` for the field solve) requires every
//! *pencil* — the sub-array spanned by `D` at fixed other coordinates — to
//! reside on a single processor. [`locality`] counts exactly how many
//! elements already live on their pencil's home processor, one run of the
//! fastest dimension at a time; the remainder is the redistribution volume.

use crate::layout::{Dim, Layout};

/// Sizes of the five dimensions in canonical `x y l e s` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DimSizes {
    /// x size.
    pub x: usize,
    /// y size.
    pub y: usize,
    /// l size.
    pub l: usize,
    /// e size (`negrid`).
    pub e: usize,
    /// s size (species).
    pub s: usize,
}

impl DimSizes {
    /// Size of one dimension.
    pub fn of(&self, d: Dim) -> usize {
        match d {
            Dim::X => self.x,
            Dim::Y => self.y,
            Dim::L => self.l,
            Dim::E => self.e,
            Dim::S => self.s,
        }
    }

    /// Total number of elements.
    pub fn total(&self) -> usize {
        self.x * self.y * self.l * self.e * self.s
    }
}

/// A concrete decomposition: layout + sizes + processor count.
#[derive(Debug, Clone, Copy)]
pub struct Decomposition {
    /// The data layout.
    pub layout: Layout,
    /// The dimension sizes.
    pub sizes: DimSizes,
    /// Processor count.
    pub procs: usize,
}

impl Decomposition {
    /// Create a decomposition. `procs ≥ 1`.
    pub fn new(layout: Layout, sizes: DimSizes, procs: usize) -> Self {
        assert!(procs >= 1);
        Decomposition {
            layout,
            sizes,
            procs,
        }
    }

    /// Elements per chunk (the last processor's chunk may be smaller; extra
    /// processors beyond `N` elements idle).
    pub fn chunk(&self) -> usize {
        self.sizes.total().div_ceil(self.procs)
    }

    /// Owner of a flattened element index.
    pub fn owner(&self, flat: usize) -> usize {
        flat / self.chunk()
    }

    /// Number of processors that actually own elements.
    pub fn active_procs(&self) -> usize {
        self.sizes.total().div_ceil(self.chunk()).min(self.procs)
    }

    /// Load balance: the largest per-processor load (the chunk) relative to
    /// the ideal `N / procs` share; `1.0` means perfectly even, and ragged
    /// or idle-processor decompositions score higher.
    pub fn balance_penalty(&self) -> f64 {
        let n = self.sizes.total() as f64;
        let chunk = self.chunk() as f64;
        chunk * self.procs as f64 / n
    }
}

/// Fraction of elements already resident on their pencil-home processor for
/// a phase needing dimensions `needed` local. `1.0` = no redistribution.
///
/// Exact: counts by runs of the layout's fastest dimension, `N / n₀` runs of
/// `n₀` consecutive flat indices. Along a run, if that dimension is needed
/// the home is one flat index and the count is the run's overlap with the
/// home's chunk; otherwise `flat − home = δ` is constant and an element is
/// local exactly when `home mod chunk < chunk − δ`, counted in closed form
/// (none when `δ ≥ chunk`, the whole run when `δ = 0`). Both counts are
/// integers, so the fraction is the one an element-by-element walk gives.
pub fn locality(d: &Decomposition, needed: &[Dim]) -> f64 {
    let order = d.layout.dims();
    let sizes: [usize; 5] = std::array::from_fn(|i| d.sizes.of(order[i]));
    let mask: [bool; 5] = std::array::from_fn(|i| needed.contains(&order[i]));
    let n = d.sizes.total();
    if n == 0 {
        return 1.0;
    }
    let chunk = d.chunk();
    let run = sizes[0];
    // Strides of each layout position in the flattened index.
    let mut strides = [0usize; 5];
    let mut acc = 1usize;
    for i in 0..5 {
        strides[i] = acc;
        acc *= sizes[i];
    }
    let mut local = 0usize;
    let mut coords = [0usize; 5];
    // The run's first flat index, and its pencil home: the same index with
    // the needed coordinates of positions 1..5 zeroed (position 0's is 0).
    let (mut first, mut home) = (0usize, 0usize);
    'runs: loop {
        local += if mask[0] {
            let lo = home / chunk * chunk;
            (first + run).min(lo + chunk).saturating_sub(first.max(lo))
        } else {
            let delta = first - home;
            if delta == 0 {
                run
            } else if delta >= chunk {
                0
            } else {
                // Homes in `0..m` whose offset in their chunk is below `keep`.
                let keep = chunk - delta;
                let below = |m: usize| m / chunk * keep + (m % chunk).min(keep);
                below(home + run) - below(home)
            }
        };
        // Next run: increment the mixed-radix coordinates of positions 1..5.
        for i in 1..5 {
            coords[i] += 1;
            first += strides[i];
            if !mask[i] {
                home += strides[i];
            }
            if coords[i] < sizes[i] {
                continue 'runs;
            }
            coords[i] = 0;
            first -= sizes[i] * strides[i];
            if !mask[i] {
                home -= sizes[i] * strides[i];
            }
        }
        return local as f64 / n as f64;
    }
}

/// Elements that must move for the phase (the alltoall volume).
pub fn redistribution_volume(d: &Decomposition, needed: &[Dim]) -> usize {
    let n = d.sizes.total();
    ((1.0 - locality(d, needed)) * n as f64).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The element walk `locality` replaced, kept as its oracle: every
    /// element's owner against its pencil home's owner.
    fn locality_by_walk(d: &Decomposition, needed: &[Dim]) -> f64 {
        let order = d.layout.dims();
        let sizes: [usize; 5] = std::array::from_fn(|i| d.sizes.of(order[i]));
        let mask: [bool; 5] = std::array::from_fn(|i| needed.contains(&order[i]));
        let n = d.sizes.total();
        if n == 0 {
            return 1.0;
        }
        let mut strides = [0usize; 5];
        let mut acc = 1usize;
        for i in 0..5 {
            strides[i] = acc;
            acc *= sizes[i];
        }
        let mut local = 0usize;
        let mut coords = [0usize; 5];
        for flat in 0..n {
            let mut home_flat = flat;
            for i in 0..5 {
                if mask[i] {
                    home_flat -= coords[i] * strides[i];
                }
            }
            if d.owner(flat) == d.owner(home_flat) {
                local += 1;
            }
            for i in 0..5 {
                coords[i] += 1;
                if coords[i] < sizes[i] {
                    break;
                }
                coords[i] = 0;
            }
        }
        local as f64 / n as f64
    }

    /// The subset of the five dimensions whose bits are set in `bits`.
    fn subset(bits: usize) -> Vec<Dim> {
        (0..5)
            .filter(|i| bits >> i & 1 == 1)
            .map(|i| Dim::ALL[i])
            .collect()
    }

    /// Sizes from five draws, and a processor count in `1..=2N` from `p`.
    fn decomposition(layout: Layout, dims: &[usize], p: usize) -> Decomposition {
        let sizes = DimSizes {
            x: dims[0],
            y: dims[1],
            l: dims[2],
            e: dims[3],
            s: dims[4],
        };
        Decomposition::new(layout, sizes, 1 + p % (2 * sizes.total()))
    }

    fn agrees_with_walk(d: &Decomposition, needed: &[Dim]) -> Result<(), String> {
        let (runs, walk) = (locality(d, needed), locality_by_walk(d, needed));
        prop_assert!(
            runs.to_bits() == walk.to_bits(),
            "{d:?} needing {needed:?}: {runs} by runs, {walk} by walk"
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn locality_equals_the_walk_on_every_layout_and_subset(
            dims in vec(1usize..5, 5),
            p in 0usize..1_000_000,
        ) {
            for layout in Layout::all() {
                let d = decomposition(layout, &dims, p);
                for bits in 0..32 {
                    agrees_with_walk(&d, &subset(bits))?;
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn locality_equals_the_walk_on_larger_sizes(
            dims in vec(1usize..12, 5),
            layout in 0usize..120,
            bits in 0usize..32,
            p in 0usize..1_000_000,
        ) {
            let d = decomposition(Layout::all()[layout], &dims, p);
            agrees_with_walk(&d, &subset(bits))?;
        }
    }

    #[test]
    fn locality_equals_the_walk_at_paper_size() {
        let sizes = DimSizes {
            x: 32,
            y: 16,
            l: 32,
            e: 16,
            s: 2,
        };
        for name in ["lxyes", "yxles", "sexyl"] {
            for procs in [7, 128] {
                let d = Decomposition::new(layout(name), sizes, procs);
                for needed in [&[Dim::X, Dim::Y][..], &[Dim::L, Dim::E]] {
                    agrees_with_walk(&d, needed).unwrap();
                }
            }
        }
    }

    fn sizes() -> DimSizes {
        DimSizes {
            x: 8,
            y: 4,
            l: 8,
            e: 4,
            s: 2,
        }
    }

    fn layout(s: &str) -> Layout {
        s.parse().expect("test layout parses")
    }

    #[test]
    fn chunking_covers_everything() {
        let d = Decomposition::new(layout("lxyes"), sizes(), 16);
        assert_eq!(d.sizes.total(), 2048);
        assert_eq!(d.chunk(), 128);
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(2047), 15);
        assert_eq!(d.active_procs(), 16);
    }

    #[test]
    fn leading_dims_with_dividing_chunk_are_fully_local() {
        // Layout yx...: x*y = 32 elements per pencil; chunk 128 is a
        // multiple, so every x-y pencil is wholly on one processor.
        let d = Decomposition::new(layout("yxles"), sizes(), 16);
        assert_eq!(locality(&d, &[Dim::X, Dim::Y]), 1.0);
        assert_eq!(redistribution_volume(&d, &[Dim::X, Dim::Y]), 0);
    }

    #[test]
    fn trailing_dims_are_mostly_remote() {
        // In lxyes the x-y pencil is strided across l; most of each pencil
        // lives away from its home processor.
        let d = Decomposition::new(layout("lxyes"), sizes(), 16);
        let loc = locality(&d, &[Dim::X, Dim::Y]);
        assert!(loc <= 0.6, "locality {loc}");
        assert!(loc >= 0.1, "locality {loc}");
    }

    #[test]
    fn default_layout_favours_collisions_over_field_solve() {
        // lxyes keeps l fastest: pitch-angle (Lorentz collision) pencils are
        // perfectly local, x-y planes are not; yxles is the reverse.
        let dl = Decomposition::new(layout("lxyes"), sizes(), 16);
        let dy = Decomposition::new(layout("yxles"), sizes(), 16);
        let coll = [Dim::L];
        let xy = [Dim::X, Dim::Y];
        assert_eq!(locality(&dl, &coll), 1.0);
        assert!(locality(&dl, &xy) < 1.0);
        assert_eq!(locality(&dy, &xy), 1.0);
        assert!(locality(&dy, &coll) < 1.0);
        assert!(locality(&dl, &coll) > locality(&dl, &xy));
        assert!(locality(&dy, &xy) > locality(&dy, &coll));
    }

    #[test]
    fn locality_degrades_when_procs_do_not_divide() {
        // 16 procs divide 2048 evenly; 12 procs cut pencils raggedly.
        let aligned = Decomposition::new(layout("yxles"), sizes(), 16);
        let ragged = Decomposition::new(layout("yxles"), sizes(), 12);
        let xy = [Dim::X, Dim::Y];
        assert!(locality(&ragged, &xy) < locality(&aligned, &xy));
    }

    #[test]
    fn needing_nothing_is_always_local() {
        let d = Decomposition::new(layout("lxyes"), sizes(), 16);
        assert_eq!(locality(&d, &[]), 1.0);
    }

    #[test]
    fn needing_everything_is_local_only_on_one_proc() {
        let all = Dim::ALL;
        let one = Decomposition::new(layout("lxyes"), sizes(), 1);
        assert_eq!(locality(&one, &all), 1.0);
        let many = Decomposition::new(layout("lxyes"), sizes(), 16);
        // Everything must gather to processor 0's chunk.
        assert!(locality(&many, &all) <= 1.0 / 16.0 + 1e-9);
    }

    #[test]
    fn balance_penalty_grows_with_ragged_chunks() {
        let even = Decomposition::new(layout("lxyes"), sizes(), 16);
        assert!((even.balance_penalty() - 1.0).abs() < 1e-12);
        let ragged = Decomposition::new(layout("lxyes"), sizes(), 17);
        assert!(ragged.balance_penalty() > 1.0);
    }
}
