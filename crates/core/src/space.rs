//! Search spaces and configurations.
//!
//! A [`SearchSpace`] is an ordered set of [`Param`] declarations plus optional
//! [`Constraint`]s between dependent parameters (paper §II footnote 2, using
//! the dependent-variable techniques of the authors' SC'04 work).
//! A [`Configuration`] is one valid point of the space — the thing handed to
//! the application — and shares its parameter names with every other point
//! of that space.

use crate::constraint::Constraint;
use crate::error::{HarmonyError, Result};
use crate::key::INLINE;
use crate::param::Param;
use crate::space_compile::CompiledSpace;
use crate::value::ParamValue;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, OnceLock};

pub use crate::key::CacheKey;

/// Valid points [`SearchSpace::snap_feasible`] lets the compiled space hold
/// before it stops looking for the nearest one (ample for the constrained
/// spaces the repro suite compiles; a larger space is repaired instead).
const SNAP_SCAN_CAP: u64 = 65_536;

/// One valid point of a [`SearchSpace`]: a named, typed value per parameter.
///
/// **Shared name table.** The names are held by reference. A space builds
/// one `Arc<[String]>` in `build()`, and every configuration it produces
/// ([`SearchSpace::project`], [`SearchSpace::configuration`],
/// [`SearchSpace::center`], the compiled space's points) points at it: a
/// point costs its value vector and a reference-count bump, never a copy
/// of the names. A configuration made from parts ([`Configuration::new`])
/// or decoded from JSON owns a table of its own until a holder that knows
/// the space — the session, the store's log replay — swaps it for the
/// shared one.
///
/// **Equality** is by content, names and values. `Arc`'s `==` compares the
/// pointers first (`String: Eq`), which settles the names for any two
/// points of one space without reading them.
///
/// **Wire and log form** does not know about the sharing: an `Arc<[String]>`
/// serializes as the sequence it points at, so the derive writes the JSON
/// object `{"names":[…],"values":[…]}`, names spelled out in every record.
/// A decoded configuration reads them back into the table its thread
/// decoded last when they spell it, so the trials of one `Configs` frame
/// (and of the next) share one table, and into a table of its own
/// otherwise.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Configuration {
    names: Arc<[String]>,
    values: Vec<ParamValue>,
}

thread_local! {
    /// The name table this thread decoded last (see [`read_names`]).
    static DECODED_NAMES: RefCell<Arc<[String]>> = RefCell::new(Arc::new([]));
}

/// A configuration's `names`, read as the derive reads an `Arc<[String]>`
/// (the same calls, so the same errors), each name compared borrowed
/// against the thread's last decoded table and copied only from the first
/// that differs.
fn read_names(
    reader: &mut serde::de::Reader<'_>,
) -> std::result::Result<Arc<[String]>, serde::Error> {
    DECODED_NAMES.with(|last| {
        let mut last = last.borrow_mut();
        reader.begin_array()?;
        // The names so far equal `last`'s first `same`, until `own` starts.
        let mut same = 0;
        let mut own: Option<Vec<String>> = None;
        while reader.next_element()? {
            let name = reader.string()?;
            match &mut own {
                None if last.get(same).is_some_and(|n| *n == *name) => same += 1,
                None => own = Some([&last[..same], &[name.into_owned()]].concat()),
                Some(own) => own.push(name.into_owned()),
            }
        }
        if own.is_none() && same == last.len() {
            return Ok(Arc::clone(&last));
        }
        let table: Arc<[String]> = own.unwrap_or_else(|| last[..same].to_vec()).into();
        *last = Arc::clone(&table);
        Ok(table)
    })
}

/// The derive's reading of the object, with `read_names` for the names.
impl Deserialize for Configuration {
    fn deserialize(reader: &mut serde::de::Reader<'_>) -> std::result::Result<Self, serde::Error> {
        let (mut names, mut values) = (None, None);
        reader.begin_object("Configuration object")?;
        while let Some(key) = reader.next_key()? {
            match &*key {
                "names" if names.is_none() => names = Some(read_names(reader)?),
                "values" if values.is_none() => values = Some(Vec::deserialize(reader)?),
                _ => reader.skip_value()?,
            }
        }
        let missing = |field| serde::de::missing_field("Configuration", field);
        Ok(Configuration {
            names: names.ok_or_else(|| missing("names"))?,
            values: values.ok_or_else(|| missing("values"))?,
        })
    }
}

impl Configuration {
    /// Build a configuration from parallel name/value vectors.
    pub fn new(names: Vec<String>, values: Vec<ParamValue>) -> Self {
        Configuration::with_table(names.into(), values)
    }

    /// A configuration over an existing name table.
    pub(crate) fn with_table(names: Arc<[String]>, values: Vec<ParamValue>) -> Self {
        debug_assert_eq!(names.len(), values.len());
        Configuration { names, values }
    }

    /// Point this configuration at `table` if it spells the same names, so
    /// that decoded configurations of one space share one table.
    pub(crate) fn adopt_names(&mut self, table: &Arc<[String]>) {
        if !Arc::ptr_eq(&self.names, table) && self.names == *table {
            self.names = Arc::clone(table);
        }
    }

    /// The name table, for adoption by the next decoded record.
    pub(crate) fn names_table(&self) -> &Arc<[String]> {
        &self.names
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the configuration has no parameters.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value of parameter `name`, if present.
    pub fn get(&self, name: &str) -> Option<&ParamValue> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| &self.values[i])
    }

    /// Integer value of parameter `name` (None if absent or not an int).
    pub fn int(&self, name: &str) -> Option<i64> {
        self.get(name).and_then(ParamValue::as_int)
    }

    /// Real value of parameter `name`.
    pub fn real(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(ParamValue::as_real)
    }

    /// Enum label of parameter `name`.
    pub fn choice(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(ParamValue::as_enum)
    }

    /// Values in declaration order.
    pub fn values(&self) -> &[ParamValue] {
        &self.values
    }

    /// Names in declaration order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Iterate `(name, value)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ParamValue)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.values.iter())
    }

    /// A canonical hashable key identifying this lattice point, used for the
    /// evaluation cache (repeat visits of a projected point are free — no
    /// application re-run is needed): one integer per value,
    /// [`ParamValue::cache_key`], in declaration order.
    ///
    /// The key holds up to ten values in place, so taking the key of a
    /// point of any space the benchmark tunes makes no allocator call; a
    /// configuration of more parameters spills its key to one heap block.
    /// It derefs to `[i64]` and compares, hashes and serializes as the
    /// `Vec<i64>` of its values ([`CacheKey`]).
    pub fn cache_key(&self) -> CacheKey {
        self.values.iter().map(ParamValue::cache_key).collect()
    }

    /// Replace the value of `name`. Errors if the parameter is absent.
    pub fn set(&mut self, name: &str, value: ParamValue) -> Result<()> {
        match self.names.iter().position(|n| n == name) {
            Some(i) => {
                self.values[i] = value;
                Ok(())
            }
            None => Err(HarmonyError::UnknownParam(name.to_string())),
        }
    }

    /// Replace the value of the `index`-th parameter.
    pub(crate) fn set_at(&mut self, index: usize, value: ParamValue) {
        self.values[index] = value;
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (n, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}={v}")?;
        }
        write!(f, "}}")
    }
}

/// An ordered collection of tunable parameters plus dependent-variable
/// constraints; the domain the tuning algorithms search over.
#[derive(Clone)]
pub struct SearchSpace {
    params: Vec<Param>,
    constraints: Vec<Arc<dyn Constraint>>,
    /// Parameter names in declaration order: the table every
    /// [`Configuration`] of this space (and of its clones) shares.
    names: Arc<[String]>,
    /// The compiled form, see [`compiled`](Self::compiled): built on first
    /// use, once for this space and all its clones; `None` inside when the
    /// space does not compile. Boxed, so that a space nobody compiles (a
    /// server holds thousands) pays for a pointer, not for the form.
    compiled: Arc<OnceLock<Option<Box<CompiledSpace>>>>,
}

impl fmt::Debug for SearchSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SearchSpace")
            .field("params", &self.params)
            .field("constraints", &self.constraints.len())
            .finish()
    }
}

impl SearchSpace {
    /// Start building a space.
    pub fn builder() -> SearchSpaceBuilder {
        SearchSpaceBuilder::default()
    }

    /// Construct a space from pre-built parameters.
    pub fn new(params: Vec<Param>) -> Result<Self> {
        SearchSpaceBuilder {
            params,
            constraints: Vec::new(),
        }
        .build()
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.params.len()
    }

    /// Parameter declarations in order.
    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// The attached constraints.
    pub fn constraints(&self) -> &[Arc<dyn Constraint>] {
        &self.constraints
    }

    /// The shared name table (see [`Configuration`]).
    pub(crate) fn names_table(&self) -> &Arc<[String]> {
        &self.names
    }

    /// Index of a parameter by name.
    pub(crate) fn index_of(&self, name: &str) -> Option<usize> {
        self.params.iter().position(|p| p.name() == name)
    }

    /// Total number of lattice points, or `None` if any dimension is
    /// continuous. Saturates at `u64::MAX`.
    pub fn cardinality(&self) -> Option<u64> {
        let mut total: u64 = 1;
        for p in &self.params {
            total = total.saturating_mul(p.cardinality()?);
        }
        Some(total)
    }

    /// log10 of the cardinality (used to report search-space sizes like the
    /// paper's "O(10^100) points" without overflowing).
    pub fn log10_cardinality(&self) -> Option<f64> {
        let mut total = 0.0;
        for p in &self.params {
            total += (p.cardinality()? as f64).log10();
        }
        Some(total)
    }

    /// Project an arbitrary real point onto the nearest valid configuration:
    /// first repair dependent-variable constraints in the continuous
    /// embedding, then snap every coordinate to its lattice.
    pub fn project(&self, coords: &[f64]) -> Configuration {
        debug_assert_eq!(coords.len(), self.dims());
        if self.constraints.is_empty() {
            // Repair is then only the box clamp, and `Param::project`
            // clamps into the same box itself.
            return self.lattice_point(coords);
        }
        let mut repaired = coords.to_vec();
        self.repair(&mut repaired);
        self.lattice_point(&repaired)
    }

    /// The [cache key](Configuration::cache_key) of
    /// [`project(coords)`](Self::project), without the configuration: each
    /// dimension's `Param::project_key` on an unconstrained space, and
    /// those of a repaired copy of `coords` on a constrained one. Up to the
    /// key's inline capacity neither the copy nor the key takes a heap
    /// block (a constraint's own repair may).
    ///
    /// What a strategy compares two candidates by — "do these land on one
    /// lattice point?" — without building either point.
    pub fn key_of(&self, coords: &[f64]) -> CacheKey {
        debug_assert_eq!(coords.len(), self.dims());
        if self.constraints.is_empty() {
            return self.lattice_key(coords);
        }
        if coords.len() > INLINE {
            let mut repaired = coords.to_vec();
            self.repair(&mut repaired);
            return self.lattice_key(&repaired);
        }
        let mut buf = [0.0; INLINE];
        let repaired = &mut buf[..coords.len()];
        repaired.copy_from_slice(coords);
        self.repair(repaired);
        self.lattice_key(repaired)
    }

    /// The key of [`lattice_point(coords)`](Self::lattice_point).
    fn lattice_key(&self, coords: &[f64]) -> CacheKey {
        self.params
            .iter()
            .zip(coords)
            .map(|(p, &c)| p.project_key(c))
            .collect()
    }

    /// The configuration at the lattice point nearest `coords`, dimension
    /// by dimension; constraints are not consulted.
    fn lattice_point(&self, coords: &[f64]) -> Configuration {
        let values = self
            .params
            .iter()
            .zip(coords)
            .map(|(p, &c)| p.project(c))
            .collect();
        Configuration::with_table(Arc::clone(&self.names), values)
    }

    /// Snap every coordinate to its dimension's lattice *without* repairing
    /// constraints first: the configuration at that point, or `None` when
    /// it violates a constraint (never `None` on an unconstrained space).
    ///
    /// This is the snap for candidates that must stay what they are —
    /// random samples, grid points, offspring — where [`project`]'s repair
    /// would fold many distinct infeasible candidates onto one boundary
    /// configuration and spend evaluations on duplicates.
    ///
    /// [`project`]: Self::project
    pub fn snap(&self, coords: &[f64]) -> Option<Configuration> {
        debug_assert_eq!(coords.len(), self.dims());
        let cfg = self.lattice_point(coords);
        self.is_valid(&cfg).then_some(cfg)
    }

    /// Move a candidate that travels through continuous space — a simplex
    /// vertex, a greedy probe — onto the feasible region, in embedded
    /// coordinates.
    ///
    /// An unconstrained space only clamps `p` into the box and leaves it
    /// continuous: the simplex keeps its geometry and the session snaps
    /// what it measures. On a constrained space the answer is a lattice
    /// point: `p`'s own ([`snap`](Self::snap)) if that is valid, else the
    /// nearest valid one the [compiled](Self::compiled) space finds
    /// ([`CompiledSpace::snap_feasible`]), else — the space does not
    /// compile, is empty, or holds more than 65 536 valid points — `p`
    /// [repaired](Self::repair), as [`project`](Self::project) would.
    pub fn snap_feasible(&self, mut p: Vec<f64>) -> Vec<f64> {
        if !self.constraints.is_empty() {
            if let Some(own) = self.snap(&p).and_then(|cfg| self.embed(&cfg).ok()) {
                return own;
            }
            let nearest = self
                .compiled()
                .and_then(|cs| cs.snap_feasible(&p, SNAP_SCAN_CAP));
            if let Some(nearest) = nearest {
                return nearest;
            }
        }
        self.repair(&mut p);
        p
    }

    /// This space compiled for enumeration, counting and nearest-feasible
    /// lookups ([`CompiledSpace`]), or `None` when it has a continuous
    /// dimension and so no lattice to compile.
    ///
    /// Compiled on first use and then held by the space: every clone made
    /// before or after, and every strategy handed one, sees the same
    /// object, and a refusal is remembered like a success.
    pub fn compiled(&self) -> Option<&CompiledSpace> {
        self.compiled
            .get_or_init(|| CompiledSpace::compile(self).ok().map(Box::new))
            .as_deref()
    }

    /// A copy of this space that will compile for itself. The compiled
    /// form keeps one (an opaque constraint is checked against its space);
    /// were that copy to share this space's cell, the cell would own a
    /// reference to itself and no clone's drop would ever free it.
    pub(crate) fn detached(&self) -> SearchSpace {
        SearchSpace {
            compiled: Arc::default(),
            ..self.clone()
        }
    }

    /// `centre` with every coordinate moved by a uniform draw from
    /// `[-a, a]`, `a = amplitude(width of that dimension)`, and clamped
    /// back into the box: one draw per dimension, in declaration order.
    pub(crate) fn jitter<R: Rng + ?Sized>(
        &self,
        centre: &[f64],
        amplitude: impl Fn(f64) -> f64,
        rng: &mut R,
    ) -> Vec<f64> {
        self.params
            .iter()
            .zip(centre)
            .map(|(p, &c)| {
                let (lo, hi) = (p.embed_min(), p.embed_max());
                let amp = amplitude(hi - lo);
                (c + rng.gen_range(-amp..=amp)).clamp(lo, hi)
            })
            .collect()
    }

    /// Apply every constraint's repair step to a continuous point, in order.
    pub fn repair(&self, coords: &mut [f64]) {
        for c in &self.constraints {
            c.repair(self, coords);
        }
        // Keep coordinates inside the box after constraint repair.
        for (p, c) in self.params.iter().zip(coords.iter_mut()) {
            *c = c.clamp(p.embed_min(), p.embed_max());
        }
    }

    /// True if a configuration satisfies all constraints (box bounds are
    /// guaranteed by construction).
    pub fn is_valid(&self, cfg: &Configuration) -> bool {
        self.constraints.iter().all(|c| c.is_satisfied(self, cfg))
    }

    /// Embed a configuration back into continuous coordinates.
    pub fn embed(&self, cfg: &Configuration) -> Result<Vec<f64>> {
        if cfg.len() != self.dims() {
            return Err(HarmonyError::Protocol(format!(
                "configuration has {} values, space has {} dims",
                cfg.len(),
                self.dims()
            )));
        }
        self.params
            .iter()
            .zip(cfg.values())
            .map(|(p, v)| p.embed(v))
            .collect()
    }

    /// A uniformly random continuous point inside the box (pre-repair).
    pub(crate) fn sample_coords<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        self.params
            .iter()
            .map(|p| {
                let (lo, hi) = (p.embed_min(), p.embed_max());
                if lo == hi {
                    lo
                } else {
                    rng.gen_range(lo..=hi)
                }
            })
            .collect()
    }

    /// A random valid configuration.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Configuration {
        let coords = self.sample_coords(rng);
        self.project(&coords)
    }

    /// The centre of the box, projected (a reasonable default start).
    pub fn center(&self) -> Configuration {
        let coords: Vec<f64> = self
            .params
            .iter()
            .map(|p| 0.5 * (p.embed_min() + p.embed_max()))
            .collect();
        self.project(&coords)
    }

    /// Build the configuration given by explicit values, validating types.
    pub fn configuration(&self, values: Vec<ParamValue>) -> Result<Configuration> {
        if values.len() != self.dims() {
            return Err(HarmonyError::Protocol(format!(
                "expected {} values, got {}",
                self.dims(),
                values.len()
            )));
        }
        for (p, v) in self.params.iter().zip(values.iter()) {
            p.embed(v)?; // type/domain check
        }
        Ok(Configuration::with_table(Arc::clone(&self.names), values))
    }

    /// Build a configuration from `(name, string)` pairs, e.g. parsed from a
    /// namelist-style file; missing parameters default to the space centre.
    ///
    /// The result is checked against the space's constraints: a point that
    /// parses cleanly but lies outside the feasible region is an error, not
    /// a silently-invalid configuration.
    pub fn configuration_from_strs<'a, I>(&self, pairs: I) -> Result<Configuration>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let mut cfg = self.center();
        for (name, raw) in pairs {
            let idx = self
                .index_of(name)
                .ok_or_else(|| HarmonyError::UnknownParam(name.to_string()))?;
            let value = self.params[idx].value_from_str(raw)?;
            cfg.values[idx] = value;
        }
        if !self.is_valid(&cfg) {
            return Err(HarmonyError::ConstraintViolated(format!(
                "configuration {cfg} fails the space's constraints"
            )));
        }
        Ok(cfg)
    }
}

/// Incremental builder for [`SearchSpace`].
#[derive(Clone, Default)]
pub struct SearchSpaceBuilder {
    params: Vec<Param>,
    constraints: Vec<Arc<dyn Constraint>>,
}

impl SearchSpaceBuilder {
    /// Add an integer parameter.
    pub fn int(mut self, name: impl Into<String>, min: i64, max: i64, step: i64) -> Self {
        self.params.push(Param::int(name, min, max, step));
        self
    }

    /// Add a real parameter.
    pub fn real(mut self, name: impl Into<String>, min: f64, max: f64) -> Self {
        self.params.push(Param::real(name, min, max));
        self
    }

    /// Add a categorical parameter.
    pub fn enumeration<I, S>(mut self, name: impl Into<String>, choices: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.params.push(Param::enumeration(name, choices));
        self
    }

    /// Add a pre-built parameter.
    pub fn param(mut self, p: Param) -> Self {
        self.params.push(p);
        self
    }

    /// Attach a dependent-variable constraint.
    pub fn constraint(self, c: impl Constraint + 'static) -> Self {
        self.shared_constraint(Arc::new(c))
    }

    /// Attach a constraint another space already holds (see
    /// [`SearchSpace::constraints`]), as it is: a space derived from
    /// another keeps its constraints' specs, and so its fingerprint and
    /// its compiled propagation.
    pub(crate) fn shared_constraint(mut self, c: Arc<dyn Constraint>) -> Self {
        self.constraints.push(c);
        self
    }

    /// Finalise, validating every parameter and name uniqueness.
    pub fn build(self) -> Result<SearchSpace> {
        if self.params.is_empty() {
            return Err(HarmonyError::EmptySpace);
        }
        for (i, p) in self.params.iter().enumerate() {
            p.validate()?;
            if self.params[..i].iter().any(|q| q.name() == p.name()) {
                return Err(HarmonyError::DuplicateParam(p.name().to_string()));
            }
        }
        let space = SearchSpace {
            names: self.params.iter().map(|p| p.name().to_string()).collect(),
            params: self.params,
            constraints: self.constraints,
            compiled: Arc::default(),
        };
        for c in &space.constraints {
            c.check_space(&space)?;
        }
        Ok(space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::MonotoneChain;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn space2d() -> SearchSpace {
        SearchSpace::builder()
            .int("x", 0, 10, 1)
            .enumeration("mode", ["a", "b", "c"])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_duplicates_and_empty() {
        assert_eq!(
            SearchSpace::builder().build().unwrap_err(),
            HarmonyError::EmptySpace
        );
        let err = SearchSpace::builder()
            .int("x", 0, 1, 1)
            .int("x", 0, 2, 1)
            .build()
            .unwrap_err();
        assert_eq!(err, HarmonyError::DuplicateParam("x".into()));
    }

    #[test]
    fn projection_produces_valid_configuration() {
        let s = space2d();
        let cfg = s.project(&[3.7, 1.2]);
        assert_eq!(cfg.int("x"), Some(4));
        assert_eq!(cfg.choice("mode"), Some("b"));
    }

    #[test]
    fn cardinality_multiplies_dimensions() {
        assert_eq!(space2d().cardinality(), Some(33));
        let log = space2d().log10_cardinality().unwrap();
        assert!((log - 33f64.log10()).abs() < 1e-12);
    }

    #[test]
    fn sample_stays_in_domain() {
        let s = space2d();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let cfg = s.sample(&mut rng);
            let x = cfg.int("x").unwrap();
            assert!((0..=10).contains(&x));
            assert!(cfg.get("mode").unwrap().as_enum_index().unwrap() < 3);
        }
    }

    #[test]
    fn embed_project_roundtrip() {
        let s = space2d();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let cfg = s.sample(&mut rng);
            let coords = s.embed(&cfg).unwrap();
            assert_eq!(s.project(&coords), cfg);
        }
    }

    #[test]
    fn monotone_chain_constraint_is_repaired() {
        let s = SearchSpace::builder()
            .int("b1", 0, 100, 1)
            .int("b2", 0, 100, 1)
            .int("b3", 0, 100, 1)
            .constraint(MonotoneChain::new(["b1", "b2", "b3"]))
            .build()
            .unwrap();
        let cfg = s.project(&[80.0, 20.0, 50.0]);
        let (b1, b2, b3) = (
            cfg.int("b1").unwrap(),
            cfg.int("b2").unwrap(),
            cfg.int("b3").unwrap(),
        );
        assert!(b1 <= b2 && b2 <= b3, "{b1} {b2} {b3}");
        assert!(s.is_valid(&cfg));
    }

    #[test]
    fn configuration_from_strs_overrides_named() {
        let s = space2d();
        let cfg = s
            .configuration_from_strs([("mode", "c"), ("x", "9")])
            .unwrap();
        assert_eq!(cfg.int("x"), Some(9));
        assert_eq!(cfg.choice("mode"), Some("c"));
        assert!(s.configuration_from_strs([("bogus", "1")]).is_err());
    }

    #[test]
    fn configuration_from_strs_rejects_constraint_violations() {
        let s = SearchSpace::builder()
            .int("b1", 0, 100, 1)
            .int("b2", 0, 100, 1)
            .constraint(MonotoneChain::new(["b1", "b2"]))
            .build()
            .unwrap();
        let ok = s
            .configuration_from_strs([("b1", "10"), ("b2", "20")])
            .unwrap();
        assert!(s.is_valid(&ok));
        let err = s
            .configuration_from_strs([("b1", "90"), ("b2", "20")])
            .unwrap_err();
        assert!(
            matches!(err, HarmonyError::ConstraintViolated(_)),
            "{err:?}"
        );
    }

    #[test]
    fn configuration_set_and_display() {
        let s = space2d();
        let mut cfg = s.center();
        cfg.set("x", ParamValue::Int(2)).unwrap();
        assert!(cfg.set("nope", ParamValue::Int(1)).is_err());
        let shown = cfg.to_string();
        assert!(shown.contains("x=2"));
    }

    /// What `Configuration` was before its names became a shared table;
    /// the derive on it is the wire format's definition.
    #[derive(Serialize, Deserialize)]
    struct ConfigurationV0 {
        names: Vec<String>,
        values: Vec<ParamValue>,
    }

    #[test]
    fn json_is_byte_identical_to_the_derive_on_owned_names() {
        let space = SearchSpace::builder()
            .int("tile", -8, 128, 4)
            .real("tol", 1e-12, 1.0)
            .enumeration("layout", ["row \"major\"", "col\nmajor"])
            .build()
            .unwrap();
        let configs = [
            space.project(&[-8.0, 0.5, 0.0]),
            space.project(&[77.0, 1e-12, 1.0]),
            Configuration::new(
                vec!["a".into(), "b".into()],
                vec![ParamValue::Real(f64::NAN), ParamValue::Real(-0.0)],
            ),
            Configuration::new(Vec::new(), Vec::new()),
        ];
        for cfg in &configs {
            let v0 = ConfigurationV0 {
                names: cfg.names().to_vec(),
                values: cfg.values().to_vec(),
            };
            let json = serde_json::to_string(cfg).unwrap();
            assert_eq!(json, serde_json::to_string(&v0).unwrap());
            // Each side reads what the other wrote (or, for the NaN that
            // JSON writes as `null`, refuses it in the same words).
            match (
                serde_json::from_str::<Configuration>(&json),
                serde_json::from_str::<ConfigurationV0>(&json),
            ) {
                (Ok(back), Ok(v0)) => {
                    assert_eq!(&back, cfg);
                    assert_eq!(
                        (back.names(), back.values()),
                        (&v0.names[..], &v0.values[..])
                    );
                }
                (Err(ours), Err(theirs)) => assert_eq!(ours.to_string(), theirs.to_string()),
                _ => panic!("one side read {json}, the other did not"),
            }
        }
        // Malformed input is refused in the derive's words.
        for bad in ["[]", "{\"names\":[\"a\"]}", "{\"names\":3,\"values\":[]}"] {
            let ours = serde_json::from_str::<Configuration>(bad).unwrap_err();
            let theirs = serde_json::from_str::<ConfigurationV0>(bad)
                .map(|_| ())
                .unwrap_err();
            assert_eq!(
                ours.to_string().replace("ConfigurationV0", "Configuration"),
                theirs
                    .to_string()
                    .replace("ConfigurationV0", "Configuration")
            );
        }
    }

    #[test]
    fn points_of_one_space_share_its_name_table() {
        let s = space2d();
        let table = s.names_table();
        let mut rng = StdRng::seed_from_u64(3);
        let from_clone = s.clone().sample(&mut rng);
        for cfg in [s.center(), s.project(&[1.0, 2.0]), from_clone] {
            assert!(Arc::ptr_eq(cfg.names_table(), table));
        }
        // A decoded configuration owns its table until it adopts the
        // space's; one over other names never does.
        let json = serde_json::to_string(&s.center()).unwrap();
        let mut decoded: Configuration = serde_json::from_str(&json).unwrap();
        assert_eq!(decoded, s.center());
        assert!(!Arc::ptr_eq(decoded.names_table(), table));
        decoded.adopt_names(table);
        assert!(Arc::ptr_eq(decoded.names_table(), table));
        let mut other =
            Configuration::new(vec!["x".into(), "nope".into()], decoded.values().to_vec());
        other.adopt_names(table);
        assert!(!Arc::ptr_eq(other.names_table(), table));
        assert_ne!(other, decoded);
    }

    #[test]
    fn decoded_configurations_share_a_table_while_the_names_repeat() {
        let decode = |names: &[&str]| {
            let values = vec![ParamValue::Int(1); names.len()];
            let names = names.iter().map(|n| n.to_string()).collect();
            let json = serde_json::to_string(&Configuration::new(names, values)).unwrap();
            serde_json::from_str::<Configuration>(&json).unwrap()
        };
        let first = decode(&["tile", "tol", "lay\"out"]);
        let again = decode(&["tile", "tol", "lay\"out"]);
        assert!(Arc::ptr_eq(first.names_table(), again.names_table()));
        // A prefix, a longer list, other names and no names each read what
        // they spell, into a table of their own.
        for names in [
            &["tile", "tol"][..],
            &["tile", "tol", "lay\"out", "x"],
            &["tile", "tol", "other"],
            &[],
            &["tile", "tol", "lay\"out"],
        ] {
            let cfg = decode(names);
            assert_eq!(cfg.names(), names);
            assert!(!Arc::ptr_eq(cfg.names_table(), first.names_table()));
        }
        // A names array refused half way leaves the next decode right.
        let bad = r#"{"names":["tile",3],"values":[]}"#;
        assert!(serde_json::from_str::<Configuration>(bad).is_err());
        assert_eq!(decode(&["tile", "x"]).names(), ["tile", "x"]);
    }

    /// A configuration's values bit for bit: the cache key holds a real's
    /// IEEE-754 pattern, the debug form the variants and enum labels.
    fn exactly(cfg: &Configuration) -> (CacheKey, String) {
        (cfg.cache_key(), format!("{:?}", cfg.values()))
    }

    /// A coordinate for `p` from the cases a clamp or a rounding could
    /// treat differently: NaN, ±∞, −0.0, outside the box, an enum's
    /// half-points (−0.5 and len − 0.5), a lattice midpoint, anywhere in.
    fn awkward_coord(p: &Param, rng: &mut StdRng) -> f64 {
        let (lo, hi) = (p.embed_min(), p.embed_max());
        let step = match p {
            Param::Int { step, .. } => *step as f64,
            _ => 1.0,
        };
        match rng.gen_range(0..10) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => lo - rng.gen_range(0.0..10.0),
            5 => hi + rng.gen_range(0.0..10.0),
            6 => -0.5,
            7 => hi + 0.5,
            8 => lo + step * (rng.gen_range(0..4) as f64 + 0.5),
            _ => rng.gen_range(lo..=hi),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Without constraints `project` skips the repair; what it returns
        /// is still bit for bit the repaired point's lattice point, on
        /// ints with negative minima, steps above one and a maximum off
        /// the lattice, on reals and on enums.
        #[test]
        fn unconstrained_project_equals_repair_then_lattice(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let dims = rng.gen_range(1..=5);
            let s = random_space(&mut rng, dims, false);
            for _ in 0..16 {
                let coords: Vec<f64> = s.params().iter().map(|p| awkward_coord(p, &mut rng)).collect();
                let mut repaired = coords.clone();
                s.repair(&mut repaired);
                let want = s.lattice_point(&repaired);
                let got = s.project(&coords);
                proptest::prop_assert!(
                    exactly(&got) == exactly(&want),
                    "{:?}: {} vs {}", coords, got, want
                );
                proptest::prop_assert!(Arc::ptr_eq(got.names_table(), s.names_table()));
            }
        }
    }

    /// A random space of `dims` dimensions over ints (negative minima,
    /// steps above one), reals and enums, and, when `constrained`, a chain
    /// and a sum bound over some of its numeric dimensions.
    fn random_space(rng: &mut StdRng, dims: usize, constrained: bool) -> SearchSpace {
        let mut b = SearchSpace::builder();
        let mut numeric = Vec::new();
        for d in 0..dims {
            let name = format!("p{d}");
            b = match rng.gen_range(0..3) {
                0 => {
                    numeric.push(name.clone());
                    let min = rng.gen_range(-7..4i64);
                    b.int(
                        name,
                        min,
                        min + rng.gen_range(0..20i64),
                        rng.gen_range(1..4),
                    )
                }
                1 => {
                    numeric.push(name.clone());
                    let min = rng.gen_range(-3.0..1.0);
                    b.real(name, min, min + rng.gen_range(0.0..5.0))
                }
                _ => b.enumeration(name, ["a", "b", "c", "d"][..rng.gen_range(1..=4)].to_vec()),
            };
        }
        if constrained && numeric.len() >= 2 {
            let cut = rng.gen_range(2..=numeric.len());
            b = b.constraint(MonotoneChain::new(numeric[..cut].to_vec()));
            b = b.constraint(crate::constraint::SumBound::new(
                numeric[cut - 2..].to_vec(),
                -4.0,
                rng.gen_range(0.0..30.0),
            ));
        }
        b.build().unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `key_of` is the projected configuration's key, bit for bit, on
        /// unconstrained and constrained spaces, narrower and wider than
        /// the key's inline capacity, for the coordinates a clamp or a
        /// rounding could treat differently.
        #[test]
        fn key_of_is_the_projected_configurations_key(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (dims, constrained) = (rng.gen_range(1..=INLINE + 3), rng.gen_bool(0.5));
            let s = random_space(&mut rng, dims, constrained);
            for _ in 0..16 {
                let coords: Vec<f64> = s.params().iter().map(|p| awkward_coord(p, &mut rng)).collect();
                let want = s.project(&coords).cache_key();
                let got = s.key_of(&coords);
                proptest::prop_assert!(got == want, "{:?}: {:?} vs {:?}", coords, got, want);
            }
        }
    }

    /// `cache_key()` and an unconstrained `key_of()` take no allocator
    /// call up to the key's inline capacity, and one heap block each past
    /// it.
    #[test]
    fn a_key_within_the_inline_capacity_takes_no_allocator_call() {
        let mut rng = StdRng::seed_from_u64(5);
        for (dims, calls) in [(INLINE, 0), (INLINE + 1, 2)] {
            let s = random_space(&mut rng, dims, false);
            let coords: Vec<f64> = s
                .params()
                .iter()
                .map(|p| awkward_coord(p, &mut rng))
                .collect();
            let cfg = s.project(&coords);
            let before = crate::counting::calls();
            let (key, projected) = (cfg.cache_key(), s.key_of(&coords));
            assert_eq!(crate::counting::calls() - before, calls, "{dims} dims");
            assert_eq!(key, projected);
        }
    }

    #[test]
    fn cache_key_distinguishes_configs() {
        let s = space2d();
        assert_ne!(
            s.project(&[1.0, 0.0]).cache_key(),
            s.project(&[1.0, 1.0]).cache_key()
        );
        assert_eq!(
            s.project(&[1.2, 0.1]).cache_key(),
            s.project(&[0.8, 0.4]).cache_key()
        );
    }
}
