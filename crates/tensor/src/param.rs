//! Trainable parameters and gradient accumulation.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

static NEXT_PARAM_ID: AtomicU64 = AtomicU64::new(1);

/// Globally unique identity of a trainable parameter.
///
/// Ids are process-global so gradients computed on independent tapes (e.g.
/// data-parallel batch members) unambiguously refer to the same parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ParamId(u64);

/// A parameter value's transpose, built on first use. One cell is shared by
/// every clone of the parameter and every tape leaf of it.
pub(crate) type Transpose = Arc<OnceLock<Matrix>>;

/// A named trainable matrix.
///
/// Deserialized parameters receive a *fresh* id — identity is per-process,
/// while names provide the stable cross-checkpoint key (see
/// [`ParamSet::load_state_from`]).
///
/// The value is shared storage: a clone of the parameter and every tape
/// leaf of it ([`crate::Tape::param`]) hold the same matrix, and
/// [`Param::data_mut`], the only way to change it, copies it first only
/// while another holder is alive. A training step drops its tapes before
/// the optimizer writes, so a step copies no parameter.
///
/// A parameter also owns its value's transpose ([`Param::transposed`]): the
/// right operand of every `x·Wᵀ` product, built once per value and never
/// serialized. [`Param::data_mut`] drops it, so a frozen weight builds it
/// once per process and a trained one once per optimizer step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    #[serde(skip, default = "fresh_id")]
    id: ParamId,
    name: String,
    data: Arc<Matrix>,
    #[serde(skip)]
    transposed: Transpose,
}

fn fresh_id() -> ParamId {
    ParamId(NEXT_PARAM_ID.fetch_add(1, Ordering::Relaxed))
}

impl Param {
    /// Creates a parameter with a fresh unique id.
    pub fn new(name: impl Into<String>, data: Matrix) -> Self {
        Param {
            id: fresh_id(),
            name: name.into(),
            data: Arc::new(data),
            transposed: Transpose::default(),
        }
    }

    /// Unique id.
    #[inline]
    pub fn id(&self) -> ParamId {
        self.id
    }

    /// Human-readable name (stable across save/load).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current value.
    #[inline]
    pub fn data(&self) -> &Matrix {
        &self.data
    }

    /// Mutable value (used by optimizers). Copies the value first if a
    /// clone or a live tape leaf shares it, and drops the transpose: the
    /// next [`Param::transposed`] builds it from the new value. Clones and
    /// leaves made before keep their value and its transpose.
    #[inline]
    pub fn data_mut(&mut self) -> &mut Matrix {
        self.transposed = Transpose::default();
        Arc::make_mut(&mut self.data)
    }

    /// The value transposed, `[cols, rows]`, built by the first call after
    /// the value last changed and shared with every clone and tape leaf of
    /// this value — the operand that lets `x·Wᵀ` run as a plain `x·(Wᵀ)` on
    /// the strip kernel. Concurrent first calls build it once.
    pub fn transposed(&self) -> &Matrix {
        self.transposed.get_or_init(|| self.data.transposed())
    }

    /// The shared value and its transpose cell, for a tape leaf.
    pub(crate) fn share(&self) -> (Arc<Matrix>, Transpose) {
        (Arc::clone(&self.data), Arc::clone(&self.transposed))
    }

    /// Number of scalar elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }
}

/// An ordered collection of parameters belonging to one module/model.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParamSet {
    params: Vec<Param>,
}

impl ParamSet {
    /// An empty set.
    pub fn new() -> Self {
        ParamSet::default()
    }

    /// Adds a parameter, returning a handle index within this set.
    pub fn push(&mut self, p: Param) -> usize {
        self.params.push(p);
        self.params.len() - 1
    }

    /// Creates and registers a parameter in one step.
    pub fn add(&mut self, name: impl Into<String>, data: Matrix) -> usize {
        self.push(Param::new(name, data))
    }

    /// Parameter at set index `i`.
    pub fn get(&self, i: usize) -> &Param {
        &self.params[i]
    }

    /// Mutable parameter at set index `i`.
    pub fn get_mut(&mut self, i: usize) -> &mut Param {
        &mut self.params[i]
    }

    /// Iterates parameters in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Param> {
        self.params.iter()
    }

    /// Mutable iteration in registration order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Param> {
        self.params.iter_mut()
    }

    /// Number of parameters (matrices, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when the set holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total scalar element count — the "extra parameters" number reported in
    /// the paper's experimental details.
    pub fn numel(&self) -> usize {
        self.params.iter().map(Param::numel).sum()
    }

    /// Finds a parameter by name.
    pub fn by_name(&self, name: &str) -> Option<&Param> {
        self.params.iter().find(|p| p.name == name)
    }

    /// Copies values from `other` into this set, matching parameters by name
    /// and requiring identical shapes. Returns the number of matched
    /// parameters. Used for checkpoint restore, where ids differ.
    pub fn load_state_from(&mut self, other: &ParamSet) -> Result<usize, String> {
        let mut matched = 0;
        for p in &mut self.params {
            if let Some(src) = other.params.iter().find(|o| o.name == p.name) {
                if src.data.shape() != p.data.shape() {
                    return Err(format!(
                        "param '{}': shape {:?} != checkpoint {:?}",
                        p.name,
                        p.data.shape(),
                        src.data.shape()
                    ));
                }
                // Shares the checkpoint's value and its transpose cell.
                p.data = Arc::clone(&src.data);
                p.transposed = Arc::clone(&src.transposed);
                matched += 1;
            }
        }
        Ok(matched)
    }
}

/// The parameters a training step updates. A tape built with
/// [`Tape::with_trainable`](crate::Tape::with_trainable) differentiates
/// towards these leaves only. Clones share one set, so handing a copy to
/// every per-sample tape costs no allocation.
#[derive(Debug, Clone, Default)]
pub struct TrainableSet(Arc<HashSet<ParamId>>);

impl TrainableSet {
    /// True when `id` is in the set.
    #[inline]
    pub fn contains(&self, id: ParamId) -> bool {
        self.0.contains(&id)
    }

    /// Number of parameters in the set.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the set holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl FromIterator<ParamId> for TrainableSet {
    fn from_iter<I: IntoIterator<Item = ParamId>>(ids: I) -> Self {
        TrainableSet(Arc::new(ids.into_iter().collect()))
    }
}

/// Accumulated gradients keyed by [`ParamId`]; mergeable across tapes for
/// data-parallel batches.
#[derive(Debug, Default)]
pub struct Gradients {
    map: HashMap<ParamId, Matrix>,
}

impl Gradients {
    /// An empty gradient map.
    pub fn new() -> Self {
        Gradients::default()
    }

    /// Accumulates `g` into the slot for `id`.
    pub fn add(&mut self, id: ParamId, g: Matrix) {
        match self.map.get_mut(&id) {
            Some(acc) => acc.add_assign(&g),
            None => {
                self.map.insert(id, g);
            }
        }
    }

    /// Gradient for `id`, if any was accumulated.
    pub fn get(&self, id: ParamId) -> Option<&Matrix> {
        self.map.get(&id)
    }

    /// Merges all gradients from `other` into `self` (summing overlaps).
    pub fn merge(mut self, other: Gradients) -> Gradients {
        for (id, g) in other.map {
            self.add(id, g);
        }
        self
    }

    /// Scales every gradient by `alpha` (e.g. `1/batch`).
    pub fn scale(&mut self, alpha: f32) {
        for g in self.map.values_mut() {
            g.scale_assign(alpha);
        }
    }

    /// Global L2 norm over all gradients (for clipping).
    ///
    /// The per-parameter squared norms are summed in ascending *value* order,
    /// so the result is a pure function of the multiset of gradient matrices.
    /// Neither `HashMap` iteration order (seeded per instance) nor [`ParamId`]
    /// assignment order (which differs between a freshly built model and one
    /// deserialized from a checkpoint) can perturb the clip scale — a single
    /// reordered float addition here would make every weight bit downstream
    /// irreproducible across reruns of the same seed.
    pub fn global_norm(&self) -> f32 {
        let mut sq: Vec<f32> = self
            .map
            .values()
            .map(|g| {
                let n = g.l2_norm();
                n * n
            })
            .collect();
        sq.sort_unstable_by(f32::total_cmp);
        sq.iter().sum::<f32>().sqrt()
    }

    /// Number of parameters with gradients.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no gradients were accumulated.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates `(id, grad)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&ParamId, &Matrix)> {
        self.map.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_ids_are_unique() {
        let a = Param::new("a", Matrix::zeros(1, 1));
        let b = Param::new("a", Matrix::zeros(1, 1));
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn paramset_numel() {
        let mut s = ParamSet::new();
        s.add("w", Matrix::zeros(3, 4));
        s.add("b", Matrix::zeros(1, 4));
        assert_eq!(s.numel(), 16);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn gradients_merge_sums_overlaps() {
        let p = Param::new("w", Matrix::zeros(1, 2));
        let mut g1 = Gradients::new();
        g1.add(p.id(), Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let mut g2 = Gradients::new();
        g2.add(p.id(), Matrix::from_vec(1, 2, vec![10.0, 20.0]));
        let merged = g1.merge(g2);
        assert_eq!(merged.get(p.id()).unwrap().data(), &[11.0, 22.0]);
    }

    #[test]
    fn gradients_global_norm() {
        let p1 = Param::new("a", Matrix::zeros(1, 1));
        let p2 = Param::new("b", Matrix::zeros(1, 1));
        let mut g = Gradients::new();
        g.add(p1.id(), Matrix::scalar(3.0));
        g.add(p2.id(), Matrix::scalar(4.0));
        assert!((g.global_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn load_state_matches_by_name() {
        let mut dst = ParamSet::new();
        dst.add("w", Matrix::zeros(2, 2));
        dst.add("b", Matrix::zeros(1, 2));
        let mut src = ParamSet::new();
        src.add("w", Matrix::full(2, 2, 7.0));
        let n = dst.load_state_from(&src).unwrap();
        assert_eq!(n, 1);
        assert_eq!(dst.by_name("w").unwrap().data().get(1, 1), 7.0);
        assert_eq!(dst.by_name("b").unwrap().data().get(0, 0), 0.0);
    }

    #[test]
    fn load_state_rejects_shape_mismatch() {
        let mut dst = ParamSet::new();
        dst.add("w", Matrix::zeros(2, 2));
        let mut src = ParamSet::new();
        src.add("w", Matrix::zeros(3, 3));
        assert!(dst.load_state_from(&src).is_err());
    }

    #[test]
    fn global_norm_is_insertion_order_independent() {
        // Two maps with distinct hasher seeds and reversed insertion order
        // must produce the same bits — the norm is reduced in ParamId order.
        let params: Vec<Param> = (0..9)
            .map(|i| {
                Param::new(
                    "p",
                    Matrix::from_vec(1, 3, vec![0.1 * i as f32, -1.7, 3.3 + i as f32]),
                )
            })
            .collect();
        let mut fwd = Gradients::new();
        let mut rev = Gradients::new();
        for p in &params {
            fwd.add(p.id(), p.data().clone());
        }
        for p in params.iter().rev() {
            rev.add(p.id(), p.data().clone());
        }
        assert_eq!(fwd.global_norm().to_bits(), rev.global_norm().to_bits());
    }

    /// Whether `p`'s transpose has been built (without building it).
    fn built(p: &Param) -> bool {
        p.transposed.get().is_some()
    }

    #[test]
    fn the_transpose_follows_the_value() {
        let mut p = Param::new("w", Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]));
        assert!(!built(&p), "built on first use only");
        assert_eq!(p.transposed(), &p.data().transposed());
        assert!(built(&p));

        // A clone shares the built transpose, and a cell built through one
        // copy is built for both.
        let clone = p.clone();
        assert!(Arc::ptr_eq(&p.transposed, &clone.transposed));
        let fresh = Param::new("v", Matrix::zeros(1, 2));
        let fresh_clone = fresh.clone();
        fresh_clone.transposed();
        assert!(built(&fresh));

        // `data_mut` drops it: the next call builds the new value's, and a
        // clone made before keeps the transpose of its own value.
        p.data_mut().set(0, 1, 9.0);
        assert!(!built(&p));
        assert_eq!(p.transposed().get(1, 0), 9.0);
        assert_eq!(clone.transposed(), &clone.data().transposed());
        assert_eq!(clone.transposed().get(1, 0), 2.0);

        // So does a checkpoint restore.
        let mut set = ParamSet::new();
        set.push(p.clone());
        set.get(0).transposed();
        let mut src = ParamSet::new();
        src.add("w", Matrix::full(2, 3, 0.5));
        set.load_state_from(&src).unwrap();
        assert!(!built(set.get(0)));
        assert_eq!(set.get(0).transposed(), &Matrix::full(3, 2, 0.5));
    }

    #[test]
    fn a_saved_param_never_carries_its_transpose() {
        let p = Param::new("w", Matrix::from_vec(1, 2, vec![5.0, 6.0]));
        let before = serde_json::to_string(&p).unwrap();
        p.transposed();
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(json, before, "building the transpose changes no byte");
        assert!(!json.contains("transposed"), "{json}");
        let q: Param = serde_json::from_str(&json).unwrap();
        assert!(!built(&q), "a loaded param starts without one");
        assert_eq!(q.transposed(), &p.data().transposed());
    }

    #[test]
    fn serde_gives_fresh_ids() {
        let p = Param::new("w", Matrix::from_vec(1, 1, vec![5.0]));
        let json = serde_json::to_string(&p).unwrap();
        let q: Param = serde_json::from_str(&json).unwrap();
        assert_eq!(q.name(), "w");
        assert_eq!(q.data().scalar_value(), 5.0);
        assert_ne!(p.id(), q.id());
    }
}
