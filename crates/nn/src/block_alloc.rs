//! Paged KV storage: a pool of fixed-size, ref-counted K/V row blocks.
//!
//! [`BlockPool`] owns every KV block in an engine instance. A block spans
//! `block_rows` token positions across *all* layers at once (`k[layer]`
//! stored transposed, `[d_model, block_rows]` — one column per token, so a
//! score row folds over it with lanes across keys; `v[layer]`
//! `[block_rows, d_model]`), so one [`BlockId`] is the unit
//! of sharing, refcounting and budget accounting for a token range. Both
//! panels hold IEEE binary16 ([`HalfMatrix`]): a row is rounded once when it
//! is written, and attention widens a panel into f32 scratch per fold call.
//! Sequences reference blocks through per-sequence tables
//! ([`crate::KvCache`]); the radix prefix index ([`crate::PrefixIndex`])
//! pins full blocks for reuse by later requests with a matching token
//! prefix.
//!
//! Sharing rules, enforced here:
//!
//! - a block with more than one reference is immutable — [`BlockPool::block_mut`]
//!   panics unless `refs == 1`, so every writer must copy-on-write first
//!   ([`BlockPool::copy_block`]);
//! - freed blocks keep their storage on a freelist and are handed back by
//!   [`BlockPool::alloc`] without reallocating (a decode step never touches
//!   the system allocator once the pool is warm); [`BlockPool::compact`]
//!   returns freelist storage to the allocator.
//!
//! The pool is shared across a scheduler's caches through [`PoolHandle`]
//! (`Arc<Mutex<_>>`); the engine locks it once per forward pass, so the
//! mutex is uncontended in practice.

use std::sync::{Arc, Mutex, MutexGuard};

use infuserki_tensor::{half, HalfMatrix, Matrix};

/// Handle to one pooled KV block. Plain index; only meaningful together with
/// the pool that issued it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct BlockId(u32);

impl BlockId {
    /// Raw slot index (stable for the block's lifetime).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One block's storage: per layer a K panel held transposed
/// (`[d_model, block_rows]`, token `t`'s key in column `t`) and a V panel
/// (`[block_rows, d_model]`, token `t`'s value in row `t`), both binary16,
/// with only the first `filled` tokens valid (fill is tracked by the owning
/// sequence's token count, not here — every sequence sharing a block agrees
/// on its fill by construction).
///
/// `sums` row `l` holds layer `l`'s running column sums of the gate's pooled
/// input after the block's last filled row ([`crate::Exec::cum_mean_rows`]):
/// the one statistic a sequence carries across chunks, kept in f32 beside
/// the rows it summarizes so it forks, copies-on-write and is adopted with
/// them.
pub struct BlockData {
    k: Vec<HalfMatrix>,
    v: Vec<HalfMatrix>,
    sums: Matrix,
}

impl BlockData {
    /// Writes the key and value rows of tokens `t0..t0 + m` for `layer`,
    /// rounded to binary16 (`k_rows` and `v_rows` hold `m` rows of
    /// `d_model` each). Values narrow straight into their panel rows; keys
    /// narrow a row at a time into a stack buffer and scatter down their
    /// columns of the transposed K panel.
    pub fn write_rows(&mut self, layer: usize, t0: usize, k_rows: &[f32], v_rows: &[f32]) {
        let vp = &mut self.v[layer];
        let d = vp.cols();
        assert!(
            k_rows.len() == v_rows.len() && k_rows.len().is_multiple_of(d),
            "write_rows: row lengths"
        );
        let m = k_rows.len() / d;
        assert!(t0 + m <= vp.rows(), "write_rows: past the block");
        half::narrow(v_rows, &mut vp.data_mut()[t0 * d..(t0 + m) * d]);
        let kt = &mut self.k[layer];
        let stride = kt.cols();
        let mut buf = [0u16; 256];
        for (i, row) in k_rows.chunks_exact(d).enumerate() {
            for (c0, piece) in (0..d).step_by(buf.len()).zip(row.chunks(buf.len())) {
                let h = &mut buf[..piece.len()];
                half::narrow(piece, h);
                let column = kt.data_mut()[(c0 * stride + t0 + i)..].iter_mut();
                for (slot, &x) in column.step_by(stride).zip(h.iter()) {
                    *slot = x;
                }
            }
        }
    }

    /// Layer `layer`'s K panel, transposed: `[d_model, block_rows]`.
    pub(crate) fn keys(&self, layer: usize) -> &HalfMatrix {
        &self.k[layer]
    }

    /// Layer `layer`'s V panel: `[block_rows, d_model]`.
    pub(crate) fn values(&self, layer: usize) -> &HalfMatrix {
        &self.v[layer]
    }

    /// Dimension `c` of token `t`'s cached key for `layer`, widened.
    pub fn key(&self, layer: usize, t: usize, c: usize) -> f32 {
        self.k[layer].get(c, t)
    }

    /// Dimension `c` of token `t`'s cached value for `layer`, widened.
    #[cfg(test)]
    fn value(&self, layer: usize, t: usize, c: usize) -> f32 {
        self.v[layer].get(t, c)
    }

    /// Layer `layer`'s gate sums after the block's last filled row.
    pub(crate) fn sums(&self, layer: usize) -> &[f32] {
        self.sums.row(layer)
    }

    /// Writable [`BlockData::sums`].
    pub(crate) fn sums_mut(&mut self, layer: usize) -> &mut [f32] {
        self.sums.row_mut(layer)
    }

    /// Bytes the block's panels and sums hold: a cached row costs a
    /// `block_rows`-th of it.
    pub fn bytes(&self) -> usize {
        let panels: usize = self.k.iter().chain(&self.v).map(HalfMatrix::bytes).sum();
        panels + std::mem::size_of_val(self.sums.data())
    }
}

struct Slot {
    refs: u32,
    /// `None` while the slot sits on the freelist *after* a [`BlockPool::compact`]
    /// dropped its storage; re-allocated lazily on reuse.
    data: Option<BlockData>,
}

/// Ref-counted pool of fixed-size KV blocks with freelist reuse.
pub struct BlockPool {
    n_layers: usize,
    d_model: usize,
    block_rows: usize,
    slots: Vec<Slot>,
    free: Vec<u32>,
    live_blocks: usize,
    peak_blocks: usize,
}

impl BlockPool {
    pub fn new(n_layers: usize, d_model: usize, block_rows: usize) -> Self {
        assert!(block_rows > 0, "BlockPool: block_rows must be nonzero");
        assert!(n_layers > 0, "BlockPool: need at least one layer");
        BlockPool {
            n_layers,
            d_model,
            block_rows,
            slots: Vec::new(),
            free: Vec::new(),
            live_blocks: 0,
            peak_blocks: 0,
        }
    }

    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    pub fn d_model(&self) -> usize {
        self.d_model
    }

    fn fresh_data(&self) -> BlockData {
        BlockData {
            k: (0..self.n_layers)
                .map(|_| HalfMatrix::zeros(self.d_model, self.block_rows))
                .collect(),
            v: (0..self.n_layers)
                .map(|_| HalfMatrix::zeros(self.block_rows, self.d_model))
                .collect(),
            sums: Matrix::zeros(self.n_layers, self.d_model),
        }
    }

    /// Allocates a block with `refs == 1`, reusing freelist storage when
    /// available.
    pub fn alloc(&mut self) -> BlockId {
        let id = match self.free.pop() {
            Some(i) => i,
            None => {
                let i = u32::try_from(self.slots.len()).expect("BlockPool: slot overflow");
                self.slots.push(Slot {
                    refs: 0,
                    data: None,
                });
                i
            }
        };
        debug_assert_eq!(
            self.slots[id as usize].refs, 0,
            "alloc handed out a referenced block"
        );
        self.slots[id as usize].refs = 1;
        if self.slots[id as usize].data.is_none() {
            let data = self.fresh_data();
            self.slots[id as usize].data = Some(data);
        }
        self.live_blocks += 1;
        self.peak_blocks = self.peak_blocks.max(self.live_blocks);
        BlockId(id)
    }

    /// Adds a reference — how caches share a block on fork/gather and how
    /// the prefix index pins one.
    pub fn retain(&mut self, id: BlockId) {
        let slot = &mut self.slots[id.index()];
        assert!(slot.refs > 0, "retain of a freed block");
        slot.refs += 1;
    }

    /// Drops a reference; at zero the block goes back on the freelist (its
    /// storage is kept for reuse until [`BlockPool::compact`]).
    pub fn release(&mut self, id: BlockId) {
        let slot = &mut self.slots[id.index()];
        assert!(slot.refs > 0, "release of a freed block (double free)");
        slot.refs -= 1;
        if slot.refs == 0 {
            self.free.push(id.0);
            self.live_blocks -= 1;
        }
    }

    /// Current reference count (0 for freed slots).
    pub fn refs(&self, id: BlockId) -> usize {
        self.slots[id.index()].refs as usize
    }

    /// Read access to a live block's panels.
    pub fn block(&self, id: BlockId) -> &BlockData {
        let slot = &self.slots[id.index()];
        assert!(slot.refs > 0, "read of a freed block");
        slot.data.as_ref().expect("live block lost its storage")
    }

    /// Write access — exclusively-owned blocks only. Shared blocks are
    /// immutable by contract; writers copy-on-write via
    /// [`BlockPool::copy_block`] first.
    ///
    /// # Panics
    /// Panics if `refs != 1`.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BlockData {
        let slot = &mut self.slots[id.index()];
        assert!(
            slot.refs == 1,
            "mutable access to a block with {} references",
            slot.refs
        );
        slot.data.as_mut().expect("live block lost its storage")
    }

    /// Copy-on-write: allocates a fresh block and copies the first `filled`
    /// tokens of every layer's K/V panel from `src` (columns of the
    /// transposed K panel, rows of the V panel) and the gate sums at that
    /// fill. The source's refcount is untouched — the caller swaps its table
    /// entry and releases its own reference.
    pub fn copy_block(&mut self, src: BlockId, filled: usize) -> BlockId {
        assert!(filled <= self.block_rows, "copy_block: fill out of range");
        assert!(self.refs(src) > 0, "copy_block: source is freed");
        let dst = self.alloc();
        if filled > 0 {
            // Split-borrow via index math: src and dst are distinct slots
            // (alloc never returns a live id).
            debug_assert_ne!(src, dst);
            let (s, d) = if src.index() < dst.index() {
                let (a, b) = self.slots.split_at_mut(dst.index());
                (&a[src.index()], &mut b[0])
            } else {
                let (a, b) = self.slots.split_at_mut(src.index());
                (&b[0], &mut a[dst.index()])
            };
            let sd = s.data.as_ref().expect("live block lost its storage");
            let dd = d.data.as_mut().expect("live block lost its storage");
            let row_len = filled * self.d_model;
            for l in 0..self.n_layers {
                let k_rows = sd.k[l].data().chunks_exact(self.block_rows);
                for (dst, src) in dd.k[l]
                    .data_mut()
                    .chunks_exact_mut(self.block_rows)
                    .zip(k_rows)
                {
                    dst[..filled].copy_from_slice(&src[..filled]);
                }
                dd.v[l].data_mut()[..row_len].copy_from_slice(&sd.v[l].data()[..row_len]);
            }
            dd.sums.data_mut().copy_from_slice(sd.sums.data());
        }
        dst
    }

    /// Blocks currently referenced at least once.
    pub fn live_blocks(&self) -> usize {
        self.live_blocks
    }

    /// High-water mark of [`BlockPool::live_blocks`].
    pub fn peak_blocks(&self) -> usize {
        self.peak_blocks
    }

    /// Token rows held by live blocks (capacity-granular: fill is tracked by
    /// owners).
    pub fn live_rows(&self) -> usize {
        self.live_blocks * self.block_rows
    }

    /// Rows available from the freelist without touching the system
    /// allocator (freed slots that still hold storage).
    pub fn free_rows(&self) -> usize {
        self.free
            .iter()
            .filter(|&&i| self.slots[i as usize].data.is_some())
            .count()
            * self.block_rows
    }

    /// Ensures at least `n` freelist blocks have storage ready, so a decode
    /// loop of known length never reallocates mid-flight.
    pub fn reserve_free_blocks(&mut self, n: usize) {
        for i in 0..self.free.len() {
            let idx = self.free[i] as usize;
            if self.slots[idx].data.is_none() {
                self.slots[idx].data = Some(self.fresh_data());
            }
        }
        while self.free.len() < n {
            let i = u32::try_from(self.slots.len()).expect("BlockPool: slot overflow");
            self.slots.push(Slot {
                refs: 0,
                data: Some(self.fresh_data()),
            });
            self.free.push(i);
        }
    }

    /// Returns freelist storage to the system allocator (live blocks are
    /// untouched).
    pub fn compact(&mut self) {
        for &i in &self.free {
            self.slots[i as usize].data = None;
        }
    }

    /// Rows the pool's allocations can hold without new system allocation —
    /// live blocks plus storage-bearing freelist blocks.
    pub fn allocated_rows(&self) -> usize {
        self.live_rows() + self.free_rows()
    }
}

/// Shared, lockable handle to a [`BlockPool`]. One pool per scheduler (all
/// its caches and the prefix index share blocks); standalone sampler entry
/// points get a private pool per cache.
#[derive(Clone)]
pub struct PoolHandle {
    inner: Arc<Mutex<BlockPool>>,
}

impl PoolHandle {
    pub fn new(n_layers: usize, d_model: usize, block_rows: usize) -> Self {
        PoolHandle {
            inner: Arc::new(Mutex::new(BlockPool::new(n_layers, d_model, block_rows))),
        }
    }

    /// Locks the pool. Poisoning is ignored: the pool's invariants are
    /// maintained per-operation, and cache `Drop` must be able to release
    /// blocks during unwinding.
    pub fn lock(&self) -> MutexGuard<'_, BlockPool> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Whether two handles refer to the same pool (block ids are only
    /// transferable between caches when this holds).
    pub fn same_pool(&self, other: &PoolHandle) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Exec, LayerHook, ModelConfig, TransformerLm, Val};
    use infuserki_tensor::Tape;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn alloc_release_reuses_freelist_storage() {
        let mut p = BlockPool::new(2, 4, 8);
        let a = p.alloc();
        let b = p.alloc();
        assert_eq!(p.live_blocks(), 2);
        assert_eq!(p.peak_blocks(), 2);
        p.release(a);
        assert_eq!(p.live_blocks(), 1);
        assert_eq!(p.free_rows(), 8);
        let c = p.alloc();
        assert_eq!(c, a, "freelist should hand the slot back");
        assert_eq!(p.live_blocks(), 2);
        assert_eq!(p.peak_blocks(), 2, "reuse does not raise the peak");
        p.release(b);
        p.release(c);
        assert_eq!(p.live_blocks(), 0);
    }

    #[test]
    fn shared_blocks_refuse_mutable_access() {
        let mut p = BlockPool::new(1, 4, 4);
        let a = p.alloc();
        p.retain(a);
        assert_eq!(p.refs(a), 2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = p.block_mut(a);
        }));
        assert!(caught.is_err(), "block_mut must panic on a shared block");
        p.release(a);
        p.block_mut(a).write_rows(0, 0, &[1.0; 4], &[0.0; 4]);
        p.release(a);
    }

    #[test]
    fn copy_block_copies_filled_rows_only() {
        let mut p = BlockPool::new(2, 3, 4);
        let a = p.alloc();
        for l in 0..2 {
            let d = p.block_mut(a);
            d.write_rows(l, 0, &[0.0, 5.0, 0.0], &[0.0; 3]);
            d.write_rows(l, 1, &[0.0; 3], &[0.0, 0.0, -3.0]);
        }
        p.retain(a); // simulate a second owner forcing COW
        let b = p.copy_block(a, 2);
        assert_eq!(p.refs(a), 2, "copy_block leaves the source refcount alone");
        assert_eq!(p.refs(b), 1);
        for l in 0..2 {
            assert_eq!(p.block(b).key(l, 0, 1), 5.0);
            assert_eq!(p.block(b).value(l, 1, 2), -3.0);
        }
        p.release(a);
        p.release(a);
        p.release(b);
    }

    #[test]
    fn write_rows_rounds_to_binary16_and_scatters_keys_down_columns() {
        let mut p = BlockPool::new(1, 3, 4);
        let a = p.alloc();
        let keys = [0.1f32, 1.0, -2.0, 65520.0, 3.0, 0.5];
        let values = [7.0f32, -0.0, 1e-8, 4.0, 1.0 / 3.0, 2.0];
        p.block_mut(a).write_rows(0, 1, &keys, &values);
        let round = |x: f32| half::f16_to_f32(half::f32_to_f16(x));
        let d = p.block(a);
        for t in 0..2 {
            for c in 0..3 {
                let want = (round(keys[t * 3 + c]), round(values[t * 3 + c]));
                let got = (d.key(0, 1 + t, c), d.value(0, 1 + t, c));
                assert_eq!(
                    (got.0.to_bits(), got.1.to_bits()),
                    (want.0.to_bits(), want.1.to_bits())
                );
            }
        }
        assert_eq!(d.key(0, 2, 0), f32::INFINITY, "65520 rounds past 65504");
        assert_eq!(d.key(0, 0, 1), 0.0, "row 0 untouched");
        p.release(a);
    }

    #[test]
    fn a_block_holds_binary16_panels_and_f32_sums() {
        let (layers, rows, d) = (12, 16, 64);
        let mut p = BlockPool::new(layers, d, rows);
        let a = p.alloc();
        let panels = 2 * layers * rows * d * 2;
        let sums = layers * d * 4;
        assert_eq!(p.block(a).bytes(), panels + sums);
        // 3 KiB of K/V per cached row at this geometry.
        assert_eq!(panels / rows, 3 * 1024);
        p.release(a);
    }

    #[test]
    fn copy_block_carries_the_pooled_sums() {
        let mut p = BlockPool::new(2, 3, 4);
        let a = p.alloc();
        p.block_mut(a)
            .sums
            .row_mut(1)
            .copy_from_slice(&[1.0, -2.0, 3.5]);
        p.retain(a);
        let b = p.copy_block(a, 1);
        assert_eq!(p.block(b).sums.row(1), &[1.0, -2.0, 3.5]);
        assert_eq!(p.block(b).sums.row(0), &[0.0; 3]);
        p.release(a);
        p.release(a);
        p.release(b);
    }

    /// Pools each FFN input by its causal prefix mean into the FFN output:
    /// the one statistic that crosses chunks, as InfuserKI's gate uses it.
    struct MeanGate;

    impl LayerHook for MeanGate {
        fn ffn_output(&self, layer: usize, ffn_in: &Val, ffn_out: Val, e: &mut Exec) -> Val {
            let pooled = e.cum_mean_rows(ffn_in, layer);
            e.add(ffn_out, &pooled)
        }
    }

    #[test]
    fn gathered_branches_keep_their_own_sums_after_diverging() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let m = TransformerLm::new(ModelConfig::tiny(20), &mut rng);
        // Five prompt tokens at 4-row blocks: the second block is a one-row
        // tail the two branches share until each appends to it.
        let prompt = [1usize, 2, 3, 4, 5];
        let mut cache = m.new_cache_in(&MeanGate, m.new_pool(4));
        m.extend_cached(&prompt, &MeanGate, &mut cache);
        let shared = cache.seq_table(0)[1];
        let pool = cache.pool_handle();
        let before = pool.lock().block(shared).sums.clone();
        let mut branches = cache.gather(&[0, 0]);
        let tails = [[6usize, 7], [8, 9]];
        let logits = m.extend_cached_batch(&tails, &MeanGate, &mut branches);
        {
            let p = pool.lock();
            let (t0, t1) = (branches.seq_table(0)[1], branches.seq_table(1)[1]);
            assert!(
                t0 != shared && t1 != shared && t0 != t1,
                "both copied on write"
            );
            assert_eq!(
                p.block(shared).sums,
                before,
                "the shared tail is never written"
            );
            assert_ne!(p.block(t0).sums, p.block(t1).sums);
        }
        // Each branch's rows are its own sequence's, bitwise.
        for (i, tail) in tails.iter().enumerate() {
            let whole: Vec<usize> = prompt.iter().chain(tail).copied().collect();
            let mut tape = Tape::new();
            let full = m.forward(&whole, &MeanGate, &mut tape);
            let want = tape.value(full).slice_rows(prompt.len(), whole.len());
            assert_eq!(logits.slice_rows(2 * i, 2 * i + 2), want, "branch {i}");
        }
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_release_panics() {
        let mut p = BlockPool::new(1, 2, 2);
        let a = p.alloc();
        p.release(a);
        p.release(a);
    }

    #[test]
    fn compact_drops_freelist_storage_and_reserve_restores_it() {
        let mut p = BlockPool::new(1, 4, 8);
        let a = p.alloc();
        let b = p.alloc();
        p.release(a);
        p.release(b);
        assert_eq!(p.free_rows(), 16);
        p.compact();
        assert_eq!(p.free_rows(), 0);
        assert_eq!(p.allocated_rows(), 0);
        p.reserve_free_blocks(3);
        assert_eq!(p.free_rows(), 24);
        let c = p.alloc();
        assert_eq!(p.block(c).v[0].rows(), 8, "reused slot has storage again");
        p.release(c);
    }
}
