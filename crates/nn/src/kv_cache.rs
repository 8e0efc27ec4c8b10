//! Per-sequence block tables over the paged KV pool — the cache handed to
//! incremental (chunked) decoding of one or many independent sequences.
//!
//! A [`KvCache`] stores, per batched sequence, a table of [`BlockId`]s into a
//! shared [`BlockPool`]: block `j` holds the full-width projected K/V rows of
//! token positions `[j·B, (j+1)·B)` for *every* layer (`B = block_rows`),
//! rounded to binary16. Hook-provided prefix-tuning rows are not copied per
//! sequence: they live once in an `Arc`, in the same format, and attention
//! reads them as a virtual panel in front of every sequence's blocks.
//!
//! Sharing is ref-counted at block granularity. [`KvCache::fork`] /
//! [`KvCache::gather`] add references instead of copying rows, so an MCQ
//! fan-out shares its prompt's blocks across branches; a branch that appends
//! into a *partial* shared block copies-on-write first
//! (`SeqKv::prepare_append`), while *full* shared blocks are immutable and
//! shared for their lifetime. The serving scheduler's radix prefix index
//! pins full blocks the same way, which is what lets a new request adopt a
//! cached prefix and skip its prefill.
//!
//! Bitwise contract: the all-heads kernels assemble scores and the
//! attention·V product block-by-block through single ascending accumulation
//! chains (`qk_heads_panel` / `av_heads_seg_into` — one row-fold micro-kernel
//! that walks a block once for every head; K panels are stored transposed so
//! both fold with lanes across independent outputs) over each panel widened
//! exactly to f32, so a sequence read through its block table produces
//! bit-for-bit the rows a contiguous cache of the same rounded rows produced,
//! and the rows the tape's attention node computes — sharing and layout
//! change storage, never arithmetic.

use std::cell::Cell;
use std::sync::Arc;

use infuserki_obs as obs;
use infuserki_tensor::{HalfMatrix, Matrix};

use crate::block_alloc::{BlockId, BlockPool, PoolHandle};
use crate::exec::Exec;
use crate::hooks::LayerHook;

/// Counts cache branch points (`fork` + `gather`) in the global registry —
/// one cheap `fetch_add` per branch, so MCQ option-scoring fan-out is
/// visible in snapshots.
fn fork_counter() -> &'static std::sync::Arc<obs::Counter> {
    static C: std::sync::OnceLock<std::sync::Arc<obs::Counter>> = std::sync::OnceLock::new();
    C.get_or_init(|| obs::global().counter("engine.cache_forks"))
}

/// One sequence's view into the pool: its block table and token count.
/// Block `j` covers token positions `[j·B, (j+1)·B)`; the last block is
/// partially filled unless `tokens` is a multiple of `B`. Invariant:
/// `table.len() == ceil(tokens / B)` between forward passes (during a pass,
/// `prepare_append` extends the table ahead of the writes).
#[derive(Clone)]
pub(crate) struct SeqKv {
    pub(crate) table: Vec<BlockId>,
    pub(crate) tokens: usize,
}

impl SeqKv {
    /// Makes the next `extra` token rows writable: copies-on-write a shared
    /// partial tail block and allocates fresh blocks to cover
    /// `tokens + extra`. Full shared blocks are left shared — they are never
    /// written again.
    pub(crate) fn prepare_append(&mut self, pool: &mut BlockPool, extra: usize) {
        if extra == 0 {
            return;
        }
        let b = pool.block_rows();
        let fill = self.tokens % b;
        if fill != 0 {
            let last = *self.table.last().expect("partial fill implies a block");
            if pool.refs(last) > 1 {
                let fresh = pool.copy_block(last, fill);
                pool.release(last);
                *self.table.last_mut().unwrap() = fresh;
            }
        }
        let need = (self.tokens + extra).div_ceil(b);
        while self.table.len() < need {
            let id = pool.alloc();
            self.table.push(id);
        }
    }

    /// Writes `m` freshly projected rows (`src[src0 .. src0+m]` of the packed
    /// per-chunk K/V) into this sequence's tail blocks for one layer. The
    /// span must have been made writable by `prepare_append`; `tokens` is
    /// advanced by the caller once all layers are written.
    pub(crate) fn write_chunk(
        &self,
        pool: &mut BlockPool,
        layer: usize,
        k: &Matrix,
        v: &Matrix,
        src0: usize,
        m: usize,
    ) {
        let b = pool.block_rows();
        let mut t = 0usize;
        while t < m {
            let g = self.tokens + t;
            let j = g / b;
            let r0 = g % b;
            let n = (b - r0).min(m - t);
            let rows = src0 + t..src0 + t + n;
            pool.block_mut(self.table[j]).write_rows(
                layer,
                r0,
                k.row_span(rows.clone()),
                v.row_span(rows),
            );
            t += n;
        }
    }
}

/// A forkable decoding cache over `n_seqs` independent sequences: block
/// tables into a shared [`BlockPool`]. Everything a sequence carries across
/// chunks lives in its blocks — the K/V rows and the gate's running sums
/// ([`crate::Exec::cum_mean_rows`]) — so sharing a block shares both.
pub struct KvCache {
    pub(crate) pool: PoolHandle,
    /// Per-layer hook prefix panels in a block's format: binary16, K
    /// transposed (`[d_model, prefix_len]`) and V `[prefix_len, d_model]`;
    /// zero-length when the hook provides none. Shared, never mutated.
    pub(crate) prefix: Arc<Vec<(HalfMatrix, HalfMatrix)>>,
    pub(crate) seqs: Vec<SeqKv>,
    block_rows: usize,
    /// Scratch for [`KvCache::rows_used`]'s distinct-block count, kept so
    /// the per-step gauge update allocates nothing once warm.
    distinct_scratch: Cell<Vec<BlockId>>,
}

impl KvCache {
    /// Builds an empty cache for `n_seqs` sequences over `pool`, querying
    /// the hook for per-layer prefix K/V rows.
    pub(crate) fn new(
        n_layers: usize,
        d_model: usize,
        hook: &dyn LayerHook,
        n_seqs: usize,
        pool: PoolHandle,
    ) -> Self {
        assert!(n_seqs > 0, "KvCache: need at least one sequence");
        let block_rows = {
            let p = pool.lock();
            assert_eq!(p.n_layers(), n_layers, "KvCache: pool layer mismatch");
            assert_eq!(p.d_model(), d_model, "KvCache: pool width mismatch");
            p.block_rows()
        };
        let mut e = Exec::eager();
        let prefix = (0..n_layers)
            .map(|l| {
                let (k, v) = hook.prefix_kv(l, &mut e).map_or_else(
                    || (Matrix::zeros(0, d_model), Matrix::zeros(0, d_model)),
                    |(k, v)| (k.into_mat(), v.into_mat()),
                );
                assert_eq!(k.shape(), v.shape(), "prefix K/V shape mismatch");
                (
                    HalfMatrix::from_matrix(&k.transposed()),
                    HalfMatrix::from_matrix(&v),
                )
            })
            .collect();
        KvCache {
            pool,
            prefix: Arc::new(prefix),
            seqs: (0..n_seqs)
                .map(|_| SeqKv {
                    table: Vec::new(),
                    tokens: 0,
                })
                .collect(),
            block_rows,
            distinct_scratch: Cell::default(),
        }
    }

    /// Number of batched sequences.
    pub fn n_seqs(&self) -> usize {
        self.seqs.len()
    }

    /// Rows each KV block spans.
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// The pool this cache allocates from (shared with every cache absorbed
    /// into or gathered out of it).
    pub fn pool_handle(&self) -> PoolHandle {
        self.pool.clone()
    }

    /// Token positions already cached (prefix rows excluded) — batch-of-1
    /// convenience.
    ///
    /// # Panics
    /// Panics on a multi-sequence cache; use [`KvCache::tokens_of`] there.
    pub fn tokens(&self) -> usize {
        assert_eq!(self.n_seqs(), 1, "tokens() on a batched cache");
        self.seqs[0].tokens
    }

    /// Token positions already cached for sequence `i`.
    pub fn tokens_of(&self, i: usize) -> usize {
        self.seqs[i].tokens
    }

    /// Sequence `i`'s block table, in token order. The serving scheduler
    /// snapshots full blocks from here into the prefix index.
    pub fn seq_table(&self, i: usize) -> &[BlockId] {
        &self.seqs[i].table
    }

    /// Seeds empty sequence `i` with a cached prefix: `blocks` (full blocks
    /// covering exactly `tokens` positions) are adopted by reference, with
    /// the gate sums they hold. This is the serving-side prefix-cache hit:
    /// the adopted positions are never re-prefilled.
    pub fn adopt_prefix(&mut self, i: usize, blocks: &[BlockId], tokens: usize) {
        let seq = &mut self.seqs[i];
        assert_eq!(seq.tokens, 0, "adopt_prefix: sequence already has tokens");
        assert!(seq.table.is_empty(), "adopt_prefix: sequence has blocks");
        assert_eq!(
            tokens,
            blocks.len() * self.block_rows,
            "adopt_prefix: only whole blocks can be adopted"
        );
        let mut pool = self.pool.lock();
        for &id in blocks {
            pool.retain(id);
        }
        drop(pool);
        seq.table.extend_from_slice(blocks);
        seq.tokens = tokens;
    }

    /// An independent copy sharing this cache's history — the branch point
    /// for shared-prefix option scoring and beam search. Blocks are shared
    /// by reference (copy-on-write on the next append into a partial tail).
    pub fn fork(&self) -> KvCache {
        fork_counter().inc();
        self.clone()
    }

    /// A new cache whose sequence `j` shares this cache's sequence
    /// `indices[j]`. Indices may repeat — scoring four options of one MCQ
    /// branches its prefilled question into four cache sequences at once,
    /// all referencing the same prompt blocks.
    pub fn gather(&self, indices: &[usize]) -> KvCache {
        assert!(!indices.is_empty(), "gather: empty selection");
        fork_counter().inc();
        let mut pool = self.pool.lock();
        for &i in indices {
            for &id in &self.seqs[i].table {
                pool.retain(id);
            }
        }
        drop(pool);
        KvCache {
            pool: self.pool.clone(),
            prefix: self.prefix.clone(),
            seqs: indices.iter().map(|&i| self.seqs[i].clone()).collect(),
            block_rows: self.block_rows,
            distinct_scratch: Cell::default(),
        }
    }

    /// Drops every sequence not listed in `keep` (strictly ascending
    /// indices), releasing the dropped sequences' block references. Batched
    /// greedy decoding retires finished sequences this way.
    pub fn retain_indices(&mut self, keep: &[usize]) {
        assert!(
            keep.windows(2).all(|w| w[0] < w[1]),
            "retain_indices: indices must be strictly ascending"
        );
        assert!(!keep.is_empty(), "retain_indices: would empty the cache");
        assert!(
            *keep.last().unwrap() < self.n_seqs(),
            "retain_indices: out of range"
        );
        let mut pool = self.pool.lock();
        let mut next = 0usize;
        for (i, seq) in self.seqs.iter().enumerate() {
            if next < keep.len() && keep[next] == i {
                next += 1;
            } else {
                for &id in &seq.table {
                    pool.release(id);
                }
            }
        }
        drop(pool);
        retain_by_index(&mut self.seqs, keep);
    }

    /// Pre-allocates pool blocks for `extra` more token rows on every
    /// sequence, so a decode loop of known length never touches the system
    /// allocator mid-flight.
    pub fn reserve_rows(&mut self, extra: usize) {
        let blocks = extra.div_ceil(self.block_rows) * self.n_seqs();
        self.pool.lock().reserve_free_blocks(blocks);
    }

    /// Rows any one sequence could append without new system allocation:
    /// slack in its tail block plus the pool's ready freelist (minimum over
    /// sequences).
    pub fn min_row_capacity(&self) -> usize {
        let free = self.pool.lock().free_rows();
        self.seqs
            .iter()
            .map(|s| s.table.len() * self.block_rows - s.tokens + free)
            .min()
            .unwrap_or(0)
    }

    /// Live K/V rows this cache holds: block-granular (distinct referenced
    /// blocks × block size — shared blocks count once) plus the widest
    /// layer's virtual prefix rows per sequence, matching what the serving
    /// admission accounting charges. The gauge the scheduler exports.
    pub fn rows_used(&self) -> usize {
        let max_prefix = self.prefix.iter().map(|(_, v)| v.rows()).max().unwrap_or(0);
        let mut ids = self.distinct_scratch.take();
        ids.clear();
        ids.extend(self.seqs.iter().flat_map(|s| s.table.iter().copied()));
        ids.sort_unstable();
        ids.dedup();
        let distinct = ids.len();
        self.distinct_scratch.set(ids);
        distinct * self.block_rows + self.n_seqs() * max_prefix
    }

    /// Rows the pool's allocations can hold without new system allocation
    /// (live blocks plus storage-bearing freelist blocks).
    /// `rows_capacity() - rows_used()` over a private pool is spare
    /// reservation that [`KvCache::compact`] can reclaim.
    pub fn rows_capacity(&self) -> usize {
        self.pool.lock().allocated_rows()
    }

    /// Returns the pool freelist's storage to the allocator.
    /// [`KvCache::retain_indices`] frees retired sequences' blocks onto the
    /// freelist but keeps their storage for reuse; a scheduler that retires
    /// and back-fills continuously calls this so freed rows are actually
    /// reclaimed rather than accumulating as freelist slack.
    pub fn compact(&mut self) {
        self.pool.lock().compact();
    }

    /// Appends every sequence of `other` (same pool, same layer count) after
    /// this cache's sequences, moving block references without copying rows.
    /// The serving scheduler prefills newcomers into a fresh cache and
    /// absorbs them into the live decode batch this way.
    pub fn absorb(&mut self, mut other: KvCache) {
        assert!(
            self.pool.same_pool(&other.pool),
            "absorb: caches must share one block pool"
        );
        assert_eq!(
            self.prefix.len(),
            other.prefix.len(),
            "absorb: layer count mismatch"
        );
        // Move the references over; `other` drops with empty tables, so the
        // refcounts transfer rather than decrement.
        self.seqs.append(&mut other.seqs);
    }
}

impl Clone for KvCache {
    fn clone(&self) -> Self {
        let mut pool = self.pool.lock();
        for seq in &self.seqs {
            for &id in &seq.table {
                pool.retain(id);
            }
        }
        drop(pool);
        KvCache {
            pool: self.pool.clone(),
            prefix: self.prefix.clone(),
            seqs: self.seqs.clone(),
            block_rows: self.block_rows,
            distinct_scratch: Cell::default(),
        }
    }
}

impl Drop for KvCache {
    fn drop(&mut self) {
        let mut pool = self.pool.lock();
        for seq in &self.seqs {
            for &id in &seq.table {
                pool.release(id);
            }
        }
    }
}

/// Keeps `v[i]` exactly for the ascending indices in `keep`.
fn retain_by_index<T>(v: &mut Vec<T>, keep: &[usize]) {
    let mut next = 0usize;
    let mut idx = 0usize;
    v.retain(|_| {
        let hit = next < keep.len() && keep[next] == idx;
        if hit {
            next += 1;
        }
        idx += 1;
        hit
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHook;

    fn cache(n_layers: usize, d_model: usize, block_rows: usize, n_seqs: usize) -> KvCache {
        let pool = PoolHandle::new(n_layers, d_model, block_rows);
        KvCache::new(n_layers, d_model, &NoHook, n_seqs, pool)
    }

    /// Appends `m` synthetic token rows to sequence `i` the way a forward
    /// pass does: prepare, write every layer, advance the token count.
    fn append(c: &mut KvCache, i: usize, m: usize, fill: f32) {
        let n_layers = c.prefix.len();
        let d = {
            let p = c.pool.lock();
            p.d_model()
        };
        let k = Matrix::full(m, d, fill);
        let v = Matrix::full(m, d, -fill);
        let pool = c.pool.clone();
        let mut pool = pool.lock();
        c.seqs[i].prepare_append(&mut pool, m);
        for l in 0..n_layers {
            c.seqs[i].write_chunk(&mut pool, l, &k, &v, 0, m);
        }
        drop(pool);
        c.seqs[i].tokens += m;
    }

    #[test]
    fn empty_cache_has_no_rows() {
        let c = cache(3, 8, 4, 1);
        assert_eq!(c.n_seqs(), 1);
        assert_eq!(c.tokens(), 0);
        assert_eq!(c.rows_used(), 0);
        assert!(c.seq_table(0).is_empty());
    }

    #[test]
    fn append_fills_blocks_and_fork_shares_them() {
        let mut c = cache(1, 4, 2, 1);
        append(&mut c, 0, 3, 1.0);
        assert_eq!(c.tokens(), 3);
        assert_eq!(c.seq_table(0).len(), 2, "3 tokens at B=2 span 2 blocks");
        let fork = c.fork();
        {
            let pool = c.pool.lock();
            for &id in c.seq_table(0) {
                assert_eq!(pool.refs(id), 2, "fork shares, not copies");
            }
        }
        // Appending into the shared partial tail copies-on-write; the full
        // block stays shared.
        append(&mut c, 0, 1, 2.0);
        assert_eq!(c.tokens(), 4);
        assert_eq!(fork.tokens(), 3, "fork is independent");
        let pool = c.pool.lock();
        assert_eq!(pool.refs(c.seq_table(0)[0]), 2, "full block still shared");
        assert_eq!(pool.refs(c.seq_table(0)[1]), 1, "partial tail was COWed");
        assert_ne!(c.seq_table(0)[1], fork.seq_table(0)[1]);
        // The COW copied the old fill before the new row landed.
        assert_eq!(pool.block(c.seq_table(0)[1]).key(0, 0, 0), 1.0);
        assert_eq!(pool.block(c.seq_table(0)[1]).key(0, 1, 0), 2.0);
        assert_eq!(pool.block(fork.seq_table(0)[1]).key(0, 0, 0), 1.0);
    }

    #[test]
    fn batched_cache_has_independent_sequences() {
        let mut c = cache(2, 4, 4, 3);
        append(&mut c, 1, 1, 1.0);
        assert_eq!(c.tokens_of(0), 0);
        assert_eq!(c.tokens_of(1), 1);
        assert_eq!(c.tokens_of(2), 0);
        assert_eq!(c.seq_table(0).len(), 0);
        assert_eq!(c.seq_table(1).len(), 1);
    }

    #[test]
    fn gather_selects_and_duplicates_by_reference() {
        let mut c = cache(1, 4, 2, 2);
        append(&mut c, 1, 2, 1.0);
        let g = c.gather(&[1, 1, 0]);
        assert_eq!(g.n_seqs(), 3);
        assert_eq!(g.tokens_of(0), 2);
        assert_eq!(g.tokens_of(1), 2);
        assert_eq!(g.tokens_of(2), 0);
        let pool = c.pool.lock();
        assert_eq!(
            pool.refs(c.seq_table(1)[0]),
            3,
            "source + two gathered branches"
        );
        assert_eq!(pool.live_blocks(), 1, "no rows were copied");
    }

    #[test]
    fn retain_indices_releases_dropped_sequences() {
        let mut c = cache(1, 4, 2, 4);
        for i in 0..4 {
            append(&mut c, i, 2, i as f32);
        }
        assert_eq!(c.pool.lock().live_blocks(), 4);
        c.retain_indices(&[0, 2]);
        assert_eq!(c.n_seqs(), 2);
        assert_eq!(c.tokens_of(1), 2);
        assert_eq!(c.pool.lock().live_blocks(), 2, "dropped blocks were freed");
    }

    #[test]
    fn reserve_rows_sets_capacity() {
        let mut c = cache(2, 4, 4, 2);
        assert_eq!(c.min_row_capacity(), 0);
        c.reserve_rows(17);
        assert!(c.min_row_capacity() >= 17);
    }

    #[test]
    fn row_accounting_is_block_granular_and_shares_count_once() {
        let mut c = cache(2, 4, 2, 3);
        assert_eq!(c.rows_used(), 0);
        append(&mut c, 0, 2, 1.0);
        append(&mut c, 2, 1, 2.0);
        // 2 blocks live (one full, one partial) — block-granular accounting
        // rounds the partial one up.
        assert_eq!(c.rows_used(), 4);
        let g = c.gather(&[0, 0, 2]);
        assert_eq!(g.rows_used(), 4, "shared blocks count once");
        assert!(c.rows_capacity() >= c.rows_used());
    }

    #[test]
    fn retire_then_compact_reclaims_freed_rows() {
        let mut c = cache(2, 4, 4, 3);
        for i in 0..3 {
            append(&mut c, i, 4, 1.0);
        }
        c.reserve_rows(64);
        assert!(c.rows_capacity() >= 3 * 4 + 64);
        c.retain_indices(&[1]);
        // The retired sequences' blocks are on the freelist, still holding
        // storage until compaction.
        assert_eq!(c.rows_used(), 4);
        c.compact();
        assert_eq!(c.rows_capacity(), c.rows_used());
        assert_eq!(c.tokens_of(0), 4, "live rows survive compact");
    }

    #[test]
    fn absorb_moves_block_references() {
        let pool = PoolHandle::new(1, 4, 2);
        let mut a = KvCache::new(1, 4, &NoHook, 2, pool.clone());
        let mut b = KvCache::new(1, 4, &NoHook, 1, pool.clone());
        append(&mut b, 0, 3, 7.0);
        let id = b.seq_table(0)[0];
        a.absorb(b);
        assert_eq!(a.n_seqs(), 3);
        assert_eq!(a.tokens_of(2), 3);
        assert_eq!(pool.lock().refs(id), 1, "absorb moves, not clones, refs");
    }

    #[test]
    #[should_panic(expected = "share one block pool")]
    fn absorb_rejects_foreign_pool() {
        let mut a = cache(2, 4, 4, 1);
        a.absorb(cache(2, 4, 4, 1));
    }

    #[test]
    fn drop_releases_every_block() {
        let pool = PoolHandle::new(1, 4, 2);
        {
            let mut c = KvCache::new(1, 4, &NoHook, 2, pool.clone());
            append(&mut c, 0, 5, 1.0);
            append(&mut c, 1, 2, 2.0);
            assert_eq!(pool.lock().live_blocks(), 4);
            let _fork = c.fork();
            assert_eq!(pool.lock().live_blocks(), 4, "fork adds refs, not blocks");
        }
        assert_eq!(pool.lock().live_blocks(), 0, "all refs released on drop");
    }

    #[test]
    fn adopt_prefix_pins_blocks_and_restores_tokens() {
        let pool = PoolHandle::new(1, 4, 2);
        let mut donor = KvCache::new(1, 4, &NoHook, 1, pool.clone());
        append(&mut donor, 0, 4, 3.0);
        let blocks: Vec<BlockId> = donor.seq_table(0).to_vec();
        let mut taker = KvCache::new(1, 4, &NoHook, 1, pool.clone());
        taker.adopt_prefix(0, &blocks, 4);
        assert_eq!(taker.tokens(), 4);
        assert_eq!(pool.lock().refs(blocks[0]), 2);
        drop(donor);
        // The adopted blocks outlive the donor.
        assert_eq!(pool.lock().refs(blocks[0]), 1);
        assert_eq!(pool.lock().block(blocks[0]).key(0, 0, 0), 3.0);
    }
}
