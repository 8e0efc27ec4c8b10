//! Model-based property tests for the paged KV block allocator.
//!
//! Random op sequences (alloc / retain / release / copy-on-write / compact /
//! reserve) drive a [`BlockPool`] next to a naive reference allocator that
//! tracks every slot's refcount and freelist position explicitly. After every
//! op the pool's observable accounting (live blocks, live/free/allocated
//! rows, per-block refcounts, peak) must equal the model's, shared blocks
//! must refuse mutable access, and freed ids must refuse release and retain
//! (no double free). A second suite checks that the radix prefix index
//! conserves block references under insert / lookup-adopt / evict sequences:
//! one pool reference per distinct indexed prefix, pinned paths survive LRU
//! eviction, and a fully drained index returns the pool to zero live blocks.

use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};

use infuserki_nn::{BlockId, BlockPool, PrefixIndex};
use proptest::prelude::*;

const B: usize = 4; // block_rows for every pool in this file
const LAYERS: usize = 2;
const D: usize = 3;

/// Reference model of one freelist slot. `id` is `None` for slots created by
/// `reserve_free_blocks` that the model has never seen returned from `alloc`.
struct FreeSlot {
    id: Option<BlockId>,
    storage: bool,
}

/// Naive reference allocator: live blocks with explicit refcounts plus a
/// LIFO freelist stack mirroring the pool's documented reuse order.
struct ModelPool {
    live: Vec<(BlockId, usize)>,
    free: Vec<FreeSlot>,
    peak: usize,
}

impl ModelPool {
    fn new() -> Self {
        ModelPool {
            live: Vec::new(),
            free: Vec::new(),
            peak: 0,
        }
    }

    /// Registers a block handed out by `alloc`/`copy_block` and checks the
    /// pool reused the freelist top when the model says one was available.
    fn on_alloc(&mut self, id: BlockId) -> Result<(), TestCaseError> {
        if let Some(slot) = self.free.pop() {
            if let Some(expected) = slot.id {
                prop_assert_eq!(id, expected, "alloc must reuse the freelist LIFO top");
            }
        } else {
            prop_assert!(
                self.live.iter().all(|&(l, _)| l != id),
                "fresh slot collided with a live id"
            );
        }
        self.live.push((id, 1));
        self.peak = self.peak.max(self.live.len());
        Ok(())
    }

    fn release(&mut self, idx: usize) {
        self.live[idx].1 -= 1;
        if self.live[idx].1 == 0 {
            let (id, _) = self.live.remove(idx);
            self.free.push(FreeSlot {
                id: Some(id),
                storage: true,
            });
        }
    }

    fn check(&self, pool: &BlockPool) -> Result<(), TestCaseError> {
        prop_assert_eq!(pool.live_blocks(), self.live.len());
        prop_assert_eq!(pool.live_rows(), self.live.len() * B);
        prop_assert_eq!(pool.peak_blocks(), self.peak);
        let free_storage = self.free.iter().filter(|s| s.storage).count();
        prop_assert_eq!(pool.free_rows(), free_storage * B);
        prop_assert_eq!(pool.allocated_rows(), (self.live.len() + free_storage) * B);
        for &(id, refs) in &self.live {
            prop_assert_eq!(pool.refs(id), refs, "live refcount diverged");
        }
        for slot in &self.free {
            if let Some(id) = slot.id {
                prop_assert_eq!(pool.refs(id), 0, "freed slot still referenced");
            }
        }
        Ok(())
    }
}

/// Writes `value` as dimension 0 of token 0's layer-0 key: a small integer,
/// so binary16 holds it exactly.
fn stamp(pool: &mut BlockPool, id: BlockId, value: f32) {
    let mut key = [0.0; D];
    key[0] = value;
    pool.block_mut(id).write_rows(0, 0, &key, &[0.0; D]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Core model-equivalence property: random alloc / retain (fork) /
    /// release (retire) / copy-on-write / compact / reserve sequences keep
    /// the pool's refcounts, freelist, and row accounting in lockstep with
    /// the naive model, and exclusively-owned block contents survive sharing.
    #[test]
    fn pool_matches_model_allocator(
        ops in proptest::collection::vec((0usize..8, 0usize..4096), 1..100),
    ) {
        let mut pool = BlockPool::new(LAYERS, D, B);
        let mut model = ModelPool::new();
        // Expected layer-0 key of token 0, dimension 0, per live block:
        // stamped at alloc (refs == 1), inherited through copy-on-write,
        // immutable while shared.
        let mut stamps: HashMap<BlockId, f32> = HashMap::new();
        let mut next_stamp = 1.0f32;

        for (sel, arg) in ops {
            match sel {
                // alloc: new exclusive block, stamp its first row.
                0 | 1 => {
                    let id = pool.alloc();
                    model.on_alloc(id)?;
                    stamp(&mut pool, id, next_stamp);
                    stamps.insert(id, next_stamp);
                    next_stamp += 1.0;
                }
                // retain: a fork / prefix-index pin of a random live block.
                2 => {
                    if !model.live.is_empty() {
                        let idx = arg % model.live.len();
                        pool.retain(model.live[idx].0);
                        model.live[idx].1 += 1;
                    }
                }
                // release: one owner retires.
                3 | 4 => {
                    if !model.live.is_empty() {
                        let idx = arg % model.live.len();
                        pool.release(model.live[idx].0);
                        model.release(idx);
                    }
                }
                // copy-on-write from a random live source.
                5 => {
                    if !model.live.is_empty() {
                        let src = model.live[arg % model.live.len()].0;
                        let fill = arg % (B + 1);
                        let dst = pool.copy_block(src, fill);
                        model.on_alloc(dst)?;
                        if fill > 0 {
                            stamps.insert(dst, stamps[&src]);
                        } else {
                            // Nothing copied: reused storage may be stale,
                            // so stamp the exclusive copy fresh.
                            stamp(&mut pool, dst, next_stamp);
                            stamps.insert(dst, next_stamp);
                            next_stamp += 1.0;
                        }
                    }
                }
                // compact: freelist storage goes back to the allocator.
                6 => {
                    pool.compact();
                    for slot in &mut model.free {
                        slot.storage = false;
                    }
                }
                // reserve: warm the freelist for a known decode length.
                _ => {
                    let n = arg % 5;
                    pool.reserve_free_blocks(n);
                    for slot in &mut model.free {
                        slot.storage = true;
                    }
                    while model.free.len() < n {
                        model.free.push(FreeSlot { id: None, storage: true });
                    }
                }
            }
            model.check(&pool)?;
        }

        // Sharing safety: a block with more than one reference must refuse
        // mutable access; double release / retain of a freed id must panic
        // before corrupting the pool.
        if let Some(&(shared, _)) = model.live.iter().find(|&&(_, r)| r > 1) {
            let hit = catch_unwind(AssertUnwindSafe(|| {
                let _ = pool.block_mut(shared);
            }));
            prop_assert!(hit.is_err(), "block_mut must panic on a shared block");
        }
        if let Some(freed) = model.free.iter().rev().find_map(|s| s.id) {
            let hit = catch_unwind(AssertUnwindSafe(|| pool.release(freed)));
            prop_assert!(hit.is_err(), "release of a freed block must panic");
            let hit = catch_unwind(AssertUnwindSafe(|| pool.retain(freed)));
            prop_assert!(hit.is_err(), "retain of a freed block must panic");
            model.check(&pool)?; // the guards fired before any mutation
        }

        // Contents: every live block still carries the stamp written while
        // it was exclusively owned (sharing never mutated it).
        for &(id, _) in &model.live {
            prop_assert_eq!(pool.block(id).key(0, 0, 0), stamps[&id]);
        }

        // Full retirement drains the pool exactly to zero.
        while let Some(&(id, refs)) = model.live.last() {
            for _ in 0..refs {
                pool.release(id);
            }
            let idx = model.live.len() - 1;
            model.live[idx].1 = 1;
            model.release(idx);
        }
        model.check(&pool)?;
        prop_assert_eq!(pool.live_blocks(), 0);
    }
}

/// Flattens a chunk-pattern path into a token sequence (`B` tokens per
/// pattern id, so distinct paths collide exactly on shared pattern prefixes).
fn path_tokens(path: &[usize]) -> Vec<usize> {
    path.iter().flat_map(|&p| vec![p + 1; B]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Reference-conservation property for the radix prefix index: after
    /// callers insert overlapping prefixes and release their own blocks, the
    /// pool holds exactly one reference per distinct indexed prefix; lookup
    /// matches all but the final block of an indexed path; adopted (pinned)
    /// paths survive LRU eviction while everything else drains; and a fully
    /// drained index leaves zero live blocks.
    #[test]
    fn prefix_index_conserves_block_references(
        paths in proptest::collection::vec(
            proptest::collection::vec(0usize..3, 1..5),
            1..10,
        ),
    ) {
        let mut pool = BlockPool::new(LAYERS, D, B);
        let mut index = PrefixIndex::new(B);

        // Insert every path; the caller allocates its own blocks (as prefill
        // does) and releases them afterwards — the index keeps exactly one
        // reference per node it created.
        for path in &paths {
            let tokens = path_tokens(path);
            let blocks: Vec<BlockId> = (0..path.len()).map(|_| pool.alloc()).collect();
            index.insert(&mut pool, &tokens, &blocks, &None);
            for b in blocks {
                pool.release(b);
            }
        }

        // Naive model: one node per distinct non-empty pattern prefix.
        let mut prefixes: BTreeSet<&[usize]> = BTreeSet::new();
        for path in &paths {
            for d in 1..=path.len() {
                prefixes.insert(&path[..d]);
            }
        }
        prop_assert_eq!(index.len(), prefixes.len());
        prop_assert_eq!(index.indexed_rows(), prefixes.len() * B);
        prop_assert_eq!(pool.live_blocks(), prefixes.len(), "one block per distinct prefix");

        // Lookup matches every indexed block except the last (at least one
        // prompt token must remain un-matched). Adopt the first path's match
        // the way the scheduler does: retain every matched block.
        let mut adopted: Vec<BlockId> = Vec::new();
        let longest = paths.iter().max_by_key(|p| p.len()).unwrap();
        match index.lookup(&path_tokens(longest)) {
            Some(m) => {
                prop_assert_eq!(m.tokens, (longest.len() - 1) * B);
                prop_assert_eq!(m.blocks.len(), longest.len() - 1);
                for &b in &m.blocks {
                    pool.retain(b);
                    adopted.push(b);
                }
            }
            None => prop_assert!(longest.len() == 1, "indexed multi-block path must match"),
        }

        // LRU eviction under pressure: everything un-pinned drains; the
        // adopted path (refs == 2 on every node) survives.
        let before = index.evicted_blocks();
        let mut drained = 0usize;
        while let Some(rows) = index.evict_lru(&mut pool) {
            prop_assert_eq!(rows, B);
            drained += 1;
        }
        prop_assert_eq!(index.len(), adopted.len(), "pinned path survives eviction");
        prop_assert_eq!(drained, prefixes.len() - adopted.len());
        prop_assert_eq!(index.evicted_blocks() - before, drained as u64);
        prop_assert_eq!(pool.live_blocks(), adopted.len());

        // Release the adoption pins; now the index fully drains and the pool
        // returns to zero — no leaked or double-freed block.
        for b in adopted {
            pool.release(b);
        }
        while index.evict_lru(&mut pool).is_some() {}
        prop_assert!(index.is_empty());
        prop_assert_eq!(pool.live_blocks(), 0);
        prop_assert_eq!(index.indexed_rows(), 0);
    }
}
