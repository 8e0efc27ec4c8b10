//! Radix index over cached token prefixes — the cross-request sharing map.
//!
//! Nodes are keyed by `block_rows`-token chunks: a node at depth `d`
//! represents the token prefix formed by the chunks on its root path and
//! pins exactly one *full* KV block (the `d`-th block of that prefix). A
//! block carries everything a sequence needs to resume after it — its K/V
//! rows and the gate's running sums — so a new request whose prompt starts
//! with an indexed prefix adopts the path's blocks by reference
//! ([`crate::KvCache::adopt_prefix`]) and prefills only the remainder.
//!
//! Only whole blocks are indexed. Lookup never consumes the entire prompt:
//! at least one token is left to feed so the engine produces last-position
//! logits for the request itself.
//!
//! Eviction is LRU over *unpinned leaves*: a leaf whose block has no owner
//! besides the index (`refs == 1`) can be dropped; blocks still referenced
//! by live sequences are never evicted (they would stay alive anyway — the
//! index just stops advertising them). Evicting leaves-first keeps the
//! invariant that every indexed path is fully materialized.

use std::collections::HashMap;
use std::convert::Infallible;

use crate::block_alloc::{BlockId, BlockPool};

struct Node {
    /// Namespace tag of the tree this node belongs to (inherited from its
    /// root). Needed to unlink roots from the tagged root map on eviction.
    tag: u64,
    /// The chunk of tokens this node extends its parent by (`block_rows`
    /// long).
    chunk: Vec<usize>,
    /// The full KV block for this chunk's positions (one index reference
    /// held).
    block: BlockId,
    parent: Option<usize>,
    children: HashMap<Vec<usize>, usize>,
    /// Logical timestamp of the last lookup/insert touching this node.
    last_used: u64,
}

/// A prefix-cache hit: `blocks` cover the first `tokens` positions of the
/// prompt.
pub struct PrefixMatch {
    pub blocks: Vec<BlockId>,
    pub tokens: usize,
}

/// Radix (chunk-trie) index from token prefixes to pinned KV blocks.
///
/// The index is partitioned into disjoint namespaces by a caller-supplied
/// `tag` (the serving layer uses the knowledge-bundle version): entries
/// inserted under one tag are invisible to lookups under another, because KV
/// blocks are only reusable by requests running the *same* hook weights. All namespaces share one LRU clock and one eviction
/// pool, so a hot tag naturally displaces a cold one under budget pressure.
/// The untagged [`PrefixIndex::lookup`]/[`PrefixIndex::insert`] operate on
/// tag 0.
pub struct PrefixIndex {
    block_rows: usize,
    nodes: Vec<Option<Node>>,
    free_nodes: Vec<usize>,
    roots: HashMap<(u64, Vec<usize>), usize>,
    clock: u64,
    evicted: u64,
}

impl PrefixIndex {
    pub fn new(block_rows: usize) -> Self {
        assert!(block_rows > 0, "PrefixIndex: block_rows must be nonzero");
        PrefixIndex {
            block_rows,
            nodes: Vec::new(),
            free_nodes: Vec::new(),
            roots: HashMap::new(),
            clock: 0,
            evicted: 0,
        }
    }

    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Live indexed nodes (== pinned blocks).
    pub fn len(&self) -> usize {
        self.nodes.len() - self.free_nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// KV rows the index pins (block-granular). Admission charges these
    /// against the budget alongside live reservations.
    pub fn indexed_rows(&self) -> usize {
        self.len() * self.block_rows
    }

    /// Blocks evicted over the index's lifetime.
    pub fn evicted_blocks(&self) -> u64 {
        self.evicted
    }

    fn node(&self, id: usize) -> &Node {
        self.nodes[id].as_ref().expect("dangling node id")
    }

    fn node_mut(&mut self, id: usize) -> &mut Node {
        self.nodes[id].as_mut().expect("dangling node id")
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Longest indexed prefix of `prompt` in namespace 0. See
    /// [`PrefixIndex::lookup_in`].
    pub fn lookup(&mut self, prompt: &[usize]) -> Option<PrefixMatch> {
        self.lookup_in(0, prompt)
    }

    /// Longest prefix of `prompt` indexed under `tag`, capped so at least
    /// one prompt token remains un-matched (the engine must still feed
    /// something to get the request's own logits). Touches the matched
    /// path's LRU stamps. Does *not* take block references — the caller
    /// adopts them (which does) while it holds the scheduler
    /// single-threaded.
    pub fn lookup_in(&mut self, tag: u64, prompt: &[usize]) -> Option<PrefixMatch> {
        let b = self.block_rows;
        let now = self.tick();
        let mut matched = 0usize;
        let mut at: Option<usize> = None;
        let mut blocks = Vec::new();
        while matched + b < prompt.len() {
            let chunk = &prompt[matched..matched + b];
            let next = match at {
                None => self.roots.get(&(tag, chunk.to_vec())).copied(),
                Some(id) => self.node(id).children.get(chunk).copied(),
            };
            match next {
                Some(id) => {
                    self.node_mut(id).last_used = now;
                    blocks.push(self.node(id).block);
                    matched += b;
                    at = Some(id);
                }
                None => break,
            }
        }
        at.map(|_| PrefixMatch {
            blocks,
            tokens: matched,
        })
    }

    /// Indexes a full-block prefix in namespace 0. See
    /// [`PrefixIndex::insert_in`]. The last argument is a vestige that only
    /// `&None` fills; nothing is stored for it.
    pub fn insert(
        &mut self,
        pool: &mut BlockPool,
        tokens: &[usize],
        blocks: &[BlockId],
        _: &Option<Infallible>,
    ) {
        self.insert_in(pool, 0, tokens, blocks)
    }

    /// Indexes under `tag` the full-block prefix `tokens` (length must be a
    /// nonzero multiple of `block_rows`) whose blocks are `blocks`. Existing
    /// path nodes are kept (first writer wins — equivalent content by the
    /// determinism contract, which holds *within* a namespace); each missing
    /// node takes a new block reference.
    pub fn insert_in(
        &mut self,
        pool: &mut BlockPool,
        tag: u64,
        tokens: &[usize],
        blocks: &[BlockId],
    ) {
        let b = self.block_rows;
        assert!(
            !tokens.is_empty() && tokens.len().is_multiple_of(b),
            "insert: prefix must be whole blocks"
        );
        assert_eq!(
            blocks.len(),
            tokens.len() / b,
            "insert: block count mismatch"
        );
        let now = self.tick();
        let mut at: Option<usize> = None;
        for (d, chunk) in tokens.chunks(b).enumerate() {
            let existing = match at {
                None => self.roots.get(&(tag, chunk.to_vec())).copied(),
                Some(id) => self.node(id).children.get(chunk).copied(),
            };
            let id = match existing {
                Some(id) => {
                    self.node_mut(id).last_used = now;
                    id
                }
                None => {
                    pool.retain(blocks[d]);
                    let node = Node {
                        tag,
                        chunk: chunk.to_vec(),
                        block: blocks[d],
                        parent: at,
                        children: HashMap::new(),
                        last_used: now,
                    };
                    let id = match self.free_nodes.pop() {
                        Some(i) => {
                            self.nodes[i] = Some(node);
                            i
                        }
                        None => {
                            self.nodes.push(Some(node));
                            self.nodes.len() - 1
                        }
                    };
                    match at {
                        None => {
                            self.roots.insert((tag, chunk.to_vec()), id);
                        }
                        Some(p) => {
                            self.node_mut(p).children.insert(chunk.to_vec(), id);
                        }
                    }
                    id
                }
            };
            at = Some(id);
        }
    }

    /// Evicts the least-recently-used *unpinned* leaf (block `refs == 1`,
    /// i.e. held only by the index), releasing its block. Returns the rows
    /// freed, or `None` when nothing is evictable. Callers loop this under
    /// admission pressure; repeated calls walk a cold path bottom-up.
    pub fn evict_lru(&mut self, pool: &mut BlockPool) -> Option<usize> {
        let victim = self
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(id, n)| n.as_ref().map(|n| (id, n)))
            .filter(|(_, n)| n.children.is_empty() && pool.refs(n.block) == 1)
            .min_by_key(|(_, n)| n.last_used)
            .map(|(id, _)| id)?;
        let node = self.nodes[victim].take().expect("victim exists");
        self.free_nodes.push(victim);
        match node.parent {
            None => {
                self.roots.remove(&(node.tag, node.chunk));
            }
            Some(p) => {
                self.node_mut(p).children.remove(&node.chunk);
            }
        }
        pool.release(node.block);
        self.evicted += 1;
        Some(self.block_rows)
    }

    /// Drops the whole index, releasing every pinned block (drain/shutdown).
    pub fn clear(&mut self, pool: &mut BlockPool) {
        for node in self.nodes.drain(..).flatten() {
            pool.release(node.block);
            self.evicted += 1;
        }
        self.free_nodes.clear();
        self.roots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_alloc::BlockPool;

    fn pool() -> BlockPool {
        BlockPool::new(1, 4, 2)
    }

    /// Allocates `n` blocks standing in for a sequence's table.
    fn blocks(p: &mut BlockPool, n: usize) -> Vec<BlockId> {
        (0..n).map(|_| p.alloc()).collect()
    }

    #[test]
    fn lookup_misses_on_empty_index_and_short_prompts() {
        let mut idx = PrefixIndex::new(2);
        assert!(idx.lookup(&[1, 2, 3]).is_none());
        let mut p = pool();
        let bs = blocks(&mut p, 1);
        idx.insert(&mut p, &[1, 2], &bs, &None);
        // A prompt equal to the indexed prefix must NOT fully match — one
        // token is always left to feed.
        assert!(idx.lookup(&[1, 2]).is_none());
        assert!(idx.lookup(&[1, 3, 9]).is_none(), "different chunk");
    }

    #[test]
    fn lookup_returns_longest_capped_prefix() {
        let mut idx = PrefixIndex::new(2);
        let mut p = pool();
        let bs = blocks(&mut p, 3);
        idx.insert(&mut p, &[1, 2], &bs[..1], &None);
        idx.insert(&mut p, &[1, 2, 3, 4], &bs[..2], &None);
        idx.insert(&mut p, &[1, 2, 3, 4, 5, 6], &bs[..3], &None);
        let m = idx.lookup(&[1, 2, 3, 4, 9]).expect("two-block hit");
        assert_eq!(m.tokens, 4);
        assert_eq!(m.blocks, bs[..2].to_vec());
        // Prompt continues past the deepest node but the last chunk differs.
        let m = idx.lookup(&[1, 2, 3, 4, 7, 6, 0]).expect("partial hit");
        assert_eq!(m.tokens, 4);
        // Full six-token path matches only when a 7th token remains.
        let m = idx.lookup(&[1, 2, 3, 4, 5, 6, 7]).expect("deep hit");
        assert_eq!(m.tokens, 6);
        assert_eq!(m.blocks.len(), 3);
    }

    #[test]
    fn insert_is_idempotent_and_pins_once() {
        let mut idx = PrefixIndex::new(2);
        let mut p = pool();
        let bs = blocks(&mut p, 1);
        idx.insert(&mut p, &[5, 6], &bs, &None);
        assert_eq!(p.refs(bs[0]), 2, "caller + index");
        // Re-inserting the same prefix (another request racing the same
        // template) keeps the first block and takes no extra reference.
        let other = blocks(&mut p, 1);
        idx.insert(&mut p, &[5, 6], &other, &None);
        assert_eq!(p.refs(bs[0]), 2);
        assert_eq!(p.refs(other[0]), 1, "duplicate insert is dropped");
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn evict_lru_takes_cold_unpinned_leaves_first() {
        let mut idx = PrefixIndex::new(2);
        let mut p = pool();
        let a = blocks(&mut p, 1);
        let b = blocks(&mut p, 2);
        idx.insert(&mut p, &[1, 2], &a, &None);
        idx.insert(&mut p, &[3, 4, 5, 6], &b, &None);
        // Only the index holds these now.
        p.release(a[0]);
        p.release(b[0]);
        p.release(b[1]);
        // Touch the [1,2] path so the [3,4,..] leaf is colder.
        assert!(idx.lookup(&[1, 2, 9]).is_some());
        let freed = idx.evict_lru(&mut p).expect("cold leaf evictable");
        assert_eq!(freed, 2);
        assert_eq!(idx.evicted_blocks(), 1);
        assert_eq!(idx.lookup(&[3, 4, 5, 6, 9]).map(|m| m.tokens), Some(2));
        // Interior [3,4] node became a leaf; next eviction takes it, then
        // the hot root.
        assert!(idx.evict_lru(&mut p).is_some());
        assert!(idx.evict_lru(&mut p).is_some());
        assert!(idx.evict_lru(&mut p).is_none(), "index drained");
        assert_eq!(p.live_blocks(), 0);
    }

    #[test]
    fn pinned_blocks_are_not_evictable() {
        let mut idx = PrefixIndex::new(2);
        let mut p = pool();
        let a = blocks(&mut p, 1);
        idx.insert(&mut p, &[1, 2], &a, &None);
        // Caller still holds a reference (a live sequence uses the block).
        assert!(idx.evict_lru(&mut p).is_none());
        p.release(a[0]);
        assert!(idx.evict_lru(&mut p).is_some());
    }

    #[test]
    fn tags_partition_the_index_into_disjoint_namespaces() {
        let mut idx = PrefixIndex::new(2);
        let mut p = pool();
        let a = blocks(&mut p, 1);
        let b = blocks(&mut p, 1);
        idx.insert_in(&mut p, 1, &[1, 2], &a);
        idx.insert_in(&mut p, 2, &[1, 2], &b);
        // Identical tokens, different tag → different trees, different
        // blocks: a request under bundle 2 must never adopt bundle 1's KV.
        assert_eq!(idx.len(), 2);
        let m1 = idx.lookup_in(1, &[1, 2, 9]).expect("tag-1 hit");
        let m2 = idx.lookup_in(2, &[1, 2, 9]).expect("tag-2 hit");
        assert_eq!(m1.blocks, a);
        assert_eq!(m2.blocks, b);
        assert!(idx.lookup_in(3, &[1, 2, 9]).is_none(), "unknown tag misses");
        // Untagged API is namespace 0, not a union view.
        assert!(idx.lookup(&[1, 2, 9]).is_none());
    }

    #[test]
    fn eviction_unlinks_tagged_roots() {
        let mut idx = PrefixIndex::new(2);
        let mut p = pool();
        let a = blocks(&mut p, 1);
        let b = blocks(&mut p, 1);
        idx.insert_in(&mut p, 7, &[1, 2], &a);
        idx.insert_in(&mut p, 8, &[1, 2], &b);
        p.release(a[0]);
        p.release(b[0]);
        // The tag-7 root is colder; it goes first, and its removal must not
        // disturb the tag-8 tree sharing the same chunk key.
        assert!(idx.lookup_in(8, &[1, 2, 9]).is_some());
        assert!(idx.evict_lru(&mut p).is_some());
        assert!(idx.lookup_in(7, &[1, 2, 9]).is_none());
        assert_eq!(idx.lookup_in(8, &[1, 2, 9]).map(|m| m.blocks), Some(b));
        assert!(idx.evict_lru(&mut p).is_some());
        assert!(idx.evict_lru(&mut p).is_none());
        assert_eq!(p.live_blocks(), 0);
    }

    #[test]
    fn clear_releases_everything() {
        let mut idx = PrefixIndex::new(2);
        let mut p = pool();
        let b = blocks(&mut p, 2);
        idx.insert(&mut p, &[1, 2, 3, 4], &b, &None);
        p.release(b[0]);
        p.release(b[1]);
        idx.clear(&mut p);
        assert_eq!(idx.len(), 0);
        assert_eq!(p.live_blocks(), 0);
        assert_eq!(idx.evicted_blocks(), 2);
    }
}
