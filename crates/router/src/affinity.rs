//! Prefix-affinity hashing: map a prompt's leading block-aligned chunk to
//! a home replica, stably under replica death.
//!
//! The chunk rule mirrors the radix prefix cache (`nn::PrefixIndex`): a
//! prompt of length `L` can have at most `floor((L - 1) / block_rows)`
//! whole blocks cached (at least one token must remain for the request's
//! own logits), so that is exactly the span worth hashing — two prompts
//! that share it will hit each other's cached KV blocks when they land on
//! the same replica. The span is additionally capped at
//! [`AFFINITY_BLOCKS`] blocks so a template and its long continuations agree.
//!
//! Replica choice is rendezvous (highest-random-weight) hashing: each
//! replica scores `mix(chunk_hash, replica)` and the highest live score
//! wins. Unlike modular hashing, removing a dead replica only remaps the
//! prefixes that replica owned — every other template keeps its warm cache.

/// How many leading prompt blocks (of `serve.block_rows` tokens each) at
/// most feed the affinity hash. Longer prompts hash the same leading chunk,
/// so a template and its continuations agree on a home replica.
pub const AFFINITY_BLOCKS: usize = 4;

/// Load slack for affinity dispatch: when the affinity target's outstanding
/// count exceeds the least-loaded replica's by more than this, the request
/// goes least-loaded instead.
pub const IMBALANCE_SLACK: usize = 4;

/// FNV-1a over token ids (each hashed as little-endian `u64` bytes).
pub fn fnv1a64(tokens: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &t in tokens {
        for b in (t as u64).to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// SplitMix64 finalizer: decorrelates the (chunk, replica) pairing.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Length of the hashable chunk of a prompt: the largest multiple of
/// `block_rows` strictly below `prompt_len` (the prefix-cache-indexable
/// span), capped at `max_blocks` whole blocks. 0 means "no affinity" —
/// the prompt is too short to ever share cached blocks.
pub fn chunk_len(prompt_len: usize, block_rows: usize, max_blocks: usize) -> usize {
    if prompt_len == 0 {
        return 0;
    }
    let indexable = (prompt_len - 1) / block_rows * block_rows;
    indexable.min(max_blocks * block_rows)
}

/// Affinity hash of a prompt, if it has a hashable chunk.
pub fn prefix_hash(prompt: &[usize], block_rows: usize, max_blocks: usize) -> Option<u64> {
    let len = chunk_len(prompt.len(), block_rows, max_blocks);
    if len == 0 {
        None
    } else {
        Some(fnv1a64(&prompt[..len]))
    }
}

/// Rendezvous pick: the live replica with the highest mixed weight for
/// `hash`. `None` when no replica is alive.
pub fn rendezvous_pick(hash: u64, alive: &[bool]) -> Option<usize> {
    let mut best: Option<(u64, usize)> = None;
    for (i, &up) in alive.iter().enumerate() {
        if !up {
            continue;
        }
        let w = mix(hash ^ mix(i as u64 + 1));
        if best.is_none_or(|(bw, _)| w > bw) {
            best = Some((w, i));
        }
    }
    best.map(|(_, i)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_len_mirrors_prefix_index_rule() {
        // block_rows 4: a 9-token prompt has 2 whole blocks strictly below
        // its length (8 tokens); an exact multiple keeps one token out.
        assert_eq!(chunk_len(9, 4, 8), 8);
        assert_eq!(chunk_len(8, 4, 8), 4);
        assert_eq!(chunk_len(4, 4, 8), 0);
        assert_eq!(chunk_len(3, 4, 8), 0);
        assert_eq!(chunk_len(0, 4, 8), 0);
        // The cap bounds long prompts to the template-sized chunk.
        assert_eq!(chunk_len(1000, 4, 2), 8);
    }

    #[test]
    fn shared_templates_share_a_hash_and_a_home() {
        let template: Vec<usize> = (0..12).collect();
        let mut a = template.clone();
        a.extend([30, 31]);
        let mut b = template.clone();
        b.extend([7]);
        let ha = prefix_hash(&a, 4, 3).unwrap();
        let hb = prefix_hash(&b, 4, 3).unwrap();
        assert_eq!(ha, hb, "same leading chunk, same hash");
        let alive = vec![true; 4];
        assert_eq!(rendezvous_pick(ha, &alive), rendezvous_pick(hb, &alive));
    }

    #[test]
    fn short_prompts_have_no_affinity() {
        assert_eq!(prefix_hash(&[1, 2, 3], 4, 3), None);
    }

    #[test]
    fn replica_death_only_remaps_the_dead_replicas_prefixes() {
        let alive4 = vec![true; 4];
        let mut alive3 = alive4.clone();
        alive3[2] = false;
        let mut moved = 0;
        let mut stayed = 0;
        for seed in 0..256u64 {
            let prompt: Vec<usize> = (0..16).map(|i| (seed as usize * 31 + i) % 97).collect();
            let h = prefix_hash(&prompt, 4, 4).unwrap();
            let before = rendezvous_pick(h, &alive4).unwrap();
            let after = rendezvous_pick(h, &alive3).unwrap();
            assert_ne!(after, 2, "dead replica never picked");
            if before == 2 {
                moved += 1;
            } else {
                assert_eq!(before, after, "surviving assignments are stable");
                stayed += 1;
            }
        }
        assert!(moved > 0, "some prefixes lived on the dead replica");
        assert!(stayed > moved, "most assignments survive a death");
    }

    #[test]
    fn rendezvous_spreads_across_replicas() {
        let alive = vec![true; 3];
        let mut counts = [0usize; 3];
        for seed in 0..300u64 {
            let prompt: Vec<usize> = (0..8)
                .map(|i| (seed as usize * 131 + i * 7) % 101)
                .collect();
            let h = prefix_hash(&prompt, 4, 2).unwrap();
            counts[rendezvous_pick(h, &alive).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 40, "replica {i} got only {c}/300 assignments");
        }
    }

    #[test]
    fn no_live_replica_yields_none() {
        assert_eq!(rendezvous_pick(42, &[false, false]), None);
        assert_eq!(rendezvous_pick(42, &[]), None);
    }
}
