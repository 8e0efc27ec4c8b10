//! The base language model: a decoder-only transformer with a weight-tied LM
//! head and learned positional embeddings.

use std::fs;
use std::path::Path;

use infuserki_obs as obs;
use infuserki_tensor::op::IGNORE_INDEX;
use infuserki_tensor::{Matrix, NodeId, Param, QuantSpec, SeqBatch, Tape, TensorError};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::block::TransformerBlock;
use crate::block_alloc::PoolHandle;
use crate::exec::{Exec, Paged, Val};
use crate::hooks::{ForwardTrace, LayerHook};
use crate::kv_cache::KvCache;
use crate::layers::{Embedding, LayerNorm, Module};
use crate::ModelConfig;

/// Block size for caches created without an explicit pool (standalone
/// sampler / beam-search paths). Serving chooses its own via
/// `ServeConfig::block_rows`.
pub const DEFAULT_BLOCK_ROWS: usize = 32;

/// Cached global-registry handles for the incremental engine: every
/// prefill/decode funnels through [`TransformerLm::extend_cached_batch`],
/// so this is the one place engine latency and KV occupancy are measured.
struct EngineMetrics {
    prefill_ms: std::sync::Arc<obs::Histogram>,
    decode_ms: std::sync::Arc<obs::Histogram>,
    prefill_tokens: std::sync::Arc<obs::Counter>,
    decode_tokens: std::sync::Arc<obs::Counter>,
    /// Live K/V rows of the most recently advanced cache.
    kv_rows_live: std::sync::Arc<obs::Gauge>,
    /// High-water mark of `kv_rows_live` over the process lifetime.
    kv_rows_peak: std::sync::Arc<obs::Gauge>,
}

fn engine_metrics() -> &'static EngineMetrics {
    static M: std::sync::OnceLock<EngineMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let g = obs::global();
        EngineMetrics {
            prefill_ms: g.histogram("engine.prefill_ms"),
            decode_ms: g.histogram("engine.decode_ms"),
            prefill_tokens: g.counter("engine.prefill_tokens"),
            decode_tokens: g.counter("engine.decode_tokens"),
            kv_rows_live: g.gauge("engine.kv_rows_live"),
            kv_rows_peak: g.gauge("engine.kv_rows_peak"),
        }
    })
}

/// Decoder-only transformer LM ("SmolLM" in the reproduction's DESIGN.md).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransformerLm {
    cfg: ModelConfig,
    tok_embed: Embedding,
    pos_embed: Embedding,
    blocks: Vec<TransformerBlock>,
    ln_f: LayerNorm,
}

impl TransformerLm {
    /// Builds a freshly initialized model.
    ///
    /// # Panics
    /// Panics if the config is invalid.
    pub fn new(cfg: ModelConfig, rng: &mut impl Rng) -> Self {
        cfg.validate().expect("invalid ModelConfig");
        let blocks = (0..cfg.n_layers)
            .map(|l| TransformerBlock::new(l, &cfg, rng))
            .collect();
        TransformerLm {
            tok_embed: Embedding::new("tok_embed", cfg.vocab_size, cfg.d_model, cfg.init_std, rng),
            pos_embed: Embedding::new("pos_embed", cfg.max_seq, cfg.d_model, cfg.init_std, rng),
            ln_f: LayerNorm::new("ln_f", cfg.d_model, cfg.ln_eps),
            blocks,
            cfg,
        }
    }

    /// The architecture config.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.cfg.n_layers
    }

    /// The blocks (read access for method wiring).
    pub fn blocks(&self) -> &[TransformerBlock] {
        &self.blocks
    }

    /// Mutable blocks (weight quantization for QLoRA).
    pub fn blocks_mut(&mut self) -> &mut [TransformerBlock] {
        &mut self.blocks
    }

    /// The forward, written once: token and position embeddings, the blocks
    /// under `hook`, the final LayerNorm and the weight-tied head. `e`
    /// decides whether it records a tape or runs eagerly over a cache.
    fn run(&self, ids: &[usize], positions: &[usize], hook: &dyn LayerHook, e: &mut Exec) -> Val {
        let te = self.tok_embed.forward(ids, e);
        let pe = self.pos_embed.forward(positions, e);
        let mut x = e.add(te, &pe);
        for block in &self.blocks {
            x = block.forward(x, hook, e);
        }
        let h = self.ln_f.forward(&x, e);
        e.tied_head(&h, self.tok_embed.table())
    }

    /// Full forward pass on the tape, with hooks and trace capture.
    ///
    /// Returns the `[n, vocab]` logits node. `tokens` must be non-empty and
    /// no longer than `max_seq`.
    pub fn forward_traced(
        &self,
        tokens: &[usize],
        hook: &dyn LayerHook,
        tape: &mut Tape,
        trace: &mut ForwardTrace,
    ) -> NodeId {
        assert!(!tokens.is_empty(), "forward: empty token sequence");
        assert!(
            tokens.len() <= self.cfg.max_seq,
            "forward: sequence {} exceeds max_seq {}",
            tokens.len(),
            self.cfg.max_seq
        );
        let positions: Vec<usize> = (0..tokens.len()).collect();
        let mut e = Exec::tape(tape);
        e.swap_trace(trace);
        let logits = self.run(tokens, &positions, hook, &mut e).node();
        e.swap_trace(trace);
        logits
    }

    /// Forward pass discarding the trace.
    pub fn forward(&self, tokens: &[usize], hook: &dyn LayerHook, tape: &mut Tape) -> NodeId {
        let mut trace = ForwardTrace::new();
        self.forward_traced(tokens, hook, tape, &mut trace)
    }

    /// Builds an empty KV cache for incremental decoding with `hook`.
    pub fn new_cache(&self, hook: &dyn LayerHook) -> KvCache {
        self.new_cache_batch(hook, 1)
    }

    /// Builds an empty KV cache over `n_seqs` independent sequences.
    pub fn new_cache_batch(&self, hook: &dyn LayerHook, n_seqs: usize) -> KvCache {
        let pool = self.new_pool(DEFAULT_BLOCK_ROWS);
        KvCache::new(self.cfg.n_layers, self.cfg.d_model, hook, n_seqs, pool)
    }

    /// A fresh block pool sized for this model. A serving scheduler creates
    /// one pool and builds every cache over it so blocks (and therefore
    /// prefixes) can be shared across requests.
    pub fn new_pool(&self, block_rows: usize) -> PoolHandle {
        PoolHandle::new(self.cfg.n_layers, self.cfg.d_model, block_rows)
    }

    /// Builds an empty cache over an existing (shared) block pool — the
    /// serving path, where admission, MCQ fan-out and the prefix index all
    /// trade blocks through one pool.
    pub fn new_cache_in(&self, hook: &dyn LayerHook, pool: PoolHandle) -> KvCache {
        KvCache::new(self.cfg.n_layers, self.cfg.d_model, hook, 1, pool)
    }

    /// Widest per-layer prefix-tuning K/V block `hook` prepends to a
    /// sequence's cache (0 for hooks without prefixes). Admission control
    /// adds this to a request's prompt + decode budget when charging it
    /// against a KV-row budget, since every cached sequence pays it.
    pub fn max_prefix_rows(&self, hook: &dyn LayerHook) -> usize {
        let mut e = Exec::eager();
        (0..self.cfg.n_layers)
            .filter_map(|l| hook.prefix_kv(l, &mut e).map(|(k, _)| k.into_mat().rows()))
            .max()
            .unwrap_or(0)
    }

    /// Runs a chunk of `tokens` through the model incrementally, appending
    /// their K/V rows to `cache`. Returns the `[chunk, vocab]` logits of the
    /// new positions — bitwise identical (at one kernel thread) to the
    /// corresponding rows of a full [`Self::forward`] over the whole cached
    /// sequence. Batch-of-1 wrapper over [`Self::extend_cached_batch`].
    pub fn extend_cached(
        &self,
        tokens: &[usize],
        hook: &dyn LayerHook,
        cache: &mut KvCache,
    ) -> Matrix {
        assert_eq!(cache.n_seqs(), 1, "extend_cached on a batched cache");
        self.extend_cached_batch(&[tokens], hook, cache)
    }

    /// Advances every sequence of a batched cache by its own chunk
    /// (`chunks[i]` extends sequence `i`; chunks may have different lengths
    /// but must all be non-empty). Returns the packed
    /// `[sum(chunk lens), vocab]` logits of the new positions, laid out per
    /// `SeqBatch::from_lens(chunk lens)` — each sequence's rows bitwise
    /// identical (at one kernel thread) to extending it alone.
    pub fn extend_cached_batch<S: AsRef<[usize]>>(
        &self,
        chunks: &[S],
        hook: &dyn LayerHook,
        cache: &mut KvCache,
    ) -> Matrix {
        assert_eq!(
            chunks.len(),
            cache.n_seqs(),
            "extend_cached_batch: {} chunks for a {}-sequence cache",
            chunks.len(),
            cache.n_seqs()
        );
        assert!(
            chunks.iter().all(|c| !c.as_ref().is_empty()),
            "extend_cached: empty chunk"
        );
        let lens: Vec<usize> = chunks.iter().map(|c| c.as_ref().len()).collect();
        // One token per sequence = a decode step; anything longer is prefill.
        let is_decode = lens.iter().all(|&l| l == 1);
        let _sp = obs::enabled().then(|| {
            obs::span(if is_decode {
                "engine.decode_step"
            } else {
                "engine.prefill_chunk"
            })
        });
        let t0 = std::time::Instant::now();
        let batch = SeqBatch::from_lens(&lens);
        let mut ids = Vec::with_capacity(batch.total_rows());
        let mut positions = Vec::with_capacity(batch.total_rows());
        for (i, chunk) in chunks.iter().enumerate() {
            let chunk = chunk.as_ref();
            let start = cache.tokens_of(i);
            assert!(
                start + chunk.len() <= self.cfg.max_seq,
                "extend_cached: sequence {} exceeds max_seq {}",
                start + chunk.len(),
                self.cfg.max_seq
            );
            ids.extend_from_slice(chunk);
            positions.extend(start..start + chunk.len());
        }
        let logits = {
            // One pool lock for the whole forward: make every sequence's
            // append span writable (copy-on-write shared partial tails,
            // allocate fresh tail blocks), then run the model eagerly over
            // the shared prefix panels and block tables.
            let pool_handle = cache.pool.clone();
            let mut pool = pool_handle.lock();
            for (seq, &len) in cache.seqs.iter_mut().zip(&lens) {
                seq.prepare_append(&mut pool, len);
            }
            let mut e = Exec::paged(Paged {
                batch: &batch,
                pool: &mut pool,
                seqs: &cache.seqs,
                prefix: &cache.prefix,
            });
            self.run(&ids, &positions, hook, &mut e).into_mat()
        };
        for (seq, len) in cache.seqs.iter_mut().zip(&lens) {
            seq.tokens += len;
        }
        let em = engine_metrics();
        let new_tokens: usize = lens.iter().sum();
        if is_decode {
            em.decode_ms.record_duration(t0.elapsed());
            em.decode_tokens.add(new_tokens as u64);
        } else {
            em.prefill_ms.record_duration(t0.elapsed());
            em.prefill_tokens.add(new_tokens as u64);
        }
        let rows = cache.rows_used() as i64;
        em.kv_rows_live.set(rows);
        em.kv_rows_peak.set_max(rows);
        logits
    }

    /// Prefills a fresh cache with `tokens` and returns it together with the
    /// prompt logits.
    pub fn prefill(&self, tokens: &[usize], hook: &dyn LayerHook) -> (KvCache, Matrix) {
        let mut cache = self.new_cache(hook);
        let logits = self.extend_cached(tokens, hook, &mut cache);
        (cache, logits)
    }

    /// Prefills a fresh batched cache with one prompt per sequence,
    /// returning it with the packed prompt logits (layout per
    /// `SeqBatch::from_lens(prompt lens)`).
    pub fn prefill_batch<S: AsRef<[usize]>>(
        &self,
        prompts: &[S],
        hook: &dyn LayerHook,
    ) -> (KvCache, Matrix) {
        let mut cache = self.new_cache_batch(hook, prompts.len());
        let logits = self.extend_cached_batch(prompts, hook, &mut cache);
        (cache, logits)
    }

    /// Decodes one token against the cache, returning its `[1, vocab]`
    /// logits row.
    pub fn decode_step(&self, token: usize, hook: &dyn LayerHook, cache: &mut KvCache) -> Matrix {
        self.extend_cached(&[token], hook, cache)
    }

    /// Decodes one token per sequence against a batched cache, returning the
    /// `[n_seqs, vocab]` logits (row `i` for sequence `i`).
    pub fn decode_step_batch(
        &self,
        tokens: &[usize],
        hook: &dyn LayerHook,
        cache: &mut KvCache,
    ) -> Matrix {
        let chunks: Vec<&[usize]> = tokens.iter().map(std::slice::from_ref).collect();
        self.extend_cached_batch(&chunks, hook, cache)
    }

    /// Tape-free full forward over several sequences at once: prefills a
    /// throwaway batched cache and returns the packed logits. The batched
    /// counterpart of evaluating [`Self::forward`] per sequence.
    pub fn forward_batch<S: AsRef<[usize]>>(
        &self,
        seqs: &[S],
        hook: &dyn LayerHook,
    ) -> (Matrix, SeqBatch) {
        let lens: Vec<usize> = seqs.iter().map(|s| s.as_ref().len()).collect();
        let (_, logits) = self.prefill_batch(seqs, hook);
        (logits, SeqBatch::from_lens(&lens))
    }

    /// Next-token cross-entropy over a sequence: position `i` predicts
    /// `targets[i]`; use [`IGNORE_INDEX`] to mask prompt positions.
    ///
    /// `targets.len()` must equal `tokens.len()`.
    pub fn lm_loss(
        &self,
        tokens: &[usize],
        targets: &[usize],
        hook: &dyn LayerHook,
        tape: &mut Tape,
    ) -> NodeId {
        assert_eq!(tokens.len(), targets.len(), "lm_loss: length mismatch");
        let logits = self.forward(tokens, hook, tape);
        tape.cross_entropy(logits, targets)
    }

    /// Convenience: teacher-forced loss where the model must produce
    /// `completion` after `prompt`. Builds the shifted target vector.
    pub fn completion_loss(
        &self,
        prompt: &[usize],
        completion: &[usize],
        hook: &dyn LayerHook,
        tape: &mut Tape,
    ) -> NodeId {
        let (tokens, targets) = completion_sample(prompt, completion);
        self.lm_loss(&tokens, &targets, hook, tape)
    }

    /// Saves the model (config + all parameters) as JSON, each tensor as
    /// base64 of its `f32` bits ([`infuserki_tensor::Matrix`]'s format).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TensorError> {
        let json = serde_json::to_string(self).expect("model serialization cannot fail");
        if let Some(dir) = path.as_ref().parent() {
            fs::create_dir_all(dir)
                .map_err(|e| TensorError::Io(format!("create {}: {e}", dir.display())))?;
        }
        fs::write(&path, json)
            .map_err(|e| TensorError::Io(format!("write {}: {e}", path.as_ref().display())))
    }

    /// Loads a model saved by [`save`](Self::save). Filesystem failures map
    /// to [`TensorError::Io`], malformed or invalid checkpoints to
    /// [`TensorError::Corrupt`], including one saved before tensors were
    /// base64, whose error says to re-save it.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TensorError> {
        let json = fs::read_to_string(&path)
            .map_err(|e| TensorError::Io(format!("read {}: {e}", path.as_ref().display())))?;
        let model: TransformerLm = serde_json::from_str(&json)
            .map_err(|e| TensorError::Corrupt(format!("parse checkpoint: {e}")))?;
        model.cfg.validate().map_err(TensorError::Corrupt)?;
        Ok(model)
    }

    /// Loads a model and immediately quantizes its frozen base
    /// ([`Self::quantize_frozen_base`]) — the int8 inference load path.
    pub fn load_quantized(path: impl AsRef<Path>, spec: QuantSpec) -> Result<Self, TensorError> {
        let mut model = Self::load(path)?;
        model.quantize_frozen_base(spec);
        Ok(model)
    }

    /// Quantizes the frozen base's attention and FFN projections to packed
    /// int8 blocks for fused dequant-matmul inference; embeddings, LayerNorms
    /// and the tied LM head stay f32 (as in QLoRA), and adapters/gates added
    /// by hooks are untouched — they are trainable and must remain exact.
    /// Each projection's `w` is replaced by its dequantized values, so tape
    /// forwards over this model see the same numbers the fused kernels fold.
    /// Returns the number of quantized projections. Inference-only contract:
    /// quantize after all weight mutation (training/loading) is done.
    pub fn quantize_frozen_base(&mut self, spec: QuantSpec) -> usize {
        let mut count = 0;
        for block in self.blocks_mut() {
            for lin in block.attn_mut().projections_mut() {
                lin.quantize_frozen(spec);
                count += 1;
            }
            for lin in block.ffn_mut().projections_mut() {
                lin.quantize_frozen(spec);
                count += 1;
            }
        }
        count
    }

    /// Whether [`Self::quantize_frozen_base`] has run (checks the first
    /// attention projection — quantization is always all-or-nothing).
    pub fn is_quantized(&self) -> bool {
        self.blocks
            .first()
            .is_some_and(|b| b.attn().wq().is_quantized())
    }
}

impl Module for TransformerLm {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.tok_embed.visit(f);
        self.pos_embed.visit(f);
        for b in &self.blocks {
            b.visit(f);
        }
        self.ln_f.visit(f);
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.tok_embed.visit_mut(f);
        self.pos_embed.visit_mut(f);
        for b in &mut self.blocks {
            b.visit_mut(f);
        }
        self.ln_f.visit_mut(f);
    }
}

/// Builds `(tokens, targets)` for teacher forcing: the model sees
/// `prompt ++ completion[..-1]` and must predict each completion token;
/// prompt positions are masked with [`IGNORE_INDEX`].
pub fn completion_sample(prompt: &[usize], completion: &[usize]) -> (Vec<usize>, Vec<usize>) {
    assert!(
        !completion.is_empty(),
        "completion_sample: empty completion"
    );
    let mut tokens = Vec::with_capacity(prompt.len() + completion.len() - 1);
    tokens.extend_from_slice(prompt);
    tokens.extend_from_slice(&completion[..completion.len() - 1]);
    let mut targets = vec![IGNORE_INDEX; tokens.len()];
    for (i, &tok) in completion.iter().enumerate() {
        targets[prompt.len() - 1 + i] = tok;
    }
    (tokens, targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHook;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn model() -> TransformerLm {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        TransformerLm::new(ModelConfig::tiny(40), &mut rng)
    }

    #[test]
    fn forward_logits_shape() {
        let m = model();
        let mut t = Tape::new();
        let y = m.forward(&[1, 2, 3], &NoHook, &mut t);
        assert_eq!(t.value(y).shape(), (3, 40));
    }

    #[test]
    fn trace_covers_all_layers() {
        let m = model();
        let mut t = Tape::new();
        let mut trace = ForwardTrace::new();
        m.forward_traced(&[1, 2], &NoHook, &mut t, &mut trace);
        assert_eq!(trace.ffn_inputs.len(), 2);
        assert_eq!(trace.block_outputs.len(), 2);
    }

    #[test]
    fn completion_sample_alignment() {
        let (tokens, targets) = completion_sample(&[10, 11], &[20, 21]);
        assert_eq!(tokens, vec![10, 11, 20]);
        assert_eq!(targets, vec![IGNORE_INDEX, 20, 21]);
    }

    #[test]
    fn lm_loss_is_finite_scalar() {
        let m = model();
        let mut t = Tape::new();
        let loss = m.completion_loss(&[1, 2], &[3, 4], &NoHook, &mut t);
        let v = t.value(loss).scalar_value();
        assert!(v.is_finite() && v > 0.0);
    }

    #[test]
    fn training_signal_reaches_params() {
        let mut m = model();
        let mut t = Tape::new();
        let loss = m.completion_loss(&[1, 2], &[3], &NoHook, &mut t);
        t.backward(loss);
        let grads = t.grads();
        let mut with_grad = 0;
        m.visit_mut(&mut |p| {
            if grads.get(p.id()).is_some() {
                with_grad += 1;
            }
        });
        // Every parameter should receive gradient (tied embeddings included).
        assert_eq!(with_grad, {
            let mut total = 0;
            m.visit(&mut |_| total += 1);
            total
        });
    }

    #[test]
    fn save_load_round_trip_preserves_logits() {
        let m = model();
        let dir = std::env::temp_dir().join("infuserki_test_ckpt");
        let path = dir.join("model.json");
        m.save(&path).unwrap();
        let loaded = TransformerLm::load(&path).unwrap();
        let mut t1 = Tape::new();
        let mut t2 = Tape::new();
        let a = m.forward(&[1, 2, 3], &NoHook, &mut t1);
        let b = loaded.forward(&[1, 2, 3], &NoHook, &mut t2);
        assert_eq!(t1.value(a).data(), t2.value(b).data());
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Tape logits (`h @ Eᵀ` by `matmul_bt`) of the whole sequence.
    fn tape_logits(m: &TransformerLm, tokens: &[usize]) -> Matrix {
        let mut t = Tape::new();
        let y = m.forward(tokens, &NoHook, &mut t);
        t.value(y).clone()
    }

    /// One SGD-like pass over every parameter, embedding included.
    fn nudge(m: &mut TransformerLm) {
        m.visit_mut(&mut |p| {
            for (i, w) in p.data_mut().data_mut().iter_mut().enumerate() {
                *w += 0.01 * ((i % 7) as f32 - 3.0);
            }
        });
    }

    #[test]
    fn cached_lm_head_is_bitwise_the_tape_head() {
        // Vocabularies off and on the 16-column strip width, and the row
        // counts of a decode step, a short chunk and a ragged prefill.
        for vocab in [50usize, 106, 500, 2048] {
            let mut rng = ChaCha8Rng::seed_from_u64(vocab as u64);
            let m = TransformerLm::new(ModelConfig::tiny(vocab), &mut rng);
            for n in [1usize, 5, 17] {
                let tokens: Vec<usize> = (0..n).map(|i| (i * 31 + 7) % vocab).collect();
                let (_, cached) = m.prefill(&tokens, &NoHook);
                assert_eq!(
                    cached.data(),
                    tape_logits(&m, &tokens).data(),
                    "vocab {vocab} n {n}"
                );
            }
        }
    }

    #[test]
    fn lm_head_follows_parameter_updates_and_reloads() {
        // The table's transpose lives on its `Param` (see the tensor crate's
        // `param` tests); here the logits must follow every route that
        // changes or replaces the embedding.
        let mut m = model();
        let tokens = [1usize, 2, 3, 4];
        let (_, before) = m.prefill(&tokens, &NoHook);

        // A clone shares the built table: updating the clone must not leave
        // either model multiplying by the other's embedding.
        let mut tuned = m.clone();
        nudge(&mut tuned);
        let (_, after) = tuned.prefill(&tokens, &NoHook);
        assert_eq!(after.data(), tape_logits(&tuned, &tokens).data());
        assert_ne!(
            after.data(),
            before.data(),
            "logits follow the new embedding"
        );
        let (_, again) = m.prefill(&tokens, &NoHook);
        assert_eq!(again.data(), before.data(), "the original is untouched");

        // The same through the owner itself: step, then forward.
        nudge(&mut m);
        let (_, stepped) = m.prefill(&tokens, &NoHook);
        assert_eq!(stepped.data(), after.data());

        // A loaded model rebuilds the table from the saved embedding.
        let dir = std::env::temp_dir().join(format!("infuserki_lmhead_{}", std::process::id()));
        let path = dir.join("model.json");
        m.save(&path).unwrap();
        let loaded = TransformerLm::load(&path).unwrap();
        let (_, reloaded) = loaded.prefill(&tokens, &NoHook);
        assert_eq!(reloaded.data(), stepped.data());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn load_missing_path_is_io_error() {
        let err = TransformerLm::load("/nonexistent/infuserki/model.json").unwrap_err();
        assert!(matches!(err, TensorError::Io(_)), "{err}");
    }

    #[test]
    fn load_garbage_is_corrupt_error() {
        let dir = std::env::temp_dir().join(format!("infuserki_badckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{not json").unwrap();
        let err = TransformerLm::load(&path).unwrap_err();
        assert!(matches!(err, TensorError::Corrupt(_)), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn forward_batch_packs_per_sequence_logits() {
        let m = model();
        let (logits, batch) = m.forward_batch(&[vec![1, 2, 3], vec![4, 5]], &NoHook);
        assert_eq!(batch.n_seqs(), 2);
        assert_eq!(logits.shape(), (5, 40));
        assert_eq!(batch.range(1), 3..5);
    }

    #[test]
    fn decode_step_batch_returns_one_row_per_sequence() {
        let m = model();
        let (mut cache, _) = m.prefill_batch(&[vec![1, 2], vec![3, 4, 5]], &NoHook);
        let logits = m.decode_step_batch(&[6, 7], &NoHook, &mut cache);
        assert_eq!(logits.shape(), (2, 40));
        assert_eq!(cache.tokens_of(0), 3);
        assert_eq!(cache.tokens_of(1), 4);
    }

    #[test]
    #[should_panic(expected = "exceeds max_seq")]
    fn forward_rejects_overlong_input() {
        let m = model();
        let mut t = Tape::new();
        let tokens = vec![0usize; m.config().max_seq + 1];
        m.forward(&tokens, &NoHook, &mut t);
    }
}
