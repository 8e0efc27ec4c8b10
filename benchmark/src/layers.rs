//! The one seam between the benchmark and the product's crates.
//!
//! Every in-process call into `crates/*` lives in this file: building the
//! fixture the `serve` binary is started on, recomputing reference outputs
//! for the output check, and the per-layer probes. End-to-end numbers never
//! come from here — they are taken over the `serve`/`kg_ingest` CLIs and the
//! JSONL wire only. When the client planes are collapsed (ROADMAP item 3) a
//! follow-up re-points this one file.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use infuserki_core::{
    detect_unknown, GateProbe, InfuserKiConfig, InfuserKiMethod, KiDataset, KnowledgeBundle,
    McqBank, TrainConfig,
};
use infuserki_eval::downstream::one_hop_question;
use infuserki_eval::world::build_vocabulary;
use infuserki_ingest::{
    probe_from_mcq, recover, BundlePublisher, DurableStore, PipelineConfig, PublishError,
    PublishReport, RoundOutcome, StoreOptions, TripleDelta, UpdatePipeline,
};
use infuserki_kg::{synth_umls, TripleStore, UmlsConfig};
use infuserki_nn::{sampler, LayerHook, ModelConfig, NoHook, TransformerLm};
use infuserki_obs as obs;
use infuserki_router::{spawn_router, RouterConfig};
use infuserki_serve::{spawn_scheduler, Outcome, ServeConfig};
use infuserki_tensor::{init, kernels, simd, Isa, Matrix, Param, QuantSpec, QuantizedMatrix, Tape};
use infuserki_text::Tokenizer;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::inputs::{Body, Request};
use crate::trace::Recorder;

/// KG size of the benchmark world (the ISSUE's 300-triple UMLS sample).
pub const N_TRIPLETS: usize = 300;
/// Bundle versions the fixture writes (`bundle_v1.json`, `bundle_v2.json`).
pub const N_BUNDLES: usize = 2;
/// NR-gate probes each fixture bundle carries.
const GATE_PROBES: usize = 8;

/// One bank MCQ as wire tokens.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMcq {
    pub prompt: Vec<usize>,
    pub options: Vec<Vec<usize>>,
}

/// A `(subject, relation, object)` fact by name.
pub type Fact = (String, String, String);

/// What the input generators need to know about the world, as plain data.
#[derive(Debug, Clone)]
pub struct WorldInfo {
    pub vocab_size: usize,
    /// Every bank MCQ (5 templates × triples), template-major.
    pub mcqs: Vec<WireMcq>,
    /// `question : … answer :` prompts, one per triple.
    pub open_prompts: Vec<Vec<usize>>,
    /// The world's own facts, in store order (the WAL baseline starts here).
    pub facts: Vec<Fact>,
    /// In-vocabulary facts absent from the world: WAL filler first, then the
    /// update rounds' novel facts. Deterministic order.
    pub novel_facts: Vec<Fact>,
}

/// The in-memory fixture: world, frozen base and the two bundles.
pub struct Fixture {
    pub info: WorldInfo,
    store: TripleStore,
    tokenizer: Tokenizer,
    base: TransformerLm,
    bundles: Vec<KnowledgeBundle>,
}

/// Files the server is started on.
#[derive(Debug, Clone)]
pub struct FixtureFiles {
    pub model: PathBuf,
    pub bundles: Vec<PathBuf>,
    pub tokenizer: PathBuf,
    pub pipeline_cfg: PathBuf,
    pub bundle_dir: PathBuf,
}

/// Moves every adapter/infuser weight off its identity init, seeded, so the
/// hook does real arithmetic with version-specific values (a swap changes
/// served tokens) without any training.
fn nudge(method: &mut InfuserKiMethod, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut bump = |p: &mut Param| {
        for w in p.data_mut().data_mut() {
            *w += rng.gen_range(-0.05f32..0.05);
        }
    };
    method.visit_adapters_mut(&mut bump);
    method.visit_infusers_mut(&mut bump);
}

/// The update pipeline's per-round schedule. Sized (with
/// `workloads::ROUND_FACTS`) so a round is a good second of detect + three
/// training phases on the 12-layer base; see README "Calibration".
fn round_train_config() -> TrainConfig {
    TrainConfig {
        epochs_infuser: 2,
        epochs_qa: 4,
        epochs_rc: 1,
        lr: 3e-3,
        lr_infuser: 2e-2,
        batch: 4,
        seed: 11,
    }
}

impl Fixture {
    /// Builds the world, a seeded random-init base at the world geometry
    /// (no pre-training: kernel time does not depend on weight values) and
    /// two nudged InfuserKI bundles.
    pub fn build(seed: u64) -> Fixture {
        let store = synth_umls(&UmlsConfig::with_triplets(N_TRIPLETS, seed));
        let tokenizer = build_vocabulary(&store);
        let triples = store.triples().to_vec();
        let bank = McqBank::build(&store, &triples, seed ^ 0xba7c);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xba5e);
        let base = TransformerLm::new(
            ModelConfig {
                vocab_size: tokenizer.vocab_size(),
                ..ModelConfig::default()
            },
            &mut rng,
        );
        let mcqs: Vec<WireMcq> = (0..infuserki_text::templates::N_QA_TEMPLATES)
            .flat_map(|tpl| bank.template(tpl).iter())
            .map(|m| {
                let p = probe_from_mcq(m, &tokenizer);
                WireMcq {
                    prompt: p.prompt,
                    options: p.options,
                }
            })
            .collect();
        let fact = |t: &infuserki_kg::Triple| {
            (
                store.entity_name(t.head).to_string(),
                store.relation_name(t.relation).to_string(),
                store.entity_name(t.tail).to_string(),
            )
        };
        let open_prompts = triples
            .iter()
            .map(|t| {
                let (s, r, _) = fact(t);
                tokenizer
                    .encode_strict(&format!("question : {} answer :", one_hop_question(&r, &s)))
            })
            .collect();
        // Gate probes make every `promote` score the NR gate for real. A
        // version must never be refused (no operation of a workload may
        // fail), so each bundle's probes are keyed to its own answers: it
        // scores 8/8 and whatever is active scores at most that.
        let probes: Vec<GateProbe> = bank.template(0)[..GATE_PROBES]
            .iter()
            .map(|m| probe_from_mcq(m, &tokenizer))
            .collect();
        let bundles = (1..=N_BUNDLES as u64)
            .map(|v| {
                let mut method = InfuserKiMethod::new(
                    InfuserKiConfig::for_model(base.n_layers()),
                    &base,
                    store.n_relations(),
                );
                nudge(&mut method, seed ^ (v << 32));
                let gate_probes = probes
                    .iter()
                    .map(|p| GateProbe {
                        correct: mcq_answer(&base, &method.hook(), &p.prompt, &p.options).1,
                        ..p.clone()
                    })
                    .collect();
                KnowledgeBundle::new(format!("bench-v{v}"), method, &base, None, gate_probes)
                    .expect("bundle builds against the fixture base")
            })
            .collect();
        let info = WorldInfo {
            vocab_size: tokenizer.vocab_size(),
            mcqs,
            open_prompts,
            facts: triples.iter().map(fact).collect(),
            novel_facts: novel_facts(&store),
        };
        Fixture {
            info,
            store,
            tokenizer,
            base,
            bundles,
        }
    }

    /// Writes model, bundles, tokenizer and pipeline config under `dir`.
    pub fn write(&self, dir: &Path) -> Result<FixtureFiles, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let files = FixtureFiles {
            model: dir.join("model.json"),
            bundles: (1..=self.bundles.len())
                .map(|v| dir.join(format!("bundle_v{v}.json")))
                .collect(),
            tokenizer: dir.join("tokenizer.json"),
            pipeline_cfg: dir.join("pipeline.json"),
            bundle_dir: dir.join("published"),
        };
        self.base.save(&files.model).map_err(|e| e.to_string())?;
        for (b, path) in self.bundles.iter().zip(&files.bundles) {
            b.save(path)?;
        }
        let write = |path: &Path, json: String| {
            std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))
        };
        write(
            &files.tokenizer,
            serde_json::to_string(&self.tokenizer).map_err(|e| e.to_string())?,
        )?;
        let _ = std::fs::remove_dir_all(&files.bundle_dir);
        let pcfg = self.pipeline_config(&files.bundle_dir);
        write(
            &files.pipeline_cfg,
            serde_json::to_string(&pcfg).map_err(|e| e.to_string())?,
        )?;
        Ok(files)
    }

    fn pipeline_config(&self, bundle_dir: &Path) -> PipelineConfig {
        PipelineConfig {
            min_batch: crate::workloads::ROUND_FACTS,
            max_age_ms: 120_000,
            poll_ms: 20,
            // Rounds publish ungated. Whether a freshly trained method beats
            // the previous version on a handful of probes is a property of
            // the method, not of speed, and it does fail by chance (5/8 vs
            // 6/8 was seen); no operation of a workload may fail. The gated
            // promote is measured on fleet_open_mixed instead.
            max_gate_probes: 0,
            carry_probes: 0,
            max_relations: self.store.n_relations().max(32),
            bundle_dir: bundle_dir.display().to_string(),
            name_prefix: "bench".to_string(),
            train: round_train_config(),
            ..PipelineConfig::default()
        }
    }

    /// Loads the bundles the server's update pipeline published under `dir`
    /// (`bench-r<round>.json`), in round order, and returns the version ids
    /// [`reference`](Self::reference) knows them by.
    pub fn load_published(&mut self, dir: &Path) -> Result<Vec<usize>, String> {
        let mut rounds: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
            .map_err(|e| format!("read {}: {e}", dir.display()))?
            .filter_map(|e| Some(e.ok()?.path()))
            .filter_map(|p| {
                let round = p
                    .file_name()?
                    .to_str()?
                    .strip_prefix("bench-r")?
                    .strip_suffix(".json")?;
                Some((round.parse().ok()?, p.clone()))
            })
            .collect();
        rounds.sort();
        let mut versions = Vec::new();
        for (_, path) in rounds {
            self.bundles.push(KnowledgeBundle::load(&path)?);
            versions.push(self.bundles.len());
        }
        Ok(versions)
    }

    fn hook(&self, version: usize) -> Box<dyn LayerHook + '_> {
        match version {
            0 => Box::new(NoHook),
            v => Box::new(self.bundles[v - 1].method.hook()),
        }
    }

    /// Recomputes one request with the single-sequence sampler under bundle
    /// `version`'s hook (0 = bare base) — the reference the wire output must
    /// equal bitwise at one kernel thread.
    pub fn reference(&self, req: &Request, version: usize) -> Expected {
        let hook = self.hook(version);
        match &req.body {
            Body::Generate { prompt, max_new } => Expected::Tokens(sampler::greedy_decode(
                &self.base, &*hook, prompt, *max_new, None,
            )),
            Body::Mcq { prompt, options } => {
                let (scores, best) = mcq_answer(&self.base, &*hook, prompt, options);
                Expected::Mcq { scores, best }
            }
        }
    }
}

/// Scores an MCQ the way the scheduler's gate and MCQ lanes do: summed
/// option log-likelihoods, best by length-normalised probability.
fn mcq_answer(
    base: &TransformerLm,
    hook: &dyn LayerHook,
    prompt: &[usize],
    options: &[Vec<usize>],
) -> (Vec<f32>, usize) {
    let scores = sampler::score_options(base, hook, prompt, options);
    let lens: Vec<usize> = options.iter().map(Vec::len).collect();
    let best = sampler::argmax(&sampler::option_probabilities(&scores, &lens));
    (scores, best)
}

/// The reference outcome of one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    Tokens(Vec<usize>),
    Mcq { scores: Vec<f32>, best: usize },
}

/// Facts over the world's own names that the world does not hold: every
/// entity paired with later entities under the first relation (the
/// `watch_kg_e2e` recipe), so the tokenizer can phrase all of them.
fn novel_facts(store: &TripleStore) -> Vec<Fact> {
    let names: Vec<&str> = store.entity_names().collect();
    let rel = store.relation_ids()[0];
    let rel_name = store.relation_name(rel);
    let mut out = Vec::new();
    for stride in 1..names.len() {
        for i in 0..names.len() - stride {
            let (s, o) = (names[i], names[i + stride]);
            let present = store
                .entity_by_name(s)
                .zip(store.entity_by_name(o))
                .is_some_and(|(h, t)| store.contains(&infuserki_kg::Triple::new(h, rel, t)));
            if !present {
                out.push((s.to_string(), rel_name.to_string(), o.to_string()));
            }
            if out.len() == crate::workloads::WAL_FILLER + 64 * crate::workloads::ROUND_FACTS {
                return out;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Per-layer probes: timed calls into each crate's public functions.
// ---------------------------------------------------------------------------

/// Pins the kernels to one worker thread, as every benchmark server runs
/// (`--threads 1`): in-process numbers then time the code path the server
/// takes, and the output check is bitwise.
pub fn pin_one_kernel_thread() {
    kernels::set_num_threads(1);
}

/// The ISA tier the kernels dispatch to on this host.
pub fn isa_tier() -> &'static str {
    simd::active_isa().name()
}

/// Median of timed samples: one untimed warm-up call, then samples until
/// `budget` is spent (at least five). `f` times its own critical section,
/// so per-sample set-up stays outside the number.
fn sample_median(budget: Duration, mut f: impl FnMut() -> Duration) -> f64 {
    f();
    let start = Instant::now();
    let mut xs = Vec::new();
    while xs.len() < 5 || start.elapsed() < budget {
        xs.push(f().as_secs_f64());
    }
    crate::stats::median(&xs).expect("at least five samples")
}

/// Medians of two timed closures sampled in turn, so that a host that
/// speeds up or slows down while they run does so under both: what the
/// ratio metrics are made of.
fn paired_medians(
    budget: Duration,
    mut a: impl FnMut() -> Duration,
    mut b: impl FnMut() -> Duration,
) -> (f64, f64) {
    a();
    b();
    let start = Instant::now();
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    while xs.len() < 5 || start.elapsed() < 2 * budget {
        xs.push(a().as_secs_f64());
        ys.push(b().as_secs_f64());
    }
    (
        crate::stats::median(&xs).expect("at least five samples"),
        crate::stats::median(&ys).expect("at least five samples"),
    )
}

/// Seconds per call of `f`, each sample timing `reps` back-to-back calls
/// (for work too short for one timer read).
fn per_call(budget: Duration, reps: u32, mut f: impl FnMut()) -> f64 {
    sample_median(budget, || {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        t.elapsed()
    }) / f64::from(reps)
}

const SHORT: Duration = Duration::from_millis(40);
const LONG: Duration = Duration::from_millis(150);

type Metrics = std::collections::BTreeMap<String, f64>;

fn put(m: &mut Metrics, name: &str, v: f64) {
    m.insert(name.to_string(), v);
}

fn tensor_probes(vocab: usize, m: &mut Metrics) {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut matmul_s = |rows: usize, inner: usize, cols: usize| {
        let a = init::normal(rows, inner, 0.5, &mut rng);
        let b = init::normal(inner, cols, 0.5, &mut rng);
        let mut out = Matrix::zeros(rows, cols);
        let s = per_call(SHORT, 20, || kernels::matmul_into(&a, &b, &mut out, false));
        std::hint::black_box(out.get(0, 0));
        (s, a, b)
    };
    let (decode_s, x, w) = matmul_s(16, 64, 192);
    put(m, "tensor.matmul_decode_us", decode_s * 1e6);
    put(
        m,
        "tensor.matmul_lmhead_us",
        matmul_s(16, 64, vocab).0 * 1e6,
    );
    put(
        m,
        "tensor.matmul_prefill_us",
        matmul_s(128, 64, 192).0 * 1e6,
    );
    let flops = 2.0 * 256f64.powi(3);
    put(
        m,
        "tensor.matmul_256_gflops",
        flops / matmul_s(256, 256, 256).0 / 1e9,
    );

    // The two ratios: twenty calls of each side per sample, sides in turn.
    let out = std::cell::RefCell::new(Matrix::zeros(16, 192));
    let timed = |isa: Option<Isa>, f: &dyn Fn(&mut Matrix)| {
        simd::set_isa(isa);
        let t = Instant::now();
        for _ in 0..20 {
            f(&mut out.borrow_mut());
        }
        t.elapsed()
    };
    let f32_matmul = |out: &mut Matrix| kernels::matmul_into(&x, &w, out, false);
    let (simd_s, scalar_s) = paired_medians(
        SHORT,
        || timed(None, &f32_matmul),
        || timed(Some(Isa::Scalar), &f32_matmul),
    );
    simd::set_isa(None);
    put(m, "tensor.simd_vs_scalar_ratio", scalar_s / simd_s);
    let q = QuantizedMatrix::quantize(&w, QuantSpec::default());
    let (f32_s, q_s) = paired_medians(
        SHORT,
        || timed(None, &f32_matmul),
        || timed(None, &|out: &mut Matrix| q.matmul_into(&x, out, false)),
    );
    std::hint::black_box(out.borrow().get(0, 0));
    put(m, "tensor.qmatmul_vs_f32_ratio", f32_s / q_s);
}

impl Fixture {
    fn prompt(&self, len: usize, salt: u64) -> Vec<usize> {
        let mut rng = ChaCha8Rng::seed_from_u64(salt);
        (0..len)
            .map(|_| rng.gen_range(2..self.info.vocab_size))
            .collect()
    }

    fn nn_probes(&self, m: &mut Metrics) {
        let base = &self.base;
        let hook = self.bundles[0].method.hook();
        let long = self.prompt(48, 2);
        let prefill = |h: &dyn LayerHook| {
            let t = Instant::now();
            std::hint::black_box(base.prefill(&long, h).1.get(0, 0));
            t.elapsed()
        };
        let (prefill_hook, prefill_bare) =
            paired_medians(LONG, || prefill(&hook), || prefill(&NoHook));
        put(
            m,
            "nn.prefill_us_per_tok",
            prefill_hook / long.len() as f64 * 1e6,
        );
        put(
            m,
            "nn.hook_prefill_overhead_frac",
            prefill_hook / prefill_bare - 1.0,
        );

        // One decode step over `lanes` sequences sitting at 16 cached tokens
        // each; every sample forks the cache so the position never moves.
        let prompts: Vec<Vec<usize>> = (0..16).map(|i| self.prompt(16, 100 + i)).collect();
        let tokens: Vec<usize> = (0..16).map(|i| 2 + i).collect();
        fn timed_step<'a>(
            model: &'a TransformerLm,
            h: &'a dyn LayerHook,
            prompts: &'a [Vec<usize>],
            tokens: &'a [usize],
        ) -> impl FnMut() -> Duration + 'a {
            let (cache, _) = model.prefill_batch(prompts, h);
            move || {
                let mut c = cache.fork();
                let t = Instant::now();
                std::hint::black_box(model.decode_step_batch(tokens, h, &mut c).get(0, 0));
                t.elapsed()
            }
        }
        let step =
            |model, h, lanes: usize| timed_step(model, h, &prompts[..lanes], &tokens[..lanes]);
        let (b16, b16_bare) = paired_medians(LONG, step(base, &hook, 16), step(base, &NoHook, 16));
        let mut quantized = base.clone();
        quantized.quantize_frozen_base(QuantSpec::default());
        let (b1, b1_quant) = paired_medians(LONG, step(base, &hook, 1), step(&quantized, &hook, 1));
        put(m, "nn.decode_step_us_b1", b1 * 1e6);
        put(m, "nn.decode_step_us_b16", b16 * 1e6);
        put(m, "nn.hook_decode_overhead_frac", b16 / b16_bare - 1.0);
        put(m, "nn.quant_decode_vs_f32_ratio", b1 / b1_quant);
        let lmhead_us = m["tensor.matmul_lmhead_us"];
        put(m, "nn.lmhead_share_est", lmhead_us / (b16 * 1e6));
        // Raw hooked 16-lane decode rate, the scheduler's ceiling.
        put(m, "nn.raw_b16_tok_per_s", 16.0 / b16);

        let greedy_s = sample_median(LONG, || {
            let t = Instant::now();
            std::hint::black_box(sampler::greedy_decode(base, &hook, &prompts[0], 32, None));
            t.elapsed()
        });
        put(m, "nn.greedy_tok_per_s", 32.0 / greedy_s);
        let q = &self.info.mcqs[0];
        let score_s = sample_median(LONG, || {
            let t = Instant::now();
            std::hint::black_box(sampler::score_options(base, &hook, &q.prompt, &q.options));
            t.elapsed()
        });
        put(m, "nn.score_options_us", score_s * 1e6);

        // Radix lookups over 256 indexed two-block prompts (the size the
        // 4 096-row budget holds at block 16).
        let mut pool = infuserki_nn::BlockPool::new(base.n_layers(), base.config().d_model, 16);
        let mut index = infuserki_nn::PrefixIndex::new(16);
        let keys: Vec<Vec<usize>> = (0..256).map(|i| self.prompt(40, 500 + i)).collect();
        for k in &keys {
            let blocks = [pool.alloc(), pool.alloc()];
            index.insert(&mut pool, &k[..16], &blocks[..1], &None);
            index.insert(&mut pool, &k[..32], &blocks, &None);
        }
        let mut i = 0;
        let lookup_s = per_call(SHORT, 64, || {
            i = (i + 1) % keys.len();
            std::hint::black_box(index.lookup(&keys[i]).map(|p| p.tokens));
        });
        put(m, "nn.prefix_lookup_us", lookup_s * 1e6);

        let (tokens, targets) = infuserki_nn::model::completion_sample(&long[..40], &long[40..]);
        let step = sample_median(LONG, || {
            let t = Instant::now();
            let mut tape = Tape::new();
            let loss = base.lm_loss(&tokens, &targets, &hook, &mut tape);
            tape.backward(loss);
            t.elapsed()
        });
        put(m, "tensor.train_step_ms", step * 1e3);
    }

    /// Closed loop of 16 in-flight requests straight into `spawn_scheduler`
    /// (no wire), and one-token round trips through the in-process `Client`
    /// and a one-replica `RouterClient`.
    fn serve_probes(&self, requests: &[Request], m: &mut Metrics) {
        let cfg = ServeConfig {
            threads: Some(1),
            ..ServeConfig::default()
        };
        let method = self.bundles[0].method.clone();
        let (client, handle) = spawn_scheduler(self.base.clone(), method.clone(), cfg.clone())
            .expect("scheduler spawns");
        let mut stream = requests.iter().cycle().filter_map(|r| match &r.body {
            Body::Generate { prompt, max_new } => Some((prompt.clone(), *max_new)),
            Body::Mcq { .. } => None,
        });
        let mut submit = || {
            let (prompt, max_new) = stream.next().expect("gen_decode inputs hold generates");
            client
                .generate(prompt, max_new, None)
                .expect("submit accepted")
        };
        let mut in_flight: std::collections::VecDeque<_> = (0..16).map(|_| submit()).collect();
        let (start, mut tokens) = (Instant::now(), 0usize);
        while start.elapsed() < Duration::from_secs(1) {
            match in_flight.pop_front().expect("window is full").wait() {
                Ok(Outcome::Generated { tokens: t }) => tokens += t.len(),
                other => panic!("in-process generate failed: {other:?}"),
            }
            in_flight.push_back(submit());
        }
        let rate = tokens as f64 / start.elapsed().as_secs_f64();
        for h in in_flight {
            let _ = h.wait();
        }
        put(m, "serve.inproc_tok_per_s", rate);
        put(
            m,
            "serve.sched_efficiency",
            rate / m["nn.raw_b16_tok_per_s"],
        );

        // One one-token request straight into the scheduler and one through
        // a one-replica router, in turn: the difference is the router's.
        let one = self.prompt(12, 9);
        let base = self.base.clone();
        let rcfg = RouterConfig {
            replicas: 1,
            serve: cfg,
            ..RouterConfig::default()
        };
        let mut pair = Some((base, method));
        let (router, rhandle) =
            spawn_router(rcfg, move |_| pair.take().expect("one replica")).expect("router spawns");
        let (direct, routed) = paired_medians(
            LONG,
            || {
                let t = Instant::now();
                let _ = client
                    .generate(one.clone(), 1, None)
                    .expect("submit accepted")
                    .wait();
                t.elapsed()
            },
            || {
                let kind = infuserki_serve::RequestKind::Generate(
                    infuserki_serve::GenerateSpec::greedy(one.clone(), 1, None),
                );
                let t = Instant::now();
                let _ = router
                    .submit(kind, Default::default(), None)
                    .expect("submit accepted")
                    .wait();
                t.elapsed()
            },
        );
        put(m, "serve.inproc_one_token_ms", direct * 1e3);
        handle.shutdown();
        rhandle.shutdown();
        put(m, "router.dispatch_overhead_us", (routed - direct) * 1e6);
    }

    fn core_probes(&self, scratch: &Path, m: &mut Metrics) {
        let hook = self.bundles[0].method.hook();
        let bank = McqBank::build(&self.store, &self.store.triples()[..32], 5);
        let detect_s = sample_median(LONG, || {
            let t = Instant::now();
            std::hint::black_box(detect_unknown(
                &self.base,
                &hook,
                &self.tokenizer,
                bank.template(0),
            ));
            t.elapsed()
        });
        put(m, "core.detect_mcq_per_s", 32.0 / detect_s);

        // One epoch of each phase on eight unknown facts, the round's shape.
        let unknown: Vec<usize> = (0..ROUND).collect();
        let known: Vec<usize> = (ROUND..2 * ROUND).collect();
        let data = KiDataset::build(&self.store, &bank, &self.tokenizer, &known, &unknown, 3);
        let tc = TrainConfig {
            epochs_infuser: 1,
            epochs_qa: 1,
            epochs_rc: 1,
            ..round_train_config()
        };
        let samples = data.infuser.len() + data.qa.len() + data.rc.len();
        let mut method = self.bundles[0].method.clone();
        let t = Instant::now();
        infuserki_core::train_infuserki(&self.base, &mut method, &data, &tc);
        put(
            m,
            "core.train_samples_per_s",
            samples as f64 / t.elapsed().as_secs_f64(),
        );

        let path = scratch.join("probe_bundle.json");
        let save_s = sample_median(SHORT, || {
            let t = Instant::now();
            self.bundles[0].save(&path).expect("bundle saves");
            t.elapsed()
        });
        let load_s = sample_median(SHORT, || {
            let t = Instant::now();
            std::hint::black_box(KnowledgeBundle::load(&path).expect("bundle loads").format);
            t.elapsed()
        });
        put(m, "core.bundle_save_ms", save_s * 1e3);
        put(m, "core.bundle_load_ms", load_s * 1e3);
    }

    /// WAL append and recovery at the workload's size, and one whole update
    /// round in process against a publisher that accepts everything.
    fn ingest_probes(&self, scratch: &Path, m: &mut Metrics) {
        struct Accept;
        impl BundlePublisher for Accept {
            fn publish(&self, _: &Path) -> Result<PublishReport, PublishError> {
                Ok(PublishReport { version: 1 })
            }
        }
        let wal = scratch.join("probe_wal");
        let _ = std::fs::remove_dir_all(&wal);
        let opts = StoreOptions {
            sync_every: 64,
            snapshot_every: 0,
            functional: false,
        };
        let baseline = self
            .info
            .facts
            .iter()
            .chain(&self.info.novel_facts[..crate::workloads::WAL_FILLER]);
        let mut ds = DurableStore::open(&wal, opts.clone()).expect("wal dir opens");
        let t = Instant::now();
        let mut n = 0usize;
        for (s, r, o) in baseline {
            ds.append(&TripleDelta::add(s.as_str(), r.as_str(), o.as_str()))
                .expect("append");
            n += 1;
        }
        ds.sync().expect("sync");
        put(
            m,
            "ingest.append_us",
            t.elapsed().as_secs_f64() / n as f64 * 1e6,
        );
        let recover_s = sample_median(SHORT, || {
            let t = Instant::now();
            std::hint::black_box(recover(&wal).expect("recovery").state.seq);
            t.elapsed()
        });
        put(m, "ingest.recover_ms", recover_s * 1e3);

        let registry = obs::Registry::new();
        let mut pipe = UpdatePipeline::new(
            self.base.clone(),
            self.tokenizer.clone(),
            &wal,
            self.pipeline_config(&scratch.join("probe_published")),
            Accept,
            &registry,
        )
        .expect("pipeline opens");
        let novel = &self.info.novel_facts[crate::workloads::WAL_FILLER..][..ROUND];
        for (s, r, o) in novel {
            ds.append(&TripleDelta::add(s.as_str(), r.as_str(), o.as_str()))
                .expect("append");
        }
        ds.sync().expect("sync");
        let t = Instant::now();
        let outcome = pipe.run_once().expect("round runs");
        assert!(
            matches!(outcome, RoundOutcome::Published { .. }),
            "round publishes: {outcome:?}"
        );
        put(m, "ingest.round_ms", t.elapsed().as_secs_f64() * 1e3);
    }
}

const ROUND: usize = crate::workloads::ROUND_FACTS;

fn obs_text_probes(fixture: &Fixture, m: &mut Metrics) {
    obs::set_enabled(false);
    let off = per_call(SHORT, 1000, || drop(obs::span("bench.probe")));
    obs::set_enabled(true);
    let on = per_call(SHORT, 1000, || drop(obs::span("bench.probe")));
    obs::set_enabled(false);
    obs::clear_trace();
    put(m, "obs.span_disabled_ns", off * 1e9);
    put(m, "obs.span_enabled_ns", on * 1e9);
    let counter = obs::Registry::new().counter("bench.probe");
    put(
        m,
        "obs.counter_inc_ns",
        per_call(SHORT, 1000, || counter.inc()) * 1e9,
    );
    let text = fixture.tokenizer.decode(&fixture.info.mcqs[0].prompt);
    let encode = per_call(SHORT, 50, || {
        std::hint::black_box(fixture.tokenizer.encode_strict(&text));
    });
    put(m, "text.encode_us_per_prompt", encode * 1e6);
}

/// Runs every probe, each layer inside a span named for it. `requests` are
/// the `gen_decode` inputs; `scratch` is a directory under `benchmark/out`.
pub fn run_probes(
    fixture: &Fixture,
    requests: &[Request],
    scratch: &Path,
    rec: &mut Recorder,
) -> Metrics {
    let mut m = Metrics::new();
    rec.scope("layer.tensor", |_| {
        tensor_probes(fixture.info.vocab_size, &mut m)
    });
    rec.scope("layer.nn", |_| fixture.nn_probes(&mut m));
    rec.scope("layer.serve+router", |_| {
        fixture.serve_probes(requests, &mut m)
    });
    rec.scope("layer.core", |_| fixture.core_probes(scratch, &mut m));
    rec.scope("layer.ingest", |_| fixture.ingest_probes(scratch, &mut m));
    rec.scope("layer.obs+text", |_| obs_text_probes(fixture, &mut m));
    m
}
