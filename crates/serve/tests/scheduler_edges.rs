//! Scheduler edge cases: idle steps, budget rejections, cancellation
//! mid-decode, deadline expiry during chunked prefill, queue backpressure,
//! priority ordering, and prefix-cache chunking under InfuserKI.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use infuserki_core::{InfuserKiConfig, InfuserKiMethod};
use infuserki_nn::{sampler, ModelConfig, NoHook, TransformerLm};
use infuserki_serve::{
    GenerateSpec, McqSpec, Outcome, RejectReason, Request, RequestKind, Response, Scheduler,
    ServeConfig,
};
use infuserki_tensor::kernels;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn model() -> TransformerLm {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    TransformerLm::new(ModelConfig::tiny(30), &mut rng)
}

fn gen(prompt: Vec<usize>, max_new: usize) -> RequestKind {
    RequestKind::Generate(GenerateSpec::greedy(prompt, max_new, None))
}

fn submit(sched: &mut Scheduler<'_>, id: u64, kind: RequestKind) -> mpsc::Receiver<Response> {
    let (tx, rx) = mpsc::channel();
    sched.enqueue(Request::new(id, kind, tx));
    rx
}

#[test]
fn empty_queue_step_is_an_idle_no_op() {
    let m = model();
    let mut sched = Scheduler::new(&m, NoHook, ServeConfig::default()).unwrap();
    for _ in 0..3 {
        let report = sched.step();
        assert!(!report.ran_forward);
        assert_eq!(report.active_lanes, 0);
        assert_eq!(report.queue_depth, 0);
    }
    assert!(!sched.has_work());
    assert_eq!(sched.snapshot().idle_steps, 3);
}

#[test]
fn request_larger_than_whole_budget_is_rejected_not_hung() {
    let m = model();
    let cfg = ServeConfig {
        kv_budget_rows: 4,
        // Single-row blocks make the reservation exact (no rounding).
        block_rows: 1,
        ..ServeConfig::default()
    };
    let mut sched = Scheduler::new(&m, NoHook, cfg).unwrap();
    // Needs min(3 + 10, 32) = 13 rows against a 4-row budget.
    let rx = submit(&mut sched, 0, gen(vec![1, 2, 3], 10));
    match rx.try_recv().unwrap().outcome {
        Outcome::Rejected(RejectReason::BudgetExceeded { cost, budget }) => {
            assert_eq!(cost, 13);
            assert_eq!(budget, 4);
        }
        other => panic!("unexpected outcome {other:?}"),
    }
    // The scheduler stays healthy: an admissible request still runs.
    let rx = submit(&mut sched, 1, gen(vec![1], 2));
    sched.run_until_idle();
    assert!(matches!(
        rx.try_recv().unwrap().outcome,
        Outcome::Generated { .. }
    ));
}

#[test]
fn oversized_mcq_is_rejected_with_budget_breakdown() {
    let m = model();
    let cfg = ServeConfig {
        kv_budget_rows: 8,
        // Single-row blocks make the reservation exact (no rounding).
        block_rows: 1,
        ..ServeConfig::default()
    };
    let mut sched = Scheduler::new(&m, NoHook, cfg).unwrap();
    // Branch phase: 4 shared prompt rows + two branches owning 4 option
    // rows each (prompt+option-1 = 8 rows, minus the 4 shared) = 12 > 8.
    let rx = submit(
        &mut sched,
        0,
        RequestKind::Mcq(McqSpec {
            prompt: vec![1, 2, 3, 4],
            options: vec![vec![5, 6, 7, 8, 9], vec![7, 8, 9, 10, 11]],
        }),
    );
    assert!(matches!(
        rx.try_recv().unwrap().outcome,
        Outcome::Rejected(RejectReason::BudgetExceeded {
            cost: 12,
            budget: 8
        })
    ));
}

#[test]
fn cancellation_mid_decode_retires_the_lane() {
    kernels::set_num_threads(1);
    let m = model();
    let mut sched = Scheduler::new(&m, NoHook, ServeConfig::default()).unwrap();
    let (tx, rx) = mpsc::channel();
    let req = Request::new(0, gen(vec![1, 2], 20), tx);
    let cancel = req.cancel.clone();
    sched.enqueue(req);
    // Admit + prefill, then at least one decode step.
    sched.step();
    sched.step();
    assert!(rx.try_recv().is_err(), "request should still be running");
    cancel.cancel();
    sched.step();
    assert_eq!(rx.try_recv().unwrap().outcome, Outcome::Cancelled);
    assert!(!sched.has_work(), "cancelled lane must leave the batch");
    assert_eq!(sched.snapshot().cancelled, 1);
}

#[test]
fn cancellation_while_queued_never_runs() {
    let m = model();
    let cfg = ServeConfig {
        max_batch: 1,
        ..ServeConfig::default()
    };
    let mut sched = Scheduler::new(&m, NoHook, cfg).unwrap();
    let _rx0 = submit(&mut sched, 0, gen(vec![1], 3));
    let (tx, rx1) = mpsc::channel();
    let req = Request::new(1, gen(vec![2], 3), tx);
    let cancel = req.cancel.clone();
    sched.enqueue(req);
    cancel.cancel();
    sched.run_until_idle();
    assert_eq!(rx1.try_recv().unwrap().outcome, Outcome::Cancelled);
    // A queued death is its own metric: the request never touched the
    // batch, so the generic in-flight counter must stay untouched.
    let snap = sched.snapshot();
    assert_eq!(snap.cancelled_queued, 1);
    assert_eq!(snap.cancelled, 0);
}

#[test]
fn expiry_while_queued_counts_apart_from_in_flight_expiry() {
    kernels::set_num_threads(1);
    let m = model();
    let cfg = ServeConfig {
        max_batch: 1,
        ..ServeConfig::default()
    };
    let mut sched = Scheduler::new(&m, NoHook, cfg).unwrap();
    // Request 0 occupies the single slot; request 1 waits in the queue
    // with a deadline that trips before a slot frees.
    let _rx0 = submit(&mut sched, 0, gen(vec![1], 6));
    let (tx, rx1) = mpsc::channel();
    let req = Request::new(1, gen(vec![2], 3), tx)
        .with_deadline(Instant::now() + Duration::from_millis(1));
    sched.enqueue(req);
    std::thread::sleep(Duration::from_millis(5));
    sched.run_until_idle();
    assert_eq!(rx1.try_recv().unwrap().outcome, Outcome::Expired);
    let snap = sched.snapshot();
    assert_eq!(snap.expired_queued, 1, "died in the queue, not in flight");
    assert_eq!(snap.expired, 0);
    assert_eq!(snap.completed, 1, "the running request still finished");
}

#[test]
fn deadline_expiry_during_chunked_prefill() {
    kernels::set_num_threads(1);
    let m = model();
    // One-token chunks: a 12-token prompt needs 12 prefill steps, so the
    // deadline trips while the request is still mid-prefill.
    let cfg = ServeConfig {
        prefill_chunk: 1,
        ..ServeConfig::default()
    };
    let mut sched = Scheduler::new(&m, NoHook, cfg).unwrap();
    let (tx, rx) = mpsc::channel();
    let prompt: Vec<usize> = (1..13).collect();
    let req = Request::new(0, gen(prompt, 4), tx)
        .with_deadline(Instant::now() + Duration::from_millis(5));
    sched.enqueue(req);
    sched.step(); // admit + first prefill chunk
    assert!(sched.has_work());
    std::thread::sleep(Duration::from_millis(10));
    sched.step(); // sweep sees the expired deadline
    assert_eq!(rx.try_recv().unwrap().outcome, Outcome::Expired);
    assert!(!sched.has_work());
    assert_eq!(sched.snapshot().expired, 1);
}

#[test]
fn queue_full_is_typed_backpressure() {
    let m = model();
    let cfg = ServeConfig {
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let mut sched = Scheduler::new(&m, NoHook, cfg).unwrap();
    let _rx0 = submit(&mut sched, 0, gen(vec![1], 2));
    let rx1 = submit(&mut sched, 1, gen(vec![2], 2));
    assert!(matches!(
        rx1.try_recv().unwrap().outcome,
        Outcome::Rejected(RejectReason::QueueFull { capacity: 1 })
    ));
}

#[test]
fn priority_beats_arrival_order() {
    kernels::set_num_threads(1);
    let m = model();
    let cfg = ServeConfig {
        max_batch: 1,
        ..ServeConfig::default()
    };
    let mut sched = Scheduler::new(&m, NoHook, cfg).unwrap();
    let (tx0, rx0) = mpsc::channel();
    sched.enqueue(Request::new(0, gen(vec![1], 2), tx0));
    let (tx1, rx1) = mpsc::channel();
    sched.enqueue(Request::new(1, gen(vec![2], 2), tx1).with_priority(5));
    // One slot: the high-priority late arrival must finish first.
    let mut finish_order = Vec::new();
    while sched.has_work() {
        sched.step();
        if finish_order.len() < 2 {
            if !finish_order.contains(&1) && rx1.try_recv().is_ok() {
                finish_order.push(1);
            }
            if !finish_order.contains(&0) && rx0.try_recv().is_ok() {
                finish_order.push(0);
            }
        }
    }
    assert_eq!(finish_order, vec![1, 0]);
}

#[test]
fn dropped_scheduler_answers_everything_it_holds() {
    kernels::set_num_threads(1);
    let m = model();
    let cfg = ServeConfig {
        max_batch: 1,
        ..ServeConfig::default()
    };
    let mut sched = Scheduler::new(&m, NoHook, cfg).unwrap();
    let rxs: Vec<_> = (0..3)
        .map(|i| submit(&mut sched, i, gen(vec![1 + i as usize], 8)))
        .collect();
    sched.step(); // request 0 admitted, requests 1 and 2 queued
    assert!(rxs.iter().all(|rx| rx.try_recv().is_err()));
    drop(sched);
    for rx in &rxs {
        assert_eq!(
            rx.try_recv().unwrap().outcome,
            Outcome::Rejected(RejectReason::ReplicaFailed)
        );
    }
}

#[test]
fn drain_rejects_queued_but_finishes_running() {
    kernels::set_num_threads(1);
    let m = model();
    let cfg = ServeConfig {
        max_batch: 1,
        ..ServeConfig::default()
    };
    let mut sched = Scheduler::new(&m, NoHook, cfg).unwrap();
    let rx0 = submit(&mut sched, 0, gen(vec![1], 2));
    let rx1 = submit(&mut sched, 1, gen(vec![2], 2));
    sched.step(); // request 0 admitted, request 1 queued
    sched.begin_drain();
    sched.reject_queued_for_shutdown();
    sched.run_until_idle();
    assert!(matches!(
        rx0.try_recv().unwrap().outcome,
        Outcome::Generated { .. }
    ));
    assert!(matches!(
        rx1.try_recv().unwrap().outcome,
        Outcome::Rejected(RejectReason::ShuttingDown)
    ));
    // New submissions during drain are turned away.
    let rx2 = submit(&mut sched, 2, gen(vec![3], 2));
    assert!(matches!(
        rx2.try_recv().unwrap().outcome,
        Outcome::Rejected(RejectReason::ShuttingDown)
    ));
}

/// A 64-token-context model under a nudged InfuserKI hook.
fn infuserki_model() -> (TransformerLm, InfuserKiMethod) {
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let m = TransformerLm::new(
        ModelConfig {
            max_seq: 64,
            ..ModelConfig::tiny(30)
        },
        &mut rng,
    );
    let mut c = InfuserKiConfig::for_model(m.n_layers());
    c.bottleneck = 4;
    c.infuser_hidden = 4;
    c.rc_dim = 8;
    let mut hook = InfuserKiMethod::new(c, &m, 5);
    hook.visit_adapters_mut(&mut |p| {
        for (i, w) in p.data_mut().data_mut().iter_mut().enumerate() {
            *w += 0.01 * ((i % 7) as f32 - 3.0);
        }
    });
    (m, hook)
}

/// 16-row blocks and 32-token chunks.
fn block_cfg() -> ServeConfig {
    ServeConfig {
        block_rows: 16,
        prefill_chunk: 32,
        ..ServeConfig::default()
    }
}

/// InfuserKI through the prefix cache at 16-row blocks and 32-token chunks:
/// a 40-token prompt prefills in two steps and indexes both of its block
/// boundaries, and requests sharing its first 32 or 16 tokens adopt those
/// blocks — with the gate sums they hold — and answer exactly what the
/// single-sequence sampler does.
#[test]
fn infuserki_prefill_indexes_every_boundary_and_adopters_stay_bitwise() {
    kernels::set_num_threads(1);
    let (m, hook) = infuserki_model();
    let mut sched = Scheduler::new(&m, hook.clone(), block_cfg()).unwrap();
    let tokens = |r: &Response| match &r.outcome {
        Outcome::Generated { tokens } => tokens.clone(),
        other => panic!("unexpected outcome {other:?}"),
    };

    let first: Vec<usize> = (0..40).map(|i| (i * 7 + 3) % 30).collect();
    let rx = submit(&mut sched, 0, gen(first.clone(), 1));
    let mut steps = 0;
    let resp = loop {
        sched.step();
        steps += 1;
        if let Ok(r) = rx.try_recv() {
            break r;
        }
    };
    assert_eq!(steps, 2, "32 + 8 tokens, one block-aligned cut");
    assert_eq!(
        tokens(&resp),
        sampler::greedy_decode(&m, &hook, &first, 1, None)
    );

    // Shares both blocks, then diverges.
    let second: Vec<usize> = first[..32].iter().chain(&[5, 6, 7, 8]).copied().collect();
    // Shares the first block only.
    let third: Vec<usize> = first[..20].iter().chain(&[9, 9, 9]).copied().collect();
    for (id, prompt, adopted) in [(1, &second, 32), (2, &third, 16)] {
        let hits_before = sched.snapshot().prefix_hit_tokens;
        let rx = submit(&mut sched, id, gen(prompt.clone(), 6));
        sched.run_until_idle();
        assert_eq!(sched.snapshot().prefix_hit_tokens - hits_before, adopted);
        assert_eq!(
            tokens(&rx.try_recv().unwrap()),
            sampler::greedy_decode(&m, &hook, prompt, 6, None),
            "request {id}"
        );
    }
    kernels::set_num_threads(0);
}

/// The MCQ lane machine at 16-row blocks and 32-token chunks: a 40-token
/// prompt prefills in two steps (32 + 8, cut at the block boundary), the
/// 1-token option is scored from the prompt's last row, and the 11-token
/// option's 10-token branch script crosses position 48 in one step, because
/// branches are not cut. An MCQ sharing the first 32 prompt tokens adopts
/// them.
#[test]
fn infuserki_mcq_prompt_is_cut_at_blocks_and_branches_are_not() {
    kernels::set_num_threads(1);
    let (m, hook) = infuserki_model();
    let mut sched = Scheduler::new(&m, hook.clone(), block_cfg()).unwrap();
    let prompt: Vec<usize> = (0..40).map(|i| (i * 11 + 5) % 30).collect();
    let options = vec![vec![7], (0..11).map(|i| (i * 3 + 1) % 30).collect()];
    let mcq = |prompt: &[usize]| {
        RequestKind::Mcq(McqSpec {
            prompt: prompt.to_vec(),
            options: options.clone(),
        })
    };
    let bits = |r: &Response| -> Vec<u32> {
        match &r.outcome {
            Outcome::McqScored { scores, .. } => scores.iter().map(|s| s.to_bits()).collect(),
            other => panic!("unexpected outcome {other:?}"),
        }
    };
    let want = |prompt: &[usize]| -> Vec<u32> {
        sampler::score_options(&m, &hook, prompt, &options)
            .iter()
            .map(|s| s.to_bits())
            .collect()
    };

    let rx = submit(&mut sched, 0, mcq(&prompt));
    let mut steps = 0;
    let resp = loop {
        sched.step();
        steps += 1;
        if let Ok(r) = rx.try_recv() {
            break r;
        }
    };
    assert_eq!(
        steps, 3,
        "32 + 8 prompt tokens, then one 10-token branch step"
    );
    assert_eq!(bits(&resp), want(&prompt));

    let second: Vec<usize> = prompt[..32].iter().chain(&[2, 4, 6]).copied().collect();
    let hits_before = sched.snapshot().prefix_hit_tokens;
    let rx = submit(&mut sched, 1, mcq(&second));
    sched.run_until_idle();
    assert_eq!(sched.snapshot().prefix_hit_tokens - hits_before, 32);
    assert_eq!(bits(&rx.try_recv().unwrap()), want(&second));
    kernels::set_num_threads(0);
}
