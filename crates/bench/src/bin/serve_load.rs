//! Serving load series: drives the continuous-batching scheduler at a sweep
//! of offered concurrency levels and reports time-to-first-token percentiles
//! and decode throughput — the numbers quoted in the README's Serving
//! section (not a paper artifact).
//!
//! Closed-loop load: each level keeps exactly `load` requests in flight —
//! every completion immediately submits the next request — until the total
//! request count drains. A fresh scheduler (and metrics reservoir) serves
//! each level.
//!
//! After the sweep, a `swap_under_load` scenario re-runs the closed loop
//! with a knowledge-bundle promote a third of the way in and a rollback at
//! two thirds, reporting TTFT percentiles that span the swaps
//! (informational — hot-swap cost, not steady-state throughput).

use std::collections::VecDeque;
use std::time::Instant;

use infuserki_serve::{demo_model, spawn_scheduler, ControlPlane, Outcome, ServeConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const VOCAB: usize = 64;

fn main() {
    let mut total = 128usize;
    let mut loads: Vec<usize> = vec![1, 4, 16, 64];
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--total" => {
                i += 1;
                total = argv[i].parse().unwrap();
            }
            "--loads" => {
                i += 1;
                loads = argv[i].split(',').map(|s| s.parse().unwrap()).collect();
            }
            other => panic!("unknown arg {other}"),
        }
        i += 1;
    }

    println!("serve load series: demo model, {total} requests per level, greedy max_new 16");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "load", "p50 TTFT ms", "p99 TTFT ms", "wall tok/s", "occupancy", "wall s"
    );
    for &load in &loads {
        let (p50, p99, toks, occ, wall) = run_level(load, total);
        println!("{load:>6} {p50:>12.2} {p99:>12.2} {toks:>12.1} {occ:>10.2} {wall:>10.2}");
    }

    // Hot-swap scenario (informational): same closed loop at load 8, but a
    // knowledge bundle is loaded+promoted a third of the way through and
    // rolled back at two thirds, so the TTFT tail includes the swap cost.
    let swap = run_swap_level(8, total);
    println!("\nswap_under_load: load 8, {total} requests, promote at 1/3, rollback at 2/3");
    println!(
        "  p50 TTFT {:.2} ms, p99 TTFT {:.2} ms, {:.1} wall tok/s, {} swap(s) + {} rollback(s), wall {:.2} s",
        swap.p50, swap.p99, swap.toks, swap.swaps, swap.rollbacks, swap.wall
    );
}

struct SwapReport {
    p50: f64,
    p99: f64,
    toks: f64,
    swaps: u64,
    rollbacks: u64,
    wall: f64,
}

/// Closed loop at `load` with a mid-run bundle promote and a later rollback;
/// every request completes on whichever version it was admitted under.
fn run_swap_level(load: usize, total: usize) -> SwapReport {
    let model = demo_model();
    let bundle = infuserki_bench::swap::demo_bundle_file(&model, "serve_load_swap");
    let (client, handle) = spawn_scheduler(model, infuserki_nn::NoHook, ServeConfig::default())
        .expect("scheduler spawns");
    let mut rng = ChaCha8Rng::seed_from_u64(9100 + load as u64);
    let submit = |rng: &mut ChaCha8Rng| {
        let plen = rng.gen_range(4usize..24);
        let prompt: Vec<usize> = (0..plen).map(|_| rng.gen_range(0..VOCAB)).collect();
        client.generate(prompt, 16, None).expect("submit accepted")
    };

    let started = Instant::now();
    let mut in_flight = VecDeque::new();
    let mut submitted = 0usize;
    while submitted < total.min(load) {
        in_flight.push_back(submit(&mut rng));
        submitted += 1;
    }
    let mut completed = 0usize;
    let mut completed_tokens = 0u64;
    while let Some(h) = in_flight.pop_front() {
        match h.wait().expect("scheduler alive") {
            Outcome::Generated { tokens } => completed_tokens += tokens.len() as u64,
            other => panic!("unexpected outcome {other:?}"),
        }
        completed += 1;
        if completed == total / 3 {
            let info = client
                .load_bundle(bundle.to_string_lossy().as_ref())
                .expect("bundle loads");
            client.promote(info.version).expect("bundle promotes");
        } else if completed == 2 * total / 3 {
            client.rollback().expect("rollback succeeds");
        }
        if submitted < total {
            in_flight.push_back(submit(&mut rng));
            submitted += 1;
        }
    }
    let wall = started.elapsed().as_secs_f64();
    handle.shutdown();
    let _ = std::fs::remove_file(&bundle);
    let snap = client.metrics();
    assert_eq!(snap.completed as usize, total);
    SwapReport {
        p50: snap.ttft_p50_ms,
        p99: snap.ttft_p99_ms,
        toks: completed_tokens as f64 / wall,
        swaps: snap.bundle_swaps,
        rollbacks: snap.bundle_rollbacks,
        wall,
    }
}

/// Runs one closed-loop level; returns (p50 TTFT ms, p99 TTFT ms,
/// wall-clock decode tokens/sec, mean lane occupancy, wall seconds).
fn run_level(load: usize, total: usize) -> (f64, f64, f64, f64, f64) {
    let (client, handle) =
        spawn_scheduler(demo_model(), infuserki_nn::NoHook, ServeConfig::default())
            .expect("scheduler spawns");
    let mut rng = ChaCha8Rng::seed_from_u64(9000 + load as u64);
    let submit = |rng: &mut ChaCha8Rng| {
        let plen = rng.gen_range(4usize..24);
        let prompt: Vec<usize> = (0..plen).map(|_| rng.gen_range(0..VOCAB)).collect();
        client.generate(prompt, 16, None).expect("submit accepted")
    };

    let started = Instant::now();
    let mut in_flight = VecDeque::new();
    let mut submitted = 0usize;
    while submitted < total.min(load) {
        in_flight.push_back(submit(&mut rng));
        submitted += 1;
    }
    let mut completed_tokens = 0u64;
    while let Some(h) = in_flight.pop_front() {
        match h.wait().expect("scheduler alive") {
            Outcome::Generated { tokens } => completed_tokens += tokens.len() as u64,
            other => panic!("unexpected outcome {other:?}"),
        }
        if submitted < total {
            in_flight.push_back(submit(&mut rng));
            submitted += 1;
        }
    }
    let wall = started.elapsed().as_secs_f64();
    // Join the scheduler thread before reading its counters: the final
    // response is delivered a hair before the step's metrics update.
    handle.shutdown();
    let snap = client.metrics();
    assert_eq!(snap.completed as usize, total);
    (
        snap.ttft_p50_ms,
        snap.ttft_p99_ms,
        completed_tokens as f64 / wall,
        snap.avg_occupancy,
        wall,
    )
}
