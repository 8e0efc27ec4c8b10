//! `capture_trace` — records a Chrome trace of the scheduler serving a
//! small mixed workload and writes it where `--out` points (default
//! `results/trace_scheduler_step.json`). Open the file at
//! `chrome://tracing` or <https://ui.perfetto.dev> to see `serve.step` /
//! `serve.advance_lanes` slices nesting over the engine's
//! `engine.prefill_chunk` / `engine.decode_step` spans and the kernel
//! threadpool's `kernels.banded_dispatch` dispatches.

use std::sync::mpsc;

use infuserki_nn::NoHook;
use infuserki_obs as obs;
use infuserki_serve::{
    demo_model, GenerateSpec, McqSpec, Request, RequestKind, Scheduler, ServeConfig,
};
use infuserki_tensor::kernels;

fn main() {
    let out = std::env::args()
        .skip(1)
        .skip_while(|a| a != "--out")
        .nth(1)
        .unwrap_or_else(|| "results/trace_scheduler_step.json".to_string());

    kernels::set_num_threads(1);
    obs::set_enabled(true);
    obs::clear_trace();

    let model = demo_model();
    let mut sched = Scheduler::new(&model, NoHook, ServeConfig::default()).expect("scheduler");
    let mut sinks = Vec::new();
    let mut submit = |id: u64, kind: RequestKind| {
        let (tx, rx) = mpsc::channel();
        sched.enqueue(Request::new(id, kind, tx));
        sinks.push(rx);
    };
    submit(
        0,
        RequestKind::Generate(GenerateSpec::greedy(vec![1, 2, 3], 8, None)),
    );
    submit(
        1,
        RequestKind::Generate(GenerateSpec::greedy(vec![4, 5], 6, None)),
    );
    submit(
        2,
        RequestKind::Mcq(McqSpec {
            prompt: vec![6, 7],
            options: vec![vec![8], vec![9, 10]],
        }),
    );
    sched.run_until_idle();
    for rx in &sinks {
        rx.try_recv().expect("every request resolved");
    }

    obs::write_chrome_trace(&out).expect("trace written");
    eprintln!("capture_trace: wrote {out}");
}
