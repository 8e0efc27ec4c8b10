//! In-process client: one scheduler on its own thread behind std `mpsc` —
//! the per-replica link the `infuserki-router` front dispatches over.
//!
//! [`spawn_scheduler`] moves the model + hook into a scheduler thread and
//! returns a cloneable [`Client`]. Submission is non-blocking: the client
//! validates synchronously against the shared [`EngineLimits`] (so
//! impossible requests fail fast with [`SubmitError`]), then hands the
//! request to the scheduler, which delivers exactly one [`Response`] on the
//! returned [`ResponseHandle`]'s channel — [`crate::RejectReason::ReplicaFailed`]
//! if the thread dies holding it. The scheduler thread steps while work
//! exists and blocks on its inbox when idle — no spinning.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use infuserki_nn::{LayerHook, TransformerLm};

use crate::config::ServeConfig;
use crate::limits::EngineLimits;
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::registry::{ControlError, ControlOp, ControlOutcome, ControlPlane};
use crate::request::{
    CancelToken, GenerateSpec, McqSpec, Outcome, Request, RequestId, RequestKind, Response,
    SubmitError,
};
use crate::scheduler::Scheduler;

/// A control-plane op plus the channel its result goes back on.
struct ControlRequest {
    op: ControlOp,
    tx: Sender<Result<ControlOutcome, ControlError>>,
}

/// Inbox messages of the scheduler thread.
enum Msg {
    Request(Request),
    Control(ControlRequest),
    Shutdown,
}

/// Awaits the single terminal [`Response`] of one submitted request, and
/// carries its cancellation token.
#[derive(Debug)]
pub struct ResponseHandle {
    /// The submitted request's id.
    pub id: RequestId,
    rx: Receiver<Response>,
    cancel: CancelToken,
}

impl ResponseHandle {
    /// Wraps the receiving end of a submission whose sender and `cancel`
    /// token went into a [`Request`] (or a front's submission).
    pub fn new(id: RequestId, rx: Receiver<Response>, cancel: CancelToken) -> Self {
        ResponseHandle { id, rx, cancel }
    }

    /// Requests cancellation; the scheduler responds [`Outcome::Cancelled`]
    /// at its next step unless the request already finished.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Blocks until the response arrives.
    pub fn wait(self) -> Result<Outcome, SubmitError> {
        self.rx
            .recv()
            .map(|r| r.outcome)
            .map_err(|_| SubmitError::Disconnected)
    }

    /// Non-blocking poll: `Ok(Some)` once finished, `Ok(None)` while
    /// pending.
    pub fn try_wait(&self) -> Result<Option<Outcome>, SubmitError> {
        match self.rx.try_recv() {
            Ok(r) => Ok(Some(r.outcome)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(SubmitError::Disconnected),
        }
    }

    /// Blocks up to `timeout`; `Ok(None)` on timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<Option<Outcome>, SubmitError> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Ok(Some(r.outcome)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(SubmitError::Disconnected),
        }
    }
}

/// Options attached to a submission (priority, deadline, bundle pin).
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOpts {
    /// Higher runs first; ties run in arrival order.
    pub priority: i32,
    /// Hard deadline; past it the request expires wherever it is.
    pub deadline: Option<Instant>,
    /// Knowledge-bundle version pin; `None` runs on whatever version is
    /// active at admission. An unknown pin is rejected asynchronously
    /// ([`crate::RejectReason::UnknownBundle`] on the response channel) —
    /// only the scheduler thread knows the live registry.
    pub bundle: Option<u32>,
}

/// Cloneable handle submitting requests to a running scheduler thread.
#[derive(Clone)]
pub struct Client {
    tx: Sender<Msg>,
    limits: EngineLimits,
    metrics: Arc<ServeMetrics>,
    next_id: Arc<AtomicU64>,
}

impl Client {
    /// The scheduler's admission limits.
    pub fn limits(&self) -> &EngineLimits {
        &self.limits
    }

    /// Point-in-time metrics snapshot (lock-free: the handles are atomic).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Submits a request kind, validating synchronously first. The returned
    /// handle receives exactly one terminal outcome.
    pub fn submit(
        &self,
        kind: RequestKind,
        opts: SubmitOpts,
    ) -> Result<ResponseHandle, SubmitError> {
        self.limits.validate(&kind).map_err(SubmitError::Rejected)?;
        let (tx, rx) = mpsc::channel();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let req = Request::new(id, kind, tx).with_opts(opts);
        let cancel = req.cancel.clone();
        self.submit_request(req)
            .map_err(|_| SubmitError::Disconnected)?;
        Ok(ResponseHandle::new(id, rx, cancel))
    }

    /// Hands a built request to the scheduler thread, which answers it
    /// exactly once on its own channel (enqueue-time rejections included).
    /// Resets `submitted_at`, so TTFT counts from the hand-off. A scheduler
    /// that is gone hands the request back, unanswered.
    // The fat `Err` is the point: the caller gets the request back intact
    // to fail it over or answer it.
    #[allow(clippy::result_large_err)]
    pub fn submit_request(&self, mut req: Request) -> Result<(), Request> {
        req.submitted_at = Instant::now();
        self.tx
            .send(Msg::Request(req))
            .map_err(|mpsc::SendError(msg)| match msg {
                Msg::Request(req) => req,
                _ => unreachable!("a request was sent"),
            })
    }

    /// Greedy generation convenience wrapper.
    pub fn generate(
        &self,
        prompt: Vec<usize>,
        max_new: usize,
        eos: Option<usize>,
    ) -> Result<ResponseHandle, SubmitError> {
        self.submit(
            RequestKind::Generate(GenerateSpec::greedy(prompt, max_new, eos)),
            SubmitOpts::default(),
        )
    }

    /// MCQ option-scoring convenience wrapper.
    pub fn mcq(
        &self,
        prompt: Vec<usize>,
        options: Vec<Vec<usize>>,
    ) -> Result<ResponseHandle, SubmitError> {
        self.submit(
            RequestKind::Mcq(McqSpec { prompt, options }),
            SubmitOpts::default(),
        )
    }
}

impl ControlPlane for Client {
    /// Runs on the scheduler thread, between steps — a swap never tears a
    /// batch.
    fn control(&self, op: ControlOp) -> Result<ControlOutcome, ControlError> {
        let (tx, rx) = mpsc::channel();
        self.tx
            .send(Msg::Control(ControlRequest { op, tx }))
            .map_err(|_| ControlError::Disconnected)?;
        rx.recv().map_err(|_| ControlError::Disconnected)?
    }
}

/// Owns the scheduler thread. Dropping without [`SchedulerHandle::shutdown`]
/// detaches the thread (it exits once every client is dropped).
pub struct SchedulerHandle {
    tx: Sender<Msg>,
    join: Option<JoinHandle<()>>,
}

impl SchedulerHandle {
    /// Begins drain: in-flight requests finish, queued requests are
    /// rejected [`crate::RejectReason::ShuttingDown`], then the thread
    /// exits. Blocks until it does.
    pub fn shutdown(mut self) {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for SchedulerHandle {
    fn drop(&mut self) {
        if let Some(j) = self.join.take() {
            let _ = self.tx.send(Msg::Shutdown);
            let _ = j.join();
        }
    }
}

/// Spawns the scheduler thread over an owned model + hook and returns the
/// submission client plus the thread handle.
///
/// The thread loop: drain the inbox without blocking, step while work
/// exists, block on the inbox when idle. On shutdown it rejects the
/// remaining queue, finishes in-flight work and exits.
pub fn spawn_scheduler<H>(
    model: TransformerLm,
    hook: H,
    cfg: ServeConfig,
) -> Result<(Client, SchedulerHandle), String>
where
    H: LayerHook + Send + 'static,
{
    let (tx, rx) = mpsc::channel::<Msg>();
    // The scheduler borrows the model and hook, which live on the thread's
    // stack — so it is constructed exactly once, there, and the thread
    // reports the outcome (limits + metrics, or the construction error)
    // back through this channel. Construction failures still surface
    // synchronously from this function; no second "probe" scheduler is
    // built just to pre-validate.
    let (init_tx, init_rx) = mpsc::channel::<Result<(EngineLimits, Arc<ServeMetrics>), String>>();
    let join = std::thread::Builder::new()
        .name("infuserki-serve".into())
        .spawn(move || {
            let mut sched = match Scheduler::new(&model, &hook, cfg) {
                Ok(s) => s,
                Err(e) => {
                    let _ = init_tx.send(Err(e));
                    return;
                }
            };
            let _ = init_tx.send(Ok((sched.limits().clone(), sched.metrics())));
            let mut draining = false;
            while !draining {
                // Take every waiting message, blocking for the first only
                // when idle; then step.
                let mut block = !sched.has_work();
                loop {
                    let msg = if block {
                        rx.recv().map_err(|_| TryRecvError::Disconnected)
                    } else {
                        rx.try_recv()
                    };
                    block = false;
                    match msg {
                        Ok(Msg::Request(r)) => sched.enqueue(r),
                        Ok(Msg::Control(c)) => {
                            let _ = c.tx.send(if draining {
                                Err(ControlError::ShuttingDown)
                            } else {
                                sched.handle_control(c.op)
                            });
                        }
                        Ok(Msg::Shutdown) => {
                            draining = true;
                            sched.begin_drain();
                        }
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            draining = true;
                            sched.begin_drain();
                            break;
                        }
                    }
                }
                if !draining && sched.has_work() {
                    sched.step();
                }
            }
            sched.reject_queued_for_shutdown();
            sched.run_until_idle();
        })
        .map_err(|e| format!("serve: failed to spawn scheduler thread: {e}"))?;
    let (limits, metrics) = match init_rx.recv() {
        Ok(Ok(init)) => init,
        Ok(Err(e)) => {
            let _ = join.join();
            return Err(e);
        }
        Err(_) => return Err("serve: scheduler thread died during startup".to_string()),
    };
    let client = Client {
        tx: tx.clone(),
        limits,
        metrics,
        next_id: Arc::new(AtomicU64::new(0)),
    };
    let handle = SchedulerHandle {
        tx,
        join: Some(join),
    };
    Ok((client, handle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo_model;
    use infuserki_nn::sampler;
    use infuserki_nn::NoHook;
    use infuserki_tensor::kernels;

    #[test]
    fn client_round_trips_generate_and_mcq() {
        kernels::set_num_threads(1);
        let model = demo_model();
        let reference = demo_model();
        let (client, handle) = spawn_scheduler(model, NoHook, ServeConfig::default()).unwrap();
        let g = client.generate(vec![1, 2, 3], 5, None).unwrap();
        let m = client.mcq(vec![4, 5], vec![vec![6], vec![7, 8]]).unwrap();
        match g.wait().unwrap() {
            Outcome::Generated { tokens } => {
                assert_eq!(
                    tokens,
                    sampler::greedy_decode(&reference, &NoHook, &[1, 2, 3], 5, None)
                );
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        match m.wait().unwrap() {
            Outcome::McqScored { scores, .. } => assert_eq!(scores.len(), 2),
            other => panic!("unexpected outcome {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn invalid_submission_fails_synchronously() {
        let (client, handle) =
            spawn_scheduler(demo_model(), NoHook, ServeConfig::default()).unwrap();
        let err = client.generate(Vec::new(), 4, None).unwrap_err();
        assert!(matches!(
            err,
            SubmitError::Rejected(crate::RejectReason::Invalid(_))
        ));
        handle.shutdown();
    }

    #[test]
    fn shutdown_completes_in_flight_work() {
        kernels::set_num_threads(1);
        let (client, handle) =
            spawn_scheduler(demo_model(), NoHook, ServeConfig::default()).unwrap();
        let g = client.generate(vec![2, 3], 4, None).unwrap();
        handle.shutdown();
        // The response was delivered before the thread exited (drain
        // finishes live work) — or the request never started and was
        // rejected; both are terminal.
        let outcome = g.wait().unwrap();
        assert!(matches!(
            outcome,
            Outcome::Generated { .. } | Outcome::Rejected(crate::RejectReason::ShuttingDown)
        ));
    }

    /// Panics on the scheduler thread in its first forward.
    struct PanicHook;

    impl LayerHook for PanicHook {
        fn attn_q_delta(
            &self,
            _layer: usize,
            _x: &infuserki_nn::Val,
            _e: &mut infuserki_nn::Exec,
        ) -> Option<infuserki_nn::Val> {
            panic!("injected scheduler-thread panic");
        }
    }

    #[test]
    fn crashed_scheduler_answers_pending_requests_replica_failed() {
        let (client, handle) =
            spawn_scheduler(demo_model(), PanicHook, ServeConfig::default()).unwrap();
        // Its first forward panics the thread; the request, still held,
        // answers as it drops.
        let g = client.generate(vec![1, 2], 4, None).unwrap();
        assert_eq!(
            g.wait(),
            Ok(Outcome::Rejected(crate::RejectReason::ReplicaFailed))
        );
        handle.shutdown();
    }
}
