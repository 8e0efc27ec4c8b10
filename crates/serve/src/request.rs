//! Request/response vocabulary of the serving subsystem.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Opaque request identifier, echoed on the response. In-process clients
/// allocate them; wire clients pick their own per connection.
pub type RequestId = u64;

/// Shared cancellation flag: flip it from any thread and the scheduler
/// retires the request at its next step (responding [`Outcome::Cancelled`]),
/// whether it is still queued, mid-prefill, or mid-decode.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation (idempotent).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// A generation request: greedy when `beam_width == 1` (the continuous
/// batch), beam search otherwise (executed atomically on the
/// single-request path — see the scheduler docs for the tradeoff).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerateSpec {
    /// Prompt token ids.
    pub prompt: Vec<usize>,
    /// Maximum new tokens to emit.
    pub max_new: usize,
    /// Stop token, if any.
    pub eos: Option<usize>,
    /// 1 = greedy; >1 = beam search of this width.
    pub beam_width: usize,
}

impl GenerateSpec {
    /// A greedy decode request.
    pub fn greedy(prompt: Vec<usize>, max_new: usize, eos: Option<usize>) -> Self {
        GenerateSpec {
            prompt,
            max_new,
            eos,
            beam_width: 1,
        }
    }
}

/// A shared-prefix MCQ scoring request: sum log-likelihood of every option
/// after the prompt (the paper's detection-probe scoring), semantics of
/// [`infuserki_nn::sampler::score_options`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McqSpec {
    /// Prompt (question) token ids; must be non-empty.
    pub prompt: Vec<usize>,
    /// Candidate completions, each non-empty.
    pub options: Vec<Vec<usize>>,
}

/// What the request asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestKind {
    /// Greedy/beam generation.
    Generate(GenerateSpec),
    /// Shared-prefix option scoring.
    Mcq(McqSpec),
}

/// Why a request was turned away without running.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The bounded queue is at capacity — backpressure.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The request's worst-case KV-row reservation exceeds the *entire*
    /// budget; it could never be admitted.
    BudgetExceeded {
        /// Rows the request would need to reserve.
        cost: usize,
        /// The configured total budget.
        budget: usize,
    },
    /// Malformed request (empty prompt, out-of-vocabulary token, …).
    Invalid(String),
    /// The request pinned a knowledge-bundle version the registry has never
    /// loaded.
    UnknownBundle {
        /// The requested version.
        version: u32,
    },
    /// The scheduler is draining for shutdown.
    ShuttingDown,
    /// The tenant's fair-share queue is at capacity (emitted by the router
    /// front, never by a scheduler).
    TenantQueueFull {
        /// The configured per-tenant queue capacity.
        capacity: usize,
    },
    /// The scheduler holding the request went away — crashed, panicked or
    /// exited — before answering: every [`Request`] dropped unanswered says
    /// this, and the router front says it when no replica is left to take a
    /// request. Survivors keep serving, so a retry may succeed.
    ReplicaFailed,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            RejectReason::BudgetExceeded { cost, budget } => write!(
                f,
                "request needs {cost} KV rows but the whole budget is {budget}"
            ),
            RejectReason::Invalid(msg) => write!(f, "invalid request: {msg}"),
            RejectReason::UnknownBundle { version } => {
                write!(f, "unknown knowledge-bundle version {version}")
            }
            RejectReason::ShuttingDown => write!(f, "scheduler is shutting down"),
            RejectReason::TenantQueueFull { capacity } => {
                write!(f, "tenant queue full (capacity {capacity})")
            }
            RejectReason::ReplicaFailed => write!(f, "replica died before responding"),
        }
    }
}

/// Terminal state of a request.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Completed generation (new tokens only, exactly what the
    /// single-sequence sampler would emit).
    Generated {
        /// Generated token ids.
        tokens: Vec<usize>,
    },
    /// Completed MCQ scoring.
    McqScored {
        /// Per-option summed log-likelihood (bitwise equal at one kernel
        /// thread to [`infuserki_nn::sampler::score_options`]).
        scores: Vec<f32>,
        /// Length-normalized probabilities
        /// ([`infuserki_nn::sampler::option_probabilities`]).
        probabilities: Vec<f32>,
        /// Index of the highest-probability option.
        best: usize,
    },
    /// Turned away without running.
    Rejected(RejectReason),
    /// Cancelled via its [`CancelToken`].
    Cancelled,
    /// Its deadline passed while queued or running.
    Expired,
}

/// A response: the request id plus its terminal outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of [`Request::id`].
    pub id: RequestId,
    /// Terminal state.
    pub outcome: Outcome,
}

/// Completion work attached to a [`Request`]: runs once, on the answering
/// thread, just before the answer is sent. It must not panic — it may run
/// while a crashed scheduler thread unwinds.
pub type OnAnswer = Box<dyn FnOnce(&Outcome) + Send>;

/// A scheduled unit of work: spec plus scheduling metadata and the channel
/// its single terminal [`Response`] is delivered on. It is answered exactly
/// once: [`Request::respond`] consumes it, and a request dropped unanswered
/// (its scheduler crashed, panicked or exited) answers itself
/// [`RejectReason::ReplicaFailed`].
pub struct Request {
    /// Identifier echoed on the response.
    pub id: RequestId,
    /// What to run.
    pub kind: RequestKind,
    /// Higher runs first; ties run in arrival order.
    pub priority: i32,
    /// Hard deadline; past it the request expires wherever it is.
    pub deadline: Option<Instant>,
    /// Knowledge-bundle version pin. `None` resolves to whichever version is
    /// *active at admission*; `Some(v)` runs on exactly version `v`
    /// (rejected at enqueue if `v` was never loaded). Either way the
    /// resolved version stays pinned until the request retires, even across
    /// promote/rollback.
    pub bundle: Option<u32>,
    /// Cooperative cancellation flag.
    pub cancel: CancelToken,
    /// Submission timestamp (TTFT baseline); reset when a [`crate::Client`]
    /// hands the request to its scheduler.
    pub submitted_at: Instant,
    /// Completion work, run as the request is answered.
    pub on_answer: Option<OnAnswer>,
    /// Response channel; `None` once answered.
    tx: Option<mpsc::Sender<Response>>,
}

impl std::fmt::Debug for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Request")
            .field("id", &self.id)
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

impl Request {
    /// A default-priority, undeadlined request.
    pub fn new(id: RequestId, kind: RequestKind, tx: mpsc::Sender<Response>) -> Self {
        Request {
            id,
            kind,
            priority: 0,
            deadline: None,
            bundle: None,
            cancel: CancelToken::new(),
            submitted_at: Instant::now(),
            on_answer: None,
            tx: Some(tx),
        }
    }

    /// Applies a submission's priority, deadline and bundle pin.
    pub fn with_opts(mut self, opts: crate::SubmitOpts) -> Self {
        self.priority = opts.priority;
        self.deadline = opts.deadline;
        self.bundle = opts.bundle;
        self
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the hard deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Pins the request to a specific knowledge-bundle version.
    pub fn with_bundle(mut self, version: u32) -> Self {
        self.bundle = Some(version);
        self
    }

    /// Delivers the terminal outcome (ignoring a hung-up receiver).
    pub fn respond(mut self, outcome: Outcome) {
        self.answer(outcome);
    }

    fn answer(&mut self, outcome: Outcome) {
        let Some(tx) = self.tx.take() else {
            return;
        };
        if let Some(f) = self.on_answer.take() {
            f(&outcome);
        }
        let _ = tx.send(Response {
            id: self.id,
            outcome,
        });
    }

    /// Whether the deadline (if any) has passed at `now`.
    pub(crate) fn expired_at(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }
}

impl Drop for Request {
    fn drop(&mut self) {
        self.answer(Outcome::Rejected(RejectReason::ReplicaFailed));
    }
}

/// Client-side submission failure (synchronous, before queuing).
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The request can never run (validation or whole-budget failure).
    Rejected(RejectReason),
    /// The scheduler thread is gone.
    Disconnected,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected(r) => write!(f, "submission rejected: {r}"),
            SubmitError::Disconnected => write!(f, "scheduler disconnected"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_flips_once() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let t2 = t.clone();
        t2.cancel();
        assert!(t.is_cancelled(), "clones share the flag");
    }

    #[test]
    fn reject_reasons_render() {
        let r = RejectReason::BudgetExceeded {
            cost: 10,
            budget: 4,
        };
        assert!(r.to_string().contains("10"));
        assert!(RejectReason::QueueFull { capacity: 2 }
            .to_string()
            .contains("capacity 2"));
    }

    #[test]
    fn response_round_trips_through_channel() {
        let (tx, rx) = mpsc::channel();
        let req = Request::new(
            9,
            RequestKind::Generate(GenerateSpec::greedy(vec![1], 2, None)),
            tx,
        )
        .with_priority(3);
        assert_eq!(req.priority, 3);
        req.respond(Outcome::Cancelled);
        assert_eq!(
            rx.recv().unwrap(),
            Response {
                id: 9,
                outcome: Outcome::Cancelled
            }
        );
        assert!(rx.recv().is_err(), "answered exactly once");
    }

    #[test]
    fn dropped_request_answers_replica_failed_after_its_hook() {
        let (tx, rx) = mpsc::channel();
        let (seen_tx, seen_rx) = mpsc::channel();
        let mut req = Request::new(
            4,
            RequestKind::Generate(GenerateSpec::greedy(vec![1], 2, None)),
            tx,
        );
        let rx = Arc::new(std::sync::Mutex::new(rx));
        let probe = Arc::clone(&rx);
        req.on_answer = Some(Box::new(move |o: &Outcome| {
            // The hook runs before the answer is on the channel.
            let early = probe.lock().unwrap().try_recv().is_err();
            let _ = seen_tx.send((o.clone(), early));
        }));
        drop(req);
        let failed = Outcome::Rejected(RejectReason::ReplicaFailed);
        assert_eq!(seen_rx.recv().unwrap(), (failed.clone(), true));
        assert!(seen_rx.recv().is_err(), "the hook runs once");
        let rx = rx.lock().unwrap();
        assert_eq!(rx.recv().unwrap().outcome, failed);
        assert!(rx.recv().is_err(), "answered exactly once");
    }
}
