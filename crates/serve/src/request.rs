//! Request and response types of the solve service.

use gbatch_core::ShapeKey;

use crate::backend::BackendKind;
use crate::policy::FlushReason;

/// One solve request: a single `(AB, B)` system plus its timing envelope.
///
/// Payloads are the shape's minimal LAPACK factor storage (`ab`, length
/// [`ShapeKey::ab_len`]) and a column-major right-hand side (`rhs`, length
/// [`ShapeKey::rhs_len`]). Times are absolute seconds on the service's
/// virtual clock.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// Caller-chosen identifier, echoed on the response.
    pub id: u64,
    /// Request geometry; the bucketing key.
    pub shape: ShapeKey,
    /// Band payload in the shape's minimal storage.
    pub ab: Vec<f64>,
    /// Right-hand side (`n * nrhs`, column-major).
    pub rhs: Vec<f64>,
    /// Submission time (seconds, virtual clock).
    pub submitted_s: f64,
    /// Absolute response deadline (seconds, virtual clock).
    pub deadline_s: f64,
}

/// Why a request was refused at admission. Admission errors are synchronous
/// and leave the service untouched (no partial enqueue).
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitError {
    /// The bounded admission queue is at capacity — backpressure; the
    /// caller should retry later or shed load.
    QueueFull {
        /// Configured queue capacity (total pending across buckets).
        capacity: usize,
    },
    /// Payload lengths do not match the request's shape key.
    BadPayload {
        /// Expected `ab` length for the shape.
        expected_ab: usize,
        /// Provided `ab` length.
        got_ab: usize,
        /// Expected `rhs` length for the shape.
        expected_rhs: usize,
        /// Provided `rhs` length.
        got_rhs: usize,
    },
    /// The shape cannot be served (invalid layout, or `nrhs == 0`).
    UnsupportedShape(String),
    /// The submission time precedes an already-processed event; the
    /// virtual clock only moves forward.
    NonMonotonicTime {
        /// The submission time offered.
        now_s: f64,
        /// The service clock at the refusal.
        clock_s: f64,
    },
    /// A time field, or an entry of the operator or right-hand side, is
    /// NaN or infinite. A time cannot be ordered against the virtual
    /// clock, so it is refused before the clock moves; a payload would
    /// come back as a NaN solution, so it is refused before anything is
    /// enqueued.
    NonFinite {
        /// Name of the offending field (`submitted_s`, `deadline_s`, `ab`
        /// or `rhs`, or `now_s` for [`crate::Server::factorize`]).
        field: &'static str,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            AdmitError::BadPayload {
                expected_ab,
                got_ab,
                expected_rhs,
                got_rhs,
            } => write!(
                f,
                "payload lengths (ab {got_ab}, rhs {got_rhs}) do not match shape \
                 (ab {expected_ab}, rhs {expected_rhs})"
            ),
            AdmitError::UnsupportedShape(why) => write!(f, "unsupported shape: {why}"),
            AdmitError::NonMonotonicTime { now_s, clock_s } => write!(
                f,
                "submission time {now_s:.6} s precedes the service clock {clock_s:.6} s"
            ),
            AdmitError::NonFinite { field } => write!(f, "{field} is not finite"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Terminal status of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// Solved; the response carries the solution.
    Solved,
    /// The matrix is exactly singular; `column` is the 1-based column of
    /// the first zero pivot (the LAPACK `info` convention). The response
    /// returns the right-hand side untouched.
    Singular {
        /// 1-based first zero-pivot column.
        column: i32,
    },
    /// The request could not start before `deadline + timeout slack`; it
    /// was dropped without solving (the response returns the right-hand
    /// side untouched).
    TimedOut,
    /// Both the routed backend and the singleton fallback refused the
    /// request (only reachable with a faulting backend).
    Failed,
}

/// One response: every admitted request produces exactly one.
#[derive(Debug, Clone)]
pub struct SolveResponse {
    /// The request's identifier.
    pub id: u64,
    /// The request's geometry.
    pub shape: ShapeKey,
    /// Terminal status.
    pub status: SolveStatus,
    /// Solution overwriting the right-hand side ([`SolveStatus::Solved`]),
    /// or the untouched right-hand side otherwise.
    pub x: Vec<f64>,
    /// Submission time echoed from the request.
    pub submitted_s: f64,
    /// Absolute deadline echoed from the request.
    pub deadline_s: f64,
    /// Completion time on the virtual clock.
    pub completed_s: f64,
    /// How many requests shared the flushed batch.
    pub batch_size: usize,
    /// Why the batch was flushed.
    pub reason: FlushReason,
    /// Which backend produced the answer.
    pub backend: BackendKind,
}

impl SolveResponse {
    /// End-to-end latency (submission to completion), in seconds.
    #[must_use]
    pub fn latency_s(&self) -> f64 {
        self.completed_s - self.submitted_s
    }

    /// Whether the response completed after its deadline.
    #[must_use]
    pub fn missed_deadline(&self) -> bool {
        self.completed_s > self.deadline_s
    }
}
