//! Spans recorded from the benchmark's own files, around the public calls
//! into each layer. Spans stay in memory; at the end of a traced
//! repetition they are folded into per-layer metrics and, on request,
//! written out as JSON lines.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use gbatch_core::{RetainedFactor, ShapeKey};
use gbatch_gpu_sim::DeviceSpec;
use gbatch_serve::{
    BackendError, BackendKind, BatchSolution, FactorOutcome, RetainedLanes, SolveBackend,
    SolveRequest,
};
use serde::{Content, Serialize};

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer whose public call this span times, e.g. `serve.backend`.
    pub layer: &'static str,
    /// The call, e.g. `submit`, `gpu.cold`, or a kernel case name.
    pub op: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request ids the call carried.
    pub ids: Vec<u64>,
    /// Modeled seconds the call reported (`0` for calls that report none
    /// or failed).
    pub model_s: f64,
}

impl Span {
    pub fn host_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

impl Serialize for Span {
    fn serialize_content(&self) -> Content {
        let num = |v: u64| Content::UInt(v);
        Content::Map(vec![
            ("layer".into(), Content::Str(self.layer.into())),
            ("op".into(), Content::Str(self.op.into())),
            ("start_ns".into(), num(self.start_ns)),
            ("end_ns".into(), num(self.end_ns)),
            (
                "parent".into(),
                self.parent.map_or(Content::Null, |p| num(p as u64)),
            ),
            (
                "ids".into(),
                Content::Seq(self.ids.iter().map(|&i| num(i)).collect()),
            ),
            ("model_s".into(), Content::Float(self.model_s)),
        ])
    }
}

#[derive(Debug)]
struct Book {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Shared span recorder. Single-threaded: the benchmark issues every call
/// from one thread, and the server calls its backends on that thread.
#[derive(Debug, Clone)]
pub struct Recorder(Rc<RefCell<Book>>);

impl Default for Recorder {
    fn default() -> Self {
        Recorder(Rc::new(RefCell::new(Book {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })))
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.0.borrow().origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as one span; `model` reads the modeled seconds from its
    /// result.
    pub fn span<T>(
        &self,
        layer: &'static str,
        op: &'static str,
        ids: Vec<u64>,
        f: impl FnOnce() -> T,
        model: impl FnOnce(&T) -> f64,
    ) -> T {
        let idx = {
            let mut b = self.0.borrow_mut();
            let start_ns = b.origin.elapsed().as_nanos() as u64;
            let parent = b.open.last().copied();
            b.spans.push(Span {
                layer,
                op,
                start_ns,
                end_ns: start_ns,
                parent,
                ids,
                model_s: 0.0,
            });
            let idx = b.spans.len() - 1;
            b.open.push(idx);
            idx
        };
        let out = f();
        let end_ns = self.now_ns();
        let model_s = model(&out);
        let mut b = self.0.borrow_mut();
        assert_eq!(b.open.pop(), Some(idx), "spans close in order");
        let s = &mut b.spans[idx];
        s.end_ns = end_ns;
        s.model_s = model_s;
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.0.borrow().spans.clone()
    }
}

/// Host seconds of each span not covered by its direct children.
pub fn self_s(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::host_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.host_s();
        }
    }
    own
}

/// Write spans as JSON lines to `dir/<workload>.spans.jsonl`.
pub fn write_jsonl(dir: &Path, workload: &str, spans: &[Span]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.spans.jsonl"));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        let line = serde_json::to_string(s).map_err(|e| e.to_string())?;
        writeln!(out, "{line}").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    out.flush().map_err(|e| format!("{}: {e}", path.display()))
}

/// A backend decorator that records one `serve.backend` span per call.
/// It forwards `kind()` and `device()`, so the router prices and places
/// every flush exactly as it would on the bare backend.
pub struct TracedBackend {
    inner: Box<dyn SolveBackend>,
    rec: Recorder,
}

impl TracedBackend {
    pub fn wrap(inner: Box<dyn SolveBackend>, rec: &Recorder) -> Box<dyn SolveBackend> {
        Box::new(TracedBackend {
            inner,
            rec: rec.clone(),
        })
    }

    fn op(&self, gpu_op: &'static str) -> &'static str {
        match self.inner.kind() {
            BackendKind::Cpu => "cpu",
            BackendKind::Gpu => gpu_op,
        }
    }
}

fn ids(reqs: &[SolveRequest]) -> Vec<u64> {
    reqs.iter().map(|r| r.id).collect()
}

impl SolveBackend for TracedBackend {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn device(&self) -> Option<&DeviceSpec> {
        self.inner.device()
    }

    fn solve(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
    ) -> Result<BatchSolution, BackendError> {
        self.rec.span(
            "serve.backend",
            self.op("gpu.cold"),
            ids(reqs),
            || self.inner.solve(shape, reqs),
            |r| r.as_ref().map_or(0.0, |s| s.service_s),
        )
    }

    fn solve_retaining(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
    ) -> Result<(BatchSolution, RetainedLanes), BackendError> {
        self.rec.span(
            "serve.backend",
            self.op("gpu.cold"),
            ids(reqs),
            || self.inner.solve_retaining(shape, reqs),
            |r| r.as_ref().map_or(0.0, |(s, _)| s.service_s),
        )
    }

    fn solve_with(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
        factors: &[Arc<RetainedFactor>],
    ) -> Result<BatchSolution, BackendError> {
        self.rec.span(
            "serve.backend",
            self.op("gpu.warm"),
            ids(reqs),
            || self.inner.solve_with(shape, reqs, factors),
            |r| r.as_ref().map_or(0.0, |s| s.service_s),
        )
    }

    fn factorize(
        &self,
        shape: &ShapeKey,
        operators: &[&[f64]],
    ) -> Result<FactorOutcome, BackendError> {
        self.rec.span(
            "serve.backend",
            self.op("gpu.factorize"),
            Vec::new(),
            || self.inner.factorize(shape, operators),
            |r| r.as_ref().map_or(0.0, |o| o.service_s),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent_and_self_time_excludes_children() {
        let rec = Recorder::default();
        rec.span(
            "outer",
            "a",
            vec![1],
            || {
                rec.span(
                    "inner",
                    "b",
                    vec![1],
                    || std::thread::sleep(std::time::Duration::from_millis(2)),
                    |_| 0.5,
                );
            },
            |_| 0.0,
        );
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].model_s, 0.5);
        let own = self_s(&spans)[0];
        assert!(own >= 0.0 && (own + spans[1].host_s() - spans[0].host_s()).abs() < 1e-12);
        let line = serde_json::to_string(&spans[1]).unwrap();
        assert!(
            line.contains("\"parent\":0") && line.contains("\"op\":\"b\""),
            "{line}"
        );
    }
}
