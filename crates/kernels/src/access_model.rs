//! Declarative [`KernelModel`]s for every shared-memory kernel family.
//!
//! Each model states, per barrier epoch, exactly which shared-memory
//! elements each lane touches — as symbolic expressions over the shape
//! parameters — plus the family's shared-memory byte formula and the
//! parameter envelope it is verified over. The analyzer proves the
//! templates race-free across the whole envelope (`prove_model`), audits
//! the byte formula against device limits, and replays the
//! [`schedule`](KernelModel::schedule) against the real kernel's
//! `HazardMode::Trace` footprint so model and kernel cannot drift apart.
//!
//! The factor families (fused, window, gbsv) share one column-step
//! sub-model (the `col_*` templates) because they share the real column step
//! ([`crate::step::smem_column_step`]): an IAMAX *head* epoch (which also
//! carries the fill-in writes and, on the very first column, the `DGBTF2`
//! prologue), a pivot-row *swap* epoch, and a fused *scal + rank-1* epoch.
//!
//! [`fixtures`] re-introduces, as standalone negative models, the two
//! historical barrier bugs this stack actually shipped and fixed: the
//! single-epoch window shift (reads and writes of overlapping ranges in
//! one epoch) and the GBSV RHS swap merged with the broadcast-consuming
//! forward update. The verifier must reject both with concrete
//! counterexample shapes.

use gbatch_analyzer::{
    ceil8, emax, emin, k, v, Access, AccessKind, AllocModel, Envelope, EpochInstance,
    EpochTemplate, Expr, KernelModel, Oracle, Pattern, Shape, VarDef,
};
use gbatch_analyzer::{Env, Pred};
use gbatch_core::layout::update_bound;

/// How much of the parameter envelope to enumerate: `Quick` for tier-1
/// tests, `Full` for `cargo xtask verify-kernels` / CI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rigor {
    /// Small grids — seconds, run in the test suite.
    Quick,
    /// The full supported envelope — the release gate.
    Full,
}

impl Rigor {
    fn pick(self, quick: &[i64], full: &[i64]) -> Vec<i64> {
        match self {
            Rigor::Quick => quick.to_vec(),
            Rigor::Full => full.to_vec(),
        }
    }
}

fn derived_band() -> Vec<(&'static str, Expr)> {
    vec![
        ("kv", v("kl") + v("ku")),
        ("ldab", k(2) * v("kl") + v("ku") + k(1)),
    ]
}

fn envelope(grid: Vec<(&'static str, Vec<i64>)>) -> Envelope {
    Envelope {
        grid,
        derived: derived_band(),
        frees: vec![("n", 1, 1 << 20)],
        threads: vec![2, 3, 4, 8],
        search_n: vec![1, 2, 3, 4, 6, 8],
    }
}

/// Schedule-epoch constructor: template `tpl` with the given concrete
/// epoch variables.
fn inst(tpl: usize, env: &[(&'static str, i64)]) -> EpochInstance {
    EpochInstance {
        template: Some(tpl),
        env: env.iter().copied().collect(),
    }
}

/// A barrier epoch in which the kernel touches no shared memory.
fn empty() -> EpochInstance {
    EpochInstance {
        template: None,
        env: Env::new(),
    }
}

// ---------------------------------------------------------------------------
// Shared column-step sub-model (fused / window / gbsv factor path)
// ---------------------------------------------------------------------------

/// Context distinguishing the column-step hosts: which allocation the band
/// window lives in, which global column maps to local column 0, and the
/// column range one epoch's `j` may take.
struct ColCtx {
    alloc: usize,
    col0: Expr,
    /// Extra template variables (the window family's `j0`).
    extra: Vec<VarDef>,
    j_lo: Expr,
    j_hi: Expr,
    /// Extra guards for the first-column prologue (window: `j0 == 0`).
    prologue_guards: Vec<Expr>,
}

impl ColCtx {
    /// Flat window offset of band row `r` of global column `c`
    /// (mirrors `SmemBand::idx`).
    fn lidx(&self, r: Expr, c: Expr) -> Expr {
        (c - self.col0.clone()) * v("ldab") + r
    }

    fn base_vars(&self) -> Vec<VarDef> {
        let mut vars = self.extra.clone();
        vars.push(VarDef::new("j", self.j_lo.clone(), self.j_hi.clone()));
        vars.push(VarDef::fixed("km", emin(v("kl"), v("n") - k(1) - v("j"))));
        vars
    }
}

fn striped(alloc: usize, kind: AccessKind, base: Expr, len: Expr) -> Access {
    Access {
        alloc,
        kind,
        pattern: Pattern::Striped { base, len },
        vars: Vec::new(),
        guards: Vec::new(),
        preds: Vec::new(),
    }
}

fn owned(alloc: usize, kind: AccessKind, owner: Expr, base: Expr, len: Expr) -> Access {
    Access {
        alloc,
        kind,
        pattern: Pattern::Owned { owner, base, len },
        vars: Vec::new(),
        guards: Vec::new(),
        preds: Vec::new(),
    }
}

/// Head epoch of one column step: the `SET_FILLIN` write of column
/// `j + kv`, the striped IAMAX scan of the `km + 1` pivot candidates and
/// the broadcast read of the winner — plus, merged into the very first
/// column's head epoch, the `DGBTF2` fill-in prologue
/// ([`crate::step::smem_fillin_prologue`] runs after the load barrier and
/// before the first column's own barrier).
fn col_head(cx: &ColCtx) -> EpochTemplate {
    let mut vars = cx.base_vars();
    vars.push(VarDef::new("jp", k(0), v("km")));
    let base = cx.lidx(v("kv"), v("j"));
    let mut prologue_guards = vec![k(0) - v("j")];
    prologue_guards.extend(cx.prologue_guards.iter().cloned());
    EpochTemplate {
        name: "head",
        vars,
        guards: Vec::new(),
        accesses: vec![
            // Prologue: zero the partially-reachable fill rows of columns
            // ku+1 .. min(kv, n)  (first head epoch only).
            Access {
                alloc: cx.alloc,
                kind: AccessKind::Write,
                pattern: Pattern::Striped {
                    base: cx.lidx(v("kv") - v("q"), v("q")),
                    len: v("kl") - (v("kv") - v("q")),
                },
                vars: vec![VarDef::new(
                    "q",
                    v("ku") + k(1),
                    emin(v("kv"), v("n")) - k(1),
                )],
                guards: prologue_guards,
                preds: Vec::new(),
            },
            // SET_FILLIN: zero the kl fill rows of column j + kv.
            Access {
                alloc: cx.alloc,
                kind: AccessKind::Write,
                pattern: Pattern::Striped {
                    base: cx.lidx(k(0), v("j") + v("kv")),
                    len: v("kl"),
                },
                vars: Vec::new(),
                guards: vec![v("n") - k(1) - v("j") - v("kv"), v("kl") - k(1)],
                preds: Vec::new(),
            },
            // IAMAX candidate scan + broadcast of the winner.
            striped(cx.alloc, AccessKind::Read, base.clone(), v("km") + k(1)),
            Access {
                alloc: cx.alloc,
                kind: AccessKind::Read,
                pattern: Pattern::Broadcast {
                    off: base + v("jp"),
                },
                vars: Vec::new(),
                guards: Vec::new(),
                preds: Vec::new(),
            },
        ],
    }
}

/// Pivot-row swap epoch (`jp != 0`): column `j + kk` is swapped entirely
/// by lane `kk`, for `kk in 0 ..= ju - j`.
fn col_swap(cx: &ColCtx) -> EpochTemplate {
    let mut vars = cx.base_vars();
    vars.push(VarDef::new("jp", k(1), v("km")));
    vars.push(VarDef::new(
        "ju",
        v("j"),
        emin(v("j") + v("kv"), v("n") - k(1)),
    ));
    let kk = || VarDef::new("kk", k(0), v("ju") - v("j"));
    let i1 = cx.lidx(v("kv") + v("jp") - v("kk"), v("j") + v("kk"));
    let i2 = cx.lidx(v("kv") - v("kk"), v("j") + v("kk"));
    let acc = |kind, base: &Expr| Access {
        alloc: cx.alloc,
        kind,
        pattern: Pattern::Owned {
            owner: v("kk"),
            base: base.clone(),
            len: k(1),
        },
        vars: vec![kk()],
        guards: Vec::new(),
        preds: Vec::new(),
    };
    EpochTemplate {
        name: "swap",
        vars,
        guards: Vec::new(),
        accesses: vec![
            acc(AccessKind::Read, &i1),
            acc(AccessKind::Read, &i2),
            acc(AccessKind::Write, &i1),
            acc(AccessKind::Write, &i2),
        ],
    }
}

/// Fused SCAL + rank-1 update epoch (`km > 0`): the reciprocal-pivot
/// broadcast and striped scale of the multipliers, then — per update
/// column `j + c`, `c in 1 ..= ju - j` — the broadcast of the row-`j`
/// multiplier and, when it is nonzero (`u_nz`), the striped triple
/// reading the scaled column and updating column `j + c`.
fn col_scal_ger(cx: &ColCtx) -> EpochTemplate {
    let mut vars = cx.base_vars();
    vars.push(VarDef::new(
        "ju",
        v("j"),
        emin(v("j") + v("kv"), v("n") - k(1)),
    ));
    let base = cx.lidx(v("kv"), v("j"));
    let dst = cx.lidx(v("kv") - v("c"), v("j") + v("c"));
    let cvar = || VarDef::new("c", k(1), v("ju") - v("j"));
    let u_nz = || {
        vec![Pred {
            name: "u_nz",
            args: vec![v("j"), v("c")],
        }]
    };
    let ger = |kind, b: &Expr, preds: Vec<Pred>| Access {
        alloc: cx.alloc,
        kind,
        pattern: Pattern::Striped {
            base: b.clone() + k(1),
            len: v("km"),
        },
        vars: vec![cvar()],
        guards: Vec::new(),
        preds,
    };
    EpochTemplate {
        name: "scal_ger",
        vars,
        guards: vec![v("km") - k(1)],
        accesses: vec![
            Access {
                alloc: cx.alloc,
                kind: AccessKind::Read,
                pattern: Pattern::Broadcast { off: base.clone() },
                vars: Vec::new(),
                guards: Vec::new(),
                preds: Vec::new(),
            },
            striped(cx.alloc, AccessKind::Read, base.clone() + k(1), v("km")),
            striped(cx.alloc, AccessKind::Write, base.clone() + k(1), v("km")),
            Access {
                alloc: cx.alloc,
                kind: AccessKind::Read,
                pattern: Pattern::Broadcast { off: dst.clone() },
                vars: vec![cvar()],
                guards: Vec::new(),
                preds: Vec::new(),
            },
            ger(AccessKind::Read, &base, u_nz()),
            ger(AccessKind::Read, &dst, u_nz()),
            ger(AccessKind::Write, &dst, u_nz()),
        ],
    }
}

/// Per-matrix factorization progress mirrored by the schedules — the
/// schedule-side twin of `gbatch_core::gbtf2::ColumnStepState`.
#[derive(Default)]
struct ColState {
    ju: usize,
    info: i32,
}

/// Emit the epochs of one column step exactly as
/// [`crate::step::smem_column_step`] does: the head epoch always; then,
/// only when the pivot is nonzero, a swap epoch (empty when `jp == 0`)
/// and — when `km > 0` — the scal/rank-1 epoch. A zero pivot emits no
/// further barriers and records `info`.
#[allow(clippy::too_many_arguments)]
fn push_column_epochs(
    out: &mut Vec<EpochInstance>,
    t_head: usize,
    t_swap: usize,
    t_sg: usize,
    shape: &Shape,
    oracle: &Oracle,
    j: usize,
    j0: usize,
    st: &mut ColState,
) {
    let n = shape.n;
    let km = shape.kl.min(n - 1 - j) as i64;
    let jp = oracle.jp[j];
    let jn = j as i64;
    let j0n = j0 as i64;
    out.push(inst(
        t_head,
        &[("j", jn), ("j0", j0n), ("km", km), ("jp", jp)],
    ));
    if oracle.flag("piv_nz", &[jn]) {
        st.ju = update_bound(st.ju.max(j), j, shape.ku, jp as usize, n);
        let ju = st.ju as i64;
        if jp != 0 {
            out.push(inst(
                t_swap,
                &[("j", jn), ("j0", j0n), ("km", km), ("jp", jp), ("ju", ju)],
            ));
        } else {
            out.push(empty());
        }
        if km > 0 {
            out.push(inst(
                t_sg,
                &[("j", jn), ("j0", j0n), ("km", km), ("ju", ju)],
            ));
        }
    } else if st.info == 0 {
        st.info = (j + 1) as i32;
    }
}

// ---------------------------------------------------------------------------
// Fused factorization
// ---------------------------------------------------------------------------

const F_LOAD: usize = 0;
const F_STORE: usize = 1;
const F_HEAD: usize = 2;
const F_SWAP: usize = 3;
const F_SG: usize = 4;

fn fused_schedule(shape: &Shape, oracle: &Oracle) -> Vec<EpochInstance> {
    let mut out = vec![inst(F_LOAD, &[])];
    let mut st = ColState::default();
    for j in 0..shape.n {
        push_column_epochs(&mut out, F_HEAD, F_SWAP, F_SG, shape, oracle, j, 0, &mut st);
    }
    out.push(inst(F_STORE, &[]));
    out.push(empty());
    out
}

/// Model of [`crate::fused::gbtrf_batch_fused`]: whole-band load, the
/// column steps, whole-band store.
pub fn fused_model(rigor: Rigor) -> KernelModel {
    let cx = ColCtx {
        alloc: 0,
        col0: k(0),
        extra: Vec::new(),
        j_lo: k(0),
        j_hi: v("n") - k(1),
        prologue_guards: Vec::new(),
    };
    let band_len = v("ldab") * v("n");
    KernelModel {
        family: "gbtrf_fused",
        label: "gbtrf_fused",
        allocs: vec![AllocModel {
            name: "band",
            elems: band_len.clone(),
        }],
        templates: vec![
            EpochTemplate {
                name: "load",
                vars: Vec::new(),
                guards: Vec::new(),
                accesses: vec![striped(0, AccessKind::Write, k(0), band_len.clone())],
            },
            EpochTemplate {
                name: "store",
                vars: Vec::new(),
                guards: Vec::new(),
                accesses: vec![striped(0, AccessKind::Read, k(0), band_len.clone())],
            },
            col_head(&cx),
            col_swap(&cx),
            col_scal_ger(&cx),
        ],
        smem_bytes: band_len * v("sbytes"),
        envelope: envelope(vec![
            ("kl", rigor.pick(&[0, 2], &[0, 1, 2, 3, 8])),
            ("ku", rigor.pick(&[1, 3], &[0, 1, 3, 7])),
        ]),
        schedule: Some(fused_schedule),
    }
}

// ---------------------------------------------------------------------------
// Sliding-window factorization
// ---------------------------------------------------------------------------

const W_LOAD: usize = 0;
const W_STORE: usize = 1;
const W_SHIFT: usize = 2;
const W_SHIFT_R: usize = 3;
const W_SHIFT_W: usize = 4;
const W_HEAD: usize = 5;
const W_SWAP: usize = 6;
const W_SG: usize = 7;

fn wcols_expr() -> Expr {
    emin(v("nb") + v("kv") + k(1), v("n"))
}

fn window_schedule(shape: &Shape, oracle: &Oracle) -> Vec<EpochInstance> {
    let n = shape.n;
    let wcols = (shape.nb + shape.kl + shape.ku + 1).min(n);
    let mut out = vec![inst(W_LOAD, &[("dst", 0), ("cnt", wcols as i64)])];
    let mut st = ColState::default();
    let mut loaded = wcols;
    let mut j0 = 0usize;
    loop {
        let jb = shape.nb.min(n - j0);
        for j in j0..j0 + jb {
            push_column_epochs(
                &mut out, W_HEAD, W_SWAP, W_SG, shape, oracle, j, j0, &mut st,
            );
        }
        out.push(inst(W_STORE, &[("src", 0), ("cnt", jb as i64)]));
        let next = j0 + jb;
        if next >= n {
            out.push(empty());
            break;
        }
        let keep = loaded - next;
        if keep > jb {
            out.push(inst(W_SHIFT_R, &[("j0", j0 as i64)]));
            out.push(inst(W_SHIFT_W, &[("j0", j0 as i64)]));
        } else {
            out.push(inst(W_SHIFT, &[("j0", j0 as i64)]));
        }
        let new_end = (next + wcols).min(n);
        if new_end > loaded {
            out.push(inst(
                W_LOAD,
                &[
                    ("dst", (loaded - next) as i64),
                    ("cnt", (new_end - loaded) as i64),
                ],
            ));
            loaded = new_end;
        } else {
            out.push(empty());
        }
        j0 = next;
    }
    out
}

/// Model of [`crate::window::gbtrf_batch_window`]: the column steps over a
/// resident window of `min(nb + kv + 1, n)` columns, with the in-kernel
/// left shift between blocks. The shift runs as one epoch only when the
/// kept range cannot overlap its destination (`keep <= jb`); otherwise the
/// kernel splits it into a read epoch and a write epoch — the exact
/// barrier PR 3 added, which [`fixtures`] removes again.
pub fn window_model(rigor: Rigor) -> KernelModel {
    let cx = ColCtx {
        alloc: 0,
        col0: v("j0"),
        extra: vec![VarDef::new("j0", k(0), v("n") - k(1))],
        j_lo: v("j0"),
        j_hi: emin(v("j0") + v("nb"), v("n")) - k(1),
        prologue_guards: vec![k(0) - v("j0")],
    };
    let shift_vars = || {
        vec![
            VarDef::new("j0", k(0), v("n") - k(1)),
            VarDef::fixed("jb", emin(v("nb"), v("n") - v("j0"))),
            VarDef::fixed("keep", emin(wcols_expr(), v("n") - v("j0")) - v("jb")),
        ]
    };
    let not_last = || v("n") - v("j0") - v("jb") - k(1);
    KernelModel {
        family: "gbtrf_window",
        label: "gbtrf_window",
        allocs: vec![AllocModel {
            name: "window",
            elems: v("ldab") * wcols_expr(),
        }],
        templates: vec![
            EpochTemplate {
                name: "load",
                vars: vec![
                    VarDef::new("dst", k(0), v("n")),
                    VarDef::new("cnt", k(0), v("n")),
                ],
                guards: Vec::new(),
                accesses: vec![striped(
                    0,
                    AccessKind::Write,
                    v("dst") * v("ldab"),
                    v("cnt") * v("ldab"),
                )],
            },
            EpochTemplate {
                name: "store",
                vars: vec![
                    VarDef::new("src", k(0), v("n")),
                    VarDef::new("cnt", k(0), v("n")),
                ],
                guards: Vec::new(),
                accesses: vec![striped(
                    0,
                    AccessKind::Read,
                    v("src") * v("ldab"),
                    v("cnt") * v("ldab"),
                )],
            },
            EpochTemplate {
                name: "shift",
                vars: shift_vars(),
                guards: vec![not_last(), v("jb") - v("keep")],
                accesses: vec![
                    striped(
                        0,
                        AccessKind::Read,
                        v("jb") * v("ldab"),
                        v("keep") * v("ldab"),
                    ),
                    striped(0, AccessKind::Write, k(0), v("keep") * v("ldab")),
                ],
            },
            EpochTemplate {
                name: "shift_read",
                vars: shift_vars(),
                guards: vec![not_last(), v("keep") - v("jb") - k(1)],
                accesses: vec![striped(
                    0,
                    AccessKind::Read,
                    v("jb") * v("ldab"),
                    v("keep") * v("ldab"),
                )],
            },
            EpochTemplate {
                name: "shift_write",
                vars: shift_vars(),
                guards: vec![not_last(), v("keep") - v("jb") - k(1)],
                accesses: vec![striped(0, AccessKind::Write, k(0), v("keep") * v("ldab"))],
            },
            col_head(&cx),
            col_swap(&cx),
            col_scal_ger(&cx),
        ],
        smem_bytes: v("ldab") * wcols_expr() * v("sbytes"),
        envelope: envelope(vec![
            ("kl", rigor.pick(&[0, 2], &[0, 1, 2, 3])),
            ("ku", rigor.pick(&[1], &[0, 1, 3])),
            ("nb", rigor.pick(&[1, 8], &[1, 2, 8])),
        ]),
        schedule: Some(window_schedule),
    }
}

// ---------------------------------------------------------------------------
// Fused factor + solve (GBSV)
// ---------------------------------------------------------------------------

const G_LOAD: usize = 0;
const G_STORE: usize = 1;
const G_HEAD: usize = 2;
const G_SWAP: usize = 3;
const G_SG: usize = 4;
const G_RHS_SWAP: usize = 5;
const G_FWD: usize = 6;
const G_BWD: usize = 7;

fn gbsv_schedule(shape: &Shape, oracle: &Oracle) -> Vec<EpochInstance> {
    let n = shape.n;
    let kl = shape.kl;
    let mut out = vec![inst(G_LOAD, &[])];
    let mut st = ColState::default();
    for j in 0..n {
        push_column_epochs(&mut out, G_HEAD, G_SWAP, G_SG, shape, oracle, j, 0, &mut st);
        if st.info != 0 && st.info as usize == j + 1 {
            continue; // zero pivot: no forward update from this column
        }
        if j < n - 1 && kl > 0 {
            let jn = j as i64;
            let jp = oracle.jp[j];
            if jp != 0 {
                out.push(inst(G_RHS_SWAP, &[("j", jn), ("jp", jp)]));
            }
            out.push(inst(G_FWD, &[("j", jn)]));
        }
    }
    if st.info == 0 {
        out.push(inst(G_BWD, &[]));
    }
    out.push(inst(G_STORE, &[]));
    out.push(empty());
    out
}

/// Model of [`crate::gbsv_fused::gbsv_batch_fused`]: the fused-factor
/// column steps interleaved with the forward solve on the resident RHS
/// block, then the in-shared backward substitution.
pub fn gbsv_model(rigor: Rigor) -> KernelModel {
    let cx = ColCtx {
        alloc: 0,
        col0: k(0),
        extra: Vec::new(),
        j_lo: k(0),
        j_hi: v("n") - k(1),
        prologue_guards: Vec::new(),
    };
    let band_len = v("ldab") * v("n");
    let rhs_len = v("n") * v("nrhs");
    let cvar = || VarDef::enumerated("c", k(0), v("nrhs") - k(1));
    let with_c = |mut a: Access| {
        a.vars.push(cvar());
        a
    };
    let bx_nz = || {
        vec![Pred {
            name: "bx_nz",
            args: vec![v("c"), v("j")],
        }]
    };
    KernelModel {
        family: "gbsv_fused",
        label: "gbsv_fused",
        allocs: vec![
            AllocModel {
                name: "band",
                elems: band_len.clone(),
            },
            AllocModel {
                name: "rhs",
                elems: rhs_len.clone(),
            },
        ],
        templates: vec![
            EpochTemplate {
                name: "load",
                vars: Vec::new(),
                guards: Vec::new(),
                accesses: vec![
                    striped(0, AccessKind::Write, k(0), band_len.clone()),
                    striped(1, AccessKind::Write, k(0), rhs_len.clone()),
                ],
            },
            EpochTemplate {
                name: "store",
                vars: Vec::new(),
                guards: Vec::new(),
                accesses: vec![
                    striped(0, AccessKind::Read, k(0), band_len.clone()),
                    striped(1, AccessKind::Read, k(0), rhs_len.clone()),
                ],
            },
            col_head(&cx),
            col_swap(&cx),
            col_scal_ger(&cx),
            // RHS pivot swap: lane c swaps rows j and j + jp of its column.
            EpochTemplate {
                name: "rhs_swap",
                vars: vec![
                    VarDef::new("j", k(0), v("n") - k(2)),
                    VarDef::fixed("km", emin(v("kl"), v("n") - k(1) - v("j"))),
                    VarDef::new("jp", k(1), v("km")),
                ],
                guards: vec![v("kl") - k(1)],
                accesses: vec![
                    with_c(owned(
                        1,
                        AccessKind::Read,
                        v("c"),
                        v("c") * v("n") + v("j") + v("jp"),
                        k(1),
                    )),
                    with_c(owned(
                        1,
                        AccessKind::Read,
                        v("c"),
                        v("c") * v("n") + v("j"),
                        k(1),
                    )),
                    with_c(owned(
                        1,
                        AccessKind::Write,
                        v("c"),
                        v("c") * v("n") + v("j") + v("jp"),
                        k(1),
                    )),
                    with_c(owned(
                        1,
                        AccessKind::Write,
                        v("c"),
                        v("c") * v("n") + v("j"),
                        k(1),
                    )),
                ],
            },
            // Forward rank-1 on the RHS: broadcast of b[j], then — when it
            // is nonzero — the striped multiplier read and row updates.
            EpochTemplate {
                name: "fwd",
                vars: vec![
                    VarDef::new("j", k(0), v("n") - k(2)),
                    VarDef::fixed("lm", emin(v("kl"), v("n") - k(1) - v("j"))),
                ],
                guards: vec![v("kl") - k(1)],
                accesses: vec![
                    with_c(Access {
                        alloc: 1,
                        kind: AccessKind::Read,
                        pattern: Pattern::Broadcast {
                            off: v("c") * v("n") + v("j"),
                        },
                        vars: Vec::new(),
                        guards: Vec::new(),
                        preds: Vec::new(),
                    }),
                    with_c(Access {
                        alloc: 0,
                        kind: AccessKind::Read,
                        pattern: Pattern::Striped {
                            base: v("j") * v("ldab") + v("kv") + k(1),
                            len: v("lm"),
                        },
                        vars: Vec::new(),
                        guards: Vec::new(),
                        preds: bx_nz(),
                    }),
                    with_c(Access {
                        alloc: 1,
                        kind: AccessKind::Read,
                        pattern: Pattern::Striped {
                            base: v("c") * v("n") + v("j") + k(1),
                            len: v("lm"),
                        },
                        vars: Vec::new(),
                        guards: Vec::new(),
                        preds: bx_nz(),
                    }),
                    with_c(Access {
                        alloc: 1,
                        kind: AccessKind::Write,
                        pattern: Pattern::Striped {
                            base: v("c") * v("n") + v("j") + k(1),
                            len: v("lm"),
                        },
                        vars: Vec::new(),
                        guards: Vec::new(),
                        preds: bx_nz(),
                    }),
                ],
            },
            // Backward substitution: lane c owns RHS column c outright and
            // reads the factor columns.
            EpochTemplate {
                name: "backward",
                vars: Vec::new(),
                guards: Vec::new(),
                accesses: vec![
                    with_c(owned(1, AccessKind::Read, v("c"), v("c") * v("n"), v("n"))),
                    with_c(owned(1, AccessKind::Write, v("c"), v("c") * v("n"), v("n"))),
                    with_c(owned(0, AccessKind::Read, v("c"), k(0), band_len.clone())),
                ],
            },
        ],
        smem_bytes: ceil8(band_len * v("sbytes")) + ceil8(rhs_len * v("sbytes")),
        envelope: envelope(vec![
            ("kl", rigor.pick(&[0, 2], &[0, 1, 2, 3])),
            ("ku", rigor.pick(&[1], &[0, 1, 3])),
            ("nrhs", rigor.pick(&[2], &[1, 2, 3])),
        ]),
        schedule: Some(gbsv_schedule),
    }
}

// ---------------------------------------------------------------------------
// Blocked GBTRS (forward / backward launches)
// ---------------------------------------------------------------------------

const S_INIT: usize = 0;
const S_COL: usize = 1;
const S_TAIL: usize = 2;
const S_TAIL_LAST: usize = 3;

fn fwd_cr() -> Expr {
    emin(v("nb") + v("kl"), v("n"))
}

fn bwd_cr() -> Expr {
    emin(v("nb") + v("kv"), v("n"))
}

fn colbase() -> Expr {
    v("c") * v("cr")
}

fn forward_schedule(shape: &Shape, oracle: &Oracle) -> Vec<EpochInstance> {
    let n = shape.n;
    let nb = shape.nb;
    let mut out = vec![inst(S_INIT, &[])];
    let mut j0 = 0usize;
    loop {
        let jb = nb.min(n - j0);
        for j in j0..(j0 + jb).min(n - 1) {
            out.push(inst(
                S_COL,
                &[("j", j as i64), ("j0", j0 as i64), ("jp", oracle.jp[j])],
            ));
        }
        if j0 + jb >= n {
            out.push(inst(S_TAIL_LAST, &[("j0", j0 as i64)]));
            break;
        }
        out.push(inst(S_TAIL, &[("j0", j0 as i64)]));
        j0 += jb;
    }
    out
}

/// Model of the forward (`L`-solve) launch of
/// [`crate::gbtrs_blocked::gbtrs_batch_blocked`]: lane `c` owns cached RHS
/// column `c` (rows `[j0, j0 + cr)` of the global RHS), so every epoch's
/// accesses stay inside per-lane column chunks. Only launched for
/// `kl > 0 && n > 1`, hence the `kl >= 1` envelope.
pub fn gbtrs_forward_model(rigor: Rigor) -> KernelModel {
    let cvar = || VarDef::enumerated("c", k(0), v("nrhs") - k(1));
    let with_c = |mut a: Access| {
        a.vars.push(cvar());
        a
    };
    let lj = || v("j") - v("j0");
    let fwd_nz = || {
        vec![Pred {
            name: "fwd_nz",
            args: vec![v("c"), v("j")],
        }]
    };
    let swap_guard = || vec![v("jp") - k(1)];
    let swap = |kind, off: Expr| {
        let mut a = owned(0, kind, v("c"), colbase() + off, k(1));
        a.guards = swap_guard();
        with_c(a)
    };
    KernelModel {
        family: "gbtrs_forward",
        label: "gbtrs_forward",
        allocs: vec![AllocModel {
            name: "cache",
            elems: fwd_cr() * v("nrhs"),
        }],
        templates: vec![
            EpochTemplate {
                name: "init",
                vars: vec![VarDef::fixed("cr", fwd_cr())],
                guards: Vec::new(),
                accesses: vec![with_c(owned(
                    0,
                    AccessKind::Write,
                    v("c"),
                    colbase(),
                    v("cr"),
                ))],
            },
            EpochTemplate {
                name: "colstep",
                vars: vec![
                    VarDef::fixed("cr", fwd_cr()),
                    VarDef::new("j", k(0), v("n") - k(2)),
                    VarDef::new("j0", emax(k(0), v("j") - v("nb") + k(1)), v("j")),
                    VarDef::new("jp", k(0), emin(v("kl"), v("cr") - k(1) - v("j") + v("j0"))),
                    VarDef::fixed("lm", emin(v("kl"), v("n") - k(1) - v("j"))),
                ],
                guards: Vec::new(),
                accesses: vec![
                    swap(AccessKind::Read, lj()),
                    swap(AccessKind::Read, lj() + v("jp")),
                    swap(AccessKind::Write, lj()),
                    swap(AccessKind::Write, lj() + v("jp")),
                    with_c(owned(0, AccessKind::Read, v("c"), colbase() + lj(), k(1))),
                    with_c(Access {
                        alloc: 0,
                        kind: AccessKind::Read,
                        pattern: Pattern::Owned {
                            owner: v("c"),
                            base: colbase() + lj() + k(1),
                            len: v("lm"),
                        },
                        vars: Vec::new(),
                        guards: Vec::new(),
                        preds: fwd_nz(),
                    }),
                    with_c(Access {
                        alloc: 0,
                        kind: AccessKind::Write,
                        pattern: Pattern::Owned {
                            owner: v("c"),
                            base: colbase() + lj() + k(1),
                            len: v("lm"),
                        },
                        vars: Vec::new(),
                        guards: Vec::new(),
                        preds: fwd_nz(),
                    }),
                ],
            },
            EpochTemplate {
                name: "tail",
                vars: vec![
                    VarDef::fixed("cr", fwd_cr()),
                    VarDef::new("j0", k(0), v("n") - k(1)),
                    VarDef::fixed("jb", emin(v("nb"), v("n") - v("j0"))),
                    VarDef::fixed("keep", emin(v("j0") + v("cr"), v("n")) - v("j0") - v("jb")),
                    VarDef::fixed(
                        "loadlen",
                        emin(v("j0") + v("jb") + v("cr"), v("n")) - emin(v("j0") + v("cr"), v("n")),
                    ),
                ],
                guards: vec![v("n") - v("j0") - v("jb") - k(1)],
                accesses: vec![
                    with_c(owned(0, AccessKind::Read, v("c"), colbase(), v("jb"))),
                    with_c(owned(
                        0,
                        AccessKind::Read,
                        v("c"),
                        colbase() + v("jb"),
                        v("keep"),
                    )),
                    with_c(owned(0, AccessKind::Write, v("c"), colbase(), v("keep"))),
                    with_c(owned(
                        0,
                        AccessKind::Write,
                        v("c"),
                        colbase() + v("keep"),
                        v("loadlen"),
                    )),
                ],
            },
            EpochTemplate {
                name: "tail_last",
                vars: vec![
                    VarDef::fixed("cr", fwd_cr()),
                    VarDef::new("j0", k(0), v("n") - k(1)),
                    VarDef::fixed("jb", emin(v("nb"), v("n") - v("j0"))),
                ],
                guards: vec![v("j0") + v("jb") - v("n")],
                accesses: vec![with_c(owned(
                    0,
                    AccessKind::Read,
                    v("c"),
                    colbase(),
                    v("jb"),
                ))],
            },
        ],
        smem_bytes: fwd_cr() * v("nrhs") * v("sbytes"),
        envelope: envelope(vec![
            ("kl", rigor.pick(&[1, 2], &[1, 2, 3, 8])),
            ("ku", rigor.pick(&[0], &[0, 3])),
            ("nb", rigor.pick(&[1, 8], &[1, 2, 8])),
            ("nrhs", rigor.pick(&[2], &[1, 3])),
        ]),
        schedule: Some(forward_schedule),
    }
}

fn backward_schedule(shape: &Shape, oracle: &Oracle) -> Vec<EpochInstance> {
    let n = shape.n;
    let nb = shape.nb;
    let cr = (nb + shape.kl + shape.ku).min(n);
    let _ = oracle;
    let mut out = vec![inst(S_INIT, &[])];
    let mut lo = n - cr;
    let mut j1 = n;
    loop {
        let jb = nb.min(j1);
        let j0 = j1 - jb;
        for j in (j0..j1).rev() {
            out.push(inst(S_COL, &[("j", j as i64), ("lo", lo as i64)]));
        }
        if j0 == 0 {
            out.push(inst(S_TAIL_LAST, &[("j1", j1 as i64)]));
            break;
        }
        out.push(inst(S_TAIL, &[("j1", j1 as i64)]));
        lo = j0.saturating_sub(cr);
        j1 = j0;
    }
    out
}

/// Model of the backward (`U`-solve) launch of
/// [`crate::gbtrs_blocked::gbtrs_batch_blocked`]: the cache covers global
/// rows `[lo, lo + cr)` and slides toward row 0, lane `c` owning column
/// chunk `c` throughout.
pub fn gbtrs_backward_model(rigor: Rigor) -> KernelModel {
    let cvar = || VarDef::enumerated("c", k(0), v("nrhs") - k(1));
    let with_c = |mut a: Access| {
        a.vars.push(cvar());
        a
    };
    let lj = || v("j") - v("lo");
    let bwd_nz = || {
        vec![Pred {
            name: "bwd_nz",
            args: vec![v("c"), v("j")],
        }]
    };
    KernelModel {
        family: "gbtrs_backward",
        label: "gbtrs_backward",
        allocs: vec![AllocModel {
            name: "cache",
            elems: bwd_cr() * v("nrhs"),
        }],
        templates: vec![
            EpochTemplate {
                name: "init",
                vars: vec![VarDef::fixed("cr", bwd_cr())],
                guards: Vec::new(),
                accesses: vec![with_c(owned(
                    0,
                    AccessKind::Write,
                    v("c"),
                    colbase(),
                    v("cr"),
                ))],
            },
            EpochTemplate {
                name: "colstep",
                vars: vec![
                    VarDef::fixed("cr", bwd_cr()),
                    VarDef::new("j", k(0), v("n") - k(1)),
                    VarDef::fixed("reach", emin(v("kv"), v("j"))),
                    VarDef::new(
                        "lo",
                        emax(k(0), v("j") - v("cr") + k(1)),
                        v("j") - v("reach"),
                    ),
                ],
                guards: Vec::new(),
                accesses: vec![
                    with_c(owned(0, AccessKind::Read, v("c"), colbase() + lj(), k(1))),
                    with_c(owned(0, AccessKind::Write, v("c"), colbase() + lj(), k(1))),
                    with_c(Access {
                        alloc: 0,
                        kind: AccessKind::Read,
                        pattern: Pattern::Owned {
                            owner: v("c"),
                            base: colbase() + lj() - v("reach"),
                            len: v("reach"),
                        },
                        vars: Vec::new(),
                        guards: vec![v("reach") - k(1)],
                        preds: bwd_nz(),
                    }),
                    with_c(Access {
                        alloc: 0,
                        kind: AccessKind::Write,
                        pattern: Pattern::Owned {
                            owner: v("c"),
                            base: colbase() + lj() - v("reach"),
                            len: v("reach"),
                        },
                        vars: Vec::new(),
                        guards: vec![v("reach") - k(1)],
                        preds: bwd_nz(),
                    }),
                ],
            },
            EpochTemplate {
                name: "tail",
                vars: vec![
                    VarDef::fixed("cr", bwd_cr()),
                    VarDef::new("j1", k(1), v("n")),
                    VarDef::fixed("jb", emin(v("nb"), v("j1"))),
                    VarDef::fixed("j0", v("j1") - v("jb")),
                    VarDef::fixed("lo", emax(v("j1") - v("cr"), k(0))),
                    VarDef::fixed("keep", v("j0") - v("lo")),
                    VarDef::fixed("shl", v("lo") - emax(v("j0") - v("cr"), k(0))),
                ],
                guards: vec![v("j0") - k(1)],
                accesses: vec![
                    with_c(owned(
                        0,
                        AccessKind::Read,
                        v("c"),
                        colbase() + v("j0") - v("lo"),
                        v("jb"),
                    )),
                    with_c(Access {
                        alloc: 0,
                        kind: AccessKind::Read,
                        pattern: Pattern::Owned {
                            owner: v("c"),
                            base: colbase(),
                            len: v("keep"),
                        },
                        vars: Vec::new(),
                        guards: vec![v("keep") - k(1), v("shl") - k(1)],
                        preds: Vec::new(),
                    }),
                    with_c(Access {
                        alloc: 0,
                        kind: AccessKind::Write,
                        pattern: Pattern::Owned {
                            owner: v("c"),
                            base: colbase() + v("shl"),
                            len: v("keep"),
                        },
                        vars: Vec::new(),
                        guards: vec![v("keep") - k(1), v("shl") - k(1)],
                        preds: Vec::new(),
                    }),
                    with_c(Access {
                        alloc: 0,
                        kind: AccessKind::Write,
                        pattern: Pattern::Owned {
                            owner: v("c"),
                            base: colbase(),
                            len: v("shl"),
                        },
                        vars: Vec::new(),
                        guards: vec![v("shl") - k(1)],
                        preds: Vec::new(),
                    }),
                ],
            },
            EpochTemplate {
                name: "tail_last",
                vars: vec![
                    VarDef::fixed("cr", bwd_cr()),
                    VarDef::new("j1", k(1), v("n")),
                    VarDef::fixed("jb", emin(v("nb"), v("j1"))),
                    VarDef::fixed("j0", v("j1") - v("jb")),
                    VarDef::fixed("lo", emax(v("j1") - v("cr"), k(0))),
                ],
                guards: vec![k(0) - v("j0")],
                accesses: vec![with_c(owned(
                    0,
                    AccessKind::Read,
                    v("c"),
                    colbase() + v("j0") - v("lo"),
                    v("jb"),
                ))],
            },
        ],
        smem_bytes: bwd_cr() * v("nrhs") * v("sbytes"),
        envelope: envelope(vec![
            ("kl", rigor.pick(&[0, 2], &[0, 2])),
            ("ku", rigor.pick(&[1], &[0, 1, 3])),
            ("nb", rigor.pick(&[1, 8], &[1, 2, 8])),
            ("nrhs", rigor.pick(&[2], &[1, 3])),
        ]),
        schedule: Some(backward_schedule),
    }
}

// ---------------------------------------------------------------------------
// Interleaved layout (lane-private: no tracked shared accesses)
// ---------------------------------------------------------------------------

/// Model of [`crate::interleaved::gbtrf_batch_interleaved`]. The
/// interleaved kernels keep every lane on its own matrix slice and make no
/// cross-lane shared-memory accesses at all, so the model has no
/// templates; conformance instead asserts the observed trace is empty.
/// The byte formula still participates in the smem audit.
pub fn interleaved_factor_model() -> KernelModel {
    KernelModel {
        family: "gbtrf_interleaved",
        label: "gbtrf_interleaved",
        allocs: Vec::new(),
        templates: Vec::new(),
        smem_bytes: emin(v("kv") + k(2), v("n")) * v("ldab") * v("lanes") * v("sbytes"),
        envelope: Envelope {
            grid: vec![
                ("kl", vec![0, 2]),
                ("ku", vec![1, 3]),
                ("lanes", vec![1, 2, 4]),
            ],
            derived: derived_band(),
            frees: vec![("n", 1, 1 << 20)],
            threads: vec![4],
            search_n: vec![1],
        },
        schedule: None,
    }
}

/// Model of [`crate::interleaved::gbtrs_batch_interleaved`] — lane-private
/// like the factor kernel; smem audit only.
pub fn interleaved_solve_model() -> KernelModel {
    KernelModel {
        family: "gbtrs_interleaved",
        label: "gbtrs_interleaved",
        allocs: Vec::new(),
        templates: Vec::new(),
        smem_bytes: v("n") * v("nrhs") * v("lanes") * v("sbytes"),
        envelope: Envelope {
            grid: vec![
                ("kl", vec![0, 2]),
                ("ku", vec![1, 3]),
                ("nrhs", vec![1, 3]),
                ("lanes", vec![1, 2, 4]),
            ],
            derived: derived_band(),
            frees: vec![("n", 1, 1 << 20)],
            threads: vec![4],
            search_n: vec![1],
        },
        schedule: None,
    }
}

// ---------------------------------------------------------------------------
// SPIKE coupling kernels
// ---------------------------------------------------------------------------

const X_STAGE: usize = 0;
const X_DRAIN: usize = 1;

/// Elements of the staged coupling corners: the `ku x ku` `B` corner plus
/// the `kl x kl` `C` corner (mirrors
/// [`crate::spike::extract_smem_bytes`]).
fn spike_corner_elems() -> Expr {
    v("kl") * v("kl") + v("ku") * v("ku")
}

fn spike_extract_schedule(_shape: &Shape, _oracle: &Oracle) -> Vec<EpochInstance> {
    vec![inst(X_STAGE, &[]), inst(X_DRAIN, &[]), empty()]
}

/// Model of the SPIKE coupling-corner extraction
/// ([`crate::spike`]'s `spike_extract_launch`): one block per cut
/// interface stages both corners through shared memory — the `B` and `C`
/// corners are disjoint striped sweeps within one write epoch, then a
/// barrier, then the matching striped drain epoch. The schedule is
/// data-independent (no pivoting happens here).
pub fn spike_extract_model(rigor: Rigor) -> KernelModel {
    let elems = spike_corner_elems();
    KernelModel {
        family: "spike_extract",
        label: "spike_extract",
        allocs: vec![AllocModel {
            name: "corners",
            elems: elems.clone(),
        }],
        templates: vec![
            EpochTemplate {
                name: "stage",
                vars: Vec::new(),
                guards: Vec::new(),
                accesses: vec![
                    striped(0, AccessKind::Write, k(0), v("ku") * v("ku")),
                    striped(0, AccessKind::Write, v("ku") * v("ku"), v("kl") * v("kl")),
                ],
            },
            EpochTemplate {
                name: "drain",
                vars: Vec::new(),
                guards: Vec::new(),
                accesses: vec![
                    striped(0, AccessKind::Read, k(0), v("ku") * v("ku")),
                    striped(0, AccessKind::Read, v("ku") * v("ku"), v("kl") * v("kl")),
                ],
            },
        ],
        smem_bytes: elems * v("sbytes"),
        envelope: envelope(vec![
            ("kl", rigor.pick(&[0, 2], &[0, 1, 2, 3, 8])),
            ("ku", rigor.pick(&[1, 3], &[1, 3, 7])),
        ]),
        schedule: Some(spike_extract_schedule),
    }
}

const C_STAGE: usize = 0;
const C_CONSUME: usize = 1;

fn spike_combine_schedule(_shape: &Shape, _oracle: &Oracle) -> Vec<EpochInstance> {
    vec![inst(C_STAGE, &[]), inst(C_CONSUME, &[]), empty()]
}

/// Model of the SPIKE back-substitution
/// ([`crate::spike`]'s `spike_combine_launch`): one block per partition
/// stages its `(kl + ku) x nrhs` interface slice of the solved reduced
/// vector (one striped sweep per RHS column, disjoint across columns),
/// barriers, then broadcast-reads each staged element exactly once before
/// the lane-private row sweep.
pub fn spike_combine_model(rigor: Rigor) -> KernelModel {
    let slice = v("kv") * v("nrhs");
    KernelModel {
        family: "spike_combine",
        label: "spike_combine",
        allocs: vec![AllocModel {
            name: "slice",
            elems: slice.clone(),
        }],
        templates: vec![
            EpochTemplate {
                name: "stage",
                vars: Vec::new(),
                guards: Vec::new(),
                accesses: vec![Access {
                    alloc: 0,
                    kind: AccessKind::Write,
                    pattern: Pattern::Striped {
                        base: v("cc") * v("kv"),
                        len: v("kv"),
                    },
                    vars: vec![VarDef::enumerated("cc", k(0), v("nrhs") - k(1))],
                    guards: Vec::new(),
                    preds: Vec::new(),
                }],
            },
            EpochTemplate {
                name: "consume",
                vars: Vec::new(),
                guards: Vec::new(),
                accesses: vec![Access {
                    alloc: 0,
                    kind: AccessKind::Read,
                    pattern: Pattern::Broadcast { off: v("q") },
                    vars: vec![VarDef::enumerated("q", k(0), slice.clone() - k(1))],
                    guards: Vec::new(),
                    preds: Vec::new(),
                }],
            },
        ],
        smem_bytes: slice * v("sbytes"),
        envelope: envelope(vec![
            ("kl", rigor.pick(&[0, 2], &[0, 1, 2, 3])),
            ("ku", rigor.pick(&[1], &[1, 3])),
            ("nrhs", rigor.pick(&[2], &[1, 2, 3])),
        ]),
        schedule: Some(spike_combine_schedule),
    }
}

/// Model of the SPIKE residual sweep ([`crate::spike`]'s
/// `spike_residual_launch`) — entirely lane-private like the interleaved
/// kernels: no shared memory, no barriers, so the model has no templates
/// and conformance asserts the observed trace is empty.
pub fn spike_residual_model() -> KernelModel {
    KernelModel {
        family: "spike_residual",
        label: "spike_residual",
        allocs: Vec::new(),
        templates: Vec::new(),
        smem_bytes: k(0),
        envelope: Envelope {
            grid: vec![("kl", vec![0, 2]), ("ku", vec![1, 3]), ("nrhs", vec![1, 2])],
            derived: derived_band(),
            frees: vec![("n", 1, 1 << 20)],
            threads: vec![4],
            search_n: vec![1],
        },
        schedule: None,
    }
}

/// Every registered kernel model, at the requested rigor.
pub fn registry(rigor: Rigor) -> Vec<KernelModel> {
    vec![
        fused_model(rigor),
        window_model(rigor),
        gbsv_model(rigor),
        gbtrs_forward_model(rigor),
        gbtrs_backward_model(rigor),
        interleaved_factor_model(),
        interleaved_solve_model(),
        spike_extract_model(rigor),
        spike_combine_model(rigor),
        spike_residual_model(),
    ]
}

// ---------------------------------------------------------------------------
// Negative fixtures: the two historical barrier bugs, re-introduced
// ---------------------------------------------------------------------------

/// Models of known-racy schedules the verifier must reject. Each is the
/// faulty pre-fix version of a shipped epoch: [`prove_model`] has to fail
/// on both and hand back a concrete counterexample shape.
///
/// 1. `fixture_window_shift_unsynced` — the window kernel's in-kernel
///    shift as one epoch even when the kept range overlaps its
///    destination (`keep > jb`): the missing barrier between the striped
///    read and the striped write.
/// 2. `fixture_gbsv_swap_fwd_unsynced` — the GBSV RHS pivot swap merged
///    into the same epoch as the forward update's broadcast read of
///    `b[j]`, which the swap writes from a different lane.
///
/// [`prove_model`]: gbatch_analyzer::prove_model
pub fn fixtures() -> Vec<KernelModel> {
    let shift_fixture = KernelModel {
        family: "fixture_window_shift_unsynced",
        label: "gbtrf_window",
        allocs: vec![AllocModel {
            name: "window",
            elems: v("ldab") * wcols_expr(),
        }],
        templates: vec![EpochTemplate {
            name: "shift_merged",
            vars: vec![
                VarDef::new("j0", k(0), v("n") - k(1)),
                VarDef::fixed("jb", emin(v("nb"), v("n") - v("j0"))),
                VarDef::fixed("keep", emin(wcols_expr(), v("n") - v("j0")) - v("jb")),
            ],
            // The real kernel adds `jb >= keep` here (or splits the epoch);
            // this fixture deliberately omits it.
            guards: vec![v("n") - v("j0") - v("jb") - k(1)],
            accesses: vec![
                striped(
                    0,
                    AccessKind::Read,
                    v("jb") * v("ldab"),
                    v("keep") * v("ldab"),
                ),
                striped(0, AccessKind::Write, k(0), v("keep") * v("ldab")),
            ],
        }],
        smem_bytes: v("ldab") * wcols_expr() * v("sbytes"),
        envelope: Envelope {
            grid: vec![("kl", vec![0]), ("ku", vec![1]), ("nb", vec![1])],
            derived: derived_band(),
            frees: vec![("n", 1, 1 << 20)],
            threads: vec![2, 3, 4],
            search_n: vec![1, 2, 3, 4],
        },
        schedule: None,
    };

    let cvar = || VarDef::enumerated("c", k(0), v("nrhs") - k(1));
    let with_c = |mut a: Access| {
        a.vars.push(cvar());
        a
    };
    let gbsv_fixture = KernelModel {
        family: "fixture_gbsv_swap_fwd_unsynced",
        label: "gbsv_fused",
        allocs: vec![AllocModel {
            name: "rhs",
            elems: v("n") * v("nrhs"),
        }],
        templates: vec![EpochTemplate {
            name: "swap_fwd_merged",
            vars: vec![
                VarDef::new("j", k(0), v("n") - k(2)),
                VarDef::fixed("km", emin(v("kl"), v("n") - k(1) - v("j"))),
                VarDef::new("jp", k(1), v("km")),
            ],
            guards: vec![v("kl") - k(1)],
            accesses: vec![
                with_c(owned(
                    0,
                    AccessKind::Read,
                    v("c"),
                    v("c") * v("n") + v("j") + v("jp"),
                    k(1),
                )),
                with_c(owned(
                    0,
                    AccessKind::Read,
                    v("c"),
                    v("c") * v("n") + v("j"),
                    k(1),
                )),
                with_c(owned(
                    0,
                    AccessKind::Write,
                    v("c"),
                    v("c") * v("n") + v("j") + v("jp"),
                    k(1),
                )),
                with_c(owned(
                    0,
                    AccessKind::Write,
                    v("c"),
                    v("c") * v("n") + v("j"),
                    k(1),
                )),
                // The forward update's broadcast of b[j] — in the real
                // kernel a barrier separates it from the swap above.
                with_c(Access {
                    alloc: 0,
                    kind: AccessKind::Read,
                    pattern: Pattern::Broadcast {
                        off: v("c") * v("n") + v("j"),
                    },
                    vars: Vec::new(),
                    guards: Vec::new(),
                    preds: Vec::new(),
                }),
            ],
        }],
        smem_bytes: ceil8(v("n") * v("nrhs") * v("sbytes")),
        envelope: Envelope {
            grid: vec![("kl", vec![1]), ("ku", vec![0]), ("nrhs", vec![1])],
            derived: derived_band(),
            frees: vec![("n", 1, 1 << 20)],
            threads: vec![2, 3, 4],
            search_n: vec![2, 3, 4],
        },
        schedule: None,
    };

    vec![shift_fixture, gbsv_fixture]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_every_family_once() {
        let models = registry(Rigor::Quick);
        let mut families: Vec<_> = models.iter().map(|m| m.family).collect();
        families.sort_unstable();
        families.dedup();
        assert_eq!(families.len(), models.len(), "duplicate family in registry");
        assert!(models.len() >= 5, "at least five modeled families");
    }

    #[test]
    fn envelopes_ground_the_derived_band_symbols() {
        for m in registry(Rigor::Quick) {
            for g in m.envelope.groundings() {
                let kl = g["kl"];
                let ku = g["ku"];
                assert_eq!(g["kv"], kl + ku);
                assert_eq!(g["ldab"], 2 * kl + ku + 1);
            }
        }
    }

    #[test]
    fn template_index_constants_match_names() {
        let fused = fused_model(Rigor::Quick);
        assert_eq!(fused.template_index("head"), F_HEAD);
        assert_eq!(fused.template_index("scal_ger"), F_SG);
        let win = window_model(Rigor::Quick);
        assert_eq!(win.template_index("shift"), W_SHIFT);
        assert_eq!(win.template_index("shift_write"), W_SHIFT_W);
        assert_eq!(win.template_index("head"), W_HEAD);
        let gbsv = gbsv_model(Rigor::Quick);
        assert_eq!(gbsv.template_index("rhs_swap"), G_RHS_SWAP);
        assert_eq!(gbsv.template_index("backward"), G_BWD);
        let fwd = gbtrs_forward_model(Rigor::Quick);
        assert_eq!(fwd.template_index("colstep"), S_COL);
        assert_eq!(fwd.template_index("tail_last"), S_TAIL_LAST);
        let bwd = gbtrs_backward_model(Rigor::Quick);
        assert_eq!(bwd.template_index("tail"), S_TAIL);
        let ext = spike_extract_model(Rigor::Quick);
        assert_eq!(ext.template_index("stage"), X_STAGE);
        assert_eq!(ext.template_index("drain"), X_DRAIN);
        let cmb = spike_combine_model(Rigor::Quick);
        assert_eq!(cmb.template_index("stage"), C_STAGE);
        assert_eq!(cmb.template_index("consume"), C_CONSUME);
    }
}
