//! The static half of the budget: a launch's counters, counted from its lowered body before
//! the first row runs — exactly where its control reads no data, and as a lower bound
//! elsewhere.
//!
//! [`static_counters`] walks the slot-indexed body once for the whole ND-range. Every lane
//! (work item) carries a *weight*, the number of times it runs the statement being walked,
//! and every integer or boolean the walk can evaluate carries its value in each lane, so
//! the work-item ids, the launch sizes, the scalar `int` arguments and anything computed
//! from them are known exactly. Every operation is computed and charged as `ops.rs` states
//! it, which is how the interpreter and the bytecode tier compute and charge it, once per
//! lane that certainly runs it; what runs is decided as the interpreter decides it: an `If`
//! evaluates its condition in every active lane, a `For` round its condition in every
//! active lane of each group still looping, plus one loop iteration and one step per lane
//! that enters the body.
//!
//! * A loop whose trip count can be evaluated in every lane, and whose body does not assign
//!   its variable, is counted as trips × body: the body is walked once, with every slot the
//!   body assigns marked as varying from round to round, and the loop variable known as its
//!   start plus the round times its step where the step is the same in every lane. If
//!   control inside the body reads a varying slot, that walk is abandoned and the loop is
//!   walked round by round instead.
//! * A condition, loop bound or ternary that depends on loaded data, or on anything the walk
//!   cannot evaluate, counts only the work that is certain to happen: the arms, and every
//!   round of the loop after the first undecided one, count zero, and the slots they assign
//!   are forgotten.
//! * Lock-step rows are counted as the engines count them: every statement, and every round
//!   check of a loop, in each group with an active lane, once per round of the counted loops
//!   around it in which one of the group's lanes runs it.
//! * Transactions are counted as the engines group accesses: the distinct `(buffer,
//!   32-element segment)` pairs of each statement's global accesses, per row and per SIMD
//!   group of 32 work items, and an access beyond `ceil(accesses / 32)` of them is
//!   uncoalesced. Inside a counted loop an address is its lanes' values plus the rounds
//!   times coefficients the same in every lane, so the segments a SIMD group touches repeat
//!   with a period of `32 / gcd(coefficient, 32)` rounds: one period is counted per band of
//!   rounds with the same active lanes, not every round. Vector accesses are counted with
//!   the accesses they are made of, so the vector discount the cost model subtracts is
//!   never larger than the access cost counted beside it.
//!
//! Every counted event is one the interpreter counts too, so each class is a lower bound on
//! the executed one for any launch that completes. The walk says whether it is *exact*: no
//! control and no global address read data or anything else the walk cannot evaluate, and
//! no `MAX_ROUNDS` / `MAX_STEPS` / `MAX_SEGMENT_WORK` cap was hit. An exact count equals the
//! counters of every completed run in every class.

use std::borrow::Cow;
use std::rc::Rc;

use lift_ocl::{AddrSpace, CBinOp, WorkItem};

use crate::cost::CostCounters;
use crate::device::LaunchConfig;
use crate::exec::{Lowered, SExpr, SIndex, SLhs, SStmt};
use crate::exec::{COALESCE_GROUP as SIMD, SEGMENT_ELEMS as SEGMENT};
use crate::memory::{KernelArg, Scalar};
use crate::ops::{self, IntOp};

/// Rounds a loop is walked one at a time before the walk stops counting it.
const MAX_ROUNDS: u64 = 1024;
/// Statements the walk visits round by round in one launch before it stops counting them.
const MAX_STEPS: u64 = 1 << 16;
/// Nested user-function calls the walk follows.
const MAX_CALL_DEPTH: usize = 64;
/// Lane addresses one statement's transactions may evaluate before the walk stops counting
/// them.
const MAX_SEGMENT_WORK: u64 = 1 << 22;

/// Work-item ids, by `3 * function + dimension` (global, local, group id).
type Ids = [Option<Num>; 9];

/// The counters of launching `lowered` under `config` with `args` (only the kinds of the
/// arguments and the values of the `int` ones are read), and whether they are exact: each
/// class is at most what a completed run counts, and equal to it when the flag is set.
pub(crate) fn static_counters(
    lowered: &Lowered,
    args: &[KernelArg],
    config: LaunchConfig,
) -> (CostCounters, bool) {
    let mut params = vec![None; lowered.names.len()];
    let mut buffers = 0;
    for (slot, arg) in lowered.param_slots.iter().zip(args) {
        params[*slot] = Some(match arg {
            KernelArg::Buffer(_) => {
                buffers += 1;
                Val::Ptr(AddrSpace::Global, Some(buffers - 1))
            }
            KernelArg::Int(v) => Val::Int(Num::All(*v)),
            KernelArg::Float(_) => Val::Float,
        });
    }
    let geo = Geo {
        items: config.local.iter().product(),
        groups: config.num_groups().iter().product(),
    };
    let mut walk = Walk {
        config,
        geo,
        lowered,
        vals: vec![None; lowered.names.len()],
        local: vec![false; lowered.names.len()],
        params,
        ids: Ids::default(),
        levels: Vec::new(),
        uneven: 0,
        touches: Vec::new(),
        calls: 0,
        steps: 0,
        tally: Tally {
            counters: CostCounters::default(),
            rows: 0,
            group_rows: None,
            exact: true,
        },
    };
    // A stop is raised only inside a loop counted as trips × body, which catches it.
    let _ = walk.block(&lowered.body, &Weights::uniform(1, geo));
    let Tally {
        mut counters,
        rows,
        group_rows,
        mut exact,
    } = walk.tally;
    let groups = geo.groups as u64;
    let (rows_sum, rows_max) = group_rows.map_or((0, 0), |by| {
        (sum(&by), by.iter().copied().max().unwrap_or(0))
    });
    counters.lockstep_rows = rows.saturating_mul(groups).saturating_add(rows_sum);
    counters.group_span_rows = rows.saturating_add(rows_max);
    counters.work_items = geo.lanes() as u64;
    counters.work_groups = groups;
    // A saturated counter is not the count.
    exact &= [
        counters.lockstep_rows,
        counters.flops,
        counters.int_ops,
        counters.div_mod_ops,
        counters.global_accesses,
        counters.global_transactions,
        counters.local_accesses,
        counters.private_accesses,
        counters.loop_iterations,
    ]
    .iter()
    .all(|c| *c < u64::MAX);
    (counters, exact)
}

/// How a launch's lanes are laid out: lane `k` is work item `k % items` of work group
/// `k / items`, both numbered linearly with dimension 0 fastest, as the interpreter does.
#[derive(Clone, Copy)]
struct Geo {
    items: usize,
    groups: usize,
}

impl Geo {
    fn lanes(self) -> usize {
        self.items * self.groups
    }
}

/// What a per-lane value is a function of: a work item's place in its group, its group, or
/// the lane itself. A value that depends on one of the first two is stored once per item or
/// once per group, not once per lane.
#[derive(Clone, Copy, PartialEq)]
enum By {
    Item,
    Group,
    Lane,
}

impl By {
    fn len(self, geo: Geo) -> usize {
        match self {
            By::Item => geo.items,
            By::Group => geo.groups,
            By::Lane => geo.lanes(),
        }
    }
}

/// The shape in which the per-lane values among `nums` combine: their common one, or `Lane`.
fn common_shape(nums: &[&Num]) -> By {
    let mut shapes = nums.iter().filter_map(|n| match n {
        Num::Lanes(by, _) => Some(*by),
        _ => None,
    });
    let first = shapes.next().unwrap_or(By::Lane);
    if shapes.all(|by| by == first) {
        first
    } else {
        By::Lane
    }
}

/// What the walk knows about an integer or a boolean (0 or 1).
#[derive(Clone)]
enum Num {
    /// The same value in every lane.
    All(i64),
    /// One value per item, group or lane.
    Lanes(By, Rc<[i64]>),
    /// Changes from round to round of the loops being counted as trips × body, as a
    /// function of the rounds the walk can evaluate.
    Rounds(Rc<Rounds>),
    /// Changes from round to round of a loop being counted as trips × body, otherwise.
    Varying,
    /// Depends on data, or on something the walk cannot evaluate.
    Unknown,
}

/// A value that changes from round to round of the loops being counted as trips × body.
enum Rounds {
    /// `base + Σ coefs[j] · round of level j` (see [`Walk::levels`]), where `base` is `All`
    /// or `Lanes`; a missing coefficient is 0.
    Linear { base: Num, coefs: Vec<i64> },
    /// An integer operation on two values the walk can evaluate, one of which varies.
    Op(IntOp, Num, Num),
}

impl Num {
    /// The value laid out as `by`, which is its own shape or `Lane` (0 where unknown).
    fn spread(&self, by: By, geo: Geo) -> Cow<'_, [i64]> {
        match self {
            Num::Lanes(own, vs) if *own == by => Cow::Borrowed(vs),
            Num::Lanes(By::Item, vs) => Cow::Owned(vs.repeat(geo.groups)),
            Num::Lanes(_, vs) => Cow::Owned(
                vs.iter()
                    .flat_map(|v| std::iter::repeat_n(*v, geo.items))
                    .collect(),
            ),
            Num::All(v) => Cow::Owned(vec![*v; by.len(geo)]),
            Num::Rounds(_) | Num::Varying | Num::Unknown => Cow::Owned(vec![0; by.len(geo)]),
        }
    }

    /// The value in lane `lane` at round `round[j]` of each level `j` (0 where unknown).
    fn at(&self, lane: usize, round: &[i64], geo: Geo) -> i64 {
        match self {
            Num::All(v) => *v,
            Num::Lanes(By::Item, vs) => vs[lane % geo.items],
            Num::Lanes(By::Group, vs) => vs[lane / geo.items],
            Num::Lanes(By::Lane, vs) => vs[lane],
            Num::Rounds(r) => match &**r {
                Rounds::Linear { base, coefs } => coefs
                    .iter()
                    .zip(round)
                    .fold(base.at(lane, round, geo), |v, (c, r)| {
                        v.wrapping_add(c.wrapping_mul(*r))
                    }),
                Rounds::Op(op, a, b) => {
                    let (a, b) = (a.at(lane, round, geo), b.at(lane, round, geo));
                    ops::int(*op, a, b).unwrap_or(0)
                }
            },
            Num::Varying | Num::Unknown => 0,
        }
    }

    /// The value in lane `lane` at each of the rounds `rounds` (each `depth` long, one per
    /// level) appended to `out`: [`Num::at`] over many rounds, each node evaluated once for
    /// all of them.
    fn at_rounds(&self, lane: usize, rounds: &[i64], depth: usize, geo: Geo, out: &mut Vec<i64>) {
        let n = rounds.len() / depth.max(1);
        match self {
            Num::Rounds(r) => match &**r {
                Rounds::Linear { base, coefs } => {
                    let base = base.at(lane, &[], geo);
                    out.extend(rounds.chunks(depth.max(1)).take(n).map(|round| {
                        coefs
                            .iter()
                            .zip(round)
                            .fold(base, |v, (c, r)| v.wrapping_add(c.wrapping_mul(*r)))
                    }));
                }
                Rounds::Op(op, a, b) => {
                    let (mut x, mut y) = (Vec::with_capacity(n), Vec::with_capacity(n));
                    a.at_rounds(lane, rounds, depth, geo, &mut x);
                    b.at_rounds(lane, rounds, depth, geo, &mut y);
                    out.extend(
                        x.iter()
                            .zip(&y)
                            .map(|(x, y)| ops::int(*op, *x, *y).unwrap_or(0)),
                    );
                }
            },
            other => out.extend(std::iter::repeat_n(other.at(lane, &[], geo), n)),
        }
    }

    fn is_known(&self) -> bool {
        matches!(self, Num::All(_) | Num::Lanes(..))
    }

    /// Whether the walk can evaluate the value in every lane at every round.
    fn is_counted(&self) -> bool {
        matches!(self, Num::All(_) | Num::Lanes(..) | Num::Rounds(_))
    }

    /// Whether the value is the same in all lanes of each group.
    fn is_even(&self, geo: Geo) -> bool {
        let same = |vs: &[i64]| vs.iter().all(|v| *v == vs[0]);
        match self {
            Num::All(_) | Num::Lanes(By::Group, _) => true,
            Num::Lanes(By::Item, vs) => same(vs),
            Num::Lanes(By::Lane, vs) => vs.chunks(geo.items).all(same),
            Num::Rounds(_) | Num::Varying | Num::Unknown => false,
        }
    }

    /// Whether the value varies by round.
    fn by_rounds(&self) -> bool {
        matches!(self, Num::Rounds(_))
    }

    /// The same knowledge without a value: what a slot holds once a round may change it.
    fn varying(&self) -> Num {
        match self {
            Num::Unknown => Num::Unknown,
            _ => Num::Varying,
        }
    }

    /// The value once the loops it varies with are left: it is no longer known.
    fn settled(&self) -> Num {
        match self {
            Num::Rounds(_) => Num::Varying,
            other => other.clone(),
        }
    }

    /// The value as a known base and a coefficient per level, where it is one.
    fn linear(&self) -> Option<(&Num, &[i64])> {
        match self {
            Num::All(_) | Num::Lanes(..) => Some((self, &[])),
            Num::Rounds(r) => match &**r {
                Rounds::Linear { base, coefs } => Some((base, coefs)),
                Rounds::Op(..) => None,
            },
            Num::Varying | Num::Unknown => None,
        }
    }

    fn map(&self, mut f: impl FnMut(i64) -> i64) -> Num {
        match self {
            Num::All(v) => Num::All(f(*v)),
            Num::Lanes(by, vs) => Num::Lanes(*by, vs.iter().map(|v| f(*v)).collect()),
            Num::Rounds(_) => Num::Varying,
            other => other.clone(),
        }
    }

    /// Combines two values lane by lane: unknown wins over varying, varying over known.
    fn zip(&self, other: &Num, geo: Geo, mut f: impl FnMut(i64, i64) -> i64) -> Num {
        match (self, other) {
            (Num::Unknown, _) | (_, Num::Unknown) => Num::Unknown,
            (Num::Varying | Num::Rounds(_), _) | (_, Num::Varying | Num::Rounds(_)) => Num::Varying,
            (Num::All(a), Num::All(b)) => Num::All(f(*a, *b)),
            (Num::Lanes(by, a), Num::All(b)) => {
                Num::Lanes(*by, a.iter().map(|a| f(*a, *b)).collect())
            }
            (Num::All(a), Num::Lanes(by, b)) => {
                Num::Lanes(*by, b.iter().map(|b| f(*a, *b)).collect())
            }
            (Num::Lanes(x, a), Num::Lanes(y, b)) if x == y => {
                Num::Lanes(*x, a.iter().zip(b.iter()).map(|(a, b)| f(*a, *b)).collect())
            }
            _ => {
                let (a, b) = (self.spread(By::Lane, geo), other.spread(By::Lane, geo));
                Num::Lanes(
                    By::Lane,
                    a.iter().zip(b.iter()).map(|(a, b)| f(*a, *b)).collect(),
                )
            }
        }
    }

    /// An integer operation lane by lane, as `ops::int` computes it. On a value that varies
    /// by round it is a function of the rounds, linear where both operands are and the
    /// operation is a sum, a difference or a scaling by a constant.
    fn int(&self, op: IntOp, other: &Num, geo: Geo) -> Num {
        let by_rounds = self.by_rounds() || other.by_rounds();
        if !by_rounds || !self.is_counted() || !other.is_counted() {
            return self.zip(other, geo, int_lanes(op));
        }
        // An operation with its identity on either side is the other operand.
        match (op, self, other) {
            (IntOp::Add | IntOp::Sub, _, Num::All(0)) | (IntOp::Mul, _, Num::All(1)) => {
                return self.clone()
            }
            (IntOp::Add, Num::All(0), _) | (IntOp::Mul, Num::All(1), _) => return other.clone(),
            _ => {}
        }
        let (Some((a, ca)), Some((b, cb))) = (self.linear(), other.linear()) else {
            return Num::Rounds(Rc::new(Rounds::Op(op, self.clone(), other.clone())));
        };
        let coefs: Vec<i64> = match (op, a, b) {
            (IntOp::Add | IntOp::Sub, _, _) => (0..ca.len().max(cb.len()))
                .map(|j| {
                    let (x, y) = (ca.get(j).copied(), cb.get(j).copied());
                    ops::int(op, x.unwrap_or(0), y.unwrap_or(0)).unwrap_or(0)
                })
                .collect(),
            (IntOp::Mul, _, Num::All(k)) if cb.is_empty() => {
                ca.iter().map(|c| c.wrapping_mul(*k)).collect()
            }
            (IntOp::Mul, Num::All(k), _) if ca.is_empty() => {
                cb.iter().map(|c| c.wrapping_mul(*k)).collect()
            }
            _ => return Num::Rounds(Rc::new(Rounds::Op(op, self.clone(), other.clone()))),
        };
        let base = a.zip(b, geo, int_lanes(op));
        if coefs.iter().all(|c| *c == 0) {
            return base;
        }
        Num::Rounds(Rc::new(Rounds::Linear { base, coefs }))
    }

    /// `pick ? self : other`, lane by lane. An unknown `pick` keeps only what both agree on.
    fn select(&self, other: &Num, pick: &Num, geo: Geo) -> Num {
        match (pick, self, other) {
            (Num::All(p), _, _) => if *p != 0 { self } else { other }.clone(),
            (_, Num::Unknown, _) | (_, _, Num::Unknown) => Num::Unknown,
            (_, Num::Varying | Num::Rounds(_), _) | (_, _, Num::Varying | Num::Rounds(_)) => {
                Num::Varying
            }
            (_, Num::All(a), Num::All(b)) if a == b => Num::All(*a),
            (Num::Lanes(..), a, b) => {
                let by = common_shape(&[pick, a, b]);
                let (p, a, b) = (pick.spread(by, geo), a.spread(by, geo), b.spread(by, geo));
                Num::Lanes(
                    by,
                    p.iter()
                        .zip(a.iter().zip(b.iter()))
                        .map(|(p, (a, b))| if *p != 0 { *a } else { *b })
                        .collect(),
                )
            }
            _ => Num::Unknown,
        }
    }
}

/// The abstract value of an expression: the kind the interpreter's value would have, and
/// for integers and booleans what is known of it.
#[derive(Clone)]
enum Val {
    Int(Num),
    Bool(Num),
    Float,
    /// A pointer into a space; into global buffer `n` (by argument order) at offset 0 where
    /// that is known.
    Ptr(AddrSpace, Option<usize>),
    Vector(Rc<[Val]>),
    Struct(Rc<[Val]>),
    /// A value of a kind the walk cannot tell; operations on it count nothing.
    Opaque,
}

impl Val {
    /// The value as an integer (`Scalar::as_i64`).
    fn as_num(&self) -> Num {
        match self {
            Val::Int(n) | Val::Bool(n) => n.clone(),
            Val::Float | Val::Opaque => Num::Unknown,
            Val::Ptr(..) | Val::Vector(_) | Val::Struct(_) => Num::All(0),
        }
    }

    /// The value as a condition (`Scalar::as_bool`): 0 or 1.
    fn truth(&self) -> Num {
        match self {
            Val::Bool(n) => n.clone(),
            Val::Int(n) => n.map(|v| i64::from(v != 0)),
            Val::Float | Val::Opaque => Num::Unknown,
            Val::Ptr(..) | Val::Vector(_) | Val::Struct(_) => Num::All(0),
        }
    }

    fn map_nums(&self, f: &dyn Fn(&Num) -> Num) -> Val {
        match self {
            Val::Int(n) => Val::Int(f(n)),
            Val::Bool(n) => Val::Bool(f(n)),
            Val::Vector(vs) => Val::Vector(vs.iter().map(|v| v.map_nums(f)).collect()),
            Val::Struct(vs) => Val::Struct(vs.iter().map(|v| v.map_nums(f)).collect()),
            other => other.clone(),
        }
    }

    /// Lane by lane `pick ? self : other` when both have the same kind (see
    /// [`Num::select`]), and `Opaque` otherwise.
    fn choose(&self, other: &Val, pick: &Num, geo: Geo) -> Val {
        let fields = |a: &[Val], b: &[Val]| -> Option<Rc<[Val]>> {
            (a.len() == b.len()).then(|| {
                a.iter()
                    .zip(b)
                    .map(|(x, y)| x.choose(y, pick, geo))
                    .collect()
            })
        };
        match (self, other) {
            (Val::Int(a), Val::Int(b)) => Val::Int(a.select(b, pick, geo)),
            (Val::Bool(a), Val::Bool(b)) => Val::Bool(a.select(b, pick, geo)),
            (Val::Float, Val::Float) => Val::Float,
            (Val::Ptr(a, x), Val::Ptr(b, y)) if a == b => {
                Val::Ptr(*a, if x == y { *x } else { None })
            }
            (Val::Vector(a), Val::Vector(b)) => fields(a, b).map_or(Val::Opaque, Val::Vector),
            (Val::Struct(a), Val::Struct(b)) => fields(a, b).map_or(Val::Opaque, Val::Struct),
            _ => Val::Opaque,
        }
    }

    /// The same kind with every value forgotten.
    fn forgotten(&self) -> Val {
        self.map_nums(&|_| Num::Unknown)
    }

    /// Whether some integer in the value varies by round.
    fn by_rounds(&self) -> bool {
        match self {
            Val::Int(n) | Val::Bool(n) => n.by_rounds(),
            Val::Vector(vs) | Val::Struct(vs) => vs.iter().any(Val::by_rounds),
            Val::Float | Val::Ptr(..) | Val::Opaque => false,
        }
    }
}

/// How many times each lane runs the statement being walked: 0 for an inactive lane, more
/// than 1 inside a loop counted as trips × body.
#[derive(Clone)]
struct Weights {
    form: Form,
    total: u64,
}

#[derive(Clone)]
enum Form {
    /// Lane `k` weighs `scale · group[k / items] · item[k % items]`; a missing factor is 1.
    Product {
        scale: u64,
        group: Option<Rc<[u64]>>,
        item: Option<Rc<[u64]>>,
    },
    /// One weight per lane.
    Lanes(Rc<[u64]>),
}

fn sum(ws: &[u64]) -> u64 {
    ws.iter().fold(0, |t, w| t.saturating_add(*w))
}

/// A weight times a known, non-negative factor.
fn times(w: u64, f: i64) -> u64 {
    w.saturating_mul(f as u64)
}

impl Weights {
    fn product(scale: u64, group: Option<Rc<[u64]>>, item: Option<Rc<[u64]>>, geo: Geo) -> Weights {
        let factor = |f: &Option<Rc<[u64]>>, n: usize| f.as_deref().map_or(n as u64, sum);
        let total = scale
            .saturating_mul(factor(&group, geo.groups))
            .saturating_mul(factor(&item, geo.items));
        Weights {
            form: Form::Product { scale, group, item },
            total,
        }
    }

    fn uniform(weight: u64, geo: Geo) -> Weights {
        Weights::product(weight, None, None, geo)
    }

    fn zero() -> Weights {
        Weights {
            form: Form::Product {
                scale: 0,
                group: None,
                item: None,
            },
            total: 0,
        }
    }

    fn from_lanes(lanes: Vec<u64>) -> Weights {
        Weights {
            total: sum(&lanes),
            form: Form::Lanes(lanes.into()),
        }
    }

    /// One weight per lane.
    fn spread(&self, geo: Geo) -> Cow<'_, [u64]> {
        match &self.form {
            Form::Product { scale, group, item } => {
                let mut lanes = Vec::with_capacity(geo.lanes());
                for g in 0..geo.groups {
                    let w = times(*scale, group.as_ref().map_or(1, |ws| ws[g]) as i64);
                    match item {
                        Some(ws) => lanes.extend(ws.iter().map(|i| times(w, *i as i64))),
                        None => lanes.extend(std::iter::repeat_n(w, geo.items)),
                    }
                }
                Cow::Owned(lanes)
            }
            Form::Lanes(ws) => Cow::Borrowed(ws),
        }
    }

    /// The weight of lane `lane`.
    fn at(&self, lane: usize, geo: Geo) -> u64 {
        match &self.form {
            Form::Product { scale, group, item } => {
                let g = group.as_ref().map_or(1, |ws| ws[lane / geo.items]);
                let i = item.as_ref().map_or(1, |ws| ws[lane % geo.items]);
                scale.saturating_mul(g).saturating_mul(i)
            }
            Form::Lanes(ws) => ws[lane],
        }
    }

    /// Each lane's weight times its known, non-negative `factor`.
    fn scale(&self, factor: &Num, geo: Geo) -> Weights {
        let scaled = |f: &Option<Rc<[u64]>>, fs: &[i64]| -> Option<Rc<[u64]>> {
            Some(match f {
                Some(ws) => ws.iter().zip(fs).map(|(w, f)| times(*w, *f)).collect(),
                None => fs.iter().map(|f| times(1, *f)).collect(),
            })
        };
        match (&self.form, factor) {
            (_, Num::Rounds(_) | Num::Varying | Num::Unknown) => Weights::zero(),
            (Form::Product { scale, group, item }, Num::All(f)) => {
                Weights::product(times(*scale, *f), group.clone(), item.clone(), geo)
            }
            (Form::Product { scale, group, item }, Num::Lanes(By::Group, fs)) => {
                Weights::product(*scale, scaled(group, fs), item.clone(), geo)
            }
            (Form::Product { scale, group, item }, Num::Lanes(By::Item, fs)) => {
                Weights::product(*scale, group.clone(), scaled(item, fs), geo)
            }
            _ => {
                let (ws, fs) = (self.spread(geo), factor.spread(By::Lane, geo));
                Weights::from_lanes(
                    ws.iter()
                        .zip(fs.iter())
                        .map(|(w, f)| times(*w, *f))
                        .collect(),
                )
            }
        }
    }

    /// The lanes whose known `truth` (0 or 1) is `keep`.
    fn restrict(&self, truth: &Num, keep: bool, geo: Geo) -> Weights {
        match keep {
            true => self.scale(truth, geo),
            false => self.scale(&truth.map(|t| 1 - t), geo),
        }
    }

    /// Whether these are `other`'s weights (told by identity, so `false` may be wrong).
    fn same(&self, other: &Weights) -> bool {
        let same = |a: &Option<Rc<[u64]>>, b: &Option<Rc<[u64]>>| match (a, b) {
            (None, None) => true,
            (Some(a), Some(b)) => Rc::ptr_eq(a, b),
            _ => false,
        };
        match (&self.form, &other.form) {
            (
                Form::Product { scale, group, item },
                Form::Product {
                    scale: s,
                    group: g,
                    item: i,
                },
            ) => scale == s && same(group, g) && same(item, i),
            (Form::Lanes(a), Form::Lanes(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Whether every lane is active.
    fn is_full(&self) -> bool {
        matches!(self.form, Form::Product { scale, group: None, item: None } if scale > 0)
    }

    /// 1 in the active lanes, 0 elsewhere.
    fn active(&self, geo: Geo) -> Num {
        let on = |ws: &[u64], by| Num::Lanes(by, ws.iter().map(|w| i64::from(*w > 0)).collect());
        match &self.form {
            Form::Product { scale: 0, .. } => Num::All(0),
            Form::Product { group, item, .. } => {
                let group = group.as_deref().map_or(Num::All(1), |g| on(g, By::Group));
                let item = item.as_deref().map_or(Num::All(1), |i| on(i, By::Item));
                group.zip(&item, geo, |g, i| g & i)
            }
            Form::Lanes(ws) => on(ws, By::Lane),
        }
    }

    /// Whether some group has a lane active here but not in `part`, and another active in
    /// `part`.
    fn splits(&self, part: &Weights, geo: Geo) -> bool {
        let (all, part) = (self.spread(geo), part.spread(geo));
        all.chunks(geo.items)
            .zip(part.chunks(geo.items))
            .any(|(all, part)| {
                let entered = part.iter().any(|w| *w > 0);
                entered && all.iter().zip(part).any(|(a, p)| *a > 0 && *p == 0)
            })
    }

    /// For each group, the largest `of` over its active lanes (0 where none is active).
    fn group_max(&self, of: &Num, geo: Geo) -> Num {
        if let Form::Product { scale, group, item } = &self.form {
            let items = |f: &dyn Fn(usize) -> i64| {
                (0..geo.items)
                    .filter(|i| item.as_ref().is_none_or(|ws| ws[*i] > 0))
                    .map(f)
                    .max()
            };
            let per_group = |v: &dyn Fn(usize) -> i64| match group {
                None => Num::Lanes(By::Group, (0..geo.groups).map(v).collect()),
                Some(ws) => Num::Lanes(
                    By::Group,
                    ws.iter()
                        .enumerate()
                        .map(|(g, w)| if *w > 0 { v(g) } else { 0 })
                        .collect(),
                ),
            };
            // The same value in every group with an active lane.
            let uniform = |v: i64| match group {
                Some(ws) if ws.contains(&0) => per_group(&|_| v),
                _ => Num::All(v),
            };
            let found = match of {
                _ if *scale == 0 => Some(Num::All(0)),
                Num::All(v) => Some(items(&|_| *v).map_or(Num::All(0), &uniform)),
                Num::Lanes(By::Item, ts) => Some(items(&|i| ts[i]).map_or(Num::All(0), &uniform)),
                Num::Lanes(By::Group, ts) => {
                    Some(items(&|_| 0).map_or(Num::All(0), |_| per_group(&|g| ts[g])))
                }
                _ => None,
            };
            if let Some(found) = found {
                return found;
            }
        }
        let (ws, vs) = (self.spread(geo), of.spread(By::Lane, geo));
        Num::Lanes(
            By::Group,
            ws.chunks(geo.items)
                .zip(vs.chunks(geo.items))
                .map(|(ws, vs)| {
                    let active = ws.iter().zip(vs).filter(|(w, _)| **w > 0);
                    active.map(|(_, v)| *v).max().unwrap_or(0)
                })
                .collect(),
        )
    }

    /// Each group's largest weight, as a factor times an optional weight per group: how many
    /// times each group runs a statement its lanes run at these weights, in lock step.
    fn group_tops(&self, geo: Geo) -> (u64, Option<Rc<[u64]>>) {
        match &self.form {
            Form::Product { scale, group, item } => {
                let top = item
                    .as_deref()
                    .map_or(1, |ws| ws.iter().copied().max().unwrap_or(0));
                (scale.saturating_mul(top), group.clone())
            }
            Form::Lanes(ws) => (
                1,
                Some(
                    ws.chunks(geo.items)
                        .map(|g| g.iter().copied().max().unwrap_or(0))
                        .collect(),
                ),
            ),
        }
    }

    /// The sum over groups of each group's largest weight: how many times the groups run
    /// a statement they run together (a barrier).
    fn group_rounds(&self, geo: Geo) -> u64 {
        match self.group_tops(geo) {
            (top, None) => top.saturating_mul(geo.groups as u64),
            (top, Some(groups)) => top.saturating_mul(sum(&groups)),
        }
    }
}

/// The walk cannot go on as it is: control read a slot that changes from round to round
/// inside a loop being counted as trips × body, which must then be walked round by round.
struct Stop;

/// One global access of the statement being walked: `elems` consecutive elements of buffer
/// `buffer` from `addr` on, in every lane active under `weights`, each element spanning
/// `width` elements (a vector of `width` is `width` such accesses, as the engines log it).
struct Touch {
    buffer: usize,
    addr: Num,
    elems: usize,
    width: usize,
    weights: Weights,
}

/// A loop being counted as trips × body.
struct Level {
    /// Its trip count in each lane.
    trips: Num,
    /// The weights its body runs at.
    rounds: Weights,
}

/// What the walk has counted so far, undone together when a counted loop is abandoned.
#[derive(Clone)]
struct Tally {
    counters: CostCounters,
    /// Rows every group runs.
    rows: u64,
    /// Rows per group on top of `rows`, once some group's differ.
    group_rows: Option<Vec<u64>>,
    exact: bool,
}

struct Walk<'a> {
    config: LaunchConfig,
    geo: Geo,
    lowered: &'a Lowered<'a>,
    /// slot → the value every lane holds (`None`: unset).
    vals: Vec<Option<Val>>,
    /// slot → declared as a local array.
    local: Vec<bool>,
    /// slot → kernel argument.
    params: Vec<Option<Val>>,
    /// Work-item ids, computed on first use.
    ids: Ids,
    /// The loops being counted as trips × body, outermost first: the levels a
    /// [`Num::Rounds`] coefficient belongs to.
    levels: Vec<Level>,
    /// How many of `levels` take different trip counts within a group.
    uneven: usize,
    /// The global accesses of the statement being walked.
    touches: Vec<Touch>,
    calls: usize,
    /// Statements walked inside loops walked round by round.
    steps: u64,
    tally: Tally,
}

/// Coordinate `dim` of the linear index `i` of a grid of `extent` (dimension 0 fastest).
fn coordinate(i: usize, extent: [usize; 3], dim: usize) -> i64 {
    let below: usize = extent[..dim].iter().product();
    ((i / below) % extent[dim]) as i64
}

impl Walk<'_> {
    fn id(&mut self, f: WorkItem, dim: usize) -> Num {
        let c = self.config;
        let groups = c.num_groups();
        let which = match f {
            WorkItem::GlobalSize => return Num::All(c.global[dim] as i64),
            WorkItem::LocalSize => return Num::All(c.local[dim] as i64),
            WorkItem::NumGroups => return Num::All(groups[dim] as i64),
            WorkItem::GlobalId => 0,
            WorkItem::LocalId => 1,
            WorkItem::GroupId => 2,
        };
        if let Some(n) = &self.ids[3 * which + dim] {
            return n.clone();
        }
        let n = match which {
            // The global id is `group id · local size + local id`.
            0 => {
                let local = self.id(WorkItem::LocalId, dim);
                let size = c.local[dim] as i64;
                self.id(WorkItem::GroupId, dim)
                    .zip(&local, self.geo, |g, l| g * size + l)
            }
            1 if c.local[dim] > 1 => Num::Lanes(
                By::Item,
                (0..self.geo.items)
                    .map(|i| coordinate(i, c.local, dim))
                    .collect(),
            ),
            2 if groups[dim] > 1 => Num::Lanes(
                By::Group,
                (0..self.geo.groups)
                    .map(|g| coordinate(g, groups, dim))
                    .collect(),
            ),
            _ => Num::All(0),
        };
        self.ids[3 * which + dim] = Some(n.clone());
        n
    }

    fn counters(&mut self) -> &mut CostCounters {
        &mut self.tally.counters
    }

    /// Marks the count inexact if lanes run what it just left out.
    fn unsure(&mut self, w: &Weights) {
        if w.total > 0 {
            self.tally.exact = false;
        }
    }

    /// The truth of a control value in every lane, or `None` when the walk cannot know it.
    fn decide(&self, v: &Val, w: &Weights) -> Result<Option<Num>, Stop> {
        match v.truth() {
            Num::Varying | Num::Rounds(_) if !self.levels.is_empty() && w.total > 0 => Err(Stop),
            Num::Varying | Num::Rounds(_) | Num::Unknown => Ok(None),
            known => Ok(Some(known)),
        }
    }

    fn lookup(&self, slot: usize) -> Val {
        if let Some(v) = &self.vals[slot] {
            return v.clone();
        }
        if self.local[slot] {
            return Val::Ptr(AddrSpace::Local, None);
        }
        self.params[slot].clone().unwrap_or(Val::Opaque)
    }

    /// Binds `slot` to `v` in the lanes active under `w`. A value that varies by round is
    /// bound in every lane when `w` are the weights of the innermost counted loop's body:
    /// the other lanes never run that body, and the value is forgotten when it ends.
    fn set(&mut self, slot: usize, v: Val, w: &Weights) {
        let whole_body = v.by_rounds() && self.levels.last().is_some_and(|l| l.rounds.same(w));
        let merged = match &self.vals[slot] {
            Some(old) if !w.is_full() && w.total > 0 && !whole_body => {
                let pick = if v.has_lanes(old) {
                    w.active(self.geo)
                } else {
                    Num::Unknown
                };
                v.choose(old, &pick, self.geo)
            }
            _ => v,
        };
        self.vals[slot] = Some(merged);
    }

    /// Counts an array subscript and returns its value where `wanted` (an `Index` term no
    /// one needs the value of is counted without being evaluated).
    fn subscript(&mut self, e: &SExpr, w: &Weights, wanted: bool) -> Result<Num, Stop> {
        match e {
            SExpr::Index(a) => {
                self.count_index(a, w.total);
                Ok(if wanted {
                    self.index_value(a)
                } else {
                    Num::Unknown
                })
            }
            other => Ok(self.eval(other, w)?.as_num()),
        }
    }

    /// Counts an index term's operations `n` times, as `Exec::eval_index` does.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn count_index(&mut self, a: &SIndex, n: u64) {
        self.counters().charge(ops::index_charge(a), n);
        match a {
            SIndex::Cst(_) | SIndex::Var(_) => {}
            SIndex::Fold(_, ts) => {
                for t in ts {
                    self.count_index(t, n);
                }
            }
            SIndex::Pow(b, _) => self.count_index(b, n),
            SIndex::Pair(_, x, y) => {
                self.count_index(x, n);
                self.count_index(y, n);
            }
        }
    }

    /// Counts `elems` accesses per lane under `w` through `ptr` at element `index` of it.
    fn access(&mut self, ptr: (AddrSpace, Option<usize>), index: Num, elems: usize, w: &Weights) {
        let n = (elems as u64).saturating_mul(w.total);
        let counters = &mut self.tally.counters;
        let counter = match ptr.0 {
            AddrSpace::Global => &mut counters.global_accesses,
            AddrSpace::Local => &mut counters.local_accesses,
            AddrSpace::Private => &mut counters.private_accesses,
        };
        add(counter, n);
        if ptr.0 != AddrSpace::Global || w.total == 0 {
            return;
        }
        match (ptr.1, index.is_counted()) {
            (Some(buffer), true) => self.touches.push(Touch {
                buffer,
                addr: index,
                elems,
                width: elems,
                weights: w.clone(),
            }),
            _ => self.tally.exact = false,
        }
    }

    /// Counts the transactions of the statement just walked, whose global accesses are
    /// `touches`, and clears them.
    fn flush(&mut self) {
        if self.touches.is_empty() {
            return;
        }
        let touches = std::mem::take(&mut self.touches);
        match transactions(&touches, &self.levels, self.geo) {
            Some((transactions, uncoalesced)) => {
                let counters = &mut self.tally.counters;
                add(&mut counters.global_transactions, transactions);
                add(&mut counters.uncoalesced_accesses, uncoalesced);
            }
            None => self.tally.exact = false,
        }
        self.touches = touches;
        self.touches.clear();
    }

    /// Counts the lock-step rows of a statement or loop check its lanes run at weights `w`.
    fn rows(&mut self, w: &Weights) {
        if w.total == 0 {
            return;
        }
        let groups = self.geo.groups;
        let tally = &mut self.tally;
        match w.group_tops(self.geo) {
            (top, None) => add(&mut tally.rows, top),
            (top, Some(by_group)) => {
                let rows = tally.group_rows.get_or_insert_with(|| vec![0; groups]);
                for (rows, g) in rows.iter_mut().zip(by_group.iter()) {
                    add(rows, top.saturating_mul(*g));
                }
            }
        }
    }

    fn block(&mut self, stmts: &[SStmt], w: &Weights) -> Result<(), Stop> {
        for stmt in stmts {
            self.stmt(stmt, w)?;
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &SStmt, w: &Weights) -> Result<(), Stop> {
        if !matches!(stmt, SStmt::Block(_)) {
            self.rows(w);
        }
        match stmt {
            SStmt::Barrier => {
                let n = w.group_rounds(self.geo);
                add(&mut self.counters().barriers, n);
            }
            SStmt::Block(stmts) => self.block(stmts, w)?,
            SStmt::DeclLocalArray { slot, .. } => self.local[*slot] = true,
            SStmt::DeclPrivateArray { slot, .. } => {
                self.set(*slot, Val::Ptr(AddrSpace::Private, None), w);
            }
            SStmt::DeclScalar { slot, init } => {
                let v = match init {
                    Some(e) => self.eval(e, w)?,
                    None => Val::Float,
                };
                self.flush();
                self.set(*slot, v, w);
            }
            SStmt::Assign { lhs, rhs } => {
                let v = self.eval(rhs, w)?;
                match lhs {
                    SLhs::Var(slot) => self.set(*slot, v, w),
                    SLhs::Array(arr, idx) => {
                        let ptr = self.eval(arr, w)?;
                        let global = matches!(ptr, Val::Ptr(AddrSpace::Global, _));
                        let index = self.subscript(idx, w, global)?;
                        match (ptr, v) {
                            (Val::Ptr(space, buffer), Val::Int(_) | Val::Bool(_) | Val::Float) => {
                                self.access((space, buffer), index, 1, w);
                            }
                            _ => self.unsure(w),
                        }
                    }
                    SLhs::FieldOfVar(slot, idx) => {
                        let current = self.vals[*slot]
                            .clone()
                            .unwrap_or_else(|| Val::Struct(vec![Val::Float; idx + 1].into()));
                        let with_field = |fields: &[Val]| -> Rc<[Val]> {
                            let mut fields = fields.to_vec();
                            if fields.len() <= *idx {
                                fields.resize(idx + 1, Val::Float);
                            }
                            fields[*idx] = v.clone();
                            fields.into()
                        };
                        let updated = match &current {
                            Val::Struct(fs) => Val::Struct(with_field(fs)),
                            Val::Vector(fs) => Val::Vector(with_field(fs)),
                            _ => current.clone(),
                        };
                        self.set(*slot, updated, w);
                    }
                    SLhs::Invalid(_) => {}
                }
                self.flush();
            }
            SStmt::Expr(e) => {
                self.eval(e, w)?;
                self.flush();
            }
            SStmt::If {
                cond,
                then,
                otherwise,
            } => {
                let c = self.eval(cond, w)?;
                self.flush();
                self.counters().charge(ops::CONTROL, w.total);
                match self.decide(&c, w)? {
                    Some(truth) if w.total > 0 => {
                        let taken = w.restrict(&truth, true, self.geo);
                        if taken.total > 0 {
                            self.block(then, &taken)?;
                        }
                        if let Some(otherwise) = otherwise {
                            let taken = w.restrict(&truth, false, self.geo);
                            if taken.total > 0 {
                                self.block(otherwise, &taken)?;
                            }
                        }
                    }
                    _ => {
                        self.unsure(w);
                        self.forget(then)?;
                        if let Some(otherwise) = otherwise {
                            self.forget(otherwise)?;
                        }
                    }
                }
            }
            SStmt::For {
                slot,
                init,
                cond,
                step,
                body,
            } => {
                let start = self.eval(init, w)?;
                self.flush();
                self.set(*slot, start, w);
                if w.total == 0 {
                    // A walk for kinds only: the body once, counting nothing.
                    self.eval(cond, w)?;
                    self.block(body, w)?;
                    self.eval(step, w)?;
                    self.vals[*slot] = Some(self.stepped(*slot));
                } else {
                    self.for_loop(*slot, cond, step, body, w)?;
                }
            }
        }
        Ok(())
    }

    /// Walks statements that may or may not run: they count nothing, and every slot they
    /// assign keeps only a kind both outcomes share.
    fn forget(&mut self, stmts: &[SStmt]) -> Result<(), Stop> {
        let mut assigned = Vec::new();
        SStmt::walk(stmts, &mut |s| assigned.extend(s.assigned()));
        let before: Vec<Option<Val>> = assigned.iter().map(|s| self.vals[*s].clone()).collect();
        self.block(stmts, &Weights::zero())?;
        for (slot, old) in assigned.into_iter().zip(before) {
            self.vals[slot] = match (old, self.vals[slot].take()) {
                (Some(old), Some(new)) => {
                    Some(old.choose(&new, &Num::Unknown, self.geo).forgotten())
                }
                (None, Some(new)) => Some(new.forgotten()),
                (old, None) => old,
            };
        }
        Ok(())
    }

    fn for_loop(
        &mut self,
        slot: usize,
        cond: &SExpr,
        step: &SExpr,
        body: &[SStmt],
        w: &Weights,
    ) -> Result<(), Stop> {
        let mut touched = Vec::new();
        SStmt::walk(body, &mut |s| touched.extend(s.assigned()));
        if !touched.contains(&slot) {
            touched.push(slot);
            let before = self.tally.clone();
            let saved: Vec<Option<Val>> = touched.iter().map(|s| self.vals[*s].clone()).collect();
            let (levels, uneven) = (self.levels.len(), self.uneven);
            let counted = self.counted_loop(slot, cond, step, body, w, &touched);
            self.levels.truncate(levels);
            self.uneven = uneven;
            match counted {
                Ok(true) => {
                    // What varied with the loop's rounds is no longer known after it.
                    for s in &touched {
                        self.vals[*s] = self.vals[*s].as_ref().map(|v| v.map_nums(&Num::settled));
                    }
                    return Ok(());
                }
                // A stop in the body undoes its count; the loop is walked round by round.
                Ok(false) | Err(Stop) => {
                    self.tally = before;
                    self.touches.clear();
                    for (s, v) in touched.into_iter().zip(saved) {
                        self.vals[s] = v;
                    }
                }
            }
        }
        self.stepped_loop(slot, cond, step, body, w)
    }

    /// Counts the loop as trips × body if its trip count is known in every lane and its
    /// body's control does not change from round to round; `Ok(false)` if the trip count
    /// is unknown, `Err(Stop)` if the body's control varies by round. Pushes the loop's
    /// level, which the caller pops.
    fn counted_loop(
        &mut self,
        slot: usize,
        cond: &SExpr,
        step: &SExpr,
        body: &[SStmt],
        w: &Weights,
        varying: &[usize],
    ) -> Result<bool, Stop> {
        let SExpr::Bin(CBinOp::Lt, var, bound) = cond else {
            return Ok(false);
        };
        if !matches!(&**var, SExpr::Var(s) if *s == slot) {
            return Ok(false);
        }
        let Some(Val::Int(start)) = self.vals[slot].clone() else {
            return Ok(false);
        };
        // Within the loop the variable and every slot the body assigns vary by round.
        for s in varying {
            self.vals[*s] = self.vals[*s].as_ref().map(|v| v.map_nums(&Num::varying));
        }
        let (Val::Int(end), Val::Int(by)) = (
            self.eval(bound, &Weights::zero())?,
            self.eval(step, &Weights::zero())?,
        ) else {
            return Ok(false);
        };
        // `None` for a lane whose loop would never end.
        let trip = |s: i64, e: i64, b: i64| match e.saturating_sub(s) {
            span if span <= 0 => Some(0),
            _ if b <= 0 => None,
            span => Some((span - 1) / b + 1),
        };
        let trips = match (&start, &end, &by) {
            (Num::All(s), Num::All(e), Num::All(b)) => trip(*s, *e, *b).map(Num::All),
            _ if start.is_known() && end.is_known() && by.is_known() => {
                let shape = common_shape(&[&start, &end, &by]);
                let geo = self.geo;
                let (s, e, b) = (
                    start.spread(shape, geo),
                    end.spread(shape, geo),
                    by.spread(shape, geo),
                );
                s.iter()
                    .zip(e.iter().zip(b.iter()))
                    .map(|(s, (e, b))| trip(*s, *e, *b))
                    .collect::<Option<Rc<[i64]>>>()
                    .map(|ts| match ts.first() {
                        // Most strided loops take the same number of rounds in every lane.
                        Some(t) if ts.iter().all(|u| u == t) => Num::All(*t),
                        _ => Num::Lanes(shape, ts),
                    })
            }
            _ => None,
        };
        let Some(trips) = trips else {
            return Ok(false);
        };
        let rounds = w.scale(&trips, self.geo);
        // Every active lane of a group checks the condition once per round of its group,
        // plus the final check that ends it. Where the rounds around the loop are the same
        // for all of a group's lanes, the group's rounds are its lanes' most; where they are
        // not, each lane's own rounds are what it certainly checks.
        let checks = if self.uneven == 0 {
            let rounds_of_group = match &trips {
                Num::All(_) => trips.clone(),
                _ => w.group_max(&trips, self.geo),
            };
            w.scale(&rounds_of_group.map(|t| t.saturating_add(1)), self.geo)
        } else {
            w.scale(&trips.map(|t| t.saturating_add(1)), self.geo)
        };
        // The rounds of this loop are a level of the rounds around what it runs; a group's
        // rows are its lanes' most only while at most one level differs within a group.
        self.uneven += usize::from(!trips.is_even(self.geo));
        if self.uneven > 1 {
            self.tally.exact = false;
        }
        if let (Num::All(by), true) = (&by, start.is_known()) {
            let mut coefs = vec![0; self.levels.len()];
            coefs.push(*by);
            self.vals[slot] = Some(Val::Int(Num::Rounds(Rc::new(Rounds::Linear {
                base: start,
                coefs,
            }))));
        }
        self.levels.push(Level {
            trips,
            rounds: rounds.clone(),
        });
        self.eval(cond, &checks)?;
        if !self.touches.is_empty() {
            // A condition's accesses are made at every check, which the rounds do not give.
            self.touches.clear();
            self.unsure(&checks);
        }
        self.rows(&checks);
        self.counters().charge(ops::CONTROL, checks.total);
        add(&mut self.counters().loop_iterations, rounds.total);
        if rounds.total > 0 {
            self.block(body, &rounds)?;
            self.eval(step, &rounds)?;
            self.flush();
            self.counters().charge(ops::CONTROL, rounds.total);
        }
        // The variable's last value is not tracked: emitted kernels scope it to the loop.
        self.vals[slot] = Some(Val::Int(Num::Unknown));
        Ok(true)
    }

    /// Walks the loop one round at a time, as the interpreter runs it, until every group
    /// is done or a round's condition cannot be decided.
    fn stepped_loop(
        &mut self,
        slot: usize,
        cond: &SExpr,
        step: &SExpr,
        body: &[SStmt],
        w: &Weights,
    ) -> Result<(), Stop> {
        let mut checking = w.clone();
        for round in 0.. {
            let c = self.eval(cond, &checking)?;
            self.flush();
            self.rows(&checking);
            self.counters().charge(ops::CONTROL, checking.total);
            let (Some(truth), true) = (self.decide(&c, &checking)?, round < MAX_ROUNDS) else {
                self.unsure(&checking);
                return self.forget_loop(slot, step, body);
            };
            let entering = checking.restrict(&truth, true, self.geo);
            if entering.total == 0 {
                return Ok(());
            }
            if self.steps >= MAX_STEPS {
                self.unsure(&entering);
                return self.forget_loop(slot, step, body);
            }
            self.steps += body.len() as u64 + 1;
            add(&mut self.counters().loop_iterations, entering.total);
            self.block(body, &entering)?;
            let by = self.eval(step, &entering)?;
            self.flush();
            self.counters().charge(ops::CONTROL, entering.total);
            let next = self
                .lookup(slot)
                .as_num()
                .zip(&by.as_num(), self.geo, |x, y| {
                    ops::step(Scalar::Int(x), Scalar::Int(y)).as_i64()
                });
            self.set(slot, Val::Int(next), &entering);
            checking = if self.uneven == 0 {
                // A group whose lanes all failed the condition is done: it checks no more.
                checking.scale(&entering.group_max(&Num::All(1), self.geo), self.geo)
            } else {
                // The rounds around the loop differ within a group, so whether a group
                // still loops depends on the round: each lane certainly checks its own
                // rounds, which are all of its group's unless the group's lanes part.
                if checking.splits(&entering, self.geo) {
                    self.tally.exact = false;
                }
                entering
            };
        }
        Ok(())
    }

    /// The rest of a loop whose next round cannot be decided: it may run any number of
    /// further rounds, which count nothing.
    fn forget_loop(&mut self, slot: usize, step: &SExpr, body: &[SStmt]) -> Result<(), Stop> {
        self.forget(body)?;
        self.eval(step, &Weights::zero())?;
        self.vals[slot] = Some(self.stepped(slot));
        Ok(())
    }

    /// A loop variable after an unknown number of steps (`Exec` adds the step as an `int`).
    fn stepped(&self, slot: usize) -> Val {
        match self.lookup(slot) {
            Val::Int(_) => Val::Int(Num::Unknown),
            _ => Val::Opaque,
        }
    }

    fn eval(&mut self, e: &SExpr, w: &Weights) -> Result<Val, Stop> {
        Ok(match e {
            SExpr::Int(v) => Val::Int(Num::All(*v)),
            SExpr::Float(_) => Val::Float,
            SExpr::Var(slot) => self.lookup(*slot),
            SExpr::Index(a) => {
                self.count_index(a, w.total);
                Val::Int(self.index_value(a))
            }
            SExpr::Bin(op, a, b) => {
                let a = self.eval(a, w)?;
                let b = self.eval(b, w)?;
                self.bin(*op, &a, &b, w)
            }
            SExpr::Neg(a) => {
                let v = self.eval(a, w)?;
                self.counters().charge(ops::NEG, w.total);
                match v {
                    Val::Int(n) => Val::Int(n.map(|x| ops::neg(Scalar::Int(x)).as_i64())),
                    Val::Opaque => Val::Opaque,
                    _ => Val::Float,
                }
            }
            SExpr::WorkItem(f, dim) => match self.eval(dim, w)?.as_num() {
                Num::All(d @ 0..=2) => Val::Int(self.id(*f, d as usize)),
                _ => Val::Int(Num::Unknown),
            },
            SExpr::VLoad(width, idx, ptr) => {
                let ptr = self.eval(ptr, w)?;
                let index = self.vector_index(idx, *width, &ptr, w)?;
                match ptr {
                    Val::Ptr(space, buffer) => {
                        self.vector((space, buffer), index, *width, w);
                        Val::Vector(vec![Val::Float; *width].into())
                    }
                    _ => {
                        self.unsure(w);
                        Val::Opaque
                    }
                }
            }
            SExpr::VStore(width, value, idx, ptr) => {
                self.eval(value, w)?;
                let ptr = self.eval(ptr, w)?;
                let index = self.vector_index(idx, *width, &ptr, w)?;
                match ptr {
                    Val::Ptr(space, buffer) => self.vector((space, buffer), index, *width, w),
                    _ => self.unsure(w),
                }
                Val::Int(Num::All(0))
            }
            SExpr::Math1(_, a) => {
                self.eval(a, w)?;
                self.counters().charge(ops::MATH1, w.total);
                Val::Float
            }
            SExpr::Math2(_, a, b) => {
                self.eval(a, w)?;
                self.eval(b, w)?;
                self.counters().charge(ops::MATH2, w.total);
                Val::Float
            }
            SExpr::CallFun(idx, args) => self.call(*idx, args, w)?,
            SExpr::Fail(_) => Val::Opaque,
            SExpr::ArrayAccess(arr, idx) => {
                let ptr = self.eval(arr, w)?;
                let global = matches!(ptr, Val::Ptr(AddrSpace::Global, _));
                let index = self.subscript(idx, w, global)?;
                match ptr {
                    Val::Ptr(space, buffer) => {
                        self.access((space, buffer), index, 1, w);
                        Val::Float
                    }
                    _ => {
                        self.unsure(w);
                        Val::Opaque
                    }
                }
            }
            SExpr::Field(obj, idx, _) => match self.eval(obj, w)? {
                Val::Struct(fs) | Val::Vector(fs) => fs.get(*idx).cloned().unwrap_or(Val::Opaque),
                other => other,
            },
            SExpr::Ternary(c, t, o) => {
                let cv = self.eval(c, w)?;
                self.counters().charge(ops::CONTROL, w.total);
                match self.decide(&cv, w)? {
                    Some(Num::All(p)) => self.eval(if p != 0 { t } else { o }, w)?,
                    Some(truth) => {
                        let vt = self.eval(t, &w.restrict(&truth, true, self.geo))?;
                        let vo = self.eval(o, &w.restrict(&truth, false, self.geo))?;
                        vt.choose(&vo, &truth, self.geo)
                    }
                    None => {
                        self.unsure(w);
                        let vt = self.eval(t, &Weights::zero())?;
                        let vo = self.eval(o, &Weights::zero())?;
                        vt.choose(&vo, &Num::Unknown, self.geo)
                    }
                }
            }
            SExpr::StructLit(fields) => Val::Struct(self.eval_all(fields, w)?.into()),
        })
    }

    fn eval_all(&mut self, es: &[SExpr], w: &Weights) -> Result<Vec<Val>, Stop> {
        es.iter().map(|e| self.eval(e, w)).collect()
    }

    /// The first element a vector access of `width` lanes at vector index `idx` through
    /// `ptr` reaches (`ops::vector_lane`), counting the index.
    fn vector_index(
        &mut self,
        idx: &SExpr,
        width: usize,
        ptr: &Val,
        w: &Weights,
    ) -> Result<Num, Stop> {
        let global = matches!(ptr, Val::Ptr(AddrSpace::Global, _));
        let index = self.subscript(idx, w, global)?;
        Ok(index.int(IntOp::Mul, &Num::All(width as i64), self.geo))
    }

    /// A vector load or store of `width` lanes from element `index` on: each lane is an
    /// access of its space and a vector access.
    fn vector(&mut self, ptr: (AddrSpace, Option<usize>), index: Num, width: usize, w: &Weights) {
        self.access(ptr, index, width, w);
        let n = (width as u64).saturating_mul(w.total);
        add(&mut self.counters().vector_accesses, n);
    }

    fn call(&mut self, idx: usize, args: &[SExpr], w: &Weights) -> Result<Val, Stop> {
        let lowered = self.lowered;
        let fun = &lowered.functions[idx];
        if fun.params.len() != args.len() || self.calls >= MAX_CALL_DEPTH {
            self.unsure(w);
            return Ok(Val::Opaque);
        }
        // The argument values, then — once each is bound — what its parameter shadowed,
        // followed by what each local shadowed.
        let mut saved = Vec::with_capacity(fun.params.len() + fun.locals.len());
        for a in args {
            saved.push(Some(self.eval(a, w)?));
        }
        for (s, v) in fun.params.iter().zip(saved.iter_mut()) {
            std::mem::swap(&mut self.vals[*s], v);
        }
        self.calls += 1;
        let result = (|| {
            for (slot, init) in &fun.locals {
                let v = self.eval(init, w)?;
                saved.push(self.vals[*slot].replace(v));
            }
            self.eval(&fun.body, w)
        })();
        self.calls -= 1;
        let n = fun.params.len();
        for (k, old) in saved.into_iter().enumerate().rev() {
            let slot = if k < n {
                fun.params[k]
            } else {
                fun.locals[k - n].0
            };
            self.vals[slot] = old;
        }
        result
    }

    /// A binary operation, counted and typed as `ops::binary` counts and types it.
    fn bin(&mut self, op: CBinOp, a: &Val, b: &Val, w: &Weights) -> Val {
        match (a, b) {
            // Whether `Int op ?` takes the integer path is unknown.
            (Val::Opaque, _) | (Val::Int(_), Val::Opaque) => {
                self.unsure(w);
                Val::Opaque
            }
            (Val::Ptr(space, _), _) => match op {
                CBinOp::Add | CBinOp::Sub => Val::Ptr(*space, None),
                CBinOp::Eq => Val::Bool(Num::Unknown),
                _ => Val::Opaque,
            },
            (Val::Vector(xs), _) => Val::Vector(
                xs.iter()
                    .enumerate()
                    .map(|(i, x)| {
                        let y = match b {
                            Val::Vector(ys) => ys.get(i).cloned().unwrap_or(Val::Opaque),
                            other => other.clone(),
                        };
                        self.bin(op, x, &y, w)
                    })
                    .collect(),
            ),
            (Val::Int(x), Val::Int(y)) => {
                self.counters()
                    .charge(ops::binary_charge(op, true), w.total);
                match ops::int_op(op) {
                    Some(op) => Val::Int(x.int(op, y, self.geo)),
                    None => Val::Bool(x.zip(y, self.geo, lanes(op, Scalar::Int))),
                }
            }
            _ => {
                self.counters()
                    .charge(ops::binary_charge(op, false), w.total);
                match ops::int_op(op) {
                    Some(_) => Val::Float,
                    None => {
                        let as_float = |v| Scalar::Float(v as f64);
                        let (x, y) = (a.float_num(), b.float_num());
                        Val::Bool(x.zip(&y, self.geo, lanes(op, as_float)))
                    }
                }
            }
        }
    }

    /// An index term's value.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn index_value(&self, a: &SIndex) -> Num {
        match a {
            SIndex::Cst(c) => Num::All(*c),
            SIndex::Var(slot) => self.vals[*slot]
                .as_ref()
                .or(self.params[*slot].as_ref())
                .map_or(Num::Unknown, Val::as_num),
            SIndex::Fold(op, ts) => ts.iter().fold(Num::All(op.unit()), |acc, t| {
                acc.int(*op, &self.index_value(t), self.geo)
            }),
            SIndex::Pair(op, x, y) => self.index_value(x).int(*op, &self.index_value(y), self.geo),
            SIndex::Pow(b, e) => {
                let e = Num::All(i64::from(*e));
                self.index_value(b).int(IntOp::Pow, &e, self.geo)
            }
        }
    }
}

impl Val {
    /// Whether choosing between `self` and `other` lane by lane needs a per-lane pick: some
    /// integer or boolean in them is known in every lane but not the same in both.
    fn has_lanes(&self, other: &Val) -> bool {
        match (self, other) {
            (Val::Int(a) | Val::Bool(a), Val::Int(b) | Val::Bool(b)) => {
                a.is_known()
                    && b.is_known()
                    && !matches!((a, b), (Num::All(x), Num::All(y)) if x == y)
            }
            (Val::Vector(a) | Val::Struct(a), Val::Vector(b) | Val::Struct(b)) => {
                a.iter().zip(b.iter()).any(|(x, y)| x.has_lanes(y))
            }
            _ => false,
        }
    }

    /// The value as a float operand of a comparison, when it is an integer or a boolean.
    fn float_num(&self) -> Num {
        match self {
            Val::Int(n) | Val::Bool(n) => n.clone(),
            _ => Num::Unknown,
        }
    }
}

/// The transactions and uncoalesced accesses of one statement's global accesses `touches`
/// inside the counted loops `levels`, as the engines count them: per row and per SIMD group,
/// the distinct `(buffer, segment)` pairs, of which those beyond `max(1, ceil(accesses /
/// 32))` are uncoalesced. `None` once that takes more than [`MAX_SEGMENT_WORK`] lane
/// addresses.
///
/// A lane runs the statement at the round `r` of the levels when its weight is positive and
/// `r[j]` is below its trip count at every level `j`. Between two trip counts of a SIMD
/// group's lanes the active lanes stay the same (a *band*), and every address moves by
/// `Σ coefs[j] · r[j]`; moving level `j` by `32 / gcd(32, its coefficients)` rounds moves
/// each address by whole segments, which touches as many segments as before unless one
/// buffer is reached with two different coefficient lists. So each band counts one such
/// period of rounds, each weighted by how often it recurs in the band. Two SIMD groups
/// whose lanes are active alike, loop alike and reach each buffer at addresses a whole
/// number of segments apart count alike, and are counted once.
fn transactions(touches: &[Touch], levels: &[Level], geo: Geo) -> Option<(u64, u64)> {
    let depth = levels.len();
    let coefs: Vec<Vec<i64>> = touches
        .iter()
        .map(|t| {
            let mut c = t.addr.linear().map_or(Vec::new(), |(_, c)| c.to_vec());
            c.resize(depth, 0);
            c
        })
        .collect();
    let linear = touches.iter().all(|t| t.addr.linear().is_some());
    // An address that is not linear in the rounds has no period, and neither do two
    // addresses of one buffer that move apart from round to round.
    let tangled = !linear
        || touches.iter().enumerate().any(|(i, a)| {
            touches[..i]
                .iter()
                .zip(&coefs)
                .any(|(b, c)| b.buffer == a.buffer && *c != coefs[i])
        });
    // The rounds after which level `j` repeats its segments (`None`: never).
    let period: Vec<Option<i64>> = (0..depth)
        .map(|j| {
            let g = coefs
                .iter()
                .fold(0, |g, c| gcd(g, c[j].rem_euclid(SEGMENT)));
            (!tangled).then(|| if g == 0 { 1 } else { SEGMENT / gcd(g, SEGMENT) })
        })
        .collect();
    let mut simd = Simd {
        touches,
        levels,
        coefs: &coefs,
        linear,
        period: &period,
        geo,
        work: 0,
        active: vec![Vec::new(); touches.len()],
        live: vec![Vec::new(); touches.len()],
        bases: vec![Vec::new(); touches.len()],
        listed: Vec::new(),
        union: Vec::new(),
        segments: Vec::new(),
        ends: vec![Vec::new(); depth],
        band: vec![0; depth],
        span: vec![(0, 0); depth],
        reps: vec![0; depth],
        residue: vec![0; depth],
        round: vec![0; depth],
    };
    // The shapes counted so far, with a hash of each, and their counts.
    let mut seen: Vec<(u64, Vec<i64>, (u64, u64))> = Vec::new();
    let mut shape = Vec::new();
    let (mut total, mut uncoalesced) = (0u64, 0u64);
    let classes = group_classes(touches, levels, geo)
        .unwrap_or_else(|| (0..geo.groups).map(|g| (g, 1)).collect());
    for (group, alike) in classes {
        for first in (0..geo.items).step_by(SIMD) {
            let lanes =
                group * geo.items + first..group * geo.items + (first + SIMD).min(geo.items);
            if !simd.gather(lanes) {
                continue;
            }
            let counted = if linear {
                simd.shape(&mut shape);
                let hash = shape.iter().fold(0u64, |h, v| {
                    (h.rotate_left(5) ^ *v as u64).wrapping_mul(0x517c_c1b7_2722_0a95)
                });
                match seen
                    .iter()
                    .find(|(h, known, _)| *h == hash && *known == shape)
                {
                    Some((_, _, counted)) => *counted,
                    None => {
                        let counted = simd.count()?;
                        seen.push((hash, shape.clone(), counted));
                        counted
                    }
                }
            } else {
                simd.count()?
            };
            total = total.saturating_add(counted.0.saturating_mul(alike));
            uncoalesced = uncoalesced.saturating_add(counted.1.saturating_mul(alike));
        }
    }
    Some((total, uncoalesced))
}

/// The groups that count alike, as one group of each kind and how many there are, where
/// each active group runs the statement as the first active one does: with the same lanes
/// active, the same trip counts and each buffer's addresses moved by one amount, so that
/// groups whose amounts leave the same remainders by the segment length count alike.
/// `None` where the groups differ otherwise.
fn group_classes(touches: &[Touch], levels: &[Level], geo: Geo) -> Option<Vec<(usize, u64)>> {
    let items = geo.items;
    let per_group = |vs: &[i64]| vs.chunks(items).all(|c| c == &vs[..items]);
    for level in levels {
        let alike = match &level.trips {
            Num::All(_) | Num::Lanes(By::Item, _) => true,
            Num::Lanes(By::Group, vs) => vs.iter().all(|v| *v == vs[0]),
            Num::Lanes(By::Lane, vs) => per_group(vs),
            Num::Rounds(_) | Num::Varying | Num::Unknown => false,
        };
        if !alike {
            return None;
        }
    }
    // Which groups are active: the same ones for every touch.
    let mut active: Option<&Option<Rc<[u64]>>> = None;
    for t in touches {
        let Form::Product { scale, group, .. } = &t.weights.form else {
            return None;
        };
        let same = active.is_none_or(|a| match (a, group) {
            (None, None) => true,
            (Some(a), Some(b)) => a.iter().zip(b.iter()).all(|(a, b)| (*a > 0) == (*b > 0)),
            _ => false,
        });
        if *scale == 0 || !same {
            return None;
        }
        active = Some(group);
    }
    let groups: Vec<usize> = match active.and_then(Option::as_ref) {
        Some(ws) => (0..geo.groups).filter(|g| ws[*g] > 0).collect(),
        None => (0..geo.groups).collect(),
    };
    let first = *groups.first()?;
    // Per buffer, how far each group's addresses lie from the first group's.
    let mut moved: Vec<(usize, Vec<i64>)> = Vec::new();
    for t in touches {
        let (base, _) = t.addr.linear()?;
        let by: Vec<i64> = match base {
            Num::All(_) | Num::Lanes(By::Item, _) => vec![0; geo.groups],
            Num::Lanes(By::Group, vs) => vs.iter().map(|v| v.wrapping_sub(vs[first])).collect(),
            Num::Lanes(By::Lane, vs) => {
                let at = |g: usize| &vs[g * items..(g + 1) * items];
                let mut by = vec![0; geo.groups];
                for g in &groups {
                    let d = at(*g)[0].wrapping_sub(at(first)[0]);
                    if at(*g)
                        .iter()
                        .zip(at(first))
                        .any(|(v, u)| v.wrapping_sub(*u) != d)
                    {
                        return None;
                    }
                    by[*g] = d;
                }
                by
            }
            Num::Rounds(_) | Num::Varying | Num::Unknown => return None,
        };
        match moved.iter().find(|(b, _)| *b == t.buffer) {
            Some((_, known)) if groups.iter().any(|g| known[*g] != by[*g]) => return None,
            Some(_) => {}
            None => moved.push((t.buffer, by)),
        }
    }
    let mut classes: Vec<(Vec<i64>, usize, u64)> = Vec::new();
    for g in groups {
        let key: Vec<i64> = moved
            .iter()
            .map(|(_, by)| by[g].rem_euclid(SEGMENT))
            .collect();
        match classes.iter_mut().find(|(k, _, _)| *k == key) {
            Some((_, _, n)) => *n += 1,
            None => classes.push((key, g, 1)),
        }
    }
    Some(classes.into_iter().map(|(_, g, n)| (g, n)).collect())
}

/// The transactions of one statement in one SIMD group at a time (see [`transactions`]),
/// with its scratch space.
struct Simd<'t> {
    touches: &'t [Touch],
    levels: &'t [Level],
    /// Per touch, the coefficient of each level in its address, where every address is
    /// linear in the rounds (`linear`).
    coefs: &'t [Vec<i64>],
    linear: bool,
    period: &'t [Option<i64>],
    geo: Geo,
    /// Lane addresses evaluated so far.
    work: u64,
    /// Per touch, the SIMD group's lanes that make it.
    active: Vec<Vec<usize>>,
    /// Per touch, those of its lanes that run the band being counted, and their addresses
    /// at the first round (for addresses that are not linear, at every round of `listed`,
    /// lane after lane).
    live: Vec<Vec<usize>>,
    bases: Vec<Vec<i64>>,
    /// The rounds of the band being counted, one after the other, where an address is not
    /// linear.
    listed: Vec<i64>,
    /// The lanes that make any of the touches.
    union: Vec<usize>,
    segments: Vec<(usize, i64)>,
    /// Per level: the ends of its bands, the band, its span, the residues of one period
    /// of it, the residue and the round being counted.
    ends: Vec<Vec<i64>>,
    band: Vec<usize>,
    span: Vec<(i64, i64)>,
    reps: Vec<usize>,
    residue: Vec<usize>,
    round: Vec<i64>,
}

impl Simd<'_> {
    /// Takes the SIMD group of `lanes`; `false` if none of them makes an access.
    fn gather(&mut self, lanes: std::ops::Range<usize>) -> bool {
        self.union.clear();
        for (t, active) in self.touches.iter().zip(&mut self.active) {
            active.clear();
            active.extend(lanes.clone().filter(|l| t.weights.at(*l, self.geo) > 0));
            self.union.extend(active.iter().copied());
        }
        self.union.sort_unstable();
        self.union.dedup();
        !self.union.is_empty()
    }

    /// What the count of the gathered SIMD group depends on, with every buffer's addresses
    /// taken relative to the segment of its first one: the lanes of each touch, their
    /// addresses and the trip counts of the lanes. Only for addresses linear in the rounds,
    /// whose coefficients are the same in every SIMD group.
    fn shape(&self, shape: &mut Vec<i64>) {
        shape.clear();
        let first = self.union[0];
        let mut anchors: Vec<(usize, i64)> = Vec::new();
        for (t, active) in self.touches.iter().zip(&self.active) {
            shape.push(active.len() as i64);
            for l in active {
                let addr = t.addr.at(*l, &[], self.geo);
                let anchor = match anchors.iter().find(|(b, _)| *b == t.buffer) {
                    Some((_, anchor)) => *anchor,
                    None => {
                        let anchor = addr.div_euclid(SEGMENT) * SEGMENT;
                        anchors.push((t.buffer, anchor));
                        anchor
                    }
                };
                shape.push((l - first) as i64);
                shape.push(addr.wrapping_sub(anchor));
            }
        }
        for level in self.levels {
            if !matches!(level.trips, Num::All(_)) {
                shape.extend(self.union.iter().map(|l| level.trips.at(*l, &[], self.geo)));
            }
        }
    }

    /// The transactions and uncoalesced accesses of the gathered SIMD group.
    fn count(&mut self) -> Option<(u64, u64)> {
        let Simd {
            touches,
            levels,
            coefs,
            linear,
            period,
            geo,
            work,
            active,
            live,
            bases,
            listed,
            union,
            segments,
            ends,
            band,
            span,
            reps,
            residue,
            round,
        } = self;
        let linear = *linear;
        let geo = *geo;
        // Each level's band ends: the distinct trip counts of the active lanes.
        for (ends, level) in ends.iter_mut().zip(levels.iter()) {
            ends.clear();
            match level.trips {
                Num::All(t) => ends.push(t),
                _ => ends.extend(union.iter().map(|l| level.trips.at(*l, &[], geo))),
            }
            ends.sort_unstable();
            ends.dedup();
            ends.retain(|e| *e > 0);
        }
        let bands: Vec<usize> = ends.iter().map(Vec::len).collect();
        band.fill(0);
        let (mut total, mut uncoalesced) = (0u64, 0u64);
        let mut more = !bands.contains(&0);
        while more {
            // Band `band[j]` of level `j` is `[start, end)`; its lanes reach `end`.
            for (j, b) in band.iter().enumerate() {
                span[j] = (if *b == 0 { 0 } else { ends[j][b - 1] }, ends[j][*b]);
            }
            more = advance(band, &bands);
            let alive = |l: &usize| {
                levels
                    .iter()
                    .zip(span.iter())
                    .all(|(level, s)| level.trips.at(*l, &[], geo) >= s.1)
            };
            let mut accesses = 0;
            for (((t, active), live), bases) in touches
                .iter()
                .zip(active.iter())
                .zip(live.iter_mut())
                .zip(bases.iter_mut())
            {
                live.clear();
                live.extend(active.iter().copied().filter(&alive));
                accesses += live.len() * t.elems;
                bases.clear();
                bases.extend(live.iter().map(|l| t.addr.at(*l, &[], geo)));
            }
            if accesses == 0 {
                continue;
            }
            let ideal = accesses.div_ceil(SIMD).max(1) as u64;
            // Each level's residues: the first rounds of one period of the band.
            for (j, (start, end)) in span.iter().enumerate() {
                reps[j] = period[j].map_or(end - start, |p| p.min(end - start)) as usize;
            }
            residue.fill(0);
            // An address that is not linear takes every round of the band: each is worked
            // out for all of them at once, in the order the rounds are counted.
            let mut at = 0;
            if !linear {
                let rounds: usize = reps.iter().product();
                *work = work.saturating_add((accesses * rounds) as u64);
                if *work > MAX_SEGMENT_WORK {
                    return None;
                }
                listed.clear();
                loop {
                    listed.extend(
                        residue
                            .iter()
                            .zip(span.iter())
                            .map(|(r, s)| s.0 + *r as i64),
                    );
                    if !advance(residue, reps) {
                        break;
                    }
                }
                for ((t, live), bases) in touches.iter().zip(live.iter()).zip(bases.iter_mut()) {
                    bases.clear();
                    for l in live {
                        t.addr.at_rounds(*l, listed, levels.len(), geo, bases);
                    }
                }
            }
            loop {
                if linear {
                    *work = work.saturating_add(accesses as u64);
                    if *work > MAX_SEGMENT_WORK {
                        return None;
                    }
                }
                let mut times = 1u64;
                for (j, r) in residue.iter().enumerate() {
                    let (start, end) = span[j];
                    round[j] = start + *r as i64;
                    let recurs = period[j].map_or(1, |p| (end - round[j] + p - 1) / p);
                    times = times.saturating_mul(recurs as u64);
                }
                segments.clear();
                for ((t, live), (coefs, bases)) in touches
                    .iter()
                    .zip(live.iter())
                    .zip(coefs.iter().zip(bases.iter()))
                {
                    // A linear address moves by the same amount in every lane.
                    let shift = coefs
                        .iter()
                        .zip(round.iter())
                        .fold(0i64, |s, (c, r)| s.wrapping_add(c.wrapping_mul(*r)));
                    // The elements from `addr` on, each spanning `width`, reach the
                    // segments of `addr ..= addr + elems + width - 2`.
                    let reach = (t.elems + t.width) as i64 - 2;
                    let rounds = listed.len() / levels.len().max(1);
                    for (k, base) in bases.iter().enumerate().take(live.len()) {
                        let addr = match linear {
                            true => base.wrapping_add(shift),
                            false => bases[k * rounds + at],
                        };
                        let last = addr.wrapping_add(reach).div_euclid(SEGMENT);
                        for segment in addr.div_euclid(SEGMENT)..=last {
                            segments.push((t.buffer, segment));
                        }
                    }
                }
                if !segments.is_sorted() {
                    segments.sort_unstable();
                }
                segments.dedup();
                let n = segments.len() as u64;
                total = total.saturating_add(n.saturating_mul(times));
                uncoalesced =
                    uncoalesced.saturating_add(n.saturating_sub(ideal).saturating_mul(times));
                at += 1;
                if !advance(residue, reps) {
                    break;
                }
            }
        }
        Some((total, uncoalesced))
    }
}

/// Steps `digits` to the next combination of one index below each of `lens`, the last
/// fastest; `false` once every combination was taken (and `digits` is back at zero).
fn advance(digits: &mut [usize], lens: &[usize]) -> bool {
    for (d, len) in digits.iter_mut().zip(lens).rev() {
        *d += 1;
        if *d < *len {
            return true;
        }
        *d = 0;
    }
    false
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Adds `n` events to a counter (a huge trip count saturates it rather than wrapping).
fn add(counter: &mut u64, n: u64) {
    *counter = counter.saturating_add(n);
}

/// A binary operation on two known values, each read as `kind`, lane by lane: its value as
/// an integer (a comparison is 0 or 1). The engines fail a lane that divides by zero, so any
/// value will do there.
fn lanes(op: CBinOp, kind: fn(i64) -> Scalar) -> impl Fn(i64, i64) -> i64 {
    move |x, y| ops::value(op, kind(x), kind(y)).map_or(0, Scalar::as_i64)
}

/// An integer operation lane by lane (see [`lanes`]).
fn int_lanes(op: IntOp) -> impl Fn(i64, i64) -> i64 {
    move |x, y| ops::int(op, x, y).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use lift_ocl::{AddrSpace, CExpr, CStmt, CType, Kernel, KernelParam, Module};

    use lift_ocl::Builtin;

    use crate::{CostCounters, DeviceProfile, ExecutionRequest, KernelArg, KernelLaunchSpec};
    use crate::{EngineSelection, LaunchConfig, StaticCount, VgpuError};

    /// A module of one kernel `k(const global float* in, global float* out, int n)`.
    fn kernel(body: Vec<CStmt>) -> Module {
        let param = |name: &str, ty| KernelParam {
            name: name.into(),
            ty,
        };
        let mut m = Module::new();
        m.kernels.push(Kernel {
            name: "k".into(),
            params: vec![
                param(
                    "in",
                    CType::const_restrict_pointer(CType::Float, AddrSpace::Global),
                ),
                param("out", CType::pointer(CType::Float, AddrSpace::Global)),
                param("n", CType::Int),
            ],
            body,
        });
        m
    }

    fn plan(launch: LaunchConfig) -> [KernelLaunchSpec; 1] {
        [KernelLaunchSpec {
            kernel: "k".into(),
            launch,
        }]
    }

    fn args(len: usize, n: i64) -> Vec<KernelArg> {
        let input = (0..len).map(|i| i as f32 / len as f32).collect();
        vec![
            KernelArg::Buffer(input),
            KernelArg::zeros(len),
            KernelArg::Int(n),
        ]
    }

    /// Every counter class, named.
    fn classes(c: &CostCounters) -> [(&'static str, u64); 15] {
        [
            ("flops", c.flops),
            ("int_ops", c.int_ops),
            ("div_mod_ops", c.div_mod_ops),
            ("global_accesses", c.global_accesses),
            ("vector_accesses", c.vector_accesses),
            ("global_transactions", c.global_transactions),
            ("uncoalesced_accesses", c.uncoalesced_accesses),
            ("local_accesses", c.local_accesses),
            ("private_accesses", c.private_accesses),
            ("barriers", c.barriers),
            ("loop_iterations", c.loop_iterations),
            ("work_items", c.work_items),
            ("work_groups", c.work_groups),
            ("lockstep_rows", c.lockstep_rows),
            ("group_span_rows", c.group_span_rows),
        ]
    }

    /// The static count of `m`'s kernel under `launch`, and the counters a run of it counts
    /// (the same on both engines).
    fn counted_and_run(
        m: &Module,
        launch: LaunchConfig,
        args: &[KernelArg],
    ) -> (StaticCount, CostCounters) {
        let device = DeviceProfile::nvidia();
        let request = ExecutionRequest::new(m).on_device(&device);
        let counted = request.static_counters(&plan(launch), args).unwrap();
        let [interpreted, bytecode] = [EngineSelection::Interpreter, EngineSelection::Bytecode]
            .map(|engine| {
                let run = request
                    .engine(engine)
                    .launch_sequence(&plan(launch), args.to_vec());
                run.unwrap().reports[0].counters
            });
        assert_eq!(interpreted, bytecode);
        (counted, interpreted)
    }

    /// Asserts that the count is exact and equals the run's counters.
    fn assert_exact(m: &Module, launch: LaunchConfig, args: &[KernelArg]) -> CostCounters {
        let (counted, executed) = counted_and_run(m, launch, args);
        assert!(counted.exact);
        for ((class, s), (_, e)) in classes(&counted.stages[0])
            .into_iter()
            .zip(classes(&executed))
        {
            assert_eq!(s, e, "{class}");
        }
        executed
    }

    /// `out[gid] = in[<index>]`.
    fn copy(index: CExpr) -> Module {
        kernel(vec![CStmt::Assign {
            lhs: CExpr::var("out").at(CExpr::global_id(0)),
            rhs: CExpr::var("in").at(index),
        }])
    }

    #[test]
    fn coalesced_and_strided_loads_count_their_transactions() {
        let launch = LaunchConfig::d1(64, 32);
        let args = args(64 * 32, 0);
        // Per SIMD group of 32: one segment of `in` and one of `out` for 64 accesses.
        let coalesced = assert_exact(&copy(CExpr::global_id(0)), launch, &args);
        assert_eq!(
            (
                coalesced.global_transactions,
                coalesced.uncoalesced_accesses
            ),
            (4, 0)
        );
        // A stride of 32 puts each load in a segment of its own: 33 segments where 2 would do.
        let strided = copy(CExpr::global_id(0).mul(CExpr::int(32)));
        let strided = assert_exact(&strided, launch, &args);
        assert_eq!(
            (strided.global_transactions, strided.uncoalesced_accesses),
            (66, 62)
        );
    }

    #[test]
    fn a_vector_access_that_straddles_two_segments_counts_both() {
        // vstore4(vload4(gid, in), gid, out): each of a vector's four element accesses spans
        // four elements, so the last ones reach into the next segment.
        let vector = |builtin, args| CExpr::Builtin(builtin, args);
        let load = vector(
            Builtin::VLoad(4),
            vec![CExpr::global_id(0), CExpr::var("in")],
        );
        let m = kernel(vec![CStmt::Expr(vector(
            Builtin::VStore(4),
            vec![load, CExpr::global_id(0), CExpr::var("out")],
        ))]);
        let executed = assert_exact(&m, LaunchConfig::d1(16, 16), &args(64, 0));
        // Elements 0..=66 of each buffer: segments 0, 1 and 2 of `in` and of `out`, for 128
        // accesses that 4 transactions would carry.
        assert_eq!(
            (
                executed.global_transactions,
                executed.uncoalesced_accesses,
                executed.vector_accesses
            ),
            (6, 2, 128)
        );
    }

    #[test]
    fn a_loop_with_stride_eight_repeats_its_segments_every_four_rounds() {
        // for (int i = 0; i < n; i += 1) out[gid] = out[gid] + in[gid + 8 * i];
        let gid = CExpr::global_id(0);
        let m = kernel(vec![CStmt::For {
            var: "i".into(),
            init: CExpr::int(0),
            cond: CExpr::var("i").lt(CExpr::var("n")),
            step: CExpr::int(1),
            body: vec![CStmt::Assign {
                lhs: CExpr::var("out").at(gid.clone()),
                rhs: CExpr::var("out")
                    .at(gid.clone())
                    .add(CExpr::var("in").at(gid.add(CExpr::int(8).mul(CExpr::var("i"))))),
            }],
        }]);
        // Groups of 16 start at element 0 or 16, so a group's 16 loads fill one segment in
        // two rounds of four and straddle two in the others; 19 rounds end mid-period.
        let executed = assert_exact(&m, LaunchConfig::d1(32, 16), &args(32 + 8 * 19, 19));
        assert!(executed.uncoalesced_accesses > 0);
    }

    #[test]
    fn a_loop_whose_trips_differ_between_groups_spans_its_busiest_group() {
        // for (int i = 0; i < get_group_id(0) + 1; i += 1) out[gid] = out[gid] + 1;
        let gid = CExpr::global_id(0);
        let m = kernel(vec![CStmt::For {
            var: "i".into(),
            init: CExpr::int(0),
            cond: CExpr::var("i").lt(CExpr::group_id(0).add(CExpr::int(1))),
            step: CExpr::int(1),
            body: vec![CStmt::Assign {
                lhs: CExpr::var("out").at(gid.clone()),
                rhs: CExpr::var("out").at(gid).add(CExpr::float(1.0)),
            }],
        }]);
        let executed = assert_exact(&m, LaunchConfig::d1(32, 8), &args(32, 0));
        // Group g runs the loop statement, g + 2 checks and g + 1 bodies.
        assert_eq!(executed.lockstep_rows, (0..4).map(|g| 2 * g + 4).sum());
        assert_eq!(executed.group_span_rows, 2 * 3 + 4);
    }

    #[test]
    fn a_launch_whose_static_bound_clears_the_limit_runs_no_row() {
        // The first statement stores out of bounds, so any executed row would fail.
        let m = kernel(vec![
            CStmt::Assign {
                lhs: CExpr::var("out").at(CExpr::var("n")),
                rhs: CExpr::float(0.0),
            },
            CStmt::For {
                var: "i".into(),
                init: CExpr::int(0),
                cond: CExpr::var("i").lt(CExpr::int(256)),
                step: CExpr::int(1),
                body: vec![CStmt::Assign {
                    lhs: CExpr::var("out").at(CExpr::int(0)),
                    rhs: CExpr::var("out").at(CExpr::int(0)).add(CExpr::float(1.0)),
                }],
            },
        ]);
        let launch = LaunchConfig::d1(32, 8);
        let device = DeviceProfile::nvidia();
        let request = ExecutionRequest::new(&m).on_device(&device);
        let count = request.static_counters(&plan(launch), &args(4, 4)).unwrap();
        assert!(count.exact);
        let counted = count.stages[0];
        assert_eq!(counted.loop_iterations, 32 * 256);
        assert_eq!(counted.global_accesses, 32 * (1 + 2 * 256));
        // The count is exact, so the bound is the sequence's estimated time.
        let bound = crate::estimated_sequence_time(&[counted], &device);
        let overhead = device.launch_overhead;
        // A limit above what the sequence has spent before its first row, below its bound.
        let limit = overhead + (bound - overhead) / 2.0;
        for engine in [EngineSelection::Interpreter, EngineSelection::Bytecode] {
            let request = request.engine(engine);
            let stopped = request
                .budget(limit)
                .launch_sequence(&plan(launch), args(4, 4));
            assert!(
                matches!(stopped, Err(VgpuError::OverBudget { row: 0, lower_bound })
                    if lower_bound > limit && lower_bound <= bound),
                "{stopped:?}"
            );
            // Handed the count, the launch stops alike without walking its kernel again.
            let handed = request.counted(&count).budget(limit);
            assert_eq!(handed.launch_sequence(&plan(launch), args(4, 4)), stopped);
            let run = request.launch_sequence(&plan(launch), args(4, 4));
            assert!(matches!(run, Err(VgpuError::OutOfBounds { .. })), "{run:?}");
        }
    }

    #[test]
    fn a_data_dependent_if_counts_neither_arm() {
        let gid = || CExpr::global_id(0);
        let m = kernel(vec![CStmt::If {
            cond: CExpr::var("in").at(gid()).lt(CExpr::float(0.5)),
            then: vec![CStmt::Assign {
                lhs: CExpr::var("out").at(gid()),
                rhs: CExpr::float(1.0).add(CExpr::float(2.0)),
            }],
            otherwise: Some(vec![CStmt::Assign {
                lhs: CExpr::var("out").at(gid()),
                rhs: CExpr::float(3.0).mul(CExpr::float(4.0)),
            }]),
        }]);
        let (counted, executed) = counted_and_run(&m, LaunchConfig::d1(64, 16), &args(64, 0));
        assert!(!counted.exact);
        let counted = counted.stages[0];
        for ((class, s), (_, e)) in classes(&counted).into_iter().zip(classes(&executed)) {
            assert!(s <= e, "{class}: {s} > {e}");
        }
        // The condition's load and comparison and the `If`'s own op, per work item; no arm.
        assert_eq!(
            (counted.global_accesses, counted.int_ops, counted.flops),
            (64, 128, 0)
        );
        assert_eq!((executed.global_accesses, executed.flops), (128, 64));
        // Only the condition's loads are counted, at the condition's row.
        assert!(counted.global_transactions < executed.global_transactions);
    }

    #[test]
    fn a_strided_loop_totals_exactly_n_iterations() {
        // for (int i = gid; i < n; i += get_global_size(0)) out[i] = in[i];
        let m = kernel(vec![CStmt::For {
            var: "i".into(),
            init: CExpr::global_id(0),
            cond: CExpr::var("i").lt(CExpr::var("n")),
            step: CExpr::global_size(0),
            body: vec![CStmt::Assign {
                lhs: CExpr::var("out").at(CExpr::var("i")),
                rhs: CExpr::var("in").at(CExpr::var("i")),
            }],
        }]);
        // 100 elements over 32 work items: the first four take a fourth round, and every
        // work item of their group checks the condition once more.
        let executed = assert_exact(&m, LaunchConfig::d1(32, 8), &args(100, 100));
        assert_eq!(executed.loop_iterations, 100);
    }
}
