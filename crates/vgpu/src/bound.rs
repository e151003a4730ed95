//! The static half of the budget: a lower bound on a launch's counters, counted from its
//! lowered body before the first row runs.
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
//!   its variable, is counted as trips × body: the body is walked once, with the loop
//!   variable and every slot the body assigns marked as varying from round to round. If
//!   control inside the body reads such a slot, that walk is abandoned and the loop is
//!   walked round by round instead.
//! * A condition, loop bound or ternary that depends on loaded data, or on anything the walk
//!   cannot evaluate, counts only the work that is certain to happen: the arms, and every
//!   round of the loop after the first undecided one, count zero, and the slots they assign
//!   are forgotten.
//! * Transactions and uncoalesced accesses depend on the addresses, and stay zero. Vector
//!   accesses are counted with the accesses they are made of, so the vector discount the
//!   cost model subtracts is never larger than the access cost counted beside it.
//!
//! Every counted event is one the interpreter counts too, so each class is a lower bound on
//! the executed one for any launch that completes; for a kernel whose control reads no data
//! they are equal. Lock-step rows are not counted: the budget's bound does not read them.

use std::borrow::Cow;
use std::rc::Rc;

use lift_ocl::{AddrSpace, CBinOp, WorkItem};

use crate::cost::CostCounters;
use crate::device::LaunchConfig;
use crate::exec::{Lowered, SExpr, SIndex, SLhs, SStmt};
use crate::memory::{KernelArg, Scalar};
use crate::ops::{self, IntOp};

/// Rounds a loop is walked one at a time before the walk stops counting it.
const MAX_ROUNDS: u64 = 1024;
/// Statements the walk visits round by round in one launch before it stops counting them.
const MAX_STEPS: u64 = 1 << 16;
/// Nested user-function calls the walk follows.
const MAX_CALL_DEPTH: usize = 64;

/// Work-item ids, by `3 * function + dimension` (global, local, group id).
type Ids = [Option<Num>; 9];

/// A lower bound on the counters of launching `lowered` under `config` with `args` (only the
/// kinds of the arguments and the values of the `int` ones are read). `lockstep_rows`,
/// `group_span_rows`, `global_transactions` and `uncoalesced_accesses` are left zero.
pub(crate) fn static_counters(
    lowered: &Lowered,
    args: &[KernelArg],
    config: LaunchConfig,
) -> CostCounters {
    let mut params = vec![None; lowered.names.len()];
    for (slot, arg) in lowered.param_slots.iter().zip(args) {
        params[*slot] = Some(match arg {
            KernelArg::Buffer(_) => Val::Ptr(AddrSpace::Global),
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
        counted: 0,
        calls: 0,
        steps: 0,
        counters: CostCounters::default(),
    };
    // A stop is raised only inside a loop counted as trips × body, which catches it.
    let _ = walk.block(&lowered.body, &Weights::uniform(1, geo));
    let mut counters = walk.counters;
    counters.work_items = geo.lanes() as u64;
    counters.work_groups = geo.groups as u64;
    counters
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
    /// Changes from round to round of a loop being counted as trips × body.
    Varying,
    /// Depends on data, or on something the walk cannot evaluate.
    Unknown,
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
            Num::Varying | Num::Unknown => Cow::Owned(vec![0; by.len(geo)]),
        }
    }

    fn is_known(&self) -> bool {
        matches!(self, Num::All(_) | Num::Lanes(..))
    }

    /// The same knowledge without a value: what a slot holds once a round may change it.
    fn varying(&self) -> Num {
        match self {
            Num::Unknown => Num::Unknown,
            _ => Num::Varying,
        }
    }

    fn map(&self, mut f: impl FnMut(i64) -> i64) -> Num {
        match self {
            Num::All(v) => Num::All(f(*v)),
            Num::Lanes(by, vs) => Num::Lanes(*by, vs.iter().map(|v| f(*v)).collect()),
            other => other.clone(),
        }
    }

    /// Combines two values lane by lane: unknown wins over varying, varying over known.
    fn zip(&self, other: &Num, geo: Geo, mut f: impl FnMut(i64, i64) -> i64) -> Num {
        match (self, other) {
            (Num::Unknown, _) | (_, Num::Unknown) => Num::Unknown,
            (Num::Varying, _) | (_, Num::Varying) => Num::Varying,
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

    /// `pick ? self : other`, lane by lane. An unknown `pick` keeps only what both agree on.
    fn select(&self, other: &Num, pick: &Num, geo: Geo) -> Num {
        match (pick, self, other) {
            (Num::All(p), _, _) => if *p != 0 { self } else { other }.clone(),
            (_, Num::Unknown, _) | (_, _, Num::Unknown) => Num::Unknown,
            (_, Num::Varying, _) | (_, _, Num::Varying) => Num::Varying,
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
    Ptr(AddrSpace),
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
            Val::Ptr(_) | Val::Vector(_) | Val::Struct(_) => Num::All(0),
        }
    }

    /// The value as a condition (`Scalar::as_bool`): 0 or 1.
    fn truth(&self) -> Num {
        match self {
            Val::Bool(n) => n.clone(),
            Val::Int(n) => n.map(|v| i64::from(v != 0)),
            Val::Float | Val::Opaque => Num::Unknown,
            Val::Ptr(_) | Val::Vector(_) | Val::Struct(_) => Num::All(0),
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
            (Val::Ptr(a), Val::Ptr(b)) if a == b => Val::Ptr(*a),
            (Val::Vector(a), Val::Vector(b)) => fields(a, b).map_or(Val::Opaque, Val::Vector),
            (Val::Struct(a), Val::Struct(b)) => fields(a, b).map_or(Val::Opaque, Val::Struct),
            _ => Val::Opaque,
        }
    }

    /// The same kind with every value forgotten.
    fn forgotten(&self) -> Val {
        self.map_nums(&|_| Num::Unknown)
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

    /// Each lane's weight times its known, non-negative `factor`.
    fn scale(&self, factor: &Num, geo: Geo) -> Weights {
        let scaled = |f: &Option<Rc<[u64]>>, fs: &[i64]| -> Option<Rc<[u64]>> {
            Some(match f {
                Some(ws) => ws.iter().zip(fs).map(|(w, f)| times(*w, *f)).collect(),
                None => fs.iter().map(|f| times(1, *f)).collect(),
            })
        };
        match (&self.form, factor) {
            (_, Num::Varying | Num::Unknown) => Weights::zero(),
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

    /// The sum over groups of each group's largest weight: how many times the groups run
    /// a statement they run together (a barrier).
    fn group_rounds(&self, geo: Geo) -> u64 {
        match &self.form {
            Form::Product { scale, group, item } => {
                let top = item
                    .as_deref()
                    .map_or(1, |ws| ws.iter().copied().max().unwrap_or(0));
                let groups = group.as_deref().map_or(geo.groups as u64, sum);
                scale.saturating_mul(top).saturating_mul(groups)
            }
            Form::Lanes(ws) => ws
                .chunks(geo.items)
                .map(|g| g.iter().copied().max().unwrap_or(0))
                .fold(0, u64::saturating_add),
        }
    }
}

/// The walk cannot go on as it is: control read a slot that changes from round to round
/// inside a loop being counted as trips × body, which must then be walked round by round.
struct Stop;

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
    /// Depth of loops being counted as trips × body.
    counted: usize,
    calls: usize,
    /// Statements walked inside loops walked round by round.
    steps: u64,
    counters: CostCounters,
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

    /// The truth of a control value in every lane, or `None` when the walk cannot know it.
    fn decide(&self, v: &Val, w: &Weights) -> Result<Option<Num>, Stop> {
        match v.truth() {
            Num::Varying if self.counted > 0 && w.total > 0 => Err(Stop),
            Num::Varying | Num::Unknown => Ok(None),
            known => Ok(Some(known)),
        }
    }

    fn lookup(&self, slot: usize) -> Val {
        if let Some(v) = &self.vals[slot] {
            return v.clone();
        }
        if self.local[slot] {
            return Val::Ptr(AddrSpace::Local);
        }
        self.params[slot].clone().unwrap_or(Val::Opaque)
    }

    /// Binds `slot` to `v` in the lanes active under `w`.
    fn set(&mut self, slot: usize, v: Val, w: &Weights) {
        let merged = match &self.vals[slot] {
            Some(old) if !w.is_full() && w.total > 0 => {
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

    /// Counts an array subscript, whose value no control reads: an `Index` term is counted
    /// without being evaluated.
    fn subscript(&mut self, e: &SExpr, w: &Weights) -> Result<(), Stop> {
        match e {
            SExpr::Index(a) => self.count_index(a, w.total),
            other => {
                self.eval(other, w)?;
            }
        }
        Ok(())
    }

    /// Counts an index term's operations `n` times, as `Exec::eval_index` does.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn count_index(&mut self, a: &SIndex, n: u64) {
        self.counters.charge(ops::index_charge(a), n);
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

    fn access(&mut self, space: AddrSpace, n: u64) {
        let counter = match space {
            AddrSpace::Global => &mut self.counters.global_accesses,
            AddrSpace::Local => &mut self.counters.local_accesses,
            AddrSpace::Private => &mut self.counters.private_accesses,
        };
        add(counter, n);
    }

    fn block(&mut self, stmts: &[SStmt], w: &Weights) -> Result<(), Stop> {
        for stmt in stmts {
            self.stmt(stmt, w)?;
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &SStmt, w: &Weights) -> Result<(), Stop> {
        match stmt {
            SStmt::Barrier => {
                add(&mut self.counters.barriers, w.group_rounds(self.geo));
            }
            SStmt::Block(stmts) => self.block(stmts, w)?,
            SStmt::DeclLocalArray { slot, .. } => self.local[*slot] = true,
            SStmt::DeclPrivateArray { slot, .. } => {
                self.set(*slot, Val::Ptr(AddrSpace::Private), w);
            }
            SStmt::DeclScalar { slot, init } => {
                let v = match init {
                    Some(e) => self.eval(e, w)?,
                    None => Val::Float,
                };
                self.set(*slot, v, w);
            }
            SStmt::Assign { lhs, rhs } => {
                let v = self.eval(rhs, w)?;
                match lhs {
                    SLhs::Var(slot) => self.set(*slot, v, w),
                    SLhs::Array(arr, idx) => {
                        let ptr = self.eval(arr, w)?;
                        self.subscript(idx, w)?;
                        if let (Val::Ptr(space), Val::Int(_) | Val::Bool(_) | Val::Float) = (ptr, v)
                        {
                            self.access(space, w.total);
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
            }
            SStmt::Expr(e) => {
                self.eval(e, w)?;
            }
            SStmt::If {
                cond,
                then,
                otherwise,
            } => {
                let c = self.eval(cond, w)?;
                self.counters.charge(ops::CONTROL, w.total);
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
            let before = self.counters;
            let saved: Vec<Option<Val>> = touched.iter().map(|s| self.vals[*s].clone()).collect();
            match self.counted_loop(slot, cond, step, body, w, &touched) {
                Ok(true) => return Ok(()),
                // A stop in the body undoes its count; the loop is walked round by round.
                Ok(false) | Err(Stop) => {
                    self.counters = before;
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
    /// is unknown, `Err(Stop)` if the body's control varies by round.
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
        // plus the final check that ends it.
        let rounds_of_group = match &trips {
            Num::All(_) => trips.clone(),
            _ => w.group_max(&trips, self.geo),
        };
        let checks = w.scale(&rounds_of_group.map(|t| t.saturating_add(1)), self.geo);
        self.counted += 1;
        let counted = (|| {
            self.eval(cond, &checks)?;
            self.counters.charge(ops::CONTROL, checks.total);
            add(&mut self.counters.loop_iterations, rounds.total);
            if rounds.total > 0 {
                self.block(body, &rounds)?;
                self.eval(step, &rounds)?;
                self.counters.charge(ops::CONTROL, rounds.total);
            }
            Ok(())
        })();
        self.counted -= 1;
        counted?;
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
            self.counters.charge(ops::CONTROL, checking.total);
            let (Some(truth), true) = (self.decide(&c, &checking)?, round < MAX_ROUNDS) else {
                return self.forget_loop(slot, step, body);
            };
            let entering = checking.restrict(&truth, true, self.geo);
            if entering.total == 0 {
                return Ok(());
            }
            if self.steps >= MAX_STEPS {
                return self.forget_loop(slot, step, body);
            }
            self.steps += body.len() as u64 + 1;
            add(&mut self.counters.loop_iterations, entering.total);
            self.block(body, &entering)?;
            let by = self.eval(step, &entering)?;
            self.counters.charge(ops::CONTROL, entering.total);
            let next = self
                .lookup(slot)
                .as_num()
                .zip(&by.as_num(), self.geo, |x, y| {
                    ops::step(Scalar::Int(x), Scalar::Int(y)).as_i64()
                });
            self.set(slot, Val::Int(next), &entering);
            // A group whose lanes all failed the condition is done: it checks no more.
            checking = checking.scale(&entering.group_max(&Num::All(1), self.geo), self.geo);
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
                self.counters.charge(ops::NEG, w.total);
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
                self.subscript(idx, w)?;
                match self.eval(ptr, w)? {
                    Val::Ptr(space) => {
                        self.vector(space, *width, w);
                        Val::Vector(vec![Val::Float; *width].into())
                    }
                    _ => Val::Opaque,
                }
            }
            SExpr::VStore(width, value, idx, ptr) => {
                self.eval(value, w)?;
                self.subscript(idx, w)?;
                if let Val::Ptr(space) = self.eval(ptr, w)? {
                    self.vector(space, *width, w);
                }
                Val::Int(Num::All(0))
            }
            SExpr::Math1(_, a) => {
                self.eval(a, w)?;
                self.counters.charge(ops::MATH1, w.total);
                Val::Float
            }
            SExpr::Math2(_, a, b) => {
                self.eval(a, w)?;
                self.eval(b, w)?;
                self.counters.charge(ops::MATH2, w.total);
                Val::Float
            }
            SExpr::CallFun(idx, args) => self.call(*idx, args, w)?,
            SExpr::Fail(_) => Val::Opaque,
            SExpr::ArrayAccess(arr, idx) => {
                let ptr = self.eval(arr, w)?;
                self.subscript(idx, w)?;
                match ptr {
                    Val::Ptr(space) => {
                        self.access(space, w.total);
                        Val::Float
                    }
                    _ => Val::Opaque,
                }
            }
            SExpr::Field(obj, idx, _) => match self.eval(obj, w)? {
                Val::Struct(fs) | Val::Vector(fs) => fs.get(*idx).cloned().unwrap_or(Val::Opaque),
                other => other,
            },
            SExpr::Ternary(c, t, o) => {
                let cv = self.eval(c, w)?;
                self.counters.charge(ops::CONTROL, w.total);
                match self.decide(&cv, w)? {
                    Some(Num::All(p)) => self.eval(if p != 0 { t } else { o }, w)?,
                    Some(truth) => {
                        let vt = self.eval(t, &w.restrict(&truth, true, self.geo))?;
                        let vo = self.eval(o, &w.restrict(&truth, false, self.geo))?;
                        vt.choose(&vo, &truth, self.geo)
                    }
                    None => {
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

    /// A vector load or store of `width` lanes: each lane is an access of its space and a
    /// vector access.
    fn vector(&mut self, space: AddrSpace, width: usize, w: &Weights) {
        let n = (width as u64).saturating_mul(w.total);
        self.access(space, n);
        add(&mut self.counters.vector_accesses, n);
    }

    fn call(&mut self, idx: usize, args: &[SExpr], w: &Weights) -> Result<Val, Stop> {
        let lowered = self.lowered;
        let fun = &lowered.functions[idx];
        if fun.params.len() != args.len() || self.calls >= MAX_CALL_DEPTH {
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
            (Val::Opaque, _) | (Val::Int(_), Val::Opaque) => Val::Opaque,
            (Val::Ptr(space), _) => match op {
                CBinOp::Add | CBinOp::Sub => Val::Ptr(*space),
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
                self.counters.charge(ops::binary_charge(op, true), w.total);
                let n = x.zip(y, self.geo, lanes(op, Scalar::Int));
                match ops::int_op(op) {
                    Some(_) => Val::Int(n),
                    None => Val::Bool(n),
                }
            }
            _ => {
                self.counters.charge(ops::binary_charge(op, false), w.total);
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
                acc.zip(&self.index_value(t), self.geo, int_lanes(*op))
            }),
            SIndex::Pair(op, x, y) => {
                self.index_value(x)
                    .zip(&self.index_value(y), self.geo, int_lanes(*op))
            }
            SIndex::Pow(b, e) => {
                let e = Num::All(i64::from(*e));
                self.index_value(b).zip(&e, self.geo, int_lanes(IntOp::Pow))
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

    use crate::cost::Budget;
    use crate::{DeviceProfile, ExecutionRequest, KernelArg, KernelLaunchSpec, LaunchConfig};
    use crate::{EngineSelection, VgpuError};

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
        let counted = request.static_counters(&plan(launch), &args(4, 4)).unwrap();
        assert_eq!(counted[0].loop_iterations, 32 * 256);
        assert_eq!(counted[0].global_accesses, 32 * (1 + 2 * 256));
        // A limit above what the sequence has spent before its first row, below its bound.
        let overhead = device.launch_overhead;
        let budget = Budget::new(&device, 0.0, overhead, 4).unwrap();
        let bound = budget.spent_with(&counted[0]);
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
        let launch = LaunchConfig::d1(64, 16);
        let device = DeviceProfile::amd();
        let request = ExecutionRequest::new(&m).on_device(&device);
        let counted = request
            .static_counters(&plan(launch), &args(64, 0))
            .unwrap()[0];
        let executed = request
            .launch_sequence(&plan(launch), args(64, 0))
            .unwrap()
            .reports[0]
            .counters;
        // The condition's load and comparison and the `If`'s own op, per work item; no arm.
        assert_eq!(
            (counted.global_accesses, counted.int_ops, counted.flops),
            (64, 128, 0)
        );
        assert_eq!((executed.global_accesses, executed.flops), (128, 64));
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
        let launch = LaunchConfig::d1(32, 8);
        let device = DeviceProfile::nvidia();
        let request = ExecutionRequest::new(&m).on_device(&device);
        let counted = request
            .static_counters(&plan(launch), &args(100, 100))
            .unwrap()[0];
        assert_eq!(counted.loop_iterations, 100);
        let executed = request
            .launch_sequence(&plan(launch), args(100, 100))
            .unwrap()
            .reports[0]
            .counters;
        assert_eq!(
            counted,
            crate::CostCounters {
                global_transactions: 0,
                uncoalesced_accesses: 0,
                lockstep_rows: 0,
                group_span_rows: 0,
                ..executed
            }
        );
    }
}
