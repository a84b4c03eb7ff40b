//! The security lattice: a product `Level = Conf × Integ` of two finite
//! lattices ("axes"), generalising the paper's binary secret/public kind
//! split to multi-level grading.
//!
//! The paper's development needs only *some* complete lattice of secrecy
//! levels; the implementation historically hard-wired the two-point
//! instance (`public ⊑ secret`). This module makes the lattice a value:
//!
//! * [`Axis`] is a finite lattice of at most [`Axis::MAX_POINTS`] points,
//!   with join/meet/≤ tabulated at construction time and labels pinned in
//!   *index order* — every rendering of axis labels iterates indices, so
//!   displayed output never depends on hash-map iteration order.
//! * [`Level`] is a point of the product lattice: a confidentiality
//!   coordinate and an integrity coordinate, ordered component-wise.
//! * [`SecLattice`] packages the two axes, with the canonical instances
//!   [`SecLattice::two_point`] (the classical high/low split the rest of
//!   the analysis grew up on) and [`SecLattice::diamond4`] (a four-point
//!   diamond per axis for graded policies).
//! * [`LevelSet`] is a set of levels packed into a `u64` bitset (the
//!   product has at most 8 × 8 = 64 points), the working currency of the
//!   abstract level fixpoint in [`crate::flow`].
//!
//! The two-point instance is the *default* everywhere: a policy that
//! never mentions a level degenerates to exactly the old behaviour, and
//! the differential wall in `tests/lattice_wall.rs` holds the whole
//! pipeline to byte-identical output in that case.

use std::fmt;

/// Why an [`Axis`] description was rejected.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LatticeError {
    /// No labels, or more than [`Axis::MAX_POINTS`].
    BadSize(usize),
    /// Two points share a label.
    DuplicateLabel(String),
    /// An ordering pair mentions an unknown label.
    UnknownLabel(String),
    /// The reflexive-transitive closure is not antisymmetric.
    NotAPartialOrder(String, String),
    /// Two points lack a least upper bound (or greatest lower bound).
    NotALattice(String, String),
}

impl fmt::Display for LatticeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatticeError::BadSize(n) => {
                write!(f, "axis must have 1..={} points, got {n}", Axis::MAX_POINTS)
            }
            LatticeError::DuplicateLabel(l) => write!(f, "duplicate axis label `{l}`"),
            LatticeError::UnknownLabel(l) => write!(f, "ordering mentions unknown label `{l}`"),
            LatticeError::NotAPartialOrder(a, b) => {
                write!(
                    f,
                    "order is not antisymmetric: `{a}` and `{b}` are equivalent"
                )
            }
            LatticeError::NotALattice(a, b) => {
                write!(f, "`{a}` and `{b}` lack a unique join or meet")
            }
        }
    }
}

/// A finite lattice of at most eight points, one axis of the product.
///
/// Points are identified by their index into the label list; *index order
/// is the pinned display order*. `≤`, join and meet are tabulated once at
/// construction, so queries are branch-free lookups.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Axis {
    name: &'static str,
    labels: Vec<String>,
    /// `up[i]` is the bitmask of all `j` with `i ⊑ j` (reflexive).
    up: Vec<u8>,
    /// Flattened `n × n` join table: `join[i * n + j]`.
    join: Vec<u8>,
    /// Flattened `n × n` meet table.
    meet: Vec<u8>,
    bottom: u8,
    top: u8,
}

impl Axis {
    /// Maximum number of points per axis: keeps a product level-set in a
    /// `u64` bitset (8 × 8 = 64) and an axis up-set in a `u8`.
    pub const MAX_POINTS: usize = 8;

    /// Builds an axis from labels (in pinned display order) and a set of
    /// `a ⊑ b` pairs; the reflexive-transitive closure is taken, then
    /// verified to be a lattice.
    pub fn from_order(
        name: &'static str,
        labels: &[&str],
        le: &[(&str, &str)],
    ) -> Result<Axis, LatticeError> {
        let n = labels.len();
        if n == 0 || n > Axis::MAX_POINTS {
            return Err(LatticeError::BadSize(n));
        }
        for (i, l) in labels.iter().enumerate() {
            if labels[..i].contains(l) {
                return Err(LatticeError::DuplicateLabel((*l).to_owned()));
            }
        }
        let idx = |l: &str| -> Result<usize, LatticeError> {
            labels
                .iter()
                .position(|x| *x == l)
                .ok_or_else(|| LatticeError::UnknownLabel(l.to_owned()))
        };
        // Reflexive base relation, then the declared pairs, then Warshall.
        let mut leq = vec![false; n * n];
        for i in 0..n {
            leq[i * n + i] = true;
        }
        for (a, b) in le {
            leq[idx(a)? * n + idx(b)?] = true;
        }
        for k in 0..n {
            for i in 0..n {
                if leq[i * n + k] {
                    for j in 0..n {
                        if leq[k * n + j] {
                            leq[i * n + j] = true;
                        }
                    }
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                if i != j && leq[i * n + j] && leq[j * n + i] {
                    return Err(LatticeError::NotAPartialOrder(
                        labels[i].to_owned(),
                        labels[j].to_owned(),
                    ));
                }
            }
        }
        // Tabulate join/meet: the unique least element of the upper-bound
        // set (resp. greatest of the lower-bound set), if it exists.
        let mut join = vec![0u8; n * n];
        let mut meet = vec![0u8; n * n];
        for i in 0..n {
            for j in 0..n {
                let ubs: Vec<usize> = (0..n)
                    .filter(|&c| leq[i * n + c] && leq[j * n + c])
                    .collect();
                let lubs: Vec<&usize> = ubs
                    .iter()
                    .filter(|&&c| ubs.iter().all(|&d| leq[c * n + d]))
                    .collect();
                let lbs: Vec<usize> = (0..n)
                    .filter(|&c| leq[c * n + i] && leq[c * n + j])
                    .collect();
                let glbs: Vec<&usize> = lbs
                    .iter()
                    .filter(|&&c| lbs.iter().all(|&d| leq[d * n + c]))
                    .collect();
                match (lubs.as_slice(), glbs.as_slice()) {
                    ([l], [g]) => {
                        join[i * n + j] = **l as u8;
                        meet[i * n + j] = **g as u8;
                    }
                    _ => {
                        return Err(LatticeError::NotALattice(
                            labels[i].to_owned(),
                            labels[j].to_owned(),
                        ))
                    }
                }
            }
        }
        let up: Vec<u8> = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| leq[i * n + j])
                    .fold(0u8, |m, j| m | (1 << j))
            })
            .collect();
        // A finite lattice is bounded: fold join/meet over all points.
        let bottom = (1..n as u8).fold(0u8, |b, i| meet[b as usize * n + i as usize]);
        let top = (1..n as u8).fold(0u8, |t, i| join[t as usize * n + i as usize]);
        Ok(Axis {
            name,
            labels: labels.iter().map(|l| (*l).to_owned()).collect(),
            up,
            join,
            meet,
            bottom,
            top,
        })
    }

    /// The classical two-point axis `lo ⊑ hi`.
    pub fn two(name: &'static str, lo: &str, hi: &str) -> Axis {
        Axis::from_order(name, &[lo, hi], &[(lo, hi)]).expect("two-point chain is a lattice")
    }

    /// A four-point diamond `bot ⊑ {left, right} ⊑ top` with `left` and
    /// `right` incomparable.
    pub fn diamond(name: &'static str, bot: &str, left: &str, right: &str, top: &str) -> Axis {
        Axis::from_order(
            name,
            &[bot, left, right, top],
            &[(bot, left), (bot, right), (left, top), (right, top)],
        )
        .expect("diamond is a lattice")
    }

    /// A totally ordered axis, bottom first.
    pub fn chain(name: &'static str, labels: &[&str]) -> Result<Axis, LatticeError> {
        let le: Vec<(&str, &str)> = labels.windows(2).map(|w| (w[0], w[1])).collect();
        Axis::from_order(name, labels, &le)
    }

    /// The axis name (`"conf"` or `"integ"` for the built-in instances).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the axis is the trivial one-point lattice.
    pub fn is_empty(&self) -> bool {
        false // an axis always has at least one point
    }

    /// The label of point `i` (pinned display order = index order).
    pub fn label(&self, i: u8) -> &str {
        &self.labels[i as usize]
    }

    /// Labels in pinned index order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.labels.iter().map(String::as_str)
    }

    /// Resolves a label to its point.
    pub fn index_of(&self, label: &str) -> Option<u8> {
        self.labels.iter().position(|l| l == label).map(|i| i as u8)
    }

    /// `a ⊑ b` on this axis.
    pub fn leq(&self, a: u8, b: u8) -> bool {
        self.up[a as usize] & (1 << b) != 0
    }

    /// Least upper bound.
    pub fn join(&self, a: u8, b: u8) -> u8 {
        self.join[a as usize * self.len() + b as usize]
    }

    /// Greatest lower bound.
    pub fn meet(&self, a: u8, b: u8) -> u8 {
        self.meet[a as usize * self.len() + b as usize]
    }

    /// The least point.
    pub fn bottom(&self) -> u8 {
        self.bottom
    }

    /// The greatest point.
    pub fn top(&self) -> u8 {
        self.top
    }
}

/// A point of the product lattice: one coordinate per axis.
///
/// `Ord` is the *pinned display order* (lexicographic on indices), **not**
/// the lattice order — use [`SecLattice::leq`] for `⊑`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Level {
    /// Confidentiality coordinate (index into the `conf` axis).
    pub conf: u8,
    /// Integrity coordinate (index into the `integ` axis).
    pub integ: u8,
}

impl Level {
    /// Packs the level into a 6-bit index (`conf * 8 + integ`), the bit
    /// position used by [`LevelSet`].
    pub fn bit(self) -> u32 {
        (self.conf as u32) * Axis::MAX_POINTS as u32 + self.integ as u32
    }

    /// Inverse of [`Level::bit`].
    pub fn from_bit(bit: u32) -> Level {
        Level {
            conf: (bit / Axis::MAX_POINTS as u32) as u8,
            integ: (bit % Axis::MAX_POINTS as u32) as u8,
        }
    }
}

/// The product security lattice `Conf × Integ`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SecLattice {
    conf: Axis,
    integ: Axis,
}

impl SecLattice {
    /// The classical instance the binary checks read, through
    /// [`crate::Policy::binary`]: `public ⊑ secret` and
    /// `trusted ⊑ tainted`. This is the default lattice of every
    /// [`crate::Policy`].
    pub fn two_point() -> SecLattice {
        SecLattice {
            conf: Axis::two("conf", "public", "secret"),
            integ: Axis::two("integ", "trusted", "tainted"),
        }
    }

    /// The four-point diamond instance used by graded policies and the
    /// tutorial: `public ⊑ {confidential, restricted} ⊑ secret` and
    /// `trusted ⊑ {internal, external} ⊑ tainted`.
    pub fn diamond4() -> SecLattice {
        SecLattice {
            conf: Axis::diamond("conf", "public", "confidential", "restricted", "secret"),
            integ: Axis::diamond("integ", "trusted", "internal", "external", "tainted"),
        }
    }

    /// Builds a product lattice from two axes.
    pub fn product(conf: Axis, integ: Axis) -> SecLattice {
        SecLattice { conf, integ }
    }

    /// The confidentiality axis.
    pub fn conf(&self) -> &Axis {
        &self.conf
    }

    /// The integrity axis.
    pub fn integ(&self) -> &Axis {
        &self.integ
    }

    /// Component-wise `⊑`.
    pub fn leq(&self, a: Level, b: Level) -> bool {
        self.conf.leq(a.conf, b.conf) && self.integ.leq(a.integ, b.integ)
    }

    /// Component-wise join.
    pub fn join(&self, a: Level, b: Level) -> Level {
        Level {
            conf: self.conf.join(a.conf, b.conf),
            integ: self.integ.join(a.integ, b.integ),
        }
    }

    /// Component-wise meet.
    pub fn meet(&self, a: Level, b: Level) -> Level {
        Level {
            conf: self.conf.meet(a.conf, b.conf),
            integ: self.integ.meet(a.integ, b.integ),
        }
    }

    /// The least level (fully public, fully trusted).
    pub fn bottom(&self) -> Level {
        Level {
            conf: self.conf.bottom(),
            integ: self.integ.bottom(),
        }
    }

    /// The greatest level (top secret, fully tainted).
    pub fn top(&self) -> Level {
        Level {
            conf: self.conf.top(),
            integ: self.integ.top(),
        }
    }

    /// The level that classifies a name declared `secret` with no finer
    /// grading: confidentiality top, integrity bottom.
    pub fn secret(&self) -> Level {
        Level {
            conf: self.conf.top(),
            integ: self.integ.bottom(),
        }
    }

    /// Resolves a pair of axis labels to a level.
    pub fn level(&self, conf: &str, integ: &str) -> Option<Level> {
        Some(Level {
            conf: self.conf.index_of(conf)?,
            integ: self.integ.index_of(integ)?,
        })
    }

    /// All levels, in pinned display order (conf-major).
    pub fn levels(&self) -> impl Iterator<Item = Level> + '_ {
        (0..self.conf.len() as u8).flat_map(move |c| {
            (0..self.integ.len() as u8).map(move |i| Level { conf: c, integ: i })
        })
    }

    /// Renders a level with both axis labels, in pinned axis order:
    /// `conf:secret,integ:trusted`.
    pub fn show(&self, l: Level) -> String {
        format!(
            "conf:{},integ:{}",
            self.conf.label(l.conf),
            self.integ.label(l.integ)
        )
    }

    /// The down-set of `l` as a [`LevelSet`]: everything `⊑ l`. The
    /// attacker's clearance down-set is the "observable" region of the
    /// lattice.
    pub fn downset(&self, l: Level) -> LevelSet {
        let mut s = LevelSet::empty();
        for m in self.levels() {
            if self.leq(m, l) {
                s.insert(m);
            }
        }
        s
    }
}

/// A set of product levels packed into a `u64` (bit `l.bit()` set iff
/// `l ∈` the set). The working currency of the abstract level fixpoint.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct LevelSet(pub u64);

impl LevelSet {
    /// The empty set.
    pub fn empty() -> LevelSet {
        LevelSet(0)
    }

    /// The singleton `{l}`.
    pub fn singleton(l: Level) -> LevelSet {
        LevelSet(1u64 << l.bit())
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of levels in the set.
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Adds a level; returns whether the set changed.
    pub fn insert(&mut self, l: Level) -> bool {
        let before = self.0;
        self.0 |= 1u64 << l.bit();
        self.0 != before
    }

    /// Membership.
    pub fn contains(self, l: Level) -> bool {
        self.0 & (1u64 << l.bit()) != 0
    }

    /// Set union.
    pub fn union(self, other: LevelSet) -> LevelSet {
        LevelSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersect(self, other: LevelSet) -> LevelSet {
        LevelSet(self.0 & other.0)
    }

    /// Set difference.
    pub fn minus(self, other: LevelSet) -> LevelSet {
        LevelSet(self.0 & !other.0)
    }

    /// Iterates members in pinned display order (ascending bit index),
    /// visiting only the set bits.
    pub fn iter(self) -> impl Iterator<Item = Level> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let b = bits.trailing_zeros();
            bits &= bits - 1;
            Some(Level::from_bit(b))
        })
    }

    /// The set of pairwise joins `{a ⊔ b : a ∈ self, b ∈ other}` — the
    /// level of a compound value ranges over the joins of its parts.
    pub fn pairwise_join(self, other: LevelSet, lat: &SecLattice) -> LevelSet {
        let mut out = LevelSet::empty();
        for a in self.iter() {
            for b in other.iter() {
                out.insert(lat.join(a, b));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_point_axis_orders() {
        let a = Axis::two("conf", "public", "secret");
        assert!(a.leq(0, 1));
        assert!(!a.leq(1, 0));
        assert_eq!(a.bottom(), 0);
        assert_eq!(a.top(), 1);
        assert_eq!(a.join(0, 1), 1);
        assert_eq!(a.meet(0, 1), 0);
        assert_eq!(a.label(0), "public");
        assert_eq!(a.index_of("secret"), Some(1));
    }

    #[test]
    fn diamond_join_meet() {
        let a = Axis::diamond("conf", "public", "confidential", "restricted", "secret");
        let (bot, l, r, top) = (0u8, 1u8, 2u8, 3u8);
        assert!(!a.leq(l, r) && !a.leq(r, l), "wings are incomparable");
        assert_eq!(a.join(l, r), top);
        assert_eq!(a.meet(l, r), bot);
        assert_eq!(a.join(bot, l), l);
        assert_eq!(a.meet(top, r), r);
        assert_eq!(a.bottom(), bot);
        assert_eq!(a.top(), top);
    }

    #[test]
    fn non_lattice_is_rejected() {
        // Two maximal elements with no join.
        let err = Axis::from_order("x", &["a", "b", "c"], &[("a", "b"), ("a", "c")]);
        assert!(matches!(err, Err(LatticeError::NotALattice(_, _))));
    }

    #[test]
    fn cycle_is_rejected() {
        let err = Axis::from_order("x", &["a", "b"], &[("a", "b"), ("b", "a")]);
        assert!(matches!(err, Err(LatticeError::NotAPartialOrder(_, _))));
    }

    #[test]
    fn chain_constructor() {
        let a = Axis::chain("conf", &["low", "mid", "high"]).unwrap();
        assert!(a.leq(0, 2));
        assert_eq!(a.join(0, 2), 2);
        assert_eq!(a.top(), 2);
    }

    #[test]
    fn product_order_is_componentwise() {
        let lat = SecLattice::diamond4();
        let a = lat.level("confidential", "trusted").unwrap();
        let b = lat.level("restricted", "internal").unwrap();
        assert!(!lat.leq(a, b) && !lat.leq(b, a));
        let j = lat.join(a, b);
        assert_eq!(lat.show(j), "conf:secret,integ:internal");
        let m = lat.meet(a, b);
        assert_eq!(lat.show(m), "conf:public,integ:trusted");
    }

    #[test]
    fn downset_of_clearance() {
        let lat = SecLattice::two_point();
        let bot = lat.bottom();
        let ds = lat.downset(bot);
        assert!(ds.contains(bot));
        assert_eq!(ds.len(), 1);
        let full = lat.downset(lat.top());
        assert_eq!(full.len(), 4);
    }

    #[test]
    fn level_set_roundtrip_and_order() {
        let lat = SecLattice::diamond4();
        let mut s = LevelSet::empty();
        for l in lat.levels() {
            s.insert(l);
        }
        assert_eq!(s.len(), 16);
        let collected: Vec<Level> = s.iter().collect();
        let expected: Vec<Level> = lat.levels().collect();
        assert_eq!(collected, expected, "iteration order is pinned");
    }

    #[test]
    fn pairwise_join_is_the_compound_rule() {
        let lat = SecLattice::two_point();
        let pubs = LevelSet::singleton(lat.bottom());
        let secs = LevelSet::singleton(lat.secret());
        let both = pubs.union(secs);
        let j = both.pairwise_join(pubs, &lat);
        assert!(j.contains(lat.bottom()) && j.contains(lat.secret()));
        let jj = secs.pairwise_join(secs, &lat);
        assert_eq!(jj, secs);
    }
}
