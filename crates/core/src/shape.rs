//! Shape keys: the hashable identity of a batched solve's geometry.
//!
//! Everything in this workspace that groups problems — the tuning table's
//! per-band-shape entries, the serving layer's admission buckets, the
//! dispatcher's layout decision — keys on the same five facts: matrix
//! order, lower/upper bandwidth, right-hand-side count, and the band
//! storage flavour. [`ShapeKey`] makes that identity one shared type so a
//! request bucketed by the server looks up the *same* key the tuner swept.
//!
//! Keys order lexicographically (`n`, `kl`, `ku`, `nrhs`, storage,
//! precision), so a `BTreeMap<ShapeKey, _>` iterates buckets in a
//! deterministic, human-readable order — the serving layer relies on this
//! for reproducible flush schedules. The element precision is part of the
//! key: `f32` and `f64` traffic of the same geometry bucket separately.

use crate::error::{BandError, Result};
use crate::layout::{BandLayout, BandStorage};
use crate::scalar::Precision;

/// Geometry identity of one batched solve: every problem sharing a key can
/// ride in the same uniform batch ([`crate::batch::BandBatch`] requires
/// identical `n`, `kl`, `ku`, `ldab`; identical `nrhs` makes the RHS blocks
/// uniform too).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShapeKey {
    /// Matrix order (square systems only — the batched drivers require it).
    pub n: usize,
    /// Sub-diagonal count.
    pub kl: usize,
    /// Super-diagonal count.
    pub ku: usize,
    /// Right-hand sides per system (`0` for factor-only work).
    pub nrhs: usize,
    /// Band storage flavour ([`BandStorage::Factor`] for anything headed
    /// into `gbtrf`/`gbsv`).
    pub storage: BandStorage,
    /// Element precision of the payload (`f64` for the paper's default
    /// double-precision traffic). Last field so pre-existing keys keep
    /// their lexicographic order.
    pub precision: Precision,
}

impl ShapeKey {
    /// Key for a factor-storage solve shape — the common case for
    /// `dgbsv_batch` traffic.
    pub fn gbsv(n: usize, kl: usize, ku: usize, nrhs: usize) -> Self {
        ShapeKey {
            n,
            kl,
            ku,
            nrhs,
            storage: BandStorage::Factor,
            precision: Precision::F64,
        }
    }

    /// Key for a single-precision factor-storage solve shape — the
    /// `sgbsv_batch` counterpart of [`ShapeKey::gbsv`].
    pub fn sgbsv(n: usize, kl: usize, ku: usize, nrhs: usize) -> Self {
        ShapeKey {
            precision: Precision::F32,
            ..Self::gbsv(n, kl, ku, nrhs)
        }
    }

    /// The same key tagged with another element precision.
    #[must_use]
    pub fn with_precision(self, precision: Precision) -> Self {
        ShapeKey { precision, ..self }
    }

    /// Key of an existing layout plus an RHS count. The storage flavour is
    /// recovered from the layout's diagonal row offset.
    #[must_use]
    pub fn of_layout(l: &BandLayout, nrhs: usize) -> Self {
        let storage = if l.row_offset == l.kl + l.ku {
            BandStorage::Factor
        } else {
            BandStorage::Pure
        };
        ShapeKey {
            n: l.n,
            kl: l.kl,
            ku: l.ku,
            nrhs,
            storage,
            precision: Precision::F64,
        }
    }

    /// Reconstruct the minimal-`ldab` square layout this key describes.
    /// Fails when [`ShapeKey::ab_len`] or [`ShapeKey::rhs_len`] would
    /// overflow, so a key that passes can size its payloads.
    pub fn layout(&self) -> Result<BandLayout> {
        let l = BandLayout::with_ldab(
            self.n,
            self.n,
            self.kl,
            self.ku,
            BandLayout::required_ldab(self.kl, self.ku, self.storage),
            self.storage,
        )?;
        if self.n.checked_mul(self.nrhs).is_none() {
            return Err(BandError::BadDimension {
                arg: "n/nrhs",
                constraint: "n * nrhs fits in usize",
            });
        }
        Ok(l)
    }

    /// Element count of one matrix's band array under this key.
    #[must_use]
    pub fn ab_len(&self) -> usize {
        BandLayout::required_ldab(self.kl, self.ku, self.storage) * self.n
    }

    /// Element count of one system's RHS block (`n * nrhs`, minimal
    /// `ldb`).
    #[must_use]
    pub fn rhs_len(&self) -> usize {
        self.n * self.nrhs
    }

    /// True when a layout/RHS pair matches this key exactly (same
    /// geometry, same storage flavour, minimal `ldab`).
    #[must_use]
    pub fn matches(&self, l: &BandLayout, nrhs: usize) -> bool {
        *self == ShapeKey::of_layout(l, nrhs).with_precision(self.precision)
            && l.ldab == BandLayout::required_ldab(self.kl, self.ku, self.storage)
            && l.m == l.n
    }

    /// Bytes per element of this key's payloads.
    #[must_use]
    pub fn elem_bytes(&self) -> usize {
        self.precision.elem_bytes()
    }
}

impl std::fmt::Display for ShapeKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self.storage {
            BandStorage::Pure => "pure",
            BandStorage::Factor => "factor",
        };
        write!(
            f,
            "n{}/kl{}/ku{}/rhs{}/{s}",
            self.n, self.kl, self.ku, self.nrhs
        )?;
        // f64 keys keep the pre-existing compact display; only the new
        // f32 traffic is tagged.
        if self.precision == Precision::F32 {
            write!(f, "/f32")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_round_trip() {
        let k = ShapeKey::gbsv(64, 2, 3, 4);
        let l = k.layout().unwrap();
        assert_eq!(l.ldab, 2 * 2 + 3 + 1);
        assert_eq!(ShapeKey::of_layout(&l, 4), k);
        assert!(k.matches(&l, 4));
        assert!(!k.matches(&l, 1));
        assert_eq!(k.ab_len(), l.len());
        assert_eq!(k.rhs_len(), 64 * 4);
    }

    #[test]
    fn pure_storage_recovered() {
        let l = BandLayout::pure(16, 16, 1, 2).unwrap();
        let k = ShapeKey::of_layout(&l, 1);
        assert_eq!(k.storage, BandStorage::Pure);
        assert_eq!(k.layout().unwrap(), l);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = ShapeKey::gbsv(16, 1, 1, 1);
        let b = ShapeKey::gbsv(16, 1, 2, 1);
        let c = ShapeKey::gbsv(32, 0, 0, 1);
        assert!(a < b && b < c);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(
            ShapeKey::gbsv(64, 2, 3, 1).to_string(),
            "n64/kl2/ku3/rhs1/factor"
        );
    }

    #[test]
    fn precision_separates_keys() {
        let d = ShapeKey::gbsv(64, 2, 3, 1);
        let s = ShapeKey::sgbsv(64, 2, 3, 1);
        assert_ne!(d, s);
        assert!(s < d, "f32 sorts before f64 of the same geometry");
        assert_eq!(s.to_string(), "n64/kl2/ku3/rhs1/factor/f32");
        assert_eq!(s.elem_bytes(), 4);
        assert_eq!(d.elem_bytes(), 8);
        assert_eq!(d.with_precision(Precision::F32), s);
        // Geometry helpers are precision-agnostic.
        assert_eq!(s.ab_len(), d.ab_len());
        assert!(s.matches(&s.layout().unwrap(), 1));
    }
}
