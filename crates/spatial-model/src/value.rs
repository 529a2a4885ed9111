//! Values pinned to processing elements.

use crate::coord::Coord;
use crate::path::Path;

/// A value resident at one PE, carrying its critical [`Path`].
///
/// `Tracked` values can only be created by [`crate::Machine::place`] (inputs)
/// or by machine sends; *local* computation (combining values at the same PE)
/// is free in the model and therefore available directly on `Tracked` via
/// [`Tracked::map`] and [`Tracked::zip_with`]. Combining asserts
/// co-location, so the type system plus runtime checks prevent
/// "teleporting" data without paying message costs.
#[derive(Clone, Debug)]
pub struct Tracked<T> {
    value: T,
    loc: Coord,
    path: Path,
}

impl<T> Tracked<T> {
    /// Internal constructor; the machine is the only public entry point.
    pub(crate) fn raw(value: T, loc: Coord, path: Path) -> Self {
        Tracked { value, loc, path }
    }

    /// The wrapped value.
    #[inline]
    pub fn value(&self) -> &T {
        &self.value
    }

    /// Consumes the wrapper, returning the value (leaves the model).
    #[inline]
    pub fn into_value(self) -> T {
        self.value
    }

    /// Decomposes into `(value, loc, path)` for the machine's send path.
    #[inline]
    pub(crate) fn into_parts(self) -> (T, Coord, Path) {
        (self.value, self.loc, self.path)
    }

    /// Replaces the value and path in place, keeping the location (the scan
    /// kernel writes each result over its input leaf).
    #[inline]
    pub(crate) fn rewrite(&mut self, value: T, path: Path) {
        self.value = value;
        self.path = path;
    }

    /// The PE the value resides at.
    #[inline]
    pub fn loc(&self) -> Coord {
        self.loc
    }

    /// The value's critical path in the message DAG.
    #[inline]
    pub fn path(&self) -> Path {
        self.path
    }

    /// Local computation on one value (free in the model).
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Tracked<U> {
        Tracked::raw(f(self.value), self.loc, self.path)
    }

    /// Local computation combining two co-located values.
    ///
    /// # Panics
    /// Panics if the operands reside at different PEs — cross-PE data flow
    /// must go through [`crate::Machine::send`].
    pub fn zip_with<U: Clone, R>(
        &self,
        other: &Tracked<U>,
        f: impl FnOnce(&T, &U) -> R,
    ) -> Tracked<R> {
        assert_eq!(
            self.loc, other.loc,
            "local compute requires co-located operands ({} vs {})",
            self.loc, other.loc
        );
        Tracked::raw(f(&self.value, &other.value), self.loc, self.path.join(other.path))
    }

    /// Replaces the value while keeping location and path (local rewrite).
    pub fn with_value<U>(&self, value: U) -> Tracked<U> {
        Tracked::raw(value, self.loc, self.path)
    }
}

impl<T: Clone> Tracked<T> {
    /// Local duplication at the same PE (free: no message is sent).
    pub fn duplicate(&self) -> Tracked<T> {
        Tracked::raw(self.value.clone(), self.loc, self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    #[test]
    fn map_preserves_loc_and_path() {
        let mut m = Machine::new();
        let a = m.place(Coord::new(1, 1), 10i64);
        let b = m.send_owned(a, Coord::new(1, 3)); // path = (1, 2)
        let c = b.map(|x| x * 2);
        assert_eq!(*c.value(), 20);
        assert_eq!(c.loc(), Coord::new(1, 3));
        assert_eq!(c.path(), Path { depth: 1, distance: 2 });
    }

    #[test]
    fn zip_with_joins_paths() {
        let mut m = Machine::new();
        let a = m.place(Coord::ORIGIN, 1i64);
        let b = m.place(Coord::new(0, 5), 2i64);
        let b2 = m.send_owned(b, Coord::ORIGIN);
        let s = a.zip_with(&b2, |x, y| x + y);
        assert_eq!(*s.value(), 3);
        assert_eq!(s.path(), Path { depth: 1, distance: 5 });
    }

    #[test]
    #[should_panic(expected = "co-located")]
    fn zip_with_rejects_remote_operands() {
        let mut m = Machine::new();
        let a = m.place(Coord::ORIGIN, 1i64);
        let b = m.place(Coord::new(0, 5), 2i64);
        let _ = a.zip_with(&b, |x, y| x + y);
    }
}
