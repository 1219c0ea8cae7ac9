//! Declared `Persist` impls: a struct states its byte layout once, as an
//! ordered field list, and [`persist_struct!`](crate::persist_struct)
//! writes both `save` and `load` from it.

use crate::codec::{ByteReader, Persist};
use crate::error::PersistError;

/// Implements [`Persist`](crate::Persist) for a struct from one ordered
/// field list.
///
/// ```text
/// persist_struct! {
///     impl[K: Kernel1d + Default] Kde<K> {   // `impl[...]` only for generics
///         dims,
///         cols,
///     }
///     derived {                              // optional
///         n: cols.len(),                     // may read the fields above
///         kernel: K::default(),
///     }
///     check: Kde::check_loaded               // or `none`, written out
/// }
/// ```
///
/// `save` writes each listed field with its own `Persist` impl, in list
/// order. `load` reads them back into locals in the same order, then
/// evaluates each `derived` expression (never persisted, never taken
/// from a blanket `Default`), builds the struct and runs `check`: any
/// `FnOnce(&Self) -> Result<(), PersistError>`. A struct with no
/// invariant says `check: none`. A field that is neither listed nor
/// derived is a compile error. Only the `impl` is emitted; the struct
/// definition stays where it is.
#[macro_export]
macro_rules! persist_struct {
    (
        impl[$($gen:tt)*] $ty:ty { $($field:ident),* $(,)? }
        $(derived { $($derived:ident: $value:expr),* $(,)? })?
        check: $($check:tt)+
    ) => {
        impl<$($gen)*> $crate::Persist for $ty {
            fn save(&self, w: &mut $crate::ByteWriter) {
                $($crate::Persist::save(&self.$field, w);)*
            }

            fn load(r: &mut $crate::ByteReader<'_>) -> Result<Self, $crate::PersistError> {
                $(let $field = $crate::declare::load_field(r, |v: &Self| &v.$field)?;)*
                $($(let $derived = $value;)*)?
                let v = Self { $($field,)* $($($derived,)*)? };
                $crate::persist_struct!(@check v $($check)+);
                Ok(v)
            }
        }
    };
    (@check $v:ident none) => {};
    (@check $v:ident $check:expr) => {
        $crate::declare::run_check(&$v, $check)?;
    };
    ($name:ident $($rest:tt)*) => {
        $crate::persist_struct!(impl[] $name $($rest)*);
    };
}

/// Reads one field, typed by the accessor `field` so that `derived`
/// expressions can call methods on the local before the struct exists.
pub fn load_field<S, T: Persist>(
    r: &mut ByteReader<'_>,
    _field: fn(&S) -> &T,
) -> Result<T, PersistError> {
    T::load(r)
}

/// Runs a declared check; the bound gives a closure its argument type.
pub fn run_check<S>(
    v: &S,
    check: impl FnOnce(&S) -> Result<(), PersistError>,
) -> Result<(), PersistError> {
    check(v)
}

#[cfg(test)]
mod tests {
    use crate::{ByteReader, ByteWriter, Persist, PersistError};

    /// A window with one derived field and one invariant, declared.
    #[derive(Debug, PartialEq)]
    struct Declared {
        cap: usize,
        values: Vec<f64>,
        label: Option<u8>,
        sum: f64,
    }

    impl Declared {
        fn new(cap: usize, values: Vec<f64>, label: Option<u8>) -> Self {
            let sum = values.iter().sum();
            Self {
                cap,
                values,
                label,
                sum,
            }
        }

        fn check_loaded(&self) -> Result<(), PersistError> {
            if self.values.len() > self.cap {
                return Err(PersistError::Corrupt("declared window over capacity"));
            }
            Ok(())
        }
    }

    crate::persist_struct! {
        Declared {
            cap,
            values,
            label,
        }
        derived {
            sum: values.iter().sum(),
        }
        check: Declared::check_loaded
    }

    /// The same layout and check, written by hand.
    struct HandWritten(Declared);

    impl Persist for HandWritten {
        fn save(&self, w: &mut ByteWriter) {
            w.put_usize(self.0.cap);
            self.0.values.save(w);
            self.0.label.save(w);
        }

        fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
            let cap = usize::load(r)?;
            let values = Vec::<f64>::load(r)?;
            let label = Option::<u8>::load(r)?;
            let d = Declared::new(cap, values, label);
            d.check_loaded()?;
            Ok(Self(d))
        }
    }

    /// Generic form: the `impl[...]` prefix carries the bounds.
    #[derive(Debug, PartialEq)]
    struct Pair<T> {
        a: T,
        b: T,
    }

    crate::persist_struct! {
        impl[T: Persist] Pair<T> {
            a,
            b,
        }
        check: none
    }

    #[test]
    fn declared_bytes_equal_the_hand_written_twin() {
        let d = Declared::new(4, vec![1.5, -0.0, 2.25], Some(7));
        let bytes = d.to_bytes();
        assert_eq!(
            bytes,
            HandWritten(Declared::new(4, vec![1.5, -0.0, 2.25], Some(7))).to_bytes()
        );
        assert_eq!(Declared::from_bytes(&bytes).unwrap(), d);
        assert_eq!(HandWritten::from_bytes(&bytes).unwrap().0, d);
        let pair = Pair { a: 1u32, b: 2 };
        assert_eq!(pair.to_bytes(), (1u32, 2u32).to_bytes());
        assert_eq!(Pair::<u32>::from_bytes(&pair.to_bytes()).unwrap(), pair);
    }

    #[test]
    fn derived_field_is_rebuilt_not_kept() {
        let mut d = Declared::new(4, vec![1.0, 2.0], None);
        d.sum = 99.0;
        let back = Declared::from_bytes(&d.to_bytes()).unwrap();
        assert_eq!(back.sum, 3.0);
        // `sum` takes no bytes: the encoding is cap, values, label only.
        assert_eq!(d.to_bytes().len(), 8 + (8 + 2 * 8) + 1);
    }

    #[test]
    fn failing_check_returns_its_corrupt_string() {
        let bytes = Declared::new(1, vec![1.0, 2.0], None).to_bytes();
        assert_eq!(
            Declared::from_bytes(&bytes).unwrap_err(),
            PersistError::Corrupt("declared window over capacity")
        );
    }

    #[test]
    fn truncated_input_is_typed() {
        let bytes = Declared::new(4, vec![1.0], Some(1)).to_bytes();
        for cut in [0, 7, 8, 20, bytes.len() - 1] {
            assert!(
                matches!(
                    Declared::from_bytes(&bytes[..cut]),
                    Err(PersistError::Truncated { .. })
                ),
                "cut at {cut}"
            );
        }
    }
}
