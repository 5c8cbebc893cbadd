//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest API the workspace's property
//! tests use: the [`proptest!`] macro, [`Strategy`](strategy::Strategy) with `prop_map`,
//! range/tuple/array strategies, `prop::collection::vec`,
//! `prop::option::weighted`, `prop::bool::ANY`, `prop::sample::select`,
//! and the `prop_assert!` / `prop_assert_eq!` / `prop_assume!` macros.
//!
//! Differences from real proptest: no shrinking (failing inputs are
//! reported verbatim), and generation is deterministic per test (seeded
//! from the test's module path, overridable via `PROPTEST_SEED`). Case
//! count defaults to 64 and can be raised with `PROPTEST_CASES` or
//! `ProptestConfig::with_cases`.

pub mod strategy;
pub mod test_runner;

/// `use proptest::prelude::*;` brings the whole shim surface in.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// The `prop::` namespace (`prop::collection::vec`, ...).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        pub use crate::strategy::vec;
    }
    /// Option strategies.
    pub mod option {
        pub use crate::strategy::weighted;
    }
    /// Boolean strategies.
    pub mod bool {
        pub use crate::strategy::BOOL_ANY as ANY;
    }
    /// Sampling strategies.
    pub mod sample {
        pub use crate::strategy::select;
    }
}

/// Runs each contained test function over many generated inputs.
///
/// Supported grammar (a subset of proptest's):
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(12))] // optional
///     #[test]
///     fn my_property(x in 0u32..10, v in prop::collection::vec(0i64..5, 0..80)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let cases = config.effective_cases();
            let mut rng = $crate::test_runner::TestRng::deterministic(
                concat!(module_path!(), "::", stringify!($name)),
            );
            let strategies = ($($strat,)*);
            let mut accepted: u32 = 0;
            let mut rejected: u32 = 0;
            while accepted < cases {
                assert!(
                    rejected <= cases.saturating_mul(16) + 1024,
                    "{}: too many prop_assume rejections ({rejected})",
                    stringify!($name),
                );
                #[allow(unused_variables, unused_mut)]
                let ($($arg,)*) = {
                    #[allow(unused_variables)]
                    let ($(ref $arg,)*) = strategies;
                    ($($crate::strategy::Strategy::generate($arg, &mut rng),)*)
                };
                // Render inputs up front: the body may consume them.
                let rendered: ::std::string::String = [
                    $(format!(concat!("  ", stringify!($arg), " = {:?}"), &$arg)),*
                ]
                .join("\n");
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match outcome {
                    Ok(()) => accepted += 1,
                    Err($crate::test_runner::TestCaseError::Reject) => rejected += 1,
                    Err($crate::test_runner::TestCaseError::Fail(msg)) => panic!(
                        "property {} failed at case {accepted}: {msg}\ninputs:\n{rendered}",
                        stringify!($name),
                    ),
                }
            }
        }
    )*};
}

/// Fails the surrounding property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fails the surrounding property case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {:?} == {:?}: {}",
            l,
            r,
            format!($($fmt)+)
        );
    }};
}

/// Fails the surrounding property case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: {:?} != {:?}", l, r);
    }};
}

/// Skips the surrounding property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}
