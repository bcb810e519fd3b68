//! # eco-sched — deterministic interleaving checker for the service layer
//!
//! PRs 6–9 made the reproducer concurrent: a thread-pool engine with
//! in-flight dedupe, a multi-threaded `eco serve` daemon, a shared disk
//! store with concurrent LRU GC, and lock-free metrics. Stress tests sample
//! schedules; this crate *enumerates* them. It is a zero-dependency,
//! loom-style model checker:
//!
//! * [`sync`] — the shim the service layer imports instead of `std::sync`.
//!   A plain re-export in normal builds; under `--cfg eco_sched` it routes
//!   every operation through the controlled scheduler.
//! * [`model`] — the instrumented primitives by their own names, available
//!   in every build, so checker models work without a special cfg.
//! * [`explore`] — DFS over bounded-preemption interleavings with a
//!   DPOR-lite reduction (commuting adjacent steps are skipped) and
//!   seeded-schedule replay via `ECO_SCHED_SEED`.
//! * [`DiagCode`] — stable `ECO-S001..` diagnostics: lock-order cycles,
//!   locks held across `Condvar::wait`, non-joined threads, deadlocks, and
//!   protocol-specific invariant violations.
//!
//! The service layer's protocols are checked on the shipped code, not
//! on copies: the `sched_model` suites of eco-store, eco-exec and
//! eco-bench drive the real store, engine memo and daemon dedupe
//! through [`explore`] under `RUSTFLAGS="--cfg eco_sched"` and fail on
//! any diagnostic the shipped protocols raise.
//!
//! ```
//! use eco_sched::model::{self, Mutex};
//! use std::sync::Arc;
//!
//! let report = eco_sched::explore(eco_sched::Config::default(), || {
//!     let counter = Arc::new(Mutex::labeled("demo.counter", 0u32));
//!     let c2 = counter.clone();
//!     let t = model::thread::spawn("adder", move || {
//!         *c2.lock().unwrap() += 1;
//!     });
//!     *counter.lock().unwrap() += 1;
//!     t.join();
//!     assert_eq!(*counter.lock().unwrap(), 2);
//! });
//! assert!(report.is_clean());
//! assert!(report.schedules >= 2);
//! ```

mod diag;
mod runtime;
mod sync_model;

pub mod sync;

pub use diag::{DiagCode, SchedDiag};
pub use runtime::{explore, Config, Report};

/// Instrumented primitives under their own names, usable in any build.
pub mod model {
    pub use crate::runtime::active;
    pub use crate::sync_model::{atomic, check, thread, yield_point, Condvar, Mutex, MutexGuard};
}
