//! Cooperative cancellation of in-flight simulations.
//!
//! A [`CancelToken`] is a cheap, clonable flag shared between a simulation
//! and its supervisor (a deadline watchdog, a batch runner shutting down, an
//! interactive user). [`crate::Machine::guarded`] reads the token once, when
//! its closure returns, and latches a typed
//! [`crate::SpatialError::Cancelled`] if it has been tripped. No placement or
//! send reads it, so a token is not an instrument: a machine carrying one
//! stays bare ([`crate::Machine::is_bare`]) and runs the closed-form kernels.
//!
//! Cancellation is *cooperative* and does not stop the run: a primitive runs
//! to completion inside its `guarded` call before `Cancelled` is reported
//! (Rust has no safe thread kill). A caller that must stop promptly guards
//! each send separately, and then stops within one message of the token
//! tripping.
//!
//! The token carries no deadline of its own — *when* to cancel is the
//! supervisor's policy (see the `runner` crate's watchdog). This keeps the
//! simulator free of wall-clock reads, which is what makes fault runs and
//! batch reports bit-reproducible.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag (see the module docs).
///
/// Clones observe the same flag. The flag is one-way: once cancelled, a
/// token never becomes live again — re-running requires a fresh token.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, live token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trips the flag. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether the flag has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
    }

    #[test]
    fn cancellation_crosses_threads() {
        let token = CancelToken::new();
        let remote = token.clone();
        std::thread::spawn(move || remote.cancel()).join().unwrap();
        assert!(token.is_cancelled());
    }
}
