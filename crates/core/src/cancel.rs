//! Cooperative cancellation for enumeration sessions.
//!
//! A [`CancelFlag`] is a cheaply cloneable token shared between a running
//! session and whoever may stop it — another thread, a service connection
//! handler noticing a client disconnect, a drain-and-shutdown sequence. The
//! engines check the flag at their demand boundaries (once per popped
//! Lawler–Murty partition, never inside a re-optimization), so cancellation
//! takes effect within one unit of work and the results already emitted
//! remain a valid ranked prefix. PMC enumeration checks it too, before each
//! prefix and every 256 candidate tests. A cancelled session reports
//! [`StopReason::Cancelled`](crate::session::StopReason::Cancelled).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared one-way switch: once [`CancelFlag::cancel`] is called, every
/// clone observes [`CancelFlag::is_cancelled`] `== true` forever.
#[derive(Clone, Debug, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, un-cancelled flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent and safe from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// `true` once [`CancelFlag::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_is_shared_across_clones_and_threads() {
        let flag = CancelFlag::new();
        assert!(!flag.is_cancelled());
        let clone = flag.clone();
        let handle = std::thread::spawn(move || clone.cancel());
        handle.join().unwrap();
        assert!(flag.is_cancelled());
        // Cancelling again is a no-op.
        flag.cancel();
        assert!(flag.is_cancelled());
    }
}
