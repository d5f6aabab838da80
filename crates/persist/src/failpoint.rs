//! Minimal in-tree fail-point support for fault-injection testing.
//!
//! A *fail point* is a named hook compiled into production code paths; when
//! armed, [`triggered`] returns `true` at that hook and the surrounding code
//! takes its error path, letting tests (and operators reproducing bugs)
//! exercise degraded-mode behavior deterministically.
//!
//! This module lives in `sumtab-persist` (the bottom of the IO stack) and is
//! re-exported as `sumtab::failpoint`, its original home. The workspace
//! plants fail points at these boundaries:
//!
//! | name                | effect when armed                                   |
//! |---------------------|-----------------------------------------------------|
//! | `match`             | every AST match attempt fails (matcher error path)  |
//! | `execute-rewritten` | executing an AST-backed plan fails (fallback path)  |
//! | `maintain`          | incremental maintenance fails (full-refresh path)   |
//! | `refresh`           | a summary-table full refresh fails (left stale)     |
//! | `wal-append`        | WAL append writes a **short (torn) record** and errors |
//! | `wal-fsync`         | WAL fsync fails after a complete write              |
//! | `snapshot-write`    | snapshot temp-file write is short and errors        |
//! | `snapshot-rename`   | the atomic snapshot rename fails                    |
//!
//! Arming is programmatic ([`arm`]/[`disarm`], the scope-bound [`armed`]
//! guard for tests, or the budgeted [`arm_times`] for transient faults) or
//! environmental: `SUMTAB_FAILPOINTS=match,wal-append` arms a comma-separated
//! list at first use.
//!
//! Disabled cost: when nothing is armed, [`triggered`] is two relaxed atomic
//! loads — no lock, no allocation. State is process-global; tests that arm
//! fail points must serialize themselves (see `tests/failpoints.rs`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock};

/// Fast path: true iff at least one fail point is armed.
static ANY_ARMED: AtomicBool = AtomicBool::new(false);

/// Armed points: name → remaining trigger budget (`None` = unlimited).
fn set() -> MutexGuard<'static, HashMap<String, Option<u32>>> {
    static SET: OnceLock<Mutex<HashMap<String, Option<u32>>>> = OnceLock::new();
    let m = SET.get_or_init(|| Mutex::new(HashMap::new()));
    match m.lock() {
        Ok(g) => g,
        // A panic while holding the lock leaves the set intact; keep going.
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Arm any fail points listed in `SUMTAB_FAILPOINTS` (once per process).
fn ensure_env_armed() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        if let Ok(list) = std::env::var("SUMTAB_FAILPOINTS") {
            for name in list.split(',').map(str::trim).filter(|n| !n.is_empty()) {
                arm(name);
            }
        }
    });
}

/// Arm the named fail point: subsequent [`triggered`] calls return `true`.
pub fn arm(name: &str) {
    let mut s = set();
    s.insert(name.to_string(), None);
    ANY_ARMED.store(true, Ordering::Release);
}

/// Arm the named fail point for exactly `n` triggers, after which it
/// disarms itself — models *transient* faults that a bounded retry should
/// ride out (e.g. two failing fsyncs followed by success).
pub fn arm_times(name: &str, n: u32) {
    let mut s = set();
    s.insert(name.to_string(), Some(n));
    ANY_ARMED.store(true, Ordering::Release);
}

/// Disarm the named fail point.
pub fn disarm(name: &str) {
    let mut s = set();
    s.remove(name);
    if s.is_empty() {
        ANY_ARMED.store(false, Ordering::Release);
    }
}

/// Disarm every fail point.
pub fn disarm_all() {
    let mut s = set();
    s.clear();
    ANY_ARMED.store(false, Ordering::Release);
}

/// Should the named fail point fire? Called from production code at the
/// hook site; returns `false` (after two atomic loads) unless armed. A
/// budgeted point ([`arm_times`]) decrements its budget per trigger and
/// disarms itself at zero.
pub fn triggered(name: &str) -> bool {
    ensure_env_armed();
    if !ANY_ARMED.load(Ordering::Acquire) {
        return false;
    }
    let mut s = set();
    match s.get_mut(name) {
        None => false,
        Some(None) => true,
        Some(Some(budget)) => {
            if *budget == 0 {
                s.remove(name);
                if s.is_empty() {
                    ANY_ARMED.store(false, Ordering::Release);
                }
                return false;
            }
            *budget -= 1;
            let now_spent = *budget == 0;
            if now_spent {
                s.remove(name);
                if s.is_empty() {
                    ANY_ARMED.store(false, Ordering::Release);
                }
            }
            true
        }
    }
}

/// Is *any* fail point armed? Fault-injection runs bypass result caches
/// (e.g. the session plan cache) through this check, so an injected outcome
/// is never stored and never served after disarming.
pub fn any_armed() -> bool {
    ensure_env_armed();
    ANY_ARMED.load(Ordering::Acquire)
}

/// A scope-bound arming: the fail point stays armed until the guard drops.
/// Test helper — prefer this over raw [`arm`]/[`disarm`] so a failing
/// assertion cannot leave the point armed for other tests.
#[must_use = "the fail point disarms when this guard is dropped"]
pub struct Armed {
    name: String,
}

/// Arm `name` for the lifetime of the returned guard.
pub fn armed(name: &str) -> Armed {
    arm(name);
    Armed {
        name: name.to_string(),
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        disarm(&self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arming_is_scoped_and_observable() {
        // This test owns the fail point name; nothing else arms it.
        assert!(!triggered("failpoint-unit-test"));
        {
            let _g = armed("failpoint-unit-test");
            assert!(triggered("failpoint-unit-test"));
            assert!(!triggered("failpoint-unit-test-other"));
        }
        assert!(!triggered("failpoint-unit-test"));
    }

    #[test]
    fn budgeted_arming_self_disarms() {
        arm_times("failpoint-budget-test", 2);
        assert!(triggered("failpoint-budget-test"));
        assert!(triggered("failpoint-budget-test"));
        assert!(!triggered("failpoint-budget-test"), "budget spent");
        assert!(!triggered("failpoint-budget-test"));
    }
}
