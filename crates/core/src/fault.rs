//! Deterministic fault injection for the crash-safety tests.
//!
//! `MICROLIB_FAULT` arms one or more *fault specs*, each of the form
//!
//! ```text
//! <point>[@<qualifier>]:<nth>[:<kind>]
//! ```
//!
//! separated by commas. A spec fires when the named injection point is
//! hit for the `nth` time in this process (`nth = *` fires on **every**
//! hit — the "poison cell" mode). Kinds:
//!
//! | kind | effect at the injection point |
//! |---|---|
//! | `abort` (default) | `std::process::abort()` — an uncatchable `SIGABRT`, standing in for a `SIGKILL`-class crash |
//! | `panic` | a Rust panic — exercises the in-process isolation layers (`catch_unwind` per experiment, the memo slot's panicking-leader recovery) |
//! | `torn` | returned to the caller ([`injected`]), which simulates a torn write: truncated bytes placed at the *final* path, bypassing the atomic temp-file + rename protocol |
//!
//! Injection points wired through the codebase:
//!
//! | point | qualifier | where |
//! |---|---|---|
//! | `disk-write` | entry class (`memo`, `plan`, `warm`) | [`DiskCache::store`](crate::DiskCache::store) — `disk-write@memo` is the memo-journal write |
//! | `cell` | `<benchmark>+<mechanism acronym>` (e.g. `swim+GHB`) | cell execution, after the memo and journal misses and before the simulation |
//!
//! A numeric `nth` counts hits in this process only, so a rerun without
//! `MICROLIB_FAULT` is the recovery run. Everything here is inert (one
//! mutex read per call site) unless a spec is armed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// What an armed fault spec does when it fires (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// `std::process::abort()` — a `SIGABRT` crash.
    Abort,
    /// A Rust panic (unwinds through the cell into the experiment catch).
    Panic,
    /// Returned to the write site, which places truncated bytes at the
    /// final path (simulating a torn, non-atomic write).
    Torn,
}

/// One armed `<point>[@qual]:<nth>[:<kind>]` spec.
#[derive(Debug)]
struct FaultSpec {
    point: String,
    qual: Option<String>,
    /// `None` = fire on every hit; `Some(n)` = fire on the `n`th hit.
    nth: Option<u64>,
    kind: FaultKind,
    hits: AtomicU64,
}

#[derive(Debug)]
struct Harness {
    specs: Vec<FaultSpec>,
}

fn slot() -> &'static Mutex<Option<&'static Harness>> {
    static SLOT: OnceLock<Mutex<Option<&'static Harness>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(harness_from_env().map(|h| &*Box::leak(Box::new(h)))))
}

fn active() -> Option<&'static Harness> {
    *slot().lock().expect("fault harness lock")
}

/// Parses and arms `spec` in place of whatever `MICROLIB_FAULT` said —
/// the test hook (tests in one process cannot re-exec to change the
/// environment). Hit counters start at zero.
///
/// # Errors
///
/// Returns the parse failure for a malformed spec; the previously armed
/// harness stays in place.
pub fn arm(spec: &str) -> Result<(), String> {
    let harness = parse_harness(spec)?;
    *slot().lock().expect("fault harness lock") = Some(&*Box::leak(Box::new(harness)));
    Ok(())
}

/// Disarms every fault spec (test hook).
pub fn disarm() {
    *slot().lock().expect("fault harness lock") = None;
}

fn harness_from_env() -> Option<Harness> {
    let spec = std::env::var("MICROLIB_FAULT").ok()?;
    if spec.is_empty() {
        return None;
    }
    match parse_harness(&spec) {
        Ok(h) => Some(h),
        Err(e) => {
            eprintln!("MICROLIB_FAULT={spec:?} ignored: {e}");
            None
        }
    }
}

fn parse_harness(spec: &str) -> Result<Harness, String> {
    let mut specs = Vec::new();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        specs.push(parse_spec(part)?);
    }
    if specs.is_empty() {
        return Err("no fault specs".to_owned());
    }
    Ok(Harness { specs })
}

fn parse_spec(part: &str) -> Result<FaultSpec, String> {
    let fields: Vec<&str> = part.split(':').collect();
    let (point_qual, nth, kind) = match fields.as_slice() {
        [p, n] => (*p, *n, "abort"),
        [p, n, k] => (*p, *n, *k),
        _ => return Err(format!("{part:?} is not <point>[@qual]:<nth>[:<kind>]")),
    };
    let (point, qual) = match point_qual.split_once('@') {
        Some((p, q)) => (p, Some(q.to_owned())),
        None => (point_qual, None),
    };
    if point.is_empty() {
        return Err(format!("{part:?} has an empty injection point"));
    }
    let nth = match nth {
        "*" => None,
        n => Some(
            n.parse::<u64>()
                .ok()
                .filter(|n| *n > 0)
                .ok_or_else(|| format!("{part:?}: nth must be a positive integer or '*'"))?,
        ),
    };
    let kind = match kind {
        "abort" => FaultKind::Abort,
        "panic" => FaultKind::Panic,
        "torn" | "torn-write" => FaultKind::Torn,
        other => return Err(format!("unknown fault kind {other:?}")),
    };
    Ok(FaultSpec {
        point: point.to_owned(),
        qual,
        nth,
        kind,
        hits: AtomicU64::new(0),
    })
}

impl Harness {
    /// Counts a hit on `(point, qual)` against every matching spec and
    /// returns the kind of the first spec that fires.
    fn fire(&self, point: &str, qual: &str) -> Option<FaultKind> {
        for spec in &self.specs {
            if spec.point != point || spec.qual.as_deref().is_some_and(|q| q != qual) {
                continue;
            }
            let hit = spec.hits.fetch_add(1, Ordering::Relaxed) + 1;
            if spec.nth.is_none_or(|n| hit == n) {
                return Some(spec.kind);
            }
        }
        None
    }
}

/// Counts a hit on `(point, qual)` against every armed spec and returns
/// the kind of the first spec that fires, if any. Call sites that can
/// simulate a torn write use the returned [`FaultKind::Torn`] themselves
/// and [`execute`] everything else; sites with nothing to tear use
/// [`trigger`].
pub fn injected(point: &str, qual: &str) -> Option<FaultKind> {
    active()?.fire(point, qual)
}

/// Performs a fired fault: abort or panic. [`FaultKind::Torn`] is a
/// no-op here — only write sites can tear.
pub fn execute(kind: FaultKind, point: &str, qual: &str) {
    let at = if qual.is_empty() {
        point.to_owned()
    } else {
        format!("{point}@{qual}")
    };
    match kind {
        FaultKind::Torn => {}
        FaultKind::Panic => panic!("injected fault: panic at {at}"),
        FaultKind::Abort => {
            eprintln!("injected fault: abort at {at}");
            std::process::abort();
        }
    }
}

/// [`injected`] + [`execute`] for call sites with nothing to tear.
pub fn trigger(point: &str, qual: &str) {
    if let Some(kind) = injected(point, qual) {
        execute(kind, point, qual);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grammar_parses() {
        let h = parse_harness("cell@swim+GHB:1:panic,disk-write@memo:3:torn").unwrap();
        assert_eq!(h.specs.len(), 2);
        assert_eq!(h.specs[0].point, "cell");
        assert_eq!(h.specs[0].qual.as_deref(), Some("swim+GHB"));
        assert_eq!(h.specs[0].nth, Some(1));
        assert_eq!(h.specs[0].kind, FaultKind::Panic);
        assert_eq!(h.specs[1].kind, FaultKind::Torn);

        let every = parse_harness("cell:*:abort").unwrap();
        assert_eq!(every.specs[0].nth, None);
        assert_eq!(every.specs[0].kind, FaultKind::Abort);
        assert_eq!(every.specs[0].qual, None);

        let default_kind = parse_harness("cell:2").unwrap();
        assert_eq!(default_kind.specs[0].kind, FaultKind::Abort);

        assert!(parse_harness("").is_err());
        assert!(parse_harness("cell").is_err());
        assert!(parse_harness("cell:0").is_err());
        assert!(parse_harness("cell:x").is_err());
        assert!(parse_harness("cell:1:explode").is_err());
        assert!(parse_harness("cell:1:stall").is_err());
        assert!(parse_harness("@q:1").is_err());
    }

    #[test]
    fn nth_counts_per_spec_and_qualifier_filters() {
        let h = parse_harness("p@a:2:torn").unwrap();
        assert_eq!(h.fire("p", "b"), None, "other qualifier never counts");
        assert_eq!(h.fire("p", "a"), None, "first hit: not yet");
        assert_eq!(h.fire("p", "a"), Some(FaultKind::Torn), "second hit fires");
        assert_eq!(h.fire("p", "a"), None, "numeric nth fires once");

        let every = parse_harness("p:*:panic").unwrap();
        assert_eq!(every.fire("p", "x"), Some(FaultKind::Panic));
        assert_eq!(
            every.fire("p", "y"),
            Some(FaultKind::Panic),
            "'*' fires every hit"
        );
    }
}
