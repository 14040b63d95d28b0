//! The spill-time hook connecting run generation to the cutoff filter.
//!
//! Algorithm 1 of the paper re-checks every row against the cutoff filter
//! at spill time (lines 10–13): the filter may have sharpened since the row
//! was admitted, and each surviving spilled row feeds the histogram
//! (`rowSpilled`). [`SpillObserver`] is that interface, kept in this crate
//! so the run generators do not depend on `histok-core`.

/// Watches (and may veto) rows as they are written to sorted runs.
///
/// All methods have no-op defaults so simple observers only implement what
/// they need. Methods are called from the thread driving run generation.
pub trait SpillObserver<K>: Send {
    /// A new run is starting; `estimated_rows` is the generator's guess at
    /// its length (used by histogram sizing policies to pick bucket widths).
    fn run_started(&mut self, estimated_rows: u64) {
        let _ = estimated_rows;
    }

    /// Called immediately before a row would be written. Returning `true`
    /// eliminates the row (Algorithm 1 line 11: the cutoff may have
    /// sharpened after the row was admitted to the sort workspace).
    fn should_eliminate(&mut self, key: &K) -> bool {
        let _ = key;
        false
    }

    /// Called after a row was written to the current run (Algorithm 1 line
    /// 13, `rowSpilled`): the histogram logic creates buckets here.
    fn row_spilled(&mut self, key: &K) {
        let _ = key;
    }

    /// The current run was sealed.
    fn run_finished(&mut self) {}

    /// The observer's elimination rule as a plain cutoff key, if it has
    /// one. Returning `Some(cut)` promises that, right now,
    /// `should_eliminate(k)` is side-effect-free and equivalent to
    /// `order.follows(k, cut)`, and that the cutoff only tightens — which
    /// lets batched run generation drop a sorted buffer's tail past it with
    /// one scan over its prefix column before checking the rest row by row.
    /// Observers whose `should_eliminate` has side effects or richer logic
    /// keep the `None` default.
    fn cutoff_key(&mut self) -> Option<K> {
        None
    }

    /// `n` rows were eliminated by one batched clip against the
    /// [`cutoff_key`](SpillObserver::cutoff_key) cutoff, in place of `n`
    /// individual `should_eliminate` calls. Observers that count
    /// eliminations add `n` here.
    fn rows_clipped(&mut self, n: u64) {
        let _ = n;
    }
}

/// An observer that does nothing — plain external sorting.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl<K> SpillObserver<K> for NoopObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recording observer used by the run-generation tests.
    #[derive(Default)]
    pub(crate) struct Recorder {
        pub runs_started: usize,
        pub runs_finished: usize,
        pub spilled: Vec<u64>,
        pub eliminate_above: Option<u64>,
    }

    impl SpillObserver<u64> for Recorder {
        fn run_started(&mut self, _est: u64) {
            self.runs_started += 1;
        }
        fn should_eliminate(&mut self, key: &u64) -> bool {
            self.eliminate_above.is_some_and(|cut| *key > cut)
        }
        fn row_spilled(&mut self, key: &u64) {
            self.spilled.push(*key);
        }
        fn run_finished(&mut self) {
            self.runs_finished += 1;
        }
    }

    #[test]
    fn noop_observer_never_eliminates() {
        let mut o = NoopObserver;
        assert!(!SpillObserver::<u64>::should_eliminate(&mut o, &42));
        SpillObserver::<u64>::row_spilled(&mut o, &42);
        SpillObserver::<u64>::run_started(&mut o, 10);
        SpillObserver::<u64>::run_finished(&mut o);
    }

    #[test]
    fn recorder_applies_threshold() {
        let mut r = Recorder { eliminate_above: Some(10), ..Default::default() };
        assert!(!r.should_eliminate(&10));
        assert!(r.should_eliminate(&11));
    }
}
