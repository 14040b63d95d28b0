//! Histogram sizing policies.
//!
//! "As new runs are created a sizing policy determines the new buckets"
//! (§3.1.2). The policy picks the bucket *width* (rows per bucket) for each
//! run from an estimate of the run's length. The paper's semantics, which
//! all of §3.2's arithmetic depends on, is: *B buckets per run put
//! boundaries at the quantiles i/(B+1)* — e.g. 9 buckets are the deciles
//! 10%…90% of a run (Table 1), 1 bucket is the run's median (Table 5),
//! 19 buckets are the 5% quantiles ("the cutoff key after 6 runs can be
//! 0.85 rather than 0.9").

use histok_types::{Error, Result};

/// How many buckets to collect from each run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizingPolicy {
    /// No histogram at all: runs never establish a cutoff (Table 2's first
    /// row). The optimized baseline's k-th-key cutoff is `FixedWidth(k)`
    /// without tail buckets instead (DESIGN.md §5).
    Disabled,
    /// Target `B` buckets per run: bucket width `max(1, ⌊est/(B+1)⌋)` rows.
    /// The paper's default is 50 (§5.1.2).
    TargetBuckets(u32),
    /// A fixed bucket width in rows, independent of run length.
    FixedWidth(u64),
}

impl Default for SizingPolicy {
    /// The production default: 50 buckets per run (§5.1.2).
    fn default() -> Self {
        SizingPolicy::TargetBuckets(50)
    }
}

impl SizingPolicy {
    /// Bucket width for a run estimated at `estimated_rows` rows;
    /// `0` disables buckets for the run.
    pub fn width_for_run(&self, estimated_rows: u64) -> u64 {
        match *self {
            SizingPolicy::Disabled => 0,
            SizingPolicy::TargetBuckets(b) => {
                if b == 0 {
                    0
                } else {
                    (estimated_rows / (u64::from(b) + 1)).max(1)
                }
            }
            SizingPolicy::FixedWidth(w) => w,
        }
    }

    /// The per-run bucket-count cap handed to the histogram builder
    /// (0 = unlimited). Only `TargetBuckets` caps: fixed-width policies
    /// keep emitting for as long as the run lasts.
    pub fn max_buckets_per_run(&self) -> u32 {
        match *self {
            SizingPolicy::TargetBuckets(b) => b,
            _ => 0,
        }
    }

    /// Validates the policy.
    pub fn validate(&self) -> Result<()> {
        if let SizingPolicy::FixedWidth(0) = self {
            return Err(Error::InvalidConfig(
                "fixed bucket width must be positive (use Disabled for no histogram)".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_decile_example() {
        // 9 buckets over a 1000-row run → width 100 (boundaries at the
        // deciles 10%..90%), exactly Table 1's setup.
        assert_eq!(SizingPolicy::TargetBuckets(9).width_for_run(1000), 100);
    }

    #[test]
    fn paper_median_example() {
        // 1 bucket over 1000 rows → width 500: the median (§3.2.1's
        // "opposite extreme", Table 5).
        assert_eq!(SizingPolicy::TargetBuckets(1).width_for_run(1000), 500);
    }

    #[test]
    fn paper_nineteen_bucket_example() {
        // 19 buckets over 1000 rows → width 50: the 5% quantiles.
        assert_eq!(SizingPolicy::TargetBuckets(19).width_for_run(1000), 50);
    }

    #[test]
    fn per_key_tracking_extreme() {
        // 1000 buckets over 1000 rows: width clamps to 1 — "each key is
        // retained as a histogram bucket of size 1".
        assert_eq!(SizingPolicy::TargetBuckets(1000).width_for_run(1000), 1);
    }

    #[test]
    fn disabled_and_zero_buckets_yield_zero_width() {
        assert_eq!(SizingPolicy::Disabled.width_for_run(1000), 0);
        assert_eq!(SizingPolicy::TargetBuckets(0).width_for_run(1000), 0);
    }

    #[test]
    fn fixed_width_ignores_estimate() {
        assert_eq!(SizingPolicy::FixedWidth(7).width_for_run(10), 7);
        assert_eq!(SizingPolicy::FixedWidth(7).width_for_run(1_000_000), 7);
    }

    #[test]
    fn tiny_runs_still_get_buckets() {
        // Even a 3-row run produces size-1 buckets rather than none.
        assert_eq!(SizingPolicy::TargetBuckets(50).width_for_run(3), 1);
    }

    #[test]
    fn validation() {
        assert!(SizingPolicy::FixedWidth(0).validate().is_err());
        assert!(SizingPolicy::FixedWidth(1).validate().is_ok());
        assert!(SizingPolicy::Disabled.validate().is_ok());
        assert!(SizingPolicy::default().validate().is_ok());
        assert_eq!(SizingPolicy::default(), SizingPolicy::TargetBuckets(50));
    }
}
