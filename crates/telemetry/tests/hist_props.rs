//! Property tests for the telemetry histograms: merge is a commutative
//! monoid (so per-robot/per-worker recordings fold into one fleet view in
//! any order), and the log2-bucketed quantile never strays
//! more than one bucket from the exact nearest-rank estimate.

use corki_telemetry::{bucket_of, percentile, Histogram, BUCKETS};
use proptest::prelude::*;

fn hist_of(samples: &[u64]) -> Histogram {
    let mut hist = Histogram::new();
    for &ns in samples {
        hist.record(ns);
    }
    hist
}

proptest! {
    #[test]
    fn merge_is_commutative(
        a in proptest::collection::vec(0u64..u64::MAX, 64),
        b in proptest::collection::vec(0u64..u64::MAX, 64),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha;
        ab.merge(&hb);
        let mut ba = hb;
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(
        a in proptest::collection::vec(0u64..u64::MAX, 48),
        b in proptest::collection::vec(0u64..u64::MAX, 48),
        c in proptest::collection::vec(0u64..u64::MAX, 48),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        // (a ∪ b) ∪ c
        let mut left = ha;
        left.merge(&hb);
        left.merge(&hc);
        // a ∪ (b ∪ c)
        let mut bc = hb;
        bc.merge(&hc);
        let mut right = ha;
        right.merge(&bc);
        prop_assert_eq!(left, right);
        // And merging equals recording the concatenation directly.
        let mut all: Vec<u64> = a;
        all.extend(b);
        all.extend(c);
        prop_assert_eq!(left, hist_of(&all));
    }

    #[test]
    fn quantile_is_within_one_bucket_of_exact_nearest_rank(
        // In-range samples only: dropped values are by design absent from
        // the histogram quantile, and the bucket range covers every
        // latency a run can produce.
        samples in proptest::collection::vec(0u64..(1u64 << 47), 96),
        q in 0.0f64..1.0,
    ) {
        let hist = hist_of(&samples);
        let as_f64: Vec<f64> = samples.iter().map(|&ns| ns as f64).collect();
        let exact = percentile(&as_f64, q) as u64;
        let bucketed = hist.quantile_ns(q);
        let exact_bucket = bucket_of(exact).expect("exact rank is in range");
        let hist_bucket = bucket_of(bucketed).expect("bucket ceiling is in range");
        prop_assert!(
            hist_bucket.abs_diff(exact_bucket) <= 1,
            "histogram quantile {bucketed} (bucket {hist_bucket}) strayed from exact \
             nearest-rank {exact} (bucket {exact_bucket}) at q={q}"
        );
        // The bucketed estimate is the ceiling of its bucket, so it never
        // underestimates the exact rank's bucket floor.
        prop_assert!(bucketed >= exact || hist_bucket == exact_bucket);
    }

    #[test]
    fn count_sum_and_dropped_are_exact(
        samples in proptest::collection::vec(0u64..(1u64 << 50), 96),
    ) {
        let hist = hist_of(&samples);
        let in_range: Vec<u64> =
            samples.iter().copied().filter(|&ns| bucket_of(ns).is_some()).collect();
        prop_assert_eq!(hist.count(), in_range.len() as u64);
        prop_assert_eq!(hist.dropped(), (samples.len() - in_range.len()) as u64);
        prop_assert_eq!(hist.sum_ns(), in_range.iter().sum::<u64>());
        let _ = BUCKETS;
    }
}
