//! The percentile rule: a report quotes the highest percentile that has
//! at least ten samples beyond it.

use oppsla_e2ebench::{median, percentile, tail_percentile, MIN_BEYOND};

#[test]
fn quotes_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(
        tail_percentile(19),
        None,
        "19 samples leave 9 beyond the median"
    );
    assert_eq!(tail_percentile(20), Some(500));
    assert_eq!(
        tail_percentile(99),
        Some(500),
        "p90 of 99 has only 9 beyond"
    );
    assert_eq!(tail_percentile(100), Some(900));
    assert_eq!(tail_percentile(999), Some(900));
    assert_eq!(tail_percentile(1000), Some(990));
    assert_eq!(tail_percentile(9999), Some(990));
    assert_eq!(tail_percentile(10_000), Some(999));
}

#[test]
fn the_quoted_percentile_always_has_enough_samples_beyond_it() {
    let ladder = [500u64, 900, 990, 999];
    for n in 1..=1100usize {
        let beyond = |pm: u64| {
            let values: Vec<f64> = (1..=n).map(|v| v as f64).collect();
            let at = percentile(&values, pm).expect("non-empty");
            values.iter().filter(|&&v| v > at).count() as u64
        };
        match tail_percentile(n) {
            Some(pm) => {
                assert!(beyond(pm) >= MIN_BEYOND, "n={n} p{pm}");
                if let Some(&higher) = ladder.iter().find(|&&h| h > pm) {
                    assert!(
                        beyond(higher) < MIN_BEYOND,
                        "n={n}: p{higher} also qualifies"
                    );
                }
            }
            None => assert!(beyond(500) < MIN_BEYOND, "n={n}: the median qualifies"),
        }
    }
}

#[test]
fn percentiles_use_the_nearest_rank() {
    let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&values, 900), Some(90.0));
    assert_eq!(percentile(&values, 500), Some(50.0));
    assert_eq!(percentile(&[3.0], 990), Some(3.0));
    assert_eq!(percentile(&[], 500), None);
    assert_eq!(median(&[2.0, 9.0, 1.0]), 2.0);
}
