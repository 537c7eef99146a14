//! Order statistics and the per-work normalisation every rate goes
//! through.

/// Median (mean of the middle pair for an even count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Quantile `q` of `values`, interpolating linearly between the order
/// statistics on either side of rank `q × (len − 1)`. `None` when empty
/// or when `q` lies outside [0, 1].
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = q * (v.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = (below + 1).min(v.len() - 1);
    Some(v[below] + (rank - below as f64) * (v[above] - v[below]))
}

/// Samples strictly above `threshold`.
pub fn count_above(samples: &[f64], threshold: f64) -> usize {
    samples.iter().filter(|&&s| s > threshold).count()
}

/// The work a pass simulated and what it cost.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Work {
    /// Σ shard duration × clients, in simulated seconds.
    pub sim_client_s: f64,
    /// Time the whole pass took: CPU time in the end-to-end run, wall
    /// time in the traced one.
    pub pass_ns: u64,
    /// Events the shards delivered.
    pub events: u64,
    /// Wall time spent inside the simulation calls themselves.
    pub busy_ns: u64,
    /// Application bytes delivered to clients.
    pub bytes_delivered: u64,
    /// TCP retransmission timeouts.
    pub rtos: u64,
}

/// Every rate the benchmark reports, normalised by work simulated
/// (client-seconds, events, bytes), never by client count: a client
/// whose goodput collapsed under contention still costs simulated
/// seconds.
pub fn normalised(w: &Work) -> [(&'static str, f64); 3] {
    [
        ("sim_rate", w.sim_client_s / (w.pass_ns as f64 / 1e9)),
        (
            "sim_engine.ns_per_event",
            w.busy_ns as f64 / w.events.max(1) as f64,
        ),
        (
            "tcp_lite.rtos_per_mb",
            w.rtos as f64 / (w.bytes_delivered.max(1) as f64 / 1e6),
        ),
    ]
}

/// One named rate from [`normalised`].
pub fn rate(w: &Work, name: &str) -> f64 {
    normalised(w)
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v)
        .expect("a rate normalised() defines")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [40.0, 10.0, 30.0, 20.0, 50.0];
        assert_eq!(quantile(&v, 0.5), Some(30.0));
        assert_eq!(quantile(&v, 0.9), Some(46.0));
        assert_eq!(quantile(&v, 0.0), Some(10.0));
        assert_eq!(quantile(&v, 1.0), Some(50.0));
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(count_above(&v, 30.0), 2);
    }

    #[test]
    fn only_ns_per_event_tells_runs_of_equal_sim_rate_apart() {
        // Two synthetic passes: the same simulated client-seconds in the
        // same wall and busy time, one delivering twice the events (say,
        // a version that stops cancelling superseded timers).
        let a = Work {
            sim_client_s: 8.0 * 30.0,
            pass_ns: 2_000_000_000,
            events: 1_000_000,
            busy_ns: 1_800_000_000,
            bytes_delivered: 50_000_000,
            rtos: 12,
        };
        let b = Work {
            events: 2_000_000,
            ..a
        };
        let differing: Vec<&str> = normalised(&a)
            .iter()
            .zip(normalised(&b).iter())
            .filter(|(x, y)| x.1 != y.1)
            .map(|(x, _)| x.0)
            .collect();
        assert_eq!(differing, ["sim_engine.ns_per_event"]);
        assert_eq!(normalised(&a)[0], ("sim_rate", 120.0));
    }
}
