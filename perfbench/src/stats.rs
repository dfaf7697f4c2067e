//! Order statistics and the rate-ladder verdict, kept free of I/O so their
//! math is tested on fixed inputs.

/// Nearest-rank percentile of `values` (`q` in `0..=1`): the smallest value
/// with at least `q` of the samples at or below it. Returns `NaN` for an
/// empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// The median (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; `0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Windows per run for the windowed end-to-end statistics.
pub const WINDOWS: usize = 5;

/// Median over `windows` contiguous, equal-count chunks of `values` of
/// `f(chunk)`. A burst of interference from outside the program spoils
/// the chunks it overlaps, not the whole run.
pub fn windowed(values: &[f64], windows: usize, f: impl Fn(&[f64]) -> f64) -> f64 {
    let bounds = chunk_bounds(values.len(), windows);
    let per: Vec<f64> = bounds.windows(2).map(|b| f(&values[b[0]..b[1]])).collect();
    median(&per)
}

/// Completions per second, as the median over `windows` equal-count
/// chunks of the sorted completion times `done_s` (seconds since the
/// work started): each chunk's count over the time since the previous
/// chunk ended.
pub fn windowed_rate(done_s: &[f64], windows: usize) -> f64 {
    let mut sorted = done_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    let bounds = chunk_bounds(sorted.len(), windows);
    let per: Vec<f64> = bounds
        .windows(2)
        .map(|b| {
            let from = if b[0] == 0 { 0.0 } else { sorted[b[0] - 1] };
            (b[1] - b[0]) as f64 / (sorted[b[1] - 1] - from).max(1e-9)
        })
        .collect();
    median(&per)
}

/// Boundaries of `windows` contiguous chunks of `n` items whose sizes
/// differ by at most one (fewer chunks when `n < windows`).
fn chunk_bounds(n: usize, windows: usize) -> Vec<usize> {
    let w = windows.clamp(1, n.max(1));
    (0..=w).map(|k| k * n / w).collect()
}

/// How late each request was sent: `sent - due`, in milliseconds, never
/// negative (an early send is on time).
pub fn lateness_ms(due_s: &[f64], sent_s: &[f64]) -> Vec<f64> {
    due_s
        .iter()
        .zip(sent_s)
        .map(|(due, sent)| ((sent - due) * 1e3).max(0.0))
        .collect()
}

/// One step of the open-loop rate ladder, as measured.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderStep {
    /// Offered rate, requests per second.
    pub rate_rps: f64,
    /// Client-side p99 latency, timed from each request's due time.
    pub p99_ms: f64,
    /// p99 of how late the generator sent.
    pub lateness_p99_ms: f64,
    /// Whether every scheduled request was answered with a correct frame.
    pub all_ok: bool,
}

impl LadderStep {
    /// Whether the step meets `limit_ms` without a growing backlog: the
    /// p99 is within the limit and the generator never fell behind by
    /// more than the limit (a backlog that grows shows up as lateness
    /// that keeps rising through the step).
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.all_ok && self.p99_ms <= limit_ms && self.lateness_p99_ms <= limit_ms
    }
}

/// The highest offered rate whose step meets `limit_ms`, provided every
/// lower step met it too (a ladder that fails low and passes high is
/// noise, not capacity). `0` when the lowest step fails.
pub fn max_rate_rps(steps: &[LadderStep], limit_ms: f64) -> f64 {
    let mut sorted: Vec<&LadderStep> = steps.iter().collect();
    sorted.sort_by(|a, b| a.rate_rps.total_cmp(&b.rate_rps));
    let mut best = 0.0;
    for step in sorted {
        if !step.meets(limit_ms) {
            break;
        }
        best = step.rate_rps;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Order of the input does not matter.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 0.9), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn windowed_statistics_take_the_median_over_chunks() {
        // Five chunks of two; one chunk is a burst of interference.
        let v = [1.0, 1.0, 2.0, 2.0, 50.0, 60.0, 3.0, 3.0, 4.0, 4.0];
        assert_eq!(windowed(&v, 5, mean), 3.0);
        assert_eq!(windowed(&v, 1, mean), 13.0);
        assert_eq!(chunk_bounds(10, 3), vec![0, 3, 6, 10]);
        assert_eq!(chunk_bounds(2, 5), vec![0, 1, 2]);
        // Ten completions at 10/s, then a stall, then ten more at 10/s:
        // the stall spoils one of four windows.
        let mut done: Vec<f64> = (1..=10).map(|i| f64::from(i) * 0.1).collect();
        done.extend((1..=10).map(|i| 3.0 + f64::from(i) * 0.1));
        let rate = windowed_rate(&done, 4);
        assert!((rate - 10.0).abs() < 1e-9, "{rate}");
        assert!((windowed_rate(&[0.5, 1.0], 1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lateness_is_send_minus_due_and_never_negative() {
        let due = [0.0, 0.010, 0.020];
        let sent = [0.0005, 0.009, 0.032];
        let late = lateness_ms(&due, &sent);
        assert!((late[0] - 0.5).abs() < 1e-9);
        assert_eq!(late[1], 0.0);
        assert!((late[2] - 12.0).abs() < 1e-9);
    }

    fn step(rate: f64, p99: f64, late: f64) -> LadderStep {
        LadderStep {
            rate_rps: rate,
            p99_ms: p99,
            lateness_p99_ms: late,
            all_ok: true,
        }
    }

    #[test]
    fn ladder_max_rate_is_the_highest_passing_prefix() {
        let limit = 50.0;
        let steps = [
            step(100.0, 8.0, 0.2),
            step(300.0, 20.0, 1.0),
            step(900.0, 400.0, 350.0),
        ];
        assert_eq!(max_rate_rps(&steps, limit), 300.0);
        // Unsorted input gives the same answer.
        let shuffled = [steps[2].clone(), steps[0].clone(), steps[1].clone()];
        assert_eq!(max_rate_rps(&shuffled, limit), 300.0);
        // A backlog (lateness past the limit) fails a step even when its
        // p99 happens to pass.
        let backlog = [step(100.0, 8.0, 0.2), step(300.0, 40.0, 75.0)];
        assert_eq!(max_rate_rps(&backlog, limit), 100.0);
        // A failed request fails the step.
        let mut broken = step(100.0, 8.0, 0.2);
        broken.all_ok = false;
        assert_eq!(max_rate_rps(&[broken, step(300.0, 9.0, 0.1)], limit), 0.0);
        // Everything passing: the top rate.
        assert_eq!(
            max_rate_rps(&[step(100.0, 1.0, 0.0), step(200.0, 2.0, 0.0)], limit),
            200.0
        );
    }
}
