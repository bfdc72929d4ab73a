//! Order statistics and averages used by every activity.

/// The median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in `[0, 100]`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentile of per-sample times that the compile and kernel
/// metrics report.
///
/// The shared machines the benchmark runs on switch between full speed
/// and about half speed for stretches of one to fifteen seconds, as
/// other tenants come and go. A median over a run then lands in either
/// mode depending on which one the run happened to catch more of: it
/// moved by up to 28% from run to run on a 2-vCPU virtual machine. A low
/// percentile stays in the full-speed mode whenever a run catches a
/// little of it; a change that makes the work slower shifts every
/// sample, and so this percentile, too.
pub const FAST_PERCENTILE: f64 = 5.0;

/// The [`FAST_PERCENTILE`]th percentile of `xs`: the time the work takes
/// while the machine runs at full speed. 0 when empty.
pub fn fast(xs: &[f64]) -> f64 {
    percentile(xs, FAST_PERCENTILE)
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Kendall's tau-b rank correlation between two equally long series:
/// 1 when they order every pair the same way, -1 when every pair is
/// reversed. Pairs tied in either series count for neither side.
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    let (mut concordant, mut discordant, mut ties_a, mut ties_b) = (0.0f64, 0.0, 0.0, 0.0);
    for i in 0..a.len() {
        for j in i + 1..a.len() {
            let da = (a[i] - a[j]).signum() * f64::from(a[i] != a[j]);
            let db = (b[i] - b[j]).signum() * f64::from(b[i] != b[j]);
            if da == 0.0 && db == 0.0 {
                continue;
            } else if da == 0.0 {
                ties_a += 1.0;
            } else if db == 0.0 {
                ties_b += 1.0;
            } else if da == db {
                concordant += 1.0;
            } else {
                discordant += 1.0;
            }
        }
    }
    let denom = ((concordant + discordant + ties_a) * (concordant + discordant + ties_b)).sqrt();
    if denom == 0.0 {
        0.0
    } else {
        (concordant - discordant) / denom
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&xs, 50.0), 500.0);
        assert_eq!(fast(&xs), 50.0);
        assert_eq!(fast(&[5.0, 1.0, 3.0]), 1.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn kendall_tau_extremes() {
        assert_eq!(kendall_tau(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]), 1.0);
        assert_eq!(kendall_tau(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]), -1.0);
        assert_eq!(kendall_tau(&[1.0, 1.0], &[1.0, 2.0]), 0.0);
    }
}
