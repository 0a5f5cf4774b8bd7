//! Sample quantiles, and the fixed-size request sample they are taken
//! over.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Requests a [`Samples`] keeps.
const CAPACITY: usize = 1 << 16;

/// A uniform sample (reservoir) of at most 65,536 requests: latency and
/// columns answered. Its memory is written in full up front, so it does
/// not grow with the request rate; otherwise a faster program would read
/// as a larger `peak_rss_mb`.
pub struct Samples {
    lat_us: Vec<f64>,
    cols: Vec<u32>,
    seen: u64,
    rng: SmallRng,
}

impl Samples {
    /// An empty sample.
    pub fn new() -> Self {
        Self {
            lat_us: vec![f64::NAN; CAPACITY],
            cols: vec![u32::MAX; CAPACITY],
            seen: 0,
            rng: SmallRng::seed_from_u64(0x5a3b1e),
        }
    }

    /// Offers one request; it is kept with probability `CAPACITY / seen`.
    pub fn push(&mut self, lat_us: f64, cols: usize) {
        let slot = if self.seen < CAPACITY as u64 {
            Some(self.seen as usize)
        } else {
            let j = self.rng.gen_range(0..=self.seen);
            (j < CAPACITY as u64).then_some(j as usize)
        };
        self.seen += 1;
        if let Some(i) = slot {
            self.lat_us[i] = lat_us;
            self.cols[i] = u32::try_from(cols).unwrap_or(u32::MAX);
        }
    }

    /// Requests kept.
    pub fn len(&self) -> usize {
        self.seen.min(CAPACITY as u64) as usize
    }

    /// Latency quantile, µs.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&mut self.lat_us[..self.len()].to_vec(), q)
    }

    /// [`mid_rate`] over the kept requests.
    pub fn mid_rate(&self) -> f64 {
        let n = self.len();
        let cols: Vec<usize> = self.cols[..n].iter().map(|&c| c as usize).collect();
        mid_rate(&self.lat_us[..n], &cols)
    }
}

/// Nearest-rank quantile of `samples` (sorted in place); 0 when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples`.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Columns per second of request time over the middle half of the
/// requests by latency (between the quartiles). Rare host stalls in the
/// top quarter, which `req_p99_ms` reports, cannot swing it.
pub fn mid_rate(lat_us: &[f64], cols: &[usize]) -> f64 {
    let mut idx: Vec<usize> = (0..lat_us.len()).collect();
    idx.sort_by(|&a, &b| lat_us[a].total_cmp(&lat_us[b]));
    let mid = &idx[idx.len() / 4..idx.len() - idx.len() / 4];
    let time_s: f64 = mid.iter().map(|&i| lat_us[i]).sum::<f64>() / 1e6;
    let answered: usize = mid.iter().map(|&i| cols[i]).sum();
    if time_s > 0.0 {
        answered as f64 / time_s
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(median(&mut [3.0]), 3.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn samples_keep_a_fixed_uniform_subset() {
        let mut s = Samples::new();
        let n = 3 * CAPACITY;
        for i in 0..n {
            s.push(i as f64, 1);
        }
        assert_eq!(s.len(), CAPACITY);
        // A uniform subset of 0..n has its median near n / 2.
        let m = s.quantile(0.5);
        assert!((m - n as f64 / 2.0).abs() < 0.02 * n as f64, "median {m}");
    }

    #[test]
    fn mid_rate_ignores_the_outer_quarters() {
        // Eight 1 ms requests of 2 columns, framed by a fast and a stalled one.
        let mut lat = vec![1_000.0; 8];
        lat.extend([10.0, 1e6]);
        let cols = vec![2; 10];
        assert_eq!(mid_rate(&lat, &cols), 2_000.0);
        assert_eq!(mid_rate(&[], &[]), 0.0);
    }
}
