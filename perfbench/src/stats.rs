//! Order statistics and the result digest.

/// Median of `v` (sorts it in place); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it — the
/// sample with exactly ten larger ones — or the maximum when there are
/// ten samples or fewer (sorts `v` in place); 0 when empty.
pub fn tail(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    v[if n > 10 { n - 11 } else { n - 1 }]
}

/// FNV-1a 64 over the fields of a simulated result. Floats enter by their
/// bit patterns, so any change to a modelled value changes the digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Folds an integer in.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds a float in by its bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Folds a string in, length-prefixed.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<f64> = (1..=58).map(f64::from).collect();
        // Ten samples (49..=58) lie beyond the reported one.
        assert_eq!(tail(&mut v), 48.0);
        assert_eq!(tail(&mut [1.0, 5.0, 2.0]), 5.0);
    }

    #[test]
    fn digest_separates_fields() {
        let a = Digest::default().str("ab").str("c").finish();
        let b = Digest::default().str("a").str("bc").finish();
        assert_ne!(a, b);
        assert_ne!(
            Digest::default().f64(0.0).finish(),
            Digest::default().f64(-0.0).finish()
        );
    }
}
