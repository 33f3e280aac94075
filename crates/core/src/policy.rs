//! The four factor-update execution policies (Table VI of the paper).

/// Where the three dense kernels of a factor-update run.
///
/// | Policy | potrf | trsm | syrk |
/// |---|---|---|---|
/// | P1 | CPU | CPU | CPU |
/// | P2 | CPU | CPU | GPU |
/// | P3 | CPU | GPU | GPU |
/// | P4 | GPU | GPU | GPU (panel algorithm, Fig. 9) |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PolicyKind {
    /// Everything on the host CPU (the serial baseline).
    P1,
    /// `syrk` offloaded to the GPU; `potrf` and `trsm` stay on the CPU.
    P2,
    /// `trsm` and `syrk` on the GPU; `potrf` on the CPU.
    P3,
    /// The whole factor-update on the GPU via the overlapped panel
    /// algorithm of Figure 9.
    P4,
}

impl PolicyKind {
    /// All four policies in table order.
    pub const ALL: [PolicyKind; 4] =
        [PolicyKind::P1, PolicyKind::P2, PolicyKind::P3, PolicyKind::P4];

    /// Index 0..4 (classifier class id).
    pub fn index(self) -> usize {
        match self {
            PolicyKind::P1 => 0,
            PolicyKind::P2 => 1,
            PolicyKind::P3 => 2,
            PolicyKind::P4 => 3,
        }
    }

    /// Inverse of [`Self::index`].
    pub fn from_index(i: usize) -> PolicyKind {
        PolicyKind::ALL[i]
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.index() + 1)
    }
}

/// The baseline hybrid's op-count thresholds (Section V-B1): switch
/// P1→P2 at `t12`, P2→P3 at `t23`, P3→P4 at `t34` total F-U operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineThresholds {
    /// P1→P2 switch point.
    pub t12: f64,
    /// P2→P3 switch point.
    pub t23: f64,
    /// P3→P4 switch point.
    pub t34: f64,
}

impl Default for BaselineThresholds {
    /// The paper's observed transition points: 2×10⁶, 1.5×10⁷, 9×10¹⁰.
    fn default() -> Self {
        BaselineThresholds { t12: 2.0e6, t23: 1.5e7, t34: 9.0e10 }
    }
}

impl BaselineThresholds {
    /// Fit thresholds from per-policy time curves sampled along an op-count
    /// sweep — the procedure the paper uses on its Figures 10/11 data. Each
    /// sample is `(total_ops, [t_P1..t_P4])`; a threshold is placed where
    /// the best policy changes (first crossing wins; non-monotone tails are
    /// clamped).
    pub fn fit(samples: &[(f64, [f64; 4])]) -> BaselineThresholds {
        let mut t = [f64::INFINITY; 3]; // switch into P2, P3, P4
        let mut reached = 0usize; // highest policy index adopted so far
        for (ops, times) in samples {
            let best = (0..4).min_by(|&a, &b| times[a].total_cmp(&times[b])).unwrap();
            while reached < best {
                t[reached] = t[reached].min(*ops);
                reached += 1;
            }
        }
        // Unreached switches stay at infinity (policy never adopted).
        BaselineThresholds { t12: t[0], t23: t[1], t34: t[2] }
    }

    /// Pick the policy for a call of `total_ops = N_P + N_T + N_S`.
    pub fn choose(&self, total_ops: f64) -> PolicyKind {
        if total_ops < self.t12 {
            PolicyKind::P1
        } else if total_ops < self.t23 {
            PolicyKind::P2
        } else if total_ops < self.t34 {
            PolicyKind::P3
        } else {
            PolicyKind::P4
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for p in PolicyKind::ALL {
            assert_eq!(PolicyKind::from_index(p.index()), p);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(PolicyKind::P1.to_string(), "P1");
        assert_eq!(PolicyKind::P4.to_string(), "P4");
    }

    #[test]
    fn baseline_thresholds_partition_the_axis() {
        let b = BaselineThresholds::default();
        assert_eq!(b.choose(1e5), PolicyKind::P1);
        assert_eq!(b.choose(5e6), PolicyKind::P2);
        assert_eq!(b.choose(1e9), PolicyKind::P3);
        assert_eq!(b.choose(1e11), PolicyKind::P4);
        // Boundaries are half-open.
        assert_eq!(b.choose(2e6), PolicyKind::P2);
    }
}
