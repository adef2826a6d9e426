//! The evaluated system configurations (§V "Studied Configurations").

use core::fmt;

/// Which system an experiment runs — the paper's four configurations
/// plus the LRU strawman and the LX-SSD prior-work comparator.
///
/// Pool sizes are in *entries* (values); the paper's default sweep is
/// 100 K–300 K with 200 K as the headline point (~5 MB of RAM).
///
/// # Examples
///
/// ```
/// use zssd_core::SystemKind;
/// let sys = SystemKind::MqDvp { entries: 200_000 };
/// assert!(sys.uses_hashing());
/// assert_eq!(sys.label(), "DVP-200K");
/// assert!(!SystemKind::Baseline.uses_hashing());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Stock FTL: no content awareness at all.
    Baseline,
    /// The paper's proposal: MQ dead-value pool.
    MqDvp {
        /// Pool capacity in entries.
        entries: usize,
    },
    /// The §III-A strawman: single-LRU dead-value pool.
    LruDvp {
        /// Pool capacity in entries.
        entries: usize,
    },
    /// Content deduplication only (CAFTL-style), no recycling.
    Dedup,
    /// Deduplication with the MQ dead-value pool on top (§VII).
    DvpPlusDedup {
        /// Pool capacity in entries.
        entries: usize,
    },
    /// Infinite pool: the upper bound on recycling benefit.
    Ideal,
    /// The prior-work recycler (Zhou et al.).
    LxSsd {
        /// Pool capacity in entries.
        entries: usize,
    },
    /// The MQ pool with the self-sizing controller (the paper's §V
    /// future work, implemented in
    /// [`AdaptiveMqPool`](crate::AdaptiveMqPool)).
    AdaptiveDvp {
        /// Smallest allowed capacity (entries).
        min_entries: usize,
        /// Largest allowed capacity (entries).
        max_entries: usize,
    },
}

impl SystemKind {
    /// Whether the write path computes content hashes (and therefore
    /// pays the 12 µs hash-engine latency of Table I).
    pub fn uses_hashing(self) -> bool {
        !matches!(self, SystemKind::Baseline)
    }

    /// Whether the system deduplicates live values.
    pub fn uses_dedup(self) -> bool {
        matches!(self, SystemKind::Dedup | SystemKind::DvpPlusDedup { .. })
    }

    /// Whether the system recycles garbage pages.
    pub fn uses_pool(self) -> bool {
        !matches!(self, SystemKind::Baseline | SystemKind::Dedup)
    }

    /// Pool capacity in entries, if the system has a *fixed* bounded
    /// pool (`None` for Ideal and the adaptive pool).
    pub fn pool_entries(self) -> Option<usize> {
        match self {
            SystemKind::MqDvp { entries }
            | SystemKind::LruDvp { entries }
            | SystemKind::DvpPlusDedup { entries }
            | SystemKind::LxSsd { entries } => Some(entries),
            _ => None,
        }
    }

    /// A short label for experiment tables ("DVP-200K", "Dedup", ...).
    pub fn label(self) -> String {
        fn k(entries: usize) -> String {
            if entries.is_multiple_of(1000) {
                format!("{}K", entries / 1000)
            } else {
                entries.to_string()
            }
        }
        match self {
            SystemKind::Baseline => "Baseline".to_owned(),
            SystemKind::MqDvp { entries } => format!("DVP-{}", k(entries)),
            SystemKind::LruDvp { entries } => format!("LRU-DVP-{}", k(entries)),
            SystemKind::Dedup => "Dedup".to_owned(),
            SystemKind::DvpPlusDedup { entries } => format!("DVP+Dedup-{}", k(entries)),
            SystemKind::Ideal => "Ideal".to_owned(),
            SystemKind::LxSsd { entries } => format!("LX-SSD-{}", k(entries)),
            SystemKind::AdaptiveDvp {
                min_entries,
                max_entries,
            } => format!("ADVP-{}..{}", k(min_entries), k(max_entries)),
        }
    }
}

impl fmt::Display for SystemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_matrix_matches_paper() {
        assert!(!SystemKind::Baseline.uses_hashing());
        assert!(!SystemKind::Baseline.uses_pool());
        assert!(!SystemKind::Baseline.uses_dedup());

        let dvp = SystemKind::MqDvp { entries: 200_000 };
        assert!(dvp.uses_hashing() && dvp.uses_pool() && !dvp.uses_dedup());

        assert!(SystemKind::Dedup.uses_dedup());
        assert!(!SystemKind::Dedup.uses_pool());

        let combo = SystemKind::DvpPlusDedup { entries: 200_000 };
        assert!(combo.uses_dedup() && combo.uses_pool());

        assert!(SystemKind::Ideal.uses_pool());
        assert_eq!(SystemKind::Ideal.pool_entries(), None);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SystemKind::Baseline.label(), "Baseline");
        assert_eq!(SystemKind::MqDvp { entries: 100_000 }.label(), "DVP-100K");
        assert_eq!(SystemKind::LxSsd { entries: 1234 }.label(), "LX-SSD-1234");
        assert_eq!(
            SystemKind::DvpPlusDedup { entries: 200_000 }.to_string(),
            "DVP+Dedup-200K"
        );
    }

    #[test]
    fn pool_entries_extracted() {
        assert_eq!(SystemKind::LruDvp { entries: 5 }.pool_entries(), Some(5));
        assert_eq!(SystemKind::Baseline.pool_entries(), None);
    }
}
