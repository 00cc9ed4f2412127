//! Translation strategies: YSmart and the systems the paper compares.

/// Which rule set and execution style the translator applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Strategy {
    /// One-operation-to-one-job, with Hive's map-side hash aggregation
    /// (footnote 2). The baseline the paper measures throughout §VII.
    Hive,
    /// One-operation-to-one-job without a combiner and with bulkier
    /// intermediate serialisation — the observed Pig behaviour (slower than
    /// Hive; ran out of intermediate disk on Q-CSA).
    Pig,
    /// YSmart with only input/transit correlation (Rule 1) — the
    /// "no job flow correlation" configuration of Fig. 9, where merged
    /// operations still write their own outputs to HDFS.
    YSmartNoJfc,
    /// Full YSmart: Rules 1–4.
    YSmart,
    /// The paper's hand-optimised programs: YSmart's merged jobs plus
    /// reduce-side short-circuiting (§VII-C case 4).
    HandCoded,
}

impl Strategy {
    /// The option set this strategy expands to.
    #[must_use]
    pub fn options(self) -> TranslateOptions {
        match self {
            Strategy::Hive => TranslateOptions {
                merge_ic_tc: false,
                merge_jfc: false,
                shared_scan: false,
                combiner: true,
                short_circuit: false,
                value_pad_bytes: 0,
            },
            Strategy::Pig => TranslateOptions {
                merge_ic_tc: false,
                merge_jfc: false,
                shared_scan: false,
                combiner: false,
                short_circuit: false,
                value_pad_bytes: 24,
            },
            Strategy::YSmartNoJfc => TranslateOptions {
                merge_ic_tc: true,
                merge_jfc: false,
                shared_scan: true,
                combiner: true,
                short_circuit: false,
                value_pad_bytes: 0,
            },
            Strategy::YSmart => TranslateOptions {
                merge_ic_tc: true,
                merge_jfc: true,
                shared_scan: true,
                combiner: true,
                short_circuit: false,
                value_pad_bytes: 0,
            },
            Strategy::HandCoded => TranslateOptions {
                merge_ic_tc: true,
                merge_jfc: true,
                shared_scan: true,
                combiner: true,
                short_circuit: true,
                value_pad_bytes: 0,
            },
        }
    }

    /// All strategies, for sweeps.
    #[must_use]
    pub fn all() -> [Strategy; 5] {
        [
            Strategy::Hive,
            Strategy::Pig,
            Strategy::YSmartNoJfc,
            Strategy::YSmart,
            Strategy::HandCoded,
        ]
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Strategy::Hive => "hive",
            Strategy::Pig => "pig",
            Strategy::YSmartNoJfc => "ysmart-no-jfc",
            Strategy::YSmart => "ysmart",
            Strategy::HandCoded => "hand-coded",
        };
        f.write_str(s)
    }
}

/// Fine-grained translation switches (derived from [`Strategy`], or set
/// directly for ablation benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslateOptions {
    /// Apply Rule 1: merge jobs with input + transit correlation.
    pub merge_ic_tc: bool,
    /// Apply Rules 2–4: evaluate JFC parents in the child job's reduce.
    pub merge_jfc: bool,
    /// Share one table scan among branches on the same input (self-join
    /// single-scan optimisation of §V-A and the IC sharing of Rule 1).
    pub shared_scan: bool,
    /// Enable the map-side combiner on eligible aggregation jobs.
    pub combiner: bool,
    /// Skip keys whose required join streams are empty (§VII-C case 4).
    pub short_circuit: bool,
    /// Pad map-output values by this many bytes (Pig serialisation bloat).
    pub value_pad_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_systems() {
        assert!(Strategy::Hive.options().combiner);
        assert!(!Strategy::Hive.options().merge_ic_tc);
        assert!(!Strategy::Pig.options().combiner);
        assert!(Strategy::Pig.options().value_pad_bytes > 0);
        assert!(Strategy::YSmartNoJfc.options().merge_ic_tc);
        assert!(!Strategy::YSmartNoJfc.options().merge_jfc);
        assert!(Strategy::YSmart.options().merge_jfc);
        assert!(Strategy::HandCoded.options().short_circuit);
        assert_eq!(Strategy::all().len(), 5);
    }

    #[test]
    fn display_names() {
        assert_eq!(Strategy::YSmart.to_string(), "ysmart");
        assert_eq!(Strategy::HandCoded.to_string(), "hand-coded");
    }
}
