//! Strategy taxonomy shared by the simulator and the experiment harness.

use std::fmt;
use std::str::FromStr;

/// The five strategies compared in the paper's evaluation, plus the
/// elastic extension (ROADMAP item 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Subtree delegation fixed at the initial partition (§3.1.1).
    StaticSubtree,
    /// Subtree delegation rebalanced at runtime — the paper's contribution
    /// (§4).
    DynamicSubtree,
    /// Hash of the containing directory's path (§3.1.2).
    DirHash,
    /// Hash of the full file path (§3.1.2).
    FileHash,
    /// Lazy Hybrid: file-path hashing with dual-entry ACLs (§3.1.3).
    LazyHybrid,
    /// Dynamic subtree partitioning *plus* λFS-style elastic node
    /// add/remove driven by the same heartbeat load signal. Not part of
    /// the paper's evaluation, so deliberately excluded from [`ALL`] —
    /// every figure that sweeps `ALL` keeps its golden output.
    ///
    /// [`ALL`]: StrategyKind::ALL
    ElasticSubtree,
}

impl StrategyKind {
    /// The paper's five strategies, in the order its figures list them.
    /// [`ElasticSubtree`](StrategyKind::ElasticSubtree) is compared
    /// against these in the `elasticity` experiment but is not listed
    /// here (the paper's figures predate it).
    pub const ALL: [StrategyKind; 5] = [
        StrategyKind::StaticSubtree,
        StrategyKind::DynamicSubtree,
        StrategyKind::DirHash,
        StrategyKind::FileHash,
        StrategyKind::LazyHybrid,
    ];

    /// The label used in the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::StaticSubtree => "StaticSubtree",
            StrategyKind::DynamicSubtree => "DynamicSubtree",
            StrategyKind::DirHash => "DirHash",
            StrategyKind::FileHash => "FileHash",
            StrategyKind::LazyHybrid => "LazyHybrid",
            StrategyKind::ElasticSubtree => "ElasticSubtree",
        }
    }

    /// Whether this strategy keeps directory contents together and can use
    /// the embedded-inode directory-object layout (§4.5, §5.3); file-level
    /// hashing scatters siblings and must use a per-inode table.
    pub fn embeds_inodes(self) -> bool {
        match self {
            StrategyKind::StaticSubtree
            | StrategyKind::DynamicSubtree
            | StrategyKind::DirHash
            | StrategyKind::ElasticSubtree => true,
            StrategyKind::FileHash | StrategyKind::LazyHybrid => false,
        }
    }

    /// Whether serving a request requires traversing the prefix directories
    /// (Lazy Hybrid embeds effective ACLs precisely to skip this).
    pub fn needs_path_traversal(self) -> bool {
        !matches!(self, StrategyKind::LazyHybrid)
    }

    /// Whether the placement follows the hierarchy (subtree strategies) as
    /// opposed to scattering it by hash.
    pub fn is_subtree(self) -> bool {
        matches!(
            self,
            StrategyKind::StaticSubtree
                | StrategyKind::DynamicSubtree
                | StrategyKind::ElasticSubtree
        )
    }

    /// Whether the runtime load balancer is active. Elasticity builds on
    /// the balancer: migration is how departing nodes hand work off and
    /// how arriving nodes pick it up.
    pub fn rebalances(self) -> bool {
        matches!(self, StrategyKind::DynamicSubtree | StrategyKind::ElasticSubtree)
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The one string → strategy parser: every [`label`](StrategyKind::label)
/// and the short aliases `static|dynamic|dirhash|filehash|lazyhybrid|elastic`,
/// all case-insensitive. `all` is not a strategy; callers that sweep
/// handle it themselves.
impl FromStr for StrategyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        const ALIASES: [(&str, StrategyKind); 6] = [
            ("static", StrategyKind::StaticSubtree),
            ("dynamic", StrategyKind::DynamicSubtree),
            ("dirhash", StrategyKind::DirHash),
            ("filehash", StrategyKind::FileHash),
            ("lazyhybrid", StrategyKind::LazyHybrid),
            ("elastic", StrategyKind::ElasticSubtree),
        ];
        ALIASES
            .into_iter()
            .find(|(alias, k)| s.eq_ignore_ascii_case(alias) || s.eq_ignore_ascii_case(k.label()))
            .map(|(_, k)| k)
            .ok_or_else(|| format!("unknown strategy `{s}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_each_once() {
        assert_eq!(StrategyKind::ALL.len(), 5);
        let labels: Vec<&str> = StrategyKind::ALL.iter().map(|k| k.label()).collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels, dedup);
    }

    #[test]
    fn layout_split_matches_paper() {
        // §5.3: "the subtree and directory hashing partitioning strategies
        // exploit the presence of locality … by embedding inodes".
        assert!(StrategyKind::StaticSubtree.embeds_inodes());
        assert!(StrategyKind::DynamicSubtree.embeds_inodes());
        assert!(StrategyKind::DirHash.embeds_inodes());
        assert!(!StrategyKind::FileHash.embeds_inodes());
        assert!(!StrategyKind::LazyHybrid.embeds_inodes());
    }

    #[test]
    fn traversal_split_matches_paper() {
        for k in StrategyKind::ALL {
            assert_eq!(k.needs_path_traversal(), k != StrategyKind::LazyHybrid);
        }
    }

    #[test]
    fn only_dynamic_rebalances() {
        for k in StrategyKind::ALL {
            assert_eq!(k.rebalances(), k == StrategyKind::DynamicSubtree);
        }
    }

    #[test]
    fn elastic_is_a_rebalancing_subtree_strategy_outside_all() {
        let e = StrategyKind::ElasticSubtree;
        assert!(!StrategyKind::ALL.contains(&e), "paper figures stay five-way");
        assert!(e.is_subtree() && e.rebalances() && e.embeds_inodes());
        assert!(e.needs_path_traversal());
        assert_eq!(e.to_string(), "ElasticSubtree");
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(StrategyKind::DynamicSubtree.to_string(), "DynamicSubtree");
    }

    #[test]
    fn parses_labels_and_aliases_in_any_case() {
        for k in StrategyKind::ALL.into_iter().chain([StrategyKind::ElasticSubtree]) {
            assert_eq!(k.label().parse(), Ok(k));
            assert_eq!(k.label().to_ascii_lowercase().parse(), Ok(k));
        }
        assert_eq!("dynamic".parse(), Ok(StrategyKind::DynamicSubtree));
        assert_eq!("Elastic".parse(), Ok(StrategyKind::ElasticSubtree));
        assert!("all".parse::<StrategyKind>().is_err(), "`all` is a caller-level word");
        assert!("Bogus".parse::<StrategyKind>().is_err());
    }
}
