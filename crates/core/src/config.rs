//! Configuration for the ALEX engine, mirroring the paper's parameters and
//! default settings (§7.1 "Default Settings").

use serde::{Deserialize, Serialize};

use alex_query::FederationConfig;
use alex_sim::SimConfig;
use alex_store::{SyncPolicy, WalOptions};

/// Durability configuration (see [`crate::durability`]): whether sessions
/// keep a write-ahead log, how eagerly it reaches the disk platter, when
/// segments rotate, and when compaction folds the log into a checkpoint.
/// Off by default — configs written before durability existed load
/// unchanged and behave exactly as they did.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct DurabilityConfig {
    /// Whether mutations are logged to a per-session WAL at all.
    pub wal: bool,
    /// Fsync policy: `always` (sync every append batch), `every_n` (sync
    /// after every `fsync_every_n` batches), or `os` (leave flushing to
    /// the operating system's page cache).
    pub fsync: String,
    /// Batch interval for the `every_n` policy; ignored otherwise.
    pub fsync_every_n: u32,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Fold the WAL into a fresh checkpoint after this many records have
    /// accumulated since the last one (`0` disables compaction).
    pub compact_after_records: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            wal: false,
            fsync: "always".into(),
            fsync_every_n: 8,
            segment_bytes: 1 << 20,
            compact_after_records: 4096,
        }
    }
}

impl DurabilityConfig {
    /// Converts to runtime [`WalOptions`], validating the policy string.
    pub fn to_options(&self) -> Result<WalOptions, String> {
        let sync = match self.fsync.as_str() {
            "always" => SyncPolicy::Always,
            "every_n" => {
                if self.fsync_every_n == 0 {
                    return Err("durability fsync_every_n must be positive".into());
                }
                SyncPolicy::EveryN(self.fsync_every_n)
            }
            "os" => SyncPolicy::Os,
            other => {
                return Err(format!(
                    "durability fsync must be `always`, `every_n`, or `os`, got `{other}`"
                ))
            }
        };
        if self.segment_bytes < 4096 {
            return Err(format!(
                "durability segment_bytes must be at least 4096, got {}",
                self.segment_bytes
            ));
        }
        Ok(WalOptions {
            sync,
            segment_bytes: self.segment_bytes,
        })
    }

    /// Validates without building options.
    pub fn validate(&self) -> Result<(), String> {
        self.to_options().map(|_| ())
    }
}

/// All tuning knobs of ALEX. Defaults are the paper's defaults.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct AlexConfig {
    /// Feature-value threshold θ (§6.1): similarity scores below θ are
    /// zeroed, and feature sets with no surviving feature are dropped from
    /// the search space. Paper default: 0.3.
    pub theta: f64,
    /// Step size (§4.2): an action explores links whose chosen feature
    /// score lies within `±step_size` of the approved link's score.
    /// Paper default: 0.05.
    pub step_size: f64,
    /// Feedback items per episode (§4.4). Paper default: 1000 (batch
    /// mode); 10 in the specific-domain setting.
    pub episode_size: usize,
    /// Exploration probability ε of the ε-greedy policy (§4.4.1).
    pub epsilon: f64,
    /// Reward for an approved link (§4.3).
    pub positive_reward: f64,
    /// Reward for a rejected link; may penalize harder than the positive
    /// reward (§4.3).
    pub negative_reward: f64,
    /// Hard cap on policy-evaluation/improvement iterations (§7.3 uses
    /// 100 as "the maximum number of iterations allowed by ALEX").
    pub max_episodes: usize,
    /// Relaxed convergence: stop when fewer than this fraction of links
    /// changed between episodes (paper: 5%). Strict convergence (no change
    /// at all) always also stops the run.
    pub relaxed_convergence: f64,
    /// Whether the relaxed rule terminates the run (`false` reproduces the
    /// paper's figures, which run to strict convergence but *report* the
    /// relaxed episode).
    pub stop_at_relaxed: bool,
    /// Enable the blacklist optimization (§6.3).
    pub blacklist: bool,
    /// Cumulative negative feedback items on a link before it is
    /// permanently blacklisted. 1 reproduces the paper's batch setting
    /// ("when a user provides negative feedback on a link she should not
    /// need to provide this feedback again", §7.3); 2+ tolerates incorrect
    /// feedback by requiring corroboration — positive feedback resets the
    /// count, realizing the paper's "rolled-back if future feedback
    /// contradicts the incorrect feedback" recovery (§6.3, Appendix C).
    pub blacklist_threshold: usize,
    /// Enable the rollback optimization (§6.3).
    pub rollback: bool,
    /// Number of negative feedback items on links generated by one
    /// state-action pair before that pair's links are rolled back.
    pub rollback_threshold: usize,
    /// Number of equal-size partitions (§6.2). Paper default: 27.
    pub partitions: usize,
    /// Similarity configuration used when building feature sets:
    /// `{"numeric": "half_life" | "ratio"}`. Configs without it load the
    /// default.
    pub sim: SimConfig,
    /// Worker threads for exploration-space construction and for running
    /// the partitions of each feedback episode (`0` = auto: honor
    /// `ALEX_THREADS`, else use available parallelism). Any value is
    /// overridden by a set `ALEX_THREADS` environment variable; results
    /// are bit-identical at every thread count (see [`crate::parallel`]).
    pub threads: usize,
    /// Seed for all stochastic choices; same seed ⇒ same run.
    pub seed: u64,
    /// Resilience knobs for federated query execution: per-source budgets,
    /// retries with backoff, and the circuit breaker. Flawless in-memory
    /// sources never trigger any of them, so the defaults are free.
    pub federation: FederationConfig,
    /// Durability configuration (off by default; when enabled, sessions
    /// log every mutation to a write-ahead log before acknowledging it).
    pub durability: DurabilityConfig,
}

impl Default for AlexConfig {
    fn default() -> Self {
        Self {
            theta: 0.3,
            step_size: 0.05,
            episode_size: 1000,
            epsilon: 0.1,
            positive_reward: 1.0,
            negative_reward: -1.0,
            max_episodes: 100,
            relaxed_convergence: 0.05,
            stop_at_relaxed: false,
            blacklist: true,
            blacklist_threshold: 1,
            rollback: true,
            rollback_threshold: 5,
            partitions: 27,
            sim: SimConfig::default(),
            threads: 0,
            seed: 0x5EED_A1EC,
            federation: FederationConfig::default(),
            durability: DurabilityConfig::default(),
        }
    }
}

impl AlexConfig {
    /// Validates invariants, returning a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.theta) {
            return Err(format!("theta must be in [0,1], got {}", self.theta));
        }
        if !(0.0..=1.0).contains(&self.step_size) || self.step_size <= 0.0 {
            return Err(format!(
                "step_size must be in (0,1], got {}",
                self.step_size
            ));
        }
        if !(0.0..1.0).contains(&self.epsilon) {
            return Err(format!("epsilon must be in [0,1), got {}", self.epsilon));
        }
        if self.episode_size == 0 {
            return Err("episode_size must be positive".into());
        }
        if self.max_episodes == 0 {
            return Err("max_episodes must be positive".into());
        }
        if self.partitions == 0 {
            return Err("partitions must be positive".into());
        }
        if self.positive_reward <= 0.0 {
            return Err(format!(
                "positive_reward must be > 0, got {}",
                self.positive_reward
            ));
        }
        if self.negative_reward >= 0.0 {
            return Err(format!(
                "negative_reward must be < 0, got {}",
                self.negative_reward
            ));
        }
        if self.rollback && self.rollback_threshold == 0 {
            return Err("rollback_threshold must be positive when rollback is enabled".into());
        }
        if self.blacklist && self.blacklist_threshold == 0 {
            return Err(
                "blacklist_threshold must be positive when the blacklist is enabled".into(),
            );
        }
        self.federation.validate()?;
        self.durability.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AlexConfig::default();
        assert_eq!(c.theta, 0.3);
        assert_eq!(c.step_size, 0.05);
        assert_eq!(c.episode_size, 1000);
        assert_eq!(c.partitions, 27);
        assert_eq!(c.max_episodes, 100);
        assert_eq!(c.relaxed_convergence, 0.05);
        assert!(c.blacklist);
        assert!(c.rollback);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = AlexConfig {
            theta: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = AlexConfig {
            step_size: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = AlexConfig {
            epsilon: 1.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = AlexConfig {
            episode_size: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = AlexConfig {
            partitions: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = AlexConfig {
            negative_reward: 0.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = AlexConfig {
            positive_reward: -0.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = AlexConfig {
            rollback_threshold: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = AlexConfig {
            blacklist_threshold: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = AlexConfig {
            max_episodes: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = AlexConfig {
            federation: FederationConfig {
                backoff_jitter: 2.0,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(c.validate().is_err(), "federation knobs are validated too");
    }

    #[test]
    fn serde_round_trip() {
        let c = AlexConfig {
            episode_size: 10,
            epsilon: 0.2,
            federation: FederationConfig {
                max_retries: 7,
                breaker_threshold: 9,
                ..Default::default()
            },
            ..Default::default()
        };
        let json = serde_json::to_string(&c).unwrap();
        let back: AlexConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.episode_size, 10);
        assert_eq!(back.epsilon, 0.2);
        assert_eq!(back.federation, c.federation);
    }

    #[test]
    fn configs_without_federation_knobs_get_defaults() {
        // Snapshots written before the failure model existed must load.
        let back: AlexConfig = serde_json::from_str(r#"{"episode_size": 42}"#).unwrap();
        assert_eq!(back.episode_size, 42);
        assert_eq!(back.federation, FederationConfig::default());
    }

    #[test]
    fn configs_without_durability_knobs_get_defaults() {
        // Snapshots written before the storage engine existed must load
        // with durability off.
        let back: AlexConfig = serde_json::from_str(r#"{"episode_size": 7}"#).unwrap();
        assert_eq!(back.durability, DurabilityConfig::default());
        assert!(!back.durability.wal);
    }

    #[test]
    fn durability_config_round_trips_and_validates() {
        let c = AlexConfig {
            durability: DurabilityConfig {
                wal: true,
                fsync: "every_n".into(),
                fsync_every_n: 4,
                segment_bytes: 1 << 16,
                compact_after_records: 100,
            },
            ..Default::default()
        };
        assert!(c.validate().is_ok());
        let json = serde_json::to_string(&c).unwrap();
        let back: AlexConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.durability, c.durability);
        let opts = back.durability.to_options().unwrap();
        assert_eq!(opts.sync, SyncPolicy::EveryN(4));
        assert_eq!(opts.segment_bytes, 1 << 16);

        for bad in [
            DurabilityConfig {
                fsync: "sometimes".into(),
                ..Default::default()
            },
            DurabilityConfig {
                fsync: "every_n".into(),
                fsync_every_n: 0,
                ..Default::default()
            },
            DurabilityConfig {
                segment_bytes: 16,
                ..Default::default()
            },
        ] {
            let c = AlexConfig {
                durability: bad,
                ..Default::default()
            };
            assert!(c.validate().is_err());
        }
    }
}
