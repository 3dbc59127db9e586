//! The error type of the experiment pipeline.
//!
//! Experiments fail in three ways: an invalid platform configuration, a
//! campaign-layer failure (which, for campaigns run under `--store`,
//! includes store IO, corruption and fingerprint mismatches), or
//! filesystem trouble around the store directory itself.  All of them
//! carry enough context to print a diagnosable one-line message; the
//! binaries render them via `Display` and exit nonzero instead of
//! unwinding with a backtrace.

use randmod_core::ConfigError;
use randmod_sim::checkpoint::CheckpointError;
use randmod_sim::CampaignError;
use std::fmt;

/// Any failure of an experiment's measurement or IO path.
#[derive(Debug)]
pub enum ExperimentError {
    /// The platform configuration failed validation.
    Config(ConfigError),
    /// The campaign failed — for stored campaigns this covers store IO
    /// errors, corruption and cross-campaign mismatches.
    Campaign(CampaignError),
    /// A filesystem operation outside the campaign itself failed (e.g.
    /// creating the store directory).
    Io {
        /// The path the operation targeted.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Config(err) => write!(f, "{err}"),
            ExperimentError::Campaign(err) => write!(f, "{err}"),
            ExperimentError::Io { path, source } => write!(f, "{path}: {source}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Config(err) => Some(err),
            ExperimentError::Campaign(err) => Some(err),
            ExperimentError::Io { source, .. } => Some(source),
        }
    }
}

impl From<ConfigError> for ExperimentError {
    fn from(err: ConfigError) -> Self {
        ExperimentError::Config(err)
    }
}

impl From<CampaignError> for ExperimentError {
    fn from(err: CampaignError) -> Self {
        ExperimentError::Campaign(err)
    }
}

impl From<CheckpointError> for ExperimentError {
    fn from(err: CheckpointError) -> Self {
        ExperimentError::Campaign(CampaignError::Checkpoint(err))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources_are_contextual() {
        let config: ExperimentError = ConfigError::Zero { parameter: "ways" }.into();
        assert!(config.to_string().contains("ways"));
        assert!(std::error::Error::source(&config).is_some());

        let checkpoint: ExperimentError = CheckpointError::Corrupt {
            location: "/tmp/x.ckpt".into(),
            detail: "bad magic".into(),
        }
        .into();
        assert!(checkpoint.to_string().contains("/tmp/x.ckpt"), "{checkpoint}");
        assert!(checkpoint.to_string().contains("bad magic"), "{checkpoint}");

        let io = ExperimentError::Io {
            path: "/nonexistent/dir".into(),
            source: std::io::Error::other("denied"),
        };
        assert!(io.to_string().contains("/nonexistent/dir"), "{io}");
        assert!(io.to_string().contains("denied"), "{io}");
        assert!(std::error::Error::source(&io).is_some());
    }
}
