//! Error types for cache and placement configuration.

use std::error::Error;
use std::fmt;

/// Error produced while validating a cache or placement configuration.
///
/// ```
/// use randmod_core::{CacheGeometry, ConfigError};
///
/// let err = CacheGeometry::new(100, 4, 32).unwrap_err();
/// assert!(matches!(err, ConfigError::NotPowerOfTwo { .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A parameter that must be a power of two is not.
    NotPowerOfTwo {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// The value that was provided.
        value: u64,
    },
    /// A parameter that must be non-zero is zero.
    Zero {
        /// Name of the offending parameter.
        parameter: &'static str,
    },
    /// A parameter exceeds the supported range.
    OutOfRange {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// The value that was provided.
        value: u64,
        /// The maximum supported value.
        max: u64,
    },
    /// Two parameters are mutually inconsistent.
    Inconsistent {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo { parameter, value } => {
                write!(f, "{parameter} must be a power of two, got {value}")
            }
            ConfigError::Zero { parameter } => write!(f, "{parameter} must be non-zero"),
            ConfigError::OutOfRange {
                parameter,
                value,
                max,
            } => write!(
                f,
                "{parameter} is {value}, which exceeds the maximum of {max}"
            ),
            ConfigError::Inconsistent { reason } => {
                write!(f, "inconsistent configuration: {reason}")
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_not_power_of_two() {
        let err = ConfigError::NotPowerOfTwo {
            parameter: "sets",
            value: 100,
        };
        assert_eq!(err.to_string(), "sets must be a power of two, got 100");
    }

    #[test]
    fn display_zero() {
        let err = ConfigError::Zero { parameter: "ways" };
        assert_eq!(err.to_string(), "ways must be non-zero");
    }

    #[test]
    fn display_out_of_range() {
        let err = ConfigError::OutOfRange {
            parameter: "index bits",
            value: 40,
            max: 32,
        };
        assert_eq!(
            err.to_string(),
            "index bits is 40, which exceeds the maximum of 32"
        );
    }

    #[test]
    fn display_inconsistent() {
        let err = ConfigError::Inconsistent {
            reason: "line size larger than way size".to_string(),
        };
        assert!(err.to_string().contains("line size larger than way size"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConfigError>();
    }
}
