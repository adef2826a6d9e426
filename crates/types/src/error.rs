//! Shared error types.

use core::fmt;
use std::error::Error;

/// An address was outside the simulated device's range.
///
/// Returned when a host command names a logical page beyond the
/// drive's logical capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressError {
    kind: &'static str,
    index: u64,
    limit: u64,
}

impl AddressError {
    /// Creates an out-of-range error for an address space named `kind`
    /// (e.g. `"lpn"`, `"ppn"`, `"block"`).
    pub fn out_of_range(kind: &'static str, index: u64, limit: u64) -> Self {
        AddressError { kind, index, limit }
    }

    /// The offending index.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The exclusive upper bound of the address space.
    pub fn limit(&self) -> u64 {
        self.limit
    }
}

impl fmt::Display for AddressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} out of range (limit {})",
            self.kind, self.index, self.limit
        )
    }
}

impl Error for AddressError {}

/// A configuration value was invalid or inconsistent.
///
/// Produced by builders such as `SsdConfig` when, e.g., a geometry
/// dimension is zero or over-provisioning leaves no usable space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    /// Creates a configuration error with a human-readable message.
    pub fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.message)
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_error_reports_fields() {
        let err = AddressError::out_of_range("lpn", 100, 64);
        assert_eq!(err.index(), 100);
        assert_eq!(err.limit(), 64);
        assert_eq!(err.to_string(), "lpn 100 out of range (limit 64)");
    }

    #[test]
    fn config_error_displays_message() {
        let err = ConfigError::new("pages per block must be nonzero");
        assert!(err.to_string().contains("pages per block"));
    }

    #[test]
    fn errors_are_std_errors_and_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<AddressError>();
        assert_err::<ConfigError>();
    }
}
