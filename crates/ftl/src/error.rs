//! FTL-level errors.

use core::fmt;
use std::error::Error;

use zssd_flash::FlashOpError;
use zssd_types::{AddressError, ConfigError};

/// Anything that can go wrong constructing or driving an [`Ssd`].
///
/// [`Ssd`]: crate::Ssd
#[derive(Debug)]
pub enum SsdError {
    /// The configuration was inconsistent (e.g. logical capacity does
    /// not fit into physical capacity minus over-provisioning).
    Config(ConfigError),
    /// A flash command was illegal — indicates an FTL bookkeeping bug.
    Flash(FlashOpError),
    /// A host request addressed a page outside the logical capacity.
    Address(AddressError),
    /// GC could not reclaim space: every candidate block in the plane
    /// is fully valid. The drive is over-committed (raise
    /// over-provisioning or lower the logical footprint).
    OutOfSpace {
        /// The plane that ran dry.
        plane: u64,
    },
}

impl fmt::Display for SsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsdError::Config(e) => write!(f, "{e}"),
            SsdError::Flash(e) => write!(f, "flash: {e}"),
            SsdError::Address(e) => write!(f, "{e}"),
            SsdError::OutOfSpace { plane } => {
                write!(
                    f,
                    "plane {plane} has no reclaimable blocks (over-committed drive)"
                )
            }
        }
    }
}

impl Error for SsdError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SsdError::Config(e) => Some(e),
            SsdError::Flash(e) => Some(e),
            SsdError::Address(e) => Some(e),
            SsdError::OutOfSpace { .. } => None,
        }
    }
}

impl From<ConfigError> for SsdError {
    fn from(e: ConfigError) -> Self {
        SsdError::Config(e)
    }
}

impl From<FlashOpError> for SsdError {
    fn from(e: FlashOpError) -> Self {
        SsdError::Flash(e)
    }
}

impl From<AddressError> for SsdError {
    fn from(e: AddressError) -> Self {
        SsdError::Address(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = SsdError::from(ConfigError::new("bad"));
        assert!(e.to_string().contains("bad"));
        assert!(e.source().is_some());
        let e = SsdError::OutOfSpace { plane: 3 };
        assert!(e.to_string().contains("plane 3"));
        assert!(e.source().is_none());
    }

    #[test]
    fn conversions_exist() {
        fn takes(_: SsdError) {}
        takes(AddressError::out_of_range("lpn", 1, 1).into());
        takes(
            FlashOpError::ProgramFailed {
                ppn: zssd_types::Ppn::new(0),
            }
            .into(),
        );
    }
}
