//! Flash error types and the bit-error / ECC injection model.

use crate::{BlockId, Ppa};
use std::error::Error;
use std::fmt;

/// Errors returned by the flash array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlashError {
    /// Address does not name a page in the array.
    OutOfRange(Ppa),
    /// Read of a page that was never programmed since its last erase.
    ReadOfFreePage(Ppa),
    /// Read of a page whose contents went stale (overwritten, trimmed or
    /// relocated): the array dropped its payload when it was invalidated.
    ReadOfStalePage(Ppa),
    /// Program of a page that already holds data (NAND is program-once).
    ProgramTwice(Ppa),
    /// Program out of page order within a block (NAND requires sequential
    /// programming).
    ProgramOutOfOrder {
        /// The offending page.
        ppa: Ppa,
        /// The next programmable page index in that block.
        expected_page: u32,
    },
    /// Data larger than the page.
    DataTooLarge {
        /// The offending page.
        ppa: Ppa,
        /// Bytes offered.
        len: usize,
        /// Page capacity.
        page_bytes: u32,
    },
    /// Operation on a block that has been retired.
    BadBlock(BlockId),
    /// Read failed even after ECC and retries (injected).
    Uncorrectable(Ppa),
}

impl fmt::Display for FlashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashError::OutOfRange(p) => write!(f, "physical page {} out of range", p.0),
            FlashError::ReadOfFreePage(p) => write!(f, "read of unprogrammed page {}", p.0),
            FlashError::ReadOfStalePage(p) => write!(f, "read of stale page {}", p.0),
            FlashError::ProgramTwice(p) => write!(f, "program of already-programmed page {}", p.0),
            FlashError::ProgramOutOfOrder { ppa, expected_page } => write!(
                f,
                "out-of-order program of page {} (block expects page index {expected_page})",
                ppa.0
            ),
            FlashError::DataTooLarge {
                ppa,
                len,
                page_bytes,
            } => write!(
                f,
                "data of {len} bytes does not fit page {} ({page_bytes} bytes)",
                ppa.0
            ),
            FlashError::BadBlock(b) => write!(f, "block {} is retired", b.0),
            FlashError::Uncorrectable(p) => write!(f, "uncorrectable read error on page {}", p.0),
        }
    }
}

impl Error for FlashError {}

/// Bit-error injection and ECC behaviour.
///
/// Per page read, with probability `correctable_prob` the page needs ECC
/// correction (costing `correction_retries` extra read latencies), and with
/// probability `uncorrectable_prob` the read fails outright. Blocks are
/// retired once their erase count reaches `wear_limit`.
#[derive(Debug, Clone, Copy)]
pub struct EccModel {
    /// Probability a read requires ECC retry work.
    pub correctable_prob: f64,
    /// Extra read latencies charged for a correctable error.
    pub correction_retries: u32,
    /// Probability a read is uncorrectable.
    pub uncorrectable_prob: f64,
    /// Erase count at which a block is retired as bad.
    pub wear_limit: u64,
}

impl EccModel {
    /// A model that never injects errors and never wears out (default).
    pub fn perfect() -> Self {
        EccModel {
            correctable_prob: 0.0,
            correction_retries: 0,
            uncorrectable_prob: 0.0,
            wear_limit: u64::MAX,
        }
    }
}

impl Default for EccModel {
    fn default() -> Self {
        Self::perfect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let errs: Vec<FlashError> = vec![
            FlashError::OutOfRange(Ppa(1)),
            FlashError::ReadOfFreePage(Ppa(2)),
            FlashError::ReadOfStalePage(Ppa(2)),
            FlashError::ProgramTwice(Ppa(3)),
            FlashError::ProgramOutOfOrder {
                ppa: Ppa(4),
                expected_page: 1,
            },
            FlashError::DataTooLarge {
                ppa: Ppa(5),
                len: 9000,
                page_bytes: 4096,
            },
            FlashError::BadBlock(BlockId(6)),
            FlashError::Uncorrectable(Ppa(7)),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn perfect_model_never_fails() {
        let m = EccModel::perfect();
        assert_eq!(m.correctable_prob, 0.0);
        assert_eq!(m.uncorrectable_prob, 0.0);
        assert_eq!(m.wear_limit, u64::MAX);
    }
}
