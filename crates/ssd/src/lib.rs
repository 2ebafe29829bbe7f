//! The baseline NVMe SSD controller (hardware substrate of Morpheus-SSD).
//!
//! Models the commercial drive the paper modified (§IV-B, Fig. 6): an
//! NVMe/PCIe front end, several GB of controller DRAM, a DMA engine,
//! general-purpose **embedded cores** (Tensilica LX-class: in-order,
//! hundreds of MHz, I-SRAM + D-SRAM, *no FPU*) running the firmware and the
//! FTL, and a NAND flash array behind per-channel buses.
//!
//! This crate is the *baseline* device: functional logical-block reads and
//! writes (including read-modify-write for partial pages), with every flash
//! operation charged to per-channel timelines so multi-page transfers
//! stripe and pipeline exactly as the hardware would. The Morpheus firmware
//! extension — StorageApp execution behind the MINIT/MREAD/MWRITE/MDEINIT
//! commands — is layered on top by the `morpheus` core crate, mirroring how
//! the paper extends stock firmware without touching the FTL.
//!
//! # Example
//!
//! ```
//! use morpheus_flash::{FlashGeometry, FlashTiming};
//! use morpheus_simcore::SimTime;
//! use morpheus_ssd::{PageRead, Ssd, SsdConfig};
//!
//! let mut ssd = Ssd::new(SsdConfig::default(), FlashGeometry::small(), FlashTiming::default());
//! ssd.load_at(0, b"hello world").unwrap();
//! // One view per flash page the range covers, sharing the stored bytes.
//! let (pages, done) = ssd.read_range(0, 1, SimTime::ZERO).unwrap();
//! assert_eq!(&pages[0].bytes()[..11], b"hello world");
//! assert_eq!(&PageRead::gather(&pages)[..11], b"hello world");
//! assert!(done > SimTime::ZERO);
//! ```

#![warn(missing_docs)]

mod config;
mod controller;
mod cores;
mod error;

pub use config::SsdConfig;
pub use controller::{BoundaryPages, PageRead, Ssd, SsdStats};
pub use cores::EmbeddedCorePool;
pub use error::SsdError;
pub use morpheus_flash::{copy_audit, PageData};
