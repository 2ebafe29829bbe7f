//! Text data-interchange formats with work accounting.
//!
//! The heart of the paper is the observation that turning ASCII text (CSV,
//! TXT, edge lists, matrix dumps) into binary application objects is
//! expensive, low-IPC work. This crate implements that work *for real* —
//! byte-exact tokenizing, integer and float conversion, streaming parsing
//! with chunk-boundary carry — and simultaneously *accounts* it
//! ([`ParseWork`]) so the host CPU model and the SSD's embedded-core model
//! can both price exactly the same parse with their own cost tables
//! ([`CostModel`]).
//!
//! The same parser code runs in the conventional (host) path and inside
//! StorageApps (device path); the produced [`ParsedColumns`] are
//! bit-identical, which the cross-mode equivalence tests rely on.
//!
//! # Example
//!
//! ```
//! use morpheus_format::{FieldKind, Schema, StreamingParser};
//!
//! // An edge list: two u32 columns per record.
//! let schema = Schema::new(vec![FieldKind::U32, FieldKind::U32]);
//! let mut parser = StreamingParser::new(schema);
//! parser.feed(b"0 1\n1 2\n2 ").unwrap(); // chunk ends mid-record
//! parser.feed(b"0\n").unwrap();
//! let parsed = parser.finish().unwrap();
//! assert_eq!(parsed.records, 3);
//! assert_eq!(parsed.columns[0].as_ints().unwrap(), &[0, 1, 2]);
//! ```

#![warn(missing_docs)]

mod binfmt;
mod error;
mod printer;
mod scanner;
mod schema;
mod stream;
mod work;

pub use binfmt::{encode_binary, parse_binary, Endianness, InputFormat};
pub use error::{ParseError, ParseErrorKind};
pub use printer::{SerializeWork, TextWriter};
pub use scanner::TextScanner;
pub use schema::{parse_buffer, Column, FieldKind, ObjectDigest, ParsedColumns, Schema};
pub use stream::{parse_chunked, StreamingParser};
pub use work::{CostModel, ParseWork};
