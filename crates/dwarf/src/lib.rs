//! # pico-dwarf — DWARF-lite debug info and `dwarf-extract-struct`
//!
//! The paper (§3.2) avoids manually porting Linux driver headers to the
//! LWK by extracting structure layouts from the DWARF debugging
//! information shipped in the vendor module binary. This crate implements
//! that pipeline end to end:
//!
//! * [`die`] — an arena-backed DIE tree with real DWARF tag/attribute
//!   numbers and builders for the type shapes drivers use;
//! * [`encode`](mod@encode) — binary `.debug_abbrev` / `.debug_info` sections
//!   (DWARF 4, 32-bit format) with an abbreviation table, plus a decoder;
//! * [`extract`] — the `dwarf-extract-struct` tool: walks the encoded
//!   sections, finds `DW_TAG_structure_type` / `DW_TAG_member` entries,
//!   resolves `DW_AT_data_member_location` and `DW_AT_type`, and emits
//!   both a Listing 1 style padded C header and runtime [`FieldRef`]
//!   accessors over raw structure bytes.

#![warn(missing_docs)]

pub mod die;
pub mod encode;
pub mod extract;
pub mod leb128;

pub use die::{Attr, AttrValue, Die, DieId, Dwarf, Tag};
pub use encode::{decode, encode, DecodeError, ModuleBinary};
pub use extract::{extract_struct, ExtractError, ExtractedField, ExtractedStruct, FieldRef};
