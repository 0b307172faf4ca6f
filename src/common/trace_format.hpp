// Write side of the two trace encodings (DESIGN.md §10): the JSONL text
// format and GTB, the compact length-prefixed binary format. Both are
// pure functions of a TraceEvent driven by the schema in
// common/trace_schema.hpp, so TraceLog, the flight recorder and
// `glap-trace convert` produce byte-identical artifacts for the same
// event stream.
//
// GTB wire format (version 1, all integers little-endian):
//
//   header   'G' 'T' 'B' '0'  u32 version
//   record   u32 payload_len  payload
//   payload  u8 kind (EventKind code)  u64 round  [u8 op, net only]
//            then the shape's fields in GLAP_TRACE_SHAPES order:
//            i64/u64/f64 take 8 bytes (f64 as its IEEE-754 bit pattern,
//            so doubles survive bit-exactly), bools and name-table codes
//            one byte.
#pragma once

#include <cstdint>
#include <string>

#include "common/trace_schema.hpp"

namespace glap::trace {

// ---- JSONL --------------------------------------------------------------

/// Appends the §10.2 JSONL line (including trailing '\n') for `e`:
/// integers in shortest decimal form, doubles via json_double, codes as
/// their quoted names. `e` must carry valid codes (append_gtb_record
/// checks them); an invalid one renders as "".
void render_jsonl(const TraceEvent& e, std::string* out);

// ---- GTB ----------------------------------------------------------------

inline constexpr char kGtbMagic[4] = {'G', 'T', 'B', '0'};
inline constexpr std::uint32_t kGtbVersion = 1;
inline constexpr std::size_t kGtbHeaderBytes = 8;
/// Upper bound on one record's payload; anything larger is a corrupt
/// length prefix, not a real record (every schema record is well under
/// 100 bytes).
inline constexpr std::uint32_t kGtbMaxRecordBytes = 1u << 16;

/// Appends the 8-byte versioned file header.
void append_gtb_header(std::string* out);

/// Appends one length-prefixed record. Returns false, appending nothing
/// and leaving a diagnostic in `error`, when `e` matches no schema shape
/// or carries a code its name table does not name.
[[nodiscard]] bool append_gtb_record(const TraceEvent& e, std::string* out,
                                     std::string* error = nullptr);

}  // namespace glap::trace
