// Read side of the round-level trace: parses both encodings — the JSONL
// line shapes (DESIGN.md §10.2) and the GTB binary records (§10.6,
// common/trace_format.hpp) — back into TraceEvent, the record the schema
// in common/trace_schema.hpp declares. TraceReader sniffs the format from
// the first bytes of the stream, so every consumer (glap-trace
// check/lineage/episodes/stats/convert, the trace tests) works on either
// file unchanged.
//
// The parser accepts every schema line including the reserved "fault"
// kind. Parsing is tolerant in exactly two directions: unknown object
// keys are ignored (forward compatibility), and a file cut mid-record —
// a crashed run, a signal-context flight dump — yields the parsed prefix
// followed by one kTruncated status instead of a hard error. Anything
// else malformed (not a JSON object, unknown "ev" or wire code, a name
// or code its name table does not list — empty names included — or a
// missing schema field, corrupt length prefix) is a reported error that
// names the offending field — never a crash and never a silently
// skipped event.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "common/trace_schema.hpp"

namespace glap::trace {

/// Parses one line. On failure returns false and, when `error` is
/// non-null, stores a one-line description of what was malformed.
[[nodiscard]] bool parse_trace_line(std::string_view line, TraceEvent* out,
                                    std::string* error = nullptr);

/// Decodes one GTB record payload (the bytes after the u32 length
/// prefix). Rejects short payloads, trailing bytes, and unknown codes.
[[nodiscard]] bool decode_gtb_payload(std::string_view payload,
                                      TraceEvent* out, std::string* error);

/// Streaming reader over an externally owned istream; the encoding is
/// detected on the first next() call (a GTB file opens with the 'GTB0'
/// magic, a JSONL file with '{'). Blank JSONL lines are skipped;
/// everything else must parse. line_number() reports the 1-based
/// position of the line (JSONL) or record (GTB) the last next()
/// consumed, so error messages and invariant violations can point at
/// the offending bytes.
///
/// A stream that ends mid-record returns kTruncated exactly once (with a
/// diagnostic in `error`), then kEof; callers that analyze crash
/// artifacts treat it as end-of-data, callers that demand intact files
/// treat it as an error.
class TraceReader {
 public:
  explicit TraceReader(std::istream& in) : in_(in) {}

  enum class Status : std::uint8_t { kEvent, kEof, kTruncated, kError };

  Status next(TraceEvent* out, std::string* error = nullptr);

  [[nodiscard]] std::size_t line_number() const noexcept { return line_no_; }

  /// True when the detected encoding is GTB; meaningful only after the
  /// first next() call.
  [[nodiscard]] bool binary() const noexcept {
    return source_ == Source::kGtb;
  }

 private:
  enum class Source : std::uint8_t { kUnknown, kJsonl, kGtb };

  Status detect(std::string* error);
  Status next_jsonl(TraceEvent* out, std::string* error);
  Status next_gtb(TraceEvent* out, std::string* error);

  std::istream& in_;
  Source source_ = Source::kUnknown;
  std::size_t line_no_ = 0;
  std::string line_;
};

}  // namespace glap::trace
