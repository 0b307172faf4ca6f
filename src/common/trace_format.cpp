#include "common/trace_format.hpp"

#include <charconv>
#include <cstring>

#include "common/json.hpp"

namespace glap::trace {

namespace {

// ---- JSONL field writers, one per schema field type ----------------------

void render(std::string* out, field::I64, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out->append(buf, res.ptr);
}

void render(std::string* out, field::U64, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out->append(buf, res.ptr);
}

void render(std::string* out, field::F64, double v) { *out += json_double(v); }

void render(std::string* out, field::Flag, bool v) {
  *out += v ? "true" : "false";
}

template <const NameTable& Table>
void render(std::string* out, field::Code<Table>, std::uint8_t v) {
  *out += '"';
  *out += code_name(Table, v);
  *out += '"';
}

// ---- GTB field writers (explicit little-endian byte order) --------------

void put_u32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void put_u64(std::string* out, std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i)
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xffu);
  out->append(bytes, sizeof bytes);
}

/// Each returns false only for a code its table does not name.
bool put(std::string* out, field::I64, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
  return true;
}

bool put(std::string* out, field::U64, std::uint64_t v) {
  put_u64(out, v);
  return true;
}

bool put(std::string* out, field::F64, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
  return true;
}

bool put(std::string* out, field::Flag, bool v) {
  out->push_back(v ? 1 : 0);
  return true;
}

template <const NameTable& Table>
bool put(std::string* out, field::Code<Table>, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
  return !code_name(Table, v).empty();
}

}  // namespace

// ---- JSONL --------------------------------------------------------------

void render_jsonl(const TraceEvent& e, std::string* out) {
  *out += "{\"ev\":\"";
  *out += event_kind_name(e.kind);
  *out += "\",\"round\":";
  render(out, field::U64{}, e.round);
  if (e.kind == EventKind::kNet) {
    *out += ",\"op\":";
    render(out, field::Code<kNetOps>{}, static_cast<std::uint8_t>(e.op));
  }
  visit_payload(e, [out](const auto& payload) {
    for_each_field(payload, [out](std::string_view key, auto type,
                                  const auto& value) {
      *out += ",\"";
      *out += key;
      *out += "\":";
      render(out, type, value);
    });
  });
  *out += "}\n";
}

// ---- GTB ----------------------------------------------------------------

void append_gtb_header(std::string* out) {
  out->append(kGtbMagic, sizeof kGtbMagic);
  put_u32(out, kGtbVersion);
}

bool append_gtb_record(const TraceEvent& e, std::string* out,
                       std::string* error) {
  const std::size_t len_at = out->size();
  put_u32(out, 0);  // length backpatched below
  const std::size_t payload_at = out->size();
  out->push_back(static_cast<char>(e.kind));
  put_u64(out, e.round);
  if (e.kind == EventKind::kNet) out->push_back(static_cast<char>(e.op));
  std::string_view bad_field;
  const bool shaped = visit_payload(e, [&](const auto& payload) {
    for_each_field(payload, [&](std::string_view key, auto type,
                                const auto& value) {
      if (!put(out, type, value) && bad_field.empty()) bad_field = key;
    });
  });
  if (!shaped || !bad_field.empty()) {
    out->resize(len_at);
    if (error != nullptr && error->empty())
      *error = !shaped ? "event matches no trace schema shape"
                       : "field '" + std::string(bad_field) +
                             "' carries a code with no name";
    return false;
  }
  const auto len = static_cast<std::uint32_t>(out->size() - payload_at);
  for (int i = 0; i < 4; ++i)
    (*out)[len_at + static_cast<std::size_t>(i)] =
        static_cast<char>((len >> (8 * i)) & 0xffu);
  return true;
}

}  // namespace glap::trace
