#include "common/tracing.hpp"

#include <ostream>

#include "common/assert.hpp"
#include "common/flight_recorder.hpp"
#include "common/trace_format.hpp"

namespace glap::trace {

namespace {

void encode(const TraceEvent& e, std::string* out) {
  std::string error;
  const bool ok = append_gtb_record(e, out, &error);
  GLAP_ASSERT(ok, "GTB encode of writer event failed: " + error);
}

}  // namespace

TraceLog::TraceLog(std::ostream& out, Format format,
                   const SamplingPolicy& sampling)
    : TraceLog(&out, format, sampling) {}

TraceLog::TraceLog(std::ostream* out, Format format,
                   const SamplingPolicy& sampling)
    : out_(out),
      format_(format),
      sampling_(sampling),
      shuffle_keep_all_(sampling.shuffle_keep >= 1.0),
      net_keep_all_(sampling.net_keep >= 1.0),
      sample_seed_(hash_combine(sampling.seed, hash_tag("trace-sample"))) {
  GLAP_REQUIRE(sampling.shuffle_keep >= 0.0 && sampling.shuffle_keep <= 1.0 &&
                   sampling.net_keep >= 0.0 && sampling.net_keep <= 1.0,
               "trace sampling keep probabilities must be in [0, 1]");
  if (out_ != nullptr && format_ == Format::kGtb) {
    bytes_.clear();
    append_gtb_header(&bytes_);
    out_->write(bytes_.data(), static_cast<std::streamsize>(bytes_.size()));
  }
}

void TraceLog::begin_round(std::uint64_t round) {
  round_ = round;
  if (recorder_ != nullptr) recorder_->begin_round(round);
}

void TraceLog::write_event(const TraceEvent& e) {
  bytes_.clear();
  if (format_ == Format::kGtb) {
    encode(e, &bytes_);
    if (out_ != nullptr)
      out_->write(bytes_.data(), static_cast<std::streamsize>(bytes_.size()));
    if (recorder_ != nullptr) recorder_->append(bytes_.data(), bytes_.size());
    return;
  }
  render_jsonl(e, &bytes_);
  if (out_ != nullptr)
    out_->write(bytes_.data(), static_cast<std::streamsize>(bytes_.size()));
  if (recorder_ != nullptr) {
    recorder_bytes_.clear();
    encode(e, &recorder_bytes_);
    recorder_->append(recorder_bytes_.data(), recorder_bytes_.size());
  }
}

void TraceLog::commit_round() {
  for (TraceEvent& e : pending_) {
    e.round = round_;
    write_event(e);
  }
  pending_.clear();
}

}  // namespace glap::trace
