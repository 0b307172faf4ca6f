// Fixture twin of the registered sim::WakeReason enum: two reasons, both
// named in the trace schema's name table.
#pragma once
enum class WakeReason : unsigned char {
  kAlpha,
  kBeta,
};
