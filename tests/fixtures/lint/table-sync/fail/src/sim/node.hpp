// kGamma is declared here but never lands in the schema's name table —
// exactly the drift table-sync exists to catch.
#pragma once
enum class WakeReason : unsigned char {
  kAlpha,
  kGamma,
};
