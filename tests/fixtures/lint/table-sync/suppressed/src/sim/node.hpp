// Same drift as the fail fixture, excused at the enum declaration (the
// line table-sync findings anchor to).
#pragma once
// glap-lint: allow(table-sync): kGamma ships behind a flag; its name lands with the decoder
enum class WakeReason : unsigned char {
  kAlpha,
  kGamma,
};
