#pragma once
#include <string_view>
inline constexpr std::string_view kWakeReasonNames[] = {"alpha"};
