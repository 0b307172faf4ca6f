// Cross-TU project model for glap-lint. The per-file rules in lint.cpp
// see one token stream at a time; the properties that actually carry the
// determinism contract — module layering and can_quiesce purity — span
// translation units. This layer
// summarizes each file once (`summarize_source`, pure and cacheable) and
// then runs the project-scoped rules over the joined summaries
// (`analyze_project`):
//
//   layering         src/ module include edges must match the checked-in
//                    tools/lint/layers.txt DAG (undeclared edges, stale
//                    declared edges and cycles are findings)
//   wave-safety      can_quiesce overrides in Protocol subclasses must
//                    not write members outside the scratch_* staging
//                    convention, call a
//                    mutating method of their own class, or draw from the
//                    member RNG (src/sim/protocol.hpp states the contract)
//   include-hygiene  quoted project includes must provide at least one
//                    name the includer references (transitively), and
//                    project headers must carry #pragma once
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lint.hpp"

namespace glap::lint {

/// One quoted `#include "..."` directive (system includes are ignored).
struct IncludeRef {
  std::size_t line = 0;
  std::string path;  ///< as spelled, e.g. "common/rng.hpp"
};

/// A class/struct definition: enough structure for wave-safety to know
/// which names are members and which methods mutate.
struct ClassDecl {
  std::string name;
  std::size_t line = 0;
  std::vector<std::string> bases;             ///< unqualified base names
  std::vector<std::string> members;           ///< data members (…_ suffix)
  std::vector<std::string> mutating_methods;  ///< non-const method names
};

/// A candidate purity violation inside a can_quiesce body.
/// Extraction is per-file and over-approximate; resolution against the
/// class registry (members, base chains, const-ness) happens in
/// analyze_project, so locals and other objects never fire.
struct WaveEvent {
  enum class Kind : std::uint8_t {
    kAssign = 0,      ///< `name =`, `name +=`, `++name`, `name++`, ...
    kMutateCall = 1,  ///< `name.push_back(...)` and friends
    kBareCall = 2,    ///< unqualified `name(...)` — maybe a method of this
    kRng = 3,         ///< `name.draw(...)` where name looks like an RNG
  };
  Kind kind = Kind::kAssign;
  std::size_t line = 0;
  std::string class_name;  ///< enclosing class (from decl or X::method)
  std::string method;      ///< "can_quiesce"
  std::string name;        ///< the identifier involved
};

/// Everything the project pass needs to know about one file. Produced by
/// a single tokenize of the file, independent of every other file — which
/// is what makes the on-disk scan cache sound.
struct FileSummary {
  std::string path;    ///< repo-relative, '/'-separated
  std::string module;  ///< "common", "sim", ... for src/<m>/...; else ""
  bool is_header = false;
  bool has_pragma_once = false;
  std::vector<IncludeRef> includes;
  std::vector<std::string> provided;    ///< names this file defines (sorted)
  std::vector<std::string> referenced;  ///< identifiers used (sorted)
  std::vector<ClassDecl> classes;
  std::vector<WaveEvent> wave_events;
};

/// Summarizes one file. Pure function of its inputs; `rel_path` drives
/// the module assignment and header detection.
FileSummary summarize_source(std::string_view rel_path,
                             std::string_view content);

/// Output of the project pass: the module graph plus every finding from
/// the three project rules (unsuppressed — the caller applies allows).
struct ProjectModel {
  std::vector<LayerEdge> edges;                     ///< sorted (from, to)
  std::map<std::string, std::size_t> module_files;  ///< src module -> files
  std::vector<Finding> findings;
};

/// Runs layering / wave-safety / include-hygiene over the joined
/// summaries. `layers_text` is the contents of layers.txt ("module -> dep
/// dep ..." lines, '#' comments); when empty the layering rule is skipped
/// (synthetic trees without a DAG stay lintable).
ProjectModel analyze_project(const std::vector<FileSummary>& files,
                             std::string_view layers_text);

}  // namespace glap::lint
