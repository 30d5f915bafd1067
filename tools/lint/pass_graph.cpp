// Whole-repo include-graph audit.
//
// Operates on every scanned file that carries a src/<module>/ path
// component (the real tree, or fixture trees mimicking it) and checks
// four architecture invariants that no per-file scan can see:
//
//   layering       cross-module #include edges must follow the layer
//                  DAG below. A module reaching *up* (witag -> runner)
//                  or sideways into a module it may not see makes the
//                  architecture cyclic and untestable in isolation.
//   include-cycle  the file-level include graph must be acyclic; a
//                  cycle means no valid compile order exists without
//                  the accident of include guards.
//   detail-reach   `other_module::detail::` is module-private by
//                  contract (scalar reference kernels, trellis tables);
//                  only the owning module and tests may name it.
//   iwyu           symbols in the curated map below must be included
//                  directly. Transitive includes compile today and
//                  break when an unrelated header drops a dependency.
//
// The layer DAG (module -> modules it may include from):
//
//           util ──────────────┐
//            │                 │
//           obs   (telemetry sidecar: util only)
//            │
//     ┌── phy ──┐────────────┐
//   channel    mac        faults (util+obs only)
//     │ │       │            │
//    tag└───────┼────────────┤
//     └──── witag ───────────┘
//            │
//     baselines, runner  (consumers; may see everything below)
//            │
//           sim   (city engine: drives sessions through runner)
//
// Adding a module to src/ requires adding it here deliberately — an
// unknown module fails the audit rather than silently bypassing it.
#include <algorithm>
#include <map>
#include <regex>
#include <set>
#include <string>

#include "lint.hpp"

namespace witag::lint {
namespace {

const std::map<std::string, std::set<std::string>>& layer_deps() {
  static const std::map<std::string, std::set<std::string>> kDeps = {
      {"util", {}},
      {"obs", {"util"}},
      {"phy", {"util", "obs"}},
      {"mac", {"util", "obs", "phy"}},
      {"channel", {"util", "obs", "phy"}},
      {"tag", {"util", "obs", "phy", "channel"}},
      {"faults", {"util", "obs"}},
      {"witag", {"util", "obs", "phy", "mac", "channel", "tag", "faults"}},
      {"baselines",
       {"util", "obs", "phy", "mac", "channel", "tag", "faults", "witag"}},
      {"runner",
       {"util", "obs", "phy", "mac", "channel", "tag", "faults", "witag"}},
      {"sim",
       {"util", "obs", "phy", "mac", "channel", "tag", "faults", "witag",
        "runner"}},
  };
  return kDeps;
}

/// First path component of a quoted include target, when it names a
/// known module ("runner/thread_pool.hpp" -> "runner"); else empty.
std::string include_module(const std::string& target) {
  const std::size_t slash = target.find('/');
  if (slash == std::string::npos) return {};
  const std::string head = target.substr(0, slash);
  return layer_deps().count(head) != 0 ? head : std::string{};
}

GraphStats g_stats;

// ---------------------------------------------------------------------------
// IWYU-lite symbol map

struct IwyuEntry {
  std::regex use;        ///< Qualified-use pattern in stripped code.
  std::string header;    ///< Required include target.
  bool angled;           ///< <header> vs "header".
  std::string display;   ///< Symbol name for the message.
};

const std::vector<IwyuEntry>& iwyu_map() {
  static const std::vector<IwyuEntry> kMap = [] {
    std::vector<IwyuEntry> m;
    const auto add = [&m](const char* re, const char* hdr, bool angled,
                          const char* name) {
      m.push_back({std::regex(re), hdr, angled, name});
    };
    add(R"(\bstd\s*::\s*vector\s*<)", "vector", true, "std::vector");
    add(R"(\bstd\s*::\s*array\s*<)", "array", true, "std::array");
    add(R"(\bstd\s*::\s*complex\s*<)", "complex", true, "std::complex");
    add(R"(\bstd\s*::\s*string\b)", "string", true, "std::string");
    add(R"(\bstd\s*::\s*string_view\b)", "string_view", true,
        "std::string_view");
    add(R"(\bstd\s*::\s*u?int(?:8|16|32|64)_t\b)", "cstdint", true,
        "std::[u]intN_t");
    add(R"(\bstd\s*::\s*size_t\b)", "cstddef", true, "std::size_t");
    add(R"(\butil\s*::\s*Rng\b)", "util/rng.hpp", false, "util::Rng");
    add(R"(\butil\s*::\s*(?:BitVec|ByteVec)\b)", "util/bits.hpp", false,
        "util::BitVec/ByteVec");
    add(R"(\butil\s*::\s*CxVec\b)", "util/complexvec.hpp", false,
        "util::CxVec");
    add(R"(\bWITAG_(?:REQUIRE|ENSURE)\b)", "util/require.hpp", false,
        "WITAG_REQUIRE/ENSURE");
    add(R"(\butil\s*::\s*(?:Db|Dbm|Watts|Hertz|Meters|Micros|Seconds)\b)",
        "util/units.hpp", false, "util units types");
    add(R"(\bobs\s*::\s*(?:counter|gauge|hdr)\s*\(|\bWITAG_(?:SPAN|SPAN_CAT|EVENT\d?|COUNT|HDR)\b)",
        "obs/obs.hpp", false, "obs registry/macros");
    return m;
  }();
  return kMap;
}

}  // namespace

GraphStats last_graph_stats() { return g_stats; }

void run_graph_pass(const std::vector<SourceFile>& files,
                    const Options& opts, std::vector<Finding>& out) {
  g_stats = GraphStats{};

  // Index src-module files by src-relative path for include resolution.
  std::map<std::string, const SourceFile*> by_rel;
  std::vector<const SourceFile*> graph_files;
  for (const SourceFile& f : files) {
    if (f.module.empty()) continue;
    graph_files.push_back(&f);
    by_rel.emplace(f.src_rel, &f);
  }
  g_stats.nodes = graph_files.size();

  // -------------------------------------------------------------------------
  // layering: every cross-module quoted include must be an allowed edge.
  if (opts.rule_enabled("layering")) {
    for (const SourceFile* f : graph_files) {
      const auto own = layer_deps().find(f->module);
      if (own == layer_deps().end()) {
        if (!f->line_allows(1, "layering")) {
          out.push_back(
              {f->display, 1, "layering",
               "module '" + f->module +
                   "' is not in the layer DAG; add it to "
                   "tools/lint/pass_graph.cpp deliberately (with its "
                   "allowed dependencies) before using it",
               {},
               {}});
        }
        continue;
      }
      for (const auto& inc : f->includes) {
        if (inc.angled) continue;
        const std::string dep = include_module(inc.target);
        if (dep.empty() || dep == f->module) continue;
        if (own->second.count(dep) == 0 &&
            !f->line_allows(inc.line, "layering")) {
          g_stats.dag_conformant = false;
          out.push_back(
              {f->display, inc.line, "layering",
               "module '" + f->module + "' may not include from '" + dep +
                   "' (\"" + inc.target +
                   "\"): the layer DAG allows only lower layers — a "
                   "back-edge makes the architecture cyclic",
               {},
               {}});
        }
      }
    }
  }

  // -------------------------------------------------------------------------
  // include-cycle: DFS over resolved src->src edges.
  if (opts.rule_enabled("include-cycle")) {
    std::map<const SourceFile*, std::vector<const SourceFile*>> adj;
    for (const SourceFile* f : graph_files) {
      for (const auto& inc : f->includes) {
        if (inc.angled) continue;
        const auto it = by_rel.find(inc.target);
        if (it != by_rel.end() && it->second != f) {
          adj[f].push_back(it->second);
          ++g_stats.edges;
        }
      }
    }
    // Iterative three-color DFS; on finding a back edge, reconstruct
    // the cycle from the DFS stack and report it on every member so
    // per-file fixture accounting stays deterministic.
    std::map<const SourceFile*, int> color;  // 0 white, 1 grey, 2 black
    std::set<const SourceFile*> reported;
    for (const SourceFile* root : graph_files) {
      if (color[root] != 0) continue;
      std::vector<std::pair<const SourceFile*, std::size_t>> stack;
      stack.push_back({root, 0});
      color[root] = 1;
      while (!stack.empty()) {
        auto& [node, next] = stack.back();
        const auto& edges = adj[node];
        if (next >= edges.size()) {
          color[node] = 2;
          stack.pop_back();
          continue;
        }
        const SourceFile* to = edges[next++];
        if (color[to] == 0) {
          color[to] = 1;
          stack.push_back({to, 0});
        } else if (color[to] == 1) {
          g_stats.cycle_free = false;
          // Cycle: from `to` up the stack back to `to`.
          std::vector<const SourceFile*> cycle;
          bool in_cycle = false;
          for (const auto& [n, idx] : stack) {
            if (n == to) in_cycle = true;
            if (in_cycle) cycle.push_back(n);
          }
          std::string path_str;
          for (const SourceFile* n : cycle) {
            path_str += n->src_rel;
            path_str += " -> ";
          }
          path_str += to->src_rel;
          for (const SourceFile* n : cycle) {
            if (!reported.insert(n).second) continue;
            out.push_back({n->display, 1, "include-cycle",
                           "include cycle: " + path_str, {}, {}});
          }
        }
      }
    }
  }

  // -------------------------------------------------------------------------
  // detail-reach: `other_module::detail::` named outside its module.
  if (opts.rule_enabled("detail-reach")) {
    static const std::regex kDetailRef(
        R"(\b(util|obs|phy|mac|channel|tag|faults|witag|runner|baselines|sim)\s*::\s*detail\s*::)");
    for (const SourceFile* f : graph_files) {
      for (std::size_t i = 0; i < f->code.size(); ++i) {
        std::smatch m;
        std::string line = f->code[i];
        while (std::regex_search(line, m, kDetailRef)) {
          const std::string owner = m[1].str();
          if (owner != f->module && !f->line_allows(i + 1, "detail-reach")) {
            out.push_back(
                {f->display, i + 1, "detail-reach",
                 "reaches into " + owner + "::detail:: from module '" +
                     f->module +
                     "'; detail is module-private (reference kernels, "
                     "tables) — use the module's public API",
                 {},
                 {}});
            break;  // one finding per line is enough
          }
          line = m.suffix().str();
        }
      }
      // Include-path form: another module's detail/ subdirectory.
      for (const auto& inc : f->includes) {
        if (inc.angled) continue;
        const std::string dep = include_module(inc.target);
        if (dep.empty() || dep == f->module) continue;
        if (inc.target.find("/detail/") != std::string::npos &&
            !f->line_allows(inc.line, "detail-reach")) {
          out.push_back({f->display, inc.line, "detail-reach",
                         "includes another module's detail/ header \"" +
                             inc.target + "\"",
                         {},
                         {}});
        }
      }
    }
  }

  // -------------------------------------------------------------------------
  // iwyu: curated symbols must be directly included. A .cpp is credited
  // with its primary header's direct includes (the IWYU "associated
  // header" convention): x.cpp including "m/x.hpp" sees that header's
  // includes as its own.
  if (opts.rule_enabled("iwyu")) {
    for (const SourceFile* f : graph_files) {
      std::set<std::string> direct;  // "vector" (angled), "util/rng.hpp"
      const SourceFile* primary = nullptr;
      const std::string stem = f->path.stem().string();
      for (const auto& inc : f->includes) {
        direct.insert(inc.target);
        if (!f->is_header && !inc.angled && primary == nullptr) {
          const auto it = by_rel.find(inc.target);
          if (it != by_rel.end() &&
              it->second->path.stem().string() == stem) {
            primary = it->second;
          }
        }
      }
      if (primary != nullptr) {
        for (const auto& inc : primary->includes) direct.insert(inc.target);
      }
      for (const IwyuEntry& e : iwyu_map()) {
        if (direct.count(e.header) != 0) continue;
        if (!e.angled && f->src_rel == e.header) continue;  // definer
        for (std::size_t i = 0; i < f->code.size(); ++i) {
          if (!std::regex_search(f->code[i], e.use)) continue;
          if (f->line_allows(i + 1, "iwyu")) break;
          const std::string spelled =
              e.angled ? "<" + e.header + ">" : "\"" + e.header + "\"";
          out.push_back({f->display, i + 1, "iwyu",
                         "uses " + e.display + " but does not include " +
                             spelled +
                             " directly (transitive includes break when "
                             "an unrelated header is cleaned up)",
                         Finding::Fix::kInsertInclude, spelled});
          break;  // one finding per (file, symbol)
        }
      }
    }
  }
}

}  // namespace witag::lint
