#pragma once

/// \file suppressions.hpp
/// Known-race suppression files for service mode (DESIGN.md §12), after
/// Valgrind's error-suppression machinery. A file is a sequence of blocks:
///
///   # accepted benign race in the histogram merge
///   {
///     histogram-merge
///     kind: write-write
///     first: histogram.cpp:88
///     second: histogram.cpp:*
///     addr: *
///     tier: direct
///     labels: *
///   }
///
/// The block's first line names the rule; every later line is `field:
/// pattern`. Omitted fields default to `*`. Patterns are shell-style globs
/// (`*` any run, `?` one char) matched against the provenance the PR 5
/// race witness established as stable keys:
///
///   kind    write-read | read-write | write-write
///   first   "file:line" of the earlier access site
///   second  "file:line" of the later access site
///   addr    canonical location, printf %p rendering (e.g. 0x5c3f10)
///   tier    shadow tier name at the location (direct | hashed)
///   labels  "[pre,post] || [pre,post]" set-label rendering of the witness
///           (computed lazily, only when a rule constrains it)
///
/// A suppression_set is immutable after loading and shared by reference
/// (shard checkers all match against one set); hit counts live in each
/// detector so no synchronization is needed.

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace futrace::detect {

struct suppression_rule {
  std::string name;
  std::string kind = "*";
  std::string first = "*";
  std::string second = "*";
  std::string addr = "*";
  std::string tier = "*";
  std::string labels = "*";

  /// True when matching requires the (lazily rendered) witness labels.
  bool wants_labels() const noexcept { return labels != "*"; }
};

/// One candidate race, as the detector presents it to match(). `labels` is
/// invoked at most once, and only if a rule whose other fields all matched
/// constrains the label rendering.
struct suppression_query {
  std::string_view kind;
  std::string_view first;
  std::string_view second;
  std::string_view addr;
  std::string_view tier;
  std::function<std::string()> labels;
};

class suppression_set {
 public:
  /// Parses suppression text. On failure returns false and, when `error` is
  /// non-null, stores a "line N: what" description; previously loaded rules
  /// are left untouched.
  bool parse(std::string_view text, std::string* error);

  /// Loads and parses a file; file-system errors land in `error` too.
  bool load_file(const std::string& path, std::string* error);

  std::size_t size() const noexcept { return rules_.size(); }
  bool empty() const noexcept { return rules_.empty(); }
  const suppression_rule& rule(std::size_t i) const { return rules_[i]; }

  /// Index of the first matching rule, or -1. Rules match in file order.
  int match(const suppression_query& q) const;

  /// Shell-style glob: `*` matches any run (including empty), `?` exactly
  /// one character. Exposed for the self-check and unit tests.
  static bool glob_match(std::string_view pattern, std::string_view text);

 private:
  std::vector<suppression_rule> rules_;
};

}  // namespace futrace::detect
