// Tab-separated-value reading and writing plus small string helpers.
//
// The dataset loaders and the benchmark harness reports use this format:
// one record per line, fields separated by '\t', no quoting.

#ifndef SUPA_UTIL_TSV_H_
#define SUPA_UTIL_TSV_H_

#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace supa {

/// Splits `line` on `sep`, keeping empty fields.
std::vector<std::string> SplitString(std::string_view line, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// Parses a double; returns an error with the offending text on failure.
Result<double> ParseDouble(std::string_view s);

/// Parses a non-negative integer.
Result<uint64_t> ParseUint(std::string_view s);

/// Parses a non-negative integer that must fit `T` (an id type);
/// InvalidArgument instead of narrowing.
template <typename T>
Result<T> ParseId(std::string_view s) {
  SUPA_ASSIGN_OR_RETURN(uint64_t value, ParseUint(s));
  if (value > std::numeric_limits<T>::max()) {
    return Status::InvalidArgument("id out of range: '" + std::string(s) +
                                   "'");
  }
  return static_cast<T>(value);
}

/// A fully-parsed TSV file: `rows[i][j]` is field j of line i.
struct TsvTable {
  std::vector<std::vector<std::string>> rows;
};

/// Reads `path` into a TsvTable. Blank lines and lines starting with '#'
/// are skipped.
Result<TsvTable> ReadTsv(const std::string& path);

/// Writes rows to `path`, one line per row with '\t' separators.
Status WriteTsv(const std::string& path,
                const std::vector<std::vector<std::string>>& rows);

}  // namespace supa

#endif  // SUPA_UTIL_TSV_H_
