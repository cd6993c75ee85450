#ifndef XORBITS_DATAFRAME_JOIN_H_
#define XORBITS_DATAFRAME_JOIN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataframe/dataframe.h"

namespace xorbits::dataframe {

enum class JoinType { kInner, kLeft, kRight, kOuter };

const char* JoinTypeName(JoinType t);
Result<JoinType> JoinTypeFromName(const std::string& name);

/// pandas.merge options. When `left_on`/`right_on` are empty, `on` names
/// columns present on both sides (emitted once in the output). Non-key
/// columns sharing a name get `suffix_left`/`suffix_right` appended. With
/// `sort`, the result is sorted by the join keys (the capability the paper
/// notes Dask/PySpark merges lack).
struct MergeOptions {
  std::vector<std::string> on;
  std::vector<std::string> left_on;
  std::vector<std::string> right_on;
  JoinType how = JoinType::kInner;
  std::string suffix_left = "_x";
  std::string suffix_right = "_y";
  bool sort = false;
};

/// The left and right key lists `options` names (`on` for both sides when
/// `left_on`/`right_on` are empty); Invalid when they are empty or of
/// different lengths.
struct JoinKeys {
  std::vector<std::string> left;
  std::vector<std::string> right;
};
Result<JoinKeys> ResolveJoinKeys(const MergeOptions& options);

/// How a join compares key tuples (DESIGN.md §7). The exact modes store the
/// key itself as the table tag: a single never-null int64 column, or codes
/// over one dictionary shared by both sides. Every other shape hashes key
/// values. The mode never changes output bytes.
enum class JoinKeyMode { kExactInt64, kDictCodes, kHash };

/// The mode `left` (keys `lkeys`) probes a table over `right` (keys
/// `rkeys`) in.
Result<JoinKeyMode> ChooseJoinKeyMode(const DataFrame& left,
                                      const std::vector<std::string>& lkeys,
                                      const DataFrame& right,
                                      const std::vector<std::string>& rkeys);

/// The immutable build side of a hash join: key mode, radix partitions with
/// one open-addressing table each (or a direct-address map for compact
/// exact keys), the chains of right rows per key and the right key hasher.
/// It points into the frame it was built over, which must outlive it. Any
/// number of threads may probe one table at once.
struct JoinTable;

/// Builds the table over `right`'s `rkeys` in `mode`; Invalid when the keys
/// do not have the shape the mode needs.
Result<std::shared_ptr<const JoinTable>> BuildJoinTable(
    const DataFrame& right, const std::vector<std::string>& rkeys,
    JoinKeyMode mode);

/// Probes `table` with `left`'s `lkeys` and assembles the merge `options`
/// ask for. Output row order follows the left frame (then unmatched right
/// rows for right/outer joins), matching pandas' observable behaviour for
/// sort=False. Invalid when `left`'s keys do not fit the table's mode.
Result<DataFrame> ProbeJoin(const DataFrame& left,
                            const std::vector<std::string>& lkeys,
                            const JoinTable& table,
                            const MergeOptions& options);

/// Hash join (build on right, probe from left): `BuildJoinTable` then
/// `ProbeJoin`.
Result<DataFrame> Merge(const DataFrame& left, const DataFrame& right,
                        const MergeOptions& options);

}  // namespace xorbits::dataframe

#endif  // XORBITS_DATAFRAME_JOIN_H_
