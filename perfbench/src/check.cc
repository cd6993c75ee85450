#include "check.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "dataframe/kernels.h"

namespace perfbench {

using xorbits::dataframe::Column;
using xorbits::dataframe::DataFrame;
using xorbits::dataframe::DType;

uint64_t Checksum(const DataFrame& df) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& bytes) {
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  };
  std::string buf;
  for (int ci = 0; ci < df.num_columns(); ++ci) {
    mix(df.column_name(ci));
    const Column& c = df.column(ci);
    buf.clear();
    buf += static_cast<char>(c.dtype());
    for (int64_t i = 0; i < c.length(); ++i) {
      buf += c.IsValid(i) ? 'v' : 'n';
      if (c.IsValid(i)) c.AppendKeyBytes(i, &buf);
    }
    mix(buf);
  }
  return h;
}

namespace {

DataFrame Canonical(const DataFrame& df) {
  if (df.num_rows() <= 1) return df;
  auto sorted = xorbits::dataframe::SortValues(df, df.column_names());
  return sorted.ok() ? sorted.MoveValue() : df;
}

}  // namespace

std::string CompareFrames(const DataFrame& actual_in,
                          const DataFrame& expected_in) {
  std::ostringstream why;
  if (actual_in.num_rows() != expected_in.num_rows() ||
      actual_in.num_columns() != expected_in.num_columns()) {
    why << "shape " << actual_in.num_rows() << "x" << actual_in.num_columns()
        << " vs " << expected_in.num_rows() << "x"
        << expected_in.num_columns();
    return why.str();
  }
  const DataFrame a = Canonical(actual_in);
  const DataFrame e = Canonical(expected_in);
  for (int c = 0; c < a.num_columns(); ++c) {
    if (a.column_name(c) != e.column_name(c)) {
      return "column " + a.column_name(c) + " vs " + e.column_name(c);
    }
    const Column& ca = a.column(c);
    const Column& ce = e.column(c);
    if (ca.dtype() != ce.dtype()) return "dtype of " + a.column_name(c);
    for (int64_t i = 0; i < a.num_rows(); ++i) {
      bool same;
      if (ca.IsNull(i) || ce.IsNull(i)) {
        same = ca.IsNull(i) == ce.IsNull(i);
      } else if (ca.dtype() == DType::kFloat64) {
        const double va = ca.float64_data()[i];
        const double ve = ce.float64_data()[i];
        same = (std::isnan(va) && std::isnan(ve)) ||
               std::fabs(va - ve) <= 1e-6 * (1.0 + std::fabs(ve));
      } else {
        same = ca.GetScalar(i) == ce.GetScalar(i);
      }
      if (!same) {
        why << a.column_name(c) << " row " << i << ": "
            << ca.ValueToString(i) << " vs " << ce.ValueToString(i);
        return why.str();
      }
    }
  }
  return "";
}

void ResultLog::Record(int key, const DataFrame& df) {
  const uint64_t sum = Checksum(df);
  std::lock_guard<std::mutex> lock(mu_);
  Distinct& d = results_[key][sum];
  if (d.count++ == 0) d.frame = df;
}

int64_t RunGate(const ResultLog& log, const GateSources& sources) {
  int64_t wrong = 0;
  for (const auto& [key, distinct] : log.results()) {
    const std::string name = sources.name(key);
    auto reference = sources.reference(key);
    if (!reference.ok()) {
      std::printf("gate %s: reference run failed: %s\n", name.c_str(),
                  reference.status().ToString().c_str());
      for (const auto& [sum, d] : distinct) wrong += d.count;
      continue;
    }
    uint64_t cache_off_sum = 0;
    if (sources.cache_off) {
      auto off = sources.cache_off(key);
      if (!off.ok()) {
        std::printf("gate %s: cache-off run failed: %s\n", name.c_str(),
                    off.status().ToString().c_str());
        for (const auto& [sum, d] : distinct) wrong += d.count;
        continue;
      }
      cache_off_sum = Checksum(*off);
    }
    for (const auto& [sum, d] : distinct) {
      std::string why = CompareFrames(d.frame, *reference);
      if (why.empty() && sources.cache_off && sum != cache_off_sum) {
        why = "differs from the cache-off result";
      }
      if (!why.empty()) {
        std::printf("gate %s: %lld results wrong: %s\n", name.c_str(),
                    static_cast<long long>(d.count), why.c_str());
        wrong += d.count;
      }
    }
  }
  return wrong;
}

}  // namespace perfbench
