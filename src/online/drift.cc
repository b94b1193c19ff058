#include "online/drift.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace hsdb {

namespace {

/// Common-grid resolution for update-key histogram comparison. Coarse on
/// purpose: the per-bucket densities are estimated from bounded samples and
/// a fine grid would turn sampling noise into distance.
constexpr size_t kResampleBins = 16;

/// Component weights of the per-table drift score. Each component is in
/// [0,1] and the weights sum to 1, so the score is in [0,1] too.
constexpr double kMixWeight = 0.5;
constexpr double kColumnWeight = 0.3;
constexpr double kUpdateKeyWeight = 0.2;

/// Per-table threshold on the weighted score.
constexpr double kTableThreshold = 0.2;
/// A single component above this triggers drift on its own, so a pure
/// update-key-shape shift (weighted contribution only 0.2·distance) still
/// registers.
constexpr double kComponentThreshold = 0.5;
/// Threshold on the global (live-query-weighted mean) score.
constexpr double kGlobalThreshold = 0.15;

/// Live queries a table needs in the window before it is scored at all —
/// fractions estimated from a handful of queries are noise.
constexpr uint64_t kMinTableQueries = 16;
/// Update samples both sides need before the histogram shape is compared
/// (the mix drift still sees an update volume change below it), and the
/// scale of UpdateKeyDivergence's small-sample shrinkage.
constexpr uint64_t kMinUpdateSamples = 32;

/// Resamples a profile's update-key density onto `bins` equi-width buckets
/// over [lo, hi), distributing each source bucket's mass proportionally to
/// its overlap with the target buckets.
std::vector<double> Resample(const TableProfile& t, double lo, double hi,
                             size_t bins) {
  std::vector<double> out(bins, 0.0);
  const size_t nb = t.update_key_density.size();
  if (nb == 0 || hi <= lo) return out;
  const double src_lo = static_cast<double>(t.update_key_lo);
  const double src_width =
      static_cast<double>(t.update_key_hi - t.update_key_lo);
  if (src_width <= 0.0) return out;
  const double bin_width = (hi - lo) / static_cast<double>(bins);
  for (size_t i = 0; i < nb; ++i) {
    const double mass = t.update_key_density[i];
    if (mass == 0.0) continue;
    const double blo = src_lo + src_width * static_cast<double>(i) / nb;
    const double bhi = src_lo + src_width * static_cast<double>(i + 1) / nb;
    // Overlap of [blo, bhi) with each target bucket.
    size_t first = static_cast<size_t>(
        std::clamp((blo - lo) / bin_width, 0.0, static_cast<double>(bins - 1)));
    size_t last = static_cast<size_t>(
        std::clamp((bhi - lo) / bin_width, 0.0, static_cast<double>(bins - 1)));
    for (size_t b = first; b <= last; ++b) {
      const double tlo = lo + bin_width * static_cast<double>(b);
      const double thi = tlo + bin_width;
      const double overlap =
          std::max(0.0, std::min(bhi, thi) - std::max(blo, tlo));
      out[b] += mass * overlap / (bhi - blo);
    }
  }
  return out;
}

}  // namespace

std::vector<double> TableProfile::MixVector() const {
  return {insert_fraction,       update_fraction,       delete_fraction,
          point_select_fraction, range_select_fraction, olap_fraction};
}

const TableProfile* WorkloadProfile::table(const std::string& name) const {
  auto it = tables.find(name);
  return it == tables.end() ? nullptr : &it->second;
}

WorkloadProfile WorkloadProfile::Snapshot(const WorkloadStatistics& stats) {
  WorkloadProfile p;
  p.total_queries = stats.total_queries();
  p.olap_fraction = stats.OlapFraction();
  for (const auto& [name, t] : stats.tables()) {
    TableProfile tp;
    tp.queries = t.queries;
    if (t.queries > 0) {
      const double q = static_cast<double>(t.queries);
      tp.insert_fraction = static_cast<double>(t.inserts) / q;
      tp.update_fraction = static_cast<double>(t.updates) / q;
      tp.delete_fraction = static_cast<double>(t.deletes) / q;
      tp.point_select_fraction = static_cast<double>(t.point_selects) / q;
      tp.range_select_fraction = static_cast<double>(t.range_selects) / q;
      tp.olap_fraction = static_cast<double>(t.aggregations) / q;
    }
    double total_usage = 0.0;
    tp.column_usage.resize(t.columns.size(), 0.0);
    for (size_t c = 0; c < t.columns.size(); ++c) {
      const ColumnUsage& u = t.columns[c];
      const double usage =
          static_cast<double>(u.updates + u.aggregate_uses + u.group_by_uses +
                              u.filter_uses + u.projection_uses);
      tp.column_usage[c] = usage;
      total_usage += usage;
    }
    if (total_usage > 0.0) {
      for (double& u : tp.column_usage) u /= total_usage;
    } else {
      tp.column_usage.clear();
    }
    const EquiWidthHistogram& h = t.update_key_histogram;
    tp.update_key_lo = h.domain_lo();
    tp.update_key_hi = h.domain_hi();
    tp.update_key_samples = h.total();
    if (h.total() > 0) {
      tp.update_key_density.resize(h.num_buckets(), 0.0);
      for (size_t b = 0; b < h.num_buckets(); ++b) {
        tp.update_key_density[b] = static_cast<double>(h.bucket_count(b)) /
                                   static_cast<double>(h.total());
      }
    }
    p.tables.emplace(name, std::move(tp));
  }
  return p;
}

std::string WorkloadProfile::Summary() const {
  std::ostringstream os;
  os << total_queries << " queries, OLAP fraction " << olap_fraction;
  for (const auto& [name, t] : tables) {
    os << "; " << name << ": " << t.queries << " q (olap " << t.olap_fraction
       << ", ins " << t.insert_fraction << ", upd " << t.update_fraction
       << ")";
  }
  return os.str();
}

double TotalVariation(const std::vector<double>& a,
                      const std::vector<double>& b) {
  const size_t n = std::max(a.size(), b.size());
  double l1 = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double ai = i < a.size() ? a[i] : 0.0;
    const double bi = i < b.size() ? b[i] : 0.0;
    l1 += std::abs(ai - bi);
  }
  return 0.5 * l1;
}

double UpdateKeyDivergence(const TableProfile& a, const TableProfile& b,
                           uint64_t min_update_samples) {
  if (a.update_key_samples < min_update_samples ||
      b.update_key_samples < min_update_samples) {
    return 0.0;
  }
  const double lo =
      static_cast<double>(std::min(a.update_key_lo, b.update_key_lo));
  const double hi =
      static_cast<double>(std::max(a.update_key_hi, b.update_key_hi));
  if (hi <= lo) return 0.0;
  const double tv = TotalVariation(Resample(a, lo, hi, kResampleBins),
                                   Resample(b, lo, hi, kResampleBins));
  // Shrink toward 0 on small samples: with n observations over k buckets
  // the TV between two draws of the *same* distribution is O(sqrt(k/n)),
  // which would otherwise read as drift.
  const double n = static_cast<double>(
      std::min(a.update_key_samples, b.update_key_samples));
  return tv * (n / (n + 2.0 * static_cast<double>(min_update_samples)));
}

DriftReport DriftDetector::Compare(const WorkloadProfile& solved_for,
                                   const WorkloadProfile& live) const {
  DriftReport r;
  if (solved_for.empty()) {
    // No baseline: everything is drift.
    r.global_score = 1.0;
    r.max_table_score = 1.0;
    r.exceeded = !live.empty();
    return r;
  }
  double weighted = 0.0;
  uint64_t weight_total = 0;
  for (const auto& [name, lt] : live.tables) {
    if (lt.queries < kMinTableQueries) continue;
    TableDrift d;
    const TableProfile* st = solved_for.table(name);
    if (st == nullptr || st->queries == 0) {
      // A table the design was never solved for now carries real traffic.
      d.mix = d.score = 1.0;
    } else {
      d.mix = TotalVariation(st->MixVector(), lt.MixVector());
      d.columns = TotalVariation(st->column_usage, lt.column_usage);
      d.update_keys = UpdateKeyDivergence(*st, lt, kMinUpdateSamples);
      d.score = kMixWeight * d.mix + kColumnWeight * d.columns +
                kUpdateKeyWeight * d.update_keys;
    }
    const double max_component =
        std::max({d.mix, d.columns, d.update_keys});
    d.exceeded = d.score > kTableThreshold ||
                 max_component > kComponentThreshold;
    if (d.exceeded) r.exceeded = true;
    if (d.score > r.max_table_score) {
      r.max_table_score = d.score;
      r.max_table = name;
    }
    weighted += d.score * static_cast<double>(lt.queries);
    weight_total += lt.queries;
    r.tables.emplace(name, d);
  }
  if (weight_total > 0) {
    r.global_score = weighted / static_cast<double>(weight_total);
  }
  if (r.global_score > kGlobalThreshold) r.exceeded = true;
  return r;
}

std::string DriftReport::Summary() const {
  std::ostringstream os;
  os << "drift " << (exceeded ? "EXCEEDED" : "ok") << ", global "
     << global_score;
  if (!max_table.empty()) {
    os << ", max " << max_table << " " << max_table_score;
  }
  for (const auto& [name, d] : tables) {
    os << "; " << name << ": score " << d.score << " (mix " << d.mix
       << ", columns " << d.columns << ", keys " << d.update_keys << ")"
       << (d.exceeded ? " [drifted]" : "");
  }
  return os.str();
}

}  // namespace hsdb
