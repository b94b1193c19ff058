#include "core/encoding_search.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "catalog/statistics.h"
#include "storage/compression/encoding_picker.h"

namespace hsdb {

namespace {

constexpr double kCostEps = 1e-12;

/// Per-column codec candidates: the picker-pruned codecs, their estimated
/// footprints, and the indices of the picker's choice and of the incumbent
/// — the codec the statistics carry (what the store currently uses, or the
/// picker's choice for hypothetical moves), falling back to the picker when
/// it is no longer a candidate (e.g. RLE pruned after the run structure
/// degraded).
struct ColumnCandidates {
  std::vector<Encoding> codecs;
  std::vector<double> bytes;
  size_t picker = 0;
  size_t incumbent = 0;
};

ColumnCandidates BuildColumnCandidates(
    const ColumnStatistics& stats, uint64_t row_count,
    const compression::EncodingPicker& picker) {
  ColumnCandidates out;
  compression::EncodingProfile profile =
      StatisticsEncodingProfile(stats, row_count);
  out.codecs = compression::CandidateEncodings(profile, picker.options());
  out.bytes.reserve(out.codecs.size());
  for (Encoding e : out.codecs) {
    double b = compression::EstimateEncodedBytes(e, profile);
    if (!std::isfinite(b)) b = std::numeric_limits<double>::max();
    out.bytes.push_back(b);
  }
  const Encoding picked = picker.Pick(profile);
  for (size_t i = 0; i < out.codecs.size(); ++i) {
    if (out.codecs[i] == picked) out.picker = i;
  }
  out.incumbent = out.picker;
  for (size_t i = 0; i < out.codecs.size(); ++i) {
    if (out.codecs[i] == stats.encoding) out.incumbent = i;
  }
  return out;
}

/// Incremental workload evaluator. Queries touching no searched table are
/// costed once at construction and contribute a constant; an affected query
/// is re-costed only when one of its tables was marked dirty since the last
/// Evaluate(). Every mutation of a table's design must MarkDirty that table
/// (or MarkAllDirty after a bulk restore) before the next Evaluate();
/// skipped evaluations simply let dirt accumulate.
class IncrementalEvaluator {
 public:
  IncrementalEvaluator(const WorkloadCostEstimator& estimator,
                       LayoutProvider provider,
                       const std::vector<WeightedQuery>& workload,
                       const std::map<std::string, size_t>& index_of)
      : estimator_(estimator), provider_(std::move(provider)) {
    for (const WeightedQuery& wq : workload) {
      QueryEval entry;
      entry.wq = &wq;
      for (const std::string& name : TablesOf(wq.query)) {
        auto it = index_of.find(name);
        if (it != index_of.end() &&
            std::find(entry.touched.begin(), entry.touched.end(),
                      it->second) == entry.touched.end()) {
          entry.touched.push_back(it->second);
        }
      }
      if (entry.touched.empty()) {
        running_total_ +=
            wq.weight * estimator_.QueryCost(wq.query, provider_);
      } else {
        affected_.push_back(std::move(entry));
      }
    }
  }

  void MarkDirty(size_t table) {
    if (!all_dirty_ &&
        std::find(dirty_.begin(), dirty_.end(), table) == dirty_.end()) {
      dirty_.push_back(table);
    }
  }

  void MarkAllDirty() {
    all_dirty_ = true;
    dirty_.clear();
  }

  double Evaluate() {
    ++evaluated_;
    for (QueryEval& entry : affected_) {
      bool stale = all_dirty_;
      for (size_t t : entry.touched) {
        if (stale) break;
        stale = std::find(dirty_.begin(), dirty_.end(), t) != dirty_.end();
      }
      if (!stale) continue;
      running_total_ -= entry.cost;
      entry.cost = entry.wq->weight *
                   estimator_.QueryCost(entry.wq->query, provider_);
      running_total_ += entry.cost;
    }
    all_dirty_ = false;
    dirty_.clear();
    return running_total_;
  }

  size_t evaluated() const { return evaluated_; }

 private:
  struct QueryEval {
    const WeightedQuery* wq = nullptr;
    std::vector<size_t> touched;  // searched-table indices
    double cost = 0.0;            // weighted, as of the last Evaluate()
  };

  const WorkloadCostEstimator& estimator_;
  LayoutProvider provider_;
  std::vector<QueryEval> affected_;
  double running_total_ = 0.0;  // fixed queries + affected after Evaluate()
  bool all_dirty_ = true;
  std::vector<size_t> dirty_;
  size_t evaluated_ = 0;
};

/// Per-table search state: layout candidates crossed with per-column codec
/// candidates. Codec candidate sets and byte estimates are
/// layout-independent; which columns carry encoded mass (and how much of
/// it) depends on the layout via the per-layout fraction table.
struct SearchTable {
  std::string name;
  std::vector<LayoutCandidate> layouts;           // [0] = baseline
  std::vector<std::vector<Encoding>> candidates;  // per column
  std::vector<std::vector<double>> bytes;         // parallel, unscaled
  std::vector<std::vector<double>> fraction;      // [layout][column]

  size_t layout_choice = 0;
  std::vector<size_t> choice;
  std::vector<size_t> picker_choice;
  /// The codecs the catalog statistics carry and the candidate matching
  /// the table's current layout (candidate 0 when none does) — together
  /// the incumbent design the hysteresis rule protects.
  std::vector<size_t> incumbent_choice;
  size_t incumbent_layout = 0;

  std::vector<Encoding> Encodings() const {
    std::vector<Encoding> out(choice.size());
    for (size_t c = 0; c < choice.size(); ++c) {
      out[c] = candidates[c][choice[c]];
    }
    return out;
  }

  double FootprintBytes() const { return FootprintBytesAt(layout_choice); }

  /// Footprint of the current codecs under a hypothetical layout flip.
  double FootprintBytesAt(size_t layout) const {
    double total = 0.0;
    for (size_t c = 0; c < choice.size(); ++c) {
      total += bytes[c][choice[c]] * fraction[layout][c];
    }
    return total;
  }

  /// Tightest footprint this layout can reach (per-column byte minima).
  double MinFootprintAt(size_t layout) const {
    double total = 0.0;
    for (size_t c = 0; c < choice.size(); ++c) {
      total += *std::min_element(bytes[c].begin(), bytes[c].end()) *
               fraction[layout][c];
    }
    return total;
  }

  LayoutContext Context() const {
    LayoutContext ctx = layouts[layout_choice].context;
    ctx.encodings = Encodings();
    return ctx;
  }
};

}  // namespace

EncodingDesign EncodingSearch::Search(
    const std::vector<WeightedQuery>& workload,
    const std::map<std::string, std::vector<LayoutCandidate>>& candidates)
    const {
  EncodingDesign result;

  // Candidate 0 of every table: the baseline's layouts and the layout
  // provider's fallback for unsearched tables.
  std::map<std::string, LayoutContext> base_layouts;
  for (const auto& [name, cands] : candidates) {
    if (!cands.empty()) base_layouts.emplace(name, cands[0].context);
  }

  // ---- Per-table search state -------------------------------------------
  // A table is searched when it has statistics and some candidate holds a
  // column-store piece; without one there is no codec to choose.
  const compression::EncodingPicker picker;
  std::vector<SearchTable> tables;
  for (const auto& [name, cands] : candidates) {
    if (std::none_of(cands.begin(), cands.end(),
                     [](const LayoutCandidate& cand) {
                       return HasColumnStorePiece(cand.context.layout);
                     })) {
      continue;
    }
    const TableStatistics* stats = catalog_->GetStatistics(name);
    const LogicalTable* table = catalog_->GetTable(name);
    if (stats == nullptr || stats->columns.empty() || table == nullptr) {
      continue;
    }
    const Schema& schema = table->schema();

    SearchTable state;
    state.name = name;
    state.layouts = cands;
    const size_t n = stats->columns.size();
    state.candidates.resize(n);
    state.bytes.resize(n);
    state.choice.resize(n);
    state.picker_choice.resize(n);
    state.incumbent_choice.resize(n);
    for (ColumnId c = 0; c < n; ++c) {
      ColumnCandidates cand =
          BuildColumnCandidates(stats->columns[c], stats->row_count, picker);
      state.candidates[c] = std::move(cand.codecs);
      state.bytes[c] = std::move(cand.bytes);
      state.picker_choice[c] = cand.picker;
      state.incumbent_choice[c] = cand.incumbent;
      state.choice[c] = cand.picker;
    }
    // Footprint counts only the row mass the column-store pieces hold: a
    // horizontal split's row-store hot piece carries no encoded segments,
    // so a narrower hybrid split genuinely shrinks the budget charge.
    state.fraction.resize(cands.size());
    for (size_t l = 0; l < cands.size(); ++l) {
      state.fraction[l].resize(n);
      for (ColumnId c = 0; c < n; ++c) {
        state.fraction[l][c] =
            EncodedRowFraction(cands[l].context, schema, c);
      }
    }
    for (size_t l = 0; l < cands.size(); ++l) {
      if (cands[l].context.layout == table->layout()) {
        state.incumbent_layout = l;
        break;
      }
    }
    tables.push_back(std::move(state));
  }

  // ---- Search dimensions and the exact-enumeration budget ----------------
  struct Dim {
    size_t table;
    bool is_layout;
    size_t column;
  };
  std::vector<Dim> dims;
  size_t combinations = 1;
  bool overflow = false;
  auto bump = [&](size_t k) {
    if (!overflow) {
      combinations *= k;
      if (combinations > options_.exact_combination_limit) overflow = true;
    }
  };
  for (size_t t = 0; t < tables.size(); ++t) {
    if (tables[t].layouts.size() > 1) {
      dims.push_back(Dim{t, true, 0});
      bump(tables[t].layouts.size());
    }
    for (size_t c = 0; c < tables[t].choice.size(); ++c) {
      if (tables[t].candidates[c].size() < 2) continue;
      // A codec only matters where some candidate layout gives the column
      // encoded mass.
      bool encoded_somewhere = false;
      for (size_t l = 0; l < tables[t].layouts.size(); ++l) {
        encoded_somewhere =
            encoded_somewhere || tables[t].fraction[l][c] > 0.0;
      }
      if (!encoded_somewhere) continue;
      dims.push_back(Dim{t, false, c});
      bump(tables[t].candidates[c].size());
    }
  }

  // ---- Incremental evaluation --------------------------------------------
  std::map<std::string, size_t> index_of;
  for (size_t t = 0; t < tables.size(); ++t) {
    index_of.emplace(tables[t].name, t);
  }
  auto layout_provider = [&](const std::string& name) {
    auto ti = index_of.find(name);
    if (ti != index_of.end()) return tables[ti->second].Context();
    auto it = base_layouts.find(name);
    return it == base_layouts.end()
               ? LayoutContext::SingleStore(StoreType::kRow)
               : it->second;
  };

  IncrementalEvaluator eval(estimator_, layout_provider, workload, index_of);
  auto mark_dirty = [&](size_t t) { eval.MarkDirty(t); };
  auto mark_all_dirty = [&]() { eval.MarkAllDirty(); };
  auto evaluate = [&]() { return eval.Evaluate(); };
  auto total_footprint = [&]() {
    double total = 0.0;
    for (const SearchTable& state : tables) total += state.FootprintBytes();
    return total;
  };

  // Feasibility floor: every table at its tightest layout+codec design.
  double min_footprint = 0.0;
  for (const SearchTable& state : tables) {
    double best = std::numeric_limits<double>::infinity();
    for (size_t l = 0; l < state.layouts.size(); ++l) {
      best = std::min(best, state.MinFootprintAt(l));
    }
    min_footprint += best;
  }
  result.min_footprint_bytes = min_footprint;

  const std::optional<double>& budget = options_.memory_budget_bytes;
  auto feasible_at = [&](double footprint) {
    return !budget.has_value() || footprint <= *budget + 1e-6;
  };

  // ---- Baseline ----------------------------------------------------------
  // Every table's candidate 0 with the picker's codecs, priced with this
  // search's own evaluator so comparisons are apples to apples.
  for (SearchTable& state : tables) {
    state.layout_choice = 0;
    state.choice = state.picker_choice;
  }
  mark_all_dirty();
  const double baseline_cost = evaluate();
  const double baseline_footprint = total_footprint();
  result.picker_cost_ms = baseline_cost;
  result.picker_footprint_bytes = baseline_footprint;
  result.cost_ms = baseline_cost;
  if (tables.empty()) return result;
  std::vector<size_t> base_layout(tables.size(), 0);
  std::vector<std::vector<size_t>> base_choice;
  for (const SearchTable& state : tables) base_choice.push_back(state.choice);

  // ---- Incumbent design: what the catalog currently has ------------------
  bool incumbent_is_baseline = true;
  std::vector<size_t> inc_layout(tables.size());
  std::vector<std::vector<size_t>> inc_choice;
  for (size_t t = 0; t < tables.size(); ++t) {
    SearchTable& state = tables[t];
    state.layout_choice = state.incumbent_layout;
    state.choice = state.incumbent_choice;
    incumbent_is_baseline = incumbent_is_baseline &&
                            state.layout_choice == 0 &&
                            state.choice == base_choice[t];
    inc_layout[t] = state.layout_choice;
    inc_choice.push_back(state.choice);
  }
  double incumbent_cost = baseline_cost;
  double incumbent_footprint = baseline_footprint;
  if (!incumbent_is_baseline) {
    mark_all_dirty();
    incumbent_cost = evaluate();
    incumbent_footprint = total_footprint();
  }

  // ---- Winner tracking ---------------------------------------------------
  bool have_best = false;
  double best_cost = 0.0;
  double best_footprint = 0.0;
  std::vector<size_t> best_layout(tables.size(), 0);
  std::vector<std::vector<size_t>> best_choice;
  auto snapshot = [&]() {
    best_choice.clear();
    for (size_t t = 0; t < tables.size(); ++t) {
      best_layout[t] = tables[t].layout_choice;
      best_choice.push_back(tables[t].choice);
    }
  };
  auto consider = [&](double cost, double footprint) {
    if (!feasible_at(footprint)) return;
    if (!have_best || cost < best_cost - kCostEps ||
        (cost <= best_cost + kCostEps && footprint < best_footprint)) {
      have_best = true;
      best_cost = cost;
      best_footprint = footprint;
      snapshot();
    }
  };
  auto restore = [&](const std::vector<size_t>& layout,
                     const std::vector<std::vector<size_t>>& choice) {
    for (size_t t = 0; t < tables.size(); ++t) {
      tables[t].layout_choice = layout[t];
      tables[t].choice = choice[t];
    }
    mark_all_dirty();
  };

  // The baseline preloads the winner: any deviation must earn it.
  restore(base_layout, base_choice);
  consider(baseline_cost, baseline_footprint);

  if (!overflow && !dims.empty()) {
    // ---- Exact enumeration over the layout x codec cross-product ---------
    // Columns outside the enumeration keep the incumbent's codecs.
    result.exact = true;
    restore(inc_layout, inc_choice);
    for (const Dim& dim : dims) {
      if (dim.is_layout) {
        tables[dim.table].layout_choice = 0;
      } else {
        tables[dim.table].choice[dim.column] = 0;
      }
    }
    std::vector<size_t> odometer(dims.size(), 0);
    bool done = false;
    while (!done) {
      double footprint = total_footprint();
      if (feasible_at(footprint)) consider(evaluate(), footprint);
      size_t i = 0;
      for (; i < dims.size(); ++i) {
        const Dim& dim = dims[i];
        const size_t limit =
            dim.is_layout ? tables[dim.table].layouts.size()
                          : tables[dim.table].candidates[dim.column].size();
        const size_t next = odometer[i] + 1;
        odometer[i] = next < limit ? next : 0;
        if (dim.is_layout) {
          tables[dim.table].layout_choice = odometer[i];
        } else {
          tables[dim.table].choice[dim.column] = odometer[i];
        }
        mark_dirty(dim.table);
        if (next < limit) break;
      }
      done = i == dims.size();
    }
  } else {
    // ---- Greedy descent ----------------------------------------------------
    // Phase 1: per-table coordinate descent on workload cost over (layout,
    // codecs), budget ignored — starting from the baseline this can only
    // improve the cost.
    restore(base_layout, base_choice);
    double cur_cost = evaluate();
    bool improved = true;
    int passes = 0;
    while (improved && passes++ < 8) {
      improved = false;
      for (size_t t = 0; t < tables.size(); ++t) {
        SearchTable& state = tables[t];
        size_t best_l = state.layout_choice;
        std::vector<size_t> best_ch = state.choice;
        double best_t_cost = cur_cost;
        double best_t_bytes = state.FootprintBytes();
        for (size_t l = 0; l < state.layouts.size(); ++l) {
          // Until a layout is tried, cur_cost prices the table's design.
          double l_cost = cur_cost;
          if (l != 0 || state.layout_choice != 0) {
            state.layout_choice = l;
            mark_dirty(t);
            l_cost = evaluate();
          }
          // One codec pass over the columns that carry encoded mass under
          // l; the outer passes repeat it until nothing moves.
          for (size_t c = 0; c < state.choice.size(); ++c) {
            if (state.candidates[c].size() < 2 || state.fraction[l][c] <= 0.0) {
              continue;
            }
            size_t original = state.choice[c];
            size_t best_i = original;
            double best_i_cost = l_cost;
            double best_i_bytes = state.bytes[c][original];
            for (size_t i = 0; i < state.candidates[c].size(); ++i) {
              if (i == original) continue;
              state.choice[c] = i;
              mark_dirty(t);
              double cost = evaluate();
              if (cost < best_i_cost - kCostEps ||
                  (cost <= best_i_cost + kCostEps &&
                   state.bytes[c][i] < best_i_bytes)) {
                best_i = i;
                best_i_cost = cost;
                best_i_bytes = state.bytes[c][i];
              }
            }
            // A restored codec keeps l_cost; the evaluator re-costs the
            // table at its next evaluation.
            state.choice[c] = best_i;
            mark_dirty(t);
            l_cost = best_i_cost;
          }
          double l_bytes = state.FootprintBytes();
          if (l_cost < best_t_cost - kCostEps ||
              (l_cost <= best_t_cost + kCostEps && l_bytes < best_t_bytes)) {
            if (l != best_l || state.choice != best_ch) improved = true;
            best_l = l;
            best_ch = state.choice;
            best_t_cost = l_cost;
            best_t_bytes = l_bytes;
          }
        }
        state.layout_choice = best_l;
        state.choice = best_ch;
        mark_dirty(t);
        cur_cost = best_t_cost;
      }
    }

    // Phase 2: repair the budget — repeatedly take the move with the best
    // cost-increase per byte saved (the classic greedy knapsack eviction):
    // a swap to a smaller codec, or a layout flip that lets a table whose
    // encoded footprint busts the budget fall back to the row store or a
    // narrower hybrid split.
    double cur_footprint = total_footprint();
    while (budget.has_value() && cur_footprint > *budget + 1e-6) {
      double best_ratio = std::numeric_limits<double>::infinity();
      double best_saved = 0.0;
      double best_move_cost = cur_cost;
      size_t move_table = tables.size();
      bool move_is_layout = false;
      size_t move_column = 0;
      size_t move_target = 0;
      auto offer = [&](size_t t, bool is_layout, size_t column,
                       size_t target, double saved, double cost) {
        const double ratio = (cost - cur_cost) / saved;
        if (ratio < best_ratio ||
            (ratio <= best_ratio + kCostEps && saved > best_saved)) {
          best_ratio = ratio;
          best_saved = saved;
          best_move_cost = cost;
          move_table = t;
          move_is_layout = is_layout;
          move_column = column;
          move_target = target;
        }
      };
      for (size_t t = 0; t < tables.size(); ++t) {
        SearchTable& state = tables[t];
        const size_t cur_layout = state.layout_choice;
        for (size_t c = 0; c < state.choice.size(); ++c) {
          if (state.fraction[cur_layout][c] <= 0.0) continue;
          const size_t cur = state.choice[c];
          for (size_t i = 0; i < state.candidates[c].size(); ++i) {
            const double saved = (state.bytes[c][cur] - state.bytes[c][i]) *
                                 state.fraction[cur_layout][c];
            if (saved <= 0.0) continue;
            state.choice[c] = i;
            mark_dirty(t);
            double cost = evaluate();
            state.choice[c] = cur;
            mark_dirty(t);
            offer(t, false, c, i, saved, cost);
          }
        }
        const double cur_bytes = state.FootprintBytes();
        for (size_t l = 0; l < state.layouts.size(); ++l) {
          if (l == cur_layout) continue;
          const double saved = cur_bytes - state.FootprintBytesAt(l);
          if (saved <= 0.0) continue;
          state.layout_choice = l;
          mark_dirty(t);
          double cost = evaluate();
          state.layout_choice = cur_layout;
          mark_dirty(t);
          offer(t, true, 0, l, saved, cost);
        }
      }
      if (move_table == tables.size()) break;  // nothing left to shrink
      if (move_is_layout) {
        tables[move_table].layout_choice = move_target;
      } else {
        tables[move_table].choice[move_column] = move_target;
      }
      mark_dirty(move_table);
      cur_cost = best_move_cost;
      cur_footprint -= best_saved;
      ++result.repair_iterations;
    }
    // Re-evaluate cleanly (the eviction loop tracks the footprint
    // incrementally) and offer the repaired design to the winner.
    mark_all_dirty();
    consider(evaluate(), total_footprint());
  }

  // ---- Infeasible even at the best layout: report the floor --------------
  if (!have_best) {
    for (SearchTable& state : tables) {
      size_t floor_layout = 0;
      double floor_bytes = std::numeric_limits<double>::infinity();
      for (size_t l = 0; l < state.layouts.size(); ++l) {
        const double b = state.MinFootprintAt(l);
        if (b < floor_bytes) {
          floor_bytes = b;
          floor_layout = l;
        }
      }
      state.layout_choice = floor_layout;
      for (size_t c = 0; c < state.choice.size(); ++c) {
        state.choice[c] = static_cast<size_t>(
            std::min_element(state.bytes[c].begin(), state.bytes[c].end()) -
            state.bytes[c].begin());
      }
    }
    mark_all_dirty();
    best_cost = evaluate();
    best_footprint = total_footprint();
    snapshot();
    // The greedy repair can get stuck above the budget even when the floor
    // design fits (it never combines a layout flip with codec downgrades
    // in one move), so feasibility is judged by the materialized design,
    // not by how we got here: infeasible only when even the best
    // layout+codec floor cannot fit.
    result.feasible = feasible_at(best_footprint);
  }

  // ---- Hysteresis: recommendation stability ------------------------------
  // Keep the catalog's current design unless the winner improves
  // materially, guarded so the never-worse-than-baseline and budget
  // guarantees survive: the incumbent must itself be feasible and no
  // costlier than the baseline.
  if (options_.min_improvement > 0.0 && feasible_at(incumbent_footprint) &&
      incumbent_cost <= baseline_cost + kCostEps &&
      best_cost > incumbent_cost -
                      options_.min_improvement * incumbent_cost) {
    restore(inc_layout, inc_choice);
    best_cost = incumbent_cost;
    best_footprint = incumbent_footprint;
    result.feasible = true;
    result.hysteresis_applied = true;
    snapshot();
  }

  // ---- Materialize the winner -------------------------------------------
  restore(best_layout, best_choice);
  for (SearchTable& state : tables) {
    TableDesign design;
    design.candidate_index = state.layout_choice;
    design.context = state.Context();
    design.footprint_bytes = state.FootprintBytes();
    result.tables.emplace(state.name, std::move(design));
  }
  result.cost_ms = best_cost;
  result.footprint_bytes = best_footprint;
  result.evaluated_assignments = eval.evaluated();
  return result;
}

}  // namespace hsdb
