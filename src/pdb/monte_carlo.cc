#include "pdb/monte_carlo.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "util/string_util.h"

namespace jigsaw::pdb {

namespace {

/// The "column 'X' is not numeric" error of rows [first, last) of `col`:
/// a null anywhere, or a non-numeric type.
Status CheckNumericRows(const ColumnChunk& col, std::size_t first,
                        std::size_t last, const std::string& name) {
  if (col.null_count() != 0) {
    for (std::size_t r = first; r < last; ++r) {
      if (col.IsNull(r)) {
        return Status::ExecutionError("column '" + name + "' is not numeric");
      }
    }
  }
  if (col.type() == ValueType::kString || col.type() == ValueType::kNull) {
    return Status::ExecutionError("column '" + name + "' is not numeric");
  }
  return Status::OK();
}

/// Rows [first, last) of a column that passed CheckNumericRows, as
/// doubles: a zero-copy view for kDouble; int/bool widen into *widened,
/// which must outlive the view.
std::span<const double> NumericRows(const ColumnChunk& col, std::size_t first,
                                    std::size_t last,
                                    std::vector<double>* widened) {
  switch (col.type()) {
    case ValueType::kInt:
      widened->reserve(last - first);
      for (std::size_t r = first; r < last; ++r) {
        widened->push_back(static_cast<double>(col.Ints()[r]));
      }
      return *widened;
    case ValueType::kBool:
      widened->reserve(last - first);
      for (std::size_t r = first; r < last; ++r) {
        widened->push_back(col.Bools()[r] != 0 ? 1.0 : 0.0);
      }
      return *widened;
    default:
      return col.Doubles().subspan(first, last - first);
  }
}

}  // namespace

namespace internal {
std::size_t g_fold_staged_budget_override = 0;

Status FoldChunkColumn(const ColumnChunk& col, std::size_t first,
                       std::size_t last, const std::string& name,
                       Estimator* est) {
  JIGSAW_RETURN_IF_ERROR(CheckNumericRows(col, first, last, name));
  std::vector<double> widened;
  est->AddSpan(NumericRows(col, first, last, &widened));
  return Status::OK();
}

Status ViewChunkColumns(const ColumnarTable& t,
                        std::span<const std::size_t> row_offsets,
                        std::span<const std::size_t> slots,
                        std::span<const std::string> names,
                        TupleChunk* chunk) {
  if (row_offsets.empty()) return Status::OK();
  for (std::size_t k = 0; k < row_offsets.size(); ++k) {
    const std::size_t last =
        k + 1 < row_offsets.size() ? row_offsets[k + 1] : t.num_rows();
    for (std::size_t s = 0; s < slots.size(); ++s) {
      JIGSAW_RETURN_IF_ERROR(
          CheckNumericRows(t.column(slots[s]), row_offsets[k], last, names[s]));
    }
  }
  for (std::size_t s = 0; s < slots.size(); ++s) {
    chunk->spans[s].push_back(NumericRows(t.column(slots[s]), row_offsets[0],
                                          t.num_rows(),
                                          &chunk->buffers.emplace_back()));
  }
  return Status::OK();
}

Result<std::map<std::string, OutputMetrics>> SummarizeTupleChunks(
    std::size_t num_worlds, std::span<const std::string> names,
    const RunConfig& config, ThreadPool* pool,
    const std::function<void(std::size_t begin, std::size_t end,
                             TupleChunk* chunk)>& fill) {
  const std::size_t batch = std::max<std::size_t>(1, config.batch_size);
  const std::size_t num_chunks =
      num_worlds == 0 ? 0 : (num_worlds + batch - 1) / batch;
  std::vector<TupleChunk> chunks(num_chunks);
  auto run_chunk = [&](std::size_t chunk) {
    chunks[chunk].spans.resize(names.size());
    const std::size_t begin = chunk * batch;
    fill(begin, std::min(begin + batch, num_worlds), &chunks[chunk]);
  };
  if (pool != nullptr && num_chunks >= 2) {
    pool->ParallelFor(num_chunks, run_chunk);
  } else {
    for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
      run_chunk(chunk);
      if (!chunks[chunk].status.ok()) break;
    }
  }
  // Chunk-order scans surface the lowest failing world's error, same as
  // the serial loop, regardless of pool schedule: every realization
  // error before any view error, as a fold that realizes first meets
  // them.
  for (const TupleChunk& chunk : chunks) {
    if (!chunk.status.ok()) return chunk.status;
  }
  for (const TupleChunk& chunk : chunks) {
    if (!chunk.view_status.ok()) return chunk.view_status;
  }
  std::vector<ColumnSpans> columns(names.size());
  for (const TupleChunk& chunk : chunks) {
    for (std::size_t s = 0; s < names.size(); ++s) {
      columns[s].insert(columns[s].end(), chunk.spans[s].begin(),
                        chunk.spans[s].end());
    }
  }
  std::vector<OutputMetrics> metrics = SummarizeColumns(
      columns, config.keep_samples, config.histogram_bins, pool);
  std::map<std::string, OutputMetrics> out;
  for (std::size_t s = 0; s < names.size(); ++s) {
    out.emplace(names[s], std::move(metrics[s]));
  }
  return out;
}
}  // namespace internal

namespace {

/// Output layout locked on world 0: which schema columns exist, which of
/// them are numeric, and the result name of each numeric slot.
struct WorldLayout {
  std::size_t num_columns = 0;
  std::vector<bool> numeric;        ///< per schema column
  std::vector<std::string> names;   ///< numeric columns only, in order
};

Status CheckOneRow(const Table& t) {
  if (t.num_rows() != 1) {
    return Status::ExecutionError(
        "Monte Carlo world query must produce exactly one row, got " +
        std::to_string(t.num_rows()));
  }
  return Status::OK();
}

/// Validates one world's row against the locked layout and appends its
/// numeric values (in slot order) to `buffers`.
Status FoldRow(const Table& t, std::size_t world, const WorldLayout& layout,
               std::vector<std::vector<double>>& buffers) {
  JIGSAW_RETURN_IF_ERROR(CheckOneRow(t));
  if (t.schema().num_columns() != layout.num_columns) {
    return Status::ExecutionError(StrFormat(
        "world %zu produced %zu column(s); world 0 produced %zu", world,
        t.schema().num_columns(), layout.num_columns));
  }
  const Row& row = t.row(0);
  std::size_t slot = 0;
  for (std::size_t c = 0; c < row.size(); ++c) {
    const bool numeric = row[c].IsNumeric();
    if (numeric != layout.numeric[c]) {
      return Status::ExecutionError(StrFormat(
          "column '%s' is %s in world %zu but %s in world 0; a column's "
          "type must not depend on the sampled world",
          t.schema().column(c).name.c_str(),
          numeric ? "numeric" : "non-numeric", world,
          layout.numeric[c] ? "numeric" : "non-numeric"));
    }
    if (numeric) buffers[slot++].push_back(row[c].AsDouble());
  }
  return Status::OK();
}

/// One sweep point of the chunk grid: its numeric column names, or the
/// error that prevented locking its layout (a failed world-0 prepass). A
/// point with a non-OK status schedules no chunk work; its error
/// surfaces at the point's slot in the (point, chunk) scan.
struct GridPoint {
  Status status = Status::OK();
  std::vector<std::string> names;
};

/// Prefixes sweep errors with the failing point so two-axis failures name
/// both coordinates; single-axis folds pass name_points=false and keep
/// the raw message.
Status NamePoint(bool name_points, std::size_t point, Status status) {
  if (!name_points) return status;
  return NameSweepPoint(point, std::move(status));
}

/// Chunk-grid scaffold shared by every possible-worlds fold, one- and
/// two-axis: partitions each point's [0, num_worlds) into batch_size
/// chunks and fills every (point, chunk) cell's per-column staging
/// buffers via `fill_cell` — all cells fan out on `pool` at once when it
/// is present, while a serial run stops at the first failing cell in
/// (point, chunk) order. Cell statuses are then scanned in (point, chunk)
/// order — a fill stops at (and reports) its lowest failing world, and
/// every earlier world of the same point lives in an earlier-or-equal
/// chunk, so the surfaced error matches the serial point-by-point,
/// world-at-a-time loop regardless of schedule. Finally the summary
/// kernel reads each point's buffers in chunk order, which is
/// bit-identical to a world-at-a-time fold for any chunk partition — and
/// per point bit-identical to a standalone single-point fold, since a
/// point's staging never depends on its neighbours. Points stream
/// through bounded-memory windows rather than staging the whole grid at
/// once.
Result<std::vector<std::map<std::string, OutputMetrics>>> FoldChunkGrid(
    std::vector<GridPoint>& points, std::size_t num_worlds,
    const RunConfig& config, ThreadPool* pool, bool name_points,
    const std::function<Status(std::size_t point, std::size_t begin,
                               std::size_t end,
                               std::vector<std::vector<double>>& buffers)>&
        fill_cell) {
  const std::size_t num_points = points.size();
  const std::size_t batch = std::max<std::size_t>(1, config.batch_size);
  const std::size_t num_chunks = (num_worlds + batch - 1) / batch;

  // Points are processed in windows so the staging footprint stays
  // bounded no matter how many points the sweep has: ~128 MB of staged
  // doubles in flight, never less than one point (a one-point window
  // peaks exactly like the standalone statement). Per-point results are
  // independent, windows run in point order and the first failing window
  // returns before any later one evaluates, so windowing changes neither
  // the merged values nor the surfaced error.
  std::size_t width_max = 0;
  for (const auto& p : points) {
    width_max = std::max(width_max, p.names.size());
  }
  constexpr std::size_t kStagedBudget = std::size_t{1} << 24;  // doubles
  const std::size_t budget = internal::g_fold_staged_budget_override != 0
                                 ? internal::g_fold_staged_budget_override
                                 : kStagedBudget;
  const std::size_t per_point =
      std::max<std::size_t>(1, num_worlds * std::max<std::size_t>(
                                                1, width_max));
  const std::size_t window = std::max<std::size_t>(1, budget / per_point);

  std::vector<std::map<std::string, OutputMetrics>> out;
  out.reserve(num_points);
  // stage[(point - first) * num_chunks + chunk][slot] holds that cell's
  // samples of output column `slot` in world order.
  std::vector<std::vector<std::vector<double>>> stage;
  std::vector<Status> cell_status;
  for (std::size_t first = 0; first < num_points; first += window) {
    const std::size_t last = std::min(first + window, num_points);
    const std::size_t num_cells = (last - first) * num_chunks;
    stage.assign(num_cells, {});
    for (std::size_t cell = 0; cell < num_cells; ++cell) {
      stage[cell].resize(points[first + cell / num_chunks].names.size());
    }
    cell_status.assign(num_cells, Status::OK());

    auto run_cell = [&](std::size_t cell) {
      const std::size_t point = first + cell / num_chunks;
      if (!points[point].status.ok()) return;  // layout never locked
      const std::size_t chunk = cell % num_chunks;
      const std::size_t begin = chunk * batch;
      const std::size_t end = std::min(begin + batch, num_worlds);
      cell_status[cell] = fill_cell(point, begin, end, stage[cell]);
    };

    if (pool != nullptr && num_cells >= 2) {
      pool->ParallelFor(num_cells, run_cell);
    } else {
      for (std::size_t cell = 0; cell < num_cells; ++cell) {
        if (!points[first + cell / num_chunks].status.ok()) break;
        run_cell(cell);
        if (!cell_status[cell].ok()) break;
      }
    }

    for (std::size_t point = first; point < last; ++point) {
      if (!points[point].status.ok()) {
        return NamePoint(name_points, point,
                         std::move(points[point].status));
      }
      for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
        Status& s = cell_status[(point - first) * num_chunks + chunk];
        if (!s.ok()) return NamePoint(name_points, point, std::move(s));
      }
    }
    // Every column of every point in the window summarizes in one kernel
    // call, reading the staged cells in place, chunk after chunk.
    std::vector<ColumnSpans> columns;
    for (std::size_t point = first; point < last; ++point) {
      for (std::size_t slot = 0; slot < points[point].names.size(); ++slot) {
        ColumnSpans& column = columns.emplace_back();
        for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
          column.emplace_back(
              stage[(point - first) * num_chunks + chunk][slot]);
        }
      }
    }
    std::vector<OutputMetrics> metrics = SummarizeColumns(
        columns, config.keep_samples, config.histogram_bins, pool);
    std::size_t next = 0;
    for (std::size_t point = first; point < last; ++point) {
      std::map<std::string, OutputMetrics>& named = out.emplace_back();
      for (const std::string& name : points[point].names) {
        named.emplace(name, std::move(metrics[next++]));
      }
    }
  }
  return out;
}

/// Boxed-plan fold over the cell grid. World 0 of every point runs up
/// front (fanned out on the pool when present) to lock that point's
/// layout; chunk 0 of each point then reuses the already-materialized
/// row so the chunk partition covers [0, num_worlds) exactly.
Result<std::vector<std::map<std::string, OutputMetrics>>> FoldPointWorldsImpl(
    std::size_t num_points, std::size_t num_worlds, const RunConfig& config,
    ThreadPool* pool, const PointWorldFn& run_world, bool name_points) {
  if (num_worlds == 0) {
    return std::vector<std::map<std::string, OutputMetrics>>(num_points);
  }

  struct PointState {
    WorldLayout layout;
    std::optional<Table> first;  // world 0's materialized row
  };
  std::vector<GridPoint> points(num_points);
  std::vector<PointState> states(num_points);
  auto lock_point = [&](std::size_t point) {
    // World 0 locks this point's column layout; every later world is
    // validated against it, so a type that flips across worlds (or
    // points) fails loudly instead of silently skewing one column.
    auto first = run_world(point, 0);
    if (!first.ok()) {
      points[point].status = first.status();
      return;
    }
    if (Status s = CheckOneRow(first.value()); !s.ok()) {
      points[point].status = std::move(s);
      return;
    }
    PointState& st = states[point];
    st.first = std::move(first).value();
    st.layout.num_columns = st.first->schema().num_columns();
    const Row& row = st.first->row(0);
    for (std::size_t c = 0; c < st.layout.num_columns; ++c) {
      const bool numeric = row[c].IsNumeric();
      st.layout.numeric.push_back(numeric);
      if (numeric) {
        st.layout.names.push_back(st.first->schema().column(c).name);
      }
    }
    points[point].names = st.layout.names;
  };
  // The prepasses touch independent per-point slots and the status scan
  // in FoldChunkGrid picks the surfaced error in point order regardless
  // of schedule, so they fan out too. The serial run stops at the first
  // failure like the point-by-point loop it mirrors — the surfaced error
  // can only live at an earlier-or-equal point, and the scan returns it
  // before any never-locked point would fold.
  if (pool != nullptr && num_points >= 2) {
    pool->ParallelFor(num_points, lock_point);
  } else {
    for (std::size_t point = 0; point < num_points; ++point) {
      lock_point(point);
      if (!points[point].status.ok()) break;
    }
  }

  auto fill_cell = [&](std::size_t point, std::size_t begin, std::size_t end,
                       std::vector<std::vector<double>>& buffers) {
    const PointState& st = states[point];
    for (auto& b : buffers) b.reserve(end - begin);
    if (begin == 0) {
      JIGSAW_RETURN_IF_ERROR(FoldRow(*st.first, 0, st.layout, buffers));
    }
    for (std::size_t world = std::max<std::size_t>(begin, 1); world < end;
         ++world) {
      auto t = run_world(point, world);
      JIGSAW_RETURN_IF_ERROR(
          t.ok() ? FoldRow(t.value(), world, st.layout, buffers)
                 : t.status());
    }
    return Status::OK();
  };
  return FoldChunkGrid(points, num_worlds, config, pool, name_points,
                       fill_cell);
}

/// Span fold over the cell grid: the layout is statically known and
/// all-numeric, so there is no world-0 prepass.
Result<std::vector<std::map<std::string, OutputMetrics>>>
FoldPointWorldSpansImpl(std::span<const std::string> column_names,
                        std::size_t num_points, std::size_t num_worlds,
                        const RunConfig& config, ThreadPool* pool,
                        const PointWorldSpanFn& run_span, bool name_points) {
  if (num_worlds == 0) {
    return std::vector<std::map<std::string, OutputMetrics>>(num_points);
  }
  std::vector<GridPoint> points(num_points);
  for (auto& p : points) {
    p.names.assign(column_names.begin(), column_names.end());
  }
  auto fill_cell = [&](std::size_t point, std::size_t begin, std::size_t end,
                       std::vector<std::vector<double>>& buffers) {
    const std::size_t count = end - begin;
    std::vector<double*> columns(buffers.size());
    for (std::size_t slot = 0; slot < buffers.size(); ++slot) {
      buffers[slot].resize(count);
      columns[slot] = buffers[slot].data();
    }
    return run_span(point, begin, count, columns);
  };
  return FoldChunkGrid(points, num_worlds, config, pool, name_points,
                       fill_cell);
}

}  // namespace

Status NameSweepPoint(std::size_t point, Status status) {
  return Status(status.code(),
                StrFormat("sweep point %zu: %s", point,
                          status.message().c_str()));
}

Result<std::map<std::string, OutputMetrics>> FoldWorlds(
    std::size_t num_worlds, const RunConfig& config, ThreadPool* pool,
    const WorldFn& run_world) {
  // The single-point case of the grid fold; errors keep their raw
  // (unnamed) messages.
  JIGSAW_ASSIGN_OR_RETURN(
      auto points,
      FoldPointWorldsImpl(
          1, num_worlds, config, pool,
          [&](std::size_t, std::size_t world) { return run_world(world); },
          /*name_points=*/false));
  return std::move(points[0]);
}

Result<std::map<std::string, OutputMetrics>> FoldWorldSpans(
    std::span<const std::string> column_names, std::size_t num_worlds,
    const RunConfig& config, ThreadPool* pool, const WorldSpanFn& run_span) {
  JIGSAW_ASSIGN_OR_RETURN(
      auto points,
      FoldPointWorldSpansImpl(
          column_names, 1, num_worlds, config, pool,
          [&](std::size_t, std::size_t begin, std::size_t count,
              std::span<double* const> columns) {
            return run_span(begin, count, columns);
          },
          /*name_points=*/false));
  return std::move(points[0]);
}

Result<std::vector<std::map<std::string, OutputMetrics>>> FoldPointWorlds(
    std::size_t num_points, std::size_t num_worlds, const RunConfig& config,
    ThreadPool* pool, const PointWorldFn& run_world) {
  // A one-point sweep IS the standalone statement: its error must stay
  // byte-identical to FoldWorlds, so the coordinate prefix only appears
  // when there is more than one point to disambiguate.
  return FoldPointWorldsImpl(num_points, num_worlds, config, pool, run_world,
                             /*name_points=*/num_points > 1);
}

Result<std::vector<std::map<std::string, OutputMetrics>>>
FoldPointWorldSpans(std::span<const std::string> column_names,
                    std::size_t num_points, std::size_t num_worlds,
                    const RunConfig& config, ThreadPool* pool,
                    const PointWorldSpanFn& run_span) {
  return FoldPointWorldSpansImpl(column_names, num_points, num_worlds,
                                 config, pool, run_span,
                                 /*name_points=*/num_points > 1);
}

Result<std::map<std::string, OutputMetrics>> FoldVGColumns(
    const VGTableFunction& fn, std::span<const std::string> column_names,
    std::size_t num_worlds, const SeedVector& seeds, const RunConfig& config,
    ThreadPool* pool, WorldCache* cache) {
  // A VG table's schema is world-invariant, so requested columns resolve
  // up front — a bad name or a non-numeric column fails before any
  // realization, on both storage paths, with the boxed error text.
  const Schema& schema = fn.schema();
  std::vector<std::size_t> slots;
  slots.reserve(column_names.size());
  for (const auto& name : column_names) {
    JIGSAW_ASSIGN_OR_RETURN(std::size_t idx, schema.IndexOf(name));
    const ValueType t = schema.column(idx).type;
    if (t != ValueType::kDouble && t != ValueType::kInt &&
        t != ValueType::kBool) {
      return Status::ExecutionError("column '" + name + "' is not numeric");
    }
    slots.push_back(idx);
  }

  if (config.columnar_storage) {
    // Shard-ownership rule: a chunk's task is the only writer of its
    // extent, so parallel realization needs no synchronization. The task
    // then views its requested columns (widening int/bool) in place.
    return internal::SummarizeTupleChunks(
        num_worlds, column_names, config, pool,
        [&](std::size_t begin, std::size_t end, internal::TupleChunk* chunk) {
          if (cache != nullptr) {
            constexpr std::size_t kWholeTable[] = {0};
            for (std::size_t w = begin; w < end; ++w) {
              auto r = cache->GetOrGenerateColumnar(fn, w, seeds);
              if (!r.ok()) {
                chunk->status = r.status();
                return;
              }
              if (chunk->view_status.ok()) {
                chunk->view_status = internal::ViewChunkColumns(
                    *r.value(), kWholeTable, slots, column_names, chunk);
              }
            }
            return;
          }
          chunk->extent.world_begin = begin;
          for (std::size_t w = begin; w < end; ++w) {
            if (Status s = chunk->extent.AppendWorld(fn, w, seeds); !s.ok()) {
              chunk->status = std::move(s);
              return;
            }
          }
          chunk->view_status = internal::ViewChunkColumns(
              chunk->extent.data, chunk->extent.row_offsets, slots,
              column_names, chunk);
        });
  }

  // Boxed reference twin: whole Tables, copying NumericColumn extraction,
  // staged per chunk.
  return internal::SummarizeTupleChunks(
      num_worlds, column_names, config, pool,
      [&](std::size_t begin, std::size_t end, internal::TupleChunk* chunk) {
        chunk->buffers.resize(slots.size());
        for (std::size_t w = begin; w < end; ++w) {
          const Table* table = nullptr;
          Table local;
          if (cache != nullptr) {
            auto r = cache->GetOrGenerate(fn, w, seeds);
            if (!r.ok()) {
              chunk->status = r.status();
              return;
            }
            table = r.value();
          } else {
            auto r = fn.Generate(w, seeds);
            if (!r.ok()) {
              chunk->status = r.status();
              return;
            }
            local = std::move(r).value();
            table = &local;
          }
          for (std::size_t s = 0; s < slots.size(); ++s) {
            auto col = table->NumericColumn(column_names[s]);
            if (!col.ok()) {
              chunk->status = col.status();
              return;
            }
            const std::vector<double>& values = col.value();
            chunk->buffers[s].insert(chunk->buffers[s].end(), values.begin(),
                                     values.end());
          }
        }
        for (std::size_t s = 0; s < slots.size(); ++s) {
          chunk->spans[s].emplace_back(chunk->buffers[s]);
        }
      });
}

Result<MonteCarloResult> MonteCarloExecutor::Run(
    const PlanFactory& make_plan, std::span<const double> params) {
  auto run_world = [&](std::size_t world) -> Result<Table> {
    JIGSAW_ASSIGN_OR_RETURN(PlanNodePtr plan, make_plan());
    EvalContext ctx;
    ctx.params = params;
    ctx.sample_id = world;
    ctx.seeds = &seeds_;
    ctx.columnar_storage = config_.columnar_storage;
    return ExecuteToTable(*plan, ctx);
  };
  MonteCarloResult result;
  JIGSAW_ASSIGN_OR_RETURN(
      result.columns,
      FoldWorlds(config_.num_samples, config_, pool_, run_world));
  result.worlds = config_.num_samples;
  return result;
}

Result<MonteCarloResult> MonteCarloExecutor::RunSpans(
    std::span<const std::string> column_names, const WorldSpanFn& run_span) {
  MonteCarloResult result;
  JIGSAW_ASSIGN_OR_RETURN(
      result.columns, FoldWorldSpans(column_names, config_.num_samples,
                                     config_, pool_, run_span));
  result.worlds = config_.num_samples;
  return result;
}

Result<std::vector<MonteCarloResult>> MonteCarloExecutor::RunSweep(
    const PlanFactory& make_plan,
    std::span<const std::vector<double>> valuations) {
  auto run_world = [&](std::size_t point,
                       std::size_t world) -> Result<Table> {
    JIGSAW_ASSIGN_OR_RETURN(PlanNodePtr plan, make_plan());
    EvalContext ctx;
    ctx.params = valuations[point];
    ctx.sample_id = world;
    ctx.seeds = &seeds_;
    ctx.columnar_storage = config_.columnar_storage;
    return ExecuteToTable(*plan, ctx);
  };
  JIGSAW_ASSIGN_OR_RETURN(
      auto folded, FoldPointWorlds(valuations.size(), config_.num_samples,
                                   config_, pool_, run_world));
  std::vector<MonteCarloResult> out(folded.size());
  for (std::size_t point = 0; point < folded.size(); ++point) {
    out[point].columns = std::move(folded[point]);
    out[point].worlds = config_.num_samples;
  }
  return out;
}

Result<std::vector<MonteCarloResult>> MonteCarloExecutor::RunSweepSpans(
    std::span<const std::string> column_names, std::size_t num_points,
    const PointWorldSpanFn& run_span) {
  JIGSAW_ASSIGN_OR_RETURN(
      auto folded,
      FoldPointWorldSpans(column_names, num_points, config_.num_samples,
                          config_, pool_, run_span));
  std::vector<MonteCarloResult> out(folded.size());
  for (std::size_t point = 0; point < folded.size(); ++point) {
    out[point].columns = std::move(folded[point]);
    out[point].worlds = config_.num_samples;
  }
  return out;
}

}  // namespace jigsaw::pdb
