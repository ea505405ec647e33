#pragma once

/// \file graph_spec.h
/// Presentation spec for the interactive mode's GRAPH OVER query (Section
/// 2.2): which parameter drives the X axis and which metric of which
/// result column each series plots. The style words are carried verbatim
/// (the paper's GUI interprets "bold red", "blue y2", ...; our ASCII
/// renderer maps them to glyphs).

#include <string>
#include <vector>

#include "core/metrics.h"

namespace jigsaw {

struct GraphSeries {
  MetricSelector metric = MetricSelector::kExpect;
  std::string column;
  std::string style;  ///< e.g. "bold red", "blue y2"
};

struct GraphSpec {
  std::string x_param;
  std::vector<GraphSeries> series;
};

}  // namespace jigsaw
