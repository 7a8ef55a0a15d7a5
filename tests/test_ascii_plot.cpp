#include "util/ascii_plot.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace odtn {
namespace {

TEST(AsciiPlot, RendersSeriesAndLegend) {
  PlotSeries s{"rising", {0, 1, 2, 3}, {0, 1, 2, 3}};
  const PlotOptions opt{.x_label = "x", .y_label = "y"};
  const std::string plot = render_ascii_plot({s}, opt);
  EXPECT_NE(plot.find('*'), std::string::npos);
  EXPECT_NE(plot.find("rising"), std::string::npos);
  EXPECT_NE(plot.find("[x]"), std::string::npos);
}

TEST(AsciiPlot, MultipleSeriesUseDistinctGlyphs) {
  PlotSeries a{"a", {0, 1}, {0, 0}};
  PlotSeries b{"b", {0, 1}, {1, 1}};
  const std::string plot = render_ascii_plot({a, b}, {});
  EXPECT_NE(plot.find('*'), std::string::npos);
  EXPECT_NE(plot.find('o'), std::string::npos);
}

TEST(AsciiPlot, SkipsNonFinitePoints) {
  const double inf = std::numeric_limits<double>::infinity();
  PlotSeries s{"s", {0, 1, 2}, {0, inf, 2}};
  EXPECT_NO_THROW(render_ascii_plot({s}, {}));
}

TEST(AsciiPlot, LogXSkipsNonPositive) {
  PlotSeries s{"s", {0.0, 1.0, 10.0, 100.0}, {1, 2, 3, 4}};
  PlotOptions opt;
  opt.log_x = true;
  EXPECT_NO_THROW(render_ascii_plot({s}, opt));
}

TEST(AsciiPlot, DurationTicks) {
  PlotSeries s{"s", {60.0, 3600.0}, {0, 1}};
  PlotOptions opt;
  opt.log_x = true;
  opt.x_as_duration = true;
  const std::string plot = render_ascii_plot({s}, opt);
  EXPECT_NE(plot.find("min"), std::string::npos);
}

TEST(AsciiPlot, EmptySeriesDoesNotCrash) {
  PlotSeries s{"empty", {}, {}};
  EXPECT_NO_THROW(render_ascii_plot({s}, {}));
}

TEST(AsciiPlot, FixedYRangeRespected) {
  PlotSeries s{"s", {0, 1}, {0.2, 0.8}};
  PlotOptions opt;
  opt.y_min = 0.0;
  opt.y_max = 1.0;
  const std::string plot = render_ascii_plot({s}, opt);
  EXPECT_NE(plot.find("1"), std::string::npos);  // the top tick shows 1
}

}  // namespace
}  // namespace odtn
