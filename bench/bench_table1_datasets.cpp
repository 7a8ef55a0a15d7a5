// Table 1: characteristics of the four experimental data sets.
//
// Generates the four synthetic stand-ins and prints their measured
// characteristics next to the paper's reported values. Cells the paper
// reports but our copy renders illegibly are reconstructed (marked ~);
// the Reality Mining trace substitutes 90 days for 9 months with the
// contact count scaled to preserve the contact rate (see DESIGN.md).
#include <cstdio>

#include "bench_util.hpp"
#include "trace/datasets.hpp"
#include "util/csv.hpp"

using namespace odtn;

int main() {
  bench::banner("Table 1", "characteristics of the four data sets");
  CsvWriter csv(bench::csv_path("table1_datasets"));
  csv.write_row({"dataset", "metric", "paper", "generated"});

  const auto datasets = all_datasets();
  std::vector<SyntheticTrace> traces;
  traces.reserve(datasets.size());
  for (const auto& d : datasets) traces.push_back(d.generate());

  auto row = [&](const char* metric, auto paper_of, auto gen_of) {
    std::printf("%-34s", metric);
    for (std::size_t i = 0; i < datasets.size(); ++i) {
      char cell[64];
      std::snprintf(cell, sizeof cell, "%s / %s",
                    paper_of(datasets[i]).c_str(), gen_of(traces[i]).c_str());
      std::printf(" %20s", cell);
      csv.write_row({datasets[i].spec.name, metric, paper_of(datasets[i]),
                     gen_of(traces[i])});
    }
    std::printf("\n");
  };
  auto num = [](double v) {
    char b[32];
    std::snprintf(b, sizeof b, "%.0f", v);
    return std::string(b);
  };
  auto num1 = [](double v) {
    char b[32];
    std::snprintf(b, sizeof b, "%.1f", v);
    return std::string(b);
  };

  std::printf("%-34s", "metric (paper / generated)");
  for (const auto& d : datasets) std::printf(" %20s", d.spec.name.c_str());
  std::printf("\n");
  std::printf("%s\n", std::string(34 + 21 * 4, '-').c_str());

  row("Duration (days)",
      [&](const DatasetPreset& d) { return num(d.paper.duration_days); },
      [&](const SyntheticTrace& t) { return num1(t.graph.duration() / kDay); });
  row("Granularity (seconds)",
      [&](const DatasetPreset& d) { return num(d.paper.granularity_seconds); },
      [&](const SyntheticTrace&) { return std::string("same"); });
  row("Experimental devices",
      [&](const DatasetPreset& d) { return num(d.paper.devices); },
      [&](const SyntheticTrace& t) { return num(t.num_internal); });
  row("Internal contacts",
      [&](const DatasetPreset& d) { return num(d.paper.internal_contacts); },
      [&](const SyntheticTrace& t) { return num(t.internal_contact_count()); });
  row("Contact rate (per device per day)",
      [&](const DatasetPreset&) { return std::string("n/a*"); },
      [&](const SyntheticTrace& t) {
        return num1(t.internal_contact_rate(kDay, false));
      });
  row("External devices",
      [&](const DatasetPreset& d) {
        return d.paper.external_devices ? num(d.paper.external_devices)
                                        : std::string("N/A");
      },
      [&](const SyntheticTrace& t) {
        return t.graph.num_nodes() > t.num_internal
                   ? num(static_cast<double>(t.graph.num_nodes() -
                                             t.num_internal))
                   : std::string("N/A");
      });
  row("External contacts",
      [&](const DatasetPreset& d) {
        return d.paper.external_contacts
                   ? std::string("~").append(num(d.paper.external_contacts))
                   : std::string("N/A");
      },
      [&](const SyntheticTrace& t) {
        return t.external_contact_count() ? num(t.external_contact_count())
                                          : std::string("N/A");
      });

  std::printf("\n(*) the paper's per-data-set rate cells are illegible in the\n"
              "available copy; we print the generated rates instead.\n");
  std::printf("\nNotes on reconstructed / substituted cells:\n");
  for (const auto& d : datasets)
    std::printf("  %-14s %s\n", d.spec.name.c_str(), d.paper.note.c_str());
  std::printf("[csv] wrote %s\n", bench::csv_path("table1_datasets").c_str());
  return 0;
}
