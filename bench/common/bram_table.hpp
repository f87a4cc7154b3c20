#pragma once
// Shared runner for the paper's BRAM provisioning tables (Tables II-V): one
// resolution per bench binary, windows x thresholds, measured worst-case
// stream sizes from the evaluation set feeding bram::allocate_proposed,
// printed side by side with the published cells.

#include <cstddef>

namespace swc::benchx {

// Published cells of Tables II-V: packed-bit BRAMs per threshold plus the
// management column.
struct PaperBramRow {
  std::size_t window;
  std::size_t packed[4];  // T = 0, 2, 4, 6
  std::size_t management;
};

void run_bram_table(const char* table_name, std::size_t width, const PaperBramRow* published_rows,
                    std::size_t row_count);

}  // namespace swc::benchx
