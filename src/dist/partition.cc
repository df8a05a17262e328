#include "dist/partition.h"

#include <algorithm>

#include "common/logging.h"

namespace sliceline::dist {

std::vector<RowRange> PartitionRows(int64_t n, int workers) {
  SLICELINE_CHECK_GE(workers, 1);
  SLICELINE_CHECK_GE(n, 0);
  const int w = static_cast<int>(
      std::min<int64_t>(workers, std::max<int64_t>(n, 1)));
  std::vector<RowRange> out;
  out.reserve(w);
  const int64_t base = n / w;
  const int64_t extra = n % w;
  int64_t begin = 0;
  for (int i = 0; i < w; ++i) {
    const int64_t size = base + (i < extra ? 1 : 0);
    out.push_back({begin, begin + size});
    begin += size;
  }
  return out;
}

}  // namespace sliceline::dist
