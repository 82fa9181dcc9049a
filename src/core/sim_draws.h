// A run's random inputs as one value, shared by both queue engines.
//
// Algorithm 1 sets each query's properties "before simulation begins":
// query i arrives at arrival[i], belongs to class klass[i] and needs
// service_time[i] seconds at the sustained rate. The simulator draws them
// with DrawSimQueries (src/sim), where a class is a SimConfig class; the
// testbed with Testbed::Draw (src/testbed), where a class is a WorkloadId
// of the mix. Either engine replays a value bit for bit. The class column
// is empty when there is only one class (one workload), since that run
// has no choice to record.

#ifndef MSPRINT_SRC_CORE_SIM_DRAWS_H_
#define MSPRINT_SRC_CORE_SIM_DRAWS_H_

#include <cstdint>
#include <vector>

namespace msprint {

struct SimDraws {
  std::vector<double> arrival;
  std::vector<double> service_time;
  std::vector<uint32_t> klass;  // empty unless two or more classes
};

}  // namespace msprint

#endif  // MSPRINT_SRC_CORE_SIM_DRAWS_H_
