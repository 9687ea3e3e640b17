// Fixture: hidden per-thread state under src/ (R6 thread-local). A
// thread_local mentioned in a comment or "thread_local" in a string does
// not count.
#include <vector>

namespace mrca {

double scratch_sum(double value) {
  thread_local std::vector<double> scratch;  // finding
  scratch.push_back(value);
  static thread_local int calls = 0;  // finding
  ++calls;
  const char* label = "thread_local";
  return static_cast<double>(scratch.size() + calls) + label[0];
}

}  // namespace mrca
